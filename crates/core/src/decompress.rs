//! The decompression algorithm of §4.
//!
//! "The algorithm starts reading the time-seq dataset ... goes reading the
//! sequences of M values and decoding the TCP flag, the payload size, and
//! the inter-packet time. ... For source address, we assign randomly an IP
//! class B or C address ... a random value between 1024 and 65000 to
//! client port number, and to the server side the value 80."
//!
//! Timing synthesis: the first packet lands at the record's timestamp;
//! each *dependent* packet (decoded from `f₂`) waits the flow's stored
//! RTT, each non-dependent packet follows after a small back-to-back gap.
//! Packet direction is itself reconstructed from the dependence bits: the
//! first packet travels client→server and every dependent packet flips
//! the direction (it answered the opposite node).
//!
//! # Streaming merge
//!
//! §4 "merges flows by timestamp while writing the output file", and
//! [`Decompressor::packets`] does exactly that: a k-way merge over the
//! active flows. Each flow record becomes a cursor (clock, direction,
//! sequence numbers, template position) that yields the flow's packets
//! in order; records are admitted in `first_ts` order and a min-heap
//! keyed by `(packet timestamp, record index)` picks the next packet.
//! Memory is O(archive + active flows), not O(packets), so a writer fed
//! from the iterator never holds the whole trace. The key reproduces the
//! stable time sort of the record-major expansion, so the output order
//! is fully determined by the archive. [`Decompressor::decompress`] is
//! the same iterator collected into a [`Trace`].
//!
//! # Position-independent endpoint synthesis
//!
//! The synthesized client address and port are a **pure function of the
//! record's stored content** — `(seed, first-packet timestamp,
//! destination address, quantized RTT, S/L bit)` via [`synth_client`] —
//! not of the record's position in the time-seq stream. That invariance
//! is what makes archives *queryable*: decoding any subset of a v2
//! archive's sections reproduces, flow for flow, the exact endpoints a
//! full decompression synthesizes, so section pruning can never change a
//! query's answer. It is also what the v2.1 metadata block's Bloom
//! filters index ([`meta`](crate::meta)): the same function runs at
//! encode time to compute the flow keys a future query will look for.

use crate::characterize::{size_class_representative, Dependence};
use crate::datasets::{CompressedTrace, FlowRecord, RTT_SHIFT};
use crate::Params;
use flowzip_trace::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Default RNG seed for synthesized client endpoints (`0x5EED`), shared
/// by [`DecompressParams::default`], the CLI flags and the metadata
/// writer — Bloom keys in freshly written archives assume it.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// Decompression knobs.
#[derive(Debug, Clone)]
pub struct DecompressParams {
    /// Characterization parameters (must match the compressor's weights
    /// for `M` decoding; [`Params::paper`] by default).
    pub params: Params,
    /// Gap inserted after non-dependent packets (back-to-back spacing).
    pub backtoback_gap: Duration,
    /// RTT substitute when a flow recorded none (responder never spoke).
    pub default_rtt: Duration,
    /// RNG seed for synthesized addresses and ports.
    pub seed: u64,
}

impl Default for DecompressParams {
    fn default() -> Self {
        DecompressParams {
            params: Params::paper(),
            backtoback_gap: Duration::from_micros(300),
            default_rtt: Duration::from_millis(80),
            seed: DEFAULT_SEED,
        }
    }
}

/// The §4 decompressor.
#[derive(Debug)]
pub struct Decompressor {
    config: DecompressParams,
}

impl Decompressor {
    /// Creates a decompressor.
    pub fn new(config: DecompressParams) -> Decompressor {
        Decompressor { config }
    }

    /// Expands an archive into a synthetic trace, time-sorted: the
    /// [`packets`](Decompressor::packets) merge, collected.
    pub fn decompress(&self, ct: &CompressedTrace) -> Trace {
        self.packets(ct).collect()
    }

    /// The archive's synthesized packets in output order, produced by
    /// the streaming k-way flow merge described in the
    /// [module docs](self): memory is O(active flows), not O(packets).
    ///
    /// The order is the stable time sort of the record-major expansion —
    /// packets by timestamp, ties by record position in `time_seq`, then
    /// by position within the flow.
    ///
    /// # Panics
    ///
    /// Panics if a record indexes past the archive's template or address
    /// tables; archives decoded from bytes are validated, so only a
    /// hand-built [`CompressedTrace`] can trip this.
    pub fn packets<'a>(&'a self, ct: &'a CompressedTrace) -> Packets<'a> {
        let sorted = ct
            .time_seq
            .windows(2)
            .all(|w| w[0].first_ts <= w[1].first_ts);
        // An unsorted in-memory `time_seq` is ordered by flow, never by
        // packet: a stable index sort keeps equal-start flows in stream
        // order, which is what the merge's tie-break expects.
        let order = (!sorted).then(|| {
            let mut order: Vec<usize> = (0..ct.time_seq.len()).collect();
            order.sort_by_key(|&i| ct.time_seq[i].first_ts);
            order
        });
        Packets {
            config: &self.config,
            ct,
            order,
            admitted: 0,
            heap: BinaryHeap::new(),
            flows: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Parses serialized archive bytes — either container format, v1 or
    /// v2, detected from the magic — and expands them. The format never
    /// changes the output: a v2 read reconstructs the identical
    /// [`CompressedTrace`] the v1 path yields, so the synthesized trace
    /// is packet-identical too.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`](crate::datasets::CodecError) for malformed
    /// input.
    pub fn decompress_bytes(&self, data: &[u8]) -> Result<Trace, crate::datasets::CodecError> {
        Ok(self.decompress(&CompressedTrace::from_bytes(data)?))
    }
}

impl Default for Decompressor {
    fn default() -> Self {
        Decompressor::new(DecompressParams::default())
    }
}

/// Iterator over an archive's synthesized packets in output order; see
/// [`Decompressor::packets`].
///
/// Flow records are admitted in `first_ts` order, each as a flow cursor
/// parked in a slot. A min-heap keyed by
/// `(next packet timestamp, record index)` holds one entry per active
/// flow; every step emits the top flow's pending packet and re-keys it
/// from the cursor's next one. A record is admitted once its `first_ts`
/// is ≤ the heap top's timestamp, so no unadmitted flow can own an
/// earlier packet.
#[derive(Debug)]
pub struct Packets<'a> {
    config: &'a DecompressParams,
    ct: &'a CompressedTrace,
    /// Record indices in `first_ts` order, when `time_seq` is not
    /// already sorted.
    order: Option<Vec<usize>>,
    /// Records admitted so far (a position in `order`).
    admitted: usize,
    /// `(pending packet timestamp, record index, slot)`, min first.
    heap: BinaryHeap<Reverse<(Timestamp, usize, usize)>>,
    /// Active flows: the pending packet and the cursor behind it.
    flows: Vec<(PacketRecord, FlowCursor<'a>)>,
    /// Slots in `flows` free for reuse.
    free: Vec<usize>,
}

impl Packets<'_> {
    /// Admits every record that may own a packet at or before the heap
    /// top (or the next record outright when no flow is active).
    fn admit(&mut self) {
        while self.admitted < self.ct.time_seq.len() {
            let idx = match &self.order {
                Some(order) => order[self.admitted],
                None => self.admitted,
            };
            let record = &self.ct.time_seq[idx];
            if let Some(Reverse((top, _, _))) = self.heap.peek() {
                if record.first_ts > *top {
                    return;
                }
            }
            self.admitted += 1;
            let mut cursor = FlowCursor::new(self.config, self.ct, record);
            // A record over an empty template contributes no packets.
            if let Some(head) = cursor.next() {
                let slot = match self.free.pop() {
                    Some(slot) => {
                        self.flows[slot] = (head, cursor);
                        slot
                    }
                    None => {
                        self.flows.push((head, cursor));
                        self.flows.len() - 1
                    }
                };
                self.heap.push(Reverse((head.timestamp(), idx, slot)));
            }
        }
    }
}

impl Iterator for Packets<'_> {
    type Item = PacketRecord;

    fn next(&mut self) -> Option<PacketRecord> {
        self.admit();
        let mut top = self.heap.peek_mut()?;
        let Reverse((_, idx, slot)) = *top;
        let (head, cursor) = &mut self.flows[slot];
        let packet = *head;
        match cursor.next() {
            Some(next) => {
                *head = next;
                // Re-keying in place sifts the entry down once on drop.
                *top = Reverse((next.timestamp(), idx, slot));
            }
            None => {
                PeekMut::pop(top);
                self.free.push(slot);
            }
        }
        Some(packet)
    }
}

/// One flow record mid-expansion — the §4 synthesis as a state machine
/// that yields the flow's packets in order: the template position, the
/// clock, the direction and both sequence counters.
#[derive(Debug)]
struct FlowCursor<'a> {
    params: &'a DecompressParams,
    entries: Entries<'a>,
    pos: usize,
    now: Timestamp,
    rtt: Duration,
    c2s: FiveTuple,
    client_to_server: bool,
    client_seq: u32,
    server_seq: u32,
}

/// The template a cursor walks: short flows store only `M` values,
/// long flows also the gap before each packet.
#[derive(Debug, Clone, Copy)]
enum Entries<'a> {
    Short(&'a [u16]),
    Long(&'a [(u16, Duration)]),
}

impl<'a> FlowCursor<'a> {
    /// A cursor at the first packet of `record`, whose template, address
    /// and RTT it reads from `ct` (indices must be in range).
    fn new(
        params: &'a DecompressParams,
        ct: &'a CompressedTrace,
        record: &FlowRecord,
    ) -> FlowCursor<'a> {
        let server = ct.addresses[record.addr_idx as usize];
        let c2s = synth_tuple(
            params.seed,
            record.first_ts,
            server,
            record.rtt,
            record.is_long,
        );
        let entries = if record.is_long {
            Entries::Long(&ct.long_templates[record.template_idx as usize].entries)
        } else {
            Entries::Short(&ct.short_templates[record.template_idx as usize])
        };
        FlowCursor {
            params,
            entries,
            pos: 0,
            now: record.first_ts,
            rtt: if record.rtt.is_zero() {
                params.default_rtt
            } else {
                record.rtt
            },
            c2s,
            client_to_server: true,
            client_seq: 1_000,
            server_seq: 5_000,
        }
    }
}

impl Iterator for FlowCursor<'_> {
    type Item = PacketRecord;

    fn next(&mut self) -> Option<PacketRecord> {
        let (m, stored_gap) = match self.entries {
            Entries::Short(ms) => (*ms.get(self.pos)?, None),
            Entries::Long(es) => {
                let &(m, gap) = es.get(self.pos)?;
                (m, Some(gap))
            }
        };
        let params = &self.params.params;
        let (class, dep, f3) = params.weights.decompose(m as u32).unwrap_or((
            crate::characterize::FlagClass::Ack,
            Dependence::NotDependent,
            0,
        ));
        if self.pos > 0 {
            // Timing: stored gap for long flows; synthesized for short.
            // Saturating, so a hostile timestamp near the top of the
            // clock pins there instead of overflowing.
            self.now = self.now.saturating_add(stored_gap.unwrap_or(match dep {
                Dependence::Dependent => self.rtt,
                Dependence::NotDependent => self.params.backtoback_gap,
            }));
            // Direction: dependent packets answer the opposite node.
            if dep == Dependence::Dependent {
                self.client_to_server = !self.client_to_server;
            }
        }
        self.pos += 1;
        let len = size_class_representative(f3, params.size_edge);
        let (tuple, seq, ack) = if self.client_to_server {
            let s = self.client_seq;
            self.client_seq = s.wrapping_add(len as u32);
            (self.c2s, s, self.server_seq)
        } else {
            let s = self.server_seq;
            self.server_seq = s.wrapping_add(len as u32);
            (self.c2s.reversed(), s, self.client_seq)
        };
        Some(
            PacketRecord::builder()
                .timestamp(self.now)
                .tuple(tuple)
                .flags(class.to_flags())
                .payload_len(len)
                .seq(seq)
                .ack(ack)
                .build(),
        )
    }
}

/// Synthesizes a flow's client endpoint — address in random class B/C
/// space, port in 1024–65000 — as a **pure function of the record's
/// stored content**: the decompression seed, the flow's first-packet
/// timestamp, its server address, its RTT (quantized exactly as the
/// container quantizes it, so in-memory and decoded archives agree) and
/// its short/long bit. Every consumer of a record — full decompression,
/// a pruned query decode, the encode-time Bloom-key writer — derives the
/// identical endpoint, regardless of which sections around it were
/// decoded.
pub fn synth_client(
    seed: u64,
    first_ts: Timestamp,
    server: Ipv4Addr,
    rtt: Duration,
    is_long: bool,
) -> (Ipv4Addr, u16) {
    // FNV-1a over the record's canonical content, then used to seed the
    // same RNG draw sequence §4 prescribes.
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    };
    for b in seed.to_le_bytes() {
        eat(b);
    }
    for b in first_ts.as_micros().to_le_bytes() {
        eat(b);
    }
    for b in server.octets() {
        eat(b);
    }
    // Long flows store no RTT (it is Duration::ZERO by construction);
    // short-flow RTTs reach a decoder only at 128 µs granularity.
    let rtt_q = if is_long {
        0
    } else {
        rtt.as_micros() >> RTT_SHIFT
    };
    for b in rtt_q.to_le_bytes() {
        eat(b);
    }
    eat(is_long as u8);

    let mut rng = StdRng::seed_from_u64(h);
    let client = random_class_b_or_c(&mut rng);
    let port = rng.gen_range(1024..=65000u16);
    (client, port)
}

/// [`synth_client`] packaged as the flow's client→server five-tuple
/// (server side on port 80, per §4) — the flow key the v2.1 metadata
/// Bloom filters store and `flowzip query` matches against.
pub fn synth_tuple(
    seed: u64,
    first_ts: Timestamp,
    server: Ipv4Addr,
    rtt: Duration,
    is_long: bool,
) -> FiveTuple {
    let (client, port) = synth_client(seed, first_ts, server, rtt, is_long);
    FiveTuple::tcp(client, port, server, 80)
}

/// "For source address, we assign randomly an IP class B or C address."
fn random_class_b_or_c<R: Rng>(rng: &mut R) -> Ipv4Addr {
    if rng.gen_bool(0.5) {
        // Class B: 128.0.0.0 – 191.255.255.255
        Ipv4Addr::new(
            rng.gen_range(128u8..=191),
            rng.gen(),
            rng.gen(),
            rng.gen_range(1..=254),
        )
    } else {
        // Class C: 192.0.0.0 – 223.255.255.255
        Ipv4Addr::new(
            rng.gen_range(192u8..=223),
            rng.gen(),
            rng.gen(),
            rng.gen_range(1..=254),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::Compressor;
    use flowzip_trace::flow::FlowTable;
    use flowzip_traffic::web::{WebTrafficConfig, WebTrafficGenerator};

    fn web_trace(flows: usize, seed: u64) -> Trace {
        WebTrafficGenerator::new(
            WebTrafficConfig {
                flows,
                ..WebTrafficConfig::default()
            },
            seed,
        )
        .generate()
    }

    fn roundtrip(trace: &Trace) -> Trace {
        let (ct, _) = Compressor::new(Params::paper()).compress(trace);
        Decompressor::default().decompress(&ct)
    }

    #[test]
    fn packet_and_flow_counts_preserved() {
        let orig = web_trace(120, 1);
        let dec = roundtrip(&orig);
        assert_eq!(dec.len(), orig.len());
        let orig_flows = FlowTable::from_trace(&orig).len();
        let dec_flows = FlowTable::from_trace(&dec).len();
        assert_eq!(dec_flows, orig_flows);
    }

    #[test]
    fn output_is_time_sorted() {
        let dec = roundtrip(&web_trace(100, 2));
        assert!(dec.is_time_ordered());
        dec.validate().unwrap();
    }

    #[test]
    fn ports_follow_section_four() {
        let dec = roundtrip(&web_trace(60, 3));
        for p in &dec {
            let t = p.tuple();
            let (client_port, server_port) = if t.dst_port == 80 {
                (t.src_port, t.dst_port)
            } else {
                (t.dst_port, t.src_port)
            };
            assert_eq!(server_port, 80, "server side is port 80");
            assert!((1024..=65000).contains(&client_port));
        }
    }

    #[test]
    fn sources_are_class_b_or_c() {
        let dec = roundtrip(&web_trace(60, 4));
        for p in &dec {
            // The client endpoint (port != 80) must be class B or C.
            let client_ip = if p.tuple().dst_port == 80 {
                p.src_ip()
            } else {
                p.dst_ip()
            };
            let first = client_ip.octets()[0];
            assert!(
                (128..=223).contains(&first),
                "client {client_ip} outside class B/C"
            );
        }
    }

    #[test]
    fn flag_sequence_structure_survives() {
        let orig = web_trace(150, 5);
        let dec = roundtrip(&orig);
        let count =
            |t: &Trace, pred: fn(TcpFlags) -> bool| t.iter().filter(|p| pred(p.flags())).count();
        // SYN and SYN+ACK counts survive exactly (every flow keeps its
        // handshake classes through template clustering within d_sim).
        let syn_orig = count(&orig, |f| f.is_syn_only());
        let syn_dec = count(&dec, |f| f.is_syn_only());
        let diff = (syn_orig as f64 - syn_dec as f64).abs() / syn_orig as f64;
        assert!(diff < 0.05, "syn counts {syn_orig} vs {syn_dec}");
    }

    #[test]
    fn payload_class_histogram_survives() {
        use crate::characterize::size_class;
        let orig = web_trace(200, 6);
        let dec = roundtrip(&orig);
        let hist = |t: &Trace| {
            let mut h = [0u64; 3];
            for p in t {
                h[size_class(p.payload_len(), 500) as usize] += 1;
            }
            h
        };
        let ho = hist(&orig);
        let hd = hist(&dec);
        for k in 0..3 {
            let rel = (ho[k] as f64 - hd[k] as f64).abs() / ho[k].max(1) as f64;
            assert!(rel < 0.10, "class {k}: {} vs {}", ho[k], hd[k]);
        }
    }

    #[test]
    fn destination_addresses_come_from_the_address_dataset() {
        let orig = web_trace(80, 7);
        let (ct, _) = Compressor::new(Params::paper()).compress(&orig);
        let dec = Decompressor::default().decompress(&ct);
        let servers: std::collections::HashSet<Ipv4Addr> = ct.addresses.iter().copied().collect();
        // Every c2s packet's destination is a stored address.
        for p in &dec {
            if p.tuple().dst_port == 80 {
                assert!(servers.contains(&p.dst_ip()));
            }
        }
    }

    #[test]
    fn flow_durations_are_rtt_scaled() {
        // A flow's span must be on the order of (dependent packets × RTT).
        let orig = web_trace(40, 8);
        let (ct, _) = Compressor::new(Params::paper()).compress(&orig);
        let dec = Decompressor::default().decompress(&ct);
        let table = FlowTable::from_trace(&dec);
        for flow in table.flows() {
            let span = flow
                .last_timestamp()
                .saturating_since(flow.first_timestamp());
            // 4+ dependent packets per scripted flow, RTT >= 1ms each.
            assert!(span.as_micros() >= 3_000, "span {span} too small");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let orig = web_trace(50, 9);
        let (ct, _) = Compressor::new(Params::paper()).compress(&orig);
        let a = Decompressor::default().decompress(&ct);
        let b = Decompressor::default().decompress(&ct);
        assert_eq!(a, b);
        let c = Decompressor::new(DecompressParams {
            seed: 999,
            ..Default::default()
        })
        .decompress(&ct);
        assert_ne!(a, c, "different seed, different synthesized addresses");
    }

    #[test]
    fn empty_archive_decompresses_to_empty_trace() {
        let dec = Decompressor::default().decompress(&CompressedTrace::default());
        assert!(dec.is_empty());
    }

    #[test]
    fn timing_saturates_at_the_top_of_the_clock() {
        let top = Timestamp::from_micros(u64::MAX - 10);
        let ct = CompressedTrace {
            // SYN, then three dependent packets an RTT apart each.
            short_templates: vec![vec![0, 16, 32, 32]],
            long_templates: Vec::new(),
            addresses: vec![Ipv4Addr::new(192, 0, 2, 80)],
            time_seq: vec![crate::datasets::FlowRecord {
                first_ts: top,
                is_long: false,
                template_idx: 0,
                addr_idx: 0,
                rtt: Duration::from_millis(5),
            }],
        };
        let dec = Decompressor::default().decompress(&ct);
        let ts: Vec<u64> = dec.iter().map(|p| p.timestamp().as_micros()).collect();
        assert_eq!(ts, [u64::MAX - 10, u64::MAX, u64::MAX, u64::MAX]);
    }

    #[test]
    fn endpoint_synthesis_is_position_independent() {
        // Dropping records from the stream must not change the endpoints
        // synthesized for the remaining ones — the invariant that makes
        // pruned (per-section) query decodes byte-identical to filtering
        // a full decompression.
        let orig = web_trace(80, 10);
        let (ct, _) = Compressor::new(Params::paper()).compress(&orig);
        let full = Decompressor::default().decompress(&ct);
        let mut sub = ct.clone();
        sub.time_seq = ct.time_seq.iter().step_by(2).copied().collect();
        let dec_sub = Decompressor::default().decompress(&sub);
        let full_set: std::collections::HashSet<_> = full
            .iter()
            .map(|p| (p.timestamp(), p.tuple(), p.payload_len(), p.flags().bits()))
            .collect();
        assert!(!dec_sub.is_empty());
        for p in &dec_sub {
            assert!(
                full_set.contains(&(p.timestamp(), p.tuple(), p.payload_len(), p.flags().bits())),
                "subset decode synthesized a packet the full decode never produced"
            );
        }
    }

    #[test]
    fn in_memory_and_serialized_archives_synthesize_identically() {
        // synth_client quantizes the RTT exactly as the container does,
        // so an in-memory archive (raw RTTs) and its decoded serialized
        // form (quantized RTTs) synthesize the same endpoints — only the
        // packet *timing* reflects the RTT precision loss. And the two
        // serialized forms quantize identically, so their expansions are
        // equal outright.
        let orig = web_trace(70, 11);
        let (ct, _) = Compressor::new(Params::paper()).compress(&orig);
        let direct = Decompressor::default().decompress(&ct);
        let via_v1 = Decompressor::default()
            .decompress_bytes(&ct.to_bytes())
            .unwrap();
        let via_v2 = Decompressor::default()
            .decompress_bytes(&ct.to_bytes_v2())
            .unwrap();
        assert_eq!(via_v1, via_v2);
        assert_eq!(direct.len(), via_v1.len());
        // RTT precision loss can nudge timestamps (and thus packet
        // order), but the synthesized endpoint multiset is invariant.
        let tuples = |t: &Trace| {
            let mut v: Vec<FiveTuple> = t.packets().iter().map(|p| p.tuple()).collect();
            v.sort();
            v
        };
        assert_eq!(
            tuples(&direct),
            tuples(&via_v1),
            "endpoints must survive quantization"
        );
    }

    #[test]
    fn synth_tuple_matches_decompressed_flows() {
        // The tuple the metadata writer computes per record is exactly
        // the tuple the decompressor gives that record's packets.
        let orig = web_trace(50, 12);
        let (ct, _) = Compressor::new(Params::paper()).compress(&orig);
        let params = DecompressParams::default();
        let dec = Decompressor::new(params.clone()).decompress(&ct);
        let expected: std::collections::HashSet<FiveTuple> = ct
            .time_seq
            .iter()
            .map(|r| {
                synth_tuple(
                    params.seed,
                    r.first_ts,
                    ct.addresses[r.addr_idx as usize],
                    r.rtt,
                    r.is_long,
                )
            })
            .collect();
        for p in &dec {
            let t = p.tuple();
            let c2s = if t.dst_port == 80 { t } else { t.reversed() };
            assert!(expected.contains(&c2s), "packet tuple {t} not predicted");
        }
    }
}
