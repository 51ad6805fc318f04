//! The operation pass shared by both run modes, and the traced run's
//! layer replay.
//!
//! The untraced pass runs the workload's operations and collects the
//! end-to-end samples. The traced iteration runs that pass twice — once
//! plain, once inside spans with allocation counting and the program's
//! own `Metrics::enabled()` registry — and then replays each layer by
//! calling its public function directly, one span per call:
//!
//! ```text
//! replay ─┬─ trace.parse        CaptureReader over the input file
//!         ├─ accumulate         FlowAccumulator::push / finish
//!         ├─ cluster            FlowAssembler::consume
//!         ├─ encode             FlowAssembler::into_section
//!         ├─ container.assemble assemble_sections
//!         ├─ engine             StreamingEngine::compress_stream_to_bytes, 2 shards
//!         ├─ container.decode   CompressedTrace::from_bytes
//!         ├─ decompress.synth   Decompressor::decompress
//!         ├─ trace.write        tsh::write_trace / pcap::write_trace
//!         ├─ serve.manifest_read   read_manifest
//!         ├─ query.archive_open    file read + v2 metadata walk
//!         └─ serve.window_replay   one window through Pipeline::compress()
//! ```

use crate::alloc;
use crate::ops::{add_stats, read_capture, Ask, Bench, Checks, TSH_RECORD};
use crate::run::Metric;
use crate::span::Tracer;
use crate::stats::{median, quantile, Samples};
use crate::sys;
use crate::workload::QUERY_GROUPS;
use flowzip_core::{
    assemble_sections, CompressedTrace, Decompressor, FlowAccumulator, FlowAssembler, Params,
    QueryStats,
};
use flowzip_engine::StreamingEngine;
use flowzip_obs::{Metrics, StatsSnapshot};
use flowzip_pipeline::{Input, Pipeline, Report, Sink};
use flowzip_serve::read_manifest;
use flowzip_trace::reader::CaptureFormat;
use flowzip_trace::{pcap, tsh, PacketRecord};
use std::collections::BTreeSet;
use std::io::{BufWriter, Write};
use std::path::PathBuf;

/// Windows replayed through `Pipeline::compress()` per traced iteration.
const REPLAYED_WINDOWS: usize = 4;

/// The machine's available parallelism, as reported with every run.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// End-to-end samples pooled over a run's iterations.
#[derive(Debug, Default)]
pub struct E2e {
    /// Per compress operation.
    pub compress_mpps: Samples,
    /// See `compress_mpps`.
    pub compress_rss: Vec<f64>,
    /// Per decompress operation.
    pub decompress_mpps: Samples,
    /// See `decompress_mpps`.
    pub decompress_rss: Vec<f64>,
    /// Per serve session.
    pub serve_mpps: Samples,
    /// Archive bytes ÷ (packets × 44), per compress operation.
    pub ratio: Vec<f64>,
    /// Directory queries, ms.
    pub query_ms: Samples,
}

/// What the traced run accumulates besides its spans.
#[derive(Debug, Default)]
pub struct LayerLedger {
    /// Lines for the human-readable table.
    pub notes: Vec<String>,
    parsed: u64,
    written: u64,
    engine_packets: u64,
    accumulated: u64,
    short_flows: u64,
    encoded: u64,
    decoded: u64,
    synthesized: u64,
    peak_active: u64,
    matched: u64,
    offered: u64,
    templates: Vec<f64>,
    read_wait_secs: f64,
    compress_secs: f64,
    unattributed_secs: f64,
    instrumented_secs: f64,
    shard_skew: Vec<f64>,
    plain_secs: f64,
    traced_secs: f64,
    query: QueryStats,
    point_ms: Vec<f64>,
    range_ms: Vec<f64>,
    close_ms: Vec<f64>,
    stall_secs: f64,
    serve_secs: f64,
    mismatches: BTreeSet<String>,
    complexity: Option<f64>,
    archived_short: u64,
    archived_long: u64,
}

impl LayerLedger {
    fn counter(&mut self, snap: Option<&StatsSnapshot>, name: &str, want: u64) {
        let got = snap.and_then(|s| s.counter(name));
        if got != Some(want) && self.mismatches.insert(name.to_string()) {
            self.notes.push(format!(
                "obs counter {name}: program {got:?}, outside count {want}"
            ));
        }
    }

    fn skew(&mut self, snap: Option<&StatsSnapshot>) {
        // Batches each shard accumulated, from the per-shard
        // `engine.shard.N.accumulate_ns` histograms.
        let per_shard: Vec<f64> = (0..)
            .map_while(|i| snap?.histogram(&flowzip_obs::names::shard_accumulate_ns(i)))
            .map(|h| h.count as f64)
            .collect();
        let mean = per_shard.iter().sum::<f64>() / per_shard.len().max(1) as f64;
        if mean > 0.0 {
            let max = per_shard.iter().copied().fold(0.0, f64::max);
            self.shard_skew.push(max / mean);
        }
    }
}

fn within<R>(t: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match t {
        Some(t) => t.span(name, |_| f()),
        None => f(),
    }
}

/// One pass over the workload's operations: serve, compress and
/// decompress, with a group of directory queries after each so that the
/// query samples spread over the whole run. With a tracer, every
/// operation runs in a span and the program's own metrics registry is
/// on; the ledger then receives the program-side counters. Returns the
/// wall seconds of the workload's compress and decompress operations.
pub fn ops_pass(
    b: &mut Bench,
    s: &mut E2e,
    mut t: Option<&mut Tracer>,
    mut l: Option<&mut LayerLedger>,
) -> f64 {
    let traced = t.is_some();
    let tsh_equiv = (b.inputs.packets * TSH_RECORD) as f64;
    let mut wall = 0.0;

    let served = within(&mut t, "op.serve", || b.serve());
    s.serve_mpps.push(
        served.packets as f64 / sys::unstolen_secs(served.secs, served.stolen).max(1e-9) / 1e6,
        served.stolen,
    );
    if let Some(l) = l.as_deref_mut() {
        let snap = served.metrics.as_ref().map(Metrics::snapshot);
        l.counter(
            snap.as_ref(),
            flowzip_obs::names::SERVE_WINDOWS,
            served.windows,
        );
        l.counter(snap.as_ref(), flowzip_obs::names::SERVE_DROPPED_PACKETS, 0);
        l.counter(
            snap.as_ref(),
            flowzip_obs::names::ENGINE_PACKETS,
            served.packets,
        );
        // The streaming workload's skew comes from its compress call.
        if !b.spec.streaming {
            l.skew(snap.as_ref());
        }
        l.close_ms.extend_from_slice(&served.close_ms);
        l.stall_secs += served.stall_secs;
        l.serve_secs += served.secs;
        l.unattributed_secs += served.unattributed_secs;
        l.instrumented_secs += served.window_elapsed_secs;
    }
    if let Err(e) = b.plan_queries() {
        b.ledger.op(vec![format!("query plan: {e}")]);
        return wall;
    }
    let groups = split(b.plan().len(), QUERY_GROUPS);
    query_group(b, s, &mut t, &mut l, groups[0].clone());

    let metrics = traced.then(Metrics::enabled);
    let (c, bytes) = within(&mut t, "op.compress", || b.compress(metrics));
    wall += c.secs;
    s.compress_mpps.push(c.mpps(), c.stolen);
    s.compress_rss.push(c.peak_rss_mb);
    s.ratio.push(bytes.len() as f64 / tsh_equiv);
    if let (Some(l), Some(report)) = (l.as_deref_mut(), c.report.as_ref()) {
        compress_obs(b, l, report, &bytes);
    }
    query_group(b, s, &mut t, &mut l, groups[1].clone());

    let d = within(&mut t, "op.decompress", || b.decompress());
    wall += d.secs;
    s.decompress_mpps.push(d.mpps(), d.stolen);
    s.decompress_rss.push(d.peak_rss_mb);
    query_group(b, s, &mut t, &mut l, groups[2].clone());
    wall
}

/// `n` indices cut into `k` contiguous ranges of near-equal length.
fn split(n: usize, k: usize) -> Vec<std::ops::Range<usize>> {
    (0..k).map(|g| g * n / k..(g + 1) * n / k).collect()
}

/// Runs the planned queries in `range`, one closed-loop client.
fn query_group(
    b: &mut Bench,
    s: &mut E2e,
    t: &mut Option<&mut Tracer>,
    l: &mut Option<&mut LayerLedger>,
    range: std::ops::Range<usize>,
) {
    for i in range {
        let metrics = t.is_some().then(Metrics::enabled);
        let q = within(t, "op.query", || b.query(i, metrics.as_ref()));
        s.query_ms.push(q.ms, q.stolen);
        if let Some(l) = l.as_deref_mut() {
            let planned = b.plan()[i];
            match planned.ask {
                Ask::Flow(_) => l.point_ms.push(q.ms),
                Ask::Window(..) => l.range_ms.push(q.ms),
            }
            add_stats(&mut l.query, q.stats);
            let snap = metrics.map(|m| m.snapshot());
            l.counter(
                snap.as_ref(),
                flowzip_obs::names::QUERY_PACKETS,
                planned.expect_packets,
            );
        }
    }
}

/// Program-side counters of an instrumented compress call against the
/// benchmark's outside counts.
fn compress_obs(b: &Bench, l: &mut LayerLedger, report: &Report, bytes: &[u8]) {
    use flowzip_obs::names;
    let snap = report.metrics.as_ref();
    l.counter(snap, names::IO_READER_BYTES, b.inputs.capture_bytes);
    // Every read of a non-empty file comes in at least one batch.
    let batches = snap
        .and_then(|s| s.counter(names::IO_READER_BATCHES))
        .unwrap_or(0);
    if batches == 0
        && b.inputs.capture_bytes > 0
        && l.mismatches.insert(names::IO_READER_BATCHES.to_string())
    {
        l.notes.push(format!(
            "obs counter {}: 0 after {} bytes read",
            names::IO_READER_BATCHES,
            b.inputs.capture_bytes
        ));
    }
    if b.spec.streaming {
        l.counter(snap, names::ENGINE_PACKETS, b.inputs.packets);
        let sections = flowzip_core::container::v2_counts(bytes).map_or(0, |c| c.3);
        l.counter(snap, names::CONTAINER_SECTIONS, sections);
        l.skew(snap);
    }
    if b.spec.telemetry {
        l.counter(snap, names::TELEMETRY_FLOWS, b.inputs.flows);
    }
    if let Some(t) = report.timing {
        l.read_wait_secs += t.read_wait_secs;
        l.compress_secs += t.elapsed_secs;
        l.unattributed_secs += t.unattributed_secs;
        l.instrumented_secs += t.elapsed_secs;
    }
    if let Some(c) = &report.compression {
        l.archived_short = c.short_flows;
        l.archived_long = c.long_flows;
    }
}

/// One traced iteration: a plain pass, a traced pass, then the layer
/// replay — all inside the same process so the tracing overhead is the
/// ratio of the two passes.
pub fn traced_iteration(b: &mut Bench, t: &mut Tracer, l: &mut LayerLedger) {
    let mut discard = E2e::default();
    l.plain_secs += ops_pass(b, &mut discard, None, None);
    alloc::set_counting(true);
    l.traced_secs += ops_pass(b, &mut discard, Some(t), Some(l));
    t.span("replay", |t| replay(b, t, l));
    alloc::set_counting(false);
    if l.complexity.is_none() {
        l.complexity = complexity(b);
    }
}

fn replay(b: &mut Bench, t: &mut Tracer, l: &mut LayerLedger) {
    let params = Params::paper();
    let telemetry = b.spec.telemetry;
    let dir = b.serve_dir();
    let entries = t
        .span("serve.manifest_read", |_| read_manifest(&dir))
        .unwrap_or_default();
    let archives: Vec<PathBuf> = entries
        .iter()
        .filter_map(|e| e.archive.as_ref().map(|a| dir.join(a)))
        .collect();
    let rotate = b.spec.rotate as usize;

    let packets = match t.span("trace.parse", |_| read_capture(&b.inputs.capture)) {
        Ok(p) => p,
        Err(e) => {
            b.ledger.op(vec![format!("replay parse: {e}")]);
            return;
        }
    };
    l.parsed += packets.len() as u64;
    let bytes = replay_compress(t, l, &params, &packets, telemetry);
    let archive = std::fs::read(b.archive_path()).unwrap_or_default();
    if !b.spec.streaming {
        // One assembler is the batch route: the layer-by-layer replay
        // must rebuild the session's archive byte for byte.
        let mut checks = Checks::default();
        checks.expect(bytes == archive, || {
            "layer replay archive differs from compress()".into()
        });
        b.ledger.op(checks.0);
    }
    replay_engine(t, l, &packets, telemetry);
    replay_decompress(b, t, l, &archive, b.spec.capture);

    for path in &archives {
        t.span("query.archive_open", |_| {
            std::fs::read(path).map(|bytes| flowzip_core::v2_metadata(&bytes).is_ok())
        })
        .ok();
    }

    let windows = packets.chunks(rotate).len().min(archives.len());
    for k in 0..REPLAYED_WINDOWS.min(windows) {
        let idx = (k * windows) / REPLAYED_WINDOWS;
        let chunk = packets.chunks(rotate).nth(idx).unwrap_or(&[]);
        let result = t.span("serve.window_replay", |_| {
            let mut session = Pipeline::compress()
                .input(Input::packets(chunk.iter().copied()))
                .threads(2)
                .sink(Sink::bytes());
            if telemetry {
                session = session.telemetry(true);
            }
            session.run()
        });
        let mut checks = Checks::default();
        match result {
            Ok(r) => {
                let on_disk = std::fs::read(&archives[idx]).unwrap_or_default();
                checks.expect(r.bytes() == Some(on_disk.as_slice()), || {
                    format!("window {idx} replayed through compress() differs from serve's archive")
                });
            }
            Err(e) => checks.0.push(format!("window replay: {e}")),
        }
        b.ledger.op(checks.0);
    }
}

fn replay_compress(
    t: &mut Tracer,
    l: &mut LayerLedger,
    params: &Params,
    packets: &[PacketRecord],
    telemetry: bool,
) -> Vec<u8> {
    let (flows, peak) = t.span("accumulate", |_| {
        let mut acc = FlowAccumulator::with_telemetry(params.clone(), telemetry);
        for p in packets {
            acc.push(p);
        }
        let peak = acc.peak_active_flows() as u64;
        (acc.finish(), peak)
    });
    l.accumulated += packets.len() as u64;
    l.peak_active = l.peak_active.max(peak);
    let short = flows
        .iter()
        .filter(|f| f.is_short(params.short_max))
        .count() as u64;
    l.short_flows += short;
    let asm = t.span("cluster", |_| {
        let mut asm = FlowAssembler::with_telemetry(params.clone(), telemetry);
        for f in &flows {
            asm.consume(f);
        }
        asm
    });
    drop(flows);
    let section = t.span("encode", |_| asm.into_section());
    l.encoded += section.packets;
    l.matched += section.store.matched_count();
    l.offered += section.store.matched_count() + section.store.inserted_count();
    l.templates.push(section.store.len() as f64);
    let n = packets.len() as u64;
    let (bytes, _) = t.span("container.assemble", |_| {
        assemble_sections(params, vec![section], n * TSH_RECORD, n * 40)
    });
    bytes
}

fn replay_engine(t: &mut Tracer, l: &mut LayerLedger, packets: &[PacketRecord], telemetry: bool) {
    let engine = StreamingEngine::builder()
        .shards(2)
        .telemetry(telemetry)
        .build();
    let out = t.span("engine", |_| {
        engine.compress_stream_to_bytes(packets.iter().copied().map(Ok))
    });
    if out.is_ok() {
        l.engine_packets += packets.len() as u64;
    }
}

fn replay_decompress(
    b: &mut Bench,
    t: &mut Tracer,
    l: &mut LayerLedger,
    archive: &[u8],
    format: CaptureFormat,
) {
    let ct = match t.span("container.decode", |_| CompressedTrace::from_bytes(archive)) {
        Ok(ct) => ct,
        Err(e) => {
            b.ledger.op(vec![format!("replay decode: {e}")]);
            return;
        }
    };
    l.decoded += ct.packet_count();
    let trace = t.span("decompress.synth", |_| {
        Decompressor::default().decompress(&ct)
    });
    l.synthesized += trace.len() as u64;
    let out = b.work.join("replay.out");
    let written = t.span("trace.write", |_| {
        let mut w = BufWriter::with_capacity(1 << 20, std::fs::File::create(&out)?);
        match format {
            CaptureFormat::Tsh => tsh::write_trace(&mut w, &trace),
            CaptureFormat::Pcap => pcap::write_trace(&mut w, &trace),
        }
        .map_err(std::io::Error::other)?;
        w.flush()
    });
    match written {
        Ok(_) => l.written += trace.len() as u64,
        Err(e) => b.ledger.op(vec![format!("replay write: {e}")]),
    }
}

/// Trace-complexity score of the compress archive.
fn complexity(b: &Bench) -> Option<f64> {
    let bytes = std::fs::read(b.archive_path()).ok()?;
    flowzip_analysis::stream::analyze_archive(&bytes)
        .ok()
        .map(|p| p.complexity.score)
}

/// What the traced run tags the workload with: input size, flow mix
/// (as archived by the compress call), seed and the machine's
/// parallelism.
pub fn tags(b: &Bench, l: &LayerLedger) -> Vec<(&'static str, u64)> {
    vec![
        ("seed", b.seed),
        ("packets", b.inputs.packets),
        ("flows", b.inputs.flows),
        ("short_flows", l.archived_short),
        ("long_flows", l.archived_long),
        ("host_parallelism", host_parallelism() as u64),
    ]
}

/// The per-layer metrics (`--trace 1`), name and unit, in
/// `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.parse_ns_per_pkt", "ns/pkt"),
    ("trace.write_ns_per_pkt", "ns/pkt"),
    ("io.read_wait_frac", "ratio"),
    ("engine.ns_per_pkt", "ns/pkt"),
    ("engine.allocs_per_pkt", "allocs/pkt"),
    ("engine.shard_skew", "ratio"),
    ("accumulate.ns_per_pkt", "ns/pkt"),
    ("accumulate.allocs_per_pkt", "allocs/pkt"),
    ("accumulate.peak_active_flows", "count"),
    ("cluster.ns_per_short_flow", "ns/flow"),
    ("cluster.match_ratio", "ratio"),
    ("cluster.templates", "count"),
    ("encode.ns_per_pkt", "ns/pkt"),
    ("encode.allocs_per_pkt", "allocs/pkt"),
    ("container.assemble_ms", "ms"),
    ("container.decode_ns_per_pkt", "ns/pkt"),
    ("decompress.synth_ns_per_pkt", "ns/pkt"),
    ("decompress.allocs_per_pkt", "allocs/pkt"),
    ("query.archive_open_us", "us"),
    ("query.sections_scanned_frac", "ratio"),
    ("query.bloom_skip_frac", "ratio"),
    ("query.time_skip_frac", "ratio"),
    ("query.point_p50_ms", "ms"),
    ("query.range_p50_ms", "ms"),
    ("serve.window_close_p50_ms", "ms"),
    ("serve.window_close_p90_ms", "ms"),
    ("serve.manifest_read_ms", "ms"),
    ("serve.ingest_stall_frac", "ratio"),
    ("serve.window_replay_ms", "ms"),
    ("pipeline.unattributed_frac", "ratio"),
    ("obs.unattributed_frac", "ratio"),
    ("obs.trace_overhead_frac", "ratio"),
    ("obs.counter_mismatches", "count"),
    ("workload.complexity", "score"),
];

/// Reduces the traced run to the per-layer metrics.
pub fn metrics(t: &Tracer, l: &LayerLedger) -> Vec<Metric> {
    let totals = t.totals();
    let self_ns = |name: &str| totals.get(name).map_or(0.0, |x| x.self_ns as f64);
    let allocs = |name: &str| totals.get(name).map_or(0.0, |x| x.self_allocs as f64);
    let per = |x: f64, n: u64| if n == 0 { 0.0 } else { x / n as f64 };
    let frac = |x: f64, of: f64| if of > 0.0 { x / of } else { 0.0 };
    let median_of = |name: &str, scale: f64| median(&t.durations(name)) / scale;

    let replayed: f64 = [
        "trace.parse",
        "accumulate",
        "cluster",
        "encode",
        "container.assemble",
        "container.decode",
        "decompress.synth",
        "trace.write",
    ]
    .iter()
    .map(|n| self_ns(n))
    .sum();
    let e2e_ns: f64 = ["op.compress", "op.decompress"]
        .iter()
        .map(|n| t.durations(n).iter().sum::<f64>())
        .sum();
    let q = &l.query;
    let sections = q.sections_total as f64;

    let values = [
        per(self_ns("trace.parse"), l.parsed),
        per(self_ns("trace.write"), l.written),
        frac(l.read_wait_secs, l.compress_secs),
        per(self_ns("engine"), l.engine_packets),
        per(allocs("engine"), l.engine_packets),
        median(&l.shard_skew),
        per(self_ns("accumulate"), l.accumulated),
        per(allocs("accumulate"), l.accumulated),
        l.peak_active as f64,
        per(self_ns("cluster"), l.short_flows),
        frac(l.matched as f64, l.offered as f64),
        median(&l.templates),
        per(self_ns("encode"), l.encoded),
        per(allocs("encode"), l.encoded),
        median_of("container.assemble", 1e6),
        per(self_ns("container.decode"), l.decoded),
        per(self_ns("decompress.synth"), l.synthesized),
        per(allocs("decompress.synth"), l.synthesized),
        median_of("query.archive_open", 1e3),
        frac(q.sections_scanned as f64, sections),
        frac(q.sections_skipped_bloom as f64, sections),
        frac(q.sections_skipped_time as f64, sections),
        median(&l.point_ms),
        median(&l.range_ms),
        quantile(&l.close_ms, 0.5),
        quantile(&l.close_ms, 0.9),
        median_of("serve.manifest_read", 1e6),
        frac(l.stall_secs, l.serve_secs),
        median_of("serve.window_replay", 1e6),
        1.0 - frac(replayed, e2e_ns),
        frac(l.unattributed_secs, l.instrumented_secs),
        frac(l.traced_secs, l.plain_secs) - 1.0,
        l.mismatches.len() as f64,
        l.complexity.unwrap_or(0.0),
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect()
}
