//! Router helpers: which shard owns a packet, and the bridge that lets
//! a batch-granular [`BatchRead`] source feed the per-packet router.

use flowzip_io::BatchRead;
use flowzip_trace::{PacketRecord, TraceError};

/// Which shard owns a packet: a cheap direction-free FNV-1a over the
/// endpoint pair, so both directions of a conversation land together.
/// This runs on the router thread for every packet — it must cost far
/// less than the per-packet work it fans out (SipHash here halves
/// router throughput for no distributional benefit).
pub(crate) fn shard_of(p: &PacketRecord, shards: usize) -> usize {
    let t = p.tuple();
    let a = (u32::from(t.src_ip), t.src_port);
    let b = (u32::from(t.dst_ip), t.dst_port);
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in [
        lo.0 as u64,
        lo.1 as u64,
        hi.0 as u64,
        hi.1 as u64,
        t.protocol.number() as u64,
    ] {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// A [`BatchRead`] as a per-packet iterator: yields each pulled batch's
/// packets in order, then the source's error (if any) in its position.
pub(crate) struct BatchPackets<B> {
    source: B,
    batch: std::vec::IntoIter<PacketRecord>,
}

impl<B> BatchPackets<B> {
    pub(crate) fn new(source: B) -> BatchPackets<B> {
        BatchPackets {
            source,
            batch: Vec::new().into_iter(),
        }
    }
}

impl<B: BatchRead> Iterator for BatchPackets<B> {
    type Item = Result<PacketRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(p) = self.batch.next() {
                return Some(Ok(p));
            }
            match self.source.next_batch()? {
                Ok(batch) => self.batch = batch.into_iter(),
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowzip_trace::prelude::*;

    fn pkt(port: u16, us: u64) -> PacketRecord {
        PacketRecord::builder()
            .src(Ipv4Addr::new(10, 0, 0, 1), port)
            .dst(Ipv4Addr::new(192, 0, 2, 9), 80)
            .timestamp(Timestamp::from_micros(us))
            .flags(TcpFlags::SYN)
            .build()
    }

    /// Hands out pre-built batches, then a final item (an error or end).
    struct Batches(std::vec::IntoIter<Result<Vec<PacketRecord>, TraceError>>);

    impl BatchRead for Batches {
        fn next_batch(&mut self) -> Option<Result<Vec<PacketRecord>, TraceError>> {
            self.0.next()
        }
    }

    #[test]
    fn batch_packets_flattens_batches_then_surfaces_the_error() {
        let packets: Vec<_> = (0..23u64).map(|i| pkt(5000 + i as u16, i)).collect();
        let mut items: Vec<_> = packets.chunks(5).map(|c| Ok(c.to_vec())).collect();
        items.push(Err(TraceError::TruncatedRecord { got: 3, need: 44 }));
        let got: Vec<_> = BatchPackets::new(Batches(items.into_iter())).collect();
        assert_eq!(got.len(), packets.len() + 1);
        for (g, want) in got.iter().zip(&packets) {
            assert_eq!(g.as_ref().unwrap(), want);
        }
        assert!(matches!(
            got.last().unwrap(),
            Err(TraceError::TruncatedRecord { got: 3, need: 44 })
        ));
    }
}
