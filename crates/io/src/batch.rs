//! [`BatchRead`]: batch-granular packet delivery.
//!
//! A [`BatchRead`] source hands over whole decoded `Vec<PacketRecord>`
//! batches — one channel receive (or one chunked pull) per batch. The
//! engine checks its cancel flag between pulls, so a source that is cut
//! (a `flowzip serve` rotation window) never loses half a batch.
//!
//! Contract (what makes a `BatchRead` substitutable for the equivalent
//! per-packet iteration):
//!
//! * Concatenating the yielded batches reproduces the packet stream
//!   exactly — same packets, same order. Batch *boundaries* carry no
//!   meaning and may be any size ≥ 1.
//! * An `Err` is terminal and positioned: every packet decoded before
//!   the error has already been yielded in earlier batches, and no
//!   packet after it ever is. Subsequent calls return `None` (fused).
//! * `None` means clean end of stream; the source stays fused.
//!
//! [`MultiFileIter`](crate::MultiFileIter) implements this natively (its
//! reader threads already build the batches); any other iterator can be
//! adapted by chunking.

use flowzip_trace::{PacketRecord, TraceError};

/// A fallible packet source drained batch-at-a-time. See the
/// [module docs](self) for the substitutability contract.
pub trait BatchRead {
    /// The next decoded batch, `None` on clean end of stream. An `Err`
    /// is terminal: the packets that preceded it were already yielded,
    /// and every later call returns `None`.
    fn next_batch(&mut self) -> Option<Result<Vec<PacketRecord>, TraceError>>;
}

impl BatchRead for crate::MultiFileIter {
    fn next_batch(&mut self) -> Option<Result<Vec<PacketRecord>, TraceError>> {
        crate::MultiFileIter::next_batch(self)
    }
}

impl<B: BatchRead + ?Sized> BatchRead for &mut B {
    fn next_batch(&mut self) -> Option<Result<Vec<PacketRecord>, TraceError>> {
        (**self).next_batch()
    }
}

impl<B: BatchRead + ?Sized> BatchRead for Box<B> {
    fn next_batch(&mut self) -> Option<Result<Vec<PacketRecord>, TraceError>> {
        (**self).next_batch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InputSource, MultiFileConfig, MultiFileSource};
    use flowzip_trace::prelude::*;
    use flowzip_trace::tsh;

    #[test]
    fn multifile_iter_is_a_batch_read() {
        let dir = std::env::temp_dir().join(format!("fz-batchread-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let packets: Vec<PacketRecord> = (0..40)
            .map(|i| {
                PacketRecord::builder()
                    .timestamp(Timestamp::from_micros(i * 7))
                    .src(Ipv4Addr::new(10, 0, 0, 1), 4000 + i as u16)
                    .dst(Ipv4Addr::new(192, 0, 2, 1), 80)
                    .flags(TcpFlags::ACK)
                    .build()
            })
            .collect();
        let a = dir.join("a.tsh");
        let b = dir.join("b.tsh");
        std::fs::write(
            &a,
            tsh::to_bytes(&Trace::from_packets(packets[..25].to_vec())),
        )
        .unwrap();
        std::fs::write(
            &b,
            tsh::to_bytes(&Trace::from_packets(packets[25..].to_vec())),
        )
        .unwrap();

        let src = MultiFileSource::open(
            [&a, &b],
            MultiFileConfig {
                readers: 2,
                batch_packets: 8,
                queue_batches: 2,
                prefetch: None,
            },
        )
        .unwrap();
        // Drain through the trait object to prove object safety.
        let mut iter: Box<dyn BatchRead> = Box::new(src.into_packets());
        let mut got = Vec::new();
        while let Some(batch) = iter.next_batch() {
            got.extend(batch.unwrap());
        }
        assert_eq!(got, packets);
        assert!(iter.next_batch().is_none(), "fused after clean end");
        std::fs::remove_dir_all(&dir).ok();
    }
}
