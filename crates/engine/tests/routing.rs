//! The router's contract: first-error propagation and batch-source
//! equivalence (liveness under back-pressure is in `backpressure.rs`).
//!
//! One thread (the caller's) routes packets to N bounded shard channels
//! in stream order. The first input error aborts the run at its own
//! position, whatever batch boundary it lands on.

use flowzip_core::ArchiveFormat;
use flowzip_engine::StreamingEngine;
use flowzip_io::{InputSource, MultiFileConfig, MultiFileSource};
use flowzip_trace::prelude::*;
use flowzip_trace::{tsh, TraceError, TshReader};
use flowzip_traffic::web::{WebTrafficConfig, WebTrafficGenerator};

fn web_trace(flows: usize, seed: u64) -> Trace {
    WebTrafficGenerator::new(
        WebTrafficConfig {
            flows,
            duration_secs: 20.0,
            ..WebTrafficConfig::default()
        },
        seed,
    )
    .generate()
}

fn sample_trace(packets: u64) -> Trace {
    let mut t = Trace::new();
    for i in 0..packets {
        t.push(
            PacketRecord::builder()
                .timestamp(Timestamp::from_micros(i * 100))
                .src(
                    Ipv4Addr::new(10, 0, 0, (i % 200 + 1) as u8),
                    2000 + i as u16,
                )
                .dst(Ipv4Addr::new(192, 0, 2, 1), 80)
                .flags(if i % 5 == 0 {
                    TcpFlags::SYN
                } else {
                    TcpFlags::ACK
                })
                .build(),
        );
    }
    t
}

fn engine(shards: usize, batch_size: usize) -> StreamingEngine {
    StreamingEngine::builder()
        .shards(shards)
        .batch_size(batch_size)
        .channel_capacity(2)
        .format(ArchiveFormat::V2)
        .build()
}

/// A TSH stream cut inside the 8th record surfaces `TruncatedRecord` at
/// every shard count — the packets decoded before the cut are absorbed
/// and discarded, the error aborts the run.
#[test]
fn truncated_tsh_mid_batch_propagates_the_same_error() {
    let bytes = tsh::to_bytes(&sample_trace(64));
    let cut = 7 * tsh::RECORD_BYTES + 13;
    // batch_size 4: the cut lands mid-way through the second batch, so
    // a full batch is already downstream when the error is read.
    for shards in [1usize, 3] {
        let err = engine(shards, 4)
            .compress_stream(TshReader::new(&bytes[..cut]))
            .unwrap_err();
        assert!(
            matches!(err, TraceError::TruncatedRecord { got: 13, need: 44 }),
            "{shards} shards: got {err:?}"
        );
    }
}

/// An error injected at every position of a small stream comes back
/// unchanged whatever batch boundary it lands on (first item of a
/// batch, mid-batch, final partial batch).
#[test]
fn injected_error_at_every_position_surfaces_in_place() {
    let trace = sample_trace(13);
    let packets: Vec<_> = trace.iter().cloned().collect();
    for position in 0..=packets.len() {
        for shards in [1usize, 2] {
            let mut items: Vec<Result<PacketRecord, TraceError>> =
                packets.iter().cloned().map(Ok).collect();
            items.insert(
                position,
                Err(TraceError::TruncatedRecord {
                    got: position,
                    need: 44,
                }),
            );
            let err = engine(shards, 4).compress_stream(items).unwrap_err();
            assert!(
                matches!(
                    err,
                    TraceError::TruncatedRecord { got, need: 44 } if got == position
                ),
                "position {position}, {shards} shards: got {err:?}"
            );
        }
    }
}

/// A leading error (the very first read fails) aborts cleanly: shard
/// channels open and close without a single delivery.
#[test]
fn leading_error_aborts_cleanly() {
    for shards in [1usize, 4] {
        let input = vec![Err::<PacketRecord, _>(TraceError::InvalidTrace(
            "bad magic".into(),
        ))];
        let err = engine(shards, 8).compress_stream(input).unwrap_err();
        assert!(
            matches!(&err, TraceError::InvalidTrace(m) if m == "bad magic"),
            "{shards} shards: got {err:?}"
        );
    }
}

/// Writes `packets` as TSH chunk files cut at `cuts`.
fn write_chunks(
    dir: &std::path::Path,
    packets: &[PacketRecord],
    cuts: &[usize],
) -> Vec<std::path::PathBuf> {
    std::fs::create_dir_all(dir).unwrap();
    cuts.windows(2)
        .enumerate()
        .map(|(i, w)| {
            let path = dir.join(format!("chunk-{i:02}.tsh"));
            let chunk = Trace::from_packets(packets[w[0]..w[1]].to_vec());
            std::fs::write(&path, tsh::to_bytes(&chunk)).unwrap();
            path
        })
        .collect()
}

/// The multi-file path: the second of three chunk files is truncated.
/// Every reader count surfaces the same first error through
/// `compress_batches_to_bytes`.
#[test]
fn truncated_multifile_chunk_propagates_the_same_error() {
    let trace = sample_trace(60);
    let packets: Vec<_> = trace.iter().cloned().collect();
    let dir = std::env::temp_dir().join(format!("fz-routeerr-{}", std::process::id()));
    let paths = write_chunks(&dir, &packets, &[0, 20, 40, 60]);
    // Cut inside chunk 1's 6th record.
    let mut chunk1 = std::fs::read(&paths[1]).unwrap();
    chunk1.truncate(5 * tsh::RECORD_BYTES + 7);
    std::fs::write(&paths[1], chunk1).unwrap();

    for readers in [1usize, 2, 4] {
        let source = MultiFileSource::open(
            &paths,
            MultiFileConfig {
                readers,
                batch_packets: 8,
                queue_batches: 2,
                prefetch: None,
            },
        )
        .unwrap();
        let err = engine(3, 8)
            .compress_batches_to_bytes(source.into_packets())
            .unwrap_err();
        assert!(
            matches!(err, TraceError::TruncatedRecord { got: 7, need: 44 }),
            "{readers} readers: got {err:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A capture pre-split into ragged chunks and drained batch by batch
/// through `compress_batches_to_bytes` equals the single-stream run,
/// at every reader count: batch boundaries carry no meaning.
#[test]
fn multifile_batches_match_single_stream() {
    let trace = web_trace(250, 4242);
    let dir = std::env::temp_dir().join(format!("fz-routeq-{}", std::process::id()));
    // Deliberately ragged splits so file boundaries never line up with
    // engine batch boundaries.
    let packets: Vec<_> = trace.iter().cloned().collect();
    let n = packets.len();
    let paths = write_chunks(&dir, &packets, &[0, n / 5, n / 2, n]);

    let engine = StreamingEngine::builder()
        .shards(4)
        .batch_size(96)
        .channel_capacity(4)
        .idle_timeout(Some(Duration::from_secs(2)))
        .build();
    let (reference, _) = engine
        .compress_stream_to_bytes(trace.iter().cloned().map(Ok))
        .unwrap();
    for readers in [1usize, 2, 3] {
        let source = MultiFileSource::open(
            &paths,
            MultiFileConfig {
                readers,
                // Reader batches ≠ engine batch_size on purpose.
                batch_packets: 37,
                queue_batches: 2,
                prefetch: None,
            },
        )
        .unwrap();
        let (bytes, _) = engine
            .compress_batches_to_bytes(source.into_packets())
            .unwrap();
        assert_eq!(
            bytes, reference,
            "{readers} readers diverged from the single-stream run"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
