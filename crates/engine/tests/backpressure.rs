//! Backpressure and starvation stress for the router: tight channel
//! capacities and skewed shard counts must neither deadlock nor change
//! output.
//!
//! One thread (the caller's) routes packets to N bounded shard channels
//! in stream order. A full shard channel is back-pressure, never
//! deadlock, because a shard worker's only blocking operation is `recv`.
//! These tests drive the corners where that argument has to carry the
//! load — one-slot channels into few and into many shards, single-packet
//! batches, input smaller than one batch, empty input — and enforce a
//! wall-clock bound so a deadlock fails the test instead of hanging CI.

use flowzip_core::{ArchiveFormat, CompressedTrace};
use flowzip_engine::StreamingEngine;
use flowzip_trace::Trace;
use flowzip_traffic::web::{WebTrafficConfig, WebTrafficGenerator};
use std::sync::mpsc;
use std::time::Duration;

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

/// Runs one engine compression on a watchdog thread: panics if it does
/// not complete within a minute (a liveness failure), otherwise returns
/// the archive bytes.
fn compress_bounded(
    trace: &Trace,
    shards: usize,
    batch_size: usize,
    channel_capacity: usize,
) -> Vec<u8> {
    let limit = Duration::from_secs(60);
    let packets: Vec<_> = trace.iter().cloned().collect();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let engine = StreamingEngine::builder()
            .shards(shards)
            .batch_size(batch_size)
            .channel_capacity(channel_capacity)
            .format(ArchiveFormat::V2)
            .build();
        let result = engine.compress_stream_to_bytes(packets.into_iter().map(Ok));
        // The receiver may have already timed out and gone — ignore.
        let _ = tx.send(result);
    });
    match rx.recv_timeout(limit) {
        Ok(result) => result.expect("compression failed").0,
        Err(_) => panic!(
            "{shards} shards, batch {batch_size}, capacity {channel_capacity}: \
             no completion within {limit:?} — pipeline stalled"
        ),
    }
}

/// Few shards behind one-slot channels: the router spends most of its
/// life blocked on a full channel, and the run must still finish with the
/// bytes a roomy channel gives — capacity is back-pressure only, never
/// output.
#[test]
fn many_routers_few_shards_one_slot_channels() {
    let trace = web_trace(150, 11);
    let roomy = compress_bounded(&trace, 2, 16, 64);
    let tight = compress_bounded(&trace, 2, 16, 1);
    assert_eq!(tight, roomy, "2 shards diverged under one-slot channels");
}

/// The reverse skew: the router fans out to many shards through one-slot
/// channels, so a single slow shard stalls the router and every other
/// shard behind it.
#[test]
fn few_routers_many_shards_one_slot_channels() {
    let trace = web_trace(150, 23);
    let roomy = compress_bounded(&trace, 8, 16, 64);
    let tight = compress_bounded(&trace, 8, 16, 1);
    assert_eq!(tight, roomy, "8 shards diverged under one-slot channels");
}

/// Single-packet batches maximize hand-off count: every packet takes a
/// channel slot of its own.
#[test]
fn single_packet_batches_with_two_slot_channels() {
    let trace = web_trace(40, 31);
    let roomy = compress_bounded(&trace, 3, 1, 64);
    let tight = compress_bounded(&trace, 3, 1, 2);
    assert_eq!(tight, roomy);
}

/// A trace smaller than one batch: the only batch is the final partial
/// one, flushed at end of input, and every packet still reaches the
/// archive.
#[test]
fn more_routers_than_batches_terminates() {
    let trace = web_trace(5, 47); // a handful of packets, one batch
    let roomy = compress_bounded(&trace, 2, 4096, 64);
    let tight = compress_bounded(&trace, 2, 4096, 4);
    assert_eq!(tight, roomy);
    let decoded = CompressedTrace::from_bytes(&tight).unwrap();
    assert_eq!(decoded.packet_count(), trace.len() as u64);
}

/// Empty input at every shard count: channels open and close with no
/// traffic, and the archive still carries one section per shard.
#[test]
fn empty_input_terminates_under_every_topology() {
    for shards in [1usize, 2, 8] {
        let bytes = compress_bounded(&Trace::new(), shards, 8, 1);
        let sections = flowzip_core::container::v2_counts(&bytes).unwrap().3;
        assert_eq!(sections, shards as u64, "{shards} shards");
        assert_eq!(
            CompressedTrace::from_bytes(&bytes).unwrap().packet_count(),
            0
        );
    }
}
