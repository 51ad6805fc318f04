//! The session API's acceptance pins: for every input/sink combination
//! the `Pipeline` session produces archive bytes **identical** to the
//! primitive it runs on —
//!
//! | session | reference |
//! |---|---|
//! | any input, no tuning | `Compressor::compress` (one shard) |
//! | `Input::trace` + `threads` | `StreamingEngine::compress_stream_to_bytes` |
//! | `Input::packets` | … over the packet iterator |
//! | `Input::file` | … over `FileSource::open` |
//! | `Input::file` + `prefetch_mb` | … over `FileSource::open_prefetched` |
//! | `Input::files`/`Input::glob` + `readers` | … over `MultiFileSource` |
//! | `Pipeline::decompress` | `Decompressor::decompress` + `tsh/pcap::to_bytes` |
//!
//! each × container v1 and v2. The sink never changes the bytes:
//! `Sink::file`, `Sink::bytes` and `Sink::writer` deliver one identical
//! serialization.

use flowzip_core::{ArchiveFormat, Compressor, DecompressParams, Decompressor, Params};
use flowzip_engine::StreamingEngine;
use flowzip_io::{FileSource, InputSource, MultiFileConfig, MultiFileSource, PrefetchConfig};
use flowzip_pipeline::{Input, Pipeline, Sink};
use flowzip_trace::reader::CaptureFormat;
use flowzip_trace::{pcap, tsh, Trace};
use flowzip_traffic::web::{WebTrafficConfig, WebTrafficGenerator};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

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

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flowzip-pl-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Splits a TSH image into `n` chunk files on record boundaries.
fn write_chunks(dir: &Path, image: &[u8], n: usize) -> Vec<PathBuf> {
    tsh::split_record_chunks(image, n)
        .into_iter()
        .enumerate()
        .map(|(i, chunk)| {
            let path = dir.join(format!("chunk-{i:02}.tsh"));
            std::fs::write(&path, chunk).unwrap();
            path
        })
        .collect()
}

const FORMATS: [ArchiveFormat; 2] = [ArchiveFormat::V1, ArchiveFormat::V2];

#[test]
fn batch_session_matches_compressor() {
    let trace = web_trace(120, 41);
    let (archive, _) = Compressor::new(Params::paper()).compress(&trace);
    for format in FORMATS {
        let want = match format {
            ArchiveFormat::V1 => archive.to_bytes(),
            ArchiveFormat::V2 => archive.to_bytes_v2(),
        };
        let result = Pipeline::compress()
            .input(Input::trace(&trace))
            .sink(Sink::bytes())
            .format(format)
            .run()
            .unwrap();
        // No tuning → the engine with one shard, which reproduces the
        // batch compressor byte for byte.
        assert_eq!(result.report.engine.as_ref().unwrap().shards, 1);
        assert_eq!(result.into_bytes().unwrap(), want, "{format}");
    }
}

/// `threads` unset means one shard on every input kind, so an untuned
/// session's bytes never depend on the input's shape or the host.
#[test]
fn untuned_sessions_run_one_shard_on_every_input_kind() {
    let dir = tmpdir("untuned");
    let trace = web_trace(110, 50);
    let image = tsh::to_bytes(&trace);
    let whole = dir.join("whole.tsh");
    std::fs::write(&whole, &image).unwrap();
    let chunks = write_chunks(&dir, &image, 3);
    let want = Compressor::new(Params::paper())
        .compress(&trace)
        .0
        .to_bytes_v2();
    let inputs = [
        ("trace", Input::trace(&trace)),
        ("packets", Input::packets(trace.iter().cloned())),
        ("file", Input::file(&whole)),
        ("files", Input::files(&chunks)),
    ];
    for (kind, input) in inputs {
        let result = Pipeline::compress()
            .input(input)
            .sink(Sink::bytes())
            .run()
            .unwrap();
        assert_eq!(result.report.engine.as_ref().unwrap().shards, 1, "{kind}");
        assert_eq!(result.into_bytes().unwrap(), want, "{kind}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn streaming_session_matches_engine_trace_entry_point() {
    let trace = web_trace(150, 42);
    for format in FORMATS {
        for shards in [1usize, 2, 5] {
            let engine = StreamingEngine::builder()
                .shards(shards)
                .batch_size(128)
                .format(format)
                .build();
            let (want, _) = engine
                .compress_stream_to_bytes(trace.iter().cloned().map(Ok))
                .unwrap();
            let result = Pipeline::compress()
                .input(Input::trace(&trace))
                .sink(Sink::bytes())
                .format(format)
                .threads(shards)
                .batch_size(128)
                .run()
                .unwrap();
            assert_eq!(result.report.engine.as_ref().unwrap().shards, shards);
            assert_eq!(
                result.into_bytes().unwrap(),
                want,
                "{format}, {shards} shards"
            );
        }
    }
}

#[test]
fn packets_session_matches_engine_packets_entry_point() {
    let trace = web_trace(90, 43);
    let packets: Vec<_> = trace.iter().cloned().collect();
    for format in FORMATS {
        let engine = StreamingEngine::builder()
            .shards(2)
            .batch_size(64)
            .format(format)
            .build();
        let (want, report) = engine
            .compress_stream_to_bytes(packets.iter().cloned().map(Ok))
            .unwrap();
        let result = Pipeline::compress()
            .input(Input::packets(packets.iter().cloned()))
            .sink(Sink::bytes())
            .format(format)
            .threads(2)
            .batch_size(64)
            .run()
            .unwrap();
        assert_eq!(
            result.report.compression.as_ref().unwrap().flows,
            report.report.flows
        );
        assert_eq!(result.into_bytes().unwrap(), want, "{format}");
    }
}

#[test]
fn file_session_matches_engine_file_source_entry_point() {
    let dir = tmpdir("file");
    let trace = web_trace(140, 44);
    let path = dir.join("whole.tsh");
    std::fs::write(&path, tsh::to_bytes(&trace)).unwrap();
    for format in FORMATS {
        let engine = StreamingEngine::builder()
            .shards(2)
            .batch_size(1024)
            .format(format)
            .build();
        let (want, _) = engine
            .compress_stream_to_bytes(FileSource::open(&path).unwrap().into_packets())
            .unwrap();
        let result = Pipeline::compress()
            .input(Input::file(&path))
            .sink(Sink::bytes())
            .format(format)
            .threads(2)
            .run()
            .unwrap();
        assert_eq!(result.into_bytes().unwrap(), want, "{format}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn prefetched_session_matches_engine_prefetch_entry_point() {
    let dir = tmpdir("prefetch");
    let trace = web_trace(160, 45);
    let path = dir.join("whole.tsh");
    std::fs::write(&path, tsh::to_bytes(&trace)).unwrap();
    for format in FORMATS {
        let engine = StreamingEngine::builder()
            .shards(2)
            .batch_size(1024)
            .format(format)
            .build();
        let source = FileSource::open_prefetched(&path, PrefetchConfig::with_chunk_mb(1)).unwrap();
        let (want, _) = engine
            .compress_stream_to_bytes(source.into_packets())
            .unwrap();
        let result = Pipeline::compress()
            .input(Input::file(&path))
            .sink(Sink::bytes())
            .format(format)
            .threads(2)
            .prefetch_mb(1)
            .run()
            .unwrap();
        assert_eq!(result.into_bytes().unwrap(), want, "{format}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn multi_file_session_matches_engine_multi_file_entry_point() {
    let dir = tmpdir("multi");
    let trace = web_trace(180, 46);
    let chunks = write_chunks(&dir, &tsh::to_bytes(&trace), 3);
    for format in FORMATS {
        for readers in [1usize, 3] {
            let engine = StreamingEngine::builder()
                .shards(2)
                .batch_size(1024)
                .format(format)
                .build();
            let source = MultiFileSource::open(
                &chunks,
                MultiFileConfig {
                    readers,
                    batch_packets: 1024,
                    queue_batches: 4,
                    prefetch: None,
                },
            )
            .unwrap();
            let (want, _) = engine
                .compress_stream_to_bytes(source.into_packets())
                .unwrap();
            let result = Pipeline::compress()
                .input(Input::files(&chunks))
                .sink(Sink::bytes())
                .format(format)
                .threads(2)
                .readers(readers)
                .run()
                .unwrap();
            assert_eq!(
                result.into_bytes().unwrap(),
                want,
                "{format}, {readers} readers"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn glob_and_source_inputs_match_the_explicit_list() {
    let dir = tmpdir("glob");
    let trace = web_trace(130, 47);
    let chunks = write_chunks(&dir, &tsh::to_bytes(&trace), 3);
    let run = |input: Input<'_>, readers: Option<usize>| {
        let mut session = Pipeline::compress()
            .input(input)
            .sink(Sink::bytes())
            .threads(2);
        if let Some(r) = readers {
            session = session.readers(r);
        }
        session.run().unwrap().into_bytes().unwrap()
    };
    let want = run(Input::files(&chunks), Some(2));
    let pattern = dir.join("chunk-*.tsh");
    assert_eq!(
        run(Input::glob(pattern.to_str().unwrap()), Some(2)),
        want,
        "glob"
    );
    // A pre-opened source carries its own reader config; the session's
    // `readers` knob would be rejected (see the validation suite).
    let source = MultiFileSource::open(&chunks, MultiFileConfig::with_readers(2)).unwrap();
    assert_eq!(run(Input::source(source), None), want, "source");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_sink_delivers_the_identical_bytes() {
    let dir = tmpdir("sinks");
    let trace = web_trace(80, 48);
    let want = Pipeline::compress()
        .input(Input::trace(&trace))
        .sink(Sink::bytes())
        .run()
        .unwrap()
        .into_bytes()
        .unwrap();

    let path = dir.join("out.fzc");
    let file_result = Pipeline::compress()
        .input(Input::trace(&trace))
        .sink(Sink::file(&path))
        .run()
        .unwrap();
    assert!(file_result.bytes().is_none(), "file sink keeps no buffer");
    assert_eq!(std::fs::read(&path).unwrap(), want);
    assert_eq!(file_result.report.output, Some(path.display().to_string()));

    let mut buf = Vec::new();
    Pipeline::compress()
        .input(Input::trace(&trace))
        .sink(Sink::writer(&mut buf))
        .run()
        .unwrap();
    assert_eq!(buf, want);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn decompress_session_matches_decompressor() {
    let trace = web_trace(100, 49);
    let (archive, _) = Compressor::new(Params::paper()).compress(&trace);
    let archive_bytes = archive.to_bytes_v2();
    // The legacy CLI decompressed what it read from disk, so the pin is
    // against the round-tripped archive (serialization quantizes RTTs).
    let archive = flowzip_core::CompressedTrace::from_bytes(&archive_bytes).unwrap();
    for seed in [1u64, 0x5EED] {
        let legacy = Decompressor::new(DecompressParams {
            seed,
            ..DecompressParams::default()
        })
        .decompress(&archive);

        let result = Pipeline::decompress()
            .input(Input::bytes(archive_bytes.clone()))
            .sink(Sink::bytes())
            .seed(seed)
            .run()
            .unwrap();
        assert_eq!(result.report.packets as usize, legacy.len());
        assert_eq!(result.report.flows as usize, archive.flow_count());
        assert_eq!(result.into_bytes().unwrap(), tsh::to_bytes(&legacy), "tsh");

        let as_pcap = Pipeline::decompress()
            .input(Input::bytes(archive_bytes.clone()))
            .sink(Sink::bytes())
            .seed(seed)
            .output_format(CaptureFormat::Pcap)
            .run()
            .unwrap();
        assert_eq!(
            as_pcap.into_bytes().unwrap(),
            pcap::to_bytes(&legacy),
            "pcap"
        );
    }
}

proptest! {
    /// Random traces, shard counts and formats: the session API, the
    /// batch compressor (untuned) and the engine entry point (tuned)
    /// serialize byte-identically.
    #[test]
    fn session_matches_legacy_for_random_configs(
        flows in 10usize..60,
        seed in 0u64..500,
        shards in 1usize..5,
        v1 in any::<bool>(),
    ) {
        let format = if v1 { ArchiveFormat::V1 } else { ArchiveFormat::V2 };
        let trace = web_trace(flows, seed);

        let (archive, _) = Compressor::new(Params::paper()).compress(&trace);
        let want_batch = match format {
            ArchiveFormat::V1 => archive.to_bytes(),
            ArchiveFormat::V2 => archive.to_bytes_v2(),
        };
        let got_batch = Pipeline::compress()
            .input(Input::trace(&trace))
            .sink(Sink::bytes())
            .format(format)
            .run()
            .unwrap()
            .into_bytes()
            .unwrap();
        prop_assert_eq!(got_batch, want_batch);

        let engine = StreamingEngine::builder()
            .shards(shards)
            .batch_size(128)
            .format(format)
            .build();
        let (want_stream, _) = engine
            .compress_stream_to_bytes(trace.iter().cloned().map(Ok))
            .unwrap();
        let got_stream = Pipeline::compress()
            .input(Input::trace(&trace))
            .sink(Sink::bytes())
            .format(format)
            .threads(shards)
            .batch_size(128)
            .run()
            .unwrap()
            .into_bytes()
            .unwrap();
        prop_assert_eq!(got_stream, want_stream);
    }
}
