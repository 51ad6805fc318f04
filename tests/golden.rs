//! Deterministic golden-fixture tests: the same seed must produce the
//! same archive bytes on every run, every build, every machine, and the
//! checked-in fixture pins today's wire format.
//!
//! If an intentional format or generator change invalidates the fixture,
//! regenerate it with:
//!
//! ```text
//! FLOWZIP_BLESS=1 cargo test --test golden
//! ```
//!
//! and commit the updated file alongside the change that required it.

use flowzip::prelude::*;
use std::path::PathBuf;

const GOLDEN_FLOWS: usize = 120;
const GOLDEN_SEED: u64 = 20050320;

fn golden_trace() -> Trace {
    WebTrafficGenerator::new(
        WebTrafficConfig {
            flows: GOLDEN_FLOWS,
            ..WebTrafficConfig::default()
        },
        GOLDEN_SEED,
    )
    .generate()
}

fn golden_archive_bytes() -> (Trace, Vec<u8>) {
    let trace = golden_trace();
    let (archive, _) = Compressor::new(Params::paper()).compress(&trace);
    let bytes = archive.to_bytes();
    (trace, bytes)
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/web120_seed20050320.fzc")
}

fn fixture_path_v2() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/web120_seed20050320.fzc2")
}

#[test]
fn archive_bytes_are_identical_across_runs() {
    let (_, first) = golden_archive_bytes();
    let (_, second) = golden_archive_bytes();
    assert_eq!(
        first, second,
        "generate → compress → to_bytes must be deterministic"
    );
}

// Trace generation samples lognormal/exponential distributions through
// libm transcendentals, whose last-ulp results vary between platform
// libm implementations — so exact byte-identity with the checked-in
// fixture is only promised on the platform that blesses it (and CI).
// Cross-run determinism on the *same* machine is asserted above for
// every platform.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[test]
fn archive_bytes_match_checked_in_fixture() {
    let (_, bytes) = golden_archive_bytes();
    let path = fixture_path();
    if std::env::var_os("FLOWZIP_BLESS").is_some() {
        std::fs::write(&path, &bytes).unwrap();
        return;
    }
    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with FLOWZIP_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        bytes,
        golden,
        "archive bytes diverge from {}; if the change is intentional, re-bless the fixture",
        path.display()
    );
}

// Same platform caveat as the v1 fixture above.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[test]
fn v2_archive_bytes_match_checked_in_fixture() {
    let trace = golden_trace();
    let (archive, _) = Compressor::new(Params::paper()).compress(&trace);
    let bytes = archive.to_bytes_v2();
    let path = fixture_path_v2();
    if std::env::var_os("FLOWZIP_BLESS").is_some() {
        std::fs::write(&path, &bytes).unwrap();
        return;
    }
    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with FLOWZIP_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        bytes,
        golden,
        "v2 archive bytes diverge from {}; if the change is intentional, re-bless the fixture",
        path.display()
    );
}

/// Cross-version read-back: the checked-in v1 and v2 fixtures hold the
/// same logical archive, decode to equal `CompressedTrace`s through the
/// same auto-detecting entry point, and decompress identically.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[test]
fn v1_and_v2_fixtures_decode_identically() {
    if std::env::var_os("FLOWZIP_BLESS").is_some() {
        return; // fixtures may be mid-rewrite
    }
    let v1 = std::fs::read(fixture_path()).unwrap();
    let v2 = std::fs::read(fixture_path_v2()).unwrap();
    let from_v1 = CompressedTrace::from_bytes(&v1).unwrap();
    let from_v2 = CompressedTrace::from_bytes(&v2).unwrap();
    assert_eq!(from_v1, from_v2, "one logical archive, two containers");
    assert_eq!(
        Decompressor::default().decompress(&from_v1),
        Decompressor::default().decompress(&from_v2),
        "packet-identical across container versions"
    );
}

#[test]
fn golden_round_trip_preserves_packet_count() {
    let (trace, bytes) = golden_archive_bytes();
    let reloaded = CompressedTrace::from_bytes(&bytes).unwrap();
    let restored = Decompressor::default().decompress(&reloaded);
    assert_eq!(restored.len(), trace.len(), "decompressed packet count");
    // Decompression is also deterministic for a fixed decompressor seed.
    let again = Decompressor::default().decompress(&reloaded);
    assert_eq!(restored, again, "decompression must be deterministic");
}

/// The restored captures of the checked-in fixtures are pinned by CRC32
/// digest and length, per fixture and output format. They pin the
/// decompressor's *output* — packet order, synthesized endpoints, timing
/// and the TSH/pcap encoders — so any change to the restore path must
/// reproduce these bytes exactly.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[test]
fn restored_captures_match_pinned_digests() {
    use flowzip::deflate::crc32::crc32;
    use flowzip::trace::CaptureFormat;

    const RESTORED: [(&str, CaptureFormat, u64, u32); 4] = [
        ("v1", CaptureFormat::Tsh, 81_708, 0x991c_5e0c),
        ("v1", CaptureFormat::Pcap, 130_014, 0x086f_abee),
        ("v2", CaptureFormat::Tsh, 81_708, 0x991c_5e0c),
        ("v2", CaptureFormat::Pcap, 130_014, 0x086f_abee),
    ];
    if std::env::var_os("FLOWZIP_BLESS").is_some() {
        return; // fixtures may be mid-rewrite
    }
    for (version, format, len, digest) in RESTORED {
        let path = match version {
            "v1" => fixture_path(),
            _ => fixture_path_v2(),
        };
        let run = Pipeline::decompress()
            .input(Input::file(&path))
            .sink(Sink::bytes())
            .output_format(format)
            .run()
            .unwrap();
        assert_eq!(run.report.output_bytes, len, "{version} {format:?} report");
        let bytes = run.into_bytes().unwrap();
        assert_eq!(bytes.len() as u64, len, "{version} {format:?} length");
        assert_eq!(
            crc32(&bytes),
            digest,
            "{version} {format:?} restored bytes changed"
        );
    }
}
