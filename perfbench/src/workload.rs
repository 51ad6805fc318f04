//! The two workloads: what each one generates in set-up and how its
//! operations are configured. The program under test only ever sees the
//! generated capture files or packets; the seed stays on this side.

use flowzip_trace::reader::CaptureFormat;
use flowzip_trace::{pcap, tsh, Trace};
use flowzip_traffic::p2p::{P2pTrafficConfig, P2pTrafficGenerator};
use flowzip_traffic::web::{WebTrafficConfig, WebTrafficGenerator};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Packets per rotation window in every `serve` phase.
pub const ROTATE_PACKETS: u64 = 32_768;
/// Seconds of trace time every generated mixture spans.
pub const TRACE_SECS: f64 = 600.0;
/// Directory queries per iteration, run in [`QUERY_GROUPS`] groups
/// between the other operations.
pub const QUERIES: usize = 60;
/// Groups the iteration's queries are split into.
pub const QUERY_GROUPS: usize = 3;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Web mixture as TSH through the default batch compress route.
    WebArchive,
    /// P2P mixture as pcap through the 2-thread telemetry route.
    P2pTelemetry,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::WebArchive, Workload::P2pTelemetry];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WebArchive => "web-archive",
            Workload::P2pTelemetry => "p2p-telemetry",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// How the workload runs at `scale` (1.0 is the benchmark's size;
    /// the tests use a tiny scale).
    pub fn spec(self, scale: f64) -> Spec {
        let flows = |base: f64| ((base * scale).round() as usize).max(50);
        let rotate = ((ROTATE_PACKETS as f64 * scale).round() as u64).clamp(1_024, ROTATE_PACKETS);
        match self {
            Workload::WebArchive => Spec {
                workload: self,
                flows: flows(200_000.0),
                capture: CaptureFormat::Tsh,
                streaming: false,
                telemetry: false,
                rotate,
                queries: QUERIES,
            },
            Workload::P2pTelemetry => Spec {
                workload: self,
                flows: flows(40_000.0),
                capture: CaptureFormat::Pcap,
                streaming: true,
                telemetry: true,
                rotate,
                queries: QUERIES,
            },
        }
    }
}

/// One workload's configuration.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Flows the generator scripts.
    pub flows: usize,
    /// Capture format of the input file and of the decompressed output.
    pub capture: CaptureFormat,
    /// Compress with `--threads 2` (the sharded engine) instead of the
    /// untuned batch route.
    pub streaming: bool,
    /// Derive per-flow telemetry (`--telemetry`) in compress and serve.
    pub telemetry: bool,
    /// Packets per rotation window.
    pub rotate: u64,
    /// Directory queries per iteration.
    pub queries: usize,
}

/// Generates the workload's trace from `seed`. The same seed yields the
/// same trace.
pub fn generate(spec: &Spec, seed: u64) -> Trace {
    match spec.workload {
        Workload::WebArchive => WebTrafficGenerator::new(
            WebTrafficConfig {
                flows: spec.flows,
                duration_secs: TRACE_SECS,
                ..WebTrafficConfig::default()
            },
            seed,
        )
        .generate(),
        Workload::P2pTelemetry => P2pTrafficGenerator::new(
            P2pTrafficConfig {
                flows: spec.flows,
                duration_secs: TRACE_SECS,
                loss_prob: 0.05,
                ..P2pTrafficConfig::default()
            },
            seed,
        )
        .generate(),
    }
}

/// What set-up leaves for the measured operations.
#[derive(Debug)]
pub struct Inputs {
    /// The capture file.
    pub capture: PathBuf,
    /// Size of the capture file in bytes.
    pub capture_bytes: u64,
    /// Packets in the generated trace.
    pub packets: u64,
    /// Flows the generator scripted.
    pub flows: u64,
}

/// Generates the trace and writes the workload's input into `dir`.
///
/// # Errors
///
/// Failures writing the capture file.
pub fn setup(spec: &Spec, seed: u64, dir: &Path) -> Result<Inputs, String> {
    let trace = generate(spec, seed);
    let packets = trace.len() as u64;
    let capture = dir.join(match spec.capture {
        CaptureFormat::Tsh => "input.tsh",
        CaptureFormat::Pcap => "input.pcap",
    });
    let file = std::fs::File::create(&capture)
        .map_err(|e| format!("create {}: {e}", capture.display()))?;
    let mut w = BufWriter::with_capacity(1 << 20, file);
    let capture_bytes = match spec.capture {
        CaptureFormat::Tsh => tsh::write_trace(&mut w, &trace),
        CaptureFormat::Pcap => pcap::write_trace(&mut w, &trace),
    }
    .map_err(|e| e.to_string())
    .and_then(|n| w.flush().map(|_| n).map_err(|e| e.to_string()))
    .map_err(|e| format!("write {}: {e}", capture.display()))?;
    Ok(Inputs {
        capture,
        capture_bytes,
        packets,
        flows: spec.flows as u64,
    })
}

/// A small deterministic generator (SplitMix64) for the benchmark's own
/// choices: query keys, time windows, sampled windows.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Seeds the generator.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}
