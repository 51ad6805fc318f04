//! engine_throughput — single-thread vs. sharded scaling of the
//! `flowzip-engine` streaming pipeline on a seeded synthetic trace
//! (`serial/N`: one router thread feeding N shards; `serial/1` runs the
//! single shard inline).
//!
//! This is the repo's perf trajectory anchor: besides the usual console
//! report it writes a machine-readable `target/BENCH_engine.json`
//! (packets/s per thread count, plus the measuring host's
//! `available_parallelism`) that CI uploads, so future PRs have a
//! baseline to diff against — and so the regression gate knows whether
//! `speedup_vs_1` was measured somewhere it could possibly exceed 1.
//!
//! Knobs (environment):
//!
//! * `FLOWZIP_BENCH_PACKETS` — target trace size (default 1_000_000).
//! * `FLOWZIP_BENCH_RUNS` — timed runs per thread count, best taken
//!   (default 3).
//! * `FLOWZIP_BENCH_JSON` — output path override.

use criterion::black_box;
use flowzip_bench::original_trace;
use flowzip_engine::{Metrics, StreamingEngine};
use flowzip_trace::Duration;
use std::time::Instant;

/// Average packets per flow the default Web mixture produces; only used
/// to size the generator toward the packet target.
const PACKETS_PER_FLOW_ESTIMATE: u64 = 18;

const SEED: u64 = 0x0E7E;

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

struct Point {
    label: String,
    threads: usize,
    seconds: f64,
    packets_per_sec: f64,
    mb_per_sec: f64,
}

fn main() {
    let target = env_u64("FLOWZIP_BENCH_PACKETS", 1_000_000);
    let runs = env_u64("FLOWZIP_BENCH_RUNS", 3).max(1);
    let flows = (target / PACKETS_PER_FLOW_ESTIMATE).max(1) as usize;
    eprintln!("generating ~{target} packets ({flows} web flows, seed {SEED:#x})...");
    let trace = original_trace(flows, 120.0, SEED);
    let packets = trace.len() as u64;
    let tsh_mb = packets as f64 * 44.0 / 1e6;
    eprintln!("trace ready: {packets} packets ({tsh_mb:.1} MB as TSH)");
    let cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    if cpus < 2 {
        eprintln!(
            "note: only {cpus} CPU available — shards cannot scale here; \
             speedup_vs_1 is only meaningful on multi-core hosts"
        );
    }

    let mut points: Vec<Point> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let engine = StreamingEngine::builder()
            .shards(threads)
            .batch_size(4096)
            .idle_timeout(Some(Duration::from_secs(120)))
            .build();
        let mut best = f64::INFINITY;
        for _ in 0..runs {
            let t0 = Instant::now();
            let (archive, report) = engine
                .compress_stream(trace.iter().cloned().map(Ok))
                .expect("in-memory run");
            best = best.min(t0.elapsed().as_secs_f64());
            black_box((archive, report));
        }
        let p = Point {
            label: format!("serial/{threads}"),
            threads,
            seconds: best,
            packets_per_sec: packets as f64 / best,
            mb_per_sec: tsh_mb / best,
        };
        println!(
            "engine_throughput/{:<12}  best {:>8.3}s  {:>12.0} packets/s  {:>8.2} MB/s",
            p.label, p.seconds, p.packets_per_sec, p.mb_per_sec
        );
        points.push(p);
    }

    // Metrics-overhead family: the same serial/2 configuration timed
    // with the registry disabled vs. enabled. The no-op recorder is
    // enum-dispatch — a disabled run pays one branch per record site —
    // so the enabled/disabled gap is the true cost of live counters,
    // gauges and histograms; CI gates it (multi-core hosts only) with
    // `--metrics-overhead 0.03`.
    let overhead_threads = 2usize;
    let time_with = |metrics: Metrics| {
        let engine = StreamingEngine::builder()
            .shards(overhead_threads)
            .batch_size(4096)
            .idle_timeout(Some(Duration::from_secs(120)))
            .metrics(metrics)
            .build();
        let mut best = f64::INFINITY;
        for _ in 0..runs {
            let t0 = Instant::now();
            let out = engine
                .compress_stream(trace.iter().cloned().map(Ok))
                .expect("in-memory run");
            best = best.min(t0.elapsed().as_secs_f64());
            black_box(out);
        }
        best
    };
    let secs_off = time_with(Metrics::disabled());
    let secs_on = time_with(Metrics::enabled());
    let (pps_off, pps_on) = (packets as f64 / secs_off, packets as f64 / secs_on);
    let overhead_frac = 1.0 - pps_on / pps_off;
    println!(
        "engine_throughput/metrics-off  best {secs_off:>8.3}s  {pps_off:>12.0} packets/s\n\
         engine_throughput/metrics-on   best {secs_on:>8.3}s  {pps_on:>12.0} packets/s  \
         (overhead {:+.1}%)",
        overhead_frac * 100.0
    );

    // Telemetry-overhead family: the same serial/2 configuration with
    // the per-flow TCP-dynamics derivation off vs. on. The on-run's
    // archive also yields the trace-complexity score recorded below, so
    // the JSON says *what kind* of traffic these numbers were measured
    // on.
    let time_telemetry = |telemetry: bool| {
        let engine = StreamingEngine::builder()
            .shards(overhead_threads)
            .batch_size(4096)
            .idle_timeout(Some(Duration::from_secs(120)))
            .telemetry(telemetry)
            .build();
        let mut best = f64::INFINITY;
        let mut bytes = Vec::new();
        for _ in 0..runs {
            let t0 = Instant::now();
            let (out, report) = engine
                .compress_stream_to_bytes(trace.iter().cloned().map(Ok))
                .expect("in-memory run");
            best = best.min(t0.elapsed().as_secs_f64());
            black_box(&report);
            bytes = out;
        }
        (best, bytes)
    };
    let (t_secs_off, _) = time_telemetry(false);
    let (t_secs_on, telemetry_bytes) = time_telemetry(true);
    let (t_pps_off, t_pps_on) = (packets as f64 / t_secs_off, packets as f64 / t_secs_on);
    let telemetry_frac = 1.0 - t_pps_on / t_pps_off;
    println!(
        "engine_throughput/telemetry-off best {t_secs_off:>8.3}s  {t_pps_off:>12.0} packets/s\n\
         engine_throughput/telemetry-on  best {t_secs_on:>8.3}s  {t_pps_on:>12.0} packets/s  \
         (overhead {:+.1}%)",
        telemetry_frac * 100.0
    );
    let complexity = flowzip_analysis::analyze_archive(&telemetry_bytes)
        .expect("rev 2.2 archive")
        .complexity;
    println!(
        "engine_throughput/complexity   score {:.1}/100 (size entropy {:.2}, burstiness {:.2})",
        complexity.score, complexity.flow_size_entropy, complexity.arrival_burstiness
    );

    // speedup_vs_1 is against serial/1, the inline single shard.
    let base = points[0].packets_per_sec;
    let results: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"label\": \"{}\", \"threads\": {}, \
                 \"seconds\": {:.6}, \"packets_per_sec\": {:.0}, \
                 \"mb_per_sec\": {:.2}, \"speedup_vs_1\": {:.3}}}",
                p.label,
                p.threads,
                p.seconds,
                p.packets_per_sec,
                p.mb_per_sec,
                p.packets_per_sec / base
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"engine_throughput\",\n  \"seed\": {SEED},\n  \"packets\": {packets},\n  \"flows\": {flows},\n  \"runs_per_point\": {runs},\n  \"host_parallelism\": {cpus},\n  \"metrics_overhead\": {{\"threads\": {overhead_threads}, \"off_packets_per_sec\": {pps_off:.0}, \"on_packets_per_sec\": {pps_on:.0}, \"overhead_frac\": {overhead_frac:.4}}},\n  \"telemetry_overhead\": {{\"threads\": {overhead_threads}, \"off_packets_per_sec\": {t_pps_off:.0}, \"on_packets_per_sec\": {t_pps_on:.0}, \"overhead_frac\": {telemetry_frac:.4}}},\n  \"complexity\": {{\"score\": {:.1}, \"flow_size_entropy\": {:.3}, \"arrival_burstiness\": {:.3}}},\n  \"results\": [\n{}\n  ]\n}}\n",
        complexity.score,
        complexity.flow_size_entropy,
        complexity.arrival_burstiness,
        results.join(",\n")
    );

    let path = std::env::var("FLOWZIP_BENCH_JSON").unwrap_or_else(|_| {
        // The bench runs with the package as cwd; the workspace target
        // dir is two levels up.
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/BENCH_engine.json"
        )
        .to_string()
    });
    if let Some(parent) = std::path::Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&path, &json).expect("write BENCH_engine.json");
    eprintln!("wrote {path}");
}
