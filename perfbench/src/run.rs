//! Argument parsing, the measured loop, and the result line.

use crate::layers::{self, E2e, LayerLedger};
use crate::ops::Bench;
use crate::span::Tracer;
use crate::stats::{median, Samples};
use crate::sys;
use crate::workload::{self, Workload};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Command-line synopsis.
pub const USAGE: &str = "usage: flowzip-perfbench --workload <web-archive|p2p-telemetry> \
--seed <n> --seconds <s> --trace <0|1> [--scale <f>]";

/// The end-to-end metrics (`--trace 0`), name and unit, in
/// `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("compress_mpps", "Mpkt/s"),
    ("compress_peak_rss_mb", "MB"),
    ("archive_ratio", "bytes/byte"),
    ("decompress_mpps", "Mpkt/s"),
    ("decompress_peak_rss_mb", "MB"),
    ("serve_mpps", "Mpkt/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
];

/// Set-ups per run: set-up is repeated so that `setup_s`, their median,
/// shows work moved into set-up without one slow repetition deciding it.
const SETUPS: usize = 5;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Input size relative to the benchmark's (tests use a tiny scale).
    pub scale: f64,
}

impl Args {
    /// Parses `--flag value` pairs.
    ///
    /// # Errors
    ///
    /// Unknown flags, missing or malformed values.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut scale = 1.0;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace wants 0 or 1, got `{value}`")),
                    })
                }
                "--scale" => scale = value.parse::<f64>().map_err(|_| bad())?,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        let args = Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            scale,
        };
        if !(args.seconds > 0.0 && args.scale > 0.0) {
            return Err("--seconds and --scale must be positive".into());
        }
        Ok(args)
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// A finished run.
#[derive(Debug)]
pub struct Output {
    /// Workload that ran.
    pub workload: Workload,
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The metrics of the run's mode.
    pub metrics: Vec<Metric>,
    /// Extra lines for the human-readable table (tags, failures, files).
    pub notes: Vec<String>,
}

impl Output {
    /// The result line.
    pub fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            let v = if metric.value.is_finite() {
                metric.value
            } else {
                0.0
            };
            let _ = write!(
                m,
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }

    /// The human-readable table.
    pub fn table(&self) -> String {
        let mut out = format!("flowzip-perfbench {}\n", self.workload.name());
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "  {:<32} {:>14.4} ratio  ({} of {} operations failed)",
            "failed_frac", frac, self.failed, self.attempted
        );
        for n in &self.notes {
            let _ = writeln!(out, "  {n}");
        }
        out
    }
}

/// The run's scratch directory, removed however the run ends (with its
/// parent, when nothing else is left in it).
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Runs the benchmark: set up `setups` times, then iterate until the
/// time is spent, then summarize.
///
/// # Errors
///
/// Set-up failures (unwritable scratch directory).
pub fn run(args: &Args) -> Result<Output, String> {
    let spec = args.workload.spec(args.scale);
    let root = PathBuf::from(".perfbench");
    let work = root.join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));

    let scratch = Scratch(work.clone());
    let mut setup_secs = Samples::default();
    let mut inputs = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
        let stolen = sys::stolen_secs();
        let t0 = Instant::now();
        inputs = Some(workload::setup(&spec, args.seed, &work)?);
        let secs = t0.elapsed().as_secs_f64();
        let stolen = sys::stolen_share(stolen, secs);
        setup_secs.push(sys::unstolen_secs(secs, stolen), stolen);
    }
    let inputs = inputs.expect("at least one set-up");
    let mut bench = Bench::new(spec, args.seed, work.clone(), inputs);

    let started = Instant::now();
    let budget = std::time::Duration::from_secs_f64(args.seconds);
    let mut iteration_secs = Vec::new();
    let mut e2e = E2e::default();
    let mut tracer = Tracer::new();
    let mut ledger = LayerLedger::default();
    loop {
        let t0 = Instant::now();
        if args.trace {
            layers::traced_iteration(&mut bench, &mut tracer, &mut ledger);
        } else {
            layers::ops_pass(&mut bench, &mut e2e, None, None);
        }
        let last = t0.elapsed().as_secs_f64();
        iteration_secs.push(last);
        // The next iteration takes as long as usual, or as long as the
        // last one when the machine has just slowed down.
        let next = std::time::Duration::from_secs_f64(median(&iteration_secs).max(last));
        if started.elapsed() + next > budget {
            break;
        }
    }

    let mut notes = vec![format!(
        "{} iterations in {:.1} s, seed {}, scale {}, host_parallelism {}",
        iteration_secs.len(),
        started.elapsed().as_secs_f64(),
        args.seed,
        args.scale,
        layers::host_parallelism()
    )];
    let metrics = if args.trace {
        let tags = layers::tags(&bench, &ledger);
        let mut doc = format!("{{\"workload\": \"{}\"", args.workload.name());
        for (name, value) in &tags {
            let _ = write!(doc, ", \"{name}\": {value}");
        }
        let _ = write!(doc, ", \"spans\": {}}}", tracer.to_json());
        let spans = root.join("spans");
        let path = spans.join(format!("{}-seed{}.json", args.workload.name(), args.seed));
        std::fs::create_dir_all(&spans)
            .and_then(|_| std::fs::write(&path, doc))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        notes.push(format!(
            "spans: {} ({} spans)",
            path.display(),
            tracer.spans().len()
        ));
        notes.push(
            tags.iter()
                .map(|(n, v)| format!("{n} {v}"))
                .collect::<Vec<_>>()
                .join(", "),
        );
        notes.extend(ledger.notes.iter().cloned());
        layers::metrics(&tracer, &ledger)
    } else {
        // Medians over the whole run; the query quantiles pool every
        // query of the run. Timings come from the less disturbed half of
        // their samples (see `Samples`).
        let values = [
            setup_secs.quantile(0.5),
            e2e.compress_mpps.quantile(0.5),
            median(&e2e.compress_rss),
            median(&e2e.ratio),
            e2e.decompress_mpps.quantile(0.5),
            median(&e2e.decompress_rss),
            e2e.serve_mpps.quantile(0.5),
            e2e.query_ms.quantile(0.5),
            e2e.query_ms.quantile(0.9),
        ];
        let count = |s: &Samples| format!("{} ({} undisturbed)", s.len(), s.undisturbed());
        notes.push(format!(
            "samples: set-up {}, compress {}, decompress {}, serve {}, queries {}",
            count(&setup_secs),
            count(&e2e.compress_mpps),
            count(&e2e.decompress_mpps),
            count(&e2e.serve_mpps),
            count(&e2e.query_ms)
        ));
        notes.push(format!(
            "from all samples: setup_s {:.4}, compress_mpps {:.4}, decompress_mpps {:.4}, \
serve_mpps {:.4}, query_p50_ms {:.4}, query_p90_ms {:.4}",
            setup_secs.quantile_all(0.5),
            e2e.compress_mpps.quantile_all(0.5),
            e2e.decompress_mpps.quantile_all(0.5),
            e2e.serve_mpps.quantile_all(0.5),
            e2e.query_ms.quantile_all(0.5),
            e2e.query_ms.quantile_all(0.9)
        ));
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, unit, value })
            .collect()
    };
    for p in bench.ledger.problems.iter().take(20) {
        notes.push(format!("FAILED: {p}"));
    }
    drop(scratch);
    Ok(Output {
        workload: args.workload,
        correct: bench.ledger.failed == 0,
        attempted: bench.ledger.attempted,
        failed: bench.ledger.failed,
        metrics,
        notes,
    })
}
