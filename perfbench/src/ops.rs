//! The measured operations — compress, decompress, serve and directory
//! query — each driven through the library's public entry points the way
//! the `flowzip` CLI drives them, each followed by output checks made
//! outside its timed region.

use crate::sys;
use crate::workload::{Inputs, Spec, SplitMix};
use flowzip_core::{CompressedTrace, Decompressor, QueryStats, DEFAULT_SEED};
use flowzip_obs::Metrics;
use flowzip_pipeline::{Input, Pipeline, Report, Sink};
use flowzip_serve::{read_manifest, OverloadPolicy, ServeBuilder, ServeSource};
use flowzip_trace::reader::CaptureFormat;
use flowzip_trace::{CaptureReader, FiveTuple, FlowKey, PacketRecord};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Bytes of one TSH record: the `archive_ratio` denominator per packet.
pub const TSH_RECORD: u64 = flowzip_trace::tsh::RECORD_BYTES as u64;

/// Operations attempted and failed, with the reason for each failure.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted: compress and decompress calls, windows,
    /// queries.
    pub attempted: u64,
    /// Operations that returned an error or failed an output check.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
}

impl Ledger {
    /// Counts one operation; `problems` are its failed checks.
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }
}

/// Collects failed checks of one operation.
#[derive(Debug, Default)]
pub struct Checks(pub Vec<String>);

impl Checks {
    /// Records `what` unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }

    /// Records a mismatch between two counts.
    pub fn eq(&mut self, what: &str, got: u64, want: u64) {
        self.expect(got == want, || format!("{what}: got {got}, want {want}"));
    }
}

/// One timed compress or decompress call.
#[derive(Debug)]
pub struct Timed {
    /// Wall seconds of the call.
    pub secs: f64,
    /// Share of the machine's CPU time the hypervisor stole meanwhile.
    pub stolen: f64,
    /// Resident high-water mark during the call, MB.
    pub peak_rss_mb: f64,
    /// Packets the call consumed or produced.
    pub packets: u64,
    /// The session report, when the call succeeded.
    pub report: Option<Report>,
}

impl Timed {
    /// Millions of packets per second of the time the hypervisor let
    /// the machine run.
    pub fn mpps(&self) -> f64 {
        self.packets as f64 / sys::unstolen_secs(self.secs, self.stolen).max(1e-9) / 1e6
    }
}

/// One serve session's measurements.
#[derive(Debug, Default)]
pub struct ServeRun {
    /// Seconds from the first packet yielded to the returned report.
    pub secs: f64,
    /// Share of the machine's CPU time the hypervisor stole meanwhile.
    pub stolen: f64,
    /// Resident high-water mark during the session, MB.
    pub peak_rss_mb: f64,
    /// Packets served.
    pub packets: u64,
    /// Per-window close latency: last packet yielded → `on_window`, ms.
    pub close_ms: Vec<f64>,
    /// Seconds the source iterator waited to be polled again after
    /// handing over a full ingest batch.
    pub stall_secs: f64,
    /// Σ `unattributed_secs` and Σ elapsed over the per-window reports.
    pub unattributed_secs: f64,
    /// See `unattributed_secs`.
    pub window_elapsed_secs: f64,
    /// The session's metrics registry.
    pub metrics: Option<Metrics>,
    /// Windows recorded by the session.
    pub windows: u64,
}

/// What a directory query asks.
#[derive(Debug, Clone, Copy)]
pub enum Ask {
    /// A conversation (either direction).
    Flow(FiveTuple),
    /// Flows starting within `[from, to]` seconds.
    Window(f64, f64),
}

/// One query of the closed loop with its reference answer.
#[derive(Debug, Clone, Copy)]
pub struct PlannedQuery {
    /// The predicate.
    pub ask: Ask,
    /// Packets the answer must hold: filter-after-full-decode.
    pub expect_packets: u64,
}

/// One finished directory query.
#[derive(Debug, Default)]
pub struct QueryRun {
    /// Whole-directory latency, ms.
    pub ms: f64,
    /// Share of the machine's CPU time the hypervisor stole meanwhile.
    pub stolen: f64,
    /// Σ planner counters over the directory's archives.
    pub stats: QueryStats,
}

/// A workload's run state: inputs, the first outputs (later iterations
/// must reproduce them), and the query plan.
pub struct Bench {
    /// The workload's configuration.
    pub spec: Spec,
    /// The run's seed.
    pub seed: u64,
    /// Scratch directory of this run.
    pub work: PathBuf,
    /// What set-up produced.
    pub inputs: Inputs,
    /// Pass/fail accounting.
    pub ledger: Ledger,
    first_archive: Option<Vec<u8>>,
    first_output_bytes: Option<u64>,
    plan: Option<Vec<PlannedQuery>>,
    rng: SplitMix,
}

impl Bench {
    /// A run over set-up's `inputs`.
    pub fn new(spec: Spec, seed: u64, work: PathBuf, inputs: Inputs) -> Bench {
        Bench {
            rng: SplitMix::new(seed ^ 0xB3_7C4E),
            spec,
            seed,
            work,
            inputs,
            ledger: Ledger::default(),
            first_archive: None,
            first_output_bytes: None,
            plan: None,
        }
    }

    /// The archive written by [`Bench::compress`].
    pub fn archive_path(&self) -> PathBuf {
        self.work.join("archive.fzc")
    }

    /// The rotation directory written by [`Bench::serve`].
    pub fn serve_dir(&self) -> PathBuf {
        self.work.join("serve")
    }

    /// `flowzip compress <input> -o archive.fzc`, plus `--threads 2
    /// --telemetry` on the streaming workload. Returns the timing and
    /// the archive bytes.
    pub fn compress(&mut self, metrics: Option<Metrics>) -> (Timed, Vec<u8>) {
        let input = self.inputs.capture.clone();
        let out = self.archive_path();
        // The previous call's output goes outside the timed region.
        let _ = std::fs::remove_file(&out);
        let mut session = Pipeline::compress()
            .input(Input::file(&input))
            .sink(Sink::file(&out));
        if self.spec.streaming {
            session = session.threads(2);
        }
        if self.spec.telemetry {
            session = session.telemetry(true);
        }
        if let Some(m) = metrics {
            session = session.metrics(m);
        }
        let stolen = sys::stolen_secs();
        let ((result, secs), peak_rss_mb) = sys::with_peak_rss(|| {
            let t0 = Instant::now();
            let r = session.run();
            (r, t0.elapsed().as_secs_f64())
        });
        let stolen = sys::stolen_share(stolen, secs);

        let mut checks = Checks::default();
        let mut bytes = Vec::new();
        let report = match result {
            Err(e) => {
                checks.0.push(format!("compress: {e}"));
                None
            }
            Ok(r) => {
                let report = r.report;
                checks.eq("compress packets", report.packets, self.inputs.packets);
                checks.eq("compress flows", report.flows, self.inputs.flows);
                bytes = std::fs::read(&out).unwrap_or_default();
                checks.eq("archive size", bytes.len() as u64, report.output_bytes);
                match CompressedTrace::from_bytes(&bytes) {
                    Ok(ct) => {
                        checks.eq("archive packets", ct.packet_count(), self.inputs.packets);
                        checks.eq("archive flows", ct.flow_count() as u64, self.inputs.flows);
                    }
                    Err(e) => checks.0.push(format!("archive does not decode: {e}")),
                }
                if self.spec.telemetry {
                    let fzt1 = flowzip_core::v2_telemetry(&bytes);
                    checks.expect(matches!(fzt1, Ok(Some(_))), || {
                        "archive carries no FZT1 telemetry block".into()
                    });
                }
                match &self.first_archive {
                    None => self.first_archive = Some(bytes.clone()),
                    Some(first) => checks.expect(first == &bytes, || {
                        "same-seed compress produced different archive bytes".into()
                    }),
                }
                Some(report)
            }
        };
        self.ledger.op(checks.0);
        let timed = Timed {
            secs,
            stolen,
            peak_rss_mb,
            packets: self.inputs.packets,
            report,
        };
        (timed, bytes)
    }

    /// `flowzip decompress archive.fzc -o restored.<tsh|pcap>`.
    pub fn decompress(&mut self) -> Timed {
        let format = self.spec.capture;
        let out = self.work.join(match format {
            CaptureFormat::Tsh => "restored.tsh",
            CaptureFormat::Pcap => "restored.pcap",
        });
        let _ = std::fs::remove_file(&out);
        let session = Pipeline::decompress()
            .input(Input::file(self.archive_path()))
            .sink(Sink::file(&out))
            .output_format(format);
        let stolen = sys::stolen_secs();
        let ((result, secs), peak_rss_mb) = sys::with_peak_rss(|| {
            let t0 = Instant::now();
            let r = session.run();
            (r, t0.elapsed().as_secs_f64())
        });
        let stolen = sys::stolen_share(stolen, secs);

        let mut checks = Checks::default();
        let report = match result {
            Err(e) => {
                checks.0.push(format!("decompress: {e}"));
                None
            }
            Ok(r) => {
                let report = r.report;
                checks.eq("decompress packets", report.packets, self.inputs.packets);
                checks.eq("decompress flows", report.flows, self.inputs.flows);
                let size = std::fs::metadata(&out).map_or(0, |m| m.len());
                checks.eq("restored file size", size, report.output_bytes);
                match self.first_output_bytes {
                    Some(first) => checks.eq("restored size vs first run", size, first),
                    None => {
                        // Once per run: parse the restored capture back.
                        self.first_output_bytes = Some(size);
                        checks.eq(
                            "packets parsed back from the restored capture",
                            read_capture(&out).map_or(0, |p| p.len() as u64),
                            self.inputs.packets,
                        );
                    }
                }
                Some(report)
            }
        };
        self.ledger.op(checks.0);
        Timed {
            secs,
            stolen,
            peak_rss_mb,
            packets: self.inputs.packets,
            report,
        }
    }

    /// `flowzip serve` over packets decoded from the input capture as
    /// the session pulls them: `rotate_packets`, 2 threads, blocking
    /// overload policy. Each window counts as one operation.
    pub fn serve(&mut self) -> ServeRun {
        let dir = self.serve_dir();
        let _ = std::fs::remove_dir_all(&dir);
        let n = self.inputs.packets as usize;
        let rotate = self.spec.rotate as usize;
        let windows = n.div_ceil(rotate);
        let reader = match std::fs::File::open(&self.inputs.capture)
            .map_err(|e| e.to_string())
            .and_then(|f| {
                CaptureReader::open(BufReader::with_capacity(1 << 20, f)).map_err(|e| e.to_string())
            }) {
            Ok(r) => r,
            Err(e) => {
                self.ledger.op(vec![format!("serve input: {e}")]);
                return ServeRun::default();
            }
        };

        let origin = Instant::now();
        let clock = move || origin.elapsed().as_nanos() as u64;
        let last_yield: Arc<Vec<AtomicU64>> =
            Arc::new((0..windows).map(|_| AtomicU64::new(0)).collect());
        let first_yield = Arc::new(AtomicU64::new(0));
        let stall_ns = Arc::new(AtomicU64::new(0));
        let closes: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));

        let source = {
            let last_yield = last_yield.clone();
            let first_yield = first_yield.clone();
            let stall_ns = stall_ns.clone();
            let mut batch_handed = 0u64;
            reader.enumerate().map(move |(i, packet)| {
                const INGEST_BATCH: usize = 1024;
                if i == 0 {
                    first_yield.store(clock(), Ordering::Relaxed);
                } else if i % INGEST_BATCH == 0 {
                    stall_ns.fetch_add(clock().saturating_sub(batch_handed), Ordering::Relaxed);
                }
                if (i + 1) % INGEST_BATCH == 0 {
                    batch_handed = clock();
                }
                if (i + 1) % rotate == 0 || i + 1 == n {
                    // A capture longer than set-up wrote fails the
                    // window-count check instead of indexing past the end.
                    if let Some(at) = last_yield.get(i / rotate) {
                        at.store(clock(), Ordering::Relaxed);
                    }
                }
                packet
            })
        };
        let on_window = {
            let closes = closes.clone();
            move |w: &flowzip_serve::WindowSummary| {
                closes
                    .lock()
                    .expect("no panic while holding the close log")
                    .push((w.index, clock()));
            }
        };
        let mut builder = ServeBuilder::new()
            .source(ServeSource::packets(source))
            .out_dir(&dir)
            .rotate_packets(self.spec.rotate)
            .threads(2)
            .overload(OverloadPolicy::Block)
            .on_window(on_window);
        if self.spec.telemetry {
            builder = builder.telemetry(true);
        }

        let stolen = sys::stolen_secs();
        let (result, peak_rss_mb) = sys::with_peak_rss(|| {
            let handle = builder.start()?;
            let metrics = handle.metrics().clone();
            handle.wait().map(|r| (r, metrics))
        });
        let done = clock();
        let secs = done.saturating_sub(first_yield.load(Ordering::Relaxed)) as f64 / 1e9;
        let mut run = ServeRun {
            secs,
            stolen: sys::stolen_share(stolen, secs),
            peak_rss_mb,
            packets: n as u64,
            stall_secs: stall_ns.load(Ordering::Relaxed) as f64 / 1e9,
            ..ServeRun::default()
        };
        let (report, metrics) = match result {
            Ok(r) => r,
            Err(e) => {
                self.ledger.op(vec![format!("serve: {e}")]);
                return run;
            }
        };
        run.metrics = Some(metrics);

        let mut session = Checks::default();
        session.eq("serve produced", report.produced_packets, n as u64);
        session.eq(
            "serve produced vs compressed + dropped",
            report.produced_packets,
            report.compressed_packets + report.dropped_packets,
        );
        session.eq("serve dropped under Block", report.dropped_packets, 0);
        session.expect(report.source_error.is_none(), || {
            format!("serve source error: {:?}", report.source_error)
        });
        let stored: Vec<_> = report
            .windows
            .iter()
            .filter(|w| w.archive.is_some())
            .collect();
        session.eq("serve windows", stored.len() as u64, windows as u64);
        let closes = closes
            .lock()
            .expect("no panic while holding the close log")
            .clone();
        for (k, w) in stored.iter().enumerate() {
            let mut checks = Checks::default();
            let want = rotate.min(n.saturating_sub(k * rotate));
            checks.eq("window packets", w.packets, want as u64);
            match (
                closes.iter().find(|(idx, _)| *idx == w.index),
                last_yield.get(k),
            ) {
                (Some(&(_, at)), Some(last)) => {
                    let from = last.load(Ordering::Relaxed);
                    run.close_ms.push(at.saturating_sub(from) as f64 / 1e6);
                }
                _ => checks
                    .0
                    .push(format!("window {} never reached on_window", w.index)),
            }
            if let Some(r) = &w.report {
                if let Some(t) = r.timing {
                    run.unattributed_secs += t.unattributed_secs;
                    run.window_elapsed_secs += t.elapsed_secs;
                }
            }
            if self.plan.is_none() {
                // Every archive decodes, checked on the run's first serve.
                let path = w.archive.as_ref().expect("stored window");
                match std::fs::read(path).map(|b| CompressedTrace::from_bytes(&b)) {
                    Ok(Ok(ct)) => checks.eq("window archive packets", ct.packet_count(), w.packets),
                    Ok(Err(e)) => checks
                        .0
                        .push(format!("window archive does not decode: {e}")),
                    Err(e) => checks.0.push(format!("read window archive: {e}")),
                }
            }
            self.ledger.op(checks.0);
        }
        run.windows = stored.len() as u64;
        if !session.0.is_empty() {
            self.ledger.op(session.0);
        }
        run
    }

    /// Builds the query plan once per run from the first serve's
    /// archives: half conversation queries (half present, half absent),
    /// half 2 s time windows, each with its answer computed by fully
    /// decoding every archive and filtering afterwards.
    pub fn plan_queries(&mut self) -> Result<(), String> {
        if self.plan.is_some() {
            return Ok(());
        }
        let dir = self.serve_dir();
        let entries = read_manifest(&dir).map_err(|e| e.to_string())?;
        let mut conversations: HashMap<FlowKey, u64> = HashMap::new();
        let mut starts: Vec<(u64, u64)> = Vec::new();
        for e in &entries {
            let Some(name) = &e.archive else { continue };
            let bytes = std::fs::read(dir.join(name)).map_err(|e| e.to_string())?;
            let ct = CompressedTrace::from_bytes(&bytes).map_err(|e| e.to_string())?;
            for r in &ct.time_seq {
                let len = if r.is_long {
                    ct.long_templates[r.template_idx as usize].entries.len()
                } else {
                    ct.short_templates[r.template_idx as usize].len()
                };
                starts.push((r.first_ts.as_micros(), len as u64));
            }
            for p in Decompressor::default().decompress(&ct).iter() {
                *conversations
                    .entry(FlowKey::canonical(p.tuple()))
                    .or_default() += 1;
            }
        }
        starts.sort_unstable();
        let mut keys: Vec<FlowKey> = conversations.keys().copied().collect();
        keys.sort_unstable();
        let span_us = starts.last().map_or(1, |s| s.0.max(1));

        let mut plan = Vec::with_capacity(self.spec.queries);
        for i in 0..self.spec.queries {
            let q = match i % 4 {
                0 if !keys.is_empty() => {
                    let key = keys[self.rng.below(keys.len() as u64) as usize];
                    PlannedQuery {
                        ask: Ask::Flow(key.tuple()),
                        expect_packets: conversations[&key],
                    }
                }
                0 | 1 => {
                    let tuple = loop {
                        let r = self.rng.next_u64();
                        let t = FiveTuple::tcp(
                            Ipv4Addr::new(10, 255, (r >> 8) as u8, r as u8),
                            1 + (r >> 16) as u16 % 1000,
                            Ipv4Addr::new(10, 254, (r >> 32) as u8, (r >> 40) as u8),
                            1 + (r >> 48) as u16 % 1000,
                        );
                        if !conversations.contains_key(&FlowKey::canonical(t)) {
                            break t;
                        }
                    };
                    PlannedQuery {
                        ask: Ask::Flow(tuple),
                        expect_packets: 0,
                    }
                }
                _ => {
                    let from_ms = self.rng.below(span_us / 1000 + 1);
                    let from = from_ms as f64 / 1e3;
                    let to = from + 2.0;
                    // The same seconds → microseconds conversion the
                    // query session applies.
                    let (lo, hi) = ((from * 1e6) as u64, (to * 1e6) as u64);
                    let a = starts.partition_point(|s| s.0 < lo);
                    let b = starts.partition_point(|s| s.0 <= hi);
                    PlannedQuery {
                        ask: Ask::Window(from, to),
                        expect_packets: starts[a..b].iter().map(|s| s.1).sum(),
                    }
                }
            };
            plan.push(q);
        }
        self.plan = Some(plan);
        Ok(())
    }

    /// The run's planned queries.
    pub fn plan(&self) -> &[PlannedQuery] {
        self.plan.as_deref().unwrap_or(&[])
    }

    /// `flowzip query <rotation-dir>` for planned query `i`: read the
    /// manifest, then one `Pipeline::query()` per archive.
    pub fn query(&mut self, i: usize, metrics: Option<&Metrics>) -> QueryRun {
        let q = self.plan()[i];
        let dir = self.serve_dir();
        let stolen = sys::stolen_secs();
        let t0 = Instant::now();
        let entries = read_manifest(&dir);
        let mut checks = Checks::default();
        let mut stats = QueryStats::default();
        match entries {
            Err(e) => checks.0.push(format!("read manifest: {e}")),
            Ok(entries) => {
                for e in &entries {
                    let Some(name) = &e.archive else { continue };
                    let mut session = Pipeline::query()
                        .input(Input::file(dir.join(name)))
                        .seed(DEFAULT_SEED);
                    session = match q.ask {
                        Ask::Flow(t) => session.flow(t),
                        Ask::Window(from, to) => session.from_secs(from).to_secs(to),
                    };
                    if let Some(m) = metrics {
                        session = session.metrics(m.clone());
                    }
                    match session.run() {
                        Ok(r) => add_stats(&mut stats, r.report.query.unwrap_or_default()),
                        Err(err) => checks.0.push(format!("query {name}: {err}")),
                    }
                }
            }
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let stolen = sys::stolen_share(stolen, ms / 1e3);
        // Present conversations expect packets, absent ones none.
        checks.eq(
            "query packets vs full-decode answer",
            stats.packets,
            q.expect_packets,
        );
        self.ledger.op(checks.0);
        QueryRun { ms, stolen, stats }
    }
}

/// Σ of two sets of planner counters.
pub fn add_stats(into: &mut QueryStats, s: QueryStats) {
    into.sections_total += s.sections_total;
    into.sections_scanned += s.sections_scanned;
    into.sections_skipped_time += s.sections_skipped_time;
    into.sections_skipped_bloom += s.sections_skipped_bloom;
    into.flows_total += s.flows_total;
    into.flows_matched += s.flows_matched;
    into.packets += s.packets;
}

/// Reads a whole capture file into packets.
///
/// # Errors
///
/// Open or parse failures.
pub fn read_capture(path: &Path) -> Result<Vec<PacketRecord>, String> {
    let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
    let reader =
        CaptureReader::open(BufReader::with_capacity(1 << 20, file)).map_err(|e| e.to_string())?;
    reader
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())
}
