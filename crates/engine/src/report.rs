//! Aggregate engine report: the batch-compatible [`CompressionReport`]
//! plus the throughput and memory figures only a streaming run can know.

use flowzip_core::CompressionReport;
use flowzip_obs::json::JsonObject;
use std::fmt;

/// What a streaming run did: the §3/§5 compression report, aggregated
/// across shards, plus wall-clock throughput and memory high-water marks.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// The batch-compatible compression report (packets, flows, clusters,
    /// sizes, ratios — and `peak_active_flows` summed over shards).
    pub report: CompressionReport,
    /// Worker shards the run used.
    pub shards: usize,
    /// Wall-clock seconds from first packet to merged archive.
    pub elapsed_secs: f64,
    /// Packets consumed per wall-clock second.
    pub packets_per_sec: f64,
    /// Input throughput in TSH megabytes (44 B/packet) per second.
    pub mb_per_sec: f64,
    /// Flows force-closed by idle-timeout eviction.
    pub evicted_flows: u64,
    /// Wall-clock seconds the pipeline spent *waiting on input* — blocked
    /// `read()` calls for plain file input, hand-off-channel waits for
    /// prefetched/multi-file sources (whose disk time overlaps compute
    /// and deliberately does not count). Zero for in-memory runs and for
    /// raw-iterator entry points that carry no
    /// [`IoStats`](flowzip_io::IoStats) handle.
    pub read_wait_secs: f64,
    /// `elapsed_secs − read_wait_secs`, clamped at zero: the wall-clock
    /// actually spent parsing, routing and compressing. When `read_wait`
    /// dwarfs `compute`, the run is I/O-bound — add readers or prefetch;
    /// the other way round, it is compute-bound — add shards.
    pub compute_secs: f64,
    /// Wall-clock seconds of the *serial* tail: the whole
    /// single-threaded shard merge + time-seq sort + encode for v1
    /// output, but only store merge + index assembly + payload
    /// concatenation for v2 (per-shard payload encoding happens on the
    /// worker threads and overlaps compute). Zero for in-memory runs
    /// that never serialized.
    pub serialize_secs: f64,
    /// The busiest single shard thread's measured accumulate+encode
    /// seconds — a *directly measured* stage timing, unlike
    /// `compute_secs` (which is derived by subtraction and silently
    /// absorbs scheduling gaps). Zero when metrics are off: busy time
    /// is only clocked for instrumented runs.
    pub stage_busy_secs: f64,
    /// `elapsed − read_wait − stage_busy`, clamped at zero: wall-clock
    /// no measured stage accounts for (thread scheduling, routing,
    /// channel hand-off). Zero when metrics are off — without measured
    /// stage timings the residual would just be `compute_secs` again.
    pub unattributed_secs: f64,
    /// Archive sections written (v2: one per shard; v1: 1; in-memory: 0).
    pub sections: usize,
    /// Serialized archive size in bytes (0 for in-memory runs).
    pub archive_bytes: u64,
}

impl EngineReport {
    /// Per-shard open-flow peaks, summed — an upper bound on true
    /// simultaneous concurrency (shards may peak at different moments),
    /// and the figure idle-timeout eviction exists to bound. Forwards
    /// to [`CompressionReport::peak_active_flows`].
    pub fn peak_active_flows(&self) -> u64 {
        self.report.peak_active_flows
    }

    /// Re-derives `unattributed_secs` from the current split fields,
    /// and cross-checks the *measured* stage timing against wall-clock:
    /// a single thread cannot be busy longer than the run took, so
    /// `stage_busy_secs > elapsed_secs × 1.05` is an accounting bug —
    /// asserted in debug builds, reported as a warning in release (the
    /// report stays usable; the split is what's suspect).
    ///
    /// A no-op when `stage_busy_secs` is zero (metrics were off).
    pub fn reconcile_time_split(&mut self) {
        if self.stage_busy_secs <= 0.0 {
            self.unattributed_secs = 0.0;
            return;
        }
        if self.stage_busy_secs > self.elapsed_secs * 1.05 {
            debug_assert!(
                false,
                "stage timings disagree with wall-clock: busiest shard {:.6}s > elapsed {:.6}s × 1.05",
                self.stage_busy_secs, self.elapsed_secs
            );
            flowzip_obs::log::warn(&format!(
                "engine stage timings disagree with wall-clock: busiest shard {:.6}s > elapsed {:.6}s × 1.05 — time split is suspect",
                self.stage_busy_secs, self.elapsed_secs
            ));
        }
        self.unattributed_secs =
            (self.elapsed_secs - self.read_wait_secs - self.stage_busy_secs).max(0.0);
    }

    /// Serializes the full report as a JSON object (hand-rolled via
    /// [`JsonObject`] — the workspace is dependency-free) for
    /// `flowzip compress --json` and machine consumers of bench output.
    pub fn to_json(&self) -> String {
        let r = &self.report;
        let mut j = JsonObject::pretty();
        j.num("packets", r.packets);
        j.num("flows", r.flows);
        j.num("short_flows", r.short_flows);
        j.num("long_flows", r.long_flows);
        j.num("clusters", r.clusters);
        j.num("matched_flows", r.matched_flows);
        j.num("addresses", r.addresses);
        j.num("peak_active_flows", r.peak_active_flows);
        j.num("evicted_flows", self.evicted_flows);
        j.num("tsh_bytes", r.tsh_bytes);
        j.num("archive_bytes", self.archive_bytes);
        j.f6("ratio_vs_tsh", r.ratio_vs_tsh);
        j.num("shards", self.shards as u64);
        j.num("sections", self.sections as u64);
        j.f6("elapsed_secs", self.elapsed_secs);
        j.f6("read_wait_secs", self.read_wait_secs);
        j.f6("compute_secs", self.compute_secs);
        j.f6("serialize_secs", self.serialize_secs);
        j.f6("stage_busy_secs", self.stage_busy_secs);
        j.f6("unattributed_secs", self.unattributed_secs);
        j.f0("packets_per_sec", self.packets_per_sec);
        j.f2("mb_per_sec", self.mb_per_sec);
        j.finish()
    }
}

impl fmt::Display for EngineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}; {} shards, {:.2}s, {:.0} packets/s ({:.2} MB/s), peak {} active flows, {} evicted",
            self.report,
            self.shards,
            self.elapsed_secs,
            self.packets_per_sec,
            self.mb_per_sec,
            self.peak_active_flows(),
            self.evicted_flows
        )?;
        if self.read_wait_secs > 0.0 {
            write!(
                f,
                "; read-wait {:.3}s / compute {:.3}s",
                self.read_wait_secs, self.compute_secs
            )?;
        }
        if self.stage_busy_secs > 0.0 {
            write!(
                f,
                "; busiest shard {:.3}s, unattributed {:.3}s",
                self.stage_busy_secs, self.unattributed_secs
            )?;
        }
        if self.sections > 0 {
            write!(
                f,
                "; {} section archive, {} B, serial tail {:.4}s",
                self.sections, self.archive_bytes, self.serialize_secs
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowzip_core::DatasetSizes;

    #[test]
    fn display_mentions_throughput_and_peak() {
        let r = EngineReport {
            report: CompressionReport {
                packets: 10,
                flows: 2,
                short_flows: 2,
                long_flows: 0,
                matched_flows: 1,
                clusters: 1,
                addresses: 1,
                peak_active_flows: 2,
                sizes: DatasetSizes::default(),
                tsh_bytes: 440,
                ratio_vs_tsh: 0.03,
                ratio_vs_headers: 0.04,
            },
            shards: 4,
            elapsed_secs: 0.5,
            packets_per_sec: 20.0,
            mb_per_sec: 0.00088,
            evicted_flows: 0,
            read_wait_secs: 0.0,
            compute_secs: 0.5,
            serialize_secs: 0.0,
            stage_busy_secs: 0.0,
            unattributed_secs: 0.0,
            sections: 0,
            archive_bytes: 0,
        };
        let s = r.to_string();
        assert!(s.contains("4 shards, 0.50s"));
        assert!(s.contains("packets/s"));
        assert!(s.contains("peak 2 active flows"));
        // In-memory runs don't claim an archive...
        assert!(!s.contains("section archive"));
        // ...or a read-wait split (nothing was read).
        assert!(!s.contains("read-wait"));
        // ...serialized ones do.
        let mut ser = r.clone();
        ser.sections = 4;
        ser.archive_bytes = 1234;
        ser.serialize_secs = 0.001;
        ser.read_wait_secs = 0.125;
        ser.compute_secs = 0.375;
        let s = ser.to_string();
        assert!(s.contains("4 section archive"));
        assert!(s.contains("serial tail"));
        assert!(s.contains("read-wait 0.125s / compute 0.375s"));
    }

    #[test]
    fn json_round_is_well_formed_and_carries_the_split() {
        let r = EngineReport {
            report: CompressionReport {
                packets: 7,
                flows: 1,
                short_flows: 1,
                long_flows: 0,
                matched_flows: 0,
                clusters: 1,
                addresses: 1,
                peak_active_flows: 1,
                sizes: DatasetSizes::default(),
                tsh_bytes: 308,
                ratio_vs_tsh: 0.05,
                ratio_vs_headers: 0.06,
            },
            shards: 2,
            elapsed_secs: 1.0,
            packets_per_sec: 7.0,
            mb_per_sec: 0.000308,
            evicted_flows: 3,
            read_wait_secs: 0.25,
            compute_secs: 0.75,
            serialize_secs: 0.01,
            stage_busy_secs: 0.6,
            unattributed_secs: 0.15,
            sections: 2,
            archive_bytes: 99,
        };
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for needle in [
            "\"packets\": 7",
            "\"read_wait_secs\": 0.250000",
            "\"compute_secs\": 0.750000",
            "\"stage_busy_secs\": 0.600000",
            "\"unattributed_secs\": 0.150000",
            "\"evicted_flows\": 3",
            "\"archive_bytes\": 99",
            "\"shards\": 2",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        // Balanced braces and no trailing comma before the close.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains(",\n}"));
        assert!(flowzip_obs::json::is_valid_json(&json), "{json}");
    }

    #[test]
    fn reconcile_derives_unattributed_and_skips_uninstrumented_runs() {
        let mut r = EngineReport {
            report: CompressionReport {
                packets: 7,
                flows: 1,
                short_flows: 1,
                long_flows: 0,
                matched_flows: 0,
                clusters: 1,
                addresses: 1,
                peak_active_flows: 1,
                sizes: DatasetSizes::default(),
                tsh_bytes: 308,
                ratio_vs_tsh: 0.05,
                ratio_vs_headers: 0.06,
            },
            shards: 1,
            elapsed_secs: 1.0,
            packets_per_sec: 7.0,
            mb_per_sec: 0.000308,
            evicted_flows: 0,
            read_wait_secs: 0.2,
            compute_secs: 0.8,
            serialize_secs: 0.0,
            stage_busy_secs: 0.5,
            unattributed_secs: 0.0,
            sections: 0,
            archive_bytes: 0,
        };
        r.reconcile_time_split();
        assert!(
            (r.unattributed_secs - 0.3).abs() < 1e-9,
            "{}",
            r.unattributed_secs
        );

        // Metrics off (no measured busy time): the residual stays zero
        // rather than double-reporting compute_secs.
        r.stage_busy_secs = 0.0;
        r.unattributed_secs = 99.0;
        r.reconcile_time_split();
        assert_eq!(r.unattributed_secs, 0.0);

        // Over-long busy time clamps the residual at zero (the >5%
        // disagreement check fires a debug assertion, so keep this just
        // under the threshold).
        r.stage_busy_secs = 1.04;
        r.reconcile_time_split();
        assert_eq!(r.unattributed_secs, 0.0);
    }
}
