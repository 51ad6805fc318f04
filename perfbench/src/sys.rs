//! Process-level measurements and allocator set-up: resident high-water
//! mark, returning freed heap to the kernel so that one operation's peak
//! does not carry the previous operation's leftovers, fixed malloc
//! thresholds so that it does not carry their placement either, and the
//! CPU time the hypervisor steals from the machine.

/// Gives freed heap pages back to the kernel (glibc `malloc_trim`), so
/// the next high-water mark starts from live memory only.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim only walks the allocator's own free lists.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Pins glibc's mmap threshold at its initial default (128 KiB), which
/// also switches off glibc's dynamic threshold adjustment. Unpinned,
/// glibc raises the threshold after each large free, so how a call's
/// buffers are placed — and its resident peak — would depend on what
/// earlier calls in this long-lived process freed and on thread timing:
/// the 2-thread compress peak moved by up to 70 MB between runs.
pub fn pin_malloc_thresholds() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: mallopt only sets allocator parameters; it runs before
        // the benchmark starts any thread.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        }
    }
}

/// Resets the resident high-water mark to the current resident size
/// (writing `5` to `/proc/self/clear_refs`). Returns whether the kernel
/// accepted the reset.
pub fn reset_peak_rss() -> bool {
    trim_heap();
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The resident high-water mark (`VmHWM`) in megabytes (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 * 1024.0 / 1e6)
}

fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Runs `f` and returns its result with the resident high-water mark
/// reached while it ran, in megabytes.
pub fn with_peak_rss<R>(f: impl FnOnce() -> R) -> (R, f64) {
    reset_peak_rss();
    let out = f();
    (out, peak_rss_mb())
}

/// `/proc/stat` counts CPU time in units of 1/100 s on Linux.
const TICKS_PER_SEC: f64 = 100.0;

/// CPU time the hypervisor has stolen from this machine so far, seconds
/// summed over its CPUs (the `steal` column of `/proc/stat`); 0 where the
/// kernel does not report it.
pub fn stolen_secs() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<u64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks as f64 / TICKS_PER_SEC)
}

/// Shortest sample [`unstolen_secs`] adjusts: the steal counter ticks in
/// 10 ms steps, too coarse for shorter samples.
const MIN_ADJUST_SECS: f64 = 0.5;

/// `secs` of wall time less the share `stolen` the hypervisor took: the
/// time the machine's CPUs actually ran. Samples shorter than
/// [`MIN_ADJUST_SECS`] are returned as they are.
pub fn unstolen_secs(secs: f64, stolen: f64) -> f64 {
    if secs < MIN_ADJUST_SECS {
        secs
    } else {
        secs * (1.0 - stolen.clamp(0.0, 0.9))
    }
}

/// Share of the machine's CPU time the hypervisor stole during the
/// `secs` of wall time that followed the [`stolen_secs`] reading `before`.
pub fn stolen_share(before: f64, secs: f64) -> f64 {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    (stolen_secs() - before) / (secs * cpus).max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_long_samples_lose_the_stolen_share() {
        assert_eq!(unstolen_secs(0.1, 0.5), 0.1);
        assert_eq!(unstolen_secs(2.0, 0.25), 1.5);
        assert!((unstolen_secs(1.0, 3.0) - 0.1).abs() < 1e-12);
    }
}
