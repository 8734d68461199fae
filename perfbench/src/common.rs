//! Helpers shared by the workloads: run options, the iteration loop,
//! set-up timing, memory high-water marks, output digests, and reading
//! the engine's own metrics registry.

use crate::report::Report;
use crate::stats::median;
use sixgen_addr::NybbleAddr;
use sixgen_obs::MetricsRegistry;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Options of one benchmark run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Measurement budget of the run.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// The `sixgen` binary `serve_jobs` starts.
    pub sixgen: PathBuf,
    /// Working directory of this run, removed at the end.
    pub run_dir: PathBuf,
    /// Directory that keeps output digests between runs of a checkout.
    pub state_dir: PathBuf,
}

impl Opts {
    /// A seed for one input stream, decorrelated from the others.
    pub fn derive(&self, stream: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(stream))
    }
}

/// SplitMix64 finalizer.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs the set-up `reps` times and keeps the last result, with the
/// median set-up time in seconds.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let value = setup();
        times.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    (last.expect("at least one set-up ran"), median(&times))
}

/// Runs `iteration` at least once, and again while another timed
/// section as long as the longest so far still fits in `budget`.
/// `iteration` returns the length of its timed section; the checks
/// around it count against the budget but not towards that estimate,
/// so a first iteration that checks more than later ones do does not
/// cut the run short.
pub fn repeat(budget: Duration, mut iteration: impl FnMut() -> Duration) -> usize {
    let start = Instant::now();
    let mut longest = Duration::ZERO;
    let mut count = 0;
    loop {
        longest = longest.max(iteration());
        count += 1;
        if start.elapsed() + longest > budget {
            return count;
        }
    }
}

/// Peak resident set (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a digest.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// 64-bit FNV-1a digest of an address list, sixteen bytes per address.
pub fn digest_addrs(addrs: impl IntoIterator<Item = NybbleAddr>) -> u64 {
    addrs
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |hash, addr| {
            addr.bits().to_be_bytes().iter().fold(hash, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
        })
}

/// Compares `value` with what earlier runs of this checkout recorded
/// for the same key, and records it when it is the first. Returns a
/// problem when they differ.
pub fn same_as_earlier_runs(state_dir: &Path, key: &str, value: &str) -> Option<String> {
    let path = state_dir.join(key);
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier.trim() == value => None,
        Ok(earlier) => Some(format!(
            "{key}: {value} differs from {} recorded by an earlier run",
            earlier.trim()
        )),
        Err(_) => {
            if let Err(e) = std::fs::write(&path, value) {
                return Some(format!("cannot record {key}: {e}"));
            }
            None
        }
    }
}

/// Copies the engine's own phase timers, growth-evaluation histogram
/// and cache-recompute counter from `registry` into the report.
pub fn engine_phases(report: &mut Report, registry: &MetricsRegistry) {
    for (metric, phase) in [
        ("core.phase.cache_fill_ms", "engine/cache_fill"),
        ("core.phase.select_ms", "engine/select"),
        ("core.phase.commit_ms", "engine/commit"),
        ("core.phase.subsume_ms", "engine/subsume"),
    ] {
        let timer = registry.phase(phase);
        report.set(
            metric,
            timer.total().as_secs_f64() * 1e3,
            timer.count() as usize,
        );
    }
    let evals = registry.time_histogram("engine/growth_eval");
    let count = evals.count() as usize;
    // Same rule as stats::percentile: ten samples beyond the rank.
    if count >= 1000 {
        if let Some(ns) = evals.percentile(0.99) {
            report.set("core.growth_eval_us_p99", ns as f64 / 1e3, count);
        }
    } else {
        report.notes.push(format!(
            "core.growth_eval_us_p99 refused: {count} samples, 1000 needed"
        ));
    }
    report.set(
        "core.cache_recomputes",
        registry.counter("engine/cache_recomputes").get() as f64,
        1,
    );
}

/// Milliseconds between two instants.
pub fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_runs_once_and_stops_before_overrunning() {
        let mut runs = 0;
        let count = repeat(Duration::ZERO, || {
            runs += 1;
            Duration::ZERO
        });
        assert_eq!((count, runs), (1, 1));
        // 40 ms iterations in a 100 ms budget: a second fits, a third
        // would overrun.
        let count = repeat(Duration::from_millis(100), || {
            let began = Instant::now();
            std::thread::sleep(Duration::from_millis(40));
            began.elapsed()
        });
        assert_eq!(count, 2);
    }

    #[test]
    fn earlier_digest_mismatch_is_a_problem() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.perfbench-run")
            .join(format!("test-digest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(same_as_earlier_runs(&dir, "k", "1"), None);
        assert_eq!(same_as_earlier_runs(&dir, "k", "1"), None);
        assert!(same_as_earlier_runs(&dir, "k", "2").is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn digest_sees_a_single_changed_byte() {
        assert_ne!(digest(b"2001:db8::1\n"), digest(b"2001:db8::2\n"));
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
    }
}
