//! # sixgen-obs — the observability layer
//!
//! A zero-dependency metrics substrate for the whole workspace: atomic
//! [`Counter`]s, [`Gauge`]s, log-scale [`Histogram`]s, and [`PhaseTimer`]s
//! collected in a [`MetricsRegistry`] and exported as deterministic JSON.
//!
//! The paper's headline engineering claims are about *runtime* (§5.5 takes
//! 6Gen "from days to minutes"); validating them requires knowing where
//! time goes. This crate is the measurement substrate: the engine, the
//! simulated prober, and the bench pipeline all record into a shared
//! registry, and the `BENCH_core.json` perf trajectory is built on it.
//!
//! ## Determinism rules
//!
//! The JSON export ([`MetricsRegistry::to_json`]) has exactly two top-level
//! sections:
//!
//! * `"deterministic"` — counters, gauges, and value histograms. Everything
//!   recorded here must be a pure function of the workload and its RNG
//!   seeds (packet counts, candidate-set sizes, budget totals, virtual-time
//!   nanoseconds). Two runs with the same seeds produce byte-identical
//!   deterministic sections.
//! * `"timing"` — phase timers and duration histograms, fed from wall-clock
//!   measurements. Never compared across runs.
//!
//! Keys are emitted in sorted (BTreeMap) order and no wall-clock timestamps
//! appear anywhere in the deterministic section, so the export is stable by
//! construction.
//!
//! All update paths are lock-free atomics: registration takes a mutex once
//! per metric name, but callers hold `Arc` handles and increment without
//! contention, so parallel growth workers and probers can record freely.
//!
//! ```
//! use sixgen_obs::MetricsRegistry;
//! use std::time::Duration;
//!
//! let registry = MetricsRegistry::new();
//! registry.counter("engine/growths").add(3);
//! registry.histogram("engine/candidates").record(17);
//! registry.phase("engine/cache_fill").record(Duration::from_millis(2));
//! let json = registry.to_json();
//! assert!(json.starts_with("{\"deterministic\":"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
mod prom;
mod stream;
pub mod serve;
pub mod trace;

pub use events::{EventBus, PhaseNanos, ProgressEvent, ProgressSnapshot, ShardProgress};
pub use serve::{
    observer_response, status_json, Body, ChunkWriter, HttpHandler, HttpServer, Observer,
    ObserverSources, Request, Response,
};
pub use trace::{
    maybe_span, maybe_span_from, validate_json, Span, SpanId, SummaryRow, TraceSink,
};

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Writes `bytes` to `path` atomically: the content goes to a temporary
/// file in the same directory (`<name>.tmp`), is flushed to disk, and is
/// renamed over the destination. Readers therefore always see either the
/// previous complete file or the new complete file — never a torn,
/// half-written artifact, even if the process crashes mid-write.
///
/// Used for every artifact this workspace persists (metrics exports,
/// traces, engine checkpoints). The temporary file is removed on failure,
/// best-effort.
pub fn write_atomic(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut name = path
        .file_name()
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("path has no file name: {}", path.display()),
            )
        })?
        .to_os_string();
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// A monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Sets the counter to `n` (for re-exporting totals computed
    /// elsewhere, e.g. `RunStats` fields at the end of a run).
    pub fn set(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts the gauge by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one for zero, one per power of two.
const BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples.
///
/// Bucket 0 counts zero-valued samples; bucket `i ≥ 1` counts samples `v`
/// with `2^(i-1) ≤ v < 2^i`. Alongside the buckets the histogram keeps
/// exact count, sum, min, and max, all updated with relaxed atomics so
/// concurrent recording is cheap and never blocks.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [(); BUCKETS].map(|()| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Index of the bucket a value falls into.
    fn bucket_index(value: u64) -> usize {
        match value {
            0 => 0,
            v => 64 - v.leading_zeros() as usize,
        }
    }

    /// Inclusive lower bound of bucket `i`.
    fn bucket_lower_bound(i: usize) -> u64 {
        match i {
            0 => 0,
            _ => 1u64 << (i - 1),
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration as whole nanoseconds (saturating at `u64::MAX`).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.min.load(Ordering::Relaxed))
        }
    }

    /// Largest recorded sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.max.load(Ordering::Relaxed))
        }
    }

    /// Count in the bucket whose inclusive lower bound is `2^(i-1)`
    /// (`i = 0` is the zero bucket). Mostly for tests.
    pub fn bucket_count(&self, value: u64) -> u64 {
        self.buckets[Self::bucket_index(value)].load(Ordering::Relaxed)
    }

    /// Estimated `q`-quantile (`0 < q ≤ 1`) of the recorded samples, or
    /// `None` if the histogram is empty. Computed by nearest rank over the
    /// log₂ buckets with linear interpolation inside the target bucket,
    /// clamped to the observed `[min, max]`.
    ///
    /// **Error bound:** the estimate always falls in the same bucket as
    /// the exact nearest-rank sample, so the absolute error is strictly
    /// less than that bucket's width — `2^(i-1)` for bucket `i ≥ 1`
    /// (i.e. less than the sample itself, a relative error under 100%) —
    /// and exactly `0` for the zero bucket. Clamping to `[min, max]`
    /// cannot move the estimate out of the bucket: if `min` or `max` lies
    /// in a different bucket it lies strictly outside the target bucket's
    /// bounds on the far side, making the clamp a no-op.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen: u64 = 0;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                if i == 0 {
                    return Some(0);
                }
                let lower = Self::bucket_lower_bound(i);
                let upper = lower.saturating_mul(2).saturating_sub(1);
                let frac = (rank - seen) as f64 / n as f64;
                let est = lower.saturating_add((frac * lower as f64) as u64);
                let est = est.clamp(lower, upper);
                let min = self.min.load(Ordering::Relaxed);
                let max = self.max.load(Ordering::Relaxed);
                return Some(est.clamp(min.min(max), max));
            }
            seen += n;
        }
        self.max()
    }

    fn write_json(&self, out: &mut String) {
        let count = self.count();
        out.push_str("{\"count\":");
        let _ = write!(out, "{count}");
        let _ = write!(out, ",\"sum\":{}", self.sum());
        if let (Some(min), Some(max)) = (self.min(), self.max()) {
            let _ = write!(out, ",\"min\":{min},\"max\":{max}");
            // Percentile estimates are pure functions of the buckets and
            // min/max, so they are as deterministic as the rest of the
            // histogram and safe in both export namespaces.
            if let (Some(p50), Some(p95), Some(p99)) = (
                self.percentile(0.50),
                self.percentile(0.95),
                self.percentile(0.99),
            ) {
                let _ = write!(out, ",\"p50\":{p50},\"p95\":{p95},\"p99\":{p99}");
            }
        }
        // Non-empty buckets as [lower_bound, count] pairs, in bound order
        // (object keys would sort lexicographically — "16" before "2").
        out.push_str(",\"buckets\":[");
        let mut first = true;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "[{},{n}]", Self::bucket_lower_bound(i));
        }
        out.push_str("]}");
    }
}

/// Accumulated time spent in one named phase: total nanoseconds and the
/// number of times the phase ran.
///
/// Phase timers always land in the `"timing"` section of the export —
/// they measure wall clock and are never deterministic.
#[derive(Debug, Default)]
pub struct PhaseTimer {
    total_nanos: AtomicU64,
    count: AtomicU64,
}

impl PhaseTimer {
    /// Adds one completed phase execution.
    pub fn record(&self, elapsed: Duration) {
        self.total_nanos.fetch_add(
            u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total accumulated time.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.total_nanos.load(Ordering::Relaxed))
    }

    /// Number of recorded executions.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"count\":{},\"total_ns\":{}}}",
            self.count(),
            self.total_nanos.load(Ordering::Relaxed)
        );
    }
}

#[derive(Debug, Default)]
pub(crate) struct Inner {
    pub(crate) counters: BTreeMap<String, Arc<Counter>>,
    pub(crate) gauges: BTreeMap<String, Arc<Gauge>>,
    pub(crate) histograms: BTreeMap<String, Arc<Histogram>>,
    pub(crate) phases: BTreeMap<String, Arc<PhaseTimer>>,
    pub(crate) time_histograms: BTreeMap<String, Arc<Histogram>>,
}

/// The workspace metrics registry.
///
/// Registration (`counter`, `gauge`, `histogram`, `phase`,
/// `time_histogram`) is idempotent — the same name always yields the same
/// underlying metric — and takes a short mutex; updates through the
/// returned `Arc` handles are lock-free. Hot paths should register once
/// up front and keep the handles.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    pub(crate) inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Convenience: a fresh registry behind an `Arc`, ready to share.
    pub fn shared() -> Arc<MetricsRegistry> {
        Arc::new(MetricsRegistry::new())
    }

    /// Registers (or fetches) a counter. Deterministic section.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        Arc::clone(inner.counters.entry(name.to_owned()).or_default())
    }

    /// Registers (or fetches) a gauge. Deterministic section.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        Arc::clone(inner.gauges.entry(name.to_owned()).or_default())
    }

    /// Registers (or fetches) a value histogram. Deterministic section:
    /// record only workload-derived values (sizes, counts, virtual-time
    /// nanoseconds), never wall-clock measurements.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        Arc::clone(inner.histograms.entry(name.to_owned()).or_default())
    }

    /// Registers (or fetches) a phase timer. Timing section.
    pub fn phase(&self, name: &str) -> Arc<PhaseTimer> {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        Arc::clone(inner.phases.entry(name.to_owned()).or_default())
    }

    /// Registers (or fetches) a histogram of wall-clock durations (record
    /// with [`Histogram::record_duration`]). Timing section.
    pub fn time_histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        Arc::clone(inner.time_histograms.entry(name.to_owned()).or_default())
    }

    /// Serializes the deterministic section alone (the object assigned to
    /// the `"deterministic"` key of [`to_json`](Self::to_json)).
    pub fn deterministic_json(&self) -> String {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        Self::write_deterministic(&inner, &mut out);
        out
    }

    fn write_deterministic(inner: &Inner, out: &mut String) {
        out.push('{');
        out.push_str("\"counters\":{");
        write_map(out, &inner.counters, |out, c| {
            let _ = write!(out, "{}", c.get());
        });
        out.push_str("},\"gauges\":{");
        write_map(out, &inner.gauges, |out, g| {
            let _ = write!(out, "{}", g.get());
        });
        out.push_str("},\"histograms\":{");
        write_map(out, &inner.histograms, |out, h| h.write_json(out));
        out.push_str("}}");
    }

    /// Serializes the whole registry as a JSON object with stable key
    /// order: `{"deterministic": {...}, "timing": {...}}`. See the crate
    /// docs for the determinism rules.
    pub fn to_json(&self) -> String {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        let mut out = String::from("{\"deterministic\":");
        Self::write_deterministic(&inner, &mut out);
        out.push_str(",\"timing\":{\"phases\":{");
        write_map(&mut out, &inner.phases, |out, p| p.write_json(out));
        out.push_str("},\"histograms\":{");
        write_map(&mut out, &inner.time_histograms, |out, h| h.write_json(out));
        out.push_str("}}}");
        out
    }
}

fn write_map<T>(
    out: &mut String,
    map: &BTreeMap<String, Arc<T>>,
    mut write_value: impl FnMut(&mut String, &T),
) {
    let mut first = true;
    for (name, value) in map {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('"');
        out.push_str(&escape_json(name));
        out.push_str("\":");
        write_value(out, value);
    }
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let r = MetricsRegistry::new();
        let c = r.counter("a/count");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.set(9);
        assert_eq!(r.counter("a/count").get(), 9, "same handle by name");
        let g = r.gauge("a/level");
        g.set(-3);
        g.add(5);
        assert_eq!(g.get(), 2);
    }

    #[test]
    fn concurrent_counter_increments_are_lossless() {
        let r = MetricsRegistry::new();
        let c = r.counter("hot");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn histogram_bucketing() {
        let h = Histogram::default();
        for v in [0, 0, 1, 2, 3, 4, 15, 16, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.bucket_count(0), 2, "zero bucket");
        assert_eq!(h.bucket_count(1), 1, "[1,2)");
        assert_eq!(h.bucket_count(2), 2, "[2,4): 2 and 3");
        assert_eq!(h.bucket_count(4), 1, "[4,8)");
        assert_eq!(h.bucket_count(8), 1, "[8,16): 15");
        assert_eq!(h.bucket_count(16), 1, "[16,32): 16");
        assert_eq!(h.bucket_count(1024), 1);
        assert_eq!(h.bucket_count(u64::MAX), 1, "top bucket");
    }

    #[test]
    fn concurrent_histogram_recording() {
        let r = MetricsRegistry::new();
        let h = r.histogram("sizes");
        std::thread::scope(|scope| {
            for t in 0..4 {
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(3999));
    }

    #[test]
    fn phase_timer_accumulates() {
        let r = MetricsRegistry::new();
        let p = r.phase("engine/fill");
        p.record(Duration::from_millis(3));
        p.record(Duration::from_millis(4));
        assert_eq!(p.count(), 2);
        assert_eq!(p.total(), Duration::from_millis(7));
    }

    #[test]
    fn json_is_stable_and_sorted() {
        let build = || {
            let r = MetricsRegistry::new();
            // Register in one order...
            r.counter("z/last").add(2);
            r.counter("a/first").add(1);
            r.gauge("mid").set(-7);
            r.histogram("h").record(5);
            r.histogram("h").record(100);
            r.phase("p").record(Duration::from_nanos(10));
            r.time_histogram("t").record_duration(Duration::from_nanos(20));
            r
        };
        let a = build();
        let r = MetricsRegistry::new();
        // ...and the equivalent data in another order.
        r.time_histogram("t").record_duration(Duration::from_nanos(20));
        r.histogram("h").record(100);
        r.histogram("h").record(5);
        r.counter("a/first").add(1);
        r.gauge("mid").add(-7);
        r.counter("z/last").add(2);
        r.phase("p").record(Duration::from_nanos(10));
        assert_eq!(a.to_json(), r.to_json());
        // Sorted keys: "a/first" precedes "z/last".
        let json = a.to_json();
        assert!(json.find("a/first").unwrap() < json.find("z/last").unwrap());
        assert!(json.starts_with("{\"deterministic\":{\"counters\":{"));
        assert!(json.contains("\"timing\":{\"phases\":{"));
        assert!(json.ends_with("}}}"));
    }

    #[test]
    fn deterministic_section_excludes_timing() {
        let r = MetricsRegistry::new();
        r.counter("c").inc();
        r.phase("wall").record(Duration::from_secs(1));
        let det = r.deterministic_json();
        assert!(det.contains("\"c\":1"));
        assert!(!det.contains("wall"));
        // And it matches the corresponding slice of the full export.
        assert!(r.to_json().starts_with(&format!("{{\"deterministic\":{det}")));
    }

    #[test]
    fn empty_registry_is_valid() {
        let r = MetricsRegistry::new();
        assert_eq!(
            r.to_json(),
            "{\"deterministic\":{\"counters\":{},\"gauges\":{},\"histograms\":{}},\
             \"timing\":{\"phases\":{},\"histograms\":{}}}"
                .replace(" ", "")
        );
    }

    #[test]
    fn json_escaping() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("x\ny"), "x\\ny");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn percentiles_track_exact_values_within_a_bucket() {
        let h = Histogram::default();
        assert_eq!(h.percentile(0.5), None, "empty histogram");
        for v in 1..=100u64 {
            h.record(v);
        }
        // Exact nearest-rank percentiles are 50, 95, 99; estimates must
        // land in the same log₂ bucket ([32,64), [64,128), [64,128)).
        let p50 = h.percentile(0.50).unwrap();
        let p95 = h.percentile(0.95).unwrap();
        let p99 = h.percentile(0.99).unwrap();
        assert!((32..64).contains(&p50), "p50 = {p50}");
        assert!((64..128).contains(&p95), "p95 = {p95}");
        assert!((64..128).contains(&p99), "p99 = {p99}");
        assert!(p50 <= p95 && p95 <= p99, "monotone: {p50} {p95} {p99}");
        // Estimates never leave the observed range.
        assert!(p99 <= 100);
    }

    #[test]
    fn percentile_single_value_is_exact() {
        let h = Histogram::default();
        h.record(0);
        assert_eq!(h.percentile(0.5), Some(0));
        let h = Histogram::default();
        h.record(777);
        // A single sample: min == max == 777 clamps the estimate exactly.
        assert_eq!(h.percentile(0.5), Some(777));
        assert_eq!(h.percentile(0.99), Some(777));
    }

    #[test]
    fn percentile_empty_histogram_is_none_at_every_quantile() {
        let h = Histogram::default();
        for q in [0.01, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.percentile(q), None, "q = {q}");
        }
    }

    #[test]
    fn percentile_all_samples_in_one_bucket_stays_in_bucket() {
        // Every sample lands in bucket [64,128); all quantiles must come
        // back inside the observed [65, 127] range regardless of rank.
        let h = Histogram::default();
        for v in [65u64, 70, 100, 127, 127] {
            h.record(v);
        }
        for q in [0.01, 0.2, 0.5, 0.95, 1.0] {
            let p = h.percentile(q).unwrap();
            assert!((65..=127).contains(&p), "q = {q}: {p} left the bucket");
        }
        // Rank 1 (q small) clamps to min; rank n (q = 1) clamps to max.
        assert_eq!(h.percentile(1.0), Some(127));
        assert!(h.percentile(0.01).unwrap() >= 65);
    }

    #[test]
    fn percentile_u64_max_sample_does_not_overflow() {
        // u64::MAX lands in the top bucket (i = 64), whose interpolation
        // bounds saturate instead of overflowing; min/max clamping then
        // pins the estimate exactly.
        let h = Histogram::default();
        h.record(u64::MAX);
        assert_eq!(h.percentile(0.5), Some(u64::MAX));
        assert_eq!(h.percentile(1.0), Some(u64::MAX));
        // Mixed with a small sample the top-bucket estimate stays in the
        // top bucket (saturated bounds, no overflow) and the quantiles
        // remain monotone.
        h.record(1);
        let p50 = h.percentile(0.5).unwrap();
        let p100 = h.percentile(1.0).unwrap();
        assert_eq!(p50, 1, "rank 1 of 2 is the small sample's bucket");
        assert!(p100 >= 1u64 << 63, "top-bucket estimate: {p100}");
        assert!(p50 <= p100);
    }

    #[test]
    fn percentile_out_of_range_quantiles_clamp_to_valid_ranks() {
        // Ranks clamp to [1, count]: q = 0 behaves like the minimum rank
        // and q > 1 like the maximum, never panicking or indexing out.
        let h = Histogram::default();
        for v in [2u64, 1000] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), h.percentile(0.01));
        assert_eq!(h.percentile(5.0), h.percentile(1.0));
    }

    #[test]
    fn histogram_json_includes_percentiles() {
        let r = MetricsRegistry::new();
        let h = r.histogram("h");
        h.record(777);
        let json = r.to_json();
        assert!(
            json.contains("\"p50\":777,\"p95\":777,\"p99\":777"),
            "{json}"
        );
    }

    #[test]
    fn histogram_json_orders_buckets_numerically() {
        let r = MetricsRegistry::new();
        let h = r.histogram("h");
        h.record(2);
        h.record(16);
        h.record(300);
        let json = r.to_json();
        // [2,1] before [16,1] before [256,1] — numeric, not lexicographic.
        let pos2 = json.find("[2,1]").expect("bucket 2");
        let pos16 = json.find("[16,1]").expect("bucket 16");
        let pos256 = json.find("[256,1]").expect("bucket 256");
        assert!(pos2 < pos16 && pos16 < pos256, "{json}");
    }
}
