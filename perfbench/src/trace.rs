//! The traced run's span recorder. Spans are taken in the benchmark's
//! own code, around each call into a layer of the program; the program
//! itself is not instrumented. Spans stay in memory and are written out
//! once, at the end of the run.
//!
//! Every call span is a child of one root span, the traced iteration,
//! which is recorded last: the root's self time is the part of the
//! iteration that no call into the program covers.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Id of the root span.
pub const ROOT: u64 = 1;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the tracer (never 0).
    pub id: u64,
    /// The span this call was made from (0 for the root).
    pub parent: u64,
    /// What was called, `layer.call`.
    pub name: &'static str,
    /// Job, shard or prefix id: spans of one unit of work share it.
    pub group: u64,
    /// Start, relative to the tracer's epoch.
    pub start: Duration,
    /// End, relative to the tracer's epoch.
    pub end: Duration,
    /// Work done in the call, counted at the same boundary (targets,
    /// lines, bytes — whatever the call produces).
    pub count: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Collects spans when enabled; when disabled every call is a
/// pass-through that records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer; `enabled = false` gives the untraced pass.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Records a call measured by the caller, as a child of the root.
    pub fn record(&self, name: &'static str, group: u64, start: Instant, end: Instant, count: u64) {
        if self.enabled {
            self.push(Span {
                id: self.next_id.fetch_add(1, Ordering::Relaxed),
                parent: ROOT,
                name,
                group,
                start: self.offset(start),
                end: self.offset(end),
                count,
            });
        }
    }

    /// Runs `call` inside a span and returns its result.
    pub fn span<T>(&self, name: &'static str, group: u64, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let result = call();
        self.record(name, group, start, Instant::now(), 0);
        result
    }

    /// Records the root span once its extent is known.
    pub fn close_root(&self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            self.push(Span {
                id: ROOT,
                parent: 0,
                name,
                group: 0,
                start: self.offset(start),
                end: self.offset(end),
                count: 0,
            });
        }
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    fn offset(&self, at: Instant) -> Duration {
        at.saturating_duration_since(self.epoch)
    }

    /// Writes every span as Chrome trace-event JSON (one complete `X`
    /// event per span, id, parent and count in `args`, the group as the
    /// thread lane).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\":[")?;
        for (i, span) in spans.iter().enumerate() {
            let comma = if i + 1 < spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span_id\":{},\"parent\":{},\"count\":{}}}}}{comma}",
                span.name,
                span.group,
                span.start.as_secs_f64() * 1e6,
                span.duration().as_secs_f64() * 1e6,
                span.id,
                span.parent,
                span.count,
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Total length of the union of `intervals`, each clipped to `window`.
fn covered(
    intervals: impl IntoIterator<Item = (Duration, Duration)>,
    window: (Duration, Duration),
) -> Duration {
    let mut clipped: Vec<(Duration, Duration)> = intervals
        .into_iter()
        .map(|(s, e)| (s.max(window.0), e.min(window.1)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort();
    let mut total = Duration::ZERO;
    let mut current: Option<(Duration, Duration)> = None;
    for (s, e) in clipped {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover, keyed by span id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, Duration> {
    let mut children: HashMap<u64, Vec<(Duration, Duration)>> = HashMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(span.parent)
            .or_default()
            .push((span.start, span.end));
    }
    spans
        .iter()
        .map(|span| {
            let inner = children.remove(&span.id).unwrap_or_default();
            let own = span
                .duration()
                .saturating_sub(covered(inner, (span.start, span.end)));
            (span.id, own)
        })
        .collect()
}

/// The root's self time as a share of its duration: the part of the
/// traced iteration that no call into the program covers.
pub fn unattributed_frac(spans: &[Span]) -> f64 {
    let Some(root) = spans.iter().find(|s| s.id == ROOT) else {
        return 0.0;
    };
    let length = root.duration().as_secs_f64();
    if length == 0.0 {
        return 0.0;
    }
    self_times(spans)[&ROOT].as_secs_f64() / length
}

/// One line per span name: calls, total and self time.
pub fn summary(spans: &[Span]) -> Vec<String> {
    let own = self_times(spans);
    let mut by_name: BTreeMap<&'static str, (usize, Duration, Duration)> = BTreeMap::new();
    for span in spans {
        let entry = by_name.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.duration();
        entry.2 += own[&span.id];
    }
    by_name
        .into_iter()
        .map(|(name, (calls, total, own))| {
            format!(
                "span {name} calls={calls} total_ms={:.3} self_ms={:.3}",
                total.as_secs_f64() * 1e3,
                own.as_secs_f64() * 1e3
            )
        })
        .collect()
}

/// Spans with a given name, in recording order.
pub fn named<'a>(spans: &'a [Span], name: &'static str) -> impl Iterator<Item = &'a Span> + 'a {
    spans.iter().filter(move |s| s.name == name)
}

/// Durations of the spans with a given name, in milliseconds.
pub fn durations_ms(spans: &[Span], name: &'static str) -> Vec<f64> {
    named(spans, name)
        .map(|s| s.duration().as_secs_f64() * 1e3)
        .collect()
}

/// Summed duration of the spans with a given name, in milliseconds.
pub fn total_ms(spans: &[Span], name: &'static str) -> f64 {
    durations_ms(spans, name).iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "t.call",
            group: 0,
            start: ms(start),
            end: ms(end),
            count: 0,
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips_to_the_window() {
        let intervals = [(ms(0), ms(10)), (ms(5), ms(15)), (ms(20), ms(30))];
        assert_eq!(covered(intervals, (ms(0), ms(100))), ms(25));
        assert_eq!(covered(intervals, (ms(8), ms(25))), ms(12));
        assert_eq!(covered([], (ms(0), ms(10))), Duration::ZERO);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(ROOT, 0, 0, 100),
            span(2, ROOT, 10, 40),
            span(3, ROOT, 30, 50),
            span(4, 2, 12, 20),
            // A child outside its parent's extent takes nothing from it.
            span(5, ROOT, 120, 130),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&ROOT], ms(60));
        assert_eq!(own[&2], ms(22));
        assert_eq!(own[&4], ms(8));
        assert!((unattributed_frac(&spans) - 0.6).abs() < 1e-9);
        let lines = summary(&spans);
        assert_eq!(
            lines,
            vec!["span t.call calls=5 total_ms=168.000 self_ms=120.000"]
        );
    }

    #[test]
    fn calls_nest_under_the_root_and_a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("t.call", 1, || 7), 7);
        tracer.close_root("t.root", Instant::now(), Instant::now());
        assert!(tracer.spans().is_empty());
        let tracer = Tracer::new(true);
        let start = Instant::now();
        tracer.span("t.call", 3, || std::thread::sleep(ms(2)));
        tracer.close_root("t.root", start, Instant::now());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].group, spans[0].parent),
            ("t.call", 3, ROOT)
        );
        assert_eq!((spans[1].id, spans[1].parent), (ROOT, 0));
        assert!(unattributed_frac(&spans) < 0.5);
    }
}
