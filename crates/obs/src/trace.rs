//! Structured tracing: spans, sharded ring buffers, Chrome-trace export,
//! and self-time summaries.
//!
//! Aggregate metrics (the registry in the crate root) answer *how much*;
//! spans answer *where inside a run*. A [`TraceSink`] collects
//! [`Span`]s — named, categorized intervals with a parent link, a thread
//! id, and up to [`MAX_ATTRS`] `u64` key/value attributes — into
//! thread-sharded ring buffers, and exports them either as Chrome
//! trace-event JSON (loadable in Perfetto or `chrome://tracing`) or as a
//! per-span-kind self-time summary table with percentiles.
//!
//! ## Overhead discipline
//!
//! A span is also its own timer: it keeps the `Instant` it started at, and
//! [`Span::end`] returns the elapsed time from the same clock read that
//! records the span's end. A caller that needs a phase's duration (a
//! phase timer, a progress event) takes it from the span, so the trace
//! and those figures agree to the nanosecond and the phase reads the
//! clock twice whether or not it is traced.
//!
//! * **Tracing absent** (no sink configured): instrumentation sites hold
//!   an `Option` that is `None` and spans are [`Span::inert`]. An inert
//!   span reads the clock once, at start, so that [`Span::end`] can still
//!   time it; dropping it without `end` reads nothing more. Nothing is
//!   allocated or recorded.
//! * **Tracing disabled** (sink present, [`TraceSink::set_enabled`]
//!   `false`): starting a span costs one relaxed atomic load on top of an
//!   inert span's clock read.
//! * **Tracing enabled**: a span start reads the clock once; a span end
//!   reads it again and appends a fixed-size record to the ring buffer of
//!   the recording thread's shard. Shards are selected by a per-thread id,
//!   so the shard lock is uncontended except when two live threads hash to
//!   the same shard; no allocation happens per span (names and attr keys
//!   are `&'static str`, attrs are a fixed array, and ring slots are
//!   reused after the first wrap).
//!
//! ## Boundedness
//!
//! Memory is capped at `SHARDS × capacity` records. When a ring wraps, the
//! oldest record in that shard is overwritten and the sink-wide
//! [`dropped`](TraceSink::dropped) counter increments; both exporters
//! surface the drop count so a truncated trace is never mistaken for a
//! complete one.
//!
//! ## Streaming
//!
//! The rings bound memory by forgetting the oldest spans — fine for
//! post-hoc summaries, lossy for long runs. [`TraceSink::stream_to`]
//! additionally appends every span to a writer *as it completes*, in
//! Chrome trace-event form, so a multi-hour run's full span history lands
//! on disk while the rings keep only the recent window. Streamed output
//! is incremental but still one valid JSON document once
//! [`TraceSink::finish_stream`] writes the trailer; a process killed
//! mid-stream leaves a truncated-but-greppable event log. Stream write
//! failures never disturb the run: the first error permanently disables
//! streaming (counted in [`TraceSink::stream_errors`]) and recording
//! continues ring-only.
//!
//! The rings and the stream writer live in the crate-private `ring`
//! module, whose stream writer the event bus uses too; this file owns
//! only the span types and the Chrome format: the preamble, the `,\n`
//! event framing and the `otherData` trailer.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::escape_json;
use crate::ring::{thread_id, LiveStream, ShardedRing, SHARDS};

/// Maximum number of key/value attributes per span; extra [`Span::attr`]
/// calls are silently ignored.
pub const MAX_ATTRS: usize = 6;

/// Identity of a span, used to nest children under parents explicitly
/// (parent links are threaded by hand rather than via thread-local span
/// stacks, which keeps recording wait-free and works across the engine's
/// scoped worker threads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// "No parent": the span is a root.
    pub const NONE: SpanId = SpanId(0);

    /// `true` for [`SpanId::NONE`] and for the id of an inert span.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// One completed span, as retained in the ring buffers.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id (sink-scoped, starts at 1).
    pub id: u64,
    /// Parent span id, or 0 for roots.
    pub parent: u64,
    /// Process-wide small id of the recording thread.
    pub thread: u64,
    /// Coarse grouping (`"engine"`, `"prober"`, `"bench"`).
    pub category: &'static str,
    /// Span kind within the category (`"cache_fill"`, `"scan"`, …).
    pub name: &'static str,
    /// Start, in nanoseconds since the sink's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the sink's epoch.
    pub end_ns: u64,
    /// Key/value attributes; only the first `attr_len` entries are live.
    pub attrs: [(&'static str, u64); MAX_ATTRS],
    /// Number of live attributes.
    pub attr_len: u8,
}

impl SpanRecord {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The live attributes.
    pub fn attrs(&self) -> &[(&'static str, u64)] {
        &self.attrs[..self.attr_len as usize]
    }
}

/// Appends one span as a Chrome complete (`"ph":"X"`) trace event. Shared
/// by the batch exporter ([`TraceSink::to_chrome_json`]) and the live
/// stream so both emit byte-identical events. Timestamps and durations
/// are microseconds with the nanosecond remainder as three decimals.
fn chrome_event(span: &SpanRecord, out: &mut String) {
    let _ = write!(
        out,
        "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"cat\":\"{}\",\"name\":\"{}\",\
         \"ts\":{}.{:03},\"dur\":{}.{:03},\"args\":{{\"span_id\":{}",
        span.thread,
        escape_json(span.category),
        escape_json(span.name),
        span.start_ns / 1_000,
        span.start_ns % 1_000,
        span.duration_ns() / 1_000,
        span.duration_ns() % 1_000,
        span.id,
    );
    if span.parent != 0 {
        let _ = write!(out, ",\"parent\":{}", span.parent);
    }
    for (key, value) in span.attrs() {
        let _ = write!(out, ",\"{}\":{value}", escape_json(key));
    }
    out.push_str("}}");
}

/// A bounded collector of [`Span`]s. See the module docs for the overhead
/// and boundedness guarantees.
#[derive(Debug)]
pub struct TraceSink {
    enabled: AtomicBool,
    ring: ShardedRing<SpanRecord>,
    next_id: AtomicU64,
    epoch: Instant,
    stream: LiveStream,
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::with_capacity(TraceSink::DEFAULT_CAPACITY)
    }
}

impl TraceSink {
    /// Default ring capacity per shard (total retention:
    /// `16 × 8192 = 131 072` spans).
    pub const DEFAULT_CAPACITY: usize = 8192;

    /// A sink with the default capacity.
    pub fn new() -> TraceSink {
        TraceSink::default()
    }

    /// A sink retaining up to `capacity` spans *per shard* (total:
    /// `16 × capacity`). A zero capacity is rounded up to 1.
    pub fn with_capacity(capacity: usize) -> TraceSink {
        TraceSink {
            enabled: AtomicBool::new(true),
            ring: ShardedRing::new(capacity),
            next_id: AtomicU64::new(1),
            epoch: Instant::now(),
            stream: LiveStream::default(),
        }
    }

    /// Convenience: a fresh sink behind an `Arc`, ready to share.
    pub fn shared() -> Arc<TraceSink> {
        Arc::new(TraceSink::new())
    }

    /// Turns recording on or off. While off, [`span`](Self::span) costs one
    /// atomic load and records nothing.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether the sink is currently recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Number of spans lost to ring-buffer wrap-around since creation.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Number of shard rings that have wrapped at least once (0 means the
    /// retained window is complete; up to 16 shards can wrap).
    pub fn wrapped_shards(&self) -> u64 {
        self.ring.wrapped_shards()
    }

    /// Number of spans currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` if no span has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Starts a span. The returned guard records itself into the sink when
    /// it ends ([`Span::end`]) or drops; use [`Span::attr`] to attach
    /// values and [`Span::id`] to parent children under it. While the
    /// sink is disabled the span is [inert](Span::inert).
    pub fn span(&self, category: &'static str, name: &'static str, parent: SpanId) -> Span<'_> {
        self.span_from(self.reserve_id(), category, name, parent, Instant::now())
    }

    /// Reserves the id of a span that is recorded later, with
    /// [`span_from`](Self::span_from): children can parent under it
    /// before its end is known. [`SpanId::NONE`] while the sink is
    /// disabled.
    pub fn reserve_id(&self) -> SpanId {
        if !self.is_enabled() {
            return SpanId::NONE;
        }
        SpanId(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// A span under an id from [`reserve_id`](Self::reserve_id) that
    /// started at `started`, a clock reading the caller already holds. It
    /// records when it ends or drops, even if the sink was disabled since
    /// the id was reserved. Under [`SpanId::NONE`] it records nothing.
    pub fn span_from(
        &self,
        id: SpanId,
        category: &'static str,
        name: &'static str,
        parent: SpanId,
        started: Instant,
    ) -> Span<'_> {
        Span {
            sink: (!id.is_none()).then_some(self),
            id: id.0,
            parent: parent.0,
            category,
            name,
            started,
            attrs: [("", 0); MAX_ATTRS],
            attr_len: 0,
        }
    }

    /// Nanoseconds from the sink's epoch to `at`.
    fn since_epoch(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Streams the span when a stream is attached (formatted before the
    /// stream lock is taken), then retains it in its thread's ring.
    fn record(&self, record: SpanRecord) {
        if self.stream.is_active() {
            let mut event = String::with_capacity(192);
            event.push_str(",\n");
            chrome_event(&record, &mut event);
            self.stream.write(event.as_bytes());
        }
        self.ring.push(record.thread, record);
    }

    /// Attaches a live writer: every span recorded from now on is also
    /// appended to `writer` as a Chrome trace event, in completion order
    /// (Chrome/Perfetto sort by timestamp on load). Writes the document
    /// preamble immediately; call [`finish_stream`](Self::finish_stream)
    /// to close the document. Replaces any previous stream without closing
    /// it. Spans recorded before this call are *not* replayed — stream
    /// early, before the rings can wrap.
    ///
    /// The preamble ends in a metadata event, so every span event is
    /// framed as `,\n` plus the event: no first-event state to track.
    pub fn stream_to(&self, mut writer: Box<dyn std::io::Write + Send>) -> std::io::Result<()> {
        writer.write_all(
            b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\
              {\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
              \"args\":{\"name\":\"sixgen\"}}",
        )?;
        self.stream.attach(writer);
        Ok(())
    }

    /// Closes the streamed document: writes the `]` terminator plus an
    /// `otherData` object carrying the streamed/error/ring-drop counters,
    /// flushes, and drops the writer. A no-op returning `Ok` when no
    /// stream is active (including after a write error already tore the
    /// stream down).
    pub fn finish_stream(&self) -> std::io::Result<()> {
        self.stream.finish(|| {
            format!(
                "\n],\"otherData\":{{\"spans_streamed\":{},\"stream_write_errors\":{},\
                 \"ring_dropped_spans\":{}}}}}\n",
                self.streamed(),
                self.stream_errors(),
                self.dropped()
            )
        })
    }

    /// Number of span events successfully written to the stream.
    pub fn streamed(&self) -> u64 {
        self.stream.written()
    }

    /// Number of stream write failures. The first failure permanently
    /// disables streaming (recording continues ring-only), so this is
    /// effectively 0 or 1 per [`stream_to`](Self::stream_to) call.
    pub fn stream_errors(&self) -> u64 {
        self.stream.errors()
    }

    /// All retained spans, merged across shards and sorted by start time
    /// (ties by id). Non-destructive.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut spans = self.ring.snapshot();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Serializes the retained spans as Chrome trace-event JSON — an object
    /// with a `traceEvents` array of complete (`"ph":"X"`) events, loadable
    /// in Perfetto and `chrome://tracing`. Timestamps and durations are
    /// microseconds with nanosecond precision; attributes (plus the parent
    /// span id) land in each event's `args`. The top-level `otherData`
    /// object carries the span and dropped-span counts.
    pub fn to_chrome_json(&self) -> String {
        let spans = self.snapshot();
        let mut out = String::with_capacity(128 + spans.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{");
        let _ = write!(
            out,
            "\"spans\":{},\"dropped_spans\":{}",
            spans.len(),
            self.dropped()
        );
        out.push_str("},\"traceEvents\":[");
        out.push_str(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"sixgen\"}}",
        );
        for span in &spans {
            out.push(',');
            chrome_event(span, &mut out);
        }
        out.push_str("]}");
        out
    }

    /// Per-span-kind aggregation of the retained spans: for every
    /// `category/name` pair, the span count, total time, self time (total
    /// minus time attributed to child spans), and exact p50/p95/p99 of the
    /// span durations. Rows are ordered by descending total time.
    ///
    /// Self time saturates at zero: children evaluated on parallel worker
    /// threads can accumulate more time than their parent's wall-clock
    /// duration.
    pub fn summary(&self) -> Vec<SummaryRow> {
        let spans = self.snapshot();
        // Child time per parent id.
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for span in &spans {
            if span.parent != 0 {
                *child_ns.entry(span.parent).or_default() += span.duration_ns();
            }
        }
        let mut rows: HashMap<(&'static str, &'static str), SummaryRow> = HashMap::new();
        let mut durations: HashMap<(&'static str, &'static str), Vec<u64>> = HashMap::new();
        for span in &spans {
            let key = (span.category, span.name);
            let duration = span.duration_ns();
            let row = rows.entry(key).or_insert_with(|| SummaryRow {
                key: format!("{}/{}", span.category, span.name),
                count: 0,
                total_ns: 0,
                self_ns: 0,
                p50_ns: 0,
                p95_ns: 0,
                p99_ns: 0,
            });
            row.count += 1;
            row.total_ns += duration;
            row.self_ns += duration
                .saturating_sub(child_ns.get(&span.id).copied().unwrap_or(0))
                .min(duration);
            durations.entry(key).or_default().push(duration);
        }
        for (key, mut values) in durations {
            values.sort_unstable();
            let row = rows.get_mut(&key).expect("row exists for every key");
            row.p50_ns = nearest_rank(&values, 0.50);
            row.p95_ns = nearest_rank(&values, 0.95);
            row.p99_ns = nearest_rank(&values, 0.99);
        }
        let mut rows: Vec<SummaryRow> = rows.into_values().collect();
        rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.key.cmp(&b.key)));
        rows
    }

    /// Renders [`summary`](Self::summary) as a fixed-width text table,
    /// trailed by the dropped-span count when non-zero.
    pub fn render_summary(&self) -> String {
        let rows = self.summary();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>12} {:>12} {:>10} {:>10} {:>10}",
            "span", "count", "total", "self", "p50", "p95", "p99"
        );
        for row in &rows {
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>12} {:>12} {:>10} {:>10} {:>10}",
                row.key,
                row.count,
                format_ns(row.total_ns),
                format_ns(row.self_ns),
                format_ns(row.p50_ns),
                format_ns(row.p95_ns),
                format_ns(row.p99_ns),
            );
        }
        let dropped = self.dropped();
        if dropped > 0 {
            let wrapped = self.wrapped_shards();
            let _ = writeln!(
                out,
                "({dropped} spans dropped to ring-buffer wrap across {wrapped} of {SHARDS} shard rings)"
            );
        }
        out
    }
}

/// One row of [`TraceSink::summary`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SummaryRow {
    /// `category/name`.
    pub key: String,
    /// Number of spans of this kind.
    pub count: u64,
    /// Sum of span durations, nanoseconds.
    pub total_ns: u64,
    /// Total minus child-span time (saturating), nanoseconds.
    pub self_ns: u64,
    /// Median span duration (nearest rank), nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile span duration, nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile span duration, nanoseconds.
    pub p99_ns: u64,
}

/// Nearest-rank percentile of a sorted, non-empty slice.
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Human-scale duration: `123ns`, `45.6µs`, `7.89ms`, `1.23s`.
fn format_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.2}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// RAII span guard: records its interval into the sink when it ends or
/// drops. Obtained from [`TraceSink::span`] (live) or [`Span::inert`] /
/// [`maybe_span`] (records nothing, still times).
#[derive(Debug)]
pub struct Span<'s> {
    sink: Option<&'s TraceSink>,
    id: u64,
    parent: u64,
    category: &'static str,
    name: &'static str,
    started: Instant,
    attrs: [(&'static str, u64); MAX_ATTRS],
    attr_len: u8,
}

impl Span<'_> {
    /// A span that records nothing. It reads the clock once, at start, so
    /// [`end`](Self::end) times it like a live span: instrumentation code
    /// handles live and inert spans identically, durations included.
    pub fn inert() -> Span<'static> {
        Span {
            sink: None,
            id: 0,
            parent: 0,
            category: "",
            name: "",
            started: Instant::now(),
            attrs: [("", 0); MAX_ATTRS],
            attr_len: 0,
        }
    }

    /// This span's id, for parenting children under it.
    /// [`SpanId::NONE`] when inert.
    pub fn id(&self) -> SpanId {
        SpanId(self.id)
    }

    /// Attaches a key/value attribute. Ignored on inert spans and beyond
    /// [`MAX_ATTRS`] entries.
    pub fn attr(&mut self, key: &'static str, value: u64) {
        if self.sink.is_none() {
            return;
        }
        if (self.attr_len as usize) < MAX_ATTRS {
            self.attrs[self.attr_len as usize] = (key, value);
            self.attr_len += 1;
        }
    }

    /// Ends the span and returns its duration. One clock read records the
    /// end (when live) and measures the returned duration, so the
    /// recorded span lasts exactly the returned time.
    pub fn end(mut self) -> Duration {
        self.end_at(Instant::now())
    }

    /// Records the span as ended at `ended` (once, and only when live)
    /// and returns its duration.
    fn end_at(&mut self, ended: Instant) -> Duration {
        if let Some(sink) = self.sink.take() {
            sink.record(SpanRecord {
                id: self.id,
                parent: self.parent,
                thread: thread_id(),
                category: self.category,
                name: self.name,
                start_ns: sink.since_epoch(self.started),
                end_ns: sink.since_epoch(ended),
                attrs: self.attrs,
                attr_len: self.attr_len,
            });
        }
        ended.duration_since(self.started)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if self.sink.is_some() {
            self.end_at(Instant::now());
        }
    }
}

/// Starts a span against an optional sink: the instrumentation-site
/// helper. `None` yields an inert span, whose only cost is its start's
/// clock read.
pub fn maybe_span<'s>(
    sink: Option<&'s TraceSink>,
    category: &'static str,
    name: &'static str,
    parent: SpanId,
) -> Span<'s> {
    match sink {
        Some(sink) => sink.span(category, name, parent),
        None => Span::inert(),
    }
}

/// Validates that `text` is one complete JSON value (used by tests to
/// round-trip the Chrome-trace and metrics exports, and cheap enough to
/// run before shipping a trace file). Returns the byte offset and a
/// message on the first syntax error.
pub fn validate_json(text: &str) -> Result<(), String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos),
        Some(b't') => parse_literal(bytes, pos, "true"),
        Some(b'f') => parse_literal(bytes, pos, "false"),
        Some(b'n') => parse_literal(bytes, pos, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {c:#x} at {pos}", pos = *pos)),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '{'
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        parse_value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '['
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        parse_value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => *pos += 2,
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn parse_literal(bytes: &[u8], pos: &mut usize, literal: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && (bytes[*pos].is_ascii_digit() || matches!(bytes[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    if *pos == start {
        return Err(format!("expected number at byte {start}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn spans_record_nesting_and_attrs() {
        let sink = TraceSink::new();
        {
            let mut root = sink.span("engine", "run", SpanId::NONE);
            root.attr("seeds", 42);
            {
                let mut child = sink.span("engine", "cache_fill", root.id());
                child.attr("clusters", 7);
            }
        }
        let spans = sink.snapshot();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "run").expect("root span");
        let child = spans.iter().find(|s| s.name == "cache_fill").expect("child");
        assert_eq!(root.parent, 0);
        assert_eq!(child.parent, root.id);
        assert_eq!(root.attrs(), &[("seeds", 42)]);
        assert_eq!(child.attrs(), &[("clusters", 7)]);
        assert!(child.start_ns >= root.start_ns);
        assert!(child.end_ns <= root.end_ns);
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TraceSink::new();
        sink.set_enabled(false);
        {
            let mut span = sink.span("engine", "run", SpanId::NONE);
            span.attr("ignored", 1);
            assert!(span.id().is_none());
        }
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 0);
        sink.set_enabled(true);
        drop(sink.span("engine", "run", SpanId::NONE));
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn inert_span_is_free_standing() {
        let mut span = Span::inert();
        span.attr("x", 1);
        assert!(span.id().is_none());
        drop(span); // must not panic or record anywhere
        assert_eq!(maybe_span(None, "a", "b", SpanId::NONE).id(), SpanId::NONE);
    }

    #[test]
    fn end_returns_the_recorded_duration() {
        let sink = TraceSink::new();
        let span = sink.span("engine", "select", SpanId::NONE);
        std::thread::sleep(Duration::from_millis(1));
        let elapsed = span.end();
        let spans = sink.snapshot();
        assert_eq!(spans.len(), 1, "end records once and the drop adds nothing");
        assert_eq!(u128::from(spans[0].duration_ns()), elapsed.as_nanos());
        // Inert and disabled spans record nothing but still time.
        let inert = maybe_span(None, "engine", "select", SpanId::NONE);
        std::thread::sleep(Duration::from_millis(1));
        assert!(inert.end() >= Duration::from_millis(1));
        sink.set_enabled(false);
        let disabled = sink.span("engine", "select", SpanId::NONE);
        std::thread::sleep(Duration::from_millis(1));
        assert!(disabled.end() >= Duration::from_millis(1));
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn a_reserved_span_records_from_its_given_start() {
        let sink = TraceSink::new();
        let started = Instant::now();
        let id = sink.reserve_id();
        drop(sink.span("engine", "cache_fill", id));
        let mut root = sink.span_from(id, "engine", "run", SpanId::NONE, started);
        root.attr("seeds", 3);
        drop(root);
        let spans = sink.snapshot();
        let root = spans.iter().find(|s| s.name == "run").expect("root span");
        let child = spans
            .iter()
            .find(|s| s.name == "cache_fill")
            .expect("child");
        assert_eq!(root.id, id.0);
        assert_eq!(child.parent, root.id);
        assert_eq!(root.attrs(), &[("seeds", 3)]);
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
        // A disabled sink reserves no id, and a span under none records
        // nothing.
        sink.set_enabled(false);
        let none = sink.reserve_id();
        assert!(none.is_none());
        drop(sink.span_from(none, "engine", "run", SpanId::NONE, started));
        assert_eq!(sink.len(), 2);
    }

    #[test]
    fn ring_wrap_drops_oldest_and_counts() {
        // Single-threaded: all spans land in one shard of capacity 4.
        let sink = TraceSink::with_capacity(4);
        let names: [&'static str; 7] = ["s0", "s1", "s2", "s3", "s4", "s5", "s6"];
        for name in names {
            drop(sink.span("t", name, SpanId::NONE));
        }
        assert_eq!(sink.len(), 4, "capacity bounds retention");
        assert_eq!(sink.dropped(), 3, "three overwrites counted");
        let kept: Vec<&str> = sink.snapshot().iter().map(|s| s.name).collect();
        assert_eq!(kept, vec!["s3", "s4", "s5", "s6"], "oldest dropped first");
        // The exporters surface the drop count and the wrapped-ring count.
        assert_eq!(sink.wrapped_shards(), 1, "one shard ring wrapped");
        assert!(sink.to_chrome_json().contains("\"dropped_spans\":3"));
        let summary = sink.render_summary();
        assert!(summary.contains("3 spans dropped"));
        assert!(summary.contains("1 of 16 shard rings"), "{summary}");
    }

    #[test]
    fn wrapped_shards_zero_below_capacity() {
        let sink = TraceSink::with_capacity(4);
        for name in ["a", "b", "c", "d"] {
            drop(sink.span("t", name, SpanId::NONE));
        }
        assert_eq!(sink.dropped(), 0);
        assert_eq!(sink.wrapped_shards(), 0);
    }

    #[test]
    fn concurrent_recording_is_lossless_under_capacity() {
        let sink = TraceSink::with_capacity(10_000);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..500 {
                        drop(sink.span("t", "work", SpanId::NONE));
                    }
                });
            }
        });
        assert_eq!(sink.len(), 4_000);
        assert_eq!(sink.dropped(), 0);
        // Ids are unique.
        let mut ids: Vec<u64> = sink.snapshot().iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4_000);
    }

    #[test]
    fn chrome_json_round_trips() {
        let sink = TraceSink::new();
        {
            let mut root = sink.span("engine", "run", SpanId::NONE);
            root.attr("seeds", 10);
            drop(sink.span("engine", "select", root.id()));
        }
        let json = sink.to_chrome_json();
        validate_json(&json).expect("chrome trace JSON parses");
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"cat\":\"engine\""));
        assert!(json.contains("\"name\":\"run\""));
        assert!(json.contains("\"seeds\":10"));
        assert!(json.contains("\"parent\":"));
        assert!(json.contains("\"process_name\""));
    }

    #[test]
    fn empty_sink_exports_valid_json() {
        let sink = TraceSink::new();
        let json = sink.to_chrome_json();
        validate_json(&json).expect("empty trace parses");
        assert!(json.contains("\"spans\":0"));
    }

    #[test]
    fn summary_attributes_self_time_to_parents() {
        let sink = TraceSink::new();
        {
            let root = sink.span("engine", "run", SpanId::NONE);
            {
                let _child = sink.span("engine", "cache_fill", root.id());
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        }
        let rows = sink.summary();
        assert_eq!(rows.len(), 2);
        let run = rows.iter().find(|r| r.key == "engine/run").expect("run row");
        let fill = rows
            .iter()
            .find(|r| r.key == "engine/cache_fill")
            .expect("fill row");
        assert_eq!(run.count, 1);
        assert_eq!(fill.count, 1);
        // The child's time is excluded from the parent's self time.
        assert!(run.total_ns >= fill.total_ns);
        assert!(run.self_ns <= run.total_ns - fill.total_ns.min(run.total_ns) + 1_000_000);
        assert_eq!(fill.self_ns, fill.total_ns, "leaf self == total");
        // Percentiles of a single sample are that sample.
        assert_eq!(fill.p50_ns, fill.p95_ns);
        assert_eq!(fill.p95_ns, fill.p99_ns);
        // Rows ordered by total time: the enclosing run comes first.
        assert_eq!(rows[0].key, "engine/run");
    }

    #[test]
    fn summary_percentiles_are_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&sorted, 0.50), 50);
        assert_eq!(nearest_rank(&sorted, 0.95), 95);
        assert_eq!(nearest_rank(&sorted, 0.99), 99);
        assert_eq!(nearest_rank(&[7], 0.5), 7);
    }

    #[test]
    fn validate_json_rejects_malformed() {
        assert!(validate_json("{}").is_ok());
        assert!(validate_json("[1,2,{\"a\":null}]").is_ok());
        assert!(validate_json("{\"a\":1.5e3,\"b\":\"x\\\"y\"}").is_ok());
        assert!(validate_json("{").is_err());
        assert!(validate_json("{\"a\":}").is_err());
        assert!(validate_json("[1,]").is_err());
        assert!(validate_json("{\"a\":1}trailing").is_err());
        assert!(validate_json("").is_err());
    }

    #[test]
    fn format_ns_scales() {
        assert_eq!(format_ns(12), "12ns");
        assert_eq!(format_ns(4_500), "4.5µs");
        assert_eq!(format_ns(7_890_000), "7.89ms");
        assert_eq!(format_ns(1_230_000_000), "1.23s");
    }

    /// A `Write` handle whose buffer outlives the sink that owns the
    /// boxed writer, so tests can inspect streamed bytes.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn streaming_outlives_ring_capacity() {
        // Single-threaded, one shard of capacity 4 — but the stream keeps
        // everything the ring forgot.
        let sink = TraceSink::with_capacity(4);
        let buf = SharedBuf::default();
        sink.stream_to(Box::new(buf.clone())).unwrap();
        let names: [&'static str; 12] = [
            "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11",
        ];
        for name in names {
            drop(sink.span("t", name, SpanId::NONE));
        }
        assert_eq!(sink.len(), 4, "ring retention unchanged by streaming");
        assert_eq!(sink.dropped(), 8);
        assert_eq!(sink.streamed(), 12, "every span streamed");
        assert_eq!(sink.stream_errors(), 0);
        sink.finish_stream().unwrap();
        let doc = buf.contents();
        validate_json(doc.trim_end()).expect("streamed document parses");
        for name in names {
            assert!(doc.contains(&format!("\"name\":\"{name}\"")), "{name} streamed");
        }
        assert!(doc.contains("\"spans_streamed\":12"));
        assert!(doc.contains("\"ring_dropped_spans\":8"));
        assert!(doc.contains("\"process_name\""));
        // Batch and stream share the event formatter: a retained span's
        // event appears byte-identically in both documents.
        let batch = sink.to_chrome_json();
        let streamed_line = doc
            .lines()
            .find(|l| l.contains("\"name\":\"s11\""))
            .expect("s11 line");
        assert!(batch.contains(streamed_line.trim_end_matches(',')));
    }

    #[test]
    fn finish_stream_without_stream_is_a_no_op() {
        let sink = TraceSink::new();
        sink.finish_stream().unwrap();
        assert_eq!(sink.streamed(), 0);
    }

    /// Fails every write after the preamble succeeds.
    struct FlakyWriter {
        writes_left: u32,
    }

    impl std::io::Write for FlakyWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.writes_left == 0 {
                return Err(std::io::Error::other("disk on fire"));
            }
            self.writes_left -= 1;
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn stream_write_failure_disables_streaming_without_losing_ring() {
        let sink = TraceSink::new();
        sink.stream_to(Box::new(FlakyWriter { writes_left: 1 }))
            .unwrap();
        for _ in 0..5 {
            drop(sink.span("t", "work", SpanId::NONE));
        }
        assert_eq!(sink.stream_errors(), 1, "first failure counted once");
        assert_eq!(sink.streamed(), 0);
        assert_eq!(sink.len(), 5, "ring recording unaffected");
        // The stream tore down; finishing is now a clean no-op.
        sink.finish_stream().unwrap();
    }

    #[test]
    fn streamed_events_from_many_threads_form_valid_json() {
        let sink = TraceSink::with_capacity(8);
        let buf = SharedBuf::default();
        sink.stream_to(Box::new(buf.clone())).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        drop(sink.span("t", "work", SpanId::NONE));
                    }
                });
            }
        });
        assert_eq!(sink.streamed(), 200);
        sink.finish_stream().unwrap();
        let doc = buf.contents();
        validate_json(doc.trim_end()).expect("concurrent streamed document parses");
        assert_eq!(doc.matches("\"ph\":\"X\"").count(), 200);
    }
}
