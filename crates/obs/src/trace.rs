//! Structured tracing: spans, a live Chrome-trace stream, and a running
//! self-time summary.
//!
//! Aggregate metrics (the registry in the crate root) answer *how much*;
//! spans answer *where inside a run*. A [`TraceSink`] takes [`Span`]s —
//! named, categorized intervals with a parent link, a thread id, and up to
//! [`MAX_ATTRS`] `u64` key/value attributes — and keeps none of them. As a
//! span ends, the sink writes it to the attached stream, if there is one,
//! as a Chrome trace event (loadable in Perfetto or `chrome://tracing`),
//! and folds it into the summary row of its `category/name`: count, total
//! time, self time and a [`Histogram`] of durations.
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
//!   reads it again, formats and writes the span's event when a stream is
//!   attached, and folds the span into its summary row under the fold
//!   lock. The stream lock and the fold lock are never held together.
//!
//! ## Boundedness
//!
//! The sink keeps no spans. The summary holds one row per span kind, each
//! with a 65-bucket [`Histogram`], plus one pending entry per parent whose
//! children have recorded before it. Children end before their parents on
//! every instrumented path (growth evaluations inside `cache_fill`, phases
//! inside `engine/run`, shards inside `sharded/run`), so a parent's entry
//! is settled when the parent records. Count, total and self time are
//! exact over every span. The p50/p95/p99 columns are
//! [`Histogram::percentile`] estimates: each falls in the same log₂ bucket
//! as the exact nearest-rank duration, the bound the `/metrics`
//! histograms document.
//!
//! ## Streaming
//!
//! [`TraceSink::stream_to`] appends every span recorded from then on to a
//! writer as it completes, so the whole span history of a run of any
//! length lands on disk. The streamed output is one valid JSON document
//! once [`TraceSink::finish_stream`] writes the trailer; a process killed
//! mid-stream leaves a truncated-but-greppable event log. Stream write
//! failures never disturb the run: the first error permanently disables
//! streaming (counted in [`TraceSink::stream_errors`]) and the summary
//! keeps folding.
//!
//! The stream writer lives in the crate-private `stream` module, which the
//! event bus uses too; this file owns the span types, the Chrome format
//! (the preamble, the `,\n` event framing and the `otherData` trailer) and
//! the summary fold.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::stream::{thread_id, LiveStream};
use crate::{escape_json, Histogram};

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

/// One completed span, as handed to the stream and the fold.
struct SpanRecord {
    id: u64,
    /// Parent span id, or 0 for roots.
    parent: u64,
    thread: u64,
    category: &'static str,
    name: &'static str,
    /// Nanoseconds since the sink's epoch.
    start_ns: u64,
    end_ns: u64,
    attrs: [(&'static str, u64); MAX_ATTRS],
    attr_len: u8,
}

impl SpanRecord {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    fn attrs(&self) -> &[(&'static str, u64)] {
        &self.attrs[..self.attr_len as usize]
    }
}

/// Appends one span as a Chrome complete (`"ph":"X"`) trace event.
/// Timestamps and durations are microseconds with the nanosecond
/// remainder as three decimals.
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

/// The running summary: one row per `category/name`, plus the child time
/// recorded under parents that have not recorded yet, summed per thread
/// the children recorded on.
#[derive(Debug, Default)]
struct Fold {
    rows: HashMap<(&'static str, &'static str), Row>,
    pending: HashMap<u64, Vec<(u64, u64)>>,
}

/// The exact sums and the duration histogram of one span kind.
#[derive(Debug, Default)]
struct Row {
    count: u64,
    total_ns: u64,
    self_ns: u64,
    durations: Histogram,
}

impl Fold {
    /// Folds one span into its row. Its children recorded before it, so
    /// its pending entry holds all of their time and is settled here; its
    /// own duration becomes pending time of its parent, under its thread.
    ///
    /// Only the children recorded on the span's own thread count against
    /// its self time: a child on another thread (a pool worker's growth
    /// evaluation under a `cache_fill`) ran beside the parent, not inside
    /// its time.
    fn add(&mut self, span: &SpanRecord) {
        let duration = span.duration_ns();
        let children: u64 = self
            .pending
            .remove(&span.id)
            .unwrap_or_default()
            .iter()
            .filter(|&&(thread, _)| thread == span.thread)
            .map(|&(_, ns)| ns)
            .sum();
        if span.parent != 0 {
            let threads = self.pending.entry(span.parent).or_default();
            match threads
                .iter_mut()
                .find(|(thread, _)| *thread == span.thread)
            {
                Some((_, ns)) => *ns += duration,
                None => threads.push((span.thread, duration)),
            }
        }
        let row = self.rows.entry((span.category, span.name)).or_default();
        row.count += 1;
        row.total_ns += duration;
        row.self_ns += duration.saturating_sub(children);
        row.durations.record(duration);
    }
}

/// A collector of [`Span`]s that streams and summarizes them. See the
/// module docs for the overhead and boundedness guarantees.
#[derive(Debug)]
pub struct TraceSink {
    enabled: AtomicBool,
    next_id: AtomicU64,
    epoch: Instant,
    stream: LiveStream,
    fold: Mutex<Fold>,
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink {
            enabled: AtomicBool::new(true),
            next_id: AtomicU64::new(1),
            epoch: Instant::now(),
            stream: LiveStream::default(),
            fold: Mutex::default(),
        }
    }
}

impl TraceSink {
    /// An enabled sink with no stream attached.
    pub fn new() -> TraceSink {
        TraceSink::default()
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
    /// stream lock is taken), then folds it into the summary under the
    /// fold lock, once the stream lock is released.
    fn record(&self, record: SpanRecord) {
        if self.stream.is_active() {
            let mut event = String::with_capacity(192);
            event.push_str(",\n");
            chrome_event(&record, &mut event);
            self.stream.write(event.as_bytes());
        }
        self.fold.lock().expect("trace fold poisoned").add(&record);
    }

    /// Attaches a live writer: every span recorded from now on is also
    /// appended to `writer` as a Chrome trace event, in completion order
    /// (Chrome/Perfetto sort by timestamp on load). Writes the document
    /// preamble immediately; call [`finish_stream`](Self::finish_stream)
    /// to close the document. Replaces any previous stream without closing
    /// it. Spans recorded before this call are not replayed, so attach
    /// before the run to stream all of them.
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
    /// `otherData` object carrying the streamed and error counters,
    /// flushes, and drops the writer. A no-op returning `Ok` when no
    /// stream is active (including after a write error already tore the
    /// stream down).
    pub fn finish_stream(&self) -> std::io::Result<()> {
        self.stream.finish(|| {
            format!(
                "\n],\"otherData\":{{\"spans_streamed\":{},\"stream_write_errors\":{}}}}}\n",
                self.streamed(),
                self.stream_errors(),
            )
        })
    }

    /// Number of spans recorded, streamed or not.
    pub fn recorded(&self) -> u64 {
        let fold = self.fold.lock().expect("trace fold poisoned");
        fold.rows.values().map(|row| row.count).sum()
    }

    /// Number of span events successfully written to the stream.
    pub fn streamed(&self) -> u64 {
        self.stream.written()
    }

    /// Number of stream write failures. The first failure permanently
    /// disables streaming (the summary keeps folding), so this is
    /// effectively 0 or 1 per [`stream_to`](Self::stream_to) call.
    pub fn stream_errors(&self) -> u64 {
        self.stream.errors()
    }

    /// Per-span-kind aggregation of every recorded span: for every
    /// `category/name` pair, the span count, total time, self time (total
    /// minus the time of the child spans recorded under it, on its own
    /// thread, before it ended), and p50/p95/p99 of the span durations,
    /// each estimated from a log₂ histogram and falling in the same
    /// power-of-two bucket as the exact nearest-rank duration. Rows are
    /// ordered by descending total time.
    ///
    /// Children recorded on other threads ran beside their parent, so
    /// they leave its self time alone: a `cache_fill` whose growth
    /// evaluations ran on pool workers keeps the time it spent itself,
    /// waiting on them included. Self time saturates at zero, for a
    /// parent that ends before a same-thread child it was handed.
    pub fn summary(&self) -> Vec<SummaryRow> {
        let fold = self.fold.lock().expect("trace fold poisoned");
        let mut rows: Vec<SummaryRow> = fold
            .rows
            .iter()
            .map(|(&(category, name), row)| {
                let percentile = |q| row.durations.percentile(q).unwrap_or(0);
                SummaryRow {
                    key: format!("{category}/{name}"),
                    count: row.count,
                    total_ns: row.total_ns,
                    self_ns: row.self_ns,
                    p50_ns: percentile(0.50),
                    p95_ns: percentile(0.95),
                    p99_ns: percentile(0.99),
                }
            })
            .collect();
        drop(fold);
        rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.key.cmp(&b.key)));
        rows
    }

    /// Renders [`summary`](Self::summary) as a fixed-width text table.
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
    /// Total minus the time of the children recorded on the span's own
    /// thread (saturating), nanoseconds.
    pub self_ns: u64,
    /// Median span duration (log₂-bucket estimate), nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile span duration (estimate), nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile span duration (estimate), nanoseconds.
    pub p99_ns: u64,
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
        Span::inert_from(Instant::now())
    }

    /// An inert span that times from `started`.
    fn inert_from(started: Instant) -> Span<'static> {
        Span {
            sink: None,
            id: 0,
            parent: 0,
            category: "",
            name: "",
            started,
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
    pub fn end(self) -> Duration {
        self.end_at(Instant::now())
    }

    /// Ends the span at `ended`, a clock reading the caller already
    /// holds, and returns its duration: for a span whose end is known
    /// only after it, such as a phase recorded once the work after it
    /// decides what the phase was.
    pub fn end_at(mut self, ended: Instant) -> Duration {
        self.record_end(ended)
    }

    /// Records the span as ended at `ended` (once, and only when live)
    /// and returns its duration.
    fn record_end(&mut self, ended: Instant) -> Duration {
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
            self.record_end(Instant::now());
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

/// [`maybe_span`] under an id reserved earlier (or [`SpanId::NONE`]) and
/// from a start the caller already holds: [`TraceSink::span_from`]
/// against an optional sink. `None` yields an inert span that still
/// times from `started`.
pub fn maybe_span_from<'s>(
    sink: Option<&'s TraceSink>,
    id: SpanId,
    category: &'static str,
    name: &'static str,
    parent: SpanId,
    started: Instant,
) -> Span<'s> {
    match sink {
        Some(sink) => sink.span_from(id, category, name, parent, started),
        None => Span::inert_from(started),
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

    /// A sink streaming into the returned buffer.
    fn streaming_sink() -> (TraceSink, SharedBuf) {
        let sink = TraceSink::new();
        let buf = SharedBuf::default();
        sink.stream_to(Box::new(buf.clone())).unwrap();
        (sink, buf)
    }

    /// One span event of a streamed document.
    struct Event(String);

    impl Event {
        /// The raw value of `key`, up to the next `,` or `}`.
        fn raw(&self, key: &str) -> Option<&str> {
            let rest = self.0.split(&format!("\"{key}\":")).nth(1)?;
            rest.split([',', '}']).next()
        }

        fn num(&self, key: &str) -> Option<u64> {
            self.raw(key).map(|raw| raw.parse().expect(key))
        }

        fn name(&self) -> &str {
            self.raw("name").unwrap().trim_matches('"')
        }

        /// A `ts`/`dur` value (µs with three decimals) in nanoseconds.
        fn ns(&self, key: &str) -> u64 {
            let (us, frac) = self.raw(key).unwrap().split_once('.').unwrap();
            us.parse::<u64>().unwrap() * 1_000 + frac.parse::<u64>().unwrap()
        }

        fn interval(&self) -> (u64, u64) {
            let start = self.ns("ts");
            (start, start + self.ns("dur"))
        }
    }

    /// Closes the sink's stream, checks the document parses, and returns
    /// its span events in completion order.
    fn finish(sink: &TraceSink, buf: &SharedBuf) -> Vec<Event> {
        sink.finish_stream().unwrap();
        let doc = buf.contents();
        validate_json(doc.trim_end()).expect("streamed document parses");
        doc.lines()
            .filter(|line| line.contains("\"ph\":\"X\""))
            .map(|line| Event(line.trim_end_matches(',').to_owned()))
            .collect()
    }

    /// A synthetic span, for exact fold arithmetic.
    fn record(id: u64, parent: u64, name: &'static str, duration_ns: u64) -> SpanRecord {
        on_thread(1, id, parent, name, duration_ns)
    }

    /// A synthetic span recorded on `thread`.
    fn on_thread(
        thread: u64,
        id: u64,
        parent: u64,
        name: &'static str,
        duration_ns: u64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            thread,
            category: "t",
            name,
            start_ns: 0,
            end_ns: duration_ns,
            attrs: [("", 0); MAX_ATTRS],
            attr_len: 0,
        }
    }

    #[test]
    fn spans_record_nesting_and_attrs() {
        let (sink, buf) = streaming_sink();
        {
            let mut root = sink.span("engine", "run", SpanId::NONE);
            root.attr("seeds", 42);
            {
                let mut child = sink.span("engine", "cache_fill", root.id());
                child.attr("clusters", 7);
            }
        }
        let events = finish(&sink, &buf);
        assert_eq!(events.len(), 2);
        let root = events.iter().find(|e| e.name() == "run").expect("root");
        let child = events
            .iter()
            .find(|e| e.name() == "cache_fill")
            .expect("child");
        assert_eq!(root.num("parent"), None);
        assert_eq!(child.num("parent"), root.num("span_id"));
        assert_eq!(root.num("seeds"), Some(42));
        assert_eq!(child.num("clusters"), Some(7));
        let (start, end) = root.interval();
        let (c_start, c_end) = child.interval();
        assert!(start <= c_start && c_end <= end);
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
        assert_eq!(sink.recorded(), 0);
        assert!(sink.summary().is_empty());
        sink.set_enabled(true);
        drop(sink.span("engine", "run", SpanId::NONE));
        assert_eq!(sink.recorded(), 1);
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
        let (sink, buf) = streaming_sink();
        let span = sink.span("engine", "select", SpanId::NONE);
        std::thread::sleep(Duration::from_millis(1));
        let elapsed = span.end();
        // Inert and disabled spans record nothing but still time.
        let inert = maybe_span(None, "engine", "select", SpanId::NONE);
        std::thread::sleep(Duration::from_millis(1));
        assert!(inert.end() >= Duration::from_millis(1));
        sink.set_enabled(false);
        let disabled = sink.span("engine", "select", SpanId::NONE);
        std::thread::sleep(Duration::from_millis(1));
        assert!(disabled.end() >= Duration::from_millis(1));
        assert_eq!(sink.recorded(), 1);
        let events = finish(&sink, &buf);
        assert_eq!(
            events.len(),
            1,
            "end records once and the drop adds nothing"
        );
        assert_eq!(u128::from(events[0].ns("dur")), elapsed.as_nanos());
        assert_eq!(sink.summary()[0].total_ns, events[0].ns("dur"));
    }

    #[test]
    fn a_reserved_span_records_from_its_given_start() {
        let (sink, buf) = streaming_sink();
        let started = Instant::now();
        let id = sink.reserve_id();
        drop(sink.span("engine", "cache_fill", id));
        let mut root = sink.span_from(id, "engine", "run", SpanId::NONE, started);
        root.attr("seeds", 3);
        drop(root);
        // A disabled sink reserves no id, and a span under none records
        // nothing.
        sink.set_enabled(false);
        let none = sink.reserve_id();
        assert!(none.is_none());
        drop(sink.span_from(none, "engine", "run", SpanId::NONE, started));
        assert_eq!(sink.recorded(), 2);
        let events = finish(&sink, &buf);
        let root = events.iter().find(|e| e.name() == "run").expect("root");
        let child = events
            .iter()
            .find(|e| e.name() == "cache_fill")
            .expect("child");
        assert_eq!(root.num("span_id"), Some(id.0));
        assert_eq!(child.num("parent"), Some(id.0));
        assert_eq!(root.num("seeds"), Some(3));
        let (start, end) = root.interval();
        let (c_start, c_end) = child.interval();
        assert!(start <= c_start && c_end <= end);
    }

    #[test]
    fn concurrent_recording_is_lossless_under_capacity() {
        let (sink, buf) = streaming_sink();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..500 {
                        drop(sink.span("t", "work", SpanId::NONE));
                    }
                });
            }
        });
        assert_eq!(sink.recorded(), 4_000);
        assert_eq!(sink.summary()[0].count, 4_000);
        // Ids are unique.
        let mut ids: Vec<u64> = finish(&sink, &buf)
            .iter()
            .map(|e| e.num("span_id").unwrap())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4_000);
    }

    /// The sink keeps no spans, so nothing caps what it streams or folds:
    /// 20 000 spans from one thread are all in the stream and the summary.
    #[test]
    fn every_span_reaches_the_stream_and_the_summary() {
        let (sink, buf) = streaming_sink();
        for _ in 0..20_000 {
            drop(sink.span("engine", "growth_eval", SpanId::NONE));
        }
        let rows = sink.summary();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].count, 20_000);
        assert_eq!(sink.streamed(), 20_000);
        assert_eq!(finish(&sink, &buf).len(), 20_000);
    }

    #[test]
    fn chrome_json_round_trips() {
        let (sink, buf) = streaming_sink();
        {
            let mut root = sink.span("engine", "run", SpanId::NONE);
            root.attr("seeds", 10);
            drop(sink.span("engine", "select", root.id()));
        }
        finish(&sink, &buf);
        let json = buf.contents();
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"cat\":\"engine\""));
        assert!(json.contains("\"name\":\"run\""));
        assert!(json.contains("\"seeds\":10"));
        assert!(json.contains("\"parent\":"));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"spans_streamed\":2,\"stream_write_errors\":0"));
    }

    #[test]
    fn empty_sink_exports_valid_json() {
        let (sink, buf) = streaming_sink();
        assert!(finish(&sink, &buf).is_empty());
        assert!(buf.contents().contains("\"spans_streamed\":0"));
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
        let run = rows
            .iter()
            .find(|r| r.key == "engine/run")
            .expect("run row");
        let fill = rows
            .iter()
            .find(|r| r.key == "engine/cache_fill")
            .expect("fill row");
        assert_eq!(run.count, 1);
        assert_eq!(fill.count, 1);
        // The child's time is excluded from the parent's self time.
        assert!(run.total_ns >= fill.total_ns);
        assert_eq!(run.self_ns, run.total_ns - fill.total_ns);
        assert_eq!(fill.self_ns, fill.total_ns, "leaf self == total");
        // Percentiles of a single sample are that sample.
        assert_eq!(fill.p50_ns, fill.total_ns);
        assert_eq!(fill.p50_ns, fill.p95_ns);
        assert_eq!(fill.p95_ns, fill.p99_ns);
        // Rows ordered by total time: the enclosing run comes first.
        assert_eq!(rows[0].key, "engine/run");

        // Exact over a deeper tree: a grandchild's time leaves only its
        // parent's self time, children saturate a parent they outlast,
        // and every settled parent leaves the pending map.
        let sink = TraceSink::new();
        let mut fold = sink.fold.lock().unwrap();
        fold.add(&record(4, 2, "leaf", 10));
        fold.add(&record(2, 1, "mid", 30));
        fold.add(&record(3, 1, "mid", 50));
        fold.add(&record(1, 0, "top", 100));
        fold.add(&record(6, 5, "leaf", 40));
        fold.add(&record(5, 0, "top", 20));
        assert!(fold.pending.is_empty(), "{:?}", fold.pending);
        drop(fold);
        let self_ns: Vec<(String, u64, u64)> = sink
            .summary()
            .into_iter()
            .map(|r| (r.key, r.total_ns, r.self_ns))
            .collect();
        assert_eq!(
            self_ns,
            [
                ("t/top".to_owned(), 120, 20),
                ("t/mid".to_owned(), 80, 70),
                ("t/leaf".to_owned(), 50, 50),
            ]
        );
    }

    /// A child recorded on another thread ran beside its parent: only the
    /// same-thread child's time leaves the parent's self time, and the
    /// settled parent leaves nothing pending.
    #[test]
    fn self_time_settles_only_same_thread_children() {
        let sink = TraceSink::new();
        let mut fold = sink.fold.lock().unwrap();
        fold.add(&on_thread(2, 2, 1, "eval", 70));
        fold.add(&on_thread(1, 3, 1, "eval", 20));
        fold.add(&on_thread(2, 4, 1, "eval", 50));
        fold.add(&on_thread(1, 1, 0, "fill", 100));
        assert!(fold.pending.is_empty(), "{:?}", fold.pending);
        drop(fold);
        let fill = sink
            .summary()
            .into_iter()
            .find(|r| r.key == "t/fill")
            .expect("fill row");
        assert_eq!((fill.total_ns, fill.self_ns), (100, 80));

        // Live spans: a child ended on a spawned thread leaves its
        // parent's self time whole.
        let sink = TraceSink::new();
        let parent = sink.span("engine", "cache_fill", SpanId::NONE);
        let id = parent.id();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _child = sink.span("engine", "growth_eval", id);
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
        });
        let parent_ns = parent.end().as_nanos() as u64;
        let fill = sink
            .summary()
            .into_iter()
            .find(|r| r.key == "engine/cache_fill")
            .expect("fill row");
        assert_eq!((fill.total_ns, fill.self_ns), (parent_ns, parent_ns));
    }

    /// The percentile columns are nearest-rank estimates over log₂
    /// buckets: each lies in the bucket of the exact nearest-rank value.
    #[test]
    fn summary_percentiles_are_nearest_rank() {
        let bucket = |v: u64| 64 - v.leading_zeros();
        for (durations, exact) in [
            ((1..=100).collect::<Vec<u64>>(), [50, 95, 99]),
            (vec![7], [7, 7, 7]),
            (
                (1..=1_000).map(|d| d * 1_000).collect(),
                [500_000, 950_000, 990_000],
            ),
        ] {
            let sink = TraceSink::new();
            let mut fold = sink.fold.lock().unwrap();
            for (id, &duration) in durations.iter().enumerate() {
                fold.add(&record(id as u64 + 1, 0, "x", duration));
            }
            drop(fold);
            let row = &sink.summary()[0];
            assert_eq!(row.count, durations.len() as u64);
            assert_eq!(row.total_ns, durations.iter().sum::<u64>());
            for (estimate, exact) in [row.p50_ns, row.p95_ns, row.p99_ns].into_iter().zip(exact) {
                assert_eq!(bucket(estimate), bucket(exact), "{estimate} vs {exact}");
            }
        }
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
    fn stream_write_failure_disables_streaming_but_not_the_summary() {
        let sink = TraceSink::new();
        sink.stream_to(Box::new(FlakyWriter { writes_left: 1 }))
            .unwrap();
        for _ in 0..5 {
            drop(sink.span("t", "work", SpanId::NONE));
        }
        assert_eq!(sink.stream_errors(), 1, "first failure counted once");
        assert_eq!(sink.streamed(), 0);
        assert_eq!(sink.recorded(), 5, "the summary folds every span");
        assert_eq!(sink.summary()[0].count, 5);
        // The stream tore down; finishing is now a clean no-op.
        sink.finish_stream().unwrap();
    }

    #[test]
    fn streamed_events_from_many_threads_form_valid_json() {
        let (sink, buf) = streaming_sink();
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
        assert_eq!(finish(&sink, &buf).len(), 200);
    }
}
