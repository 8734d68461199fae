//! Helpers shared by the integration tests: deterministic multi-prefix
//! worlds, an in-memory stream, and field access on the lines the event
//! bus and the trace sink stream.

// Each test crate uses a subset of these helpers.
#![allow(dead_code)]

use sixgen_addr::{NybbleAddr, Prefix};
use sixgen_core::ShardSpec;
use sixgen_obs::TraceSink;
use std::sync::{Arc, Mutex};

/// Builds a deterministic multi-prefix world: `prefixes` routed /48s,
/// each holding `per_prefix` seeds spread over a few dense /112 subnets
/// (so clusters form and grow), with unequal densities across prefixes.
/// Every shard of such a world spends its whole initial lease, so the
/// pool never re-leases: [`staggered_world`] is the fleet that does.
pub fn world(prefixes: u128, per_prefix: u64) -> Vec<ShardSpec> {
    (0..prefixes)
        .map(|p| {
            let base = (0x2001_0db8u128 << 96) | (p << 80);
            let prefix = Prefix::new(NybbleAddr::from(base), 48);
            let seeds = (0..per_prefix)
                .map(|i| {
                    let subnet = (i % (2 + p as u64 % 3)) as u128;
                    // A mildly irregular low word keeps ranges from
                    // being trivially identical across prefixes.
                    let host = (i as u128 * 7 + p * 3) % 200;
                    NybbleAddr::from(base | (subnet << 16) | host)
                })
                .collect();
            ShardSpec { prefix, seeds }
        })
        .collect()
}

/// A fleet whose shards finish in different epochs: the even shards of
/// `world(prefixes, 40)` instead hold 64 seeds packed below `::40`,
/// which cluster completely in the first epoch and return most of their
/// lease, while the odd shards park until the pool re-leases it to them.
pub fn staggered_world(prefixes: u128) -> Vec<ShardSpec> {
    world(prefixes, 40)
        .into_iter()
        .enumerate()
        .map(|(index, spec)| {
            if index % 2 == 1 {
                return spec;
            }
            let base = spec.prefix.network().bits();
            ShardSpec {
                seeds: (0..64).map(|host| NybbleAddr::from(base | host)).collect(),
                ..spec
            }
        })
        .collect()
}

/// A stream kept in memory.
#[derive(Clone, Default)]
pub struct Capture(Arc<Mutex<Vec<u8>>>);

impl Capture {
    /// Everything written so far.
    pub fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).expect("UTF-8 stream")
    }
}

impl std::io::Write for Capture {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The value of a line's numeric field `key`.
pub fn num(line: &str, key: &str) -> u64 {
    let raw = value(line, key);
    raw.parse()
        .unwrap_or_else(|e| panic!("non-numeric {key} {raw:?} in {line:?}: {e}"))
}

/// The value of a line's string field `key`.
pub fn text<'a>(line: &'a str, key: &str) -> &'a str {
    value(line, key).trim_matches('"')
}

/// The raw text of a line's field `key`, up to the next `,` or `}`.
fn value<'a>(line: &'a str, key: &str) -> &'a str {
    line.split(&format!("\"{key}\":"))
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next())
        .unwrap_or_else(|| panic!("no {key} in {line:?}"))
}

/// One span of a streamed trace, read from its Chrome event line.
pub struct TracedSpan {
    pub category: String,
    pub name: String,
    pub id: u64,
    /// 0 for a root.
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    line: String,
}

impl TracedSpan {
    fn parse(line: &str) -> TracedSpan {
        // `ts` and `dur` are microseconds with three decimals.
        let ns = |key| {
            let (us, frac) = value(line, key).split_once('.').expect("µs.nnn");
            us.parse::<u64>().unwrap() * 1_000 + frac.parse::<u64>().unwrap()
        };
        let start_ns = ns("ts");
        TracedSpan {
            category: text(line, "cat").to_owned(),
            name: text(line, "name").to_owned(),
            id: num(line, "span_id"),
            parent: if line.contains("\"parent\":") {
                num(line, "parent")
            } else {
                0
            },
            start_ns,
            end_ns: start_ns + ns("dur"),
            line: line.to_owned(),
        }
    }

    /// The attribute `key`.
    pub fn attr(&self, key: &str) -> u64 {
        num(&self.line, key)
    }
}

/// An enabled trace sink streaming into the returned capture.
pub fn traced_sink() -> (Arc<TraceSink>, Capture) {
    let sink = TraceSink::shared();
    let capture = Capture::default();
    sink.stream_to(Box::new(capture.clone()))
        .expect("in-memory stream");
    (sink, capture)
}

/// Closes the sink's stream and returns its spans, sorted by start (ties
/// by id), after checking that every recorded span was streamed.
pub fn streamed_spans(sink: &TraceSink, capture: &Capture) -> Vec<TracedSpan> {
    sink.finish_stream().expect("in-memory stream");
    assert_eq!(sink.stream_errors(), 0);
    assert_eq!(sink.streamed(), sink.recorded());
    let mut spans: Vec<TracedSpan> = capture
        .text()
        .lines()
        .filter(|line| line.contains("\"ph\":\"X\""))
        .map(|line| TracedSpan::parse(line.trim_end_matches(',')))
        .collect();
    assert_eq!(spans.len() as u64, sink.streamed());
    spans.sort_by_key(|span| (span.start_ns, span.id));
    spans
}
