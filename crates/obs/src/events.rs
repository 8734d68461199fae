//! Live run-progress events: a non-perturbing event bus plus derived
//! fleet statistics (throughput, ETA, per-shard progress).
//!
//! The metrics registry answers *how much happened* after a run; the
//! trace sink answers *where time went*. Neither answers the operator's
//! mid-flight question — *how far along is this run and when will it
//! finish?* The [`EventBus`] does: the engine publishes one typed
//! [`ProgressEvent`] per committed round (plus session start/end), and
//! the sharded fleet driver publishes lease/park/barrier/termination
//! events. The bus folds every event into a live per-shard progress
//! table as it arrives, derives a rolling budget-burn throughput and ETA
//! from a sliding sample window, and, when a stream is attached, writes
//! the event as one NDJSON line. It keeps no event once published.
//!
//! ## Overhead discipline (mirrors `trace.rs`)
//!
//! * **Bus absent** (`Config::events` is `None`): instrumentation sites
//!   branch on an `Option` and touch nothing else.
//! * **Bus disabled** ([`EventBus::set_enabled`] `false`): a publish
//!   attempt costs one relaxed atomic load.
//! * **Bus enabled**: a publish stamps the wall clock once, assigns a
//!   sequence number and folds the event into the live table (one short
//!   mutex hold). Only with a stream attached does it format the event's
//!   line and write it; without one, nothing is allocated per event
//!   (termination labels are `&'static str`).
//!
//! ## Non-perturbation
//!
//! Events are observation only: publishing never consumes engine RNG,
//! never blocks growth, and never fails the run (the NDJSON stream
//! tears itself down on the first write error, exactly like the trace
//! stream). The differential tests in `sixgen-core` pin the resulting
//! guarantee: targets, RNG stream, deterministic metrics, and checkpoints
//! are byte-identical with the bus absent, enabled, disabled, or flipped
//! on mid-run.
//!
//! ## Boundedness
//!
//! The bus holds the live table, bounded by the shard count, and its
//! throughput window of `SAMPLE_WINDOW` (256) samples; its memory does
//! not grow with the number of events published. The NDJSON stream is
//! the only record of individual events.
//!
//! The stream writer is shared with the trace sink (the crate-private
//! `stream` module); this file owns only the event types, the live table
//! and the NDJSON format, one line per event.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::escape_json;
use crate::stream::{thread_id, LiveStream};

/// Throughput samples retained for the rolling budget-burn estimate.
const SAMPLE_WINDOW: usize = 256;

/// Per-round phase timings, nanoseconds. Each is the duration of the
/// phase's span, the same figure the phase timer records: one clock feeds
/// the trace, `/metrics` and the event stream, so carrying them in events
/// adds no clock traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    /// Density-cache refill time.
    pub cache_fill: u64,
    /// Cluster selection time.
    pub select: u64,
    /// Growth commit time.
    pub commit: u64,
    /// Subsumption scan time.
    pub subsume: u64,
}

/// One typed run-progress event. Session-scoped events carry the
/// publishing shard's id (0 for unsharded runs); fleet-scoped events come
/// from the shard driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgressEvent {
    /// A session started (fresh or resumed) — `round` is non-zero on
    /// resume.
    SessionStart {
        /// Shard index (0 for unsharded runs).
        shard: u64,
        /// Seed count the session was built over.
        seeds: u64,
        /// Budget available at start.
        budget: u64,
        /// Round counter at start (non-zero when resumed).
        round: u64,
    },
    /// A growth round committed.
    Round {
        /// Shard index.
        shard: u64,
        /// Round number just committed (1-based).
        round: u64,
        /// Live (non-subsumed) clusters after the round.
        live_clusters: u64,
        /// Total growths committed so far.
        growths: u64,
        /// Budget consumed so far.
        budget_used: u64,
        /// Budget available to the session.
        budget: u64,
        /// Per-phase timings for this round.
        phase_ns: PhaseNanos,
    },
    /// A session reached a terminal state.
    SessionEnd {
        /// Shard index.
        shard: u64,
        /// Stable lower-snake label of the engine's `Termination` variant.
        termination: &'static str,
        /// Total rounds executed.
        rounds: u64,
        /// Total growths committed.
        growths: u64,
        /// Budget consumed.
        budget_used: u64,
        /// Budget available.
        budget: u64,
    },
    /// The fleet driver granted budget to a shard (initial lease or a
    /// barrier re-lease).
    Lease {
        /// Shard index.
        shard: u64,
        /// Addresses granted.
        grant: u64,
        /// Epoch at which the grant happened (0 = initial lease).
        epoch: u64,
    },
    /// A shard parked hungry (exhausted its lease mid-round and rolled
    /// back to the round boundary).
    Park {
        /// Shard index.
        shard: u64,
        /// Budget consumed at park time.
        budget_used: u64,
        /// Budget available at park time.
        budget: u64,
    },
    /// The fleet driver completed an epoch barrier.
    Barrier {
        /// Epoch number just completed (1-based).
        epoch: u64,
        /// Budget still unassigned in the global pool.
        pool_unassigned: u64,
        /// Shards terminated so far.
        done: u64,
        /// Shards parked hungry at this barrier.
        hungry: u64,
    },
    /// A shard stopped: it terminated and returned its unspent lease to
    /// the pool, or a deadline or a cancel interrupted it, while it ran
    /// or at the barrier where it was parked, and it kept its lease.
    ShardDone {
        /// Shard index.
        shard: u64,
        /// Stable lower-snake label of the engine's `Termination` variant.
        termination: &'static str,
        /// Total rounds the shard executed.
        rounds: u64,
        /// Budget the shard consumed.
        budget_used: u64,
        /// Lease returned to the pool: `lease − used` for a shard that
        /// terminated, 0 for an interrupted one.
        unspent: u64,
    },
}

impl ProgressEvent {
    /// Stable lower-snake event-kind label, used as the NDJSON `kind`
    /// field.
    pub fn kind(&self) -> &'static str {
        match self {
            ProgressEvent::SessionStart { .. } => "session_start",
            ProgressEvent::Round { .. } => "round",
            ProgressEvent::SessionEnd { .. } => "session_end",
            ProgressEvent::Lease { .. } => "lease",
            ProgressEvent::Park { .. } => "park",
            ProgressEvent::Barrier { .. } => "barrier",
            ProgressEvent::ShardDone { .. } => "shard_done",
        }
    }

    /// The event as one NDJSON line, newline included, stamped with its
    /// bus-wide sequence number (from 1), nanoseconds since the bus's
    /// epoch and the publishing thread's process-wide id (the trace
    /// sink's `tid`).
    fn ndjson_line(&self, seq: u64, wall_ns: u64, thread: u64) -> String {
        let mut out = String::with_capacity(160);
        let _ = write!(
            out,
            "{{\"seq\":{seq},\"wall_ns\":{wall_ns},\"thread\":{thread},\"kind\":\"{}\"",
            self.kind()
        );
        match self {
            ProgressEvent::SessionStart {
                shard,
                seeds,
                budget,
                round,
            } => {
                let _ = write!(
                    out,
                    ",\"shard\":{shard},\"seeds\":{seeds},\"budget\":{budget},\"round\":{round}"
                );
            }
            ProgressEvent::Round {
                shard,
                round,
                live_clusters,
                growths,
                budget_used,
                budget,
                phase_ns,
            } => {
                let _ = write!(
                    out,
                    ",\"shard\":{shard},\"round\":{round},\"live_clusters\":{live_clusters},\
                     \"growths\":{growths},\"budget_used\":{budget_used},\"budget\":{budget},\
                     \"phase_ns\":{{\"cache_fill\":{},\"select\":{},\"commit\":{},\
                     \"subsume\":{}}}",
                    phase_ns.cache_fill, phase_ns.select, phase_ns.commit, phase_ns.subsume
                );
            }
            ProgressEvent::SessionEnd {
                shard,
                termination,
                rounds,
                growths,
                budget_used,
                budget,
            } => {
                let _ = write!(
                    out,
                    ",\"shard\":{shard},\"termination\":\"{}\",\"rounds\":{rounds},\
                     \"growths\":{growths},\"budget_used\":{budget_used},\"budget\":{budget}",
                    escape_json(termination)
                );
            }
            ProgressEvent::Lease {
                shard,
                grant,
                epoch,
            } => {
                let _ = write!(out, ",\"shard\":{shard},\"grant\":{grant},\"epoch\":{epoch}");
            }
            ProgressEvent::Park {
                shard,
                budget_used,
                budget,
            } => {
                let _ = write!(
                    out,
                    ",\"shard\":{shard},\"budget_used\":{budget_used},\"budget\":{budget}"
                );
            }
            ProgressEvent::Barrier {
                epoch,
                pool_unassigned,
                done,
                hungry,
            } => {
                let _ = write!(
                    out,
                    ",\"epoch\":{epoch},\"pool_unassigned\":{pool_unassigned},\
                     \"done\":{done},\"hungry\":{hungry}"
                );
            }
            ProgressEvent::ShardDone {
                shard,
                termination,
                rounds,
                budget_used,
                unspent,
            } => {
                let _ = write!(
                    out,
                    ",\"shard\":{shard},\"termination\":\"{}\",\"rounds\":{rounds},\
                     \"budget_used\":{budget_used},\"unspent\":{unspent}",
                    escape_json(termination)
                );
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Live progress of one shard, folded from its events as they arrive.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardProgress {
    /// Shard index.
    pub shard: u64,
    /// Seed count (from the session-start event).
    pub seeds: u64,
    /// Rounds committed so far.
    pub rounds: u64,
    /// Growths committed so far.
    pub growths: u64,
    /// Budget available to the shard (refreshed by round/end events).
    pub budget: u64,
    /// Budget consumed so far.
    pub budget_used: u64,
    /// Live clusters after the latest round.
    pub live_clusters: u64,
    /// Total budget granted by fleet leases (0 for unsharded runs).
    pub leased: u64,
    /// Whether the shard is currently parked hungry.
    pub parked: bool,
    /// Terminal-state label once the shard finished.
    pub termination: Option<&'static str>,
}

/// Aggregated live view of a run, derived by [`EventBus::progress`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressSnapshot {
    /// Per-shard progress, ordered by shard index.
    pub shards: Vec<ShardProgress>,
    /// Budget total: the explicit hint from
    /// [`EventBus::set_budget_total`] when set, otherwise the sum of
    /// per-shard budgets.
    pub budget_total: u64,
    /// Budget consumed across all shards.
    pub budget_used: u64,
    /// Rounds committed across all shards.
    pub rounds: u64,
    /// Growths committed across all shards.
    pub growths: u64,
    /// Live clusters across all shards (latest round each).
    pub live_clusters: u64,
    /// Shards that reached a terminal state.
    pub done_shards: u64,
    /// Shards currently parked hungry.
    pub parked_shards: u64,
    /// Epoch barriers completed (0 for unsharded runs).
    pub epochs: u64,
    /// Rolling budget-burn rate, addresses per second, over the sample
    /// window. 0.0 until two samples exist.
    pub throughput_per_s: f64,
    /// Estimated seconds to budget exhaustion at the rolling rate.
    /// `None` when the rate is 0 or the budget total is unknown/spent.
    pub eta_s: Option<f64>,
}

impl ProgressSnapshot {
    /// Budget still unspent against the total (saturating).
    pub fn budget_remaining(&self) -> u64 {
        self.budget_total.saturating_sub(self.budget_used)
    }
}

/// Mutable live state folded under one mutex.
#[derive(Debug, Default)]
struct Live {
    shards: BTreeMap<u64, ShardProgress>,
    /// Running total of budget_used across shards, maintained
    /// incrementally so sampling is O(1).
    total_used: u64,
    /// Latest completed epoch barrier.
    epochs: u64,
    /// `(wall_ns, total_used)` samples for the rolling throughput.
    samples: VecDeque<(u64, u64)>,
}

impl Live {
    /// Updates the shard entry via `apply`, keeping `total_used`
    /// consistent with the entry's `budget_used` delta.
    fn update_shard(&mut self, shard: u64, apply: impl FnOnce(&mut ShardProgress)) {
        let entry = self.shards.entry(shard).or_insert_with(|| ShardProgress {
            shard,
            ..ShardProgress::default()
        });
        let before = entry.budget_used;
        apply(entry);
        // budget_used only moves forward within a session; on re-start
        // (resume) it can restate the same value.
        self.total_used = self
            .total_used
            .saturating_sub(before)
            .saturating_add(entry.budget_used);
    }

    fn fold(&mut self, wall_ns: u64, event: &ProgressEvent) {
        match *event {
            ProgressEvent::SessionStart {
                shard,
                seeds,
                budget,
                round,
            } => self.update_shard(shard, |s| {
                s.seeds = seeds;
                s.budget = budget;
                s.rounds = round;
                s.parked = false;
                s.termination = None;
            }),
            ProgressEvent::Round {
                shard,
                round,
                live_clusters,
                growths,
                budget_used,
                budget,
                ..
            } => {
                self.update_shard(shard, |s| {
                    s.rounds = round;
                    s.live_clusters = live_clusters;
                    s.growths = growths;
                    s.budget_used = budget_used;
                    s.budget = budget;
                    s.parked = false;
                });
                if self.samples.len() == SAMPLE_WINDOW {
                    self.samples.pop_front();
                }
                self.samples.push_back((wall_ns, self.total_used));
            }
            ProgressEvent::SessionEnd {
                shard,
                termination,
                rounds,
                growths,
                budget_used,
                budget,
            } => self.update_shard(shard, |s| {
                s.rounds = rounds;
                s.growths = growths;
                s.budget_used = budget_used;
                s.budget = budget;
                s.parked = false;
                s.termination = Some(termination);
            }),
            ProgressEvent::Lease { shard, grant, .. } => self.update_shard(shard, |s| {
                s.leased = s.leased.saturating_add(grant);
                s.parked = false;
            }),
            ProgressEvent::Park {
                shard,
                budget_used,
                budget,
            } => self.update_shard(shard, |s| {
                s.budget_used = budget_used;
                s.budget = budget;
                s.parked = true;
            }),
            ProgressEvent::Barrier { epoch, .. } => self.epochs = self.epochs.max(epoch),
            ProgressEvent::ShardDone {
                shard,
                termination,
                rounds,
                budget_used,
                ..
            } => self.update_shard(shard, |s| {
                s.rounds = rounds;
                s.budget_used = budget_used;
                s.parked = false;
                s.termination = Some(termination);
            }),
        }
    }

    /// Rolling budget-burn rate over the sample window, addresses/s.
    fn throughput_per_s(&self) -> f64 {
        let (Some(&(t0, u0)), Some(&(t1, u1))) = (self.samples.front(), self.samples.back())
        else {
            return 0.0;
        };
        if t1 <= t0 || u1 <= u0 {
            return 0.0;
        }
        (u1 - u0) as f64 / ((t1 - t0) as f64 / 1e9)
    }
}

/// A publisher/aggregator of [`ProgressEvent`]s. See the module docs for
/// the overhead, non-perturbation and boundedness guarantees.
#[derive(Debug)]
pub struct EventBus {
    enabled: AtomicBool,
    next_seq: AtomicU64,
    epoch: Instant,
    /// Explicit budget-total hint for ETA when per-shard budgets are
    /// partial leases; 0 = unset.
    budget_total: AtomicU64,
    live: Mutex<Live>,
    stream: LiveStream,
}

impl Default for EventBus {
    fn default() -> Self {
        EventBus {
            enabled: AtomicBool::new(true),
            next_seq: AtomicU64::new(1),
            epoch: Instant::now(),
            budget_total: AtomicU64::new(0),
            live: Mutex::new(Live::default()),
            stream: LiveStream::default(),
        }
    }
}

impl EventBus {
    /// An enabled bus with no stream attached.
    pub fn new() -> EventBus {
        EventBus::default()
    }

    /// Convenience: a fresh bus behind an `Arc`, ready to share.
    pub fn shared() -> Arc<EventBus> {
        Arc::new(EventBus::new())
    }

    /// Turns publishing on or off. While off, [`publish`](Self::publish)
    /// costs one relaxed atomic load and records nothing.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether the bus is currently accepting events.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Sets the run's total budget, used for the ETA estimate. For fleet
    /// runs this is the *global* budget (per-shard budgets are partial
    /// leases and under-estimate the total).
    pub fn set_budget_total(&self, total: u64) {
        self.budget_total.store(total, Ordering::Relaxed);
    }

    /// Number of events published since creation.
    pub fn published(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed) - 1
    }

    /// Publishes one event: stamps it, folds it into the live table and,
    /// when a stream is attached, writes its NDJSON line. A disabled bus
    /// ignores the event for the cost of one relaxed load. The live-table
    /// lock is released before the line is formatted and the stream lock
    /// taken.
    pub fn publish(&self, event: ProgressEvent) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let wall_ns = self.now_ns();
        self.live
            .lock()
            .expect("event live table poisoned")
            .fold(wall_ns, &event);
        if self.stream.is_active() {
            let line = event.ndjson_line(seq, wall_ns, thread_id());
            self.stream.write(line.as_bytes());
        }
    }

    /// Nanoseconds since the bus's epoch.
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Attaches a live writer: every event published from now on is also
    /// appended to `writer` as one NDJSON line. Lines are self-contained,
    /// so a process killed mid-stream leaves a valid prefix — no trailer
    /// is required, but [`finish_stream`](Self::finish_stream) flushes
    /// and drops the writer cleanly. Events published before this call
    /// are *not* replayed. The first write error permanently disables
    /// streaming (counted in [`stream_errors`](Self::stream_errors));
    /// the live table keeps folding every event.
    pub fn stream_to(&self, writer: Box<dyn std::io::Write + Send>) {
        self.stream.attach(writer);
    }

    /// Flushes and drops the active stream writer. A no-op returning
    /// `Ok` when no stream is active (including after a write error
    /// already tore the stream down).
    pub fn finish_stream(&self) -> std::io::Result<()> {
        self.stream.finish(String::new)
    }

    /// Number of events successfully written to the stream.
    pub fn streamed(&self) -> u64 {
        self.stream.written()
    }

    /// Number of stream write failures — effectively 0 or 1 per
    /// [`stream_to`](Self::stream_to) call, since the first failure tears
    /// the stream down.
    pub fn stream_errors(&self) -> u64 {
        self.stream.errors()
    }

    /// Derives the aggregated live view: per-shard progress, fleet
    /// totals, rolling throughput, and ETA.
    pub fn progress(&self) -> ProgressSnapshot {
        let live = self.live.lock().expect("event live table poisoned");
        let shards: Vec<ShardProgress> = live.shards.values().cloned().collect();
        let budget_hint = self.budget_total.load(Ordering::Relaxed);
        let budget_total = if budget_hint > 0 {
            budget_hint
        } else {
            shards.iter().map(|s| s.budget).sum()
        };
        let budget_used = live.total_used;
        let throughput = live.throughput_per_s();
        let remaining = budget_total.saturating_sub(budget_used);
        let eta_s = if throughput > 0.0 && remaining > 0 {
            Some(remaining as f64 / throughput)
        } else {
            None
        };
        ProgressSnapshot {
            budget_total,
            budget_used,
            rounds: shards.iter().map(|s| s.rounds).sum(),
            growths: shards.iter().map(|s| s.growths).sum(),
            live_clusters: shards.iter().map(|s| s.live_clusters).sum(),
            done_shards: shards.iter().filter(|s| s.termination.is_some()).count() as u64,
            parked_shards: shards.iter().filter(|s| s.parked).count() as u64,
            epochs: live.epochs,
            throughput_per_s: throughput,
            eta_s,
            shards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_json;
    use std::sync::atomic::AtomicUsize;

    fn round(shard: u64, round: u64, budget_used: u64) -> ProgressEvent {
        ProgressEvent::Round {
            shard,
            round,
            live_clusters: 3,
            growths: round,
            budget_used,
            budget: 1_000,
            phase_ns: PhaseNanos {
                cache_fill: 10,
                select: 20,
                commit: 30,
                subsume: 40,
            },
        }
    }

    /// A stream destination the test reads back.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn lines(&self) -> Vec<String> {
            let bytes = self.0.lock().unwrap().clone();
            String::from_utf8(bytes)
                .unwrap()
                .lines()
                .map(str::to_owned)
                .collect()
        }
    }

    /// A bus whose stream the test captures.
    fn captured() -> (EventBus, SharedBuf) {
        let bus = EventBus::new();
        let buf = SharedBuf::default();
        bus.stream_to(Box::new(buf.clone()));
        (bus, buf)
    }

    /// The value of a line's numeric field `key`.
    fn field(line: &str, key: &str) -> u64 {
        line.split(&format!("\"{key}\":"))
            .nth(1)
            .and_then(|rest| rest.split([',', '}']).next())
            .unwrap_or_else(|| panic!("no {key} in {line:?}"))
            .parse()
            .unwrap_or_else(|e| panic!("non-numeric {key} in {line:?}: {e}"))
    }

    #[test]
    fn publish_assigns_monotone_sequence_numbers() {
        let (bus, buf) = captured();
        for i in 1..=5 {
            bus.publish(round(0, i, i * 10));
        }
        let seqs: Vec<u64> = buf.lines().iter().map(|l| field(l, "seq")).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
        assert_eq!(bus.published(), 5);
        assert_eq!(bus.streamed(), 5);
    }

    #[test]
    fn disabled_bus_records_nothing() {
        let (bus, buf) = captured();
        bus.set_enabled(false);
        bus.publish(round(0, 1, 10));
        assert_eq!(bus.published(), 0);
        assert!(buf.lines().is_empty());
        assert_eq!(bus.progress(), EventBus::new().progress());
        bus.set_enabled(true);
        bus.publish(round(0, 1, 10));
        assert_eq!(bus.published(), 1);
        assert_eq!(buf.lines().len(), 1);
        assert_eq!(bus.progress().rounds, 1);
    }

    /// Pins the NDJSON format: the stamp fields, then `kind` and each
    /// kind's fields, in this order.
    #[test]
    fn ndjson_lines_are_valid_json_for_every_event_kind() {
        let events = [
            (
                ProgressEvent::SessionStart {
                    shard: 1,
                    seeds: 100,
                    budget: 5_000,
                    round: 0,
                },
                r#""kind":"session_start","shard":1,"seeds":100,"budget":5000,"round":0}"#,
            ),
            (
                round(1, 2, 30),
                r#""kind":"round","shard":1,"round":2,"live_clusters":3,"growths":2,"budget_used":30,"budget":1000,"phase_ns":{"cache_fill":10,"select":20,"commit":30,"subsume":40}}"#,
            ),
            (
                ProgressEvent::SessionEnd {
                    shard: 1,
                    termination: "budget_exhausted",
                    rounds: 9,
                    growths: 9,
                    budget_used: 5_000,
                    budget: 5_000,
                },
                r#""kind":"session_end","shard":1,"termination":"budget_exhausted","rounds":9,"growths":9,"budget_used":5000,"budget":5000}"#,
            ),
            (
                ProgressEvent::Lease {
                    shard: 1,
                    grant: 250,
                    epoch: 2,
                },
                r#""kind":"lease","shard":1,"grant":250,"epoch":2}"#,
            ),
            (
                ProgressEvent::Park {
                    shard: 1,
                    budget_used: 90,
                    budget: 100,
                },
                r#""kind":"park","shard":1,"budget_used":90,"budget":100}"#,
            ),
            (
                ProgressEvent::Barrier {
                    epoch: 3,
                    pool_unassigned: 12,
                    done: 1,
                    hungry: 2,
                },
                r#""kind":"barrier","epoch":3,"pool_unassigned":12,"done":1,"hungry":2}"#,
            ),
            (
                ProgressEvent::ShardDone {
                    shard: 1,
                    termination: "all_seeds_clustered",
                    rounds: 9,
                    budget_used: 4_000,
                    unspent: 1_000,
                },
                r#""kind":"shard_done","shard":1,"termination":"all_seeds_clustered","rounds":9,"budget_used":4000,"unspent":1000}"#,
            ),
        ];
        let (bus, buf) = captured();
        for (event, _) in &events {
            bus.publish(event.clone());
        }
        let lines = buf.lines();
        assert_eq!(lines.len(), events.len());
        for (i, (line, (_, tail))) in lines.iter().zip(&events).enumerate() {
            validate_json(line).unwrap_or_else(|e| panic!("bad NDJSON {line:?}: {e}"));
            let expected = format!(
                "{{\"seq\":{},\"wall_ns\":{},\"thread\":{},{tail}",
                i + 1,
                field(line, "wall_ns"),
                thread_id()
            );
            assert_eq!(line, &expected);
        }
    }

    #[test]
    fn live_table_folds_rounds_and_terminations() {
        let bus = EventBus::new();
        bus.publish(ProgressEvent::SessionStart {
            shard: 0,
            seeds: 40,
            budget: 1_000,
            round: 0,
        });
        bus.publish(round(0, 1, 100));
        bus.publish(round(0, 2, 250));
        bus.publish(ProgressEvent::SessionStart {
            shard: 1,
            seeds: 10,
            budget: 500,
            round: 0,
        });
        bus.publish(round(1, 1, 50));
        let progress = bus.progress();
        assert_eq!(progress.shards.len(), 2);
        assert_eq!(progress.rounds, 3);
        assert_eq!(progress.budget_used, 300);
        assert_eq!(progress.done_shards, 0);
        assert_eq!(progress.shards[0].live_clusters, 3);
        assert_eq!(progress.shards[0].seeds, 40);

        bus.publish(ProgressEvent::SessionEnd {
            shard: 0,
            termination: "budget_exhausted",
            rounds: 3,
            growths: 3,
            budget_used: 1_000,
            budget: 1_000,
        });
        let progress = bus.progress();
        assert_eq!(progress.done_shards, 1);
        assert_eq!(progress.budget_used, 1_050);
        assert_eq!(
            progress.shards[0].termination,
            Some("budget_exhausted")
        );
    }

    #[test]
    fn park_and_lease_track_hungry_shards() {
        let bus = EventBus::new();
        bus.publish(ProgressEvent::Park {
            shard: 2,
            budget_used: 90,
            budget: 100,
        });
        assert_eq!(bus.progress().parked_shards, 1);
        bus.publish(ProgressEvent::Lease {
            shard: 2,
            grant: 400,
            epoch: 1,
        });
        let progress = bus.progress();
        assert_eq!(progress.parked_shards, 0);
        assert_eq!(progress.shards[0].leased, 400);
        bus.publish(ProgressEvent::Barrier {
            epoch: 1,
            pool_unassigned: 0,
            done: 0,
            hungry: 1,
        });
        assert_eq!(bus.progress().epochs, 1);
    }

    #[test]
    fn eta_uses_budget_hint_and_rolling_rate() {
        let bus = EventBus::new();
        bus.set_budget_total(10_000);
        // No samples yet: no rate, no ETA.
        let progress = bus.progress();
        assert_eq!(progress.budget_total, 10_000);
        assert_eq!(progress.throughput_per_s, 0.0);
        assert_eq!(progress.eta_s, None);
        // Two round samples give a positive rate and a finite ETA.
        bus.publish(round(0, 1, 100));
        std::thread::sleep(std::time::Duration::from_millis(5));
        bus.publish(round(0, 2, 600));
        let progress = bus.progress();
        assert!(progress.throughput_per_s > 0.0, "{progress:?}");
        let eta = progress.eta_s.expect("finite ETA");
        assert!(eta > 0.0);
        // Spent budget caps the estimate: remaining / rate.
        let expected = (10_000 - 600) as f64 / progress.throughput_per_s;
        assert!((eta - expected).abs() < 1e-9);
    }

    #[test]
    fn stream_emits_ndjson_and_survives_write_errors() {
        struct FailAfter {
            ok_writes: usize,
            written: Arc<Mutex<Vec<u8>>>,
            count: Arc<AtomicUsize>,
        }
        impl std::io::Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let n = self.count.fetch_add(1, Ordering::Relaxed);
                if n < self.ok_writes {
                    self.written.lock().unwrap().extend_from_slice(buf);
                    Ok(buf.len())
                } else {
                    Err(std::io::Error::other("disk full"))
                }
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let written = Arc::new(Mutex::new(Vec::new()));
        let count = Arc::new(AtomicUsize::new(0));
        let bus = EventBus::new();
        bus.stream_to(Box::new(FailAfter {
            ok_writes: 2,
            written: written.clone(),
            count,
        }));
        for i in 1..=4 {
            bus.publish(round(0, i, i * 10));
        }
        assert_eq!(bus.streamed(), 2, "two lines landed before the fault");
        assert_eq!(bus.stream_errors(), 1, "first failure tears down");
        assert_eq!(bus.published(), 4);
        assert_eq!(bus.progress().rounds, 4, "the table outlives the fault");
        bus.finish_stream().expect("finish after teardown is a no-op");
        let text = String::from_utf8(written.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            validate_json(line).expect("each NDJSON line is valid JSON");
        }
    }

    #[test]
    fn concurrent_publishing_is_lossless_under_capacity() {
        let (bus, buf) = captured();
        // All eight publishers start together, so their live-table folds
        // and stream writes interleave.
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let (bus, start) = (&bus, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 1..=500 {
                        bus.publish(round(t, i, i));
                    }
                });
            }
        });
        assert_eq!(bus.published(), 4_000);
        let progress = bus.progress();
        assert_eq!(progress.shards.len(), 8);
        assert_eq!(progress.rounds, 4_000, "every shard folded its last round");
        assert_eq!(progress.budget_used, 4_000);

        assert_eq!(bus.streamed(), 4_000);
        assert_eq!(bus.stream_errors(), 0);
        bus.finish_stream().unwrap();
        let lines = buf.lines();
        for line in &lines {
            validate_json(line).unwrap_or_else(|e| panic!("bad NDJSON {line:?}: {e}"));
        }
        let mut seqs: Vec<u64> = lines.iter().map(|l| field(l, "seq")).collect();
        seqs.sort_unstable();
        assert_eq!(
            seqs,
            (1..=4_000).collect::<Vec<u64>>(),
            "every event streamed exactly once"
        );
    }
}
