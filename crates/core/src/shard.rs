//! Sharded engine driver: a [`Fleet`] runs one [`Session`] per routed
//! prefix as jobs on a shared [`WorkerPool`], against a single global
//! unique-address budget.
//!
//! 6Gen's growth loop is embarrassingly parallel across routed
//! prefixes — seeds in different announced prefixes never merge into
//! one cluster — so whole-internet runs can execute one engine session
//! per prefix concurrently. What is *not* trivially parallel is the
//! budget: the paper's probe budget is global, and per-prefix costs
//! vary wildly, so a static split strands budget in cheap prefixes
//! while starving expensive ones. This driver makes the split dynamic
//! without giving up determinism:
//!
//! 1. **Lease.** The global budget is split into per-shard leases
//!    proportional to each shard's (deduplicated) seed share, by the
//!    largest-remainder method ([`split_proportional`](crate::split_proportional)) — exact,
//!    deterministic, sums to the global budget.
//! 2. **Run an epoch.** Every runnable shard task runs on the shared
//!    [`WorkerPool`] until its session either terminates or *parks*
//!    with [`Step::NeedsBudget`] (deferred exhaustion: the selected
//!    growth does not fit the lease). The epoch barrier is the pool
//!    batch completing.
//! 3. **Return & re-lease.** Terminated shards return their unspent
//!    lease to a [`BudgetPool`]; the entire pool is then re-leased to
//!    the parked ("hungry") shards, again proportionally to seed
//!    share. Granted shards step again with the new headroom.
//! 4. **Finalize.** When the pool is empty (or nobody is hungry),
//!    deferred exhaustion is switched off and still-hungry shards step
//!    once more, running Algorithm 1's exact final-sampling path
//!    against their final lease.
//!
//! A shard stopped by a deadline or a cancel is *interrupted*, not
//! finished: it keeps its lease, so a resumed fleet gives it back the
//! same headroom. At the first barrier where a shard is interrupted or
//! the fleet's cancel token is set, the fleet grants nothing more and
//! runs no final epoch; it ends its parked shards as interrupted where
//! they parked, and stops.
//!
//! Every lease amount is a pure function of (global budget, seed
//! shares, termination set), and terminations are themselves
//! deterministic — so the whole budget trajectory, and with it every
//! shard's target stream, is **byte-identical regardless of worker
//! count**. A `--shards 1` run executes the same protocol on one
//! worker and is the reference the differential tests compare against.
//! The merged output concatenates per-shard targets in prefix order.
//!
//! Conservation invariant, checked at every barrier: outstanding
//! leases plus the unassigned pool equal the global budget, and no
//! shard uses more than it holds, so the fleet can never generate more
//! than `budget` addresses — and when demand suffices it generates
//! exactly `budget`.
//!
//! A [`Fleet`] is driven like a [`Session`]. It builds a
//! [`ShardedCheckpoint`] only when asked for one, so [`run_sharded`]
//! snapshots nothing.

use crate::budget::BudgetPool;
use crate::checkpoint::{ShardCheckpoint, ShardedCheckpoint};
use crate::engine::splitmix64_seed;
use crate::{Config, Outcome, ResumeError, Session, SixGen, Step, Termination, WorkerPool};
use sixgen_addr::{NybbleAddr, Prefix};
use sixgen_obs::{maybe_span, SpanId};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Derives a shard's RNG seed from the global run seed and its prefix
/// (the `hash(global_seed, prefix)` of the sharding design): mixes the
/// prefix's network bits and length into the global seed with
/// SplitMix64. Stable across runs and worker counts; distinct prefixes
/// get decorrelated streams.
pub fn shard_rng_seed(global_seed: u64, prefix: Prefix) -> u64 {
    splitmix64_seed(global_seed, prefix.network().bits(), prefix.len() as u128)
}

/// One shard of a fleet: a routed prefix and the seeds inside it.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// The routed prefix keying the shard (shard order, RNG stream, and
    /// metric labels all derive from it).
    pub prefix: Prefix,
    /// The seeds belonging to the prefix. Deduplicated by the fleet;
    /// every seed must lie inside `prefix`.
    pub seeds: Vec<NybbleAddr>,
}

/// One shard's result within a [`ShardedOutcome`].
#[derive(Debug)]
pub struct ShardOutcome {
    /// The shard's prefix.
    pub prefix: Prefix,
    /// The shard's final lease (initial slice plus re-leased grants).
    pub lease: u64,
    /// Unspent budget the shard returned to the pool: `lease − used`
    /// for a shard that terminated, 0 for one interrupted by a deadline
    /// or a cancel, which keeps its lease.
    pub returned: u64,
    /// Busy wall-clock time the shard's task spent on pool workers
    /// (sum over its epoch quanta; excludes parked time).
    pub busy: Duration,
    /// The shard's engine outcome (targets in generation order).
    pub outcome: Outcome,
}

/// Fleet-level statistics for a sharded run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedStats {
    /// The global budget.
    pub budget: u64,
    /// Unique addresses generated across all shards (per-shard unique;
    /// an address produced by two shards' overlapping loose ranges
    /// counts once per shard, exactly as two independent runs would).
    pub budget_used: u64,
    /// Budget in the pool, leased to no shard, when the fleet finished:
    /// what terminated shards returned and no hungry shard was granted.
    /// Interrupted shards keep their leases, so after a deadline or a
    /// cancel `budget_used + pool_unassigned` may fall short of `budget`.
    pub pool_unassigned: u64,
    /// Scheduling epochs executed (lease → run → return cycles).
    pub epochs: u64,
    /// Worker threads the scheduler ran on.
    pub workers: usize,
    /// Fleet wall-clock time from the first epoch to the merge (building
    /// the shard sessions is not included).
    pub wall_time: Duration,
}

/// The merged result of a sharded run.
#[derive(Debug)]
pub struct ShardedOutcome {
    /// Per-shard results, in prefix order.
    pub shards: Vec<ShardOutcome>,
    /// Deterministic merge: each shard's targets in generation order,
    /// shards concatenated in prefix order. (Kept as a plain list, not
    /// a [`TargetSet`](crate::TargetSet): loose ranges may extend past
    /// prefix bounds, so distinct shards can generate the same
    /// address.)
    pub targets: Vec<NybbleAddr>,
    /// Fleet statistics.
    pub stats: ShardedStats,
}

/// Runs a sharded fleet to completion:
/// [`Fleet::start`]`(specs, config, workers).run()`.
pub fn run_sharded(specs: Vec<ShardSpec>, config: Config, workers: usize) -> ShardedOutcome {
    Fleet::start(specs, config, workers).run()
}

/// A sharded run in progress: one [`Session`] per routed prefix, driven
/// epoch by epoch against one global budget (see the module docs).
///
/// A fleet is driven like a session. [`start`](Fleet::start) or
/// [`resume`](Fleet::resume) builds it; [`run_with`](Fleet::run_with)
/// runs it to termination and calls its hook at every epoch barrier,
/// where every shard is parked or done and
/// [`epochs`](Fleet::epochs), [`checkpoint`](Fleet::checkpoint) and
/// [`targets_so_far`](Fleet::targets_so_far) read the fleet.
///
/// With a trace sink, the fleet reserves the id of its `sharded/run`
/// span before it builds any shard session, so each shard's `engine/run`
/// span nests under it, and records the span when the fleet finishes. A
/// fleet dropped before it finishes records no `sharded/run` span.
#[derive(Debug)]
pub struct Fleet {
    /// The shards, in prefix order between epochs.
    cells: Vec<Cell>,
    budget_pool: BudgetPool,
    /// Epochs run, cumulative across resumed segments.
    epochs: u64,
    /// The global config each shard's config derives from.
    config: Config,
    pool: Arc<WorkerPool>,
    workers: usize,
    /// Id of the `sharded/run` span: reserved before the shard sessions
    /// are built, recorded by `finish`.
    root: SpanId,
    /// The `sharded/run` span's start.
    started: Instant,
}

impl Fleet {
    /// Builds a fleet over `specs`: sorts the shards by prefix,
    /// deduplicates their seeds, leases the *global* `config.budget` in
    /// proportion to the seed counts and starts one session per shard.
    /// `config.rng_seed` is the global seed each shard's stream derives
    /// from; `workers` is the scheduler's thread count (`0` uses the
    /// machine's available parallelism).
    ///
    /// # Panics
    ///
    /// If two specs share a prefix.
    pub fn start(specs: Vec<ShardSpec>, config: Config, workers: usize) -> Fleet {
        let mut specs = specs;
        specs.sort_by_key(|s| s.prefix);
        for pair in specs.windows(2) {
            assert!(
                pair[0].prefix != pair[1].prefix,
                "duplicate shard prefix {}",
                pair[0].prefix
            );
        }
        debug_assert!(
            specs
                .iter()
                .all(|s| s.seeds.iter().all(|&a| s.prefix.contains(a))),
            "a shard spec holds a seed outside its prefix"
        );
        let mut shares: Vec<u64> = Vec::with_capacity(specs.len());
        let mut seed_sets: Vec<Vec<NybbleAddr>> = Vec::with_capacity(specs.len());
        for spec in &mut specs {
            let mut seeds = std::mem::take(&mut spec.seeds);
            seeds.sort_unstable();
            seeds.dedup();
            shares.push(seeds.len() as u64);
            seed_sets.push(seeds);
        }
        let mut budget_pool = BudgetPool::new(config.budget);
        let leases = budget_pool.lease_proportional(&shares);

        let mut fleet = Fleet::new(config, workers, budget_pool, 0);
        // Announce the initial proportional leases before the sessions start
        // (sessions then announce themselves with their lease as budget).
        if let Some(bus) = fleet.live_events() {
            for (index, &lease) in leases.iter().enumerate() {
                bus.publish(sixgen_obs::ProgressEvent::Lease {
                    shard: index as u64,
                    grant: lease,
                    epoch: 0,
                });
            }
        }
        for ((index, (spec, seeds)), lease) in specs.iter().zip(seed_sets).enumerate().zip(leases) {
            let shard_config = fleet.shard_config(spec.prefix, lease, index);
            let mut session = SixGen::new(seeds, shard_config).session();
            session.set_defer_exhaustion(true);
            fleet
                .cells
                .push(Cell::new(spec.prefix, shares[index], session));
        }
        fleet
    }

    /// Rebuilds a fleet from a checkpoint envelope, continuing
    /// byte-identically to the uninterrupted fleet.
    ///
    /// `config` must match the envelope's global fingerprint (`rng_seed`,
    /// plus each shard's `mode`, enforced per shard by
    /// [`Session::resume`]); `config.budget` may be *raised* — the extra
    /// headroom enters the pool and is re-leased to hungry shards at the
    /// next barrier. Every shard resumes as a live session: shards that
    /// had already terminated re-derive their stopping rule in one epoch
    /// (returning nothing new to the pool — the envelope's per-shard
    /// `returned` records what was already collected), and shards that
    /// were interrupted go on from where they stopped, with the lease
    /// they kept.
    pub fn resume(
        envelope: ShardedCheckpoint,
        config: Config,
        workers: usize,
    ) -> Result<Fleet, ResumeError> {
        if config.rng_seed != envelope.rng_seed {
            return Err(ResumeError::ConfigMismatch { field: "rng_seed" });
        }
        if config.budget < envelope.budget {
            return Err(ResumeError::BudgetBelowUsed {
                used: envelope.budget,
                budget: config.budget,
            });
        }
        envelope
            .validate()
            .map_err(|_| ResumeError::Corrupt("sharded envelope violates a fleet invariant"))?;
        let top_up = config.budget - envelope.budget;
        let budget_pool = BudgetPool::restore(config.budget, envelope.pool_unassigned + top_up)
            .ok_or(ResumeError::Corrupt("pool exceeds the global budget"))?;

        let mut fleet = Fleet::new(config, workers, budget_pool, envelope.epochs);
        for (index, shard) in envelope.shards.into_iter().enumerate() {
            let shard_config = fleet.shard_config(shard.prefix, shard.engine.budget, index);
            let share = shard.engine.seeds.len() as u64;
            let mut session = Session::resume(shard.engine, shard_config)?;
            session.set_defer_exhaustion(true);
            let mut cell = Cell::new(shard.prefix, share, session);
            cell.returned = shard.returned;
            fleet.cells.push(cell);
        }
        Ok(fleet)
    }

    /// A fleet with no shards yet. It resolves the worker pool and
    /// reserves the `sharded/run` span id, under the caller's
    /// [`Config::trace_parent`], before any shard session exists.
    fn new(config: Config, workers: usize, budget_pool: BudgetPool, epochs: u64) -> Fleet {
        let workers = crate::pool::resolve_threads(workers);
        let pool = config
            .pool
            .clone()
            .unwrap_or_else(|| Arc::new(WorkerPool::new(workers)));
        if let Some(bus) = config.events.as_deref() {
            // ETA hint: per-shard budgets are partial leases, so the
            // global budget is published separately. A plain atomic
            // store — safe (and useful) even while the bus is disabled,
            // so an observer attached mid-run sees the right total.
            bus.set_budget_total(config.budget);
        }
        let root = config
            .trace
            .as_deref()
            .map_or(SpanId::NONE, |trace| trace.reserve_id());
        Fleet {
            cells: Vec::new(),
            budget_pool,
            epochs,
            config,
            pool,
            workers,
            root,
            started: Instant::now(),
        }
    }

    /// Runs to termination. Equivalent to `run_with(|_| {})`.
    pub fn run(self) -> ShardedOutcome {
        self.run_with(|_| {})
    }

    /// Runs the epoch loop (see the module docs) to termination, calling
    /// `at_barrier` at every epoch barrier — after terminated shards
    /// returned their unspent leases, before the barrier's event — the
    /// hook where callers checkpoint, stream the settled targets, or
    /// decide to cancel. A cancel takes effect at the next barrier.
    /// Every shard has terminated or been interrupted by the last
    /// barrier, so there [`targets_so_far`](Fleet::targets_so_far) is
    /// the merged target list.
    pub fn run_with(mut self, mut at_barrier: impl FnMut(&Fleet)) -> ShardedOutcome {
        let fleet_started = Instant::now();
        let mut last_epoch = false;
        loop {
            if self
                .cells
                .iter()
                .any(|cell| cell.state == ShardState::Runnable)
            {
                self.run_epoch();
                self.epochs += 1;
            }
            let interruption = self.interruption();
            if let Some(termination) = interruption {
                self.interrupt_parked(termination);
            }
            self.collect_returns();
            self.debug_assert_ledger();
            at_barrier(&self);
            self.publish_barrier();
            if last_epoch || interruption.is_some() {
                break;
            }
            if !self.release_pool() {
                // No more budget can arrive: one last epoch runs whatever
                // has not terminated.
                last_epoch = true;
                if !self.end_deferral() {
                    break;
                }
            }
        }
        self.finish(fleet_started)
    }

    /// Epochs run, cumulative across resumed segments: the barrier count
    /// that checkpoint cadences key on.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Snapshots the fleet into a [`ShardedCheckpoint`], which
    /// [`Fleet::resume`] continues byte-identically. Call it from the
    /// [`run_with`](Fleet::run_with) hook (or before running), where
    /// every shard sits at a round boundary. Each call snapshots every
    /// shard session; a fleet that is never asked snapshots nothing.
    pub fn checkpoint(&self) -> ShardedCheckpoint {
        ShardedCheckpoint {
            rng_seed: self.config.rng_seed,
            budget: self.budget_pool.total(),
            pool_unassigned: self.budget_pool.unassigned(),
            epochs: self.epochs,
            shards: self
                .cells
                .iter()
                .map(|cell| ShardCheckpoint {
                    prefix: cell.prefix,
                    returned: cell.returned,
                    engine: cell.session.checkpoint(),
                })
                .collect(),
        }
    }

    /// The settled prefix of the merge: the full target lists of the
    /// terminated shards in prefix order, up to and including the
    /// committed prefix of the first shard still running. Shard lists
    /// are append-only and the merge concatenates them in prefix order,
    /// so every address here is final: later barriers only extend the
    /// list, and the finished fleet's targets start with it.
    pub fn targets_so_far(&self) -> Vec<NybbleAddr> {
        let mut settled = Vec::new();
        for cell in &self.cells {
            settled.extend_from_slice(cell.session.targets_so_far());
            if cell.state != ShardState::Done {
                break;
            }
        }
        settled
    }

    /// The event bus, when configured *and* enabled — fleet emission
    /// sites gate event construction (and any state walks needed to
    /// build events) behind this.
    fn live_events(&self) -> Option<&sixgen_obs::EventBus> {
        self.config.events.as_deref().filter(|bus| bus.is_enabled())
    }

    /// Derives one shard's session config from the global one. `index`
    /// is the shard's position in prefix order; it keys the session's
    /// progress events exactly like the `engine/shard/{index}/*` metric
    /// names `finish` records. The session's `engine/run` span parents
    /// under the fleet's `sharded/run`.
    fn shard_config(&self, prefix: Prefix, lease: u64, index: usize) -> Config {
        Config {
            budget: lease,
            rng_seed: shard_rng_seed(self.config.rng_seed, prefix),
            pool: Some(Arc::clone(&self.pool)),
            trace_parent: self.root,
            shard_id: index as u64,
            ..self.config.clone()
        }
    }

    /// Runs one epoch: each runnable shard steps until it parks or
    /// terminates, as one pool job that owns the shard's cell and hands
    /// it back. The batch completing is the epoch barrier. A shard whose
    /// step panicked re-raises its panic here, on the fleet's thread, so
    /// the fleet fails with the shard's own payload.
    fn run_epoch(&mut self) {
        let mut jobs = Vec::new();
        let mut idle = Vec::with_capacity(self.cells.len());
        for (index, mut cell) in std::mem::take(&mut self.cells).into_iter().enumerate() {
            if cell.state != ShardState::Runnable {
                idle.push(cell);
                continue;
            }
            let events = self.config.events.clone();
            jobs.push(move || {
                cell.run_quantum(index, events.as_deref());
                cell
            });
        }
        self.cells = idle;
        for stepped in self.pool.run_batch(jobs) {
            self.cells
                .push(stepped.unwrap_or_else(|payload| std::panic::resume_unwind(payload)));
        }
        self.cells.sort_by_key(|cell| cell.prefix);
    }

    /// Why the fleet stops at this barrier: [`Termination::Cancelled`]
    /// once its cancel token is set, else the interruption of a shard
    /// that stopped on its deadline, or `None` to go on.
    fn interruption(&self) -> Option<Termination> {
        if self
            .config
            .cancel
            .as_ref()
            .is_some_and(|t| t.is_cancelled())
        {
            return Some(Termination::Cancelled);
        }
        self.cells
            .iter()
            .filter_map(|cell| cell.session.termination())
            .find(|&termination| interrupted(termination))
    }

    /// Ends every parked shard as interrupted by `termination`, at the
    /// round boundary where it parked: like a shard its deadline or the
    /// cancel stopped mid-epoch, it keeps its lease.
    fn interrupt_parked(&mut self, termination: Termination) {
        let events = self.config.events.as_deref();
        for (index, cell) in self.cells.iter_mut().enumerate() {
            if cell.state == ShardState::Hungry {
                cell.session.interrupt(termination);
                cell.done(index, events);
            }
        }
    }

    /// Folds terminated shards' unspent leases back into the pool. The
    /// `returned` marker keeps this idempotent across barriers and
    /// across interrupt/resume (a re-derived termination returns only
    /// what was never collected).
    fn collect_returns(&mut self) {
        for cell in &mut self.cells {
            let delta = cell.unspent().saturating_sub(cell.returned);
            if delta > 0 {
                self.budget_pool.give_back(delta);
                cell.returned += delta;
            }
        }
    }

    /// Checks the lease ledger at a barrier (debug builds only): the
    /// shards used no more than they hold (`lease − returned`), and what
    /// they hold plus the pool is the global budget.
    fn debug_assert_ledger(&self) {
        let (held, used) = self.cells.iter().fold((0, 0), |(held, used), cell| {
            let session = &cell.session;
            (
                held + session.budget() - cell.returned,
                used + session.budget_used(),
            )
        });
        debug_assert!(used <= held, "shards used {used} of the {held} they hold");
        debug_assert_eq!(
            held + self.budget_pool.unassigned(),
            self.budget_pool.total(),
            "budget conservation: held leases plus the pool must equal the global budget"
        );
    }

    /// Publishes a [`Barrier`](sixgen_obs::ProgressEvent::Barrier) event
    /// snapshotting the fleet state at an epoch boundary. The O(shards)
    /// state walk only happens when the bus is present and enabled.
    fn publish_barrier(&self) {
        let Some(bus) = self.live_events() else {
            return;
        };
        let mut done = 0u64;
        let mut hungry = 0u64;
        for cell in &self.cells {
            match cell.state {
                ShardState::Done => done += 1,
                ShardState::Hungry => hungry += 1,
                ShardState::Runnable => {}
            }
        }
        bus.publish(sixgen_obs::ProgressEvent::Barrier {
            epoch: self.epochs,
            pool_unassigned: self.budget_pool.unassigned(),
            done,
            hungry,
        });
    }

    /// Re-leases the whole pool to the hungry shards, proportional to
    /// their seed shares; zero-grant shards (pool smaller than the
    /// hungry count) stay parked. Returns whether any shard was granted
    /// budget: `false` when nobody is hungry or the pool is empty.
    fn release_pool(&mut self) -> bool {
        let hungry: Vec<usize> = (0..self.cells.len())
            .filter(|&i| self.cells[i].state == ShardState::Hungry)
            .collect();
        if hungry.is_empty() || self.budget_pool.unassigned() == 0 {
            return false;
        }
        let hungry_shares: Vec<u64> = hungry.iter().map(|&i| self.cells[i].share).collect();
        let grants = self.budget_pool.lease_proportional(&hungry_shares);
        let mut granted_any = false;
        for (&i, &grant) in hungry.iter().zip(&grants) {
            if grant == 0 {
                continue;
            }
            self.cells[i].session.add_budget(grant);
            self.cells[i].state = ShardState::Runnable;
            granted_any = true;
            if let Some(bus) = self.live_events() {
                bus.publish(sixgen_obs::ProgressEvent::Lease {
                    shard: i as u64,
                    grant,
                    epoch: self.epochs,
                });
            }
        }
        granted_any
    }

    /// Readies the last epoch: no more budget can arrive, so deferred
    /// exhaustion goes off and every shard that has not terminated runs
    /// once more, on Algorithm 1's exact final-sampling path. Returns
    /// whether any shard is left to run.
    fn end_deferral(&mut self) -> bool {
        let mut pending = false;
        for cell in &mut self.cells {
            if cell.state != ShardState::Done {
                cell.session.set_defer_exhaustion(false);
                cell.state = ShardState::Runnable;
                pending = true;
            }
        }
        pending
    }

    /// Finishes every session in prefix order, records per-shard
    /// metrics and summary spans, merges the outputs, and records the
    /// `sharded/run` span.
    fn finish(mut self, fleet_started: Instant) -> ShardedOutcome {
        let trace = self.config.trace.as_deref();
        let mut shards: Vec<ShardOutcome> = Vec::with_capacity(self.cells.len());
        let mut targets: Vec<NybbleAddr> = Vec::new();
        let mut budget_used = 0u64;
        for (index, cell) in std::mem::take(&mut self.cells).into_iter().enumerate() {
            debug_assert_eq!(cell.state, ShardState::Done, "finish before termination");
            let lease = cell.session.budget();
            let outcome = cell.session.finish();
            budget_used += outcome.stats.budget_used;
            if let Some(registry) = &self.config.metrics {
                // Deterministic per-shard attribution: pure functions of
                // the fleet inputs, identical for any worker count.
                for (name, value) in [
                    ("rounds", outcome.stats.rounds),
                    ("growths", outcome.stats.growths),
                    ("subsumed", outcome.stats.subsumed),
                    ("budget", outcome.stats.budget),
                    ("budget_used", outcome.stats.budget_used),
                    ("seed_count", outcome.stats.seed_count),
                    ("returned", cell.returned),
                ] {
                    registry
                        .counter(&format!("engine/shard/{index}/{name}"))
                        .add(value);
                }
                // Wall time is scheduling-dependent: timing section only.
                registry
                    .time_histogram("engine/shard/busy")
                    .record_duration(cell.busy);
            }
            let mut span = maybe_span(trace, "sharded", "shard", self.root);
            span.attr("shard", index as u64);
            span.attr("rounds", outcome.stats.rounds);
            span.attr("growths", outcome.stats.growths);
            span.attr("lease", lease);
            span.attr("budget_used", outcome.stats.budget_used);
            drop(span);
            targets.extend(outcome.targets.iter());
            shards.push(ShardOutcome {
                prefix: cell.prefix,
                lease,
                returned: cell.returned,
                busy: cell.busy,
                outcome,
            });
        }
        let budget_pool = &self.budget_pool;
        let wall_time = fleet_started.elapsed();
        if let Some(trace) = trace {
            let parent = self.config.trace_parent;
            let mut root = trace.span_from(self.root, "sharded", "run", parent, self.started);
            root.attr("shards", shards.len() as u64);
            root.attr("workers", self.workers as u64);
            root.attr("budget", self.config.budget);
            root.attr("epochs", self.epochs);
            root.attr("budget_used", budget_used);
        }
        ShardedOutcome {
            shards,
            targets,
            stats: ShardedStats {
                budget: budget_pool.total(),
                budget_used,
                pool_unassigned: budget_pool.unassigned(),
                epochs: self.epochs,
                workers: self.workers,
                wall_time,
            },
        }
    }
}

/// Per-shard scheduler state. The fleet owns every cell; an epoch
/// moves each runnable cell into its pool job, and the job hands it
/// back as its result.
#[derive(Debug)]
struct Cell {
    prefix: Prefix,
    /// The shard's deduplicated seed count, its weight in every lease.
    share: u64,
    session: Session,
    state: ShardState,
    /// Busy wall time accumulated across the shard's epoch quanta.
    busy: Duration,
    /// Lease already collected back into the pool (see
    /// [`ShardCheckpoint::returned`]).
    returned: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShardState {
    /// Will run in the next epoch.
    Runnable,
    /// Parked on [`Step::NeedsBudget`], waiting for a grant.
    Hungry,
    /// The session terminated or was interrupted.
    Done,
}

/// Whether a shard stopped by `termination` was interrupted (by a
/// deadline or a cancel) rather than finished, and so keeps its lease.
fn interrupted(termination: Termination) -> bool {
    matches!(termination, Termination::Deadline | Termination::Cancelled)
}

impl Cell {
    fn new(prefix: Prefix, share: u64, session: Session) -> Cell {
        let state = if session.termination().is_some() {
            // Born finished (NoSeeds, or a lease below the seed count
            // exhausting at init).
            ShardState::Done
        } else {
            ShardState::Runnable
        };
        Cell {
            prefix,
            share,
            session,
            state,
            busy: Duration::ZERO,
            returned: 0,
        }
    }

    /// One epoch quantum: steps the session until it parks or
    /// terminates. `index` is the shard's position in prefix order,
    /// which keys its progress events.
    fn run_quantum(&mut self, index: usize, events: Option<&sixgen_obs::EventBus>) {
        let quantum = Instant::now();
        let session = &mut self.session;
        loop {
            match session.step() {
                Step::Grew => continue,
                Step::NeedsBudget => {
                    self.state = ShardState::Hungry;
                    if let Some(bus) = events.filter(|bus| bus.is_enabled()) {
                        bus.publish(sixgen_obs::ProgressEvent::Park {
                            shard: index as u64,
                            budget_used: session.budget_used(),
                            budget: session.budget(),
                        });
                    }
                    break;
                }
                Step::Done(_) => {
                    self.done(index, events);
                    break;
                }
            }
        }
        self.busy += quantum.elapsed();
    }

    /// Marks the shard done, its session having stopped, and publishes
    /// its [`ShardDone`](sixgen_obs::ProgressEvent::ShardDone) event.
    fn done(&mut self, index: usize, events: Option<&sixgen_obs::EventBus>) {
        self.state = ShardState::Done;
        if let Some(bus) = events.filter(|bus| bus.is_enabled()) {
            let termination = self
                .session
                .termination()
                .expect("a done shard has stopped");
            bus.publish(sixgen_obs::ProgressEvent::ShardDone {
                shard: index as u64,
                termination: termination.label(),
                rounds: self.session.rounds(),
                budget_used: self.session.budget_used(),
                unspent: self.unspent(),
            });
        }
    }

    /// The part of its lease the shard gives back: `lease − used` once
    /// it has terminated, 0 while it runs or parks and once it is
    /// interrupted.
    fn unspent(&self) -> u64 {
        match self.session.termination() {
            Some(termination) if !interrupted(termination) => {
                self.session.budget() - self.session.budget_used()
            }
            _ => 0,
        }
    }
}
