//! Sharded engine driver: one [`Session`] per routed prefix on a
//! work-stealing scheduler, against a single global unique-address
//! budget.
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
//! Every lease amount is a pure function of (global budget, seed
//! shares, termination set), and terminations are themselves
//! deterministic — so the whole budget trajectory, and with it every
//! shard's target stream, is **byte-identical regardless of worker
//! count**. A `--shards 1` run executes the same protocol on one
//! worker and is the reference the differential tests compare against.
//! The merged output concatenates per-shard targets in prefix order.
//!
//! Conservation invariant, checked at every barrier: outstanding
//! leases plus the unassigned pool equal the global budget, so the
//! fleet can never generate more than `budget` addresses — and when
//! demand suffices it generates exactly `budget`.

use crate::budget::BudgetPool;
use crate::checkpoint::{ShardCheckpoint, ShardedCheckpoint};
use crate::engine::splitmix64_seed;
use crate::pool::Job;
use crate::{Config, Outcome, ResumeError, Session, SixGen, Step, WorkerPool};
use sixgen_addr::{NybbleAddr, Prefix};
use sixgen_obs::maybe_span;
use std::sync::{Arc, Mutex};
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
    /// The seeds belonging to the prefix. Deduplicated by the driver;
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
    /// Unspent budget the shard returned to the pool.
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
    /// Budget left unassigned when the fleet finished (nonzero only
    /// when every shard terminated without exhausting its lease).
    pub pool_unassigned: u64,
    /// Scheduling epochs executed (lease → run → return cycles).
    pub epochs: u64,
    /// Worker threads the scheduler ran on.
    pub workers: usize,
    /// Fleet wall-clock time, lease to merge.
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

/// Runs a sharded fleet to completion. `config.budget` is the *global*
/// budget; `config.rng_seed` is the global seed each shard's stream
/// derives from; `workers` is the scheduler's thread count (`0` uses
/// the machine's available parallelism). See the module docs for the
/// protocol.
pub fn run_sharded(specs: Vec<ShardSpec>, config: Config, workers: usize) -> ShardedOutcome {
    run_sharded_with(specs, config, workers, |_| {})
}

/// [`run_sharded`], invoking `at_barrier` with a [`ShardedCheckpoint`]
/// at every epoch barrier — the hook where callers persist the fleet
/// (see [`CheckpointWriter::write_sharded`]) for mid-fleet resume via
/// [`resume_sharded`].
///
/// [`CheckpointWriter::write_sharded`]: crate::CheckpointWriter::write_sharded
pub fn run_sharded_with(
    specs: Vec<ShardSpec>,
    config: Config,
    workers: usize,
    at_barrier: impl FnMut(&ShardedCheckpoint),
) -> ShardedOutcome {
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
    let global_budget = config.budget;
    let mut shares: Vec<u64> = Vec::with_capacity(specs.len());
    let mut seed_sets: Vec<Vec<NybbleAddr>> = Vec::with_capacity(specs.len());
    for spec in &mut specs {
        let mut seeds = std::mem::take(&mut spec.seeds);
        seeds.sort_unstable();
        seeds.dedup();
        shares.push(seeds.len() as u64);
        seed_sets.push(seeds);
    }
    let mut budget_pool = BudgetPool::new(global_budget);
    let leases = budget_pool.lease_proportional(&shares);

    let driver = Driver::new(&config, workers, specs.len());
    // Announce the initial proportional leases before the sessions start
    // (sessions then announce themselves with their lease as budget).
    if let Some(bus) = driver.live_events() {
        for (index, &lease) in leases.iter().enumerate() {
            bus.publish(sixgen_obs::ProgressEvent::Lease {
                shard: index as u64,
                grant: lease,
                epoch: 0,
            });
        }
    }
    let mut cells: Vec<Cell> = Vec::with_capacity(specs.len());
    for ((index, (spec, seeds)), lease) in specs.iter().zip(seed_sets).enumerate().zip(&leases) {
        let shard_config = driver.shard_config(&config, spec.prefix, *lease, index);
        let mut session = SixGen::new(seeds, shard_config).session();
        session.set_defer_exhaustion(true);
        cells.push(Cell::new(spec.prefix, session));
    }
    driver.run(cells, shares, budget_pool, 0, config, at_barrier)
}

/// Resumes a sharded fleet from a checkpoint envelope, continuing
/// byte-identically to the uninterrupted fleet.
///
/// `config` must match the envelope's global fingerprint (`rng_seed`,
/// plus each shard's `mode`, enforced per shard by
/// [`Session::resume`]); `config.budget` may be *raised* — the extra
/// headroom enters the pool and is re-leased to hungry shards at the
/// next barrier. Every shard resumes as a live session: shards that had
/// already terminated re-derive their stopping rule in one epoch
/// (returning nothing new to the pool — the envelope's per-shard
/// `returned` records what was already collected).
pub fn resume_sharded(
    envelope: ShardedCheckpoint,
    config: Config,
    workers: usize,
) -> Result<ShardedOutcome, ResumeError> {
    resume_sharded_with(envelope, config, workers, |_| {})
}

/// [`resume_sharded`] with an epoch-barrier checkpoint hook.
pub fn resume_sharded_with(
    envelope: ShardedCheckpoint,
    config: Config,
    workers: usize,
    at_barrier: impl FnMut(&ShardedCheckpoint),
) -> Result<ShardedOutcome, ResumeError> {
    if config.rng_seed != envelope.rng_seed {
        return Err(ResumeError::ConfigMismatch { field: "rng_seed" });
    }
    if config.budget < envelope.budget {
        return Err(ResumeError::BudgetBelowUsed {
            used: envelope.budget,
            budget: config.budget,
        });
    }
    envelope.validate().map_err(|_| {
        ResumeError::Corrupt("sharded envelope violates a fleet invariant")
    })?;
    let top_up = config.budget - envelope.budget;
    let budget_pool = BudgetPool::restore(
        config.budget,
        envelope.pool_unassigned + top_up,
    )
    .ok_or(ResumeError::Corrupt("pool exceeds the global budget"))?;

    let driver = Driver::new(&config, workers, envelope.shards.len());
    let mut shares: Vec<u64> = Vec::with_capacity(envelope.shards.len());
    let mut cells: Vec<Cell> = Vec::with_capacity(envelope.shards.len());
    for (index, shard) in envelope.shards.into_iter().enumerate() {
        let shard_config =
            driver.shard_config(&config, shard.prefix, shard.engine.budget, index);
        shares.push(shard.engine.seeds.len() as u64);
        let mut session = Session::resume(shard.engine, shard_config)?;
        session.set_defer_exhaustion(true);
        let mut cell = Cell::new(shard.prefix, session);
        cell.returned = shard.returned;
        cells.push(cell);
    }
    Ok(driver.run(cells, shares, budget_pool, envelope.epochs, config, at_barrier))
}

/// Per-shard scheduler state. Each cell is touched by exactly one pool
/// job per epoch; the mutex makes the handoff between the driver thread
/// (barriers) and pool workers (epochs) sound.
#[derive(Debug)]
struct Cell {
    prefix: Prefix,
    /// `None` only transiently (never observed: jobs and barriers both
    /// run with the lock held).
    session: Option<Session>,
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
    /// The session terminated.
    Done,
}

impl Cell {
    fn new(prefix: Prefix, session: Session) -> Cell {
        let state = if session.termination().is_some() {
            // Born finished (NoSeeds, or a lease below the seed count
            // exhausting at init).
            ShardState::Done
        } else {
            ShardState::Runnable
        };
        Cell {
            prefix,
            session: Some(session),
            state,
            busy: Duration::ZERO,
            returned: 0,
        }
    }
}

/// The fleet scheduler: owns the worker pool and drives the epoch loop.
struct Driver {
    pool: Arc<WorkerPool>,
    workers: usize,
    /// The fleet's progress-event bus, shared with every shard session
    /// via `shard_config`.
    events: Option<Arc<sixgen_obs::EventBus>>,
}

impl Driver {
    fn new(config: &Config, workers: usize, _shards: usize) -> Driver {
        let workers = crate::pool::resolve_threads(workers);
        let pool = config
            .pool
            .clone()
            .unwrap_or_else(|| Arc::new(WorkerPool::new(workers)));
        Driver {
            pool,
            workers,
            events: config.events.clone(),
        }
    }

    /// The event bus, when configured *and* enabled — fleet emission
    /// sites gate event construction (and any state walks needed to
    /// build events) behind this.
    fn live_events(&self) -> Option<&sixgen_obs::EventBus> {
        self.events.as_deref().filter(|bus| bus.is_enabled())
    }

    /// Derives one shard's session config from the global one. `index`
    /// is the shard's position in prefix order; it keys the session's
    /// progress events exactly like the `engine/shard/{index}/*` metric
    /// names assemble records.
    fn shard_config(&self, global: &Config, prefix: Prefix, lease: u64, index: usize) -> Config {
        Config {
            budget: lease,
            rng_seed: shard_rng_seed(global.rng_seed, prefix),
            pool: Some(Arc::clone(&self.pool)),
            shard_id: index as u64,
            ..global.clone()
        }
    }

    /// The epoch loop (see module docs). `cells` arrive Runnable (fresh
    /// or resumed) or Done (born finished); `budget_pool` holds whatever
    /// is unassigned.
    fn run(
        self,
        cells: Vec<Cell>,
        shares: Vec<u64>,
        mut budget_pool: BudgetPool,
        prior_epochs: u64,
        global: Config,
        mut at_barrier: impl FnMut(&ShardedCheckpoint),
    ) -> ShardedOutcome {
        let fleet_started = Instant::now();
        if let Some(bus) = self.events.as_deref() {
            // ETA hint: per-shard budgets are partial leases, so the
            // global budget is published separately. A plain atomic
            // store — safe (and useful) even while the bus is disabled,
            // so an observer attached mid-run sees the right total.
            bus.set_budget_total(global.budget);
        }
        let trace = global.trace.clone();
        let trace = trace.as_deref();
        let mut root = maybe_span(trace, "sharded", "run", global.trace_parent);
        root.attr("shards", cells.len() as u64);
        root.attr("workers", self.workers as u64);
        root.attr("budget", global.budget);
        let root_id = root.id();
        // Re-parent every shard session's `engine/run` root under the
        // fleet root. Sessions were created before this span existed, so
        // their spans already carry `trace_parent` from `shard_config`;
        // fix up here instead by creating the fleet root *before* the
        // sessions would be — see `shard_config` callers, which pass
        // `global.trace_parent` through. (Per-shard engine spans created
        // at session start use the parent configured there; the summary
        // `sharded/shard` spans below always nest under this root.)
        let _ = root_id;

        let cells: Arc<Vec<Mutex<Cell>>> = Arc::new(cells.into_iter().map(Mutex::new).collect());
        let mut epochs = prior_epochs;
        let cancelled = |g: &Config| g.cancel.as_ref().is_some_and(|t| t.is_cancelled());

        loop {
            let runnable: Vec<usize> = self.states(&cells, ShardState::Runnable);
            if !runnable.is_empty() {
                self.run_epoch(&cells, &runnable);
                epochs += 1;
            }
            self.collect_returns(&cells, &mut budget_pool);
            at_barrier(&self.make_checkpoint(&cells, &budget_pool, &global, epochs));
            self.publish_barrier(&cells, &budget_pool, epochs);
            if cancelled(&global) {
                break;
            }
            let hungry = self.states(&cells, ShardState::Hungry);
            if hungry.is_empty() {
                // Everyone terminated: the fleet is done.
                let outcome = self.assemble(
                    cells,
                    budget_pool,
                    epochs,
                    global,
                    fleet_started,
                    &mut root,
                );
                return outcome;
            }
            if budget_pool.unassigned() == 0 {
                break;
            }
            // Re-lease the whole pool to the hungry shards, proportional
            // to their seed shares; zero-grant shards (pool smaller than
            // the hungry count) stay parked.
            let hungry_shares: Vec<u64> = hungry.iter().map(|&i| shares[i]).collect();
            let grants = budget_pool.lease_proportional(&hungry_shares);
            let mut granted_any = false;
            for (&i, &grant) in hungry.iter().zip(&grants) {
                if grant == 0 {
                    continue;
                }
                let mut cell = cells[i].lock().unwrap();
                cell.session
                    .as_mut()
                    .expect("live cell holds a session")
                    .add_budget(grant);
                cell.state = ShardState::Runnable;
                granted_any = true;
                drop(cell);
                if let Some(bus) = self.live_events() {
                    bus.publish(sixgen_obs::ProgressEvent::Lease {
                        shard: i as u64,
                        grant,
                        epoch: epochs,
                    });
                }
            }
            if !granted_any {
                break;
            }
        }

        // Final phase: no more budget can arrive (or the fleet was
        // cancelled). Switch deferred exhaustion off so still-hungry
        // shards run Algorithm 1's exact final-sampling path — or, if
        // cancelled, observe the token — in one last epoch.
        let pending: Vec<usize> = (0..cells.len())
            .filter(|&i| cells[i].lock().unwrap().state != ShardState::Done)
            .collect();
        if !pending.is_empty() {
            for &i in &pending {
                let mut cell = cells[i].lock().unwrap();
                cell.session
                    .as_mut()
                    .expect("live cell holds a session")
                    .set_defer_exhaustion(false);
                cell.state = ShardState::Runnable;
            }
            self.run_epoch(&cells, &pending);
            epochs += 1;
            self.collect_returns(&cells, &mut budget_pool);
            at_barrier(&self.make_checkpoint(&cells, &budget_pool, &global, epochs));
            self.publish_barrier(&cells, &budget_pool, epochs);
        }
        self.assemble(cells, budget_pool, epochs, global, fleet_started, &mut root)
    }

    /// Indices of cells currently in `state`.
    fn states(&self, cells: &Arc<Vec<Mutex<Cell>>>, state: ShardState) -> Vec<usize> {
        (0..cells.len())
            .filter(|&i| cells[i].lock().unwrap().state == state)
            .collect()
    }

    /// Runs one epoch: each runnable shard steps until it parks or
    /// terminates, as one pool job per shard. The batch completing is
    /// the epoch barrier.
    fn run_epoch(&self, cells: &Arc<Vec<Mutex<Cell>>>, runnable: &[usize]) {
        let jobs: Vec<Job> = runnable
            .iter()
            .map(|&i| {
                let cells = Arc::clone(cells);
                let events = self.events.clone();
                Box::new(move || {
                    let mut guard = cells[i].lock().unwrap();
                    let cell = &mut *guard;
                    let session = cell.session.as_mut().expect("live cell holds a session");
                    let quantum = Instant::now();
                    loop {
                        match session.step() {
                            Step::Grew => continue,
                            Step::NeedsBudget => {
                                cell.state = ShardState::Hungry;
                                if let Some(bus) =
                                    events.as_deref().filter(|bus| bus.is_enabled())
                                {
                                    bus.publish(sixgen_obs::ProgressEvent::Park {
                                        shard: i as u64,
                                        budget_used: session.budget_used(),
                                        budget: session.budget(),
                                    });
                                }
                                break;
                            }
                            Step::Done(termination) => {
                                cell.state = ShardState::Done;
                                if let Some(bus) =
                                    events.as_deref().filter(|bus| bus.is_enabled())
                                {
                                    bus.publish(sixgen_obs::ProgressEvent::ShardDone {
                                        shard: i as u64,
                                        termination: termination.label(),
                                        rounds: session.rounds(),
                                        budget_used: session.budget_used(),
                                        unspent: session.budget() - session.budget_used(),
                                    });
                                }
                                break;
                            }
                        }
                    }
                    cell.busy += quantum.elapsed();
                }) as Job
            })
            .collect();
        self.pool.run_batch(jobs);
    }

    /// Publishes a [`Barrier`](sixgen_obs::ProgressEvent::Barrier) event
    /// snapshotting the fleet state at an epoch boundary. The O(shards)
    /// state walk only happens when the bus is present and enabled.
    fn publish_barrier(
        &self,
        cells: &Arc<Vec<Mutex<Cell>>>,
        budget_pool: &BudgetPool,
        epochs: u64,
    ) {
        let Some(bus) = self.live_events() else {
            return;
        };
        let mut done = 0u64;
        let mut hungry = 0u64;
        for cell in cells.iter() {
            match cell.lock().unwrap().state {
                ShardState::Done => done += 1,
                ShardState::Hungry => hungry += 1,
                ShardState::Runnable => {}
            }
        }
        bus.publish(sixgen_obs::ProgressEvent::Barrier {
            epoch: epochs,
            pool_unassigned: budget_pool.unassigned(),
            done,
            hungry,
        });
    }

    /// Folds terminated shards' unspent leases back into the pool. The
    /// `returned` marker keeps this idempotent across barriers and
    /// across interrupt/resume (a re-derived termination returns only
    /// what was never collected).
    fn collect_returns(&self, cells: &Arc<Vec<Mutex<Cell>>>, budget_pool: &mut BudgetPool) {
        for cell in cells.iter() {
            let mut cell = cell.lock().unwrap();
            if cell.state != ShardState::Done {
                continue;
            }
            let session = cell.session.as_ref().expect("live cell holds a session");
            let unspent = session.budget() - session.budget_used();
            let delta = unspent.saturating_sub(cell.returned);
            if delta > 0 {
                budget_pool.give_back(delta);
                cell.returned += delta;
            }
        }
    }

    /// Snapshots the fleet at a barrier (all shards parked or done; the
    /// driver thread is the only one running).
    fn make_checkpoint(
        &self,
        cells: &Arc<Vec<Mutex<Cell>>>,
        budget_pool: &BudgetPool,
        global: &Config,
        epochs: u64,
    ) -> ShardedCheckpoint {
        ShardedCheckpoint {
            rng_seed: global.rng_seed,
            budget: budget_pool.total(),
            pool_unassigned: budget_pool.unassigned(),
            epochs,
            shards: cells
                .iter()
                .map(|cell| {
                    let cell = cell.lock().unwrap();
                    ShardCheckpoint {
                        prefix: cell.prefix,
                        returned: cell.returned,
                        engine: cell
                            .session
                            .as_ref()
                            .expect("live cell holds a session")
                            .checkpoint(),
                    }
                })
                .collect(),
        }
    }

    /// Finishes every session in prefix order, records per-shard
    /// metrics and summary spans, and merges the outputs.
    fn assemble(
        &self,
        cells: Arc<Vec<Mutex<Cell>>>,
        budget_pool: BudgetPool,
        epochs: u64,
        global: Config,
        fleet_started: Instant,
        root: &mut sixgen_obs::Span<'_>,
    ) -> ShardedOutcome {
        let cells = Arc::into_inner(cells)
            .expect("epoch jobs have completed; the driver holds the only reference");
        let trace = global.trace.clone();
        let trace = trace.as_deref();
        let mut shards: Vec<ShardOutcome> = Vec::with_capacity(cells.len());
        let mut targets: Vec<NybbleAddr> = Vec::new();
        let mut budget_used = 0u64;
        for (index, cell) in cells.into_iter().enumerate() {
            let cell = cell.into_inner().unwrap();
            debug_assert_eq!(cell.state, ShardState::Done, "assemble before termination");
            let session = cell.session.expect("live cell holds a session");
            let lease = session.budget();
            let outcome = session.finish();
            budget_used += outcome.stats.budget_used;
            if let Some(registry) = &global.metrics {
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
            let mut span = maybe_span(trace, "sharded", "shard", root.id());
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
        debug_assert_eq!(
            budget_used + budget_pool.unassigned(),
            budget_pool.total(),
            "budget conservation: used + unassigned must equal the global budget"
        );
        root.attr("epochs", epochs);
        root.attr("budget_used", budget_used);
        ShardedOutcome {
            shards,
            targets,
            stats: ShardedStats {
                budget: budget_pool.total(),
                budget_used,
                pool_unassigned: budget_pool.unassigned(),
                epochs,
                workers: self.workers,
                wall_time: fleet_started.elapsed(),
            },
        }
    }
}
