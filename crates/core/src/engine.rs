//! The 6Gen engine: Algorithm 1's main loop with the §5.5 optimizations,
//! run as a resumable [`Session`].

use crate::budget::{BudgetTracker, Charge};
use crate::checkpoint::{CachedCheckpoint, CheckpointError, EngineCheckpoint, SlotCheckpoint};
use crate::cluster::{evaluate_growth_bounded, Cluster, Growth};
use crate::outcome::{ClusterInfo, Outcome, RunStats, TargetSet, Termination};
use crate::select::{SelectKey, SelectTree};
use crate::Config;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sixgen_addr::{NybbleAddr, NybbleTree, PackedMasks, Range};
use sixgen_obs::{maybe_span, Counter, Histogram, MetricsRegistry, PhaseTimer, SpanId, TraceSink};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cached best growth for one cluster.
///
/// §5.5: "only one cluster is changed per iteration and ... because clusters
/// grow independently, all other clusters remain unchanged and their best
/// growths can be cached between iterations."
#[derive(Debug)]
enum Cached {
    /// Must be (re)computed: the cluster is new or just grew.
    Stale,
    /// The cluster contains every seed; it can never grow.
    Exhausted,
    /// A valid best growth.
    Ready(Growth),
}

#[derive(Debug)]
struct Slot {
    cluster: Cluster,
    cached: Cached,
}

impl SelectKey {
    fn of(cached: &Cached) -> SelectKey {
        match cached {
            Cached::Ready(growth) => SelectKey {
                count: growth.seed_count,
                size: growth.range_size,
            },
            Cached::Stale | Cached::Exhausted => SelectKey::NONE,
        }
    }
}

/// The round loop's selection and subsumption structures.
///
/// A full-scan round loop pays O(clusters) per round twice: a scan of
/// every cached key to select the best growth, and a compaction pass to
/// delete subsumed clusters. Both scans are replaced here by structures
/// maintained at the O(1)-per-round mutation points (one refill, one
/// commit, a handful of subsumptions), so a round costs
/// O(affected + log N):
///
/// * **selection** — a tournament tree over the keys ([`SelectTree`])
///   that replays the scan's tie-break draw stream exactly;
/// * **subsumption** — a min-address index: `C ⊆ R` forces
///   `min(C) ∈ R` (per position, the minimum of a subset is a member of
///   the superset's nybble set), so the live clusters whose minimum
///   address lies inside the newly grown range — enumerated from an
///   uncompressed [`NybbleTree`] over the distinct minima — are a
///   complete candidate set, each then verified with the same exact
///   [`PackedMasks::is_subset`] test the scan uses. No RNG is involved,
///   so a false candidate costs four words and changes nothing.
///
/// Instead of compacting the slot arrays, subsumed slots are
/// **tombstoned in place** (`live[i] = false`, key set to
/// [`SelectKey::NONE`] so the tree never selects them). Live slots thus
/// keep the relative order a stable compaction would leave, which is the
/// order the scan's tie-break draws run over, and
/// [`Session::checkpoint`] live-compacts them, so a checkpoint holds the
/// slot list of an eagerly compacting loop.
///
/// In this crate's unit-test builds [`Session::step`] checks both
/// structures against full scans every round: the select tree against
/// `select::scan_reference` on a clone of the run RNG, the kills against
/// a subset test of every live slot's packed masks.
#[derive(Debug)]
struct IncrementalState {
    /// Liveness flags, parallel to `slots`. Slot counts never grow after
    /// initialization (a commit replaces in place, subsumption only
    /// kills), so all parallel structures are sized once.
    live: Vec<bool>,
    live_count: usize,
    /// Tournament tree over the slots' select keys.
    select: SelectTree,
    /// Distinct minimum addresses of live clusters (set semantics: an
    /// address stays while any live cluster has it as its minimum).
    min_tree: NybbleTree,
    /// Live slot indices per distinct minimum address. Loose-mode ranges
    /// zero their wildcard nybbles in the minimum, so distinct clusters
    /// can share one minimum address.
    slots_by_min: HashMap<u128, Vec<u32>>,
}

impl IncrementalState {
    fn build(slots: &[Slot]) -> IncrementalState {
        let keys: Vec<SelectKey> = slots.iter().map(|s| SelectKey::of(&s.cached)).collect();
        let mut state = IncrementalState {
            live: vec![true; slots.len()],
            live_count: slots.len(),
            select: SelectTree::from_keys(&keys),
            min_tree: NybbleTree::new(),
            slots_by_min: HashMap::with_capacity(slots.len()),
        };
        for (i, slot) in slots.iter().enumerate() {
            state.add_min(slot.cluster.range.min_address(), i);
        }
        state
    }

    fn add_min(&mut self, min: NybbleAddr, slot: usize) {
        let entries = self.slots_by_min.entry(min.bits()).or_default();
        if entries.is_empty() {
            self.min_tree.insert(min);
        }
        entries.push(slot as u32);
    }

    fn remove_min(&mut self, min: NybbleAddr, slot: usize) {
        let entries = self
            .slots_by_min
            .get_mut(&min.bits())
            .expect("min-address index entry missing for a live cluster");
        let pos = entries
            .iter()
            .position(|&s| s == slot as u32)
            .expect("slot missing from its min-address index entry");
        entries.swap_remove(pos);
        if entries.is_empty() {
            self.slots_by_min.remove(&min.bits());
            self.min_tree.remove(min);
        }
    }
}

/// Metric handles for one engine run, fetched from the registry once up
/// front so hot-loop recording never touches the registry mutex. All
/// handles are atomics, so parallel growth workers record freely.
///
/// Candidate/range histograms and the re-exported `RunStats` counters are
/// deterministic (pure functions of seeds + config); phase timers and the
/// growth-evaluation latency histogram are wall-clock and live in the
/// export's timing section. Counters accumulate, so several runs sharing
/// one registry (e.g. the bench pipeline's per-prefix runs) report
/// aggregate totals.
#[derive(Debug, Clone)]
struct EngineMetrics {
    cache_fill: Arc<PhaseTimer>,
    select: Arc<PhaseTimer>,
    commit: Arc<PhaseTimer>,
    subsume: Arc<PhaseTimer>,
    candidate_set_size: Arc<Histogram>,
    ranges_evaluated: Arc<Histogram>,
    growth_eval: Arc<Histogram>,
    cache_recomputes: Arc<Counter>,
    growths: Arc<Counter>,
    subsumed: Arc<Counter>,
    budget_used: Arc<Counter>,
    budget: Arc<Counter>,
    seed_count: Arc<Counter>,
    worker_panics: Arc<Counter>,
    runs: Arc<Counter>,
}

impl EngineMetrics {
    fn new(registry: &MetricsRegistry) -> EngineMetrics {
        EngineMetrics {
            cache_fill: registry.phase("engine/cache_fill"),
            select: registry.phase("engine/select"),
            commit: registry.phase("engine/commit"),
            subsume: registry.phase("engine/subsume"),
            candidate_set_size: registry.histogram("engine/candidate_set_size"),
            ranges_evaluated: registry.histogram("engine/ranges_evaluated"),
            growth_eval: registry.time_histogram("engine/growth_eval"),
            cache_recomputes: registry.counter("engine/cache_recomputes"),
            growths: registry.counter("engine/growths"),
            subsumed: registry.counter("engine/subsumed"),
            budget_used: registry.counter("engine/budget_used"),
            budget: registry.counter("engine/budget"),
            seed_count: registry.counter("engine/seed_count"),
            worker_panics: registry.counter("engine/worker_panics"),
            runs: registry.counter("engine/runs"),
        }
    }

    /// Re-exports the final [`RunStats`] counters through the registry.
    fn export_stats(&self, stats: &RunStats) {
        self.growths.add(stats.growths);
        self.subsumed.add(stats.subsumed);
        self.budget_used.add(stats.budget_used);
        self.budget.add(stats.budget);
        self.seed_count.add(stats.seed_count);
        self.worker_panics.add(stats.worker_panics);
        self.runs.inc();
    }
}

/// A configured 6Gen run over a set of seeds.
///
/// Construct with [`SixGen::new`], execute with [`SixGen::run`] — or open
/// a [`Session`] with [`SixGen::session`] to drive the main loop round by
/// round, checkpointing and cancelling between rounds. Runs are
/// deterministic for a fixed seed set and [`Config`], including under
/// multi-threaded growth evaluation and across checkpoint/resume cycles.
///
/// The immutable inputs (seed list, nybble tree) live behind an [`Arc`]
/// so cloning a `SixGen` is cheap; persistent-pool growth jobs capture a
/// clone to satisfy their `'static` bound without copying the tree.
#[derive(Debug, Clone)]
pub struct SixGen {
    shared: Arc<EngineShared>,
    config: Config,
}

/// The run-immutable inputs shared across pool workers.
#[derive(Debug)]
struct EngineShared {
    seeds: Vec<NybbleAddr>,
    tree: NybbleTree,
}

/// Bin threshold for [`NybbleTree::compress_bins`] on the seed tree.
/// Subtrees of at most this many seeds collapse into flat leaf bins,
/// taming the branch-and-bound enumeration cost over sparse regions
/// (isolated noisy seeds) that otherwise dominates cache refills on
/// large corpora. Pure query-plan tuning: results are byte-identical
/// for any value.
const SEED_TREE_BIN: usize = 128;

impl SixGen {
    /// Prepares a run. Duplicate seeds are removed; seed order does not
    /// affect the result.
    pub fn new(seeds: impl IntoIterator<Item = NybbleAddr>, config: Config) -> SixGen {
        let mut seeds: Vec<NybbleAddr> = seeds.into_iter().collect();
        seeds.sort_unstable();
        seeds.dedup();
        let mut tree = NybbleTree::from_addresses(seeds.iter().copied());
        // The seed tree is immutable for the whole run, so sparse
        // subtrees can be collapsed into leaf bins up front.
        tree.compress_bins(SEED_TREE_BIN);
        SixGen {
            shared: Arc::new(EngineShared { seeds, tree }),
            config,
        }
    }

    /// The deduplicated seed list.
    pub fn seeds(&self) -> &[NybbleAddr] {
        &self.shared.seeds
    }

    /// Executes the algorithm to termination and returns the outcome.
    /// Equivalent to `self.session().run()`.
    pub fn run(self) -> Outcome {
        Session::start(self).run()
    }

    /// Opens a [`Session`]: the same algorithm, driven round by round by
    /// the caller, with checkpoint/resume and cooperative cancellation.
    pub fn session(self) -> Session {
        Session::start(self)
    }

    /// Recomputes the caches named by `stale` (draining it), in parallel
    /// when configured and worthwhile, and counts recovered panics into
    /// `worker_panics`.
    ///
    /// The stale list is maintained *incrementally* by the caller: after
    /// initialization it holds every cluster, and after a commit it holds
    /// exactly the grown cluster. A commit can never invalidate any other
    /// cluster's cache — the seed tree is immutable and clusters grow
    /// independently (§5.5), so a cached best growth only depends on the
    /// owning cluster's range. Deleting subsumed clusters doesn't
    /// invalidate caches either, for the same reason. Keeping the list
    /// explicit turns the per-round cache refresh from an O(clusters) scan
    /// into O(stale), which after round one is O(1) bookkeeping plus the
    /// single recompute.
    ///
    /// Returns the **aggregate busy time** spent in growth evaluation
    /// across all participating threads, feeding [`RunStats::cpu_time`]:
    ///
    /// * serial mode — the wall time of the evaluation loop (one thread,
    ///   so busy time and wall time coincide);
    /// * parallel mode — the sum of each worker's busy interval (thread
    ///   body start to finish), plus the serial failover retries.
    ///
    /// The semantics are deliberately identical across modes — total CPU
    /// time burned evaluating growths — so `cpu_time` is comparable across
    /// `threads` settings and `cpu_time / wall_time` approximates the
    /// achieved evaluation parallelism. Two measurement caveats are
    /// accepted: a worker's interval includes its share of per-cluster
    /// `catch_unwind`/metrics bookkeeping, and an evaluation that panicked
    /// and was retried contributes both attempts (the failed one is inside
    /// its worker's interval and cannot be separated out).
    ///
    /// [`RunStats::cpu_time`]: crate::RunStats::cpu_time
    ///
    /// Parallel growth evaluation is panic-free at the run level: each
    /// cluster's evaluation runs under [`catch_unwind`], a panicking
    /// cluster is retried serially on the coordinating thread, and a
    /// cluster that panics again is written off as [`Cached::Exhausted`]
    /// (it simply stops growing) so one poisoned cluster cannot abort the
    /// whole run.
    #[allow(clippy::too_many_arguments)]
    fn fill_caches(
        &self,
        slots: &mut [Slot],
        stale: &[usize],
        worker_panics: &mut u64,
        metrics: Option<&EngineMetrics>,
        trace: Option<&TraceSink>,
        parent: SpanId,
        pool: Option<&Arc<crate::WorkerPool>>,
        threads: usize,
    ) -> Duration {
        debug_assert!(
            stale
                .iter()
                .all(|&i| matches!(slots[i].cached, Cached::Stale)),
            "stale list names a non-stale slot"
        );
        debug_assert_eq!(
            slots
                .iter()
                .filter(|s| matches!(s.cached, Cached::Stale))
                .count(),
            stale.len(),
            "a stale slot is missing from the stale list"
        );
        if stale.is_empty() {
            return Duration::ZERO;
        }
        if let Some(m) = metrics {
            m.cache_recomputes.add(stale.len() as u64);
        }
        let Some(pool) = pool.filter(|_| threads > 1 && stale.len() >= 64) else {
            let start = Instant::now();
            for &i in stale {
                slots[i].cached =
                    self.compute_growth(&slots[i].cluster, false, metrics, trace, parent);
            }
            return start.elapsed();
        };

        // Parallel: chunk the stale indices into jobs on the persistent
        // worker pool. Pool jobs are `'static`, so each job captures a
        // cheap engine clone (Arc'd seeds/tree) and clones of the chunk's
        // clusters — a price paid only on large refills (in steady state
        // the stale list holds one cluster and runs serially above).
        // Results are deterministic because each cluster's tie-break
        // stream depends only on its range, not on scheduling.
        let chunk_size = stale.len().div_ceil(threads);
        type ChunkOut = (Vec<(usize, Option<Cached>)>, Duration);
        let collected: Arc<std::sync::Mutex<Vec<ChunkOut>>> =
            Arc::new(std::sync::Mutex::new(Vec::new()));
        let jobs: Vec<Box<dyn FnOnce() + Send + 'static>> = stale
            .chunks(chunk_size)
            .map(|chunk| {
                let engine = self.clone();
                let work: Vec<(usize, Cluster)> = chunk
                    .iter()
                    .map(|&i| (i, slots[i].cluster.clone()))
                    .collect();
                let metrics = metrics.cloned();
                let collected = Arc::clone(&collected);
                Box::new(move || {
                    let start = Instant::now();
                    let trace = engine.config.trace.clone();
                    let out: Vec<(usize, Option<Cached>)> = work
                        .iter()
                        .map(|(i, cluster)| {
                            let cached = catch_unwind(AssertUnwindSafe(|| {
                                engine.compute_growth(
                                    cluster,
                                    true,
                                    metrics.as_ref(),
                                    trace.as_deref(),
                                    parent,
                                )
                            }))
                            .ok();
                            (*i, cached)
                        })
                        .collect();
                    collected.lock().unwrap().push((out, start.elapsed()));
                }) as Box<dyn FnOnce() + Send + 'static>
            })
            .collect();
        pool.run_batch(jobs);

        let mut cpu = Duration::ZERO;
        // Indices that produced no result panicked — either per-cluster
        // (recorded as `None`) or a whole job escaping to the pool
        // boundary (its chunk never reports). Both re-derive serially.
        let mut failed: Vec<usize> = Vec::new();
        let mut seen = vec![false; stale.len()];
        let position: HashMap<usize, usize> = stale
            .iter()
            .enumerate()
            .map(|(pos, &i)| (i, pos))
            .collect();
        for (out, elapsed) in collected.lock().unwrap().drain(..) {
            cpu += elapsed;
            for (i, cached) in out {
                seen[position[&i]] = true;
                match cached {
                    Some(cached) => slots[i].cached = cached,
                    None => failed.push(i),
                }
            }
        }
        failed.extend(
            stale
                .iter()
                .enumerate()
                .filter(|&(pos, _)| !seen[pos])
                .map(|(_, &i)| i),
        );
        // Serial failover keeps the stale-list order so repeated runs
        // retry panicked clusters in a deterministic order. A second
        // panic marks the cluster exhausted so the run proceeds without
        // it.
        failed.sort_unstable_by_key(|i| position[i]);
        for i in failed {
            *worker_panics += 1;
            let start = Instant::now();
            slots[i].cached = catch_unwind(AssertUnwindSafe(|| {
                self.compute_growth(&slots[i].cluster, false, metrics, trace, parent)
            }))
            .unwrap_or(Cached::Exhausted);
            cpu += start.elapsed();
        }
        cpu
    }

    /// An achievable upper bound on the distance from `range` to its
    /// nearest outside seed, from the sorted seed list's numeric
    /// neighbours: every range member lies numerically within
    /// `[min_address, max_address]`, so seeds below the interval's start or
    /// above its end are guaranteed outside the range and their distances
    /// are valid bounds. Checking a few neighbours on each side tightens
    /// the branch-and-bound start enough to collapse the candidate
    /// search's exploration phase; the bound is pruning-only, so results
    /// (and tie-break draws) are byte-identical to the unbounded search.
    fn distance_hint(&self, range: &Range) -> u32 {
        // Neighbours examined per side: distance probes are O(1), so a few
        // extra probes are free compared to even one saved tree descent.
        const PROBES: usize = 8;
        // Evenly-spaced samples from the seeds numerically *inside* the
        // range's [min, max] interval. Wide (grown) ranges cover many
        // seeds that are not members; any such seed also yields an
        // achievable bound, usually far tighter than the interval's edge
        // neighbours.
        const INTERIOR_PROBES: usize = 16;
        let mut bound = (sixgen_addr::NYBBLE_COUNT + 1) as u32;
        let lo = self.shared.seeds.partition_point(|&s| s < range.min_address());
        for &seed in &self.shared.seeds[lo.saturating_sub(PROBES)..lo] {
            bound = bound.min(range.distance(seed));
        }
        let hi = self.shared.seeds.partition_point(|&s| s <= range.max_address());
        for &seed in &self.shared.seeds[hi..(hi + PROBES).min(self.shared.seeds.len())] {
            bound = bound.min(range.distance(seed));
        }
        let step = ((hi - lo) / INTERIOR_PROBES).max(1);
        for &seed in self.shared.seeds[lo..hi].iter().step_by(step) {
            if !range.contains(seed) {
                bound = bound.min(range.distance(seed));
            }
        }
        bound
    }

    /// Computes one cluster's best growth with a deterministic per-cluster
    /// tie-break stream derived from the run seed and the cluster's range.
    ///
    /// With metrics enabled, records the candidate-set size and distinct
    /// ranges evaluated (deterministic — histogram totals are identical
    /// regardless of worker scheduling, since atomic adds commute) and the
    /// evaluation's wall-clock latency (timing section). With tracing
    /// enabled, records one `growth_eval` span per cluster per round,
    /// carrying the cluster's identity (low 64 bits of its range minimum),
    /// candidate-set size, ranges evaluated, and the chosen growth's
    /// density (parts per million) and size.
    fn compute_growth(
        &self,
        cluster: &Cluster,
        parallel_worker: bool,
        metrics: Option<&EngineMetrics>,
        trace: Option<&TraceSink>,
        parent: SpanId,
    ) -> Cached {
        if let Some(injection) = &self.config.panic_injection {
            if cluster.range.size() == injection.range_size
                && (parallel_worker || !injection.parallel_only)
            {
                panic!("injected growth panic (test hook)");
            }
        }
        let started = Instant::now();
        let mut span = maybe_span(trace, "engine", "growth_eval", parent);
        span.attr("cluster", cluster.range.min_address().bits() as u64);
        let mut state = splitmix64_seed(
            self.config.rng_seed,
            cluster.range.min_address().bits(),
            cluster.range.size(),
        );
        let tie_break = move || {
            state = splitmix64(state);
            state
        };
        let eval = evaluate_growth_bounded(
            cluster,
            &self.shared.tree,
            self.config.mode,
            self.distance_hint(&cluster.range),
            tie_break,
        );
        span.attr("candidates", eval.candidates);
        span.attr("ranges_evaluated", eval.ranges_evaluated);
        if let Some(growth) = &eval.growth {
            span.attr(
                "density_ppm",
                (growth.seed_count as f64 / growth.range_size as f64 * 1e6) as u64,
            );
            span.attr(
                "range_size",
                u64::try_from(growth.range_size).unwrap_or(u64::MAX),
            );
        }
        if let Some(m) = metrics {
            m.candidate_set_size.record(eval.candidates);
            m.ranges_evaluated.record(eval.ranges_evaluated);
            m.growth_eval.record_duration(started.elapsed());
        }
        match eval.growth {
            Some(growth) => Cached::Ready(growth),
            None => Cached::Exhausted,
        }
    }
}

/// The result of one [`Session::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The round committed a growth; the session is at a round boundary
    /// and can step again, checkpoint, or be cancelled.
    Grew,
    /// The selected growth does not fit the remaining budget and
    /// deferred exhaustion is enabled
    /// ([`Session::set_defer_exhaustion`]): instead of final-sampling,
    /// the session parks at a round boundary so a driver can top the
    /// budget up ([`Session::add_budget`]) and step again. The paused
    /// state is pure round-boundary state — the next step re-runs
    /// selection from scratch — so parking is invisible to checkpoints
    /// and to determinism. Only the sharded driver uses this; plain
    /// [`run`](Session::run) never sees it.
    NeedsBudget,
    /// A stopping rule fired; call [`Session::finish`] for the outcome.
    /// Stepping a finished session returns the same value again.
    Done(Termination),
}

/// Why a checkpoint could not be resumed under a given [`Config`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeError {
    /// The config disagrees with the checkpoint on a fingerprint field
    /// (`mode` or `rng_seed`) — resuming would break the
    /// byte-identical-continuation guarantee.
    ConfigMismatch {
        /// The disagreeing [`Config`] field.
        field: &'static str,
    },
    /// The config's budget is below the number of addresses the
    /// checkpointed run already generated. Budgets can be topped *up* on
    /// resume, never shrunk below what was spent.
    BudgetBelowUsed {
        /// Addresses already generated.
        used: u64,
        /// The offered budget.
        budget: u64,
    },
    /// The checkpoint violates a structural invariant (possible when it
    /// was constructed in memory rather than decoded — decoding performs
    /// these checks itself).
    Corrupt(&'static str),
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::ConfigMismatch { field } => {
                write!(f, "config `{field}` does not match the checkpoint")
            }
            ResumeError::BudgetBelowUsed { used, budget } => {
                write!(
                    f,
                    "budget {budget} is below the {used} addresses already generated"
                )
            }
            ResumeError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
        }
    }
}

impl std::error::Error for ResumeError {}

/// A 6Gen run in progress: Algorithm 1's main loop, exposed one round at
/// a time.
///
/// [`SixGen::run`] is now a thin wrapper over this type. Driving the loop
/// from outside the engine is what makes the run *interruptible without
/// losing determinism*: between any two [`step`](Session::step) calls the
/// session sits at a **round boundary** — a state that is a pure function
/// of the seeds, the [`Config`], and the number of rounds stepped — and at
/// a boundary it can be
///
/// * **checkpointed** ([`checkpoint`](Session::checkpoint)): snapshot
///   every piece of round-to-round state (clusters, cached growths, the
///   run RNG's position, budget membership and order, cumulative stats)
///   into an [`EngineCheckpoint`];
/// * **resumed** ([`resume`](Session::resume)): rebuild a session from a
///   checkpoint in a fresh process and continue producing **byte-identical
///   targets** to the run that was interrupted — the cached growths are
///   restored rather than recomputed, so even the deterministic metrics
///   section is identical to an uninterrupted run's;
/// * **cancelled** (a [`CancelToken`](crate::CancelToken) in
///   [`Config::cancel`]): polled once per round next to the deadline
///   check, stopping with [`Termination::Cancelled`] and a well-formed
///   partial outcome.
///
/// The immutable inputs (seed list, nybble tree, config) stay in the
/// wrapped [`SixGen`]; everything here is the loop state that Algorithm 1
/// mutates per round.
#[derive(Debug)]
pub struct Session {
    engine: SixGen,
    /// Cluster slots in seed order. Slots are never added after start and
    /// subsumed ones stay in place as tombstones (see
    /// [`IncrementalState`]), so a slot index names one cluster for the
    /// whole session.
    slots: Vec<Slot>,
    /// Packed range masks, parallel to `slots`: the subsumption test
    /// reads four words per candidate instead of re-deriving 32 set
    /// comparisons from the full `Slot`.
    packed: Vec<PackedMasks>,
    /// Incremental cache invalidation (§5.5): exactly which slots are
    /// stale, instead of rescanning every slot each round. After
    /// initialization that is everyone; after each commit, only the
    /// grown cluster.
    stale_indices: Vec<usize>,
    /// Liveness, the select tree over the cached keys, and the
    /// min-address subsumption index (see [`IncrementalState`]).
    incremental: IncrementalState,
    rng: StdRng,
    budget: BudgetTracker,
    rounds: u64,
    growths: u64,
    subsumed: u64,
    worker_panics: u64,
    cpu_time: Duration,
    /// Wall time inherited from checkpointed segments (zero for a fresh
    /// session); `finish` reports `prior_wall + started.elapsed()`.
    prior_wall: Duration,
    started: Instant,
    /// Per-segment deadline: a resumed session gets a fresh time budget
    /// from its own config (deadlines bound *process* wall time; the
    /// cumulative figure lives in [`RunStats::wall_time`]).
    deadline: Option<Instant>,
    metrics: Option<EngineMetrics>,
    /// Id of this segment's root `engine/run` span (recorded at session
    /// start; per-round phase spans parent under it).
    root: SpanId,
    /// Worker pool for parallel cache fills: [`Config::pool`] if set,
    /// else a private pool created at start when `threads > 1`.
    pool: Option<Arc<crate::WorkerPool>>,
    /// [`Config::threads`] resolved once at start or resume, so rounds
    /// never ask the OS for the CPU count.
    threads: usize,
    /// When `true`, an over-budget selected growth parks the session
    /// with [`Step::NeedsBudget`] instead of final-sampling (see
    /// [`Session::set_defer_exhaustion`]).
    defer_exhaustion: bool,
    done: Option<Termination>,
}

impl Session {
    /// Initializes a session: one singleton cluster per seed, each seed
    /// charged against the budget (InitClusters). Sessions that cannot
    /// run at all ([`Termination::NoSeeds`],
    /// [`Termination::ExhaustedAtInit`]) are born finished.
    pub fn start(engine: SixGen) -> Session {
        let started = Instant::now();
        let deadline = engine.config.time_limit.map(|limit| started + limit);
        let metrics = engine.config.metrics.as_deref().map(EngineMetrics::new);
        let root = {
            let trace = engine.config.trace.as_deref();
            let mut root = maybe_span(trace, "engine", "run", engine.config.trace_parent);
            root.attr("seeds", engine.shared.seeds.len() as u64);
            root.attr("budget", engine.config.budget);
            root.id()
        };
        let threads = crate::pool::resolve_threads(engine.config.threads);
        let pool = Self::session_pool(&engine, threads);
        let mut budget = BudgetTracker::new(engine.config.budget);
        let mut slots: Vec<Slot> = Vec::with_capacity(engine.shared.seeds.len());
        let mut done = None;
        if engine.shared.seeds.is_empty() {
            done = Some(Termination::NoSeeds);
        } else {
            // InitClusters: one singleton cluster per seed; each seed
            // address is itself a generated target and counts against the
            // budget.
            for &seed in &engine.shared.seeds {
                if !budget.add_address(seed) && budget.is_exhausted() {
                    // Budget smaller than the seed count: emit what fit.
                    done = Some(Termination::ExhaustedAtInit);
                    break;
                }
                slots.push(Slot {
                    cluster: Cluster::singleton(seed),
                    cached: Cached::Stale,
                });
            }
        }
        let stale_indices: Vec<usize> = (0..slots.len()).collect();
        let packed = slots.iter().map(|s| s.cluster.range.packed_masks()).collect();
        let incremental = IncrementalState::build(&slots);
        let session = Session {
            rng: StdRng::seed_from_u64(engine.config.rng_seed),
            engine,
            slots,
            packed,
            stale_indices,
            incremental,
            budget,
            rounds: 0,
            growths: 0,
            subsumed: 0,
            worker_panics: 0,
            cpu_time: Duration::ZERO,
            prior_wall: Duration::ZERO,
            started,
            deadline,
            metrics,
            root,
            pool,
            threads,
            defer_exhaustion: false,
            done,
        };
        session.publish_session_start();
        // Sessions born finished (no seeds, budget below the seed count)
        // never reach `stop`; emit their terminal event here.
        if let Some(termination) = session.done {
            session.publish_session_end(termination);
        }
        session
    }

    /// The pool used for parallel cache fills: the configured shared
    /// pool, or a private one when `threads > 1` asks for parallelism
    /// without providing a pool. Serial configs get none.
    fn session_pool(engine: &SixGen, threads: usize) -> Option<Arc<crate::WorkerPool>> {
        if let Some(pool) = &engine.config.pool {
            return Some(Arc::clone(pool));
        }
        (threads > 1).then(|| Arc::new(crate::WorkerPool::new(threads)))
    }

    /// Rebuilds a session from a checkpoint, continuing the interrupted
    /// run byte-identically.
    ///
    /// `config` must agree with the checkpoint on the determinism
    /// fingerprint (`mode`, `rng_seed`); `budget` may be
    /// *raised* to top up a finished-or-nearly-finished run (never lowered
    /// below what was already generated); `threads`, `metrics`, `trace`,
    /// `time_limit`, and `cancel` are free — none of them affect the
    /// target stream, and the deadline is deliberately per-segment (a
    /// fresh process gets a fresh time budget).
    pub fn resume(checkpoint: EngineCheckpoint, config: Config) -> Result<Session, ResumeError> {
        if config.mode != checkpoint.mode {
            return Err(ResumeError::ConfigMismatch { field: "mode" });
        }
        if config.rng_seed != checkpoint.rng_seed {
            return Err(ResumeError::ConfigMismatch { field: "rng_seed" });
        }
        // A decoded checkpoint has already passed these checks; re-run
        // them so hand-constructed checkpoints get the same scrutiny.
        checkpoint.validate().map_err(|e| match e {
            CheckpointError::Invalid(what) => ResumeError::Corrupt(what),
            CheckpointError::StaleIndexOutOfBounds { .. } => {
                ResumeError::Corrupt("stale index out of bounds")
            }
            CheckpointError::DuplicateStaleIndex { .. } => {
                ResumeError::Corrupt("duplicate stale index")
            }
            _ => ResumeError::Corrupt("structural validation failed"),
        })?;
        let used = checkpoint.generated.len() as u64;
        if config.budget < used {
            return Err(ResumeError::BudgetBelowUsed {
                used,
                budget: config.budget,
            });
        }
        let budget = BudgetTracker::restore(config.budget, checkpoint.generated)
            .ok_or(ResumeError::Corrupt("duplicate generated address"))?;
        let started = Instant::now();
        let deadline = config.time_limit.map(|limit| started + limit);
        let metrics = config.metrics.as_deref().map(EngineMetrics::new);
        // The tree is a pure function of the seed list; rebuild it instead
        // of shipping it in the checkpoint. The checkpointed list is
        // already sorted and deduplicated, so `new` is a no-op reorder.
        let engine = SixGen::new(checkpoint.seeds, config);
        let root = {
            let trace = engine.config.trace.as_deref();
            let mut root = maybe_span(trace, "engine", "run", engine.config.trace_parent);
            root.attr("seeds", engine.shared.seeds.len() as u64);
            root.attr("budget", engine.config.budget);
            root.attr("resumed_at_round", checkpoint.rounds);
            root.id()
        };
        let threads = crate::pool::resolve_threads(engine.config.threads);
        let pool = Self::session_pool(&engine, threads);
        let slots: Vec<Slot> = checkpoint
            .slots
            .into_iter()
            .map(|s| Slot {
                cluster: Cluster {
                    range: s.range,
                    seed_count: s.seed_count,
                },
                cached: match s.cached {
                    CachedCheckpoint::Stale => Cached::Stale,
                    CachedCheckpoint::Exhausted => Cached::Exhausted,
                    CachedCheckpoint::Ready {
                        range,
                        seed_count,
                        range_size,
                    } => Cached::Ready(Growth {
                        range,
                        seed_count,
                        range_size,
                    }),
                },
            })
            .collect();
        // Packed masks, select keys and the min-address index are caches
        // over the slots; at a round boundary they are exactly what
        // `packed_masks` / `SelectKey::of` / `min_address` derive, so they
        // are rebuilt rather than serialized. A checkpoint holds only
        // live, compacted slots, so the rebuild is a pure function of the
        // slot list.
        let packed = slots.iter().map(|s| s.cluster.range.packed_masks()).collect();
        let incremental = IncrementalState::build(&slots);
        let stale_indices = checkpoint
            .stale
            .iter()
            .map(|&i| usize::try_from(i))
            .collect::<Result<Vec<usize>, _>>()
            .map_err(|_| ResumeError::Corrupt("stale index out of bounds"))?;
        let session = Session {
            rng: StdRng::from_state(checkpoint.rng_state),
            engine,
            slots,
            packed,
            stale_indices,
            incremental,
            budget,
            rounds: checkpoint.rounds,
            growths: checkpoint.growths,
            subsumed: checkpoint.subsumed,
            worker_panics: checkpoint.worker_panics,
            cpu_time: checkpoint.cpu_time,
            prior_wall: checkpoint.wall_time,
            started,
            deadline,
            metrics,
            root,
            pool,
            threads,
            defer_exhaustion: false,
            done: None,
        };
        // A resumed session re-announces itself with its checkpointed
        // round counter, so live observers see resumption as a restart
        // rather than a fresh shard.
        session.publish_session_start();
        Ok(session)
    }

    /// Snapshots the session's complete round-boundary state.
    ///
    /// Call between steps (the session is always at a boundary there).
    /// The snapshot is independent of the live session — resuming it does
    /// not require this process to survive.
    ///
    /// Termination is deliberately **not** part of the snapshot: a
    /// checkpoint of an already-finished session resumes as a live one
    /// and re-derives the stopping rule in one extra round. Checkpoint at
    /// round boundaries of in-progress runs (as
    /// [`run_with`](Session::run_with) hooks naturally do).
    pub fn checkpoint(&self) -> EngineCheckpoint {
        // Subsumed slots are tombstoned in place; the checkpoint
        // live-compacts them away and remaps stale indices to live
        // *ranks* (live slots strictly before the index), so the file
        // holds only live clusters and a resume rebuilds the structures
        // from them.
        let live = &self.incremental.live;
        let mut rank = vec![0u64; self.slots.len()];
        let mut live_before = 0u64;
        for (i, r) in rank.iter_mut().enumerate() {
            *r = live_before;
            live_before += u64::from(live[i]);
        }
        let stale: Vec<u64> = self
            .stale_indices
            .iter()
            .map(|&i| {
                debug_assert!(live[i], "a dead slot can never be stale");
                rank[i]
            })
            .collect();
        EngineCheckpoint {
            mode: self.engine.config.mode,
            rng_seed: self.engine.config.rng_seed,
            budget: self.budget.budget(),
            rng_state: self.rng.state(),
            rounds: self.rounds,
            growths: self.growths,
            subsumed: self.subsumed,
            worker_panics: self.worker_panics,
            cpu_time: self.cpu_time,
            wall_time: self.prior_wall + self.started.elapsed(),
            seeds: self.engine.shared.seeds.clone(),
            slots: self
                .slots
                .iter()
                .enumerate()
                .filter(|&(i, _)| live[i])
                .map(|(_, s)| SlotCheckpoint {
                    range: s.cluster.range.clone(),
                    seed_count: s.cluster.seed_count,
                    cached: match &s.cached {
                        Cached::Stale => CachedCheckpoint::Stale,
                        Cached::Exhausted => CachedCheckpoint::Exhausted,
                        Cached::Ready(growth) => CachedCheckpoint::Ready {
                            range: growth.range.clone(),
                            seed_count: growth.seed_count,
                            range_size: growth.range_size,
                        },
                    },
                })
                .collect(),
            stale,
            generated: self.budget.generated_in_order().to_vec(),
        }
    }

    /// Runs one round of Algorithm 1: refresh stale growth caches, check
    /// the deadline and cancel token, select the globally best growth,
    /// and commit it (or stop).
    ///
    /// On [`Step::Grew`] the session is back at a round boundary. On
    /// [`Step::Done`] the session is finished; further calls return the
    /// same termination without doing work.
    pub fn step(&mut self) -> Step {
        if let Some(termination) = self.done {
            return Step::Done(termination);
        }
        self.rounds += 1;
        let total_seeds = self.engine.shared.seeds.len() as u64;
        let trace = self.engine.config.trace.clone();
        let trace = trace.as_deref();
        // Per-phase durations for the round's progress event, captured
        // from the same `Instant` reads the phase timers already perform.
        let mut phase_ns = sixgen_obs::PhaseNanos::default();

        let phase_started = Instant::now();
        let stale_now = std::mem::take(&mut self.stale_indices);
        {
            let mut span = maybe_span(trace, "engine", "cache_fill", self.root);
            self.cpu_time += self.engine.fill_caches(
                &mut self.slots,
                &stale_now,
                &mut self.worker_panics,
                self.metrics.as_ref(),
                trace,
                span.id(),
                self.pool.as_ref(),
                self.threads,
            );
            // Event-driven refill propagation: the freshly computed keys
            // are pushed into the select tree here, at the only point
            // they change, instead of rebuilding anything per round.
            for &i in &stale_now {
                self.incremental
                    .select
                    .set(i, SelectKey::of(&self.slots[i].cached));
            }
            span.attr("clusters", self.live_cluster_count() as u64);
        }
        let elapsed = phase_started.elapsed();
        phase_ns.cache_fill = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        if let Some(m) = &self.metrics {
            m.cache_fill.record(elapsed);
        }
        // Injected panics write clusters off as exhausted, which no
        // reference evaluation reproduces.
        #[cfg(test)]
        if self.engine.config.panic_injection.is_none() {
            for &i in &stale_now {
                self.engine.check_refill(&self.slots[i]);
            }
        }

        // Deadline and cancellation checks (once per round, after the
        // cache refresh): a run cut short here is still a valid partial
        // result because every seed has been in some cluster since
        // initialization, and the session remains at a round boundary so
        // a checkpoint taken now resumes cleanly.
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return self.stop(Termination::Deadline);
            }
        }
        if let Some(token) = &self.engine.config.cancel {
            if token.is_cancelled() {
                return self.stop(Termination::Cancelled);
            }
        }

        // Select the globally best cached growth: maximum density, then
        // smallest range, then uniformly at random among exact ties
        // (reservoir over scan order keeps this deterministic).
        #[cfg(test)]
        let scan = self.scan_select();
        let rng_at_boundary = self.rng.state();
        let phase_started = Instant::now();
        let mut select_span = maybe_span(trace, "engine", "select", self.root);
        select_span.attr("clusters", self.live_cluster_count() as u64);
        let rng = &mut self.rng;
        // Tournament-tree selection: the scan's winner and tie-break
        // draw stream in O(eras · log N + draws) instead of
        // O(clusters + draws). See `SelectTree::select`.
        let best_index = self.incremental.select.select(|| rng.gen::<u64>());
        #[cfg(test)]
        assert_eq!(
            (best_index, self.rng.state()),
            scan,
            "select tree and reference scan diverged in round {}",
            self.rounds
        );
        drop(select_span);
        let elapsed = phase_started.elapsed();
        phase_ns.select = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        if let Some(m) = &self.metrics {
            m.select.record(elapsed);
        }
        let Some(grown_index) = best_index else {
            // Every cluster contains all seeds: nothing can grow.
            return self.stop(Termination::AllSeedsClustered);
        };
        let Cached::Ready(growth) = &self.slots[grown_index].cached else {
            unreachable!("selected slot is Ready");
        };

        // Budget check first (Algorithm 1 computes the cost before the
        // all-seeds test): an over-budget growth triggers the exact
        // final-sampling path even if it would cluster all seeds.
        if self.budget.cost_if_fits(&growth.range).is_none() {
            if self.defer_exhaustion {
                // Park instead of final-sampling: the sharded driver may
                // re-lease returned pool budget into this session. Roll
                // back the round counter and the select tie-break draws
                // so the parked step is invisible: the session sits at
                // the same round boundary the checkpoint captures, and
                // the eventual non-parking step replays the identical
                // draw stream whether it runs in this process or after
                // a resume.
                self.rng = StdRng::from_state(rng_at_boundary);
                self.rounds -= 1;
                return Step::NeedsBudget;
            }
            let range = growth.range.clone();
            let charge = self.budget.charge(&range, &mut self.rng);
            debug_assert!(matches!(charge, Charge::Exhausted { .. }));
            return self.stop(Termination::BudgetExhausted);
        }
        if growth.seed_count == total_seeds {
            // The growth would merge all seeds into one cluster; per
            // Algorithm 1 it is *not* committed.
            return self.stop(Termination::AllSeedsClustered);
        }

        // Commit: charge the budget, adopt the grown range, invalidate
        // this cluster's cache, and delete clusters subsumed by the new
        // range (§5.4).
        let phase_started = Instant::now();
        let mut commit_span = maybe_span(trace, "engine", "commit", self.root);
        let growth = growth.clone();
        commit_span.attr("seed_count", growth.seed_count);
        commit_span.attr(
            "range_size",
            u64::try_from(growth.range_size).unwrap_or(u64::MAX),
        );
        let charge = self.budget.charge(&growth.range, &mut self.rng);
        debug_assert!(matches!(charge, Charge::Committed { .. }));
        self.growths += 1;
        let old_min = self.slots[grown_index].cluster.range.min_address();
        self.slots[grown_index] = Slot {
            cluster: Cluster {
                range: growth.range,
                seed_count: growth.seed_count,
            },
            cached: Cached::Stale,
        };
        self.packed[grown_index] = self.slots[grown_index].cluster.range.packed_masks();
        let new_packed = self.packed[grown_index];
        let inc = &mut self.incremental;
        inc.select.set(grown_index, SelectKey::NONE);
        let new_min = self.slots[grown_index].cluster.range.min_address();
        if new_min != old_min {
            inc.remove_min(old_min, grown_index);
            inc.add_min(new_min, grown_index);
        }
        drop(commit_span);
        let elapsed = phase_started.elapsed();
        phase_ns.commit = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        if let Some(m) = &self.metrics {
            m.commit.record(elapsed);
        }
        let phase_started = Instant::now();
        let mut subsume_span = maybe_span(trace, "engine", "subsume", self.root);
        #[cfg(test)]
        let scan_live = self.scan_subsume(grown_index, &new_packed);
        // Min-address candidate enumeration: every cluster subsumed by
        // the new range has its minimum address inside it, so the range
        // query over the distinct live minima yields a complete candidate
        // set — typically the handful of clusters actually subsumed plus
        // the grown cluster itself — and each candidate is verified with
        // the exact subset test. Survivors are untouched, so the round
        // costs O(candidates), not O(clusters).
        let inc = &mut self.incremental;
        let new_range = self.slots[grown_index].cluster.range.clone();
        let mut candidates: Vec<u32> = Vec::new();
        let slots_by_min = &inc.slots_by_min;
        inc.min_tree.for_each_in_range(&new_range, |min| {
            if let Some(entries) = slots_by_min.get(&min.bits()) {
                candidates.extend_from_slice(entries);
            }
        });
        candidates.sort_unstable();
        let mut killed = 0u64;
        for &c in &candidates {
            let i = c as usize;
            if i == grown_index || !self.packed[i].is_subset(&new_packed) {
                continue;
            }
            debug_assert!(inc.live[i], "the min index holds only live slots");
            // Tombstone in place: the slot keeps its position so the
            // live-slot order (and with it the select draw stream) is
            // the one a stable compaction would leave.
            inc.live[i] = false;
            inc.live_count -= 1;
            inc.select.set(i, SelectKey::NONE);
            // Dead slots must not read as stale — `fill_caches` asserts
            // the stale list is exact.
            self.slots[i].cached = Cached::Exhausted;
            let min = self.slots[i].cluster.range.min_address();
            inc.remove_min(min, i);
            killed += 1;
        }
        #[cfg(test)]
        assert_eq!(
            self.incremental.live, scan_live,
            "min-address subsumption and a full scan diverged in round {}",
            self.rounds
        );
        // The grown cluster is the round's only new stale cache. The
        // membership guard is defensive: `step` drains the stale list at
        // the top of every round, so the push can never duplicate today,
        // but a duplicated entry would recompute a growth twice and trip
        // the exactness asserts in `fill_caches`.
        if !self.stale_indices.contains(&grown_index) {
            self.stale_indices.push(grown_index);
        }
        self.subsumed += killed;
        subsume_span.attr("subsumed", killed);
        drop(subsume_span);
        let elapsed = phase_started.elapsed();
        phase_ns.subsume = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        if let Some(m) = &self.metrics {
            m.subsume.record(elapsed);
        }
        if let Some(bus) = self.events() {
            bus.publish(sixgen_obs::ProgressEvent::Round {
                shard: self.engine.config.shard_id,
                round: self.rounds,
                live_clusters: self.live_cluster_count() as u64,
                growths: self.growths,
                budget_used: self.budget.used(),
                budget: self.budget.budget(),
                phase_ns,
            });
        }
        Step::Grew
    }

    fn stop(&mut self, termination: Termination) -> Step {
        self.done = Some(termination);
        self.publish_session_end(termination);
        Step::Done(termination)
    }

    /// The progress-event bus, when configured *and* enabled. All
    /// emission sites gate event construction behind this, so a disabled
    /// bus costs one relaxed atomic load and an absent one a branch.
    fn events(&self) -> Option<&sixgen_obs::EventBus> {
        self.engine
            .config
            .events
            .as_deref()
            .filter(|bus| bus.is_enabled())
    }

    fn publish_session_start(&self) {
        if let Some(bus) = self.events() {
            bus.publish(sixgen_obs::ProgressEvent::SessionStart {
                shard: self.engine.config.shard_id,
                seeds: self.engine.shared.seeds.len() as u64,
                budget: self.budget.budget(),
                round: self.rounds,
            });
        }
    }

    fn publish_session_end(&self, termination: Termination) {
        if let Some(bus) = self.events() {
            bus.publish(sixgen_obs::ProgressEvent::SessionEnd {
                shard: self.engine.config.shard_id,
                termination: termination.label(),
                rounds: self.rounds,
                growths: self.growths,
                budget_used: self.budget.used(),
                budget: self.budget.budget(),
            });
        }
    }

    /// Steps to termination. Equivalent to `run_with(|_| {})`.
    pub fn run(self) -> Outcome {
        self.run_with(|_| {})
    }

    /// Steps to termination, invoking `after_round` at every round
    /// boundary (after each committed growth) — the hook where callers
    /// checkpoint, report progress, or decide to cancel.
    pub fn run_with(mut self, mut after_round: impl FnMut(&mut Session)) -> Outcome {
        loop {
            match self.step() {
                Step::Grew => after_round(&mut self),
                Step::NeedsBudget => {
                    unreachable!(
                        "deferred exhaustion parked under run(); drive the session manually"
                    )
                }
                Step::Done(_) => return self.finish(),
            }
        }
    }

    /// Consumes the finished session into its [`Outcome`], exporting the
    /// final [`RunStats`] through the metrics registry (only here: a
    /// session that dies before finishing — crash, drop — exports
    /// nothing, so a registry shared across an interrupt/resume cycle
    /// counts the logical run exactly once).
    ///
    /// # Panics
    ///
    /// If the session has not terminated (no [`Step::Done`] yet).
    pub fn finish(mut self) -> Outcome {
        let termination = self
            .done
            .expect("finish() requires a terminated session; step() until Step::Done");
        let live = std::mem::take(&mut self.incremental.live);
        let clusters = self
            .slots
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| live[i])
            .map(|(_, s)| ClusterInfo {
                range_size: s.cluster.range.size(),
                seed_count: s.cluster.seed_count,
                range: s.cluster.range,
            })
            .collect();
        let stats = RunStats {
            rounds: self.rounds,
            growths: self.growths,
            subsumed: self.subsumed,
            budget_used: self.budget.used(),
            budget: self.budget.budget(),
            seed_count: self.engine.shared.seeds.len() as u64,
            wall_time: self.prior_wall + self.started.elapsed(),
            cpu_time: self.cpu_time,
            worker_panics: self.worker_panics,
            termination,
        };
        if let Some(m) = &self.metrics {
            m.export_stats(&stats);
        }
        Outcome {
            targets: TargetSet::from_ordered(self.budget.into_targets()),
            clusters,
            stats,
        }
    }

    /// The termination, once a stopping rule has fired (`None` while the
    /// session can still step).
    pub fn termination(&self) -> Option<Termination> {
        self.done
    }

    /// Main-loop rounds started, cumulative across resumed segments.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Growths committed, cumulative across resumed segments.
    pub fn growths(&self) -> u64 {
        self.growths
    }

    /// Unique addresses generated so far.
    pub fn budget_used(&self) -> u64 {
        self.budget.used()
    }

    /// The session's current budget (the initial config budget plus any
    /// [`add_budget`](Session::add_budget) top-ups).
    pub fn budget(&self) -> u64 {
        self.budget.budget()
    }

    /// The unique addresses generated so far, in generation order — an
    /// append-only prefix of the final outcome's target list (addresses
    /// enter it only when a growth commits, so at every round boundary
    /// it is exactly what the finished run will have emitted up to that
    /// point). Read-only: draining it never touches the RNG, budget, or
    /// round state, which is what lets the serve job layer stream
    /// targets per committed round while the run stays byte-identical
    /// to an unobserved one.
    pub fn targets_so_far(&self) -> &[NybbleAddr] {
        self.budget.generated_in_order()
    }

    /// Enables or disables deferred budget exhaustion: when enabled, an
    /// over-budget selected growth returns [`Step::NeedsBudget`] instead
    /// of running the final-sampling path, so a driver coordinating
    /// several sessions against one global budget (the sharded driver)
    /// can lease more budget in and step again. With the flag off
    /// (default), over-budget growths exhaust exactly as Algorithm 1
    /// specifies.
    pub fn set_defer_exhaustion(&mut self, defer: bool) {
        self.defer_exhaustion = defer;
    }

    /// Raises the session's budget by `extra` unique addresses. Used by
    /// the sharded driver to re-lease returned pool budget into a parked
    /// session; the next [`step`](Session::step) re-runs selection with
    /// the new headroom.
    pub fn add_budget(&mut self, extra: u64) {
        self.budget.raise_budget(self.budget.budget() + extra);
    }

    /// Live clusters at the current round boundary.
    pub fn cluster_count(&self) -> usize {
        self.live_cluster_count()
    }

    /// Live clusters: dead slots are tombstoned in place, so the slot
    /// count over-reports.
    fn live_cluster_count(&self) -> usize {
        self.incremental.live_count
    }
}

/// The reference computations behind the round checks that
/// [`Session::step`] runs in this crate's unit-test builds. Each check
/// asserts outside every `catch_unwind`, so a mismatch fails the test
/// instead of being recovered as a growth-worker panic.
#[cfg(test)]
impl SixGen {
    /// Growth check: a refilled cache must equal the unfused reference
    /// evaluation of its cluster, and the fused and unfused evaluations
    /// must draw the same number of words from the cluster's tie-break
    /// stream.
    fn check_refill(&self, slot: &Slot) {
        let cluster = &slot.cluster;
        let seed = splitmix64_seed(
            self.config.rng_seed,
            cluster.range.min_address().bits(),
            cluster.range.size(),
        );
        let evaluate = |fused: bool| {
            let mut state = seed;
            let mut draws = 0u64;
            let tie_break = || {
                draws += 1;
                state = splitmix64(state);
                state
            };
            let eval = if fused {
                let hint = self.distance_hint(&cluster.range);
                evaluate_growth_bounded(
                    cluster,
                    &self.shared.tree,
                    self.config.mode,
                    hint,
                    tie_break,
                )
            } else {
                crate::cluster::evaluate_growth_unfused(
                    cluster,
                    &self.shared.tree,
                    self.config.mode,
                    tie_break,
                )
            };
            (eval, draws)
        };
        let (fused, fused_draws) = evaluate(true);
        let (unfused, unfused_draws) = evaluate(false);
        let cached = match &slot.cached {
            Cached::Ready(growth) => Some(growth),
            Cached::Exhausted => None,
            Cached::Stale => panic!("refill left {} stale", cluster.range),
        };
        assert_eq!(
            cached,
            unfused.growth.as_ref(),
            "cached growth of {} differs from the unfused evaluation",
            cluster.range
        );
        assert_eq!(
            fused, unfused,
            "fused and unfused evaluations of {} differ",
            cluster.range
        );
        assert_eq!(
            fused_draws, unfused_draws,
            "fused and unfused evaluations of {} drew different tie-break counts",
            cluster.range
        );
    }
}

#[cfg(test)]
impl Session {
    /// Selection check: the reference scan over the select tree's keys,
    /// run on a clone of the run RNG. Returns the slot it picks and the
    /// RNG state it leaves, which the tree must reproduce.
    fn scan_select(&self) -> (Option<usize>, [u64; 4]) {
        let mut rng = self.rng.clone();
        let keys = self.incremental.select.keys();
        let index = crate::select::scan_reference(&keys, || rng.gen::<u64>());
        (index, rng.state())
    }

    /// Subsumption check: the liveness a full scan leaves after
    /// `grown` commits, killing every other live slot whose packed
    /// masks are a subset of `new_packed`.
    fn scan_subsume(&self, grown: usize, new_packed: &PackedMasks) -> Vec<bool> {
        (0..self.slots.len())
            .map(|i| {
                self.incremental.live[i] && (i == grown || !self.packed[i].is_subset(new_packed))
            })
            .collect()
    }
}

/// SplitMix64 step: a tiny, high-quality PRNG for tie-break streams.
pub(crate) fn splitmix64(mut state: u64) -> u64 {
    state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes the run seed with a cluster's identity (range minimum and size)
/// into an initial SplitMix64 state.
pub(crate) fn splitmix64_seed(run_seed: u64, min_bits: u128, size: u128) -> u64 {
    let mut state = run_seed;
    for part in [
        min_bits as u64,
        (min_bits >> 64) as u64,
        size as u64,
        (size >> 64) as u64,
    ] {
        state = splitmix64(state ^ part);
    }
    state
}

/// Convenience function: run 6Gen over `seeds` with `config`.
pub fn run(seeds: impl IntoIterator<Item = NybbleAddr>, config: Config) -> Outcome {
    SixGen::new(seeds, config).run()
}

/// Convenience function: run 6Gen separately over pre-grouped seed sets
/// (e.g. per routed prefix, as in all of the paper's experiments) with the
/// same per-group config, returning one outcome per group.
pub fn run_grouped<I>(groups: I, config: &Config) -> Vec<Outcome>
where
    I: IntoIterator,
    I::Item: IntoIterator<Item = NybbleAddr>,
{
    groups
        .into_iter()
        .map(|seeds| SixGen::new(seeds, config.clone()).run())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterMode;
    use sixgen_addr::Range;

    fn addr(s: &str) -> NybbleAddr {
        s.parse().unwrap()
    }

    fn addrs(list: &[&str]) -> Vec<NybbleAddr> {
        list.iter().map(|s| addr(s)).collect()
    }

    fn range(s: &str) -> Range {
        s.parse().unwrap()
    }

    #[test]
    fn empty_seeds() {
        let outcome = SixGen::new([], Config::default()).run();
        assert_eq!(outcome.stats.termination, Termination::NoSeeds);
        assert!(outcome.targets.is_empty());
        assert!(outcome.clusters.is_empty());
    }

    #[test]
    fn single_seed_terminates_immediately() {
        let outcome = SixGen::new([addr("2001:db8::1")], Config::default()).run();
        assert_eq!(outcome.stats.termination, Termination::AllSeedsClustered);
        assert_eq!(outcome.targets.len(), 1);
        assert_eq!(outcome.clusters.len(), 1);
        assert!(outcome.clusters[0].is_singleton());
        assert_eq!(outcome.stats.growths, 0);
    }

    #[test]
    fn duplicate_seeds_deduplicated() {
        let run = SixGen::new(addrs(&["2001:db8::1", "2001:db8::1"]), Config::default());
        assert_eq!(run.seeds().len(), 1);
    }

    #[test]
    fn two_close_seeds_stop_at_all_clustered() {
        // Growing either singleton would cluster all seeds, so per
        // Algorithm 1 the growth is not committed.
        let outcome = SixGen::new(
            addrs(&["2001:db8::1", "2001:db8::2"]),
            Config::with_budget(1000),
        )
        .run();
        assert_eq!(outcome.stats.termination, Termination::AllSeedsClustered);
        assert_eq!(outcome.targets.len(), 2, "only the seeds themselves");
        assert_eq!(outcome.stats.growths, 0);
        assert_eq!(outcome.clusters.len(), 2);
    }

    #[test]
    fn dense_region_is_explored() {
        // Two groups; growing within a group is denser than bridging them.
        let seeds = addrs(&[
            "2001:db8::11",
            "2001:db8::12",
            "2001:db8::13",
            "2001:db8:ffff::1",
            "2001:db8:ffff::2",
        ]);
        let outcome = SixGen::new(seeds, Config::with_budget(100)).run();
        // The ::1? cluster should exist and cover unseen addresses.
        assert!(outcome.targets.contains(addr("2001:db8::1f")));
        assert!(outcome.stats.growths >= 1);
        assert!(outcome
            .clusters
            .iter()
            .any(|c| c.range == range("2001:db8::1?")));
        // Budget respected.
        assert!(outcome.targets.len() as u64 <= 100);
    }

    #[test]
    fn budget_exhausted_exactly() {
        // Two far-apart dense groups: after both grow into /124-style
        // ranges (10 seeds + 22 new = 32 used), the only remaining growth
        // bridges the groups with a range far larger than the leftover
        // budget of 8, forcing the exact final-sampling path.
        let mut seeds = addrs(&[
            "2001:db8::a001",
            "2001:db8::a002",
            "2001:db8::a003",
            "2001:db8::a004",
            "2001:db8::a005",
        ]);
        seeds.extend(addrs(&[
            "2001:db8:b::1",
            "2001:db8:b::2",
            "2001:db8:b::3",
            "2001:db8:b::4",
            "2001:db8:b::5",
        ]));
        let budget = 40;
        let outcome = SixGen::new(seeds, Config::with_budget(budget)).run();
        assert_eq!(outcome.stats.termination, Termination::BudgetExhausted);
        assert_eq!(outcome.targets.len() as u64, budget);
        assert_eq!(outcome.stats.budget_used, budget);
        assert_eq!(outcome.stats.growths, 2);
    }

    #[test]
    fn budget_smaller_than_seed_count() {
        let seeds: Vec<NybbleAddr> = (0..10u32)
            .map(|i| NybbleAddr::from_bits(0x2001 << 112 | i as u128))
            .collect();
        let outcome = SixGen::new(seeds, Config::with_budget(4)).run();
        assert_eq!(outcome.stats.termination, Termination::ExhaustedAtInit);
        assert_eq!(outcome.targets.len(), 4);
    }

    #[test]
    fn targets_are_unique_and_include_seeds_in_ranges() {
        let seeds = addrs(&["2001:db8::10", "2001:db8::11", "2001:db8::12"]);
        let outcome = SixGen::new(seeds.clone(), Config::with_budget(1000)).run();
        let mut sorted: Vec<_> = outcome.targets.iter().collect();
        sorted.sort();
        let len_before = sorted.len();
        sorted.dedup();
        assert_eq!(sorted.len(), len_before, "targets must be unique");
        for s in &seeds {
            assert!(outcome.targets.contains(*s), "seed {s} missing");
        }
    }

    #[test]
    fn subsumed_clusters_are_deleted() {
        // Seeds on a line: growing one cluster to ::1? subsumes the other
        // singletons inside it.
        let seeds = addrs(&[
            "2001:db8::10",
            "2001:db8::11",
            "2001:db8::12",
            "2001:db8::13",
            "2001:db8::14",
            "2001:db8:9999::1", // far-away anchor keeps the run going
            "2001:db8:9999::2",
        ]);
        let outcome = SixGen::new(seeds, Config::with_budget(500)).run();
        assert!(outcome.stats.subsumed >= 3, "subsumed {}", outcome.stats.subsumed);
        // No cluster strictly inside another's range should remain after
        // growth (modulo later growth that did not re-check older pairs).
        let grown: Vec<&ClusterInfo> =
            outcome.clusters.iter().filter(|c| !c.is_singleton()).collect();
        for g in &grown {
            for c in &outcome.clusters {
                if std::ptr::eq(*g, c) {
                    continue;
                }
                assert!(
                    !(c.range.is_subset(&g.range) && c.range != g.range),
                    "cluster {} subsumed by {} but not deleted",
                    c.range,
                    g.range
                );
            }
        }
    }

    #[test]
    fn loose_and_tight_modes_differ() {
        let seeds = addrs(&[
            "2001:db8::1230",
            "2001:db8::1234",
            "2001:db8::1238",
            "2001:db8::9999",
            "2001:db8::999b",
        ]);
        let loose = SixGen::new(
            seeds.clone(),
            Config {
                mode: ClusterMode::Loose,
                budget: 64,
                ..Config::default()
            },
        )
        .run();
        let tight = SixGen::new(
            seeds,
            Config {
                mode: ClusterMode::Tight,
                budget: 64,
                ..Config::default()
            },
        )
        .run();
        // Loose ranges are full wildcards; tight ranges are bounded.
        assert!(loose.clusters.iter().all(|c| c.range.is_loose()));
        assert!(tight.clusters.iter().any(|c| !c.range.is_loose()));
        // Tight mode consumes less budget per growth.
        assert!(tight.stats.budget_used <= loose.stats.budget_used);
    }

    #[test]
    fn runs_are_deterministic() {
        let seeds: Vec<NybbleAddr> = (0..40u32)
            .map(|i| {
                NybbleAddr::from_bits(
                    0x2001_0db8 << 96 | ((i % 7) as u128) << 16 | ((i * 13 % 256) as u128),
                )
            })
            .collect();
        let config = Config::with_budget(300);
        let a = SixGen::new(seeds.clone(), config.clone()).run();
        let b = SixGen::new(seeds, config).run();
        assert_eq!(a.targets.as_slice(), b.targets.as_slice());
        assert_eq!(a.clusters.len(), b.clusters.len());
        assert_eq!(a.stats.growths, b.stats.growths);
    }

    #[test]
    fn parallel_matches_serial() {
        let seeds: Vec<NybbleAddr> = (0..200u32)
            .map(|i| {
                NybbleAddr::from_bits(
                    0x2001_0db8 << 96 | ((i % 5) as u128) << 20 | ((i * 37 % 4096) as u128),
                )
            })
            .collect();
        let serial = SixGen::new(
            seeds.clone(),
            Config {
                threads: 1,
                budget: 2000,
                ..Config::default()
            },
        )
        .run();
        let parallel = SixGen::new(
            seeds,
            Config {
                threads: 4,
                budget: 2000,
                ..Config::default()
            },
        )
        .run();
        assert_eq!(serial.targets.as_slice(), parallel.targets.as_slice());
        assert_eq!(serial.stats.growths, parallel.stats.growths);
    }

    #[test]
    fn deadline_yields_valid_partial_outcome() {
        // A zero time limit fires on the first loop iteration, long before
        // the natural BudgetExhausted/AllSeedsClustered stop.
        let seeds: Vec<NybbleAddr> = (0..50u32)
            .map(|i| NybbleAddr::from_bits(0x2001_0db8 << 96 | (i as u128 * 7919)))
            .collect();
        let outcome = SixGen::new(
            seeds.clone(),
            Config {
                budget: 100_000,
                time_limit: Some(Duration::ZERO),
                ..Config::default()
            },
        )
        .run();
        assert_eq!(outcome.stats.termination, Termination::Deadline);
        // Partial but well-formed: every seed is emitted and covered by a
        // cluster, and the budget is respected.
        for &s in &seeds {
            assert!(outcome.targets.contains(s), "seed {s} missing from targets");
            assert!(
                outcome.clusters.iter().any(|c| c.range.contains(s)),
                "seed {s} not covered by any cluster"
            );
        }
        assert!(outcome.targets.len() as u64 <= outcome.stats.budget);
    }

    #[test]
    fn no_deadline_runs_to_completion() {
        let seeds = addrs(&["2001:db8::1", "2001:db8::2"]);
        let outcome = SixGen::new(
            seeds,
            Config {
                time_limit: Some(Duration::from_secs(3600)),
                ..Config::with_budget(100)
            },
        )
        .run();
        assert_eq!(outcome.stats.termination, Termination::AllSeedsClustered);
    }

    fn parallel_test_seeds() -> Vec<NybbleAddr> {
        (0..70u32)
            .map(|i| {
                NybbleAddr::from_bits(
                    0x2001_0db8 << 96 | ((i % 5) as u128) << 20 | ((i * 37 % 4096) as u128),
                )
            })
            .collect()
    }

    #[test]
    fn injected_worker_panic_recovers_via_serial_failover() {
        // parallel_only: every singleton's parallel evaluation panics, the
        // serial retry succeeds, and the run result is byte-identical to an
        // uninjected run.
        let base = Config {
            threads: 4,
            budget: 2000,
            ..Config::default()
        };
        let clean = SixGen::new(parallel_test_seeds(), base.clone()).run();
        let injected = SixGen::new(
            parallel_test_seeds(),
            Config {
                panic_injection: Some(crate::PanicInjection {
                    range_size: 1,
                    parallel_only: true,
                }),
                ..base
            },
        )
        .run();
        assert_eq!(clean.stats.worker_panics, 0);
        assert!(injected.stats.worker_panics > 0);
        assert_eq!(clean.targets.as_slice(), injected.targets.as_slice());
        assert_eq!(clean.stats.growths, injected.stats.growths);
        assert_eq!(clean.stats.termination, injected.stats.termination);
    }

    #[test]
    fn unrecoverable_growth_panic_degrades_without_aborting() {
        // The serial retry panics too: every singleton is written off as
        // exhausted, so nothing can grow — but the run still completes with
        // all seeds emitted instead of aborting.
        let seeds = parallel_test_seeds();
        let outcome = SixGen::new(
            seeds.clone(),
            Config {
                threads: 4,
                budget: 2000,
                panic_injection: Some(crate::PanicInjection {
                    range_size: 1,
                    parallel_only: false,
                }),
                ..Config::default()
            },
        )
        .run();
        assert_eq!(outcome.stats.termination, Termination::AllSeedsClustered);
        assert_eq!(outcome.stats.worker_panics, seeds.len() as u64);
        assert_eq!(outcome.stats.growths, 0);
        assert_eq!(outcome.targets.len(), seeds.len());
    }

    #[test]
    fn run_grouped_processes_groups_independently() {
        let g1 = addrs(&["2001:db8::1", "2001:db8::2", "2001:db8::3"]);
        let g2 = addrs(&["fe80::a", "fe80::b"]);
        let outcomes = run_grouped([g1, g2], &Config::with_budget(100));
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes[0].targets.len() >= 3);
        assert_eq!(outcomes[1].targets.len(), 2);
    }

    #[test]
    fn metrics_observe_without_perturbing() {
        let seeds = parallel_test_seeds();
        let bare = SixGen::new(seeds.clone(), Config::with_budget(2000)).run();
        let registry = MetricsRegistry::shared();
        let instrumented = SixGen::new(
            seeds,
            Config {
                metrics: Some(Arc::clone(&registry)),
                ..Config::with_budget(2000)
            },
        )
        .run();
        // Instrumentation must not change the algorithm.
        assert_eq!(bare.targets.as_slice(), instrumented.targets.as_slice());
        assert_eq!(bare.stats.growths, instrumented.stats.growths);
        // RunStats counters are re-exported through the registry.
        assert_eq!(
            registry.counter("engine/growths").get(),
            instrumented.stats.growths
        );
        assert_eq!(
            registry.counter("engine/budget_used").get(),
            instrumented.stats.budget_used
        );
        assert_eq!(registry.counter("engine/runs").get(), 1);
        // Phases ran and candidate sizes were recorded.
        assert!(registry.phase("engine/cache_fill").count() > 0);
        assert!(registry.histogram("engine/candidate_set_size").count() > 0);
    }

    #[test]
    fn metrics_deterministic_section_is_stable_across_runs_and_threads() {
        let seeds = parallel_test_seeds();
        let section = |threads: usize| {
            let registry = MetricsRegistry::shared();
            SixGen::new(
                seeds.clone(),
                Config {
                    threads,
                    metrics: Some(Arc::clone(&registry)),
                    ..Config::with_budget(2000)
                },
            )
            .run();
            registry.deterministic_json()
        };
        assert_eq!(section(1), section(1), "repeated serial runs");
        assert_eq!(section(1), section(4), "serial vs parallel");
    }

    #[test]
    fn tracing_observes_without_perturbing() {
        use sixgen_obs::TraceSink;
        let seeds = parallel_test_seeds();
        // Bare run vs traced run: identical targets.
        let bare = SixGen::new(seeds.clone(), Config::with_budget(2000)).run();
        let sink = TraceSink::shared();
        let traced = SixGen::new(
            seeds.clone(),
            Config {
                threads: 4,
                trace: Some(Arc::clone(&sink)),
                ..Config::with_budget(2000)
            },
        )
        .run();
        assert_eq!(bare.targets.as_slice(), traced.targets.as_slice());
        assert_eq!(bare.stats.growths, traced.stats.growths);
        // The trace holds a run root with nested phase and per-cluster
        // growth_eval spans carrying the documented attributes.
        let spans = sink.snapshot();
        let root = spans
            .iter()
            .find(|s| s.category == "engine" && s.name == "run")
            .expect("run root span");
        assert!(root.attrs().iter().any(|&(k, v)| k == "seeds" && v == 70));
        let fill = spans
            .iter()
            .find(|s| s.name == "cache_fill")
            .expect("cache_fill span");
        assert_eq!(fill.parent, root.id, "phases nest under the root");
        let eval = spans
            .iter()
            .find(|s| s.name == "growth_eval")
            .expect("growth_eval span");
        assert!(eval.attrs().iter().any(|&(k, _)| k == "cluster"));
        assert!(eval.attrs().iter().any(|&(k, _)| k == "candidates"));
        assert!(
            spans.iter().filter(|s| s.name == "growth_eval").count() >= seeds.len(),
            "one span per cluster in the first round alone"
        );
    }

    #[test]
    fn tracing_on_off_deterministic_metrics_are_byte_identical() {
        use sixgen_obs::TraceSink;
        let seeds = parallel_test_seeds();
        let deterministic = |trace: Option<Arc<TraceSink>>| {
            let registry = MetricsRegistry::shared();
            SixGen::new(
                seeds.clone(),
                Config {
                    threads: 4,
                    metrics: Some(Arc::clone(&registry)),
                    trace,
                    ..Config::with_budget(2000)
                },
            )
            .run();
            registry.deterministic_json()
        };
        let off = deterministic(None);
        let on = deterministic(Some(TraceSink::shared()));
        // A sink that exists but is disabled must also be invisible.
        let disabled_sink = TraceSink::shared();
        disabled_sink.set_enabled(false);
        let disabled = deterministic(Some(disabled_sink));
        assert_eq!(off, on, "tracing must not perturb deterministic metrics");
        assert_eq!(off, disabled);
    }

    /// Every refill of this world goes through the growth check (the
    /// unfused reference evaluation, with the same tie-break draws), at
    /// one thread and with parallel fills on four; both thread counts
    /// must give byte-identical targets, stats and deterministic
    /// metrics.
    #[test]
    fn growth_checks_hold_at_one_and_four_threads() {
        let seeds: Vec<NybbleAddr> = (0..150u32)
            .map(|i| {
                NybbleAddr::from_bits(
                    0x2001_0db8 << 96 | ((i % 6) as u128) << 24 | ((i * 53 % 2048) as u128),
                )
            })
            .collect();
        for mode in [ClusterMode::Loose, ClusterMode::Tight] {
            let run_with = |threads: usize| {
                let registry = MetricsRegistry::shared();
                let outcome = SixGen::new(
                    seeds.clone(),
                    Config {
                        mode,
                        threads,
                        budget: 3000,
                        metrics: Some(Arc::clone(&registry)),
                        ..Config::default()
                    },
                )
                .run();
                (outcome, registry.deterministic_json())
            };
            let (serial, serial_metrics) = run_with(1);
            let (parallel, parallel_metrics) = run_with(4);
            assert!(
                serial.stats.growths > 5,
                "{mode:?}: workload must be multi-round"
            );
            assert_eq!(
                serial.targets.as_slice(),
                parallel.targets.as_slice(),
                "targets diverged ({mode:?})"
            );
            assert_eq!(serial.stats.growths, parallel.stats.growths);
            assert_eq!(serial.stats.subsumed, parallel.stats.subsumed);
            assert_eq!(serial.stats.termination, parallel.stats.termination);
            assert_eq!(serial.clusters.len(), parallel.clusters.len());
            assert_eq!(
                serial_metrics, parallel_metrics,
                "deterministic metrics diverged ({mode:?})"
            );
        }
    }

    /// Ten dense three-seed groups plus five stragglers one nybble off a
    /// group member: tie-heavy, so selection draws from the run RNG every
    /// round, and each straggler is subsumed once its group's range grows
    /// over it. Every round of every run here goes through the select,
    /// subsume and growth checks, including the runs resumed from a
    /// checkpoint taken after tombstones exist.
    #[test]
    fn round_checks_hold_on_tie_heavy_world() {
        let mut seeds: Vec<NybbleAddr> = (0..30u32)
            .map(|i| {
                let group = (i / 3 + 1) as u128 * 0x111;
                let host = (i % 3) as u128;
                NybbleAddr::from_bits(0x2001_0db8 << 96 | group << 4 | host)
            })
            .collect();
        seeds.extend(
            (1..=5u128).map(|g| NybbleAddr::from_bits(0x2001_0db8 << 96 | (g * 0x111) << 4 | 8)),
        );
        for mode in [ClusterMode::Loose, ClusterMode::Tight] {
            let config = Config {
                mode,
                budget: 400,
                ..Config::default()
            };
            let baseline = SixGen::new(seeds.clone(), config.clone()).run();
            assert!(
                baseline.stats.rounds > 5,
                "{mode:?}: workload must be multi-round"
            );
            assert!(
                baseline.stats.subsumed >= 1,
                "{mode:?}: workload must subsume"
            );
            for k in (0..baseline.stats.rounds).step_by(2) {
                let mut session = SixGen::new(seeds.clone(), config.clone()).session();
                for _ in 0..k {
                    assert_eq!(session.step(), Step::Grew, "boundary {k} not reachable");
                }
                let bytes = session.checkpoint().to_bytes();
                let checkpoint = EngineCheckpoint::from_bytes(&bytes).unwrap();
                let resumed = Session::resume(checkpoint, config.clone()).unwrap().run();
                assert_eq!(
                    baseline.targets.as_slice(),
                    resumed.targets.as_slice(),
                    "{mode:?}: resume at boundary {k} diverged"
                );
                assert_eq!(baseline.stats.subsumed, resumed.stats.subsumed);
                assert_eq!(baseline.clusters.len(), resumed.clusters.len());
            }
        }
    }

    #[test]
    fn growth_prefers_denser_region() {
        // Region A: 4 seeds in one /124-equivalent nybble (density 4/16
        // when grown). Region B: 2 seeds 2 nybbles apart (density 2/256).
        // The first committed growth must be region A's.
        let seeds = addrs(&[
            "2001:db8::a1",
            "2001:db8::a2",
            "2001:db8::a3",
            "2001:db8::a4",
            "2001:db8:b::1",
            "2001:db8:b::301",
        ]);
        let outcome = SixGen::new(seeds, Config::with_budget(20)).run();
        // Budget 20: 6 seeds at init, region A growth adds 16-4=12 new
        // (total 18); region B's growth (14 new) cannot fit, so sampling
        // consumes the last 2.
        assert_eq!(outcome.stats.termination, Termination::BudgetExhausted);
        assert!(outcome
            .clusters
            .iter()
            .any(|c| c.range == range("2001:db8::a?")));
        assert_eq!(outcome.targets.len(), 20);
    }
}
