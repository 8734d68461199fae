//! # sixgen-core — the 6Gen target generation algorithm
//!
//! A faithful implementation of **6Gen** (Murdock et al., *Target Generation
//! for Internet-wide IPv6 Scanning*, IMC 2017, §5): given a set of known
//! IPv6 *seed* addresses and a *probe budget*, 6Gen greedily clusters
//! similar seeds into dense address-space regions and emits the addresses
//! of those regions as scan targets.
//!
//! The algorithm models seeds as IID samples of the live-host distribution:
//! regions dense in seeds are assumed dense in active hosts. Each iteration
//! finds, for every cluster, the non-member seed(s) at minimum nybble
//! Hamming distance, evaluates the seed density of each possible growth
//! (grown seed-set size ÷ grown range size), and commits the single growth
//! of maximum density (ties: smaller range, then random). Clusters grow
//! independently and may overlap; clusters strictly subsumed by a grown
//! range are deleted; the budget counts **unique** generated addresses; and
//! the final growth is sampled randomly so the budget is consumed exactly
//! (§5.4).
//!
//! The §5.5 optimizations are implemented: per-cluster best-growth caching
//! (valid because clusters grow independently), seed storage in a 16-ary
//! [`NybbleTree`](sixgen_addr::NybbleTree) for range queries, and parallel
//! growth evaluation across clusters (`std::thread::scope` standing in for
//! the paper's OpenMP). Growth-worker panics are caught and recovered per
//! cluster rather than aborting the run, and [`Config::time_limit`] turns
//! the engine into a deadline-aware anytime algorithm that emits a
//! well-formed partial [`Outcome`].
//!
//! ```
//! use sixgen_core::{Config, SixGen};
//!
//! let seeds: Vec<sixgen_addr::NybbleAddr> = [
//!     "2001:db8::11", "2001:db8::12", "2001:db8::19",
//!     "2001:db8::21", "2001:db8::22",
//! ]
//! .iter()
//! .map(|s| s.parse().unwrap())
//! .collect();
//!
//! let outcome = SixGen::new(seeds, Config { budget: 64, ..Config::default() }).run();
//! assert!(outcome.targets.len() <= 64);
//! assert!(outcome.targets.contains("2001:db8::13".parse().unwrap()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
mod budget;
mod cancel;
mod checkpoint;
mod cluster;
mod draw;
mod engine;
mod outcome;
mod pool;
mod select;
mod shard;

pub use adaptive::{adaptive_scan, AdaptiveConfig, AdaptiveOutcome, RegionFate, RegionReport};
pub use budget::{split_proportional, BudgetPool, BudgetTracker, Charge};
pub use cancel::CancelToken;
pub use checkpoint::{
    CachedCheckpoint, CheckpointError, CheckpointWriter, EngineCheckpoint, ShardCheckpoint,
    ShardedCheckpoint, SlotCheckpoint, FORMAT_VERSION, SHARDED_FORMAT_VERSION, SHARDED_MAGIC,
};
pub use cluster::{best_growth, evaluate_growth, Cluster, Growth, GrowthEvaluation};
pub use draw::bounded_draw;
pub use engine::{run, run_grouped, ResumeError, Session, SixGen, Step};
pub use outcome::{ClusterInfo, Outcome, RunStats, TargetSet, Termination};
pub use pool::WorkerPool;
pub use shard::{
    resume_sharded, resume_sharded_with, run_sharded, run_sharded_with, shard_rng_seed,
    ShardOutcome, ShardSpec, ShardedOutcome, ShardedStats,
};

/// How cluster ranges widen when a new seed is absorbed (§5.3, §6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ClusterMode {
    /// Every dynamic nybble becomes a full `?` wildcard. Emphasizes deeper
    /// exploration of early-formed dense clusters; the paper found loose
    /// ranges find slightly more hits (§6.3) and uses them by default.
    #[default]
    Loose,
    /// Dynamic nybbles carry exactly the values observed in the cluster's
    /// seeds (`[..]` bounded wildcards). Spreads budget across more or
    /// larger clusters.
    Tight,
}

/// Configuration for a 6Gen run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Probe budget: the maximum number of unique target addresses to
    /// generate (seed addresses inside cluster ranges count — the paper's
    /// budget is the total number of probes sent, and generated ranges
    /// include their seeds).
    pub budget: u64,
    /// Loose or tight cluster ranges.
    pub mode: ClusterMode,
    /// Number of worker threads for growth evaluation. `1` disables
    /// parallelism; `0` uses the machine's available parallelism.
    pub threads: usize,
    /// RNG seed for tie-breaking and final-growth sampling; runs are fully
    /// deterministic given the same seeds, config, and this value.
    pub rng_seed: u64,
    /// Optional wall-clock deadline for the run. When the limit elapses
    /// before another stopping rule fires, the run stops with
    /// [`Termination::Deadline`] and a well-formed partial [`Outcome`]:
    /// every seed is covered by a cluster (they are from initialization
    /// onward) and all targets generated so far are emitted. `None` (the
    /// default) runs to completion.
    pub time_limit: Option<std::time::Duration>,
    /// Optional metrics registry. When set, the engine records per-phase
    /// wall time (cache fill, selection, commit, subsumption), histograms
    /// of candidate-set sizes and growth-evaluation latencies, and
    /// re-exports the [`RunStats`] counters under `engine/*` names at the
    /// end of the run. Metrics only observe — they never perturb the
    /// algorithm, so instrumented and bare runs produce identical targets.
    pub metrics: Option<std::sync::Arc<sixgen_obs::MetricsRegistry>>,
    /// Optional trace sink. When set, the engine records one run-level
    /// root span with nested per-iteration `cache_fill` / `select` /
    /// `commit` / `subsume` spans, and one `growth_eval` span per cluster
    /// evaluated per round (carrying cluster id, candidate-set size, and
    /// chosen-range density attributes). Like metrics, tracing only
    /// observes: traced and bare runs produce identical targets and
    /// identical deterministic metrics.
    pub trace: Option<std::sync::Arc<sixgen_obs::TraceSink>>,
    /// Optional cooperative cancellation token. The engine polls it once
    /// per round, right after the deadline check; when cancelled, the run
    /// stops with [`Termination::Cancelled`] and the same well-formed
    /// partial [`Outcome`] guarantees as a deadline stop. Cloning a
    /// `Config` shares the token (clones observe the same flag).
    pub cancel: Option<CancelToken>,
    /// Optional persistent worker pool for parallel growth evaluation.
    /// When set, `fill_caches` submits chunk jobs to this pool instead of
    /// spawning threads; the sharded driver shares one pool between shard
    /// tasks and their nested cache fills. When unset and `threads > 1`,
    /// the session lazily creates a private pool at start. Scheduling
    /// never affects results — outputs are byte-identical for any pool
    /// shape.
    pub pool: Option<std::sync::Arc<WorkerPool>>,
    /// Parent span for the session's root `engine/run` span. The sharded
    /// driver sets this to its `sharded/run` root so per-shard engine
    /// spans nest under the fleet; standalone runs leave it
    /// [`SpanId::NONE`](sixgen_obs::SpanId::NONE) (a top-level span).
    pub trace_parent: sixgen_obs::SpanId,
    /// Optional live progress-event bus. When set, the session publishes
    /// one [`ProgressEvent`](sixgen_obs::ProgressEvent) per committed
    /// round plus session start/end, and the sharded driver adds fleet
    /// events (leases, parks, barriers, shard terminations). Like metrics
    /// and tracing, events only observe: runs with the bus absent,
    /// enabled, disabled, or attached mid-run produce byte-identical
    /// targets, RNG streams, deterministic metrics, and checkpoints.
    pub events: Option<std::sync::Arc<sixgen_obs::EventBus>>,
    /// Shard index carried in this session's progress events. The sharded
    /// driver sets it per shard; standalone runs use the default `0`.
    pub shard_id: u64,
    /// Test hook: deterministic growth-worker panic injection. Not part of
    /// the stable API.
    #[doc(hidden)]
    pub panic_injection: Option<PanicInjection>,
}

/// Test hook describing when growth evaluation should deliberately panic,
/// used to exercise the engine's panic recovery path. Not part of the
/// stable API.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanicInjection {
    /// Panic when evaluating a cluster whose range has exactly this size.
    pub range_size: u128,
    /// If `true`, panic only inside parallel growth workers, so the serial
    /// failover retry succeeds. If `false`, the retry panics too and the
    /// cluster is written off as exhausted.
    pub parallel_only: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            budget: 1_000_000,
            mode: ClusterMode::Loose,
            threads: 1,
            rng_seed: 0x6CE4,
            time_limit: None,
            metrics: None,
            trace: None,
            cancel: None,
            pool: None,
            trace_parent: sixgen_obs::SpanId::NONE,
            events: None,
            shard_id: 0,
            panic_injection: None,
        }
    }
}

impl Config {
    /// Convenience constructor for the common "budget plus defaults" case.
    pub fn with_budget(budget: u64) -> Config {
        Config {
            budget,
            ..Config::default()
        }
    }
}
