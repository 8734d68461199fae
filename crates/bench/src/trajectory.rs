//! `repro trajectory` — the committed core-performance trajectory.
//!
//! Measures three throughput axes of the reproduction and emits them as a
//! small JSON document (`BENCH_core.json`, committed at the repo root) so
//! performance regressions show up in review diffs:
//!
//! 1. **Seed scaling** — median 6Gen runtime versus seed-set size on the
//!    Figure 2 synthetic corpus (the paper's scaling claim).
//! 2. **Budget-charge throughput** — addresses committed per second by
//!    [`BudgetTracker::charge`], the hot path the single-pass rewrite
//!    targets.
//! 3. **Tree-query throughput** — [`NybbleTree::count_in_range`] queries
//!    per second, the inner loop of growth evaluation.
//! 4. **Sharded-fleet ladder** — the sharded driver
//!    ([`sixgen_core::run_sharded`]) over a multi-prefix world at one
//!    worker versus all available workers: fleet wall time, the
//!    busiest/idlest shard's busy time, worker-pool job counts (spawn
//!    amortization), and an `identical` flag proving the merged output
//!    matched the single-worker reference byte for byte.
//! 5. **Observer overhead** — the same 30 K-seed run with no observer,
//!    with a progress event bus and a trace sink attached but disabled,
//!    and with the bus enabled: the disabled path must stay within noise
//!    of the observer-absent baseline (gated at < 2 % by
//!    `trajectory-check`), and every variant must emit byte-identical
//!    targets.
//!
//! Absolute numbers are machine-dependent; the committed file documents
//! the *shape* (scaling curve, relative throughput) and gives CI a single
//! artifact to archive per run.

use super::experiments::fig2_runtime::synthetic_seeds;
use super::experiments::ExperimentOptions;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sixgen_addr::{NybbleAddr, NybbleTree, Prefix, Range};
use sixgen_core::{run_sharded, BudgetTracker, Config, ShardSpec, SixGen, WorkerPool};
use sixgen_obs::{EventBus, MetricsRegistry, TraceSink};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One point of the seed-scaling curve.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Seed-set size.
    pub seeds: usize,
    /// The target budget the runs at this point were configured with.
    /// Committed alongside the timings because budget scales with the
    /// seed count above 100 K (`max(50 K, seeds·3/2)`): two points are
    /// wall-comparable only per unit of configured work, and
    /// `trajectory-check` re-measures a committed point at the
    /// *committed* budget, never a recomputed one.
    pub budget: u64,
    /// Median wall-clock runtime in milliseconds.
    pub wall_ms: f64,
    /// Median CPU time in milliseconds. Note this only aggregates the
    /// growth-evaluation (cache-fill) busy time — the other phases are
    /// accounted in `phase_ns`, which is why `wall_ms` exceeds `cpu_ms`
    /// even on a single thread.
    pub cpu_ms: f64,
    /// Median (across repeats) of the per-run p95 growth-evaluation
    /// latency in milliseconds, from `engine/growth_eval` measured with a
    /// fresh per-run registry. This is the hot-path number the fused
    /// traversal optimizes and the one `trajectory-check` guards.
    pub growth_eval_p95_ms: f64,
    /// Targets generated (identical across repeats at fixed seed).
    pub targets: u64,
    /// Rounds executed by the first repeat (`rng_seed = 0`) — fixed for a
    /// given seed corpus and budget, so regressions in round count (e.g.
    /// a subsumption bug) show up in review diffs.
    pub rounds: u64,
    /// Number of measured repeats the medians are taken over.
    pub repeats: u64,
    /// Median per-phase wall totals in nanoseconds, one per round-loop
    /// phase: where the run actually spends its time. Closes the
    /// `wall_ms` vs `cpu_ms` gap: select/commit/subsume time was
    /// previously invisible in this document.
    pub phase_ns: PhaseTotals,
}

/// Per-phase wall-clock totals (nanoseconds) for one scaling point.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTotals {
    /// `engine/cache_fill`: growth-cache refills (including the
    /// initialization fill of every slot).
    pub cache_fill: u64,
    /// `engine/select`: best-growth selection, including tie-break draw
    /// replay.
    pub select: u64,
    /// `engine/commit`: budget charging and target emission.
    pub commit: u64,
    /// `engine/subsume`: subsumed-cluster retirement.
    pub subsume: u64,
}

/// A simple items-over-time throughput measurement.
#[derive(Debug, Clone)]
pub struct Throughput {
    /// Items processed (addresses charged, queries executed).
    pub items: u64,
    /// Total wall-clock time in milliseconds.
    pub wall_ms: f64,
    /// Items per second.
    pub per_sec: f64,
}

impl Throughput {
    fn measure(items: u64, elapsed_ms: f64) -> Throughput {
        let wall_ms = elapsed_ms.max(1e-6);
        Throughput {
            items,
            wall_ms,
            per_sec: items as f64 / (wall_ms / 1e3),
        }
    }
}

/// One rung of the sharded-fleet ladder: the same multi-prefix world
/// run at a given worker count.
#[derive(Debug, Clone)]
pub struct ShardedPoint {
    /// Total seeds across the fleet.
    pub seeds: usize,
    /// Routed prefixes (= shards).
    pub prefixes: usize,
    /// Global fleet budget.
    pub budget: u64,
    /// Scheduler worker threads this rung ran with.
    pub shards: usize,
    /// Fleet wall-clock time in milliseconds, lease to merge.
    pub wall_ms: f64,
    /// Busy time of the busiest shard in milliseconds — the fleet's
    /// critical path: wall time can never drop below it no matter how
    /// many workers are added.
    pub shard_wall_max_ms: f64,
    /// Busy time of the idlest shard in milliseconds — together with
    /// the max, the skew the shared worker pool absorbs.
    pub shard_wall_min_ms: f64,
    /// Scheduling epochs (lease → run → return cycles).
    pub epochs: u64,
    /// Jobs the shared worker pool's threads took from its queue and ran
    /// (shard tasks, and the nested cache-fill chunks no waiting thread
    /// ran itself) over the threads it spawned — the spawn amortization
    /// the persistent pool buys versus per-round scoped threads.
    pub pool_jobs: u64,
    /// Whether this rung's merged target stream was byte-identical to
    /// the single-worker reference. Anything but `true` is a
    /// determinism bug.
    pub identical: bool,
}

/// The observer overhead point: one engine workload measured with no
/// observer, with an event bus and a trace sink attached but disabled
/// (one relaxed atomic load per would-be event or span), and with the
/// bus enabled (timestamp + sequence + ring push per event). Carrying
/// disabled observers must cost nothing measurable.
#[derive(Debug, Clone)]
pub struct ObserverOverhead {
    /// Seed-set size of the measured workload.
    pub seeds: usize,
    /// Probe budget of the measured workload.
    pub budget: u64,
    /// Measured repeats per variant the medians are taken over.
    pub repeats: u64,
    /// Median wall time with no bus or sink in the config (milliseconds).
    pub off_wall_ms: f64,
    /// Median wall time with a bus and a trace sink attached but
    /// disabled.
    pub disabled_wall_ms: f64,
    /// Median wall time with the bus enabled and recording.
    pub enabled_wall_ms: f64,
    /// Smallest over repeats of the *paired* per-repeat ratio
    /// `disabled_wall / off_wall − 1`, clamped at zero: the cost of
    /// merely carrying the bus and the sink. Paired because the variants
    /// of one repeat run back-to-back, so slow wall-clock drift (thermal,
    /// frequency scaling) largely cancels inside each ratio; the
    /// variant order additionally alternates per repeat so residual
    /// drift cannot bias every pair the same way; and the minimum is
    /// taken because a *real* carried cost appears in every pair while
    /// scheduler noise is sporadic — the classic min-estimator, applied
    /// to ratios. `trajectory-check` gates a fresh measurement of this
    /// below `OBSERVER_DISABLED_OVERHEAD_LIMIT` (2 %).
    pub disabled_overhead_frac: f64,
    /// Smallest paired ratio `enabled_wall / off_wall − 1`, clamped at
    /// zero: the full recording cost. Documented, not gated — recording
    /// is opt-in.
    pub enabled_overhead_frac: f64,
    /// Events the enabled run published (SessionStart + one per round +
    /// SessionEnd).
    pub events: u64,
    /// Whether all three variants produced byte-identical target streams
    /// in every repeat. Anything but `true` is a perturbation bug.
    pub identical: bool,
}

/// The full trajectory document.
#[derive(Debug, Clone)]
pub struct Trajectory {
    /// Seed-scaling curve (Figure 2 axis).
    pub seed_scaling: Vec<ScalePoint>,
    /// Sharded-fleet ladder (1 worker vs all workers per world).
    pub sharded: Vec<ShardedPoint>,
    /// Observer overhead point (off vs disabled vs enabled).
    pub observer_overhead: ObserverOverhead,
    /// Budget-charge throughput.
    pub budget_charge: Throughput,
    /// Tree range-query throughput.
    pub tree_query: Throughput,
}

impl Trajectory {
    /// Renders the document as pretty-printed JSON with a schema tag and
    /// stable key order.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"sixgen-bench-trajectory/v5\",\n");
        out.push_str("  \"seed_scaling\": [\n");
        for (i, p) in self.seed_scaling.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"seeds\": {}, \"budget\": {}, \"wall_ms\": {:.3}, \"cpu_ms\": {:.3}, \
                 \"growth_eval_p95_ms\": {:.6}, \"targets\": {}, \"rounds\": {}, \
                 \"repeats\": {}, \"phase_ns\": {{\"cache_fill\": {}, \"select\": {}, \
                 \"commit\": {}, \"subsume\": {}}}}}{}",
                p.seeds,
                p.budget,
                p.wall_ms,
                p.cpu_ms,
                p.growth_eval_p95_ms,
                p.targets,
                p.rounds,
                p.repeats,
                p.phase_ns.cache_fill,
                p.phase_ns.select,
                p.phase_ns.commit,
                p.phase_ns.subsume,
                if i + 1 < self.seed_scaling.len() { "," } else { "" }
            );
        }
        out.push_str("  ],\n");
        out.push_str("  \"sharded\": [\n");
        for (i, p) in self.sharded.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"seeds\": {}, \"prefixes\": {}, \"budget\": {}, \"shards\": {}, \
                 \"wall_ms\": {:.3}, \"shard_wall_max_ms\": {:.3}, \"shard_wall_min_ms\": {:.3}, \
                 \"epochs\": {}, \"pool_jobs\": {}, \"identical\": {}}}{}",
                p.seeds,
                p.prefixes,
                p.budget,
                p.shards,
                p.wall_ms,
                p.shard_wall_max_ms,
                p.shard_wall_min_ms,
                p.epochs,
                p.pool_jobs,
                p.identical,
                if i + 1 < self.sharded.len() { "," } else { "" }
            );
        }
        out.push_str("  ],\n");
        let o = &self.observer_overhead;
        let _ = writeln!(
            out,
            "  \"observer_overhead\": {{\"seeds\": {}, \"budget\": {}, \"repeats\": {}, \
             \"off_wall_ms\": {:.3}, \"disabled_wall_ms\": {:.3}, \"enabled_wall_ms\": {:.3}, \
             \"disabled_overhead_frac\": {:.4}, \"enabled_overhead_frac\": {:.4}, \
             \"events\": {}, \"identical\": {}}},",
            o.seeds,
            o.budget,
            o.repeats,
            o.off_wall_ms,
            o.disabled_wall_ms,
            o.enabled_wall_ms,
            o.disabled_overhead_frac,
            o.enabled_overhead_frac,
            o.events,
            o.identical
        );
        for (name, t, comma) in [
            ("budget_charge", &self.budget_charge, ","),
            ("tree_query", &self.tree_query, ""),
        ] {
            let _ = writeln!(
                out,
                "  \"{}\": {{\"items\": {}, \"wall_ms\": {:.3}, \"per_sec\": {:.1}}}{}",
                name, t.items, t.wall_ms, t.per_sec, comma
            );
        }
        out.push_str("}\n");
        out
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    values[values.len() / 2]
}

/// The budget a scaling point of size `n` runs with, unless overridden by
/// a committed value: the budget must exceed the seed count or the run
/// exhausts at initialization without a single growth. Scaling by 1.5×
/// kicks in only above the 30K point (every committed size up to 30K
/// stays under the default 50K budget), so historical points up to 30K
/// remain comparable.
fn point_budget(n: usize, opts: &ExperimentOptions) -> u64 {
    opts.budget.max(n as u64 * 3 / 2)
}

/// One measured scaling run.
struct RunSample {
    wall_ms: f64,
    cpu_ms: f64,
    p95_ms: f64,
    targets: u64,
    rounds: u64,
    phase_ns: PhaseTotals,
}

/// Executes one scaling run of `n` seeds at the given budget.
///
/// Each run gets its own fresh [`MetricsRegistry`] so the p95 and phase
/// totals reflect exactly this run (the shared `--metrics-out` registry
/// accumulates across runs and sizes, which would smear them).
fn measure_run(n: usize, rep: u64, budget: u64, opts: &ExperimentOptions) -> RunSample {
    let mut rng = StdRng::seed_from_u64(42 + rep);
    let seeds = synthetic_seeds(n, &mut rng);
    let registry = MetricsRegistry::shared();
    let outcome = SixGen::new(
        seeds,
        Config {
            budget,
            threads: opts.threads,
            rng_seed: rep,
            metrics: Some(std::sync::Arc::clone(&registry)),
            trace: opts.trace.clone(),
            ..Config::default()
        },
    )
    .run();
    let p95_ms = registry
        .time_histogram("engine/growth_eval")
        .percentile(0.95)
        .map(|ns| ns as f64 / 1e6)
        .unwrap_or(0.0);
    let phase = |name: &str| registry.phase(name).total().as_nanos() as u64;
    RunSample {
        wall_ms: outcome.stats.wall_time.as_secs_f64() * 1e3,
        cpu_ms: outcome.stats.cpu_time.as_secs_f64() * 1e3,
        p95_ms,
        targets: outcome.targets.len() as u64,
        rounds: outcome.stats.rounds,
        phase_ns: PhaseTotals {
            cache_fill: phase("engine/cache_fill"),
            select: phase("engine/select"),
            commit: phase("engine/commit"),
            subsume: phase("engine/subsume"),
        },
    }
}

fn measure_point(n: usize, repeats: u64, opts: &ExperimentOptions) -> ScalePoint {
    let budget = point_budget(n, opts);
    let samples: Vec<RunSample> = (0..repeats)
        .map(|rep| measure_run(n, rep, budget, opts))
        .collect();
    let med = |f: fn(&RunSample) -> f64| median(samples.iter().map(f).collect());
    ScalePoint {
        seeds: n,
        budget,
        wall_ms: med(|s| s.wall_ms),
        cpu_ms: med(|s| s.cpu_ms),
        growth_eval_p95_ms: med(|s| s.p95_ms),
        targets: samples.last().expect("repeats >= 1").targets,
        rounds: samples[0].rounds,
        repeats,
        phase_ns: PhaseTotals {
            cache_fill: med(|s| s.phase_ns.cache_fill as f64) as u64,
            select: med(|s| s.phase_ns.select as f64) as u64,
            commit: med(|s| s.phase_ns.commit as f64) as u64,
            subsume: med(|s| s.phase_ns.subsume as f64) as u64,
        },
    }
}

fn seed_scaling(opts: &ExperimentOptions) -> Vec<ScalePoint> {
    let sizes: &[usize] = if opts.quick {
        &[10, 100, 1_000]
    } else {
        &[
            10, 100, 1_000, 5_000, 10_000, 30_000, 100_000, 300_000, 1_000_000,
        ]
    };
    sizes
        .iter()
        .map(|&n| {
            // Large points are single-shot: a 300K+ run takes long enough
            // that three repeats would dominate the whole suite, and the
            // medians they feed are already noise-bounded by the smaller
            // gated points.
            let repeats = if opts.quick || n >= 300_000 { 1 } else { 3 };
            measure_point(n, repeats, opts)
        })
        .collect()
}

fn budget_charge_throughput(opts: &ExperimentOptions) -> Throughput {
    let ranges: Vec<Range> = (0..if opts.quick { 8 } else { 32 })
        .map(|i| {
            let pat = if opts.quick {
                format!("2001:db8:{i:x}::??")
            } else {
                format!("2001:db8:{i:x}::???")
            };
            pat.parse().expect("valid range pattern")
        })
        .collect();
    let mut tracker = BudgetTracker::new(u64::MAX);
    let mut rng = StdRng::seed_from_u64(9);
    let started = Instant::now();
    for range in &ranges {
        tracker.charge(range, &mut rng);
    }
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    Throughput::measure(tracker.used(), elapsed_ms)
}

fn tree_query_throughput(opts: &ExperimentOptions) -> Throughput {
    let mut rng = StdRng::seed_from_u64(11);
    let tree = NybbleTree::from_addresses(synthetic_seeds(
        if opts.quick { 2_000 } else { 20_000 },
        &mut rng,
    ));
    let queries = if opts.quick { 1_000 } else { 10_000 };
    let ranges: Vec<Range> = (0..48u32)
        .map(|s| {
            format!("2600:3c00:0:{s:x}::???")
                .parse()
                .expect("valid range pattern")
        })
        .collect();
    let mut matches = 0u64;
    let started = Instant::now();
    for q in 0..queries {
        matches += tree.count_in_range(&ranges[q as usize % ranges.len()]);
    }
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    // Keep the accumulated count observable so the loop cannot be elided.
    assert!(matches < u64::MAX);
    Throughput::measure(queries, elapsed_ms)
}

/// One engine run for the observer-overhead point: the scaling corpus
/// and seeding discipline of [`measure_run`], but with the progress bus
/// and trace sink (or their absence) as the only variables and the
/// target stream returned for the byte-identity check. No metrics
/// registry is attached so the observer-absent baseline is truly bare.
fn measure_observer_run(
    n: usize,
    rep: u64,
    budget: u64,
    opts: &ExperimentOptions,
    events: Option<std::sync::Arc<EventBus>>,
    trace: Option<std::sync::Arc<TraceSink>>,
) -> (f64, Vec<NybbleAddr>) {
    let mut rng = StdRng::seed_from_u64(42 + rep);
    let seeds = synthetic_seeds(n, &mut rng);
    let outcome = SixGen::new(
        seeds,
        Config {
            budget,
            threads: opts.threads,
            rng_seed: rep,
            events,
            trace,
            ..Config::default()
        },
    )
    .run();
    (
        outcome.stats.wall_time.as_secs_f64() * 1e3,
        outcome.targets.as_slice().to_vec(),
    )
}

/// Measures the observer-overhead point: 30 K seeds (1 K in quick mode)
/// run with no observer, with a disabled bus and sink, and with the bus
/// enabled, interleaved per repeat so load drift hits all three variants
/// equally.
fn observer_overhead(opts: &ExperimentOptions) -> ObserverOverhead {
    let n = if opts.quick { 1_000 } else { 30_000 };
    let budget = point_budget(n, opts);
    let repeats: u64 = if opts.quick { 1 } else { 5 };
    let mut walls: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut identical = true;
    let mut events_published = 0u64;
    // One discarded warmup so the first measured variant doesn't pay
    // process-cold costs (allocator growth, page faults) its paired
    // partners skip.
    let _ = measure_observer_run(n, 0, budget, opts, None, None);
    for rep in 0..repeats {
        // Alternate the variant order between repeats: a monotone drift
        // in machine speed (thermal throttling, frequency ramps) would
        // otherwise bias *every* pair in the same direction, because the
        // off baseline would always run first.
        let order: [usize; 3] = if rep % 2 == 0 { [0, 1, 2] } else { [2, 1, 0] };
        let mut reference: Option<Vec<NybbleAddr>> = None;
        for variant in order {
            let (bus, sink) = match variant {
                0 => (None, None),
                1 => {
                    let bus = EventBus::shared();
                    bus.set_enabled(false);
                    let sink = TraceSink::shared();
                    sink.set_enabled(false);
                    (Some(bus), Some(sink))
                }
                _ => (Some(EventBus::shared()), None),
            };
            let (wall, targets) = measure_observer_run(n, rep, budget, opts, bus.clone(), sink);
            walls[variant].push(wall);
            if let Some(bus) = &bus {
                if bus.is_enabled() {
                    events_published = bus.published();
                }
            }
            match &reference {
                None => reference = Some(targets),
                Some(reference) => identical &= *reference == targets,
            }
        }
    }
    // Smallest paired per-repeat ratio: a cost that is really carried
    // by a variant appears in every pair, while scheduler noise is
    // sporadic and only ever inflates a ratio — so the cleanest pair is
    // the honest estimate (the classic min-estimator, on ratios).
    let paired_frac = |variant: &[f64]| {
        variant
            .iter()
            .zip(walls[0].iter())
            .map(|(wall, off)| (wall / off.max(1e-9) - 1.0).max(0.0))
            .fold(f64::INFINITY, f64::min)
    };
    ObserverOverhead {
        seeds: n,
        budget,
        repeats,
        off_wall_ms: median(walls[0].clone()),
        disabled_wall_ms: median(walls[1].clone()),
        enabled_wall_ms: median(walls[2].clone()),
        disabled_overhead_frac: paired_frac(&walls[1]),
        enabled_overhead_frac: paired_frac(&walls[2]),
        events: events_published,
        identical,
    }
}

/// Synthetic multi-prefix fleet world: `count` seeds spread evenly over
/// `prefixes` routed /32s, each prefix carrying the Figure 2 corpus
/// structure (sequential low bytes over a few dozen subnets plus
/// noise).
fn sharded_specs(prefixes: usize, count: usize) -> Vec<ShardSpec> {
    let mut rng = StdRng::seed_from_u64(77);
    (0..prefixes)
        .map(|p| {
            let base = (0x2600_3c00u128 + p as u128) << 96;
            let prefix = Prefix::new(NybbleAddr::from_bits(base), 32);
            let n = count / prefixes + usize::from(p < count % prefixes);
            let seeds = (0..n)
                .map(|i| {
                    let subnet = (i % 48) as u128;
                    let structured = (i / 48 + 1) as u128;
                    let noise: u128 = if i % 7 == 0 {
                        rng.gen::<u16>() as u128
                    } else {
                        0
                    };
                    NybbleAddr::from_bits(base | (subnet << 64) | structured | noise << 16)
                })
                .collect();
            ShardSpec { prefix, seeds }
        })
        .collect()
}

/// Runs one fleet rung and reduces it to a [`ShardedPoint`].
/// `reference` carries the single-worker rung's merged targets for the
/// identity check (pass `None` when measuring the reference itself).
fn measure_sharded(
    prefixes: usize,
    count: usize,
    workers: usize,
    opts: &ExperimentOptions,
    reference: Option<&[NybbleAddr]>,
) -> (ShardedPoint, Vec<NybbleAddr>) {
    let budget = point_budget(count, opts);
    let pool = std::sync::Arc::new(WorkerPool::new(workers.max(1)));
    let outcome = run_sharded(
        sharded_specs(prefixes, count),
        Config {
            budget,
            threads: opts.threads,
            rng_seed: 0xF1EE7,
            pool: Some(std::sync::Arc::clone(&pool)),
            ..Config::default()
        },
        workers.max(1),
    );
    let busy_ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let point = ShardedPoint {
        seeds: count,
        prefixes,
        budget,
        shards: outcome.stats.workers,
        wall_ms: busy_ms(outcome.stats.wall_time),
        shard_wall_max_ms: outcome
            .shards
            .iter()
            .map(|s| busy_ms(s.busy))
            .fold(0.0, f64::max),
        shard_wall_min_ms: outcome
            .shards
            .iter()
            .map(|s| busy_ms(s.busy))
            .fold(f64::INFINITY, f64::min)
            .min(busy_ms(outcome.stats.wall_time)),
        epochs: outcome.stats.epochs,
        pool_jobs: pool.jobs_executed(),
        identical: reference.is_none_or(|r| r == outcome.targets.as_slice()),
    };
    (point, outcome.targets)
}

/// The sharded-fleet ladder: each world measured at one worker (the
/// determinism reference) and at the machine's available parallelism.
fn sharded_ladder(opts: &ExperimentOptions) -> Vec<ShardedPoint> {
    let worlds: &[(usize, usize)] = if opts.quick {
        &[(8, 1_000)]
    } else {
        &[(8, 10_000), (8, 100_000)]
    };
    let auto = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut points = Vec::new();
    for &(prefixes, count) in worlds {
        let (reference, targets) = measure_sharded(prefixes, count, 1, opts, None);
        let (point, _) = measure_sharded(prefixes, count, auto, opts, Some(&targets));
        points.push(reference);
        points.push(point);
    }
    points
}

/// Collects all four measurements.
pub fn collect(opts: &ExperimentOptions) -> Trajectory {
    Trajectory {
        seed_scaling: seed_scaling(opts),
        sharded: sharded_ladder(opts),
        observer_overhead: observer_overhead(opts),
        budget_charge: budget_charge_throughput(opts),
        tree_query: tree_query_throughput(opts),
    }
}

/// The default output path (repo root when run from there).
pub fn default_output() -> PathBuf {
    PathBuf::from("BENCH_core.json")
}

/// Runs the trajectory and writes `BENCH_core.json` into the current
/// directory, printing the curve as it goes.
pub fn run(opts: &ExperimentOptions) {
    run_to(opts, &default_output());
}

/// Runs the trajectory and writes the JSON document to `path`.
pub fn run_to(opts: &ExperimentOptions, path: &Path) {
    super::experiments::banner("Core trajectory: seed scaling, charge and tree throughput");
    let trajectory = collect(opts);
    println!(
        "{:>8}  {:>8}  {:>12}  {:>12}  {:>14}  {:>10}  {:>8}",
        "seeds", "budget", "wall (ms)", "cpu (ms)", "eval p95 (ms)", "targets", "rounds"
    );
    for p in &trajectory.seed_scaling {
        println!(
            "{:>8}  {:>8}  {:>12.2}  {:>12.2}  {:>14.4}  {:>10}  {:>8}",
            p.seeds, p.budget, p.wall_ms, p.cpu_ms, p.growth_eval_p95_ms, p.targets, p.rounds
        );
    }
    println!(
        "{:>8}  {:>8}  {:>8}  {:>6}  {:>12}  {:>14}  {:>14}  {:>9}",
        "seeds", "prefixes", "budget", "shards", "wall (ms)", "max busy (ms)", "min busy (ms)", "identical"
    );
    for p in &trajectory.sharded {
        println!(
            "{:>8}  {:>8}  {:>8}  {:>6}  {:>12.2}  {:>14.2}  {:>14.2}  {:>9}",
            p.seeds, p.prefixes, p.budget, p.shards, p.wall_ms, p.shard_wall_max_ms,
            p.shard_wall_min_ms, p.identical
        );
    }
    let o = &trajectory.observer_overhead;
    println!(
        "observer overhead @ {} seeds: off {:.1} ms, disabled {:.1} ms ({:+.2}%), \
         enabled {:.1} ms ({:+.2}%), {} events, identical {}",
        o.seeds,
        o.off_wall_ms,
        o.disabled_wall_ms,
        o.disabled_overhead_frac * 100.0,
        o.enabled_wall_ms,
        o.enabled_overhead_frac * 100.0,
        o.events,
        o.identical
    );
    println!(
        "budget charge: {:.0} addrs/s ({} addrs)   tree query: {:.0} queries/s",
        trajectory.budget_charge.per_sec,
        trajectory.budget_charge.items,
        trajectory.tree_query.per_sec
    );
    std::fs::write(path, trajectory.to_json()).expect("write trajectory json");
    println!("trajectory -> {}", path.display());
}

/// Extracts one numeric field from the seed-scaling point with the given
/// size inside a trajectory JSON document, using the document's known
/// one-point-per-line layout (no JSON parser in the workspace — the format
/// is ours and stable under the schema tag).
fn extract_point_field(json: &str, seeds: usize, field: &str) -> Option<f64> {
    let seeds_key = format!("\"seeds\": {seeds},");
    let field_key = format!("\"{field}\": ");
    let line = json.lines().find(|l| l.contains(&seeds_key))?;
    let start = line.find(&field_key)? + field_key.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Fractional headroom allowed over the committed 30 K p95 before
/// `trajectory-check` fails.
const P95_REGRESSION_HEADROOM: f64 = 0.25;

/// Fractional headroom for the 300 K p95 gate. Wider than the 30 K
/// gate: at this size per-operation latency swings 20–35 % between a
/// freshly warmed check process and the deeply warm full-suite regen
/// that produced the committed value (measured on the reference box:
/// committed 0.316 ms, warmed fresh runs 0.38–0.43 ms), so 25 % is
/// inside the noise envelope. 50 % still trips on a complexity-class
/// regression, which roughly doubles the p95.
const P95_300K_REGRESSION_HEADROOM: f64 = 0.5;

/// Fractional headroom allowed over the committed 300 K wall time. Far
/// looser than the p95 gate: absolute wall times swing with machine load,
/// and this gate exists to catch a complexity-class regression (the
/// round loop sliding back toward per-round full scans roughly doubles
/// the 300 K wall), not microperf drift.
const WALL_300K_REGRESSION_HEADROOM: f64 = 1.0;

/// Maximum fractional wall overhead a *disabled* event bus and trace sink
/// may add over the observer-absent baseline before `trajectory-check`
/// fails. The disabled path is one relaxed atomic load per would-be
/// event or span, so anything near this limit means the hot path grew a
/// real cost.
const OBSERVER_DISABLED_OVERHEAD_LIMIT: f64 = 0.02;

/// Re-measures a committed scaling point at its *committed* budget, so
/// the comparison is like-for-like even if the current budget formula
/// disagrees with the one the document was generated under. One
/// discarded warmup run precedes the measured one: the committed value
/// comes from `repro trajectory`, where every point runs in a process
/// already warm from the smaller points (allocator arenas mapped, page
/// tables populated), and a cold first run measures 20–30 % slower at
/// 300 K — which would eat the whole regression headroom as bias.
fn fresh_sample_for(json: &str, n: usize, opts: &ExperimentOptions) -> RunSample {
    let budget = extract_point_field(json, n, "budget")
        .map(|b| b as u64)
        .unwrap_or_else(|| point_budget(n, opts));
    let _ = measure_run(n, 0, budget, opts);
    measure_run(n, 0, budget, opts)
}

/// `repro trajectory-check` — the CI guard over the committed trajectory.
///
/// Asserts that the committed `BENCH_core.json` (1) carries the current
/// schema tag, (2) contains the 100 K-seed scaling point, (3) has not
/// been outrun at 30 K: a fresh measurement's `engine/growth_eval` p95 —
/// taken at the point's committed budget — must not exceed the committed
/// value by more than 25 %, (4) when a 300 K point is committed, the
/// round loop's scaling holds: a fresh 300 K run (committed budget) must
/// stay within its own, wider p95 headroom (50 % — see
/// `P95_300K_REGRESSION_HEADROOM`) *and* within 2× of the committed
/// wall time, and (5) the observers do not perturb the engine: a fresh
/// off/disabled/enabled comparison must produce byte-identical targets
/// with the disabled bus and sink within
/// `OBSERVER_DISABLED_OVERHEAD_LIMIT` (2 %) of the observer-absent wall
/// time.
/// Returns `true` when all checks pass; the caller turns `false` into a
/// non-zero exit.
pub fn check(opts: &ExperimentOptions, path: &Path) -> bool {
    super::experiments::banner("Trajectory check: committed BENCH_core.json vs fresh measurement");
    let json = match std::fs::read_to_string(path) {
        Ok(json) => json,
        Err(err) => {
            eprintln!("trajectory-check: cannot read {}: {err}", path.display());
            return false;
        }
    };
    let mut ok = true;
    if !json.contains("\"schema\": \"sixgen-bench-trajectory/v5\"") {
        eprintln!("trajectory-check: FAIL: schema tag is not sixgen-bench-trajectory/v5");
        ok = false;
    }
    // Any committed point whose output diverged from its reference — a
    // sharded rung vs the single-worker run, or an observer-overhead
    // variant vs the bus-absent run — is a determinism bug, not a perf
    // number.
    if json.contains("\"identical\": false") {
        eprintln!(
            "trajectory-check: FAIL: a committed point was not byte-identical to its \
             reference (sharded rung or observer_overhead variant)"
        );
        ok = false;
    }
    if extract_point_field(&json, 100_000, "wall_ms").is_none() {
        eprintln!("trajectory-check: FAIL: no 100000-seed scaling point committed");
        ok = false;
    }
    let Some(committed_p95) = extract_point_field(&json, 30_000, "growth_eval_p95_ms") else {
        eprintln!("trajectory-check: FAIL: no 30000-seed growth_eval_p95_ms committed");
        return false;
    };
    let fresh = fresh_sample_for(&json, 30_000, opts);
    let limit = committed_p95 * (1.0 + P95_REGRESSION_HEADROOM);
    println!(
        "30000 seeds: fresh growth_eval p95 {:.4} ms vs committed {committed_p95:.4} ms \
         (limit {limit:.4} ms, wall {:.1} ms)",
        fresh.p95_ms, fresh.wall_ms
    );
    if fresh.p95_ms > limit {
        eprintln!(
            "trajectory-check: FAIL: growth_eval p95 regressed more than {:.0}% \
             ({:.4} ms > {limit:.4} ms)",
            P95_REGRESSION_HEADROOM * 100.0,
            fresh.p95_ms
        );
        ok = false;
    }
    // 300 K scaling gate, active once the document carries the point.
    if let (Some(committed_p95), Some(committed_wall)) = (
        extract_point_field(&json, 300_000, "growth_eval_p95_ms"),
        extract_point_field(&json, 300_000, "wall_ms"),
    ) {
        let fresh = fresh_sample_for(&json, 300_000, opts);
        let p95_limit = committed_p95 * (1.0 + P95_300K_REGRESSION_HEADROOM);
        let wall_limit = committed_wall * (1.0 + WALL_300K_REGRESSION_HEADROOM);
        println!(
            "300000 seeds: fresh growth_eval p95 {:.4} ms vs committed {committed_p95:.4} ms \
             (limit {p95_limit:.4} ms), wall {:.1} ms vs committed {committed_wall:.1} ms \
             (limit {wall_limit:.1} ms)",
            fresh.p95_ms, fresh.wall_ms
        );
        if fresh.p95_ms > p95_limit {
            eprintln!(
                "trajectory-check: FAIL: 300K growth_eval p95 regressed more than {:.0}% \
                 ({:.4} ms > {p95_limit:.4} ms)",
                P95_300K_REGRESSION_HEADROOM * 100.0,
                fresh.p95_ms
            );
            ok = false;
        }
        if fresh.wall_ms > wall_limit {
            eprintln!(
                "trajectory-check: FAIL: 300K wall regressed more than {:.0}% \
                 ({:.1} ms > {wall_limit:.1} ms) — round-loop scaling broke",
                WALL_300K_REGRESSION_HEADROOM * 100.0,
                fresh.wall_ms
            );
            ok = false;
        }
    }
    // Observer non-perturbation gate: always measured fresh (like the
    // 30 K p95 gate) rather than compared against a committed number —
    // wall-clock ratios are machine-portable where absolute times are
    // not.
    let obs = observer_overhead(opts);
    println!(
        "observer overhead at {} seeds: off {:.1} ms, disabled {:.1} ms ({:+.2}%, \
         limit {:.0}%), enabled {:.1} ms ({:+.2}%), {} events, identical {}",
        obs.seeds,
        obs.off_wall_ms,
        obs.disabled_wall_ms,
        obs.disabled_overhead_frac * 100.0,
        OBSERVER_DISABLED_OVERHEAD_LIMIT * 100.0,
        obs.enabled_wall_ms,
        obs.enabled_overhead_frac * 100.0,
        obs.events,
        obs.identical
    );
    if !obs.identical {
        eprintln!(
            "trajectory-check: FAIL: observer variants (off/disabled/enabled) did not \
             produce byte-identical targets"
        );
        ok = false;
    }
    if obs.disabled_overhead_frac > OBSERVER_DISABLED_OVERHEAD_LIMIT {
        eprintln!(
            "trajectory-check: FAIL: disabled event bus and trace sink added {:.2}% wall \
             overhead (limit {:.0}%) — the disabled path must stay one relaxed load",
            obs.disabled_overhead_frac * 100.0,
            OBSERVER_DISABLED_OVERHEAD_LIMIT * 100.0
        );
        ok = false;
    }
    if ok {
        println!("trajectory-check: OK");
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_trajectory_has_stable_shape() {
        let opts = ExperimentOptions {
            quick: true,
            budget: 3_000,
            threads: 1,
            ..ExperimentOptions::default()
        };
        let t = collect(&opts);
        assert_eq!(
            t.seed_scaling.iter().map(|p| p.seeds).collect::<Vec<_>>(),
            vec![10, 100, 1_000]
        );
        assert!(t.seed_scaling.iter().all(|p| p.targets > 0));
        assert!(t.seed_scaling.iter().all(|p| p.growth_eval_p95_ms >= 0.0));
        assert!(t.seed_scaling.iter().all(|p| p.budget >= p.seeds as u64));
        assert!(t.seed_scaling.iter().all(|p| p.rounds > 0));
        assert!(t.seed_scaling.iter().all(|p| p.repeats == 1));
        // Every run spends time filling growth caches; the phase totals
        // must reflect that rather than read zero.
        assert!(t.seed_scaling.iter().all(|p| p.phase_ns.cache_fill > 0));
        assert!(t.budget_charge.items > 0 && t.budget_charge.per_sec > 0.0);
        assert!(t.tree_query.items == 1_000 && t.tree_query.per_sec > 0.0);
        // Sharded ladder: the quick world, measured at one worker and at
        // auto, both rungs byte-identical to the reference.
        assert_eq!(t.sharded.len(), 2);
        assert!(t.sharded.iter().all(|p| p.identical));
        assert!(t.sharded.iter().all(|p| p.prefixes == 8 && p.seeds == 1_000));
        assert_eq!(t.sharded[0].shards, 1);
        assert!(t.sharded.iter().all(|p| p.pool_jobs > 0));
        assert!(t.sharded.iter().all(|p| p.shard_wall_max_ms >= p.shard_wall_min_ms));
        // Same world, same global seed: both rungs agree on the
        // deterministic columns.
        assert_eq!(t.sharded[0].budget, t.sharded[1].budget);
        assert_eq!(t.sharded[0].epochs, t.sharded[1].epochs);
        // Observer overhead: quick mode measures the 1 K corpus once per
        // variant; whatever the timings, the variants must agree byte
        // for byte and the enabled run must actually have recorded.
        let o = &t.observer_overhead;
        assert_eq!(o.seeds, 1_000);
        assert_eq!(o.repeats, 1);
        assert!(o.identical);
        assert!(o.events > 0);
        assert!(o.off_wall_ms > 0.0 && o.disabled_wall_ms > 0.0 && o.enabled_wall_ms > 0.0);
        assert!(o.disabled_overhead_frac >= 0.0 && o.enabled_overhead_frac >= 0.0);
        let json = t.to_json();
        assert!(json.starts_with("{\n  \"schema\": \"sixgen-bench-trajectory/v5\""));
        assert!(json.contains("\"observer_overhead\""));
        assert!(json.contains("\"disabled_overhead_frac\""));
        assert!(json.contains("\"seed_scaling\""));
        assert!(json.contains("\"sharded\""));
        assert!(json.contains("\"shard_wall_max_ms\""));
        assert!(json.contains("\"identical\": true"));
        assert!(!json.contains("\"identical\": false"));
        assert!(json.contains("\"growth_eval_p95_ms\""));
        assert!(json.contains("\"phase_ns\""));
        assert!(json.contains("\"budget_charge\""));
        assert!(json.contains("\"tree_query\""));
        assert!(json.ends_with("}\n"));
        // The check-mode extractor round-trips the emitted document.
        let p = &t.seed_scaling[2];
        assert_eq!(
            extract_point_field(&json, p.seeds, "targets"),
            Some(p.targets as f64)
        );
        assert_eq!(
            extract_point_field(&json, p.seeds, "budget"),
            Some(p.budget as f64)
        );
        assert_eq!(
            extract_point_field(&json, p.seeds, "rounds"),
            Some(p.rounds as f64)
        );
        assert_eq!(
            extract_point_field(&json, p.seeds, "select"),
            Some(p.phase_ns.select as f64)
        );
        let wall = extract_point_field(&json, p.seeds, "wall_ms").unwrap();
        assert!((wall - p.wall_ms).abs() < 0.001);
        assert_eq!(extract_point_field(&json, 999, "wall_ms"), None);
        assert_eq!(extract_point_field(&json, p.seeds, "no_such_field"), None);
    }

    #[test]
    fn extract_point_field_parses_committed_layout() {
        let json = "{\n  \"schema\": \"sixgen-bench-trajectory/v3\",\n  \"seed_scaling\": [\n    \
                    {\"seeds\": 30000, \"budget\": 50000, \"wall_ms\": 6077.133, \
                    \"cpu_ms\": 6021.0, \"growth_eval_p95_ms\": 0.123456, \"targets\": 50000, \
                    \"rounds\": 3574, \"repeats\": 3, \"phase_ns\": {\"cache_fill\": 600000000, \
                    \"select\": 60000000, \"commit\": 30000000, \"subsume\": 70000000}},\n    \
                    {\"seeds\": 100000, \"budget\": 150000, \"wall_ms\": 20000.5, \
                    \"cpu_ms\": 19000.0, \"growth_eval_p95_ms\": 0.2, \"targets\": 150000, \
                    \"rounds\": 12470, \"repeats\": 3, \"phase_ns\": {\"cache_fill\": 3400000000, \
                    \"select\": 650000000, \"commit\": 130000000, \"subsume\": 300000000}}\n  ]\n}\n";
        assert_eq!(
            extract_point_field(json, 30_000, "growth_eval_p95_ms"),
            Some(0.123456)
        );
        assert_eq!(extract_point_field(json, 100_000, "wall_ms"), Some(20000.5));
        assert_eq!(extract_point_field(json, 30_000, "budget"), Some(50000.0));
        assert_eq!(extract_point_field(json, 100_000, "rounds"), Some(12470.0));
        assert_eq!(
            extract_point_field(json, 30_000, "cache_fill"),
            Some(600000000.0)
        );
        assert_eq!(extract_point_field(json, 10_000, "wall_ms"), None);
    }
}
