//! Differential tests for the sharded driver: a fleet run on N workers
//! must be byte-identical to the single-worker reference — same merged
//! target stream, same per-shard growth counts, same deterministic
//! metrics, same checkpoints (timing fields zeroed) — in both cluster
//! modes; plus budget-conservation, resume-mid-fleet, and cancellation
//! behavior checks, cut fleets resuming to the uninterrupted one among
//! them.

mod common;

use common::{staggered_world, streamed_spans, traced_sink, world, Capture};
use sixgen_addr::NybbleAddr;
use sixgen_core::{
    run_sharded, shard_rng_seed, split_proportional, CancelToken, ClusterMode, Config, Fleet,
    PanicInjection, ShardSpec, ShardedCheckpoint, ShardedOutcome,
};
use sixgen_obs::{MetricsRegistry, TraceSink};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

fn config(mode: ClusterMode, budget: u64) -> Config {
    Config {
        budget,
        mode,
        rng_seed: 0x5EED_CAFE,
        ..Config::default()
    }
}

/// Zeroes the scheduling-dependent fields of a fleet checkpoint so the
/// remainder can be compared bit-for-bit across worker counts.
fn canonical(mut env: ShardedCheckpoint) -> Vec<u8> {
    for shard in &mut env.shards {
        shard.engine.cpu_time = std::time::Duration::ZERO;
        shard.engine.wall_time = std::time::Duration::ZERO;
    }
    env.to_bytes()
}

fn assert_same_fleet(reference: &ShardedOutcome, other: &ShardedOutcome, label: &str) {
    assert_eq!(reference.targets, other.targets, "{label}: merged targets");
    assert_eq!(
        reference.shards.len(),
        other.shards.len(),
        "{label}: shard count"
    );
    for (a, b) in reference.shards.iter().zip(&other.shards) {
        assert_eq!(a.prefix, b.prefix, "{label}: shard order");
        assert_eq!(a.lease, b.lease, "{label}: lease for {}", a.prefix);
        assert_eq!(a.returned, b.returned, "{label}: returned for {}", a.prefix);
        let det = |s: &sixgen_core::RunStats| {
            (
                s.rounds,
                s.growths,
                s.subsumed,
                s.budget_used,
                s.budget,
                s.seed_count,
                s.termination,
            )
        };
        assert_eq!(
            det(&a.outcome.stats),
            det(&b.outcome.stats),
            "{label}: stats for {}",
            a.prefix
        );
        assert_eq!(
            a.outcome.targets.as_slice(),
            b.outcome.targets.as_slice(),
            "{label}: targets for {}",
            a.prefix
        );
    }
    assert_eq!(
        reference.stats.budget_used, other.stats.budget_used,
        "{label}: budget_used"
    );
    assert_eq!(reference.stats.epochs, other.stats.epochs, "{label}: epochs");
    assert_eq!(
        reference.stats.pool_unassigned, other.stats.pool_unassigned,
        "{label}: pool remainder"
    );
}

/// Tentpole invariant: worker count never changes anything observable.
/// Compares workers ∈ {2, 4, 8} against the single-worker reference in
/// both modes — outputs, deterministic metrics, and every barrier
/// checkpoint (timing zeroed) — on a fleet whose shards spend their
/// initial leases and on one whose pool grants budget after epoch 0.
#[test]
fn sharded_run_is_byte_identical_for_any_worker_count() {
    let mut re_leases = 0;
    for (mode, specs) in [
        (ClusterMode::Loose, world(8, 40)),
        (ClusterMode::Tight, world(8, 40)),
        (ClusterMode::Loose, staggered_world(6)),
        (ClusterMode::Tight, staggered_world(6)),
    ] {
        let run = |workers: usize| {
            let metrics = Arc::new(MetricsRegistry::new());
            let mut checkpoints: Vec<Vec<u8>> = Vec::new();
            let cfg = Config {
                metrics: Some(metrics.clone()),
                ..config(mode, 3_000)
            };
            let outcome = Fleet::start(specs.clone(), cfg, workers)
                .run_with(|fleet| checkpoints.push(canonical(fleet.checkpoint())));
            (outcome, metrics.deterministic_json(), checkpoints)
        };
        let (reference, ref_metrics, ref_checkpoints) = run(1);
        re_leases += usize::from(re_leased(&specs, &reference, 3_000));
        for workers in [2, 4, 8] {
            let label = format!("{mode:?}/{} shards/workers={workers}", specs.len());
            let (outcome, metrics, checkpoints) = run(workers);
            assert_same_fleet(&reference, &outcome, &label);
            assert_eq!(ref_metrics, metrics, "{label}: deterministic metrics");
            assert_eq!(ref_checkpoints, checkpoints, "{label}: barrier checkpoints");
            assert_eq!(outcome.stats.workers, workers, "{label}: worker count");
        }
    }
    assert!(re_leases > 0, "no fleet was granted budget after epoch 0");
}

/// Whether the pool granted some shard budget after epoch 0: its final
/// lease exceeds its initial proportional slice of `budget`.
fn re_leased(specs: &[ShardSpec], outcome: &ShardedOutcome, budget: u64) -> bool {
    let shares: Vec<u64> = specs
        .iter()
        .map(|spec| {
            let mut seeds = spec.seeds.clone();
            seeds.sort_unstable();
            seeds.dedup();
            seeds.len() as u64
        })
        .collect();
    let initial = split_proportional(budget, &shares);
    outcome
        .shards
        .iter()
        .zip(initial)
        .any(|(shard, slice)| shard.lease > slice)
}

/// The global budget is exactly honored: when demand suffices the fleet
/// generates exactly `budget` unique addresses (per shard), never more,
/// and unassigned pool + used always reconcile to the global budget.
#[test]
fn global_budget_is_exactly_honored() {
    for budget in [50, 500, 2_000, 10_000] {
        let outcome = run_sharded(world(6, 30), config(ClusterMode::Loose, budget), 4);
        assert_eq!(
            outcome.stats.budget_used + outcome.stats.pool_unassigned,
            budget,
            "conservation at budget {budget}"
        );
        assert_eq!(
            outcome.targets.len() as u64,
            outcome.stats.budget_used,
            "merged stream length at budget {budget}"
        );
        let demand: u128 = outcome
            .shards
            .iter()
            .flat_map(|s| s.outcome.clusters.iter())
            .map(|c| c.range.size())
            .sum();
        if demand >= budget as u128 {
            assert_eq!(outcome.stats.budget_used, budget, "exact use at {budget}");
        }
    }
}

/// The settled prefix a fleet streams from comes from the fleet's own
/// shard states, with no event bus configured: before the run and at
/// every barrier `targets_so_far` extends the list read before it, and
/// at the last barrier it is the merged target list. Some barrier holds
/// a finished shard's full list ahead of a running shard's committed
/// prefix.
#[test]
fn targets_so_far_is_the_settled_prefix_of_the_merge() {
    for workers in [1, 4] {
        let cfg = config(ClusterMode::Loose, 3_000);
        assert!(cfg.events.is_none());
        let fleet = Fleet::start(staggered_world(6), cfg, workers);
        let mut settled: Vec<Vec<NybbleAddr>> = vec![fleet.targets_so_far()];
        let outcome = fleet.run_with(|fleet| settled.push(fleet.targets_so_far()));
        for (i, pair) in settled.windows(2).enumerate() {
            assert!(
                pair[1].starts_with(&pair[0]),
                "workers={workers}: barrier {} does not extend the list before it",
                i + 1
            );
        }
        assert_eq!(
            settled.last(),
            Some(&outcome.targets),
            "workers={workers}: the last barrier's prefix is the merge"
        );
        let first_shard = outcome.shards[0].outcome.targets.len();
        assert!(
            settled
                .iter()
                .any(|list| list.len() > first_shard && list.len() < outcome.targets.len()),
            "workers={workers}: no barrier settled one shard but not all"
        );
    }
}

/// Per-shard RNG streams are pure functions of (global seed, prefix):
/// stable across calls and decorrelated across prefixes.
#[test]
fn shard_rng_seeds_are_stable_and_distinct() {
    let specs = world(8, 4);
    let seeds: Vec<u64> = specs
        .iter()
        .map(|s| shard_rng_seed(0xABCD, s.prefix))
        .collect();
    let again: Vec<u64> = specs
        .iter()
        .map(|s| shard_rng_seed(0xABCD, s.prefix))
        .collect();
    assert_eq!(seeds, again);
    let mut dedup = seeds.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), seeds.len(), "prefix seeds collide");
    assert_ne!(
        shard_rng_seed(0xABCE, specs[0].prefix),
        seeds[0],
        "global seed must matter"
    );
}

/// Interrupting a fleet at any barrier and resuming from the envelope
/// (through bytes) reproduces the uninterrupted fleet exactly, also when
/// the pool re-leases budget between barriers.
#[test]
fn resume_mid_fleet_matches_uninterrupted_run() {
    let cfg = config(ClusterMode::Loose, 1_500);
    let mut re_leases = 0;
    for specs in [world(6, 24), staggered_world(6)] {
        let mut envelopes: Vec<ShardedCheckpoint> = Vec::new();
        let reference = Fleet::start(specs.clone(), cfg.clone(), 1)
            .run_with(|fleet| envelopes.push(fleet.checkpoint()));
        assert!(envelopes.len() >= 2, "need at least two barriers to test");
        re_leases += usize::from(re_leased(&specs, &reference, cfg.budget));
        // Resume from every barrier, the final one included (after which
        // the fleet is already finished — resuming from it must also work
        // and simply re-derive the terminations).
        for (i, env) in envelopes.iter().enumerate() {
            let bytes = env.to_bytes();
            let env = ShardedCheckpoint::from_bytes(&bytes).expect("round-trip");
            let resumed = Fleet::resume(env, cfg.clone(), 3).expect("resume").run();
            let label = format!("{} shards, barrier {i}", specs.len());
            assert_same_fleet_outputs(&reference, &resumed, &label);
        }
    }
    assert!(re_leases > 0, "no fleet was granted budget after epoch 0");
}

/// Like [`assert_same_fleet`] but ignores epoch counts: a resumed fleet
/// may take a different number of epochs to re-derive terminations, yet
/// must produce the same outputs and budget accounting.
fn assert_same_fleet_outputs(reference: &ShardedOutcome, other: &ShardedOutcome, label: &str) {
    assert_eq!(reference.targets, other.targets, "{label}: merged targets");
    for (a, b) in reference.shards.iter().zip(&other.shards) {
        assert_eq!(a.prefix, b.prefix, "{label}: shard order");
        assert_eq!(
            a.outcome.targets.as_slice(),
            b.outcome.targets.as_slice(),
            "{label}: targets for {}",
            a.prefix
        );
        assert_eq!(
            a.outcome.stats.termination, b.outcome.stats.termination,
            "{label}: termination for {}",
            a.prefix
        );
    }
    assert_eq!(
        reference.stats.budget_used, other.stats.budget_used,
        "{label}: budget_used"
    );
    assert_eq!(
        reference.stats.pool_unassigned, other.stats.pool_unassigned,
        "{label}: pool remainder"
    );
}

/// Raising the global budget on resume routes the new headroom through
/// the pool to hungry shards — equivalent in total use to a fleet that
/// had the larger budget all along.
#[test]
fn resume_with_raised_budget_spends_the_extra() {
    let specs = world(4, 20);
    let small = config(ClusterMode::Loose, 200);
    let mut envelopes: Vec<ShardedCheckpoint> = Vec::new();
    Fleet::start(specs.clone(), small.clone(), 1)
        .run_with(|fleet| envelopes.push(fleet.checkpoint()));
    let large = Config {
        budget: 5_000,
        ..small.clone()
    };
    let resumed = Fleet::resume(envelopes[0].clone(), large.clone(), 2)
        .expect("resume")
        .run();
    let unbroken = run_sharded(specs, large, 1);
    assert_eq!(
        resumed.stats.budget_used + resumed.stats.pool_unassigned,
        5_000,
        "conservation after top-up"
    );
    assert!(
        resumed.stats.budget_used > 200,
        "top-up budget was never spent"
    );
    assert_eq!(
        resumed.stats.budget_used, unbroken.stats.budget_used,
        "total use matches the always-large fleet"
    );
}

/// A mismatched global seed or a lowered budget is rejected.
#[test]
fn resume_rejects_mismatched_config() {
    let cfg = config(ClusterMode::Loose, 400);
    let mut envelopes: Vec<ShardedCheckpoint> = Vec::new();
    Fleet::start(world(3, 10), cfg.clone(), 1).run_with(|fleet| envelopes.push(fleet.checkpoint()));
    let env = envelopes[0].clone();
    let wrong_seed = Config {
        rng_seed: cfg.rng_seed ^ 1,
        ..cfg.clone()
    };
    assert!(Fleet::resume(env.clone(), wrong_seed, 1).is_err());
    let shrunk = Config {
        budget: 100,
        ..cfg.clone()
    };
    assert!(Fleet::resume(env, shrunk, 1).is_err());
}

/// The lease ledger of a finished fleet: the shards used no more than
/// they hold (`lease − returned`), and what they hold plus the pool is
/// the global budget. Interrupted shards keep their leases, so this is
/// the conservation law that holds for cut fleets too.
fn assert_ledger(outcome: &ShardedOutcome, budget: u64, label: &str) {
    let held: u64 = outcome.shards.iter().map(|s| s.lease - s.returned).sum();
    assert!(
        outcome.stats.budget_used <= held,
        "{label}: shards used {} of the {held} they hold",
        outcome.stats.budget_used
    );
    assert_eq!(
        held + outcome.stats.pool_unassigned,
        budget,
        "{label}: held leases plus the pool"
    );
}

/// Cancellation stops the fleet at the next round boundary of every
/// shard; the partial outcome is well-formed (the lease ledger holds,
/// every shard reports Cancelled or a genuine earlier termination).
#[test]
fn cancellation_stops_the_fleet_cleanly() {
    let token = CancelToken::new();
    token.cancel();
    let cfg = Config {
        cancel: Some(token),
        ..config(ClusterMode::Loose, 5_000)
    };
    let budget = cfg.budget;
    let outcome = run_sharded(world(5, 20), cfg, 3);
    assert_ledger(&outcome, budget, "cancellation");
    use sixgen_core::Termination;
    for shard in &outcome.shards {
        assert!(
            matches!(
                shard.outcome.stats.termination,
                Termination::Cancelled
                    | Termination::BudgetExhausted
                    | Termination::AllSeedsClustered
            ),
            "shard {} terminated oddly: {:?}",
            shard.prefix,
            shard.outcome.stats.termination
        );
    }
}

/// A fleet cut by a cancel from its barrier hook, at each barrier in
/// turn, or by a zero time limit, at 2 and at 4 workers, resumes from its
/// last envelope to the uninterrupted fleet's targets and per-shard
/// terminations: an interrupted shard keeps its lease, so the resumed
/// fleet leases out no address twice.
#[test]
fn a_cut_fleet_resumes_to_the_uninterrupted_run() {
    use sixgen_core::Termination;
    let cfg = config(ClusterMode::Loose, 1_500);
    let specs = staggered_world(6);
    let mut barriers = 0;
    let reference = Fleet::start(specs.clone(), cfg.clone(), 1).run_with(|_| barriers += 1);
    assert!(barriers >= 3, "need barriers to cut at");
    // Runs `cut`, cancelling it at barrier `cancel_at` if given, checks
    // the cut fleet's ledger and resumes its last envelope, through bytes,
    // with the uncut config.
    let cut_and_resume = |cut: Config, cancel_at: Option<usize>, workers: usize, label: &str| {
        let token = cut.cancel.clone();
        let mut barrier = 0;
        let mut last = None;
        let outcome = Fleet::start(specs.clone(), cut, workers).run_with(|fleet| {
            if cancel_at == Some(barrier) {
                token.as_ref().expect("a cancel token").cancel();
            }
            barrier += 1;
            last = Some(fleet.checkpoint().to_bytes());
        });
        assert_ledger(&outcome, cfg.budget, label);
        let envelope = ShardedCheckpoint::from_bytes(&last.expect("a barrier")).expect("decode");
        let resumed = Fleet::resume(envelope, cfg.clone(), workers)
            .expect("resume")
            .run();
        assert_same_fleet_outputs(&reference, &resumed, label);
        outcome
    };
    for workers in [2, 4] {
        for at in 0..barriers {
            let cut = Config {
                cancel: Some(CancelToken::new()),
                ..cfg.clone()
            };
            let label = format!("workers={workers}, cancelled at barrier {at}");
            let outcome = cut_and_resume(cut, Some(at), workers, &label);
            let cancelled = outcome
                .shards
                .iter()
                .any(|s| s.outcome.stats.termination == Termination::Cancelled);
            assert_eq!(
                cancelled,
                at + 1 < barriers,
                "{label}: a shard was cancelled"
            );
        }
        let cut = Config {
            time_limit: Some(Duration::ZERO),
            ..cfg.clone()
        };
        let label = format!("workers={workers}, zero time limit");
        let outcome = cut_and_resume(cut, None, workers, &label);
        assert!(
            outcome
                .shards
                .iter()
                .all(|s| s.outcome.stats.termination == Termination::Deadline && s.returned == 0),
            "{label}: every shard stops on its deadline and keeps its lease"
        );
    }
}

/// Degenerate fleets: an empty spec list, and single-shard fleets,
/// behave sensibly (the latter matching a plain engine run's targets).
#[test]
fn degenerate_fleets() {
    let empty = run_sharded(Vec::new(), config(ClusterMode::Loose, 100), 2);
    assert!(empty.targets.is_empty());
    assert_eq!(empty.stats.pool_unassigned, 100);

    let specs = world(1, 30);
    let cfg = config(ClusterMode::Loose, 600);
    let fleet = run_sharded(specs.clone(), cfg.clone(), 2);
    let plain = sixgen_core::SixGen::new(
        specs[0].seeds.clone(),
        Config {
            rng_seed: shard_rng_seed(cfg.rng_seed, specs[0].prefix),
            budget: 600,
            ..cfg
        },
    )
    .run();
    assert_eq!(fleet.targets, plain.targets.as_slice().to_vec());
}

/// Every shard session's `engine/run` span nests under the fleet's
/// `sharded/run` span, in a fresh fleet and in a resumed one.
#[test]
fn shard_engine_spans_nest_under_the_fleet_root() {
    let traced = |sink: &Arc<TraceSink>| Config {
        trace: Some(Arc::clone(sink)),
        ..config(ClusterMode::Loose, 400)
    };
    let assert_nested = |sink: &TraceSink, capture: &Capture, label: &str| {
        let spans = streamed_spans(sink, capture);
        let roots: Vec<u64> = spans
            .iter()
            .filter(|s| s.category == "sharded" && s.name == "run")
            .map(|s| s.id)
            .collect();
        assert_eq!(roots.len(), 1, "{label}: one fleet root");
        let parents: Vec<u64> = spans
            .iter()
            .filter(|s| s.category == "engine" && s.name == "run")
            .map(|s| s.parent)
            .collect();
        assert_eq!(parents, [roots[0]; 2], "{label}: engine/run parents");
    };
    let (fresh, capture) = traced_sink();
    let mut envelopes: Vec<ShardedCheckpoint> = Vec::new();
    Fleet::start(world(2, 20), traced(&fresh), 2)
        .run_with(|fleet| envelopes.push(fleet.checkpoint()));
    assert_nested(&fresh, &capture, "fresh");
    let (resumed, capture) = traced_sink();
    Fleet::resume(envelopes[0].clone(), traced(&resumed), 2)
        .expect("resume")
        .run();
    assert_nested(&resumed, &capture, "resumed");
}

/// A shard whose step panics fails the whole fleet with its own panic,
/// re-raised on the calling thread. With one thread per session the
/// cache fill runs serially, outside any `catch_unwind`, so the
/// injected panic escapes `Session::step` inside the shard's pool job.
#[test]
fn a_panicking_shard_fails_the_fleet_with_its_own_message() {
    let cfg = Config {
        threads: 1,
        panic_injection: Some(PanicInjection {
            range_size: 1,
            parallel_only: false,
        }),
        ..config(ClusterMode::Loose, 400)
    };
    let payload = catch_unwind(AssertUnwindSafe(|| run_sharded(world(2, 20), cfg, 2)))
        .expect_err("the injected panic fails the fleet");
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
    assert_eq!(message, Some("injected growth panic (test hook)"));
}
