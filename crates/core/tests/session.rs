//! Session-level guarantees: checkpoint/resume determinism, cooperative
//! cancellation, and budget top-up.
//!
//! The central claim under test: a run interrupted at **any** round
//! boundary and resumed from its checkpoint — in what may as well be a
//! different process, since the checkpoint passes through its serialized
//! byte form — produces byte-identical targets, clusters, cumulative
//! stats, and deterministic metrics to the run that was never
//! interrupted.

use proptest::prelude::*;
use sixgen_addr::NybbleAddr;
use sixgen_core::{
    CancelToken, ClusterMode, Config, EngineCheckpoint, Outcome, ResumeError, Session, SixGen,
    Step, Termination,
};
use sixgen_obs::MetricsRegistry;
use std::sync::Arc;

/// Ten dense groups of three seeds each (hosts 0–2 in the last nybble),
/// with group prefixes `0x111, 0x222, … 0xAAA` — pairwise distant in
/// *three* nybbles, so bridging groups is never competitive and every
/// group grows independently. That yields a ten-growth ladder, all
/// growths with the same density, so the selection scan's tie-break draws
/// from the run RNG every round: the run is both long enough to interrupt
/// at many boundaries and sensitive to any error in RNG-state restore.
fn seeds() -> Vec<NybbleAddr> {
    (0..30u32)
        .map(|i| {
            let group = (i / 3 + 1) as u128 * 0x111;
            let host = (i % 3) as u128;
            NybbleAddr::from_bits(0x2001_0db8 << 96 | group << 4 | host)
        })
        .collect()
}

fn config(mode: ClusterMode, budget: u64) -> Config {
    Config {
        mode,
        budget,
        ..Config::default()
    }
}

/// Steps a fresh session exactly `k` rounds (fewer if the run terminates
/// first), then returns its checkpoint **after a serialization round
/// trip** — every resume in these tests goes through bytes, as a real
/// crash recovery would.
fn checkpoint_after(cfg: &Config, k: u64) -> EngineCheckpoint {
    let mut session = SixGen::new(seeds(), cfg.clone()).session();
    for _ in 0..k {
        if let Step::Done(_) = session.step() {
            break;
        }
    }
    let bytes = session.checkpoint().to_bytes();
    drop(session); // the "killed" process: no finish(), no metrics export
    EngineCheckpoint::from_bytes(&bytes).expect("checkpoint must decode")
}

fn assert_same_logical_run(baseline: &Outcome, resumed: &Outcome) {
    assert_eq!(baseline.targets.as_slice(), resumed.targets.as_slice());
    assert_eq!(baseline.clusters.len(), resumed.clusters.len());
    for (b, r) in baseline.clusters.iter().zip(&resumed.clusters) {
        assert_eq!(b.range, r.range);
        assert_eq!(b.seed_count, r.seed_count);
        assert_eq!(b.range_size, r.range_size);
    }
    assert_eq!(baseline.stats.rounds, resumed.stats.rounds);
    assert_eq!(baseline.stats.growths, resumed.stats.growths);
    assert_eq!(baseline.stats.subsumed, resumed.stats.subsumed);
    assert_eq!(baseline.stats.budget_used, resumed.stats.budget_used);
    assert_eq!(baseline.stats.budget, resumed.stats.budget);
    assert_eq!(baseline.stats.seed_count, resumed.stats.seed_count);
    assert_eq!(baseline.stats.termination, resumed.stats.termination);
    assert_eq!(baseline.stats.worker_panics, resumed.stats.worker_panics);
}

/// The tentpole differential: interrupt at every possible round boundary.
#[test]
fn resume_at_every_round_is_byte_identical() {
    for mode in [ClusterMode::Loose, ClusterMode::Tight] {
        let cfg = config(mode, 300);

        // Uninterrupted baseline with its own registry.
        let baseline_registry = MetricsRegistry::shared();
        let baseline = SixGen::new(
            seeds(),
            Config {
                metrics: Some(Arc::clone(&baseline_registry)),
                ..cfg.clone()
            },
        )
        .run();
        let total_rounds = baseline.stats.rounds;
        assert!(total_rounds > 3, "test needs a multi-round run");

        for k in 0..total_rounds {
            // Segment 1: run k rounds under a registry shared with the
            // resumed segment, then "crash" (drop without finishing).
            let registry = MetricsRegistry::shared();
            let mut session = SixGen::new(
                seeds(),
                Config {
                    metrics: Some(Arc::clone(&registry)),
                    ..cfg.clone()
                },
            )
            .session();
            for _ in 0..k {
                assert_eq!(session.step(), Step::Grew, "boundary {k} not reachable");
            }
            let bytes = session.checkpoint().to_bytes();
            drop(session);

            // Segment 2: decode, resume, run to completion.
            let checkpoint = EngineCheckpoint::from_bytes(&bytes).unwrap();
            let resumed = Session::resume(
                checkpoint,
                Config {
                    metrics: Some(Arc::clone(&registry)),
                    ..cfg.clone()
                },
            )
            .unwrap()
            .run();

            assert_same_logical_run(&baseline, &resumed);
            // Restored caches mean zero replayed work: the shared
            // registry's deterministic section (recompute counters,
            // candidate histograms, run count) matches the uninterrupted
            // run's byte for byte.
            assert_eq!(
                baseline_registry.deterministic_json(),
                registry.deterministic_json(),
                "deterministic metrics diverged at boundary {k} ({mode:?})"
            );
        }
    }
}

/// Resuming under parallel growth evaluation matches a serial baseline.
#[test]
fn resume_is_thread_count_independent() {
    let cfg = config(ClusterMode::Loose, 300);
    let baseline = SixGen::new(seeds(), cfg.clone()).run();
    let checkpoint = checkpoint_after(&cfg, 3);
    let resumed = Session::resume(
        checkpoint,
        Config {
            threads: 4,
            ..cfg
        },
    )
    .unwrap()
    .run();
    assert_same_logical_run(&baseline, &resumed);
}

/// A chain of interruptions (kill, resume, kill again, resume again)
/// still converges to the baseline.
#[test]
fn repeated_interruption_chains_compose() {
    let cfg = config(ClusterMode::Loose, 300);
    let baseline = SixGen::new(seeds(), cfg.clone()).run();

    let mut session = SixGen::new(seeds(), cfg.clone()).session();
    let mut hops = 0;
    let outcome = loop {
        match session.step() {
            Step::Grew => {
                // Kill and resume at every second boundary.
                if session.growths().is_multiple_of(2) {
                    let bytes = session.checkpoint().to_bytes();
                    drop(session);
                    hops += 1;
                    session = Session::resume(
                        EngineCheckpoint::from_bytes(&bytes).unwrap(),
                        cfg.clone(),
                    )
                    .unwrap();
                }
            }
            Step::Done(_) => break session.finish(),
            Step::NeedsBudget => unreachable!("deferred exhaustion is off by default"),
        }
    };
    assert!(hops >= 2, "chain exercised {hops} hops");
    assert_same_logical_run(&baseline, &outcome);
}

/// Budget top-up: a run checkpointed before its small budget mattered,
/// resumed with a larger budget, equals an uninterrupted large-budget run.
#[test]
fn resume_with_topped_up_budget_matches_unbroken_large_budget_run() {
    let small = config(ClusterMode::Loose, 60);
    let large = config(ClusterMode::Loose, 300);
    let baseline = SixGen::new(seeds(), large.clone()).run();

    // Boundary 1: only the seeds and one growth charged — behavior so far
    // is identical under either budget.
    let checkpoint = checkpoint_after(&small, 1);
    assert_eq!(checkpoint.budget, 60);
    let resumed = Session::resume(checkpoint, large).unwrap().run();
    assert_same_logical_run(&baseline, &resumed);
    assert_eq!(resumed.stats.budget, 300);
}

/// Shrinking the budget below what was already generated is refused.
#[test]
fn resume_refuses_budget_below_used() {
    let cfg = config(ClusterMode::Loose, 300);
    let checkpoint = checkpoint_after(&cfg, 2);
    let used = checkpoint.generated.len() as u64;
    assert!(used > 10);
    let err = Session::resume(checkpoint, config(ClusterMode::Loose, 10)).unwrap_err();
    assert_eq!(
        err,
        ResumeError::BudgetBelowUsed {
            used,
            budget: 10
        }
    );
}

/// Every determinism-fingerprint mismatch is refused with a named field.
#[test]
fn resume_refuses_fingerprint_mismatches() {
    let cfg = config(ClusterMode::Loose, 300);
    let checkpoint = checkpoint_after(&cfg, 2);

    let err = Session::resume(checkpoint.clone(), config(ClusterMode::Tight, 300)).unwrap_err();
    assert_eq!(err, ResumeError::ConfigMismatch { field: "mode" });

    let err = Session::resume(
        checkpoint.clone(),
        Config {
            rng_seed: 999,
            ..cfg.clone()
        },
    )
    .unwrap_err();
    assert_eq!(err, ResumeError::ConfigMismatch { field: "rng_seed" });

    // A structurally violated (hand-tampered) checkpoint is refused too.
    let mut tampered = checkpoint;
    tampered.stale.clear();
    assert!(matches!(
        Session::resume(tampered, cfg).unwrap_err(),
        ResumeError::Corrupt(_)
    ));
}

/// A pre-cancelled token stops the run on its first round with a
/// well-formed partial outcome.
#[test]
fn cancel_before_first_round_yields_valid_partial_outcome() {
    let token = CancelToken::new();
    token.cancel();
    let outcome = SixGen::new(
        seeds(),
        Config {
            cancel: Some(token),
            ..config(ClusterMode::Loose, 100_000)
        },
    )
    .run();
    assert_eq!(outcome.stats.termination, Termination::Cancelled);
    assert_eq!(outcome.stats.growths, 0);
    assert_eq!(outcome.stats.rounds, 1, "cancelled during round one");
    for &s in &seeds() {
        assert!(outcome.targets.contains(s), "seed {s} missing from targets");
        assert!(
            outcome.clusters.iter().any(|c| c.range.contains(s)),
            "seed {s} not covered by any cluster"
        );
    }
}

/// Cancel mid-run, checkpoint at the last boundary, resume without the
/// token: the completed run is byte-identical to one never cancelled.
#[test]
fn cancel_then_resume_loses_no_work() {
    let cfg = config(ClusterMode::Loose, 300);
    let baseline = SixGen::new(seeds(), cfg.clone()).run();

    let token = CancelToken::new();
    let mut saved: Option<Vec<u8>> = None;
    let cancelled = SixGen::new(
        seeds(),
        Config {
            cancel: Some(token.clone()),
            ..cfg.clone()
        },
    )
    .session()
    .run_with(|session| {
        if session.growths() == 3 {
            saved = Some(session.checkpoint().to_bytes());
            token.cancel();
        }
    });
    assert_eq!(cancelled.stats.termination, Termination::Cancelled);
    assert_eq!(cancelled.stats.growths, 3);
    // rounds counts the cancelled round too (it started, then stopped).
    assert_eq!(cancelled.stats.rounds, 4);

    let checkpoint = EngineCheckpoint::from_bytes(&saved.expect("hook ran")).unwrap();
    let resumed = Session::resume(checkpoint, cfg).unwrap().run();
    assert_same_logical_run(&baseline, &resumed);
}

/// An uncancelled token perturbs nothing.
#[test]
fn unfired_token_is_invisible() {
    let cfg = config(ClusterMode::Loose, 300);
    let bare = SixGen::new(seeds(), cfg.clone()).run();
    let with_token = SixGen::new(
        seeds(),
        Config {
            cancel: Some(CancelToken::new()),
            ..cfg
        },
    )
    .run();
    assert_same_logical_run(&bare, &with_token);
}

/// Worker-panic recovery composes with resume: a resumed segment whose
/// parallel workers panic (and fail over serially) still reproduces the
/// uninterrupted, uninjected run.
///
/// Parallel evaluation only engages with ≥ 64 stale clusters, which after
/// round one never happens (exactly one cluster goes stale per commit) —
/// so this uses a 90-seed set and resumes at boundary 0, making the
/// resumed segment's first round the parallel, panic-injected one.
#[test]
fn resume_with_injected_worker_panics_still_matches() {
    let big_seeds: Vec<NybbleAddr> = (0..90u32)
        .map(|i| {
            let group = (i / 3 + 1) as u128 * 0x111;
            let host = (i % 3) as u128;
            NybbleAddr::from_bits(0x2001_0db8 << 96 | group << 4 | host)
        })
        .collect();
    let cfg = Config {
        threads: 4,
        ..config(ClusterMode::Loose, 600)
    };
    let baseline = SixGen::new(big_seeds.clone(), cfg.clone()).run();

    let session = SixGen::new(big_seeds, cfg.clone()).session();
    let bytes = session.checkpoint().to_bytes();
    drop(session);
    let resumed = Session::resume(
        EngineCheckpoint::from_bytes(&bytes).unwrap(),
        Config {
            panic_injection: Some(sixgen_core::PanicInjection {
                range_size: 1,
                parallel_only: true,
            }),
            ..cfg
        },
    )
    .unwrap()
    .run();
    assert!(resumed.stats.worker_panics > 0, "injection must have fired");
    assert_eq!(baseline.targets.as_slice(), resumed.targets.as_slice());
    assert_eq!(baseline.stats.growths, resumed.stats.growths);
    assert_eq!(baseline.stats.termination, resumed.stats.termination);
}

/// Seed sets with realistic structure (mirrors the engine proptests).
fn arb_seeds() -> impl Strategy<Value = Vec<NybbleAddr>> {
    prop::collection::vec((0u8..6, 0u8..255), 1..60).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(group, host)| {
                NybbleAddr::from_bits(
                    0x2001_0db8_0000_0000_0000_0000_0000_0000u128
                        | ((group as u128) << 16)
                        | host as u128,
                )
            })
            .collect()
    })
}

fn arb_config() -> impl Strategy<Value = Config> {
    (1u64..2000, any::<bool>(), any::<u64>()).prop_map(|(budget, tight, rng_seed)| Config {
        budget,
        mode: if tight {
            ClusterMode::Tight
        } else {
            ClusterMode::Loose
        },
        rng_seed,
        ..Config::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Satellite: serialize → restore → re-serialize is byte-identical,
    /// for checkpoints of *real* session states at arbitrary boundaries.
    #[test]
    fn checkpoint_round_trip_is_byte_stable(
        seeds in arb_seeds(),
        config in arb_config(),
        k in 0u64..12,
    ) {
        // Boundaries 0..=growths are reachable without finishing the run;
        // map the raw draw onto that range.
        let growths = SixGen::new(seeds.clone(), config.clone()).run().stats.growths;
        let boundary = k % (growths + 1);
        let mut session = SixGen::new(seeds, config).session();
        for _ in 0..boundary {
            prop_assert_eq!(session.step(), Step::Grew);
        }
        let checkpoint = session.checkpoint();
        let bytes = checkpoint.to_bytes();
        let decoded = EngineCheckpoint::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&decoded, &checkpoint);
        prop_assert_eq!(decoded.to_bytes(), bytes);
    }

    /// Resume from a random boundary reproduces the uninterrupted target
    /// stream for arbitrary seed sets and configs.
    #[test]
    fn resume_matches_baseline_for_arbitrary_runs(
        seeds in arb_seeds(),
        config in arb_config(),
        k in 0u64..12,
    ) {
        let baseline = SixGen::new(seeds.clone(), config.clone()).run();
        // A budget below the seed count finishes the session at birth;
        // there is no round boundary to resume from.
        prop_assume!(baseline.stats.termination != Termination::ExhaustedAtInit);
        let boundary = k % (baseline.stats.growths + 1);
        let mut session = SixGen::new(seeds, config.clone()).session();
        for _ in 0..boundary {
            prop_assert_eq!(session.step(), Step::Grew);
        }
        let bytes = session.checkpoint().to_bytes();
        drop(session);
        let resumed = Session::resume(
            EngineCheckpoint::from_bytes(&bytes).unwrap(),
            config,
        )
        .unwrap()
        .run();
        prop_assert_eq!(baseline.targets.as_slice(), resumed.targets.as_slice());
        prop_assert_eq!(baseline.stats.rounds, resumed.stats.rounds);
        prop_assert_eq!(baseline.stats.growths, resumed.stats.growths);
        prop_assert_eq!(baseline.stats.termination, resumed.stats.termination);
    }
}
