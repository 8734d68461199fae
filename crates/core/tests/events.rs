//! Progress-event non-perturbation differentials: the event bus must be
//! *observationally invisible* to the algorithm. Every test here runs
//! the same workload with the bus absent, enabled, disabled, or flipped
//! on mid-run, and asserts byte identity of everything the engine
//! exposes — targets, clusters, stats, deterministic metrics, and
//! serialized checkpoints at every round boundary (which pins the RNG
//! draw stream). A second group checks the events themselves are
//! coherent: monotone rounds, session lifecycles, and fleet counters
//! that match the `engine/shard/{i}/*` metric attributions.

use sixgen_addr::{NybbleAddr, Prefix};
use sixgen_core::{
    run_sharded_with, ClusterMode, Config, Outcome, Session, ShardSpec, ShardedOutcome, SixGen,
    Step,
};
use sixgen_obs::{EventBus, MetricsRegistry, ProgressEvent};
use std::sync::Arc;

/// Multi-round engine workload: ten dense seed groups plus stragglers
/// (the world of the engine's round-check unit test).
fn seeds() -> Vec<NybbleAddr> {
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
    seeds
}

/// Deterministic multi-prefix world with unequal densities, so shards
/// exhaust leases at different times and the pool recirculates.
fn world(prefixes: u128, per_prefix: u64) -> Vec<ShardSpec> {
    (0..prefixes)
        .map(|p| {
            let base = (0x2001_0db8u128 << 96) | (p << 80);
            let prefix = Prefix::new(NybbleAddr::from(base), 48);
            let seeds = (0..per_prefix)
                .map(|i| {
                    let subnet = (i % (2 + p as u64 % 3)) as u128;
                    let host = (i as u128 * 7 + p * 3) % 200;
                    NybbleAddr::from(base | (subnet << 16) | host)
                })
                .collect();
            ShardSpec { prefix, seeds }
        })
        .collect()
}

fn config(mode: ClusterMode, budget: u64) -> Config {
    Config {
        budget,
        mode,
        rng_seed: 0x0B5E_44E5,
        ..Config::default()
    }
}

fn assert_same_outcome(reference: &Outcome, other: &Outcome, what: &str) {
    assert_eq!(
        reference.targets.as_slice(),
        other.targets.as_slice(),
        "{what}: targets diverged"
    );
    assert_eq!(
        reference.clusters.len(),
        other.clusters.len(),
        "{what}: cluster count diverged"
    );
    for (a, b) in reference.clusters.iter().zip(&other.clusters) {
        assert_eq!(a.range, b.range, "{what}: cluster range diverged");
    }
    assert_eq!(reference.stats.rounds, other.stats.rounds, "{what}: rounds");
    assert_eq!(
        reference.stats.growths, other.stats.growths,
        "{what}: growths"
    );
    assert_eq!(
        reference.stats.budget_used, other.stats.budget_used,
        "{what}: budget used"
    );
    assert_eq!(
        reference.stats.termination, other.stats.termination,
        "{what}: termination"
    );
}

fn timeless_bytes(session: &Session) -> Vec<u8> {
    let mut checkpoint = session.checkpoint();
    checkpoint.cpu_time = std::time::Duration::ZERO;
    checkpoint.wall_time = std::time::Duration::ZERO;
    checkpoint.to_bytes()
}

/// Tentpole invariant, engine level: a session with the bus absent,
/// enabled, disabled, or enabled mid-run produces byte-identical
/// checkpoints at *every* round boundary (pinning the RNG stream) and
/// identical final outcomes plus deterministic metrics.
#[test]
fn engine_runs_are_identical_with_bus_absent_enabled_disabled_and_attached_mid_run() {
    for mode in [ClusterMode::Loose, ClusterMode::Tight] {
        let registry = |bus: Option<Arc<EventBus>>| {
            let metrics = MetricsRegistry::shared();
            let session = SixGen::new(
                seeds(),
                Config {
                    metrics: Some(Arc::clone(&metrics)),
                    events: bus,
                    ..config(mode, 400)
                },
            )
            .session();
            (metrics, session)
        };
        let (bare_metrics, mut bare) = registry(None);

        let enabled = EventBus::shared();
        enabled.set_enabled(true);
        let (enabled_metrics, mut with_enabled) = registry(Some(Arc::clone(&enabled)));

        let disabled = EventBus::shared();
        disabled.set_enabled(false);
        let (disabled_metrics, mut with_disabled) = registry(Some(Arc::clone(&disabled)));

        // Attached mid-run: bus present but dark, flipped live at round 5.
        let late = EventBus::shared();
        late.set_enabled(false);
        let (late_metrics, mut with_late) = registry(Some(Arc::clone(&late)));

        let mut round = 0u64;
        loop {
            if round == 5 {
                late.set_enabled(true);
            }
            let reference = timeless_bytes(&bare);
            for (name, session) in [
                ("enabled", &with_enabled),
                ("disabled", &with_disabled),
                ("mid-run", &with_late),
            ] {
                assert_eq!(
                    reference,
                    timeless_bytes(session),
                    "{mode:?}: {name} bus perturbed the checkpoint at round {round}"
                );
            }
            let step = bare.step();
            assert_eq!(step, with_enabled.step(), "{mode:?}: enabled step diverged");
            assert_eq!(step, with_disabled.step(), "{mode:?}: disabled step diverged");
            assert_eq!(step, with_late.step(), "{mode:?}: mid-run step diverged");
            round += 1;
            if matches!(step, Step::Done(_)) {
                break;
            }
        }
        assert!(round > 8, "workload must be multi-round");
        assert!(
            enabled.published() > 0,
            "the enabled bus must actually have observed the run"
        );
        assert_eq!(disabled.published(), 0, "a disabled bus records nothing");
        assert!(
            late.published() > 0 && late.published() < enabled.published(),
            "a mid-run bus observes a strict suffix of the run"
        );

        let reference = bare.finish();
        for (name, session, metrics) in [
            ("enabled", with_enabled, &enabled_metrics),
            ("disabled", with_disabled, &disabled_metrics),
            ("mid-run", with_late, &late_metrics),
        ] {
            assert_same_outcome(
                &reference,
                &session.finish(),
                &format!("{mode:?}/{name}"),
            );
            assert_eq!(
                bare_metrics.deterministic_json(),
                metrics.deterministic_json(),
                "{mode:?}: {name} bus perturbed deterministic metrics"
            );
        }
    }
}

/// The engine's event stream is coherent: one session start, strictly
/// increasing round numbers with monotone budget burn, and a final
/// session end matching the run's stats — which the live progress
/// snapshot also reflects.
#[test]
fn engine_event_stream_tracks_the_run() {
    let bus = EventBus::shared();
    bus.set_enabled(true);
    let outcome = SixGen::new(
        seeds(),
        Config {
            events: Some(Arc::clone(&bus)),
            ..config(ClusterMode::Loose, 400)
        },
    )
    .run();

    let records = bus.snapshot();
    assert!(matches!(
        records.first().map(|r| &r.event),
        Some(ProgressEvent::SessionStart { shard: 0, round: 0, .. })
    ));
    let mut last_round = 0u64;
    let mut last_used = 0u64;
    let mut ends = 0u64;
    for record in &records {
        match record.event {
            ProgressEvent::Round {
                round,
                budget_used,
                budget,
                ..
            } => {
                assert!(round > last_round, "round numbers must strictly increase");
                assert!(budget_used >= last_used, "budget burn must be monotone");
                assert!(budget_used <= budget, "burn must respect the budget");
                last_round = round;
                last_used = budget_used;
            }
            ProgressEvent::SessionEnd {
                termination,
                rounds,
                growths,
                budget_used,
                ..
            } => {
                ends += 1;
                assert_eq!(termination, outcome.stats.termination.label());
                assert_eq!(rounds, outcome.stats.rounds);
                assert_eq!(growths, outcome.stats.growths);
                assert_eq!(budget_used, outcome.stats.budget_used);
            }
            _ => {}
        }
    }
    assert_eq!(ends, 1, "exactly one session-end event");
    // Only committed rounds publish: the final stopping round rolls back.
    assert_eq!(last_round, outcome.stats.growths);

    let progress = bus.progress();
    assert_eq!(progress.shards.len(), 1);
    assert_eq!(progress.budget_used, outcome.stats.budget_used);
    assert_eq!(progress.rounds, outcome.stats.rounds);
    assert_eq!(progress.done_shards, 1);
    assert_eq!(
        progress.shards[0].termination,
        Some(outcome.stats.termination.label())
    );
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
    assert_eq!(reference.stats.epochs, other.stats.epochs, "{label}: epochs");
    assert_eq!(
        reference.stats.budget_used, other.stats.budget_used,
        "{label}: budget_used"
    );
}

/// Tentpole invariant, fleet level: a sharded run with the bus absent,
/// enabled, disabled, or enabled mid-fleet (flipped at the first epoch
/// barrier) produces identical merged outputs, per-shard results,
/// barrier checkpoints, and deterministic metrics.
#[test]
fn sharded_runs_are_identical_with_and_without_the_bus() {
    let specs = world(6, 30);
    let run = |bus: Option<Arc<EventBus>>, flip_at_barrier: bool| {
        let metrics = Arc::new(MetricsRegistry::new());
        let cfg = Config {
            metrics: Some(metrics.clone()),
            events: bus.clone(),
            ..config(ClusterMode::Loose, 2_500)
        };
        let mut checkpoints: Vec<Vec<u8>> = Vec::new();
        let outcome = run_sharded_with(specs.clone(), cfg, 2, |env| {
            if flip_at_barrier {
                if let Some(bus) = &bus {
                    bus.set_enabled(true);
                }
            }
            let mut env = env.clone();
            for shard in &mut env.shards {
                shard.engine.cpu_time = std::time::Duration::ZERO;
                shard.engine.wall_time = std::time::Duration::ZERO;
            }
            checkpoints.push(env.to_bytes());
        });
        (outcome, metrics, checkpoints)
    };

    let (reference, bare_metrics, bare_checkpoints) = run(None, false);
    assert!(
        reference.stats.epochs >= 2,
        "workload must recirculate the pool"
    );

    let enabled = EventBus::shared();
    let disabled = EventBus::shared();
    disabled.set_enabled(false);
    let late = EventBus::shared();
    late.set_enabled(false);
    for (name, bus, flip) in [
        ("enabled", Arc::clone(&enabled), false),
        ("disabled", disabled, false),
        ("mid-fleet", Arc::clone(&late), true),
    ] {
        let (outcome, metrics, checkpoints) = run(Some(bus), flip);
        assert_same_fleet(&reference, &outcome, name);
        assert_eq!(
            bare_metrics.deterministic_json(),
            metrics.deterministic_json(),
            "{name}: deterministic metrics diverged"
        );
        assert_eq!(
            bare_checkpoints, checkpoints,
            "{name}: barrier checkpoints diverged"
        );
    }
    assert!(enabled.published() > 0);
    assert!(
        late.published() > 0 && late.published() < enabled.published(),
        "a mid-fleet bus observes a strict suffix of the run"
    );
}

/// Fleet events reconcile with the fleet outcome: initial leases sum to
/// the global budget, one shard-done event per shard whose counters
/// match the `engine/shard/{i}/*` metric attributions, barrier epochs
/// are monotone, and the final progress snapshot matches the stats.
#[test]
fn sharded_events_match_per_shard_counters() {
    let specs = world(6, 30);
    let shard_count = specs.len();
    let bus = EventBus::shared();
    bus.set_enabled(true);
    let metrics = Arc::new(MetricsRegistry::new());
    let outcome = run_sharded_with(
        specs,
        Config {
            metrics: Some(metrics.clone()),
            events: Some(Arc::clone(&bus)),
            ..config(ClusterMode::Loose, 2_500)
        },
        2,
        |_| {},
    );
    assert_eq!(bus.dropped(), 0, "workload must fit the ring for this test");

    let records = bus.snapshot();
    let mut initial_leases = 0u64;
    let mut done: Vec<Option<(u64, u64, u64)>> = vec![None; shard_count];
    let mut last_epoch = 0u64;
    for record in &records {
        match record.event {
            ProgressEvent::Lease {
                grant, epoch: 0, ..
            } => initial_leases += grant,
            ProgressEvent::ShardDone {
                shard,
                rounds,
                budget_used,
                unspent,
                ..
            } => {
                let slot = &mut done[shard as usize];
                assert!(slot.is_none(), "shard {shard} finished twice");
                *slot = Some((rounds, budget_used, unspent));
            }
            ProgressEvent::Barrier { epoch, .. } => {
                assert!(epoch > last_epoch, "barrier epochs must increase");
                last_epoch = epoch;
            }
            _ => {}
        }
    }
    assert_eq!(
        initial_leases, 2_500,
        "epoch-0 leases must sum to the global budget"
    );
    assert_eq!(last_epoch, outcome.stats.epochs);
    for (index, slot) in done.iter().enumerate() {
        let (rounds, budget_used, unspent) =
            slot.unwrap_or_else(|| panic!("shard {index} never reported done"));
        for (name, value) in [
            ("rounds", rounds),
            ("budget_used", budget_used),
            ("returned", unspent),
        ] {
            assert_eq!(
                metrics.counter(&format!("engine/shard/{index}/{name}")).get(),
                value,
                "shard {index}: event {name} diverged from the metric counter"
            );
        }
    }

    let progress = bus.progress();
    assert_eq!(progress.shards.len(), shard_count);
    assert_eq!(progress.done_shards, shard_count as u64);
    assert_eq!(progress.parked_shards, 0);
    assert_eq!(progress.budget_total, 2_500, "the budget-total hint is set");
    assert_eq!(progress.budget_used, outcome.stats.budget_used);
    assert_eq!(progress.epochs, outcome.stats.epochs);
}
