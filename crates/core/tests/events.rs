//! Progress-event non-perturbation differentials: the event bus must be
//! *observationally invisible* to the algorithm. Every test here runs
//! the same workload with the bus absent, enabled, disabled, or flipped
//! on mid-run, and asserts byte identity of everything the engine
//! exposes — targets, clusters, stats, deterministic metrics, and
//! serialized checkpoints at every round boundary (which pins the RNG
//! draw stream). A second group checks the events themselves, as the
//! bus streams them, are coherent: monotone rounds, session lifecycles,
//! and fleet counters that match the `engine/shard/{i}/*` metric
//! attributions.

mod common;

use common::{num, staggered_world, text, world, Capture};
use sixgen_addr::NybbleAddr;
use sixgen_core::{
    CancelToken, ClusterMode, Config, Fleet, Outcome, Session, ShardedOutcome, SixGen, Step,
};
use sixgen_obs::{EventBus, MetricsRegistry};
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

/// An enabled bus streaming into the returned capture.
fn captured_bus() -> (Arc<EventBus>, Capture) {
    let bus = EventBus::shared();
    let capture = Capture::default();
    bus.stream_to(Box::new(capture.clone()));
    (bus, capture)
}

/// Closes the bus's stream and returns its lines in `seq` order, after
/// checking that every published event was streamed.
fn streamed_lines(bus: &EventBus, capture: &Capture) -> Vec<String> {
    bus.finish_stream().expect("in-memory stream");
    assert_eq!(bus.stream_errors(), 0);
    assert_eq!(bus.streamed(), bus.published());
    let mut lines: Vec<String> = capture.text().lines().map(str::to_owned).collect();
    lines.sort_by_key(|line| num(line, "seq"));
    let seqs: Vec<u64> = lines.iter().map(|line| num(line, "seq")).collect();
    assert_eq!(seqs, (1..=bus.published()).collect::<Vec<u64>>());
    lines
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
    let (bus, capture) = captured_bus();
    let outcome = SixGen::new(
        seeds(),
        Config {
            events: Some(Arc::clone(&bus)),
            ..config(ClusterMode::Loose, 400)
        },
    )
    .run();

    let lines = streamed_lines(&bus, &capture);
    let first = lines.first().expect("a non-empty stream");
    assert_eq!(text(first, "kind"), "session_start", "{first}");
    assert_eq!(num(first, "shard"), 0, "{first}");
    assert_eq!(num(first, "round"), 0, "{first}");
    let mut last_round = 0u64;
    let mut last_used = 0u64;
    let mut ends = 0u64;
    for line in &lines {
        match text(line, "kind") {
            "round" => {
                let (round, budget_used) = (num(line, "round"), num(line, "budget_used"));
                assert!(round > last_round, "round numbers must strictly increase");
                assert!(budget_used >= last_used, "budget burn must be monotone");
                assert!(
                    budget_used <= num(line, "budget"),
                    "burn must respect the budget"
                );
                last_round = round;
                last_used = budget_used;
            }
            "session_end" => {
                ends += 1;
                assert_eq!(text(line, "termination"), outcome.stats.termination.label());
                assert_eq!(num(line, "rounds"), outcome.stats.rounds);
                assert_eq!(num(line, "growths"), outcome.stats.growths);
                assert_eq!(num(line, "budget_used"), outcome.stats.budget_used);
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
/// barrier checkpoints, and deterministic metrics, on a fleet whose
/// shards spend their initial leases and on one whose pool grants budget
/// after epoch 0.
#[test]
fn sharded_runs_are_identical_with_and_without_the_bus() {
    let mut re_leases = 0;
    for specs in [world(6, 30), staggered_world(6)] {
        let run = |bus: Option<Arc<EventBus>>, flip_at_barrier: bool| {
            let metrics = Arc::new(MetricsRegistry::new());
            let cfg = Config {
                metrics: Some(metrics.clone()),
                events: bus.clone(),
                ..config(ClusterMode::Loose, 2_500)
            };
            let mut checkpoints: Vec<Vec<u8>> = Vec::new();
            let outcome = Fleet::start(specs.clone(), cfg, 2).run_with(|fleet| {
                if flip_at_barrier {
                    if let Some(bus) = &bus {
                        bus.set_enabled(true);
                    }
                }
                let mut env = fleet.checkpoint();
                for shard in &mut env.shards {
                    shard.engine.cpu_time = std::time::Duration::ZERO;
                    shard.engine.wall_time = std::time::Duration::ZERO;
                }
                checkpoints.push(env.to_bytes());
            });
            (outcome, metrics, checkpoints)
        };

        let (reference, bare_metrics, bare_checkpoints) = run(None, false);

        let (enabled, capture) = captured_bus();
        let disabled = EventBus::shared();
        disabled.set_enabled(false);
        let late = EventBus::shared();
        late.set_enabled(false);
        for (name, bus, flip) in [
            ("enabled", Arc::clone(&enabled), false),
            ("disabled", disabled, false),
            ("mid-fleet", Arc::clone(&late), true),
        ] {
            let name = format!("{} shards/{name}", specs.len());
            let (outcome, metrics, checkpoints) = run(Some(bus), flip);
            assert_same_fleet(&reference, &outcome, &name);
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
        re_leases += streamed_lines(&enabled, &capture)
            .iter()
            .filter(|line| text(line, "kind") == "lease" && num(line, "epoch") > 0)
            .count();
    }
    assert!(re_leases > 0, "no fleet was granted budget after epoch 0");
}

/// Fleet events reconcile with the fleet outcome: initial leases sum to
/// the global budget, one shard-done event per shard whose counters
/// match the `engine/shard/{i}/*` metric attributions, barrier epochs
/// are monotone, and the final progress snapshot matches the stats.
#[test]
fn sharded_events_match_per_shard_counters() {
    let specs = world(6, 30);
    let shard_count = specs.len();
    let (bus, capture) = captured_bus();
    let metrics = Arc::new(MetricsRegistry::new());
    let outcome = Fleet::start(
        specs,
        Config {
            metrics: Some(metrics.clone()),
            events: Some(Arc::clone(&bus)),
            ..config(ClusterMode::Loose, 2_500)
        },
        2,
    )
    .run();

    let mut initial_leases = 0u64;
    let mut done: Vec<Option<(u64, u64, u64)>> = vec![None; shard_count];
    let mut last_epoch = 0u64;
    for line in &streamed_lines(&bus, &capture) {
        match text(line, "kind") {
            "lease" if num(line, "epoch") == 0 => initial_leases += num(line, "grant"),
            "shard_done" => {
                let shard = num(line, "shard");
                let slot = &mut done[shard as usize];
                assert!(slot.is_none(), "shard {shard} finished twice");
                *slot = Some((
                    num(line, "rounds"),
                    num(line, "budget_used"),
                    num(line, "unspent"),
                ));
            }
            "barrier" => {
                let epoch = num(line, "epoch");
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

/// An event stream that cancels `token` when a shard parks: a cancel
/// that lands mid-epoch, after that shard parked.
struct CancelOnPark {
    token: CancelToken,
    capture: Capture,
}

impl std::io::Write for CancelOnPark {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if String::from_utf8_lossy(buf).contains("\"kind\":\"park\"") {
            self.token.cancel();
        }
        self.capture.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A shard parked when the fleet is cancelled ends as cancelled at the
/// barrier, where it parked, and publishes its shard-done event: the cut
/// fleet reports one per shard, the parked shard returning nothing. On
/// one worker the shards run in prefix order, so shard 0 clusters all
/// its seeds, shard 1 parks and cancels, and the rest stop at their
/// first round. The last envelope resumes to the uncut fleet.
#[test]
fn a_fleet_cancelled_mid_epoch_ends_its_parked_shards() {
    let specs = staggered_world(6);
    let cfg = config(ClusterMode::Loose, 1_500);
    let reference = Fleet::start(specs.clone(), cfg.clone(), 1).run();
    let token = CancelToken::new();
    let bus = EventBus::shared();
    let capture = Capture::default();
    bus.stream_to(Box::new(CancelOnPark {
        token: token.clone(),
        capture: capture.clone(),
    }));
    let mut last = None;
    let cut = Fleet::start(
        specs.clone(),
        Config {
            cancel: Some(token),
            events: Some(Arc::clone(&bus)),
            ..cfg.clone()
        },
        1,
    )
    .run_with(|fleet| last = Some(fleet.checkpoint()));

    // Shard 1's event comes last, from the barrier.
    let mut done: Vec<(u64, String, u64)> = streamed_lines(&bus, &capture)
        .iter()
        .filter(|line| text(line, "kind") == "shard_done")
        .map(|line| {
            let termination = text(line, "termination").to_string();
            (num(line, "shard"), termination, num(line, "unspent"))
        })
        .collect();
    assert_eq!(done.last().map(|d| d.0), Some(1));
    done.sort();
    let labels: Vec<(u64, &str)> = done.iter().map(|(s, t, _)| (*s, t.as_str())).collect();
    assert_eq!(
        labels,
        [
            (0, "all_seeds_clustered"),
            (1, "cancelled"),
            (2, "cancelled"),
            (3, "cancelled"),
            (4, "cancelled"),
            (5, "cancelled"),
        ]
    );
    assert!(done[0].2 > 0, "a finished shard returns its unspent lease");
    assert!(
        done[1..].iter().all(|d| d.2 == 0),
        "interrupted shards keep their leases"
    );
    let parked = &cut.shards[1];
    assert!(parked.outcome.stats.budget_used > 0 && parked.returned == 0);
    assert_eq!(bus.progress().parked_shards, 0);

    let resumed = Fleet::resume(last.expect("a barrier"), cfg, 2)
        .expect("resume")
        .run();
    assert_eq!(resumed.targets, reference.targets);
}
