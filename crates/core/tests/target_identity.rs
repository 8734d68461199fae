//! Pinned target streams of the engine and the sharded fleet.
//!
//! Every generated address passes through the budget ledger, so a change
//! to how the ledger enumerates, counts or stores addresses must leave
//! the target stream as it was. The digests below pin, for each run, the
//! targets in generation order, the final clusters and the `RunStats`
//! counters. In each cluster mode three runs cover the ways a session
//! ends: the budget binds with a dense final sample (the sampler
//! enumerates the final range and shuffles it), the budget binds with a
//! sparse final sample (the sampler draws by rejection), and every seed
//! is clustered. One 4-worker fleet whose pool re-leases returned budget
//! covers the sharded driver. The digests were recorded before the
//! ledger learned to charge each range in one pass; that change, and any
//! later one, must leave them as they are. A deliberate change of the
//! engine's output updates this table in the same commit.
//!
//! Two hosting-shaped sessions, one per cluster mode, each at one thread
//! and at two, pin the engine's fill and round paths: thousands of
//! singletons with a seed one nybble away, and thousands of slots tying
//! for the best growth. Their digests were recorded before the first
//! fill resolved such singletons without a tree walk and before a round
//! could refill its grown cluster beside the select.

use sixgen_addr::{NybbleAddr, Prefix};
use sixgen_core::{
    run_sharded, ClusterMode, Config, Outcome, RunStats, ShardSpec, SixGen, Step, Termination,
};
use std::time::Duration;

const BASE: u128 = 0x2001_0db8 << 96;

/// Nine groups of three seeds (`::1110`–`::1112`, …, `::9990`–`::9992`):
/// many rounds of small growths.
fn ladder_seeds() -> Vec<NybbleAddr> {
    let mut seeds = Vec::new();
    for group in 1..=9u128 {
        for host in 0..3u128 {
            seeds.push(NybbleAddr::from_bits(BASE | (group * 0x1110) | host));
        }
    }
    seeds
}

/// A dense run of 24 low-byte seeds and 16 seeds scattered over a /96
/// far away, so late growths span ranges much larger than the budget.
fn two_subnet_seeds() -> Vec<NybbleAddr> {
    let mut seeds: Vec<NybbleAddr> = (1..=24u128)
        .map(|host| NybbleAddr::from_bits(BASE | host))
        .collect();
    let mut state: u64 = 0x5EED_0022;
    for _ in 0..16 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let host = u128::from(state >> 33) & 0xFFFF_FFFF;
        seeds.push(NybbleAddr::from_bits(BASE | 7 << 64 | host));
    }
    seeds
}

/// Two small groups of seeds in neighbouring subnets.
fn small_group_seeds() -> Vec<NybbleAddr> {
    [0x11, 0x12, 0x1a, 0x1_0031, 0x1_0035]
        .into_iter()
        .map(|host| NybbleAddr::from_bits(BASE | host))
        .collect()
}

/// Six /48s of unequal density. In tight mode the sparser shards
/// cluster every seed before their lease runs out and return the rest,
/// which the pool re-leases to the shards still growing.
fn fleet() -> Vec<ShardSpec> {
    (0..6u128)
        .map(|p| {
            let base = BASE | p << 80;
            let seeds = (0..24u128)
                .map(|i| {
                    let subnet = i % (2 + p % 3);
                    let host = (i * 7 + p * 3) % 200;
                    NybbleAddr::from_bits(base | subnet << 16 | host)
                })
                .collect();
            ShardSpec {
                prefix: Prefix::new(NybbleAddr::from_bits(base), 48),
                seeds,
            }
        })
        .collect()
}

fn config(mode: ClusterMode, budget: u64) -> Config {
    Config {
        budget,
        mode,
        rng_seed: 0x7A_26E7,
        threads: 1,
        ..Config::default()
    }
}

/// FNV-1a 64 over a byte stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of targets in generation order.
fn targets_digest(targets: &[NybbleAddr]) -> u64 {
    let bytes: Vec<u8> = targets
        .iter()
        .flat_map(|t| t.bits().to_be_bytes())
        .collect();
    fnv1a(&bytes)
}

/// Digest of the final clusters: each range's per-position masks and
/// its seed count, in cluster order.
fn clusters_digest(outcome: &Outcome) -> u64 {
    let mut bytes: Vec<u8> = Vec::new();
    for cluster in &outcome.clusters {
        for word in cluster.range.mask_words() {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        bytes.extend_from_slice(&cluster.seed_count.to_le_bytes());
    }
    fnv1a(&bytes)
}

/// `(rounds, growths, subsumed, budget_used, termination)`.
type Counters = (u64, u64, u64, u64, Termination);

fn counters(stats: &RunStats) -> Counters {
    (
        stats.rounds,
        stats.growths,
        stats.subsumed,
        stats.budget_used,
        stats.termination,
    )
}

/// One pinned session run: its input, its counters and the digests of
/// its targets and final clusters.
struct Pinned {
    ending: &'static str,
    mode: ClusterMode,
    seeds: fn() -> Vec<NybbleAddr>,
    budget: u64,
    counters: Counters,
    targets: u64,
    clusters: u64,
}

const PINNED: [Pinned; 6] = [
    // The final growth spans 4096 addresses, 2968 of them drawn.
    Pinned {
        ending: "dense final sample",
        mode: ClusterMode::Loose,
        seeds: small_group_seeds,
        budget: 3_000,
        counters: (3, 2, 3, 3_000, Termination::BudgetExhausted),
        targets: 0x8bbd852a9a51001c,
        clusters: 0xd900c3e7fb69bab9,
    },
    // The final growth spans 2^20 addresses, 9728 of them drawn.
    Pinned {
        ending: "sparse final sample",
        mode: ClusterMode::Loose,
        seeds: two_subnet_seeds,
        budget: 10_000,
        counters: (4, 3, 23, 10_000, Termination::BudgetExhausted),
        targets: 0x3febcc9626845d1c,
        clusters: 0x51f27aa5e639e9af,
    },
    Pinned {
        ending: "all seeds clustered",
        mode: ClusterMode::Loose,
        seeds: ladder_seeds,
        budget: 100_000,
        counters: (10, 9, 18, 144, Termination::AllSeedsClustered),
        targets: 0x6be167b0ac0a944d,
        clusters: 0xcf2d883fb822021f,
    },
    // The final growth spans 375 addresses, enumerated by the ledger
    // until it overflows, 127 of them drawn.
    Pinned {
        ending: "dense final sample",
        mode: ClusterMode::Tight,
        seeds: ladder_seeds,
        budget: 1_000,
        counters: (47, 46, 22, 1_000, Termination::BudgetExhausted),
        targets: 0x59f39cdf287fbb7f,
        clusters: 0xa7762ffa04951596,
    },
    // The final growth spans 10 368 addresses, 1327 of them drawn.
    Pinned {
        ending: "sparse final sample",
        mode: ClusterMode::Tight,
        seeds: two_subnet_seeds,
        budget: 100_000,
        counters: (215, 214, 32, 100_000, Termination::BudgetExhausted),
        targets: 0x0a6438362bc64784,
        clusters: 0x5f284035b0ee5cdf,
    },
    Pinned {
        ending: "all seeds clustered",
        mode: ClusterMode::Tight,
        seeds: ladder_seeds,
        budget: 3_000,
        counters: (61, 60, 24, 2_169, Termination::AllSeedsClustered),
        targets: 0x02a8a61849a7c9cb,
        clusters: 0x4dd4d71b52bc939d,
    },
];

#[test]
fn session_streams_match_the_pinned_digests() {
    let mut mismatches = Vec::new();
    for pin in &PINNED {
        let outcome = SixGen::new((pin.seeds)(), config(pin.mode, pin.budget)).run();
        let got = (
            counters(&outcome.stats),
            targets_digest(outcome.targets.as_slice()),
            clusters_digest(&outcome),
        );
        if got != (pin.counters, pin.targets, pin.clusters) {
            mismatches.push(format!(
                "{:?} {}: got counters {:?}, targets {:#018x}, clusters {:#018x}",
                pin.mode, pin.ending, got.0, got.1, got.2
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// The fleet's global budget.
const FLEET_BUDGET: u64 = 3_000;

/// The pinned fleet: `(epochs, budget_used, merged targets, shards)`,
/// where the shard digest covers every shard's lease, returned budget,
/// counters and final clusters.
const FLEET: (u64, u64, u64, u64) = (4, 3_000, 0xefedccbed4542258, 0xa8143f569df254c3);

#[test]
fn fleet_stream_matches_the_pinned_digest() {
    let outcome = run_sharded(fleet(), config(ClusterMode::Tight, FLEET_BUDGET), 4);
    let mut bytes: Vec<u8> = Vec::new();
    for shard in &outcome.shards {
        let (rounds, growths, subsumed, used, termination) = counters(&shard.outcome.stats);
        for n in [shard.lease, shard.returned, rounds, growths, subsumed, used] {
            bytes.extend_from_slice(&n.to_le_bytes());
        }
        bytes.extend_from_slice(termination.label().as_bytes());
        bytes.extend_from_slice(&clusters_digest(&shard.outcome).to_le_bytes());
    }
    let got = (
        outcome.stats.epochs,
        outcome.stats.budget_used,
        targets_digest(&outcome.targets),
        fnv1a(&bytes),
    );
    assert_eq!(
        got, FLEET,
        "fleet: got (epochs, budget_used, targets, shards) = ({}, {}, {:#018x}, {:#018x})",
        got.0, got.1, got.2, got.3
    );
}

#[test]
fn pinned_runs_reach_their_endings() {
    // The digests are only worth pinning if each run ends the way the
    // table says, after growing, and the fleet re-leases budget.
    for pin in &PINNED {
        let outcome = SixGen::new((pin.seeds)(), config(pin.mode, pin.budget)).run();
        let label = format!("{:?} {}", pin.mode, pin.ending);
        assert_eq!(outcome.stats.termination, pin.counters.4, "{label}");
        assert!(outcome.stats.growths > 0, "{label}: no growth");
    }
    let outcome = run_sharded(fleet(), config(ClusterMode::Tight, FLEET_BUDGET), 4);
    assert!(outcome.stats.epochs > 1, "the fleet ran a single epoch");
    assert!(
        outcome.shards.iter().any(|s| s.returned > 0),
        "no shard returned budget to the pool"
    );
    let initial = FLEET_BUDGET / outcome.shards.len() as u64;
    assert!(
        outcome.shards.iter().any(|s| s.lease > initial + 1),
        "no shard was re-leased budget"
    );
}

/// Figure 2's hosting-provider shape under `2001:db8::/32`: `count`
/// seeds with sequential low bytes spread over 48 /64s, and every
/// seventh seed with a random 16-bit part, from a fixed LCG. Most
/// singletons have a seed one nybble away; the noisy ones sit three to
/// five nybbles from the rest. Thousands of singletons tie for the best
/// growth in the early rounds.
fn hosting_seeds(count: usize) -> Vec<NybbleAddr> {
    let mut state: u64 = 0x5EED_0027;
    (0..count)
        .map(|i| {
            let subnet = (i % 48) as u128;
            let structured = (i / 48 + 1) as u128;
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let noise = if i % 7 == 0 {
                u128::from(state >> 48)
            } else {
                0
            };
            NybbleAddr::from_bits(BASE | subnet << 64 | noise << 16 | structured)
        })
        .collect()
}

/// The loose hosting-shaped session: 12 000 seeds, run until its
/// budget binds. `(counters, targets, clusters)`.
const HOSTING_LOOSE: (Counters, u64, u64) = (
    (1_364, 1_363, 10_282, 40_000, Termination::BudgetExhausted),
    0xeb98d8933fb90902,
    0x613ee151f853e53a,
);

#[test]
fn loose_hosting_session_matches_its_pin_at_one_and_two_threads() {
    for threads in [1, 2] {
        let config = Config {
            threads,
            ..config(ClusterMode::Loose, 40_000)
        };
        let outcome = SixGen::new(hosting_seeds(12_000), config).run();
        let got = (
            counters(&outcome.stats),
            targets_digest(outcome.targets.as_slice()),
            clusters_digest(&outcome),
        );
        assert_eq!(
            got, HOSTING_LOOSE,
            "loose hosting session at {threads} threads: targets {:#018x}, clusters {:#018x}",
            got.1, got.2
        );
    }
}

/// Rounds the tight hosting-shaped session is stepped. A tight session
/// merges its seeds one round at a time, long before its growths cost
/// budget, so it is pinned at a round boundary instead of at its end.
const TIGHT_ROUNDS: u64 = 2_500;

/// The tight hosting-shaped session's boundary state after
/// [`TIGHT_ROUNDS`] rounds: the digest of its checkpoint, with the two
/// clock fields zeroed. It covers the run RNG's state, every cluster
/// and cached growth, the stale list and the targets so far.
const HOSTING_TIGHT: u64 = 0xfb5e042126ab2304;

#[test]
fn tight_hosting_session_matches_its_pin_at_one_and_two_threads() {
    for threads in [1, 2] {
        let config = Config {
            threads,
            ..config(ClusterMode::Tight, 100_000)
        };
        let mut session = SixGen::new(hosting_seeds(6_000), config).session();
        for _ in 0..TIGHT_ROUNDS {
            assert_eq!(session.step(), Step::Grew);
        }
        let mut checkpoint = session.checkpoint();
        checkpoint.cpu_time = Duration::ZERO;
        checkpoint.wall_time = Duration::ZERO;
        let got = fnv1a(&checkpoint.to_bytes());
        assert_eq!(
            got, HOSTING_TIGHT,
            "tight hosting session at {threads} threads: checkpoint {got:#018x}"
        );
    }
}
