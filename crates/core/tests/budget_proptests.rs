//! Property-based tests for the sharded driver's budget machinery:
//! largest-remainder splitting, the lease/return pool, equivalence of
//! the leasing protocol with a single global tracker, and checkpoint
//! round-tripping of the pool state.

use proptest::prelude::*;
use sixgen_addr::NybbleAddr;
use sixgen_core::{split_proportional, BudgetPool, Config, Fleet, ShardSpec, ShardedCheckpoint};

/// Leasing protocol model: per-shard demands consume their leases, the
/// unspent remainder returns to the pool, and the pool re-leases to the
/// still-hungry shards until it runs dry or everyone is satisfied.
/// Mirrors the driver's epoch loop with `charge` abstracted to
/// "consume min(demand, lease)".
fn simulate_fleet(budget: u64, demands: &[u64]) -> (Vec<u64>, u64) {
    let mut pool = BudgetPool::new(budget);
    let shares: Vec<u64> = demands.iter().map(|&d| d.max(1)).collect();
    let mut lease: Vec<u64> = pool.lease_proportional(&shares);
    let mut used = vec![0u64; demands.len()];
    loop {
        let mut hungry: Vec<usize> = Vec::new();
        for i in 0..demands.len() {
            let want = demands[i] - used[i];
            let take = want.min(lease[i] - used[i]);
            used[i] += take;
            if used[i] < demands[i] {
                hungry.push(i);
            } else {
                // Terminated: return the unspent lease.
                let unspent = lease[i] - used[i];
                if unspent > 0 {
                    pool.give_back(unspent);
                    lease[i] = used[i];
                }
            }
        }
        if hungry.is_empty() || pool.unassigned() == 0 {
            break;
        }
        let hungry_shares: Vec<u64> = hungry.iter().map(|&i| shares[i]).collect();
        let grants = pool.lease_proportional(&hungry_shares);
        if grants.iter().all(|&g| g == 0) {
            break;
        }
        for (&i, &g) in hungry.iter().zip(&grants) {
            lease[i] += g;
        }
    }
    (used, pool.unassigned())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `split_proportional` conserves the total exactly, never goes
    /// negative, and deviates from the exact proportional share by less
    /// than one unit (largest-remainder property).
    #[test]
    fn split_conserves_and_stays_proportional(
        total in 0u64..10_000_000,
        shares in prop::collection::vec(0u64..1_000_000, 1..40),
    ) {
        let slices = split_proportional(total, &shares);
        prop_assert_eq!(slices.len(), shares.len());
        prop_assert_eq!(slices.iter().sum::<u64>(), total);
        let weight_sum: u128 = shares.iter().map(|&s| s as u128).sum();
        for (&slice, &share) in slices.iter().zip(&shares) {
            let Some(quotient) = (total as u128 * share as u128).checked_div(weight_sum) else {
                break; // all-zero weights: the even split is checked by the sum above
            };
            let exact_floor = quotient as u64;
            prop_assert!(slice == exact_floor || slice == exact_floor + 1,
                "slice {slice} strays from exact share {exact_floor}");
        }
    }

    /// The split is a pure function of its inputs (no hidden state).
    #[test]
    fn split_is_deterministic(
        total in 0u64..1_000_000,
        shares in prop::collection::vec(0u64..10_000, 1..20),
    ) {
        prop_assert_eq!(
            split_proportional(total, &shares),
            split_proportional(total, &shares)
        );
    }

    /// Pool conservation: after any interleaving of proportional leases
    /// and give-backs, `leased + unassigned == total`, and the sum of
    /// everything ever handed out never exceeds the total plus what was
    /// returned.
    #[test]
    fn pool_conserves_budget(
        total in 0u64..1_000_000,
        rounds in prop::collection::vec(
            (prop::collection::vec(0u64..100, 1..8), 0.0f64..1.0),
            1..10,
        ),
    ) {
        let mut pool = BudgetPool::new(total);
        let mut outstanding: u64 = 0;
        for (shares, return_fraction) in rounds {
            let grants = pool.lease_proportional(&shares);
            prop_assert_eq!(grants.iter().sum::<u64>(), total - outstanding - pool.unassigned());
            outstanding += grants.iter().sum::<u64>();
            prop_assert_eq!(outstanding + pool.unassigned(), total);
            prop_assert_eq!(pool.leased(), outstanding);
            let back = (outstanding as f64 * return_fraction) as u64;
            pool.give_back(back);
            outstanding -= back;
            prop_assert_eq!(outstanding + pool.unassigned(), total);
        }
    }

    /// Return-then-re-lease equivalence with a single global tracker: a
    /// fleet of shards with arbitrary demands, run through the leasing
    /// protocol, consumes in total exactly what one global tracker
    /// would — `min(budget, total demand)` — and no single shard ever
    /// exceeds its own demand. Shard charges sum within budget always.
    #[test]
    fn leasing_protocol_matches_single_global_tracker(
        budget in 0u64..100_000,
        demands in prop::collection::vec(0u64..10_000, 1..30),
    ) {
        let (used, unassigned) = simulate_fleet(budget, &demands);
        let total_used: u64 = used.iter().sum();
        let total_demand: u64 = demands.iter().sum();
        prop_assert!(total_used <= budget, "fleet overspent the global budget");
        for (&u, &d) in used.iter().zip(&demands) {
            prop_assert!(u <= d, "a shard overspent its demand");
        }
        prop_assert_eq!(
            total_used,
            budget.min(total_demand),
            "fleet use differs from the single-tracker reference"
        );
        prop_assert_eq!(total_used + unassigned + (budget - total_used - unassigned), budget);
        // Whatever is unassigned must mean demand ran out, not budget
        // stranded behind the protocol.
        if total_demand >= budget {
            prop_assert_eq!(unassigned, 0, "budget stranded in the pool despite demand");
        }
    }

    /// Pool state restores exactly: `restore(total, unassigned)` accepts
    /// all and only states with `unassigned <= total`, and reproduces
    /// the observable state.
    #[test]
    fn pool_restore_round_trips(total in 0u64..1_000_000, unassigned in 0u64..1_000_000) {
        match BudgetPool::restore(total, unassigned) {
            Some(pool) => {
                prop_assert!(unassigned <= total);
                prop_assert_eq!(pool.total(), total);
                prop_assert_eq!(pool.unassigned(), unassigned);
                prop_assert_eq!(pool.leased(), total - unassigned);
            }
            None => prop_assert!(unassigned > total),
        }
    }
}

/// Seed layouts for real fleet runs: a few prefixes with small dense
/// seed groups.
fn arb_fleet() -> impl Strategy<Value = Vec<ShardSpec>> {
    prop::collection::vec(prop::collection::vec((0u8..3, 0u8..40), 1..12), 1..5).prop_map(
        |per_prefix| {
            per_prefix
                .into_iter()
                .enumerate()
                .map(|(p, pairs)| {
                    let base = (0x2001_0db8u128 << 96) | ((p as u128) << 80);
                    let prefix =
                        sixgen_addr::Prefix::new(NybbleAddr::from_bits(base), 48);
                    let seeds = pairs
                        .into_iter()
                        .map(|(group, host)| {
                            NybbleAddr::from_bits(
                                base | ((group as u128) << 16) | host as u128,
                            )
                        })
                        .collect();
                    ShardSpec { prefix, seeds }
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every barrier checkpoint of a real fleet run round-trips through
    /// bytes exactly, passes validation (which includes the
    /// lease/pool/budget conservation identity), and the final outcome
    /// respects the global budget to the address.
    #[test]
    fn fleet_checkpoints_round_trip_and_conserve(
        fleet in arb_fleet(),
        budget in 1u64..2_000,
        rng_seed in any::<u64>(),
    ) {
        let cfg = Config { budget, rng_seed, ..Config::default() };
        let mut envelopes: Vec<ShardedCheckpoint> = Vec::new();
        let outcome = Fleet::start(fleet, cfg, 2)
            .run_with(|fleet| envelopes.push(fleet.checkpoint()));
        for env in &envelopes {
            let bytes = env.to_bytes();
            let back = ShardedCheckpoint::from_bytes(&bytes).expect("decode");
            prop_assert_eq!(back.to_bytes(), bytes, "unstable envelope encoding");
            prop_assert_eq!(back.pool_unassigned, env.pool_unassigned);
            prop_assert_eq!(back.budget, env.budget);
        }
        prop_assert!(outcome.stats.budget_used <= budget);
        prop_assert_eq!(
            outcome.stats.budget_used + outcome.stats.pool_unassigned,
            budget
        );
    }
}
