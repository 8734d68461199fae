//! Property tests for the scanner-integrated feedback loop.

use proptest::prelude::*;
use sixgen_addr::{NybbleAddr, Prefix};
use sixgen_core::{adaptive_scan, AdaptiveConfig};
use std::cell::RefCell;
use std::collections::HashSet;

/// A deterministic toy responder: hosts plus an optional aliased /96.
#[derive(Debug, Clone)]
struct Toy {
    hosts: HashSet<NybbleAddr>,
    aliased: Option<Prefix>,
}

impl Toy {
    fn responds(&self, a: NybbleAddr) -> bool {
        self.aliased.map(|p| p.contains(a)).unwrap_or(false) || self.hosts.contains(&a)
    }
}

fn arb_world() -> impl Strategy<Value = (Toy, Vec<NybbleAddr>)> {
    (
        prop::collection::vec((0u8..4, 0u16..2048), 2..80),
        any::<bool>(),
    )
        .prop_map(|(pairs, with_alias)| {
            let base = 0x2001_0db8_0000_0000_0000_0000_0000_0000u128;
            let hosts: HashSet<NybbleAddr> = pairs
                .iter()
                .map(|&(subnet, host)| {
                    NybbleAddr::from_bits(base | ((subnet as u128) << 64) | host as u128)
                })
                .collect();
            let aliased = with_alias.then(|| "2001:db8:0:1::/96".parse().unwrap());
            // Seeds from the sorted hosts: `HashSet` order varies per
            // process, which would make a failing case unreplayable.
            let mut sorted: Vec<NybbleAddr> = hosts.iter().copied().collect();
            sorted.sort_unstable();
            let seeds: Vec<NybbleAddr> = sorted.into_iter().take(hosts.len() / 2 + 1).collect();
            (Toy { hosts, aliased }, seeds)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn probe_budget_is_exact_upper_bound((toy, seeds) in arb_world(), budget in 1u64..4000) {
        let sent = RefCell::new(0u64);
        let outcome = adaptive_scan(
            seeds,
            &AdaptiveConfig { budget, ..AdaptiveConfig::default() },
            |a| {
                *sent.borrow_mut() += 1;
                toy.responds(a)
            },
        );
        prop_assert_eq!(outcome.probes_used, *sent.borrow());
        prop_assert!(outcome.probes_used <= budget);
    }

    #[test]
    fn no_duplicate_probes((toy, seeds) in arb_world(), budget in 100u64..4000) {
        let seen = RefCell::new(HashSet::new());
        let dupes = RefCell::new(0u64);
        adaptive_scan(
            seeds,
            &AdaptiveConfig { budget, ..AdaptiveConfig::default() },
            |a| {
                if !seen.borrow_mut().insert(a) {
                    *dupes.borrow_mut() += 1;
                }
                toy.responds(a)
            },
        );
        prop_assert_eq!(*dupes.borrow(), 0u64);
    }

    #[test]
    fn hits_are_real_and_unaliased((toy, seeds) in arb_world(), budget in 100u64..4000) {
        let outcome = adaptive_scan(
            seeds,
            &AdaptiveConfig { budget, ..AdaptiveConfig::default() },
            |a| toy.responds(a),
        );
        for hit in &outcome.hits {
            prop_assert!(toy.responds(*hit), "phantom hit {hit}");
        }
        // Hits are unique.
        let uniq: HashSet<_> = outcome.hits.iter().collect();
        prop_assert_eq!(uniq.len(), outcome.hits.len());
        // Region accounting is internally consistent.
        let region_probes: u64 = outcome.regions.iter().map(|r| r.probes).sum();
        prop_assert!(region_probes <= outcome.probes_used);
    }

    #[test]
    fn deterministic_under_fixed_seed((toy, seeds) in arb_world(), budget in 100u64..2000) {
        let run = || {
            adaptive_scan(
                seeds.clone(),
                &AdaptiveConfig { budget, rng_seed: 7, ..AdaptiveConfig::default() },
                |a| toy.responds(a),
            )
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.hits, b.hits);
        prop_assert_eq!(a.probes_used, b.probes_used);
        prop_assert_eq!(a.growths, b.growths);
    }
}
