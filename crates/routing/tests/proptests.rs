//! Property tests: the span table's longest-prefix match must agree with
//! a naive linear scan.

use proptest::prelude::*;
use sixgen_addr::{NybbleAddr, Prefix};
use sixgen_routing::PrefixTable;

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u128>(), 0u8..=128).prop_map(|(bits, len)| Prefix::new(NybbleAddr::from_bits(bits), len))
}

/// Prefixes drawn from a narrow pool so lookups actually hit nested routes.
fn arb_clustered_prefix() -> impl Strategy<Value = Prefix> {
    (0u8..4, 8u8..=64).prop_map(|(net, len)| {
        let bits = 0x2001_0db8_0000_0000_0000_0000_0000_0000u128 | ((net as u128) << 88);
        Prefix::new(NybbleAddr::from_bits(bits), len)
    })
}

/// A prefix length: the default route, a host route, or anything between.
fn arb_len() -> impl Strategy<Value = u8> {
    prop_oneof![Just(0u8), Just(128u8), 0u8..=128]
}

/// How to draw one prefix around an anchor: `(keep, noise, len)`.
fn arb_draw() -> impl Strategy<Value = (u8, u128, u8)> {
    (0u8..=128, any::<u128>(), arb_len())
}

/// The prefix that keeps the top `keep` bits of `anchor`, draws the rest
/// from `noise` and is `len` bits long, so most prefixes drawn around one
/// anchor cover it or sit beside it.
fn around(anchor: u128, (keep, noise, len): (u8, u128, u8)) -> Prefix {
    let bits = anchor ^ noise.checked_shr(u32::from(keep)).unwrap_or(0);
    Prefix::new(NybbleAddr::from_bits(bits), len)
}

/// Random addresses, addresses near `anchor`, and every route's first,
/// last, next and previous address.
fn probe_addrs(table: &PrefixTable, anchor: u128, probes: &[u128]) -> Vec<NybbleAddr> {
    let mut addrs = probes.to_vec();
    addrs.extend(probes.iter().map(|noise| anchor ^ noise >> 64));
    for route in table.iter() {
        let first = route.prefix.network().bits();
        let last = first
            | u128::MAX
                .checked_shr(u32::from(route.prefix.len()))
                .unwrap_or(0);
        addrs.extend([first, last, last.wrapping_add(1), first.wrapping_sub(1)]);
    }
    addrs.into_iter().map(NybbleAddr::from_bits).collect()
}

fn naive_lpm(routes: &[(Prefix, u32)], addr: NybbleAddr) -> Option<u32> {
    routes
        .iter()
        .filter(|(p, _)| p.contains(addr))
        .max_by_key(|(p, _)| p.len())
        .map(|(_, asn)| *asn)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Nested prefixes of every length from `::/0` to /128, some announced
    /// again by another AS: the table lists each prefix once, at its first
    /// position with its last origin, and every lookup, at random
    /// addresses and at every prefix's edges, is the naive longest match.
    #[test]
    fn trie_matches_naive_scan(
        anchor in any::<u128>(),
        draws in prop::collection::vec((arb_draw(), any::<u32>()), 1..40),
        repeats in prop::collection::vec((any::<usize>(), any::<u32>()), 0..8),
        probes in prop::collection::vec(any::<u128>(), 0..40),
    ) {
        let mut routes: Vec<(Prefix, u32)> =
            draws.iter().map(|&(draw, asn)| (around(anchor, draw), asn)).collect();
        for &(index, asn) in &repeats {
            routes.push((routes[index % draws.len()].0, asn));
        }
        let mut effective: Vec<(Prefix, u32)> = Vec::new();
        for &(p, asn) in &routes {
            match effective.iter_mut().find(|(q, _)| *q == p) {
                Some(slot) => slot.1 = asn,
                None => effective.push((p, asn)),
            }
        }
        let table = PrefixTable::from_routes(routes.iter().copied());
        let listed: Vec<(Prefix, u32)> = table.iter().map(|e| (e.prefix, e.asn)).collect();
        prop_assert_eq!(&listed, &effective, "first position, last origin");
        for addr in probe_addrs(&table, anchor, &probes) {
            prop_assert_eq!(
                table.lookup(addr).map(|e| e.asn),
                naive_lpm(&effective, addr),
                "lookup mismatch for {}", addr
            );
            prop_assert_eq!(
                table.route_index(addr).map(|i| listed[i].0),
                table.routed_prefix(addr)
            );
        }
    }

    /// The run splitter cuts a sorted list into runs whose addresses each
    /// have the run's longest match, that join back into the list, and
    /// that are maximal: no two neighbouring runs share a match, also
    /// where the list skips every address of one route, so that its
    /// parent's addresses on either side must form one run.
    #[test]
    fn runs_match_lookups_and_are_maximal(
        anchor in any::<u128>(),
        draws in prop::collection::vec(arb_draw(), 0..24),
        probes in prop::collection::vec(any::<u128>(), 0..64),
        skipped in any::<usize>(),
    ) {
        let table = PrefixTable::from_routes(
            draws.iter().enumerate().map(|(i, &draw)| (around(anchor, draw), i as u32)),
        );
        let mut addrs = probe_addrs(&table, anchor, &probes);
        if let Some(skip) = table.iter().nth(skipped % draws.len().max(1)) {
            addrs.retain(|&addr| !skip.prefix.contains(addr));
        }
        addrs.sort_unstable();
        let runs: Vec<(Option<usize>, &[NybbleAddr])> = table.runs(&addrs).collect();
        let joined: Vec<NybbleAddr> = runs.iter().flat_map(|(_, run)| run.iter().copied()).collect();
        prop_assert_eq!(&joined, &addrs);
        for (route, run) in &runs {
            prop_assert!(!run.is_empty());
            for &addr in run.iter() {
                prop_assert_eq!(table.route_index(addr), *route, "{}", addr);
            }
        }
        for pair in runs.windows(2) {
            prop_assert_ne!(pair[0].0, pair[1].0, "runs are maximal");
        }
    }
}

proptest! {
    #[test]
    fn random_prefixes_roundtrip_lookup(route in arb_prefix(), asn in any::<u32>()) {
        let table = PrefixTable::from_routes([(route, asn)]);
        // The network address itself always matches its own prefix.
        prop_assert_eq!(table.lookup(route.network()).map(|e| e.asn), Some(asn));
    }

    #[test]
    fn grouping_partitions_input(
        routes in prop::collection::vec((arb_clustered_prefix(), any::<u32>()), 1..20),
        probes in prop::collection::vec(any::<u64>(), 0..60),
    ) {
        let table = PrefixTable::from_routes(routes);
        let addrs: Vec<NybbleAddr> = probes
            .iter()
            .map(|&x| NybbleAddr::from_bits(
                0x2001_0db8_0000_0000_0000_0000_0000_0000u128 | x as u128 | ((x as u128 & 0xF) << 88),
            ))
            .collect();
        let (grouped, unrouted) = table.group_by_prefix(addrs.iter().copied());
        let total: usize = grouped.values().map(|v| v.len()).sum::<usize>() + unrouted.len();
        prop_assert_eq!(total, addrs.len(), "grouping must partition the input");
        for (prefix, members) in &grouped {
            for m in members {
                prop_assert!(prefix.contains(*m));
                // And the prefix is the longest match.
                prop_assert_eq!(table.routed_prefix(*m).unwrap(), *prefix);
            }
        }
        for u in &unrouted {
            prop_assert!(table.lookup(*u).is_none());
        }
    }
}
