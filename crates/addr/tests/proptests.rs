//! Property-based tests for the address/range substrate.

use proptest::prelude::*;
use sixgen_addr::{compare_density, NybbleAddr, NybbleSet, NybbleTree, Prefix, Range, U256};

fn arb_addr() -> impl Strategy<Value = NybbleAddr> {
    any::<u128>().prop_map(NybbleAddr::from_bits)
}

/// Addresses clustered in a common /96 so ranges and trees see realistic
/// shared-prefix structure.
fn arb_clustered_addr() -> impl Strategy<Value = NybbleAddr> {
    any::<u32>().prop_map(|low| {
        NybbleAddr::from_bits(0x2001_0db8_0000_0000_0000_0000_0000_0000u128 | low as u128)
    })
}

fn arb_range() -> impl Strategy<Value = Range> {
    // Build a range by expanding a singleton with a few addresses, randomly
    // loose or tight per expansion.
    (
        arb_clustered_addr(),
        prop::collection::vec((arb_clustered_addr(), any::<bool>()), 0..6),
    )
        .prop_map(|(first, grows)| {
            let mut range = Range::from_address(first);
            for (addr, loose) in grows {
                range = if loose {
                    range.expand_loose(addr)
                } else {
                    range.expand_tight(addr)
                };
            }
            range
        })
}

/// Small enumerable ranges: random fixed values at every position (up to
/// `f`), then up to two positions made dynamic with a full or a partial
/// set, and sometimes position 0 made dynamic with a set holding `f` (the
/// odometer's carry out of the top position). With no dynamic position
/// the range is a single address. At most 16³ addresses.
fn arb_enumerable_range() -> impl Strategy<Value = Range> {
    (
        any::<u128>(),
        prop::collection::vec((0usize..32, 1u16..=0xFFFF, any::<bool>()), 0..3),
        any::<bool>(),
        1u16..=0xFFFF,
    )
        .prop_map(|(values, dynamic, top, top_mask)| {
            let mut sets = NybbleAddr::from_bits(values).nybbles().map(NybbleSet::single);
            for (position, mask, full) in dynamic {
                sets[position] = if full {
                    NybbleSet::FULL
                } else {
                    NybbleSet::from_mask(mask)
                };
            }
            if top {
                sets[0] = NybbleSet::from_mask(top_mask | 0x8001);
            }
            Range::from_sets(sets)
        })
}

proptest! {
    #[test]
    fn address_text_roundtrip(addr in arb_addr()) {
        let text = addr.to_string();
        let back: NybbleAddr = text.parse().unwrap();
        prop_assert_eq!(back, addr);
    }

    #[test]
    fn address_nybble_array_roundtrip(addr in arb_addr()) {
        prop_assert_eq!(NybbleAddr::from_nybbles(addr.nybbles()), addr);
    }

    #[test]
    fn hamming_bounds_and_symmetry(a in arb_addr(), b in arb_addr()) {
        let d = a.hamming(b);
        prop_assert_eq!(d, b.hamming(a));
        prop_assert!(d <= 32);
        prop_assert_eq!(d == 0, a == b);
        // Bit distance is between nybble distance and 4x nybble distance.
        let bits = a.hamming_bits(b);
        prop_assert!(bits >= d && bits <= 4 * d);
    }

    #[test]
    fn range_text_roundtrip(range in arb_range()) {
        let text = range.to_string();
        let back: Range = text.parse().unwrap();
        prop_assert_eq!(back, range);
    }

    #[test]
    fn expansion_covers_and_grows(range in arb_range(), addr in arb_clustered_addr()) {
        for grown in [range.expand_loose(addr), range.expand_tight(addr)] {
            prop_assert!(grown.contains(addr));
            prop_assert!(range.is_subset(&grown));
            prop_assert!(grown.size() >= range.size());
            prop_assert_eq!(grown.distance(addr), 0);
        }
        // Tight expansion is minimal: it is a subset of the loose one.
        prop_assert!(range.expand_tight(addr).is_subset(&range.expand_loose(addr)));
    }

    #[test]
    fn membership_iff_distance_zero(range in arb_range(), addr in arb_clustered_addr()) {
        prop_assert_eq!(range.contains(addr), range.distance(addr) == 0);
    }

    #[test]
    fn distance_drops_by_at_most_one_per_expansion(range in arb_range(), addr in arb_clustered_addr()) {
        // Each expansion by some other address can reduce the distance to
        // `addr` by at most the number of positions it wildcards, and the
        // tight expansion by `addr` itself reduces it to zero.
        let d = range.distance(addr);
        let grown = range.expand_tight(addr);
        prop_assert_eq!(grown.distance(addr), 0);
        prop_assert!(grown.size() >= range.size());
        // Distance equals number of positions whose set misses addr.
        let mismatches = (0..32).filter(|&i| !range.set(i).contains(addr.nybble(i))).count() as u32;
        prop_assert_eq!(d, mismatches);
    }

    #[test]
    fn size_matches_enumeration_for_small_ranges(range in arb_range()) {
        prop_assume!(range.size() <= 4096);
        let addrs: Vec<NybbleAddr> = range.iter().collect();
        prop_assert_eq!(addrs.len() as u128, range.size());
        // All members, all distinct, sorted.
        for w in addrs.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        for a in &addrs {
            prop_assert!(range.contains(*a));
        }
    }

    #[test]
    fn nth_index_roundtrip(range in arb_range(), idx_seed in any::<u64>()) {
        let size = range.size();
        prop_assume!(size < u128::MAX);
        let idx = idx_seed as u128 % size;
        let addr = range.nth(idx);
        prop_assert_eq!(range.index_of(addr), Some(idx));
        prop_assert!(range.contains(addr));
    }

    #[test]
    fn union_is_commutative_cover(r1 in arb_range(), r2 in arb_range()) {
        let u = r1.union(&r2);
        prop_assert_eq!(&u, &r2.union(&r1));
        prop_assert!(r1.is_subset(&u));
        prop_assert!(r2.is_subset(&u));
    }

    #[test]
    fn intersection_agrees_with_membership(r1 in arb_range(), r2 in arb_range(), addr in arb_clustered_addr()) {
        let both = r1.contains(addr) && r2.contains(addr);
        match r1.intersection(&r2) {
            Some(i) => prop_assert_eq!(i.contains(addr), both),
            None => prop_assert!(!both),
        }
        prop_assert_eq!(r1.intersects(&r2), r1.intersection(&r2).is_some());
    }

    #[test]
    fn packed_masks_subset_matches_range_subset(r1 in arb_range(), r2 in arb_range()) {
        let p1 = r1.packed_masks();
        let p2 = r2.packed_masks();
        prop_assert_eq!(p1.is_subset(&p2), r1.is_subset(&r2));
        prop_assert_eq!(p2.is_subset(&p1), r2.is_subset(&r1));
        prop_assert!(p1.is_subset(&p1));
        // A range is always a subset of its loosened form.
        prop_assert!(p1.is_subset(&r1.loosen().packed_masks()));
    }

    #[test]
    fn subset_implies_smaller_size(r1 in arb_range(), r2 in arb_range()) {
        if r1.is_subset(&r2) {
            prop_assert!(r1.size() <= r2.size());
        }
    }

    #[test]
    fn loosen_is_superset_and_loose(range in arb_range()) {
        let loose = range.loosen();
        prop_assert!(range.is_subset(&loose));
        prop_assert!(loose.is_loose());
        // Loosening is idempotent.
        prop_assert_eq!(&loose.loosen(), &loose);
    }

    #[test]
    fn tree_agrees_with_naive_membership_and_counts(
        addrs in prop::collection::vec(arb_clustered_addr(), 1..80),
        range in arb_range(),
    ) {
        let tree = NybbleTree::from_addresses(addrs.iter().copied());
        let mut uniq = addrs.clone();
        uniq.sort();
        uniq.dedup();
        prop_assert_eq!(tree.len(), uniq.len());
        let naive_count = uniq.iter().filter(|a| range.contains(**a)).count() as u64;
        prop_assert_eq!(tree.count_in_range(&range), naive_count);
        let mut collected = tree.collect_in_range(&range);
        collected.sort();
        let naive: Vec<_> = uniq.iter().copied().filter(|a| range.contains(*a)).collect();
        prop_assert_eq!(collected, naive);
    }

    #[test]
    fn tree_nearest_matches_naive(
        addrs in prop::collection::vec(arb_clustered_addr(), 1..60),
        range in arb_range(),
    ) {
        let tree = NybbleTree::from_addresses(addrs.iter().copied());
        let mut uniq = addrs.clone();
        uniq.sort();
        uniq.dedup();
        let naive_min = uniq.iter().filter(|a| !range.contains(**a)).map(|a| range.distance(*a)).min();
        match tree.nearest_outside(&range) {
            None => prop_assert_eq!(naive_min, None),
            Some((d, mut seeds)) => {
                prop_assert_eq!(Some(d), naive_min);
                seeds.sort();
                let expect: Vec<_> = uniq
                    .iter()
                    .copied()
                    .filter(|a| !range.contains(*a) && range.distance(*a) == d)
                    .collect();
                prop_assert_eq!(seeds, expect);
            }
        }
    }

    #[test]
    fn fused_growth_candidates_match_naive(
        addrs in prop::collection::vec(arb_clustered_addr(), 1..60),
        range in arb_range(),
        tight in any::<bool>(),
    ) {
        // The fused single-walk growth query must agree with the naive
        // pipeline it replaces: nearest_outside to find candidates, group
        // them by induced expansion in first-occurrence order, and
        // count_in_range per expanded range. This is the differential
        // property that lets the engine swap implementations without
        // changing a single byte of output.
        let tree = NybbleTree::from_addresses(addrs.iter().copied());
        let fused = tree.growth_candidates(&range, tight);
        match tree.nearest_outside(&range) {
            None => prop_assert!(fused.is_none()),
            Some((d, candidates)) => {
                let fused = fused.expect("candidates exist, so groups exist");
                prop_assert_eq!(fused.distance, d);
                prop_assert_eq!(fused.members, tree.count_in_range(&range));
                let mut order: Vec<Range> = Vec::new();
                let mut counts: Vec<u64> = Vec::new();
                for a in candidates {
                    let expanded = if tight { range.expand_tight(a) } else { range.expand_loose(a) };
                    match order.iter().position(|r| *r == expanded) {
                        Some(i) => counts[i] += 1,
                        None => {
                            order.push(expanded);
                            counts.push(1);
                        }
                    }
                }
                prop_assert_eq!(fused.groups.len(), order.len());
                for (g, (expected_range, expected_count)) in
                    fused.groups.iter().zip(order.iter().zip(&counts))
                {
                    let materialized = if tight {
                        range.insert_position_values(g.signature, g.values)
                    } else {
                        range.widen_positions(g.signature)
                    };
                    prop_assert_eq!(&materialized, expected_range);
                    prop_assert_eq!(g.count, *expected_count);
                    // The fusion theorem: expanded-range seed count equals
                    // members plus the group, with no re-walk.
                    prop_assert_eq!(fused.members + g.count, tree.count_in_range(expected_range));
                }
            }
        }
    }

    #[test]
    fn prefix_contains_consistent_with_range(addr in arb_addr(), len4 in 0u8..=32) {
        let len = len4 * 4;
        let prefix = Prefix::new(addr, len);
        let range = prefix.to_range().unwrap();
        prop_assert_eq!(range.size(), prefix.size());
        prop_assert!(prefix.contains(addr));
        prop_assert!(range.contains(addr));
    }

    #[test]
    fn prefix_text_roundtrip(addr in arb_addr(), len in 0u8..=128) {
        let prefix = Prefix::new(addr, len);
        let back: Prefix = prefix.to_string().parse().unwrap();
        prop_assert_eq!(back, prefix);
    }

    #[test]
    fn u256_mul_matches_u128_when_small(a in any::<u64>(), b in any::<u64>()) {
        let exact = (a as u128) * (b as u128);
        prop_assert_eq!(U256::mul_u128(a as u128, b as u128), U256::from_u128(exact));
    }

    #[test]
    fn u256_add_sub_roundtrip(a in any::<u128>(), b in any::<u128>(), c in any::<u128>(), d in any::<u128>()) {
        let x = U256::mul_u128(a, b);
        let y = U256::mul_u128(c, d);
        if let Some(s) = x.checked_add(y) {
            prop_assert_eq!(s.checked_sub(y), Some(x));
            prop_assert_eq!(s.checked_sub(x), Some(y));
            prop_assert!(s >= x && s >= y);
        }
    }

    #[test]
    fn density_comparison_matches_floats_when_safe(
        c1 in 1u64..1_000_000, s1 in 1u128..1_000_000_000,
        c2 in 1u64..1_000_000, s2 in 1u128..1_000_000_000,
    ) {
        // In ranges where f64 is exact (products < 2^53), the exact
        // comparison must agree with floating point.
        let exact = compare_density(c1, s1, c2, s2);
        let float = (c1 as f64 / s1 as f64).partial_cmp(&(c2 as f64 / s2 as f64)).unwrap();
        if (c1 as u128) * s2 < (1u128 << 53) && (c2 as u128) * s1 < (1u128 << 53) {
            prop_assert_eq!(exact, float);
        }
    }

    #[test]
    fn density_fast_path_matches_exact_comparison(
        a_count in any::<u64>(), a_size_raw in any::<u128>(),
        b_count in any::<u64>(), b_size_raw in any::<u128>(),
        tie_count in 1u64..1_000_000, tie_size in 1u128..1_000_000_000,
        k in 1u64..1_000,
    ) {
        // compare_density's f64 fast path must never contradict the exact
        // 256-bit comparison — on arbitrary inputs and on constructed
        // exact ties/near-ties, which must reach the exact fallback.
        let a_size = a_size_raw.max(1);
        let b_size = b_size_raw.max(1);
        let exact = |ac: u64, asz: u128, bc: u64, bsz: u128| {
            U256::mul_u128(ac as u128, bsz).cmp(&U256::mul_u128(bc as u128, asz))
        };
        prop_assert_eq!(
            compare_density(a_count, a_size, b_count, b_size),
            exact(a_count, a_size, b_count, b_size)
        );
        // Exact tie: (c·k)/(s·k) == c/s.
        let scaled_count = tie_count * k;
        let scaled_size = tie_size * k as u128;
        prop_assert_eq!(
            compare_density(scaled_count, scaled_size, tie_count, tie_size),
            core::cmp::Ordering::Equal
        );
        // Near-tie, off by one in the numerator: must resolve exactly.
        prop_assert_eq!(
            compare_density(scaled_count + 1, scaled_size, tie_count, tie_size),
            core::cmp::Ordering::Greater
        );
        prop_assert_eq!(
            compare_density(scaled_count - 1, scaled_size, tie_count, tie_size),
            core::cmp::Ordering::Less
        );
    }

    #[test]
    fn range_sampling_stays_inside(range in arb_range(), seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            prop_assert!(range.contains(range.sample(&mut rng)));
        }
    }

    #[test]
    fn nybbleset_display_roundtrip_via_range(mask in 1u16..=0xFFFF) {
        // Wrap a set into a range's last position and round-trip the text.
        let set = NybbleSet::from_mask(mask);
        let mut sets = [NybbleSet::single(0); 32];
        sets[31] = set;
        let range = Range::from_sets(sets);
        let back: Range = range.to_string().parse().unwrap();
        prop_assert_eq!(back.set(31), set);
    }

    #[test]
    fn range_iteration_is_the_rank_order(range in arb_enumerable_range()) {
        // The bit-level odometer yields exactly `nth(0), nth(1), …` and
        // then stays exhausted; after k steps its size hint is size − k.
        let size = range.size();
        prop_assert!(size <= 4096);
        let mut iter = range.iter();
        for k in 0..size {
            let left = (size - k) as usize;
            prop_assert_eq!(iter.size_hint(), (left, Some(left)));
            prop_assert_eq!(iter.next(), Some(range.nth(k)));
        }
        prop_assert_eq!(iter.size_hint(), (0, Some(0)));
        prop_assert_eq!(iter.next(), None);
        prop_assert_eq!(iter.next(), None);
    }
}
