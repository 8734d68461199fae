//! Clusters and growth evaluation (Algorithm 1's `FindCandidateSeeds` and
//! the per-cluster half of `GrowCluster`).

use crate::draw::bounded_draw;
use crate::ClusterMode;
use sixgen_addr::{compare_density, NybbleAddr, NybbleTree, Range};
use std::collections::HashSet;

/// A 6Gen cluster: a range of address space and the number of seeds inside
/// it.
///
/// Per §5.5's space optimization, the seed *set* itself is not stored — it
/// can always be reconstructed from the range via the seed tree — only the
/// range and the seed-set size.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// The region of address space encompassing the cluster's seeds.
    pub range: Range,
    /// Number of seeds inside `range` (the cluster's seed-set size).
    pub seed_count: u64,
}

impl Cluster {
    /// The initial cluster for a single seed: range equal to the seed
    /// address (`InitClusters` in Algorithm 1).
    pub fn singleton(seed: NybbleAddr) -> Cluster {
        Cluster {
            range: Range::from_address(seed),
            seed_count: 1,
        }
    }

    /// The cluster's seed density: seed-set size divided by range size.
    /// Exposed as an `f64` for reporting; the algorithm itself compares
    /// densities exactly via [`compare_density`].
    pub fn density(&self) -> f64 {
        self.seed_count as f64 / self.range.size() as f64
    }

    /// `true` if the cluster never grew beyond its initial single seed.
    pub fn is_singleton(&self) -> bool {
        self.range.size() == 1
    }
}

/// A candidate growth of one cluster: the expanded range it would adopt and
/// the seed count / size that determine its density.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Growth {
    /// The expanded range.
    pub range: Range,
    /// Seeds inside the expanded range — the grown cluster's full seed set
    /// (the expansion may encapsulate seeds beyond the candidate, §5.4).
    pub seed_count: u64,
    /// Cached `range.size()`.
    pub range_size: u128,
}

impl Growth {
    /// Orders two growths by 6Gen's greedy criterion: higher seed density
    /// first, then smaller range size ("If there are multiple growth options
    /// that result in the same maximum density, we prioritize smaller grown
    /// clusters as they consume less budget", §5.4). Returns
    /// `Ordering::Greater` if `self` is the better growth. Exact ties are
    /// broken at random by the caller.
    pub fn preference(&self, other: &Growth) -> core::cmp::Ordering {
        compare_density(
            self.seed_count,
            self.range_size,
            other.seed_count,
            other.range_size,
        )
        .then_with(|| other.range_size.cmp(&self.range_size))
    }
}

/// Result of [`evaluate_growth`]: the best growth (if any) plus counts that
/// feed the observability layer's candidate-set histograms. Both counts are
/// pure functions of the seed set and cluster, so they are safe to record
/// in the deterministic metrics section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrowthEvaluation {
    /// The best growth, or `None` when the cluster already contains every
    /// seed (no candidate exists) — the algorithm's second termination
    /// condition.
    pub growth: Option<Growth>,
    /// The candidates' nybble Hamming distance from the cluster's range
    /// (the minimum over seeds outside it); `0` when there is no
    /// candidate. Every address of every candidate growth lies within
    /// this distance of the range, so a seed added farther away changes
    /// neither the candidates nor any growth's seed count.
    pub distance: u32,
    /// Number of candidate seeds at minimum Hamming distance.
    pub candidates: u64,
    /// Number of distinct expanded ranges actually evaluated (candidates
    /// minus duplicate-range skips).
    pub ranges_evaluated: u64,
}

/// Evaluates the best growth for one cluster (`FindCandidateSeeds` plus the
/// inner loop of `GrowCluster`):
///
/// 1. find all non-member seeds at minimum Hamming distance from the
///    cluster's range (the *candidate seeds*), deduplicated at the tree
///    level into one group per induced expansion (§5.5's fused traversal:
///    in loose mode the expanded range depends only on the candidate's
///    mismatch-position signature; in tight mode additionally on its
///    values at those positions), with each group's expanded-range seed
///    count computed in the same walk from subtree counts;
/// 2. for each group, materialize the expanded range (loose or tight per
///    `mode`);
/// 3. keep the growth with maximum density, breaking ties toward smaller
///    ranges and then uniformly at random (via `tie_break`, a pseudo-random
///    stream supplied by the engine so parallel evaluation stays
///    deterministic).
///
/// The groups arrive in the same first-occurrence order the unfused
/// [`evaluate_growth_unfused`] evaluates distinct ranges in, so both
/// implementations draw identically from `tie_break` and return identical
/// results — pinned by differential tests and the engine's
/// `Config::unfused_growth` escape hatch.
pub fn evaluate_growth(
    cluster: &Cluster,
    tree: &NybbleTree,
    mode: ClusterMode,
    tie_break: impl FnMut() -> u64,
) -> GrowthEvaluation {
    evaluate_growth_bounded(
        cluster,
        tree,
        mode,
        (sixgen_addr::NYBBLE_COUNT + 1) as u32,
        tie_break,
    )
}

/// [`evaluate_growth`] seeded with an achievable upper bound on the
/// candidate distance (see [`NybbleTree::growth_candidates_bounded`]). The
/// bound only prunes subtrees that cannot contain minimum-distance
/// candidates, so the evaluation — including the tie-break draw stream —
/// is byte-identical for every valid bound; the engine derives one from
/// the sorted seed list's numeric neighbours of the cluster range.
pub fn evaluate_growth_bounded(
    cluster: &Cluster,
    tree: &NybbleTree,
    mode: ClusterMode,
    distance_bound: u32,
    mut tie_break: impl FnMut() -> u64,
) -> GrowthEvaluation {
    let group_by_values = matches!(mode, ClusterMode::Tight);
    let Some(cands) =
        tree.growth_candidates_bounded(&cluster.range, group_by_values, distance_bound)
    else {
        return GrowthEvaluation {
            growth: None,
            distance: 0,
            candidates: 0,
            ranges_evaluated: 0,
        };
    };
    let mut best: Option<Growth> = None;
    let mut ties: u64 = 0;
    let mut candidate_count: u64 = 0;
    for group in &cands.groups {
        candidate_count += group.count;
        let range = match mode {
            ClusterMode::Loose => cluster.range.widen_positions(group.signature),
            ClusterMode::Tight => cluster
                .range
                .insert_position_values(group.signature, group.values),
        };
        let growth = Growth {
            // Candidates sit at *minimum* distance, so the expanded range
            // contains exactly the cluster's members plus this group (any
            // other absorbed seed would itself be a closer candidate).
            seed_count: cands.members + group.count,
            range_size: range.size(),
            range,
        };
        match &best {
            None => {
                best = Some(growth);
                ties = 1;
            }
            Some(current) => match growth.preference(current) {
                core::cmp::Ordering::Greater => {
                    best = Some(growth);
                    ties = 1;
                }
                core::cmp::Ordering::Equal => {
                    // Reservoir sampling over equally-good growths: replace
                    // the incumbent with probability 1/(ties+1), drawn
                    // without modulo bias (see `bounded_draw`).
                    ties += 1;
                    if bounded_draw(&mut tie_break, ties) == 0 {
                        best = Some(growth);
                    }
                }
                core::cmp::Ordering::Less => {}
            },
        }
    }
    GrowthEvaluation {
        growth: best,
        distance: cands.distance,
        candidates: candidate_count,
        ranges_evaluated: cands.groups.len() as u64,
    }
}

/// The unfused reference implementation of [`evaluate_growth`]: candidate
/// search ([`NybbleTree::nearest_outside`]) followed by one
/// [`NybbleTree::count_in_range`] walk per distinct expanded range.
///
/// Kept for differential testing (and selectable engine-wide via the
/// hidden `Config::unfused_growth` flag): it must return byte-identical
/// results to the fused path and consume the `tie_break` stream
/// identically. It is O(candidates × range positions) slower in both
/// allocation (materializes every candidate address) and counting (re-walks
/// the tree per range), which is exactly what the fused traversal removes.
pub fn evaluate_growth_unfused(
    cluster: &Cluster,
    tree: &NybbleTree,
    mode: ClusterMode,
    mut tie_break: impl FnMut() -> u64,
) -> GrowthEvaluation {
    let Some((distance, candidates)) = tree.nearest_outside(&cluster.range) else {
        return GrowthEvaluation {
            growth: None,
            distance: 0,
            candidates: 0,
            ranges_evaluated: 0,
        };
    };
    let mut best: Option<Growth> = None;
    let mut ties: u64 = 0;
    let mut candidate_count: u64 = 0;
    let mut ranges_evaluated: u64 = 0;
    // Distinct candidates often induce the same expanded range (e.g. two
    // seeds differing from the range in the same positions under loose
    // mode); evaluate each range once. The membership probe never clones —
    // duplicate-heavy candidate sets only pay a lookup, and a clone is
    // taken once per *distinct* range.
    let mut seen: HashSet<Range> = HashSet::new();
    for seed in candidates {
        candidate_count += 1;
        let range = match mode {
            ClusterMode::Loose => cluster.range.expand_loose(seed),
            ClusterMode::Tight => cluster.range.expand_tight(seed),
        };
        if seen.contains(&range) {
            continue;
        }
        seen.insert(range.clone());
        ranges_evaluated += 1;
        let growth = Growth {
            seed_count: tree.count_in_range(&range),
            range_size: range.size(),
            range,
        };
        match &best {
            None => {
                best = Some(growth);
                ties = 1;
            }
            Some(current) => match growth.preference(current) {
                core::cmp::Ordering::Greater => {
                    best = Some(growth);
                    ties = 1;
                }
                core::cmp::Ordering::Equal => {
                    ties += 1;
                    if bounded_draw(&mut tie_break, ties) == 0 {
                        best = Some(growth);
                    }
                }
                core::cmp::Ordering::Less => {}
            },
        }
    }
    GrowthEvaluation {
        growth: best,
        distance,
        candidates: candidate_count,
        ranges_evaluated,
    }
}

/// The best growth for one cluster, without the candidate-count
/// bookkeeping. See [`evaluate_growth`] for the algorithm; returns `None`
/// when the cluster already contains every seed.
pub fn best_growth(
    cluster: &Cluster,
    tree: &NybbleTree,
    mode: ClusterMode,
    tie_break: impl FnMut() -> u64,
) -> Option<Growth> {
    evaluate_growth(cluster, tree, mode, tie_break).growth
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> NybbleAddr {
        s.parse().unwrap()
    }

    fn tree(seeds: &[&str]) -> NybbleTree {
        NybbleTree::from_addresses(seeds.iter().map(|s| addr(s)))
    }

    #[test]
    fn singleton_cluster() {
        let c = Cluster::singleton(addr("2001:db8::1"));
        assert_eq!(c.seed_count, 1);
        assert_eq!(c.range.size(), 1);
        assert!(c.is_singleton());
        assert_eq!(c.density(), 1.0);
    }

    #[test]
    fn growth_prefers_density_then_size() {
        let dense_small = Growth {
            range: Range::from_address(addr("::1")),
            seed_count: 4,
            range_size: 16,
        };
        let sparse = Growth {
            range: Range::from_address(addr("::2")),
            seed_count: 4,
            range_size: 256,
        };
        let dense_large = Growth {
            range: Range::from_address(addr("::3")),
            seed_count: 64,
            range_size: 256,
        };
        assert_eq!(
            dense_small.preference(&sparse),
            core::cmp::Ordering::Greater
        );
        // Equal density (4/16 == 64/256): smaller range wins.
        assert_eq!(
            dense_small.preference(&dense_large),
            core::cmp::Ordering::Greater
        );
        assert_eq!(
            dense_large.preference(&dense_small),
            core::cmp::Ordering::Less
        );
    }

    #[test]
    fn best_growth_picks_nearest_then_densest() {
        // Cluster at ::10. Seeds ::11 and ::19 are both distance 1;
        // expanding by either (loose) gives ::1? which contains 3 seeds.
        // Seed ::99 is distance 2 and is not a candidate.
        let t = tree(&["2001:db8::10", "2001:db8::11", "2001:db8::19", "2001:db8::99"]);
        let c = Cluster::singleton(addr("2001:db8::10"));
        let g = best_growth(&c, &t, ClusterMode::Loose, || 0).unwrap();
        assert_eq!(g.range, "2001:db8::1?".parse().unwrap());
        assert_eq!(g.seed_count, 3);
        assert_eq!(g.range_size, 16);
    }

    #[test]
    fn best_growth_counts_encapsulated_seeds() {
        // Growing ::100 by ::109 (distance 1) must also absorb ::105, which
        // falls inside the expanded range (§5.4).
        let t = tree(&["2001:db8::100", "2001:db8::105", "2001:db8::109"]);
        let c = Cluster::singleton(addr("2001:db8::100"));
        let g = best_growth(&c, &t, ClusterMode::Loose, || 0).unwrap();
        assert_eq!(g.seed_count, 3);
    }

    #[test]
    fn best_growth_tight_mode() {
        let t = tree(&["2001:db8::100", "2001:db8::105", "2001:db8::109"]);
        let c = Cluster::singleton(addr("2001:db8::100"));
        let g = best_growth(&c, &t, ClusterMode::Tight, || 0).unwrap();
        // Tight expansion by one candidate: {0,5} or {0,9} in the last
        // nybble, size 2, containing 2 seeds (density 1) — denser than any
        // loose alternative.
        assert_eq!(g.range_size, 2);
        assert_eq!(g.seed_count, 2);
    }

    #[test]
    fn evaluate_growth_reports_candidate_counts() {
        // ::11 and ::19 are the two distance-1 candidates; under loose mode
        // both induce the same expanded range ::1?, so only one distinct
        // range is evaluated.
        let t = tree(&["2001:db8::10", "2001:db8::11", "2001:db8::19", "2001:db8::99"]);
        let c = Cluster::singleton(addr("2001:db8::10"));
        let eval = evaluate_growth(&c, &t, ClusterMode::Loose, || 0);
        assert_eq!(eval.candidates, 2);
        assert_eq!(eval.ranges_evaluated, 1);
        assert_eq!(eval.growth.unwrap().seed_count, 3);
        // A cluster holding every seed has nothing to evaluate.
        let full = Cluster {
            range: "2001:db8::??".parse().unwrap(),
            seed_count: 4,
        };
        let eval = evaluate_growth(&full, &t, ClusterMode::Loose, || 0);
        assert!(eval.growth.is_none());
        assert_eq!(eval.candidates, 0);
        assert_eq!(eval.ranges_evaluated, 0);
    }

    #[test]
    fn best_growth_none_when_cluster_has_all_seeds() {
        let t = tree(&["2001:db8::1", "2001:db8::2"]);
        let c = Cluster {
            range: "2001:db8::?".parse().unwrap(),
            seed_count: 2,
        };
        assert!(best_growth(&c, &t, ClusterMode::Loose, || 0).is_none());
    }

    #[test]
    fn best_growth_deterministic_under_tie_break_stream() {
        // Two equidistant candidates with equal resulting density and size:
        // the tie-break stream decides, deterministically.
        let t = tree(&["2001:db8::50", "2001:db8::41", "2001:db8::61"]);
        let c = Cluster::singleton(addr("2001:db8::50"));
        let g0 = best_growth(&c, &t, ClusterMode::Tight, || 0).unwrap();
        let g0_again = best_growth(&c, &t, ClusterMode::Tight, || 0).unwrap();
        assert_eq!(g0.range, g0_again.range);
        // Both candidate growths have 2 seeds in a size-4 tight range.
        assert_eq!(g0.seed_count, 2);
        assert_eq!(g0.range_size, 4);
    }

    #[test]
    fn duplicate_candidates_deduplicate_to_one_range() {
        // Six candidates all mismatch the cluster in the same (last)
        // position, so loose expansion induces one single range. Both
        // implementations must report 6 candidates but evaluate 1 range,
        // and the unfused path's dedup probe must not clone per duplicate
        // (pinned structurally: only one distinct range ever enters the
        // seen-set, so at most one clone is taken).
        let t = tree(&[
            "2001:db8::10",
            "2001:db8::11",
            "2001:db8::13",
            "2001:db8::15",
            "2001:db8::19",
            "2001:db8::1b",
            "2001:db8::1e",
        ]);
        let c = Cluster::singleton(addr("2001:db8::10"));
        for mode in [ClusterMode::Loose, ClusterMode::Tight] {
            let fused = evaluate_growth(&c, &t, mode, || 0);
            let unfused = evaluate_growth_unfused(&c, &t, mode, || 0);
            assert_eq!(fused.candidates, 6);
            assert_eq!(unfused.candidates, 6);
            // Loose: all six widen position 31 to `?`. Tight: all six
            // insert distinct values, so six distinct ranges.
            let expected_ranges = match mode {
                ClusterMode::Loose => 1,
                ClusterMode::Tight => 6,
            };
            assert_eq!(fused.ranges_evaluated, expected_ranges);
            assert_eq!(unfused.ranges_evaluated, expected_ranges);
            assert_eq!(fused.growth, unfused.growth);
        }
    }

    #[test]
    fn fused_and_unfused_agree_and_draw_identically() {
        // Randomized clusters over a structured seed set: the fused
        // traversal must return the same evaluation as the unfused
        // reference AND consume the tie-break stream identically (same
        // number of draws in the same order), which is what makes the two
        // engine paths byte-identical.
        let mut state: u64 = 0x5EED;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        let seeds: Vec<NybbleAddr> = (0..120)
            .map(|_| {
                let r = next();
                NybbleAddr::from_bits(
                    (0x2001_0db8u128) << 96
                        | ((r % 5) as u128) << 16
                        | ((r >> 8) % 64) as u128,
                )
            })
            .collect();
        let t = NybbleTree::from_addresses(seeds.iter().copied());
        for trial in 0..30 {
            let anchor = seeds[(next() as usize) % seeds.len()];
            let cluster = if trial % 3 == 0 {
                Cluster::singleton(anchor)
            } else {
                // A small grown range around the anchor.
                let range = Range::from_address(anchor).expand_loose(NybbleAddr::from_bits(
                    anchor.bits() ^ (0xF & next() as u128),
                ));
                let count = t.count_in_range(&range);
                Cluster {
                    range,
                    seed_count: count,
                }
            };
            for mode in [ClusterMode::Loose, ClusterMode::Tight] {
                let mut draws_fused: Vec<u64> = Vec::new();
                let mut s1: u64 = 0xABCD ^ trial;
                let fused = evaluate_growth(&cluster, &t, mode, || {
                    s1 = s1.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
                    draws_fused.push(s1);
                    s1
                });
                let mut draws_unfused: Vec<u64> = Vec::new();
                let mut s2: u64 = 0xABCD ^ trial;
                let unfused = evaluate_growth_unfused(&cluster, &t, mode, || {
                    s2 = s2.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
                    draws_unfused.push(s2);
                    s2
                });
                assert_eq!(fused.growth, unfused.growth, "trial {trial} {mode:?}");
                assert_eq!(fused.candidates, unfused.candidates);
                assert_eq!(fused.ranges_evaluated, unfused.ranges_evaluated);
                assert_eq!(
                    draws_fused, draws_unfused,
                    "tie-break stream consumption diverged (trial {trial} {mode:?})"
                );
            }
        }
    }
}
