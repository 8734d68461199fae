//! Scanner-integrated target generation — the paper's §8 "Scanner
//! Integration" direction, implemented:
//!
//! > "tight integration between the target generation and the scanning
//! > processes should allow for more effective scanning. … As a scan
//! > progresses, the results can be fed back to the generation algorithm …
//! > we can early terminate scanning of a region originally predicted as
//! > promising but that has yielded few discovered hosts. Similarly, we can
//! > test regions that have high hit rates for aliasing, and halt scanning
//! > if aliasing is detected. These measures would allow the scanner to
//! > reallocate budget to networks that prove promising in reality."
//!
//! [`adaptive_scan`] interleaves 6Gen's density-greedy growth with live
//! probing. For every newly grown region it first sends a small *pilot*:
//!
//! * a pilot hit rate at or above the alias threshold triggers the §6.2
//!   test (random addresses elsewhere in the enclosing /96); a confirmed
//!   aliased region is abandoned immediately — its remaining addresses are
//!   never probed;
//! * a pilot hit rate below the early-termination threshold abandons the
//!   region the same way;
//! * otherwise the region is scanned in full, and (optionally) its hits are
//!   fed back as new seeds, sharpening subsequent density estimates.
//!
//! Unlike the offline pipeline, the budget here counts **probes actually
//! sent**, so every abandoned region refunds budget to better regions.

use crate::cluster::{evaluate_growth, Cluster, Growth};
use crate::engine::{splitmix64, splitmix64_seed};
use crate::ClusterMode;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sixgen_addr::{NybbleAddr, NybbleTree, Prefix, Range};
use std::collections::HashSet;

/// Configuration of an adaptive (scanner-integrated) run.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Probe budget: the maximum number of probe packets sent (pilots,
    /// full region scans, seed verification, and alias checks all count).
    pub budget: u64,
    /// Loose or tight cluster ranges.
    pub mode: ClusterMode,
    /// Probes in each region pilot.
    pub pilot_size: u64,
    /// Pilot hit rate strictly below which a region is abandoned
    /// ("early terminate scanning of a region … that has yielded few
    /// discovered hosts").
    pub early_termination_rate: f64,
    /// Pilot hit rate at or above which the region is tested for aliasing.
    pub alias_suspect_rate: f64,
    /// Random addresses drawn (from the region's enclosing /96, outside
    /// already-probed space) for the alias test; all must respond for the
    /// region to be declared aliased (§6.2 semantics).
    pub alias_check_addresses: u32,
    /// Granularity of the enclosing prefix used by the alias test.
    pub alias_prefix_len: u8,
    /// Feed confirmed hits back into the seed tree, letting later density
    /// estimates see them.
    pub feedback_seeds: bool,
    /// RNG seed (pilot sampling, alias draws, tie-breaking).
    pub rng_seed: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            budget: 1_000_000,
            mode: ClusterMode::Loose,
            pilot_size: 32,
            early_termination_rate: 0.02,
            alias_suspect_rate: 0.98,
            alias_check_addresses: 3,
            alias_prefix_len: 96,
            feedback_seeds: true,
            rng_seed: 0xADA9,
        }
    }
}

/// Why a region's scan ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionFate {
    /// Scanned in full.
    Scanned,
    /// Abandoned after a cold pilot.
    EarlyTerminated,
    /// Declared aliased and abandoned.
    Aliased,
    /// The budget ran out mid-region.
    BudgetExhausted,
}

/// Per-region record, for analysis of the feedback loop's decisions.
#[derive(Debug, Clone)]
pub struct RegionReport {
    /// The grown region (new range minus what was already probed).
    pub range: Range,
    /// What happened.
    pub fate: RegionFate,
    /// Probes spent on this region (pilot + body + alias checks).
    pub probes: u64,
    /// Hits confirmed inside the region (zero for aliased regions — their
    /// responses are not meaningful discoveries).
    pub hits: u64,
}

/// Result of an adaptive run.
#[derive(Debug)]
pub struct AdaptiveOutcome {
    /// Confirmed (non-aliased) responsive addresses, discovery order.
    pub hits: Vec<NybbleAddr>,
    /// Prefixes declared aliased during the scan.
    pub aliased_prefixes: Vec<Prefix>,
    /// Every region decision.
    pub regions: Vec<RegionReport>,
    /// Probes actually sent (≤ budget).
    pub probes_used: u64,
    /// Number of committed cluster growths.
    pub growths: u64,
    /// Growth evaluations run to refresh stale cluster caches — the loop's
    /// own cost besides sampling, and the count a fed-back hit drives up.
    pub evaluations: u64,
}

impl AdaptiveOutcome {
    /// Regions abandoned by the early-termination rule.
    pub fn early_terminated(&self) -> usize {
        self.regions
            .iter()
            .filter(|r| r.fate == RegionFate::EarlyTerminated)
            .count()
    }

    /// Regions abandoned as aliased.
    pub fn aliased_regions(&self) -> usize {
        self.regions
            .iter()
            .filter(|r| r.fate == RegionFate::Aliased)
            .count()
    }
}

/// A cluster's cached growth evaluation.
#[derive(Debug, PartialEq)]
enum CachedGrowth {
    Stale,
    /// No seed lies outside the cluster's range.
    Exhausted,
    /// The best growth and its candidate distance: only a seed within
    /// `distance` of the cluster's range can change it.
    Ready {
        growth: Growth,
        distance: u32,
    },
}

impl CachedGrowth {
    /// Evaluates `cluster` against the current seed tree. The tie-break
    /// stream is seeded from the run's seed and the cluster's range, never
    /// from the tree, so the result depends on the tree only through the
    /// seeds within the candidate distance.
    fn evaluate(cluster: &Cluster, tree: &NybbleTree, config: &AdaptiveConfig) -> CachedGrowth {
        let mut state = splitmix64_seed(
            config.rng_seed,
            cluster.range.min_address().bits(),
            cluster.range.size(),
        );
        let tie = move || {
            state = splitmix64(state);
            state
        };
        let evaluation = evaluate_growth(cluster, tree, config.mode, tie);
        match evaluation.growth {
            Some(growth) => CachedGrowth::Ready {
                growth,
                distance: evaluation.distance,
            },
            None => CachedGrowth::Exhausted,
        }
    }

    /// `false` only for a ready growth that no seed of `added` can change:
    /// a seed farther from `range` than the candidate distance is neither
    /// a member nor a candidate, and lies in none of the candidate growths
    /// (every address of one is within that distance of `range`). An
    /// exhausted cluster may gain its first candidate from any new seed.
    fn changed_by(&self, range: &Range, added: &[NybbleAddr]) -> bool {
        match self {
            CachedGrowth::Ready { distance, .. } => {
                added.iter().any(|&seed| range.distance(seed) <= *distance)
            }
            CachedGrowth::Stale | CachedGrowth::Exhausted => true,
        }
    }
}

/// Runs the scanner-integrated algorithm. `probe` answers one probe packet
/// (true = response received) and is charged against the budget on every
/// call.
pub fn adaptive_scan(
    seeds: impl IntoIterator<Item = NybbleAddr>,
    config: &AdaptiveConfig,
    mut probe: impl FnMut(NybbleAddr) -> bool,
) -> AdaptiveOutcome {
    let mut seeds: Vec<NybbleAddr> = seeds.into_iter().collect();
    seeds.sort_unstable();
    seeds.dedup();

    let mut rng = StdRng::seed_from_u64(config.rng_seed);
    let mut tree = NybbleTree::from_addresses(seeds.iter().copied());
    let mut probed: HashSet<NybbleAddr> = HashSet::new();
    let mut probes_used: u64 = 0;
    let mut hits: Vec<NybbleAddr> = Vec::new();
    let mut aliased_prefixes: Vec<Prefix> = Vec::new();
    let mut regions: Vec<RegionReport> = Vec::new();
    let mut growths: u64 = 0;
    let mut evaluations: u64 = 0;

    // Verify the seeds themselves first (the cheapest ground truth the
    // feedback loop can buy).
    for &seed in &seeds {
        if probes_used >= config.budget {
            break;
        }
        probes_used += 1;
        probed.insert(seed);
        if probe(seed) {
            hits.push(seed);
        }
    }

    let mut slots: Vec<(Cluster, CachedGrowth)> = seeds
        .iter()
        .map(|&s| (Cluster::singleton(s), CachedGrowth::Stale))
        .collect();

    'outer: while probes_used < config.budget {
        // Refresh stale caches.
        let total_seeds = tree.len() as u64;
        for (cluster, cached) in slots.iter_mut() {
            if matches!(cached, CachedGrowth::Stale) {
                *cached = CachedGrowth::evaluate(cluster, &tree, config);
                evaluations += 1;
            }
        }
        // Every cache kept across a feedback insert must equal a fresh
        // evaluation against the grown tree.
        #[cfg(test)]
        for (cluster, cached) in &slots {
            assert_eq!(
                *cached,
                CachedGrowth::evaluate(cluster, &tree, config),
                "out-of-date cached growth for {}",
                cluster.range
            );
        }
        // Select the best growth (density, then smaller range; determinism
        // over scan order suffices here).
        let mut best: Option<(usize, &Growth)> = None;
        for (i, (_, cached)) in slots.iter().enumerate() {
            let CachedGrowth::Ready { growth, .. } = cached else {
                continue;
            };
            if best.is_none_or(|(_, current)| {
                growth.preference(current) == core::cmp::Ordering::Greater
            }) {
                best = Some((i, growth));
            }
        }
        let Some((grown_index, growth)) = best else {
            break; // nothing can grow
        };
        if growth.seed_count == total_seeds && slots.len() == 1 {
            break; // a single all-seed cluster cannot grow further
        }
        let new_range = growth.range.clone();
        let new_seed_count = growth.seed_count;

        // Regions inside already-confirmed aliased prefixes are skipped
        // outright — no packet is worth sending there.
        if aliased_prefixes
            .iter()
            .any(|p| p.contains(new_range.min_address()) && range_within_prefix(&new_range, p))
        {
            slots[grown_index].0 = Cluster {
                range: new_range.clone(),
                seed_count: new_seed_count,
            };
            slots[grown_index].1 = CachedGrowth::Stale;
            growths += 1;
            regions.push(RegionReport {
                range: new_range,
                fate: RegionFate::Aliased,
                probes: 0,
                hits: 0,
            });
            continue;
        }

        // The region to explore: addresses of the grown range not yet
        // probed. Sampled lazily so huge ranges stay cheap.
        let mut sampler = sixgen_addr::RangeSampler::new(new_range.clone());
        let mut region_probes: u64 = 0;
        let mut region_hits: Vec<NybbleAddr> = Vec::new();

        // Pilot.
        let pilot_want = config.pilot_size.min(config.budget - probes_used) as usize;
        let pilot = sampler.draw(&mut rng, pilot_want, |a| probed.contains(&a));
        let mut pilot_hits = 0u64;
        for addr in &pilot {
            probed.insert(*addr);
            probes_used += 1;
            region_probes += 1;
            if probe(*addr) {
                pilot_hits += 1;
                region_hits.push(*addr);
            }
        }
        let pilot_rate = if pilot.is_empty() {
            0.0
        } else {
            pilot_hits as f64 / pilot.len() as f64
        };

        let fate = if probes_used >= config.budget {
            RegionFate::BudgetExhausted
        } else if !pilot.is_empty() && pilot_rate >= config.alias_suspect_rate {
            // Alias test: random addresses from the enclosing prefix,
            // outside anything probed. If every one responds, the region
            // is a mirage (§6.2 semantics at the configured granularity).
            let enclosing = Prefix::of(new_range.min_address(), config.alias_prefix_len);
            let mut all_respond = true;
            for _ in 0..config.alias_check_addresses {
                if probes_used >= config.budget {
                    break;
                }
                let Some(addr) = random_in_prefix(enclosing, &mut rng, &probed) else {
                    // Nothing left to test with: a prefix this small is
                    // all probed already, so it is not shown aliased.
                    all_respond = false;
                    break;
                };
                probed.insert(addr);
                probes_used += 1;
                region_probes += 1;
                if !probe(addr) {
                    all_respond = false;
                    break;
                }
            }
            if all_respond {
                aliased_prefixes.push(enclosing);
                region_hits.clear(); // responses in aliased space are noise
                RegionFate::Aliased
            } else {
                // Dense but genuinely populated: scan it out.
                scan_region(
                    &mut sampler,
                    &mut rng,
                    &mut probed,
                    &mut probes_used,
                    &mut region_probes,
                    &mut region_hits,
                    config.budget,
                    &mut probe,
                )
            }
        } else if pilot_rate < config.early_termination_rate {
            RegionFate::EarlyTerminated
        } else {
            scan_region(
                &mut sampler,
                &mut rng,
                &mut probed,
                &mut probes_used,
                &mut region_probes,
                &mut region_hits,
                config.budget,
                &mut probe,
            )
        };

        // Commit the growth regardless of fate (the cluster's range must
        // advance or the same growth would repeat forever).
        slots[grown_index].0 = Cluster {
            range: new_range.clone(),
            seed_count: new_seed_count,
        };
        slots[grown_index].1 = CachedGrowth::Stale;
        growths += 1;
        // Subsumption.
        let mut index = 0;
        slots.retain(|(cluster, _)| {
            let keep = index == grown_index || !cluster.range.is_subset(&new_range);
            index += 1;
            keep
        });

        // Feedback: confirmed hits become seeds for future density
        // estimates ("the results can be fed back to the generation
        // algorithm"). Only the clusters a new seed can change go stale.
        if config.feedback_seeds && fate == RegionFate::Scanned {
            let added: Vec<NybbleAddr> = region_hits
                .iter()
                .copied()
                .filter(|&hit| tree.insert(hit))
                .collect();
            if !added.is_empty() {
                for (cluster, cached) in slots.iter_mut() {
                    if cached.changed_by(&cluster.range, &added) {
                        *cached = CachedGrowth::Stale;
                    }
                }
            }
        }

        hits.extend(region_hits.iter().copied());
        regions.push(RegionReport {
            range: new_range,
            fate,
            probes: region_probes,
            hits: region_hits.len() as u64,
        });
        if fate == RegionFate::BudgetExhausted {
            break 'outer;
        }
    }

    AdaptiveOutcome {
        hits,
        aliased_prefixes,
        regions,
        probes_used,
        growths,
        evaluations,
    }
}

/// Scans the remainder of a region to completion (or budget exhaustion).
#[allow(clippy::too_many_arguments)]
fn scan_region(
    sampler: &mut sixgen_addr::RangeSampler,
    rng: &mut StdRng,
    probed: &mut HashSet<NybbleAddr>,
    probes_used: &mut u64,
    region_probes: &mut u64,
    region_hits: &mut Vec<NybbleAddr>,
    budget: u64,
    probe: &mut impl FnMut(NybbleAddr) -> bool,
) -> RegionFate {
    loop {
        if *probes_used >= budget {
            return RegionFate::BudgetExhausted;
        }
        let chunk = 256.min(budget - *probes_used) as usize;
        let batch = sampler.draw(rng, chunk, |a| probed.contains(&a));
        if batch.is_empty() {
            return RegionFate::Scanned;
        }
        for addr in batch {
            probed.insert(addr);
            *probes_used += 1;
            *region_probes += 1;
            if probe(addr) {
                region_hits.push(addr);
            }
            if *probes_used >= budget {
                return RegionFate::BudgetExhausted;
            }
        }
    }
}

/// `true` if every address of `range` lies inside `prefix` (checked via
/// the range's extremes; a rectangle is inside a prefix iff its minimum
/// and maximum are).
fn range_within_prefix(range: &Range, prefix: &Prefix) -> bool {
    let size = range.size();
    if size == u128::MAX {
        return prefix.len() == 0;
    }
    prefix.contains(range.min_address()) && prefix.contains(range.nth(size - 1))
}

/// A random address inside `prefix` outside `probed`, or `None` when 64
/// draws find none (near /128 every address may be probed already).
fn random_in_prefix(
    prefix: Prefix,
    rng: &mut StdRng,
    probed: &HashSet<NybbleAddr>,
) -> Option<NybbleAddr> {
    use rand::Rng;
    let host_bits = 128 - prefix.len() as u32;
    for _ in 0..64 {
        let noise: u128 = if host_bits == 0 {
            0
        } else if host_bits >= 128 {
            rng.gen()
        } else {
            rng.gen::<u128>() & ((1u128 << host_bits) - 1)
        };
        let addr = NybbleAddr::from_bits(prefix.network().bits() | noise);
        if !probed.contains(&addr) {
            return Some(addr);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet as Set;

    fn addr(s: &str) -> NybbleAddr {
        s.parse().unwrap()
    }

    /// A toy responder: a host set plus optional aliased /96.
    struct Toy {
        hosts: Set<NybbleAddr>,
        aliased: Option<Prefix>,
        probes: u64,
    }

    impl Toy {
        fn probe(&mut self, a: NybbleAddr) -> bool {
            self.probes += 1;
            if let Some(p) = self.aliased {
                if p.contains(a) {
                    return true;
                }
            }
            self.hosts.contains(&a)
        }
    }

    fn dense_hosts(base: &str, n: u32) -> Set<NybbleAddr> {
        let base: NybbleAddr = base.parse().unwrap();
        (1..=n)
            .map(|i| NybbleAddr::from_bits(base.bits() | i as u128))
            .collect()
    }

    /// `n` hosts deterministically spread across the sorted host list — a
    /// stand-in for a random seed sample (iterating the `HashSet` directly
    /// would vary per process).
    fn spread_hosts(hosts: &Set<NybbleAddr>, n: usize) -> Vec<NybbleAddr> {
        let mut sorted: Vec<NybbleAddr> = hosts.iter().copied().collect();
        sorted.sort_unstable();
        let step = (sorted.len() / n).max(1);
        sorted.into_iter().step_by(step).take(n).collect()
    }

    #[test]
    fn discovers_dense_region_and_counts_probes() {
        let hosts = dense_hosts("2001:db8::", 200); // ::1..::c8
        let mut toy = Toy {
            hosts: hosts.clone(),
            aliased: None,
            probes: 0,
        };
        let seeds = spread_hosts(&hosts, 30);
        let outcome = adaptive_scan(
            seeds,
            &AdaptiveConfig {
                budget: 3_000,
                ..AdaptiveConfig::default()
            },
            |a| toy.probe(a),
        );
        assert!(outcome.probes_used <= 3_000);
        assert_eq!(outcome.probes_used, toy.probes);
        // Most of the 200 hosts should be found.
        let found: Set<_> = outcome.hits.iter().copied().collect();
        assert!(found.len() > 150, "found {}", found.len());
        assert!(found.iter().all(|h| hosts.contains(h)));
    }

    #[test]
    fn aliased_region_is_detected_and_abandoned() {
        let aliased: Prefix = "2600:aaaa::/96".parse().unwrap();
        let mut toy = Toy {
            hosts: Set::new(),
            aliased: Some(aliased),
            probes: 0,
        };
        // Seeds scattered inside the aliased /96.
        let seeds: Vec<NybbleAddr> = (0..40u32)
            .map(|i| {
                NybbleAddr::from_bits(aliased.network().bits() | (i as u128 * 7 + 1))
            })
            .collect();
        let outcome = adaptive_scan(
            seeds,
            &AdaptiveConfig {
                budget: 10_000,
                ..AdaptiveConfig::default()
            },
            |a| toy.probe(a),
        );
        assert!(outcome.aliased_regions() >= 1, "{:?}", outcome.regions);
        assert!(outcome
            .aliased_prefixes
            .iter()
            .any(|p| aliased.covers(p) || p.covers(&aliased)));
        // The mirage produces no confirmed hits beyond the seeds, and the
        // scan must NOT have burned the whole budget into the aliased /96.
        assert!(
            outcome.probes_used < 2_000,
            "wasted {} probes on an aliased region",
            outcome.probes_used
        );
    }

    #[test]
    fn cold_regions_terminate_early() {
        // Two seeds far apart with nothing else alive: any grown region is
        // cold and must be abandoned after its pilot.
        let mut toy = Toy {
            hosts: [addr("2001:db8::1"), addr("2001:db8::9000")]
                .into_iter()
                .collect(),
            aliased: None,
            probes: 0,
        };
        let seeds = vec![addr("2001:db8::1"), addr("2001:db8::9000")];
        let outcome = adaptive_scan(
            seeds,
            &AdaptiveConfig {
                budget: 100_000,
                feedback_seeds: false,
                ..AdaptiveConfig::default()
            },
            |a| toy.probe(a),
        );
        assert!(outcome.early_terminated() >= 1, "{:?}", outcome.regions);
        // Early termination keeps probe usage far below budget.
        assert!(
            outcome.probes_used < 10_000,
            "used {} probes",
            outcome.probes_used
        );
    }

    #[test]
    fn feedback_mode_discovers_nearly_everything() {
        // Hosts ::1..::300 in one band; seeds only know the first 20.
        // With feedback, found hosts densify the estimate; with a budget
        // comfortably above the band size, discovery should be nearly
        // complete in both modes, and the feedback run's tree must have
        // grown beyond the original seed count.
        let hosts = dense_hosts("2001:db8::", 768);
        let seeds = spread_hosts(&hosts, 20);
        let run = |feedback: bool| {
            let mut toy = Toy {
                hosts: hosts.clone(),
                aliased: None,
                probes: 0,
            };
            adaptive_scan(
                seeds.clone(),
                &AdaptiveConfig {
                    budget: 4_096,
                    feedback_seeds: feedback,
                    ..AdaptiveConfig::default()
                },
                |a| toy.probe(a),
            )
            .hits
            .len()
        };
        let with = run(true);
        let without = run(false);
        assert!(with > 700, "feedback found only {with}/768");
        assert!(without > 700, "no-feedback found only {without}/768");
    }

    #[test]
    fn budget_is_hard_limit() {
        let hosts = dense_hosts("2001:db8::", 500);
        let mut toy = Toy {
            hosts,
            aliased: None,
            probes: 0,
        };
        let seeds: Vec<NybbleAddr> = (1..=50u32)
            .map(|i| NybbleAddr::from_bits(0x2001_0db8u128 << 96 | i as u128))
            .collect();
        for budget in [10u64, 100, 777] {
            toy.probes = 0;
            let outcome = adaptive_scan(
                seeds.clone(),
                &AdaptiveConfig {
                    budget,
                    ..AdaptiveConfig::default()
                },
                |a| toy.probe(a),
            );
            assert!(outcome.probes_used <= budget, "budget {budget}");
            assert_eq!(outcome.probes_used, toy.probes, "budget {budget}");
        }
    }

    #[test]
    fn no_address_is_probed_twice() {
        let hosts = dense_hosts("2001:db8::", 300);
        let mut seen: Set<NybbleAddr> = Set::new();
        let mut dupes = 0u64;
        let mut sorted: Vec<NybbleAddr> = hosts.iter().copied().collect();
        sorted.sort_unstable();
        let seeds: Vec<NybbleAddr> = sorted.into_iter().take(25).collect();
        let hosts2 = hosts.clone();
        adaptive_scan(
            seeds,
            &AdaptiveConfig {
                budget: 5_000,
                ..AdaptiveConfig::default()
            },
            |a| {
                if !seen.insert(a) {
                    dupes += 1;
                }
                hosts2.contains(&a)
            },
        );
        assert_eq!(dupes, 0, "probed an address twice");
    }

    #[test]
    fn alias_test_near_128_neither_reprobes_nor_misfires() {
        // Every host of 2001:db8::0-ff answers and every fifth is a seed.
        // A dense region's pilot all answers, so it is alias-tested inside
        // a /124 or /128 that the pilot (or the seed itself) has already
        // probed in full: with no address left to test, the region is not
        // aliased and nothing is probed twice.
        let host = |i: u128| NybbleAddr::from_bits(0x2001_0db8u128 << 96 | i);
        let hosts: Set<NybbleAddr> = (0..=0xff).map(host).collect();
        let seeds: Vec<NybbleAddr> = (0..=0xff).step_by(5).map(host).collect();
        for alias_prefix_len in [124, 128] {
            let mut seen: Set<NybbleAddr> = Set::new();
            let mut dupes = 0u64;
            let outcome = adaptive_scan(
                seeds.clone(),
                &AdaptiveConfig {
                    budget: 2_000,
                    alias_prefix_len,
                    ..AdaptiveConfig::default()
                },
                |a| {
                    if !seen.insert(a) {
                        dupes += 1;
                    }
                    hosts.contains(&a)
                },
            );
            assert_eq!(dupes, 0, "/{alias_prefix_len}: probed an address twice");
            assert!(
                outcome.aliased_prefixes.is_empty(),
                "/{alias_prefix_len}: populated space declared aliased: {:?}",
                outcome.aliased_prefixes
            );
            assert_eq!(outcome.aliased_regions(), 0, "/{alias_prefix_len}");
        }
    }

    #[test]
    fn cached_growths_stay_exact_under_feedback() {
        // Random worlds — hosts dense in the low bytes, varying in two
        // nybbles or scattered, over three subnets beside an aliased /96 —
        // in loose and tight mode with feedback on. After every cache
        // refresh the loop re-evaluates each kept growth from scratch (its
        // `cfg(test)` check), so a cluster the distance rule wrongly left
        // cached fails here.
        use rand::Rng;
        let aliased: Prefix = "2001:db8::/96".parse().unwrap();
        for case in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let mut hosts: Set<NybbleAddr> = Set::new();
            for _ in 0..rng.gen_range(60..300u32) {
                let subnet: u128 = rng.gen_range(1..4);
                let host: u128 = match rng.gen_range(0..3u8) {
                    0 => rng.gen_range(0..0x200),
                    1 => rng.gen_range(0..16u128) << 12 | rng.gen_range(0..16u128),
                    _ => rng.gen_range(0..0x1_0000),
                };
                hosts.insert(NybbleAddr::from_bits(
                    0x2001_0db8u128 << 96 | subnet << 64 | host,
                ));
            }
            let mut seeds = spread_hosts(&hosts, hosts.len() / 3);
            seeds.extend(
                (0..rng.gen_range(2..10u128))
                    .map(|i| NybbleAddr::from_bits(aliased.network().bits() | (0x40 + 3 * i))),
            );
            for mode in [ClusterMode::Loose, ClusterMode::Tight] {
                let mut toy = Toy {
                    hosts: hosts.clone(),
                    aliased: Some(aliased),
                    probes: 0,
                };
                let outcome = adaptive_scan(
                    seeds.clone(),
                    &AdaptiveConfig {
                        budget: 1_500,
                        mode,
                        rng_seed: case,
                        ..AdaptiveConfig::default()
                    },
                    |a| toy.probe(a),
                );
                assert_eq!(outcome.probes_used, toy.probes);
                // Feedback ran: some scanned region found hosts.
                assert!(
                    outcome
                        .regions
                        .iter()
                        .any(|r| r.fate == RegionFate::Scanned && r.hits > 0),
                    "case {case} {mode:?}: nothing fed back"
                );
                assert!(outcome.evaluations >= outcome.growths);
                assert!(
                    outcome.aliased_prefixes.contains(&aliased),
                    "case {case} {mode:?}: the aliased /96 went undetected"
                );
            }
        }
    }
}
