//! Pinned outcomes of the §8 scanner-integrated loop.
//!
//! The loop is deterministic for a fixed seed list, configuration and
//! responder, so a digest of everything it reports — hits in discovery
//! order, every region decision, the aliased prefixes, probes used and
//! growths — pins its behaviour. The digests below were recorded before
//! the loop learned to re-evaluate only the clusters a fed-back hit can
//! change; that optimisation (and any later one) must leave them as they
//! are. A deliberate change of the loop's output updates this table in
//! the same commit as `results/adaptive_loop.tsv`.

use sixgen_addr::{NybbleAddr, Prefix};
use sixgen_core::{adaptive_scan, AdaptiveConfig, AdaptiveOutcome, ClusterMode, RegionFate};
use std::collections::HashSet;

const BASE: u128 = 0x2001_0db8 << 96;

/// The aliased /96: every address in it answers.
fn aliased() -> Prefix {
    "2001:db8:aa:3::/96".parse().unwrap()
}

/// A small structured world: a dense low-byte subnet, a subnet whose
/// hosts vary in two nybbles, a scattered pseudo-random subnet, and an
/// aliased /96. Returns the live hosts and a sorted seed list that holds
/// every fourth host, a few aliased addresses and two silent seeds.
fn world() -> (HashSet<NybbleAddr>, Vec<NybbleAddr>) {
    let mut hosts: Vec<NybbleAddr> = Vec::new();
    // Subnet 0: ::1..::300, dense and sequential.
    hosts.extend((1..=0x300u128).map(|i| NybbleAddr::from_bits(BASE | i)));
    // Subnet 1: ::a:b0 for a, b in 0..16 — growth along two positions.
    for a in 0..16u128 {
        for b in 0..16u128 {
            if (a + b) % 3 != 0 {
                hosts.push(NybbleAddr::from_bits(BASE | 1 << 64 | a << 16 | b << 4));
            }
        }
    }
    // Subnet 2: 400 scattered hosts in the low 16 bits.
    let mut state: u64 = 0x5EED_0012;
    for _ in 0..400 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        hosts.push(NybbleAddr::from_bits(
            BASE | 2 << 64 | ((state >> 40) & 0xFFFF) as u128,
        ));
    }
    hosts.sort_unstable();
    hosts.dedup();
    let mut seeds: Vec<NybbleAddr> = hosts.iter().copied().step_by(4).collect();
    let alias = aliased().network().bits();
    seeds.extend((0..12u128).map(|i| NybbleAddr::from_bits(alias | (0x40 + 3 * i))));
    // Silent seeds: stale entries of a hitlist.
    seeds.push(NybbleAddr::from_bits(BASE | 4 << 64 | 0x10));
    seeds.push(NybbleAddr::from_bits(BASE | 4 << 64 | 0x1f));
    seeds.sort_unstable();
    (hosts.into_iter().collect(), seeds)
}

fn run(mode: ClusterMode, feedback_seeds: bool) -> AdaptiveOutcome {
    let (hosts, seeds) = world();
    let alias = aliased();
    adaptive_scan(
        seeds,
        &AdaptiveConfig {
            budget: 10_000,
            mode,
            feedback_seeds,
            rng_seed: 0x1D_E471,
            ..AdaptiveConfig::default()
        },
        |a| alias.contains(a) || hosts.contains(&a),
    )
}

/// FNV-1a 64 over a canonical byte form of the outcome.
fn digest(outcome: &AdaptiveOutcome) -> u64 {
    let mut bytes: Vec<u8> = Vec::new();
    for hit in &outcome.hits {
        bytes.extend_from_slice(&hit.bits().to_be_bytes());
    }
    bytes.push(0xFF);
    for prefix in &outcome.aliased_prefixes {
        bytes.extend_from_slice(&prefix.network().bits().to_be_bytes());
        bytes.push(prefix.len());
    }
    bytes.push(0xFF);
    for region in &outcome.regions {
        bytes.extend_from_slice(region.range.to_string().as_bytes());
        bytes.push(match region.fate {
            RegionFate::Scanned => 0,
            RegionFate::EarlyTerminated => 1,
            RegionFate::Aliased => 2,
            RegionFate::BudgetExhausted => 3,
        });
        bytes.extend_from_slice(&region.probes.to_le_bytes());
        bytes.extend_from_slice(&region.hits.to_le_bytes());
    }
    bytes.extend_from_slice(&outcome.probes_used.to_le_bytes());
    bytes.extend_from_slice(&outcome.growths.to_le_bytes());
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One pinned run: its configuration, a few readable totals and the
/// digest of the full outcome.
struct Pinned {
    mode: ClusterMode,
    feedback_seeds: bool,
    probes_used: u64,
    growths: u64,
    hits: usize,
    digest: u64,
}

const PINNED: [Pinned; 4] = [
    Pinned {
        mode: ClusterMode::Loose,
        feedback_seeds: true,
        probes_used: 10_000,
        growths: 129,
        hits: 1_091,
        digest: 0xf5a77ecb2dbec47d,
    },
    Pinned {
        mode: ClusterMode::Loose,
        feedback_seeds: false,
        probes_used: 9_883,
        growths: 130,
        hits: 1_082,
        digest: 0x8656a3d5f1e84481,
    },
    Pinned {
        mode: ClusterMode::Tight,
        feedback_seeds: true,
        probes_used: 10_000,
        growths: 2_369,
        hits: 835,
        digest: 0x67fcf1121aa205a9,
    },
    Pinned {
        mode: ClusterMode::Tight,
        feedback_seeds: false,
        probes_used: 10_000,
        growths: 2_325,
        hits: 762,
        digest: 0x621ccbb235a6df8a,
    },
];

#[test]
fn outcomes_match_the_pinned_digests() {
    let mut mismatches = Vec::new();
    for pin in &PINNED {
        let outcome = run(pin.mode, pin.feedback_seeds);
        let got = (
            outcome.probes_used,
            outcome.growths,
            outcome.hits.len(),
            digest(&outcome),
        );
        let want = (pin.probes_used, pin.growths, pin.hits, pin.digest);
        if got != want {
            mismatches.push(format!(
                "{:?} feedback={}: got (probes_used, growths, hits, digest) = \
                 {:?} {:#018x}, pinned {:?} {:#018x}",
                pin.mode,
                pin.feedback_seeds,
                (got.0, got.1, got.2),
                got.3,
                (want.0, want.1, want.2),
                want.3,
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn pinned_world_exercises_every_fate() {
    // The digests are only worth pinning if every run reaches each
    // branch of the loop: full scans (fed back when feedback is on),
    // cold pilots and an aliased region.
    for pin in &PINNED {
        let (mode, feedback_seeds) = (pin.mode, pin.feedback_seeds);
        let outcome = run(mode, feedback_seeds);
        for fate in [
            RegionFate::Scanned,
            RegionFate::EarlyTerminated,
            RegionFate::Aliased,
        ] {
            assert!(
                outcome.regions.iter().any(|r| r.fate == fate),
                "{mode:?} feedback={feedback_seeds}: no {fate:?} region"
            );
        }
        assert_eq!(outcome.aliased_prefixes, vec![aliased()]);
    }
}
