//! Pinned outputs of the §6 scan and the §6.2 alias test.
//!
//! The prober is deterministic given its seed, its fault stack and its
//! target list, so a change to how it finds a target's ground truth,
//! orders its probes or advances a fault model's clock must leave every
//! output as it was. For each probe configuration the digests below pin:
//!
//! - the first scan's hits, in probe order;
//! - `ProbeStats` and `simulated_duration()` after it;
//! - the hits of a follow-up scan, which fixes the RNG position the first
//!   scan left behind;
//! - `detect_aliased`'s verdicts on the first scan's hits, and its
//!   packet count.
//!
//! The target list mixes active hosts, churned hosts, addresses next to
//! them, addresses inside aliased regions, dead addresses inside routed
//! prefixes, unrouted addresses and duplicates, over a small world of
//! `build_world`. A deliberate change of the scan's output updates this
//! table in the same commit.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sixgen::addr::NybbleAddr;
use sixgen::datasets::world::{build_world, WorldConfig};
use sixgen::simnet::dealias::{detect_aliased, DealiasConfig};
use sixgen::simnet::faults::{
    FaultModel, GilbertElliott, GilbertElliottConfig, IcmpRateLimit, UniformLoss,
};
use sixgen::simnet::{Internet, ProbeConfig, ProbeStats, Prober, RetryPolicy, SeedExtraction};
use std::time::Duration;

const PORT: u16 = 80;

fn world() -> Internet {
    build_world(&WorldConfig {
        scale: 0.1,
        rng_seed: 0x5CA9,
    })
}

/// A 64-bit LCG step, for reproducible offsets without the RNG crate.
fn next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 11
}

/// The target list, in the order the scan receives it.
fn targets(internet: &Internet) -> Vec<NybbleAddr> {
    let mut state = 0x7A26_E75Cu64;
    let mut rng = StdRng::seed_from_u64(29);
    let corpus = internet.extract_seeds(
        &SeedExtraction {
            visibility: 0.6,
            stale_visibility: 1.0,
        },
        &mut rng,
    );
    let mut list = Vec::new();
    for record in &corpus {
        let bits = record.addr.bits();
        // The host itself (active or churned) and its two neighbours.
        list.push(record.addr);
        list.push(NybbleAddr::from_bits(bits.wrapping_add(1)));
        list.push(NybbleAddr::from_bits(bits.wrapping_sub(1)));
        // A dead address in the host's /64, and one in a nearby subnet.
        list.push(NybbleAddr::from_bits(
            bits ^ u128::from(next(&mut state) & 0xFFFF_FFFF) << 16,
        ));
        list.push(NybbleAddr::from_bits(
            bits ^ u128::from(next(&mut state) & 0xFF) << 64,
        ));
    }
    // Addresses inside each aliased region.
    for network in internet.networks() {
        for region in network.aliased_regions() {
            let host_bits = 128 - u32::from(region.prefix.len());
            for _ in 0..40 {
                let draw = u128::from(next(&mut state)) << 75
                    ^ u128::from(next(&mut state)) << 22
                    ^ u128::from(next(&mut state));
                let noise = if host_bits == 0 {
                    0
                } else {
                    draw >> (128 - host_bits)
                };
                list.push(NybbleAddr::from_bits(
                    region.prefix.network().bits() | noise,
                ));
            }
        }
    }
    // Unrouted addresses: below, between and above the routed prefixes.
    for _ in 0..300 {
        let low = u128::from(next(&mut state));
        for high in [0u128, 0x3fff, 0xfe80, 0xffff] {
            list.push(NybbleAddr::from_bits(high << 112 | low));
        }
    }
    list.push(NybbleAddr::from_bits(0));
    list.push(NybbleAddr::from_bits(u128::MAX));
    // Duplicates: every seventh entry again.
    let again: Vec<NybbleAddr> = list.iter().step_by(7).copied().collect();
    list.extend(again);
    list
}

/// A follow-up list: a slice of the first one and fresh addresses near
/// it.
fn follow_up(first: &[NybbleAddr]) -> Vec<NybbleAddr> {
    let mut list: Vec<NybbleAddr> = first.iter().step_by(3).copied().collect();
    list.extend(
        first
            .iter()
            .step_by(5)
            .map(|a| NybbleAddr::from_bits(a.bits().wrapping_add(2))),
    );
    list
}

/// FNV-1a 64 over a byte stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn addrs_digest(addrs: &[NybbleAddr]) -> u64 {
    let bytes: Vec<u8> = addrs.iter().flat_map(|a| a.bits().to_be_bytes()).collect();
    fnv1a(&bytes)
}

/// The probe configurations under which the scan is pinned.
fn configs() -> Vec<(&'static str, ProbeConfig)> {
    vec![
        ("default", ProbeConfig::default()),
        // The stack of `sixgen simulate --bursty --rate-limit 2000
        // --retries 2 --backoff 200ms`, as the `internet_scan` workload
        // runs it.
        (
            "internet_scan",
            ProbeConfig {
                retries: 2,
                rng_seed: 0x1D_5CA9,
                faults: vec![
                    Box::new(GilbertElliott::new(GilbertElliottConfig::default()).unwrap()),
                    Box::new(IcmpRateLimit::new(48, 2000.0, 2000.0).unwrap()),
                ],
                retry: RetryPolicy::ExponentialBackoff {
                    base: Duration::from_millis(200),
                    cap: Duration::from_secs(60),
                },
                ..ProbeConfig::default()
            },
        ),
        // A slow, lossy channel whose loss state changes every few
        // packets, with a retransmit budget that runs out mid-scan.
        (
            "fast_bursts",
            ProbeConfig {
                loss: 0.05,
                retries: 3,
                rate_pps: 1_000,
                rng_seed: 0xB0_5257,
                faults: vec![
                    Box::new(
                        GilbertElliott::new(GilbertElliottConfig {
                            mean_good: Duration::from_millis(20),
                            mean_bad: Duration::from_millis(7),
                            loss_good: 0.02,
                            loss_bad: 0.8,
                        })
                        .unwrap(),
                    ) as Box<dyn FaultModel>,
                    Box::new(UniformLoss::new(0.01).unwrap()),
                    Box::new(IcmpRateLimit::new(56, 50.0, 20.0).unwrap()),
                ],
                retry: RetryPolicy::ExponentialBackoff {
                    base: Duration::from_millis(3),
                    cap: Duration::from_millis(40),
                },
                retransmit_budget: Some(9_000),
                ..ProbeConfig::default()
            },
        ),
    ]
}

/// What one configuration's run produced.
#[derive(Debug, PartialEq, Eq)]
struct Pins {
    hits: u64,
    stats: ProbeStats,
    duration_ns: u128,
    follow_up: u64,
    /// `(tested, probes, digest of the aliased prefixes in order)`.
    aliased: (u64, u64, u64),
}

fn run(internet: &Internet, config: ProbeConfig, list: &[NybbleAddr]) -> Pins {
    let mut prober = Prober::new(internet, config).expect("valid probe config");
    let first = prober.scan(list.iter().copied(), PORT);
    let stats = prober.stats();
    let duration_ns = prober.simulated_duration().as_nanos();
    let second = prober.scan(follow_up(list), PORT);
    let report = detect_aliased(
        &mut prober,
        &first.hits,
        PORT,
        &DealiasConfig {
            rng_seed: 0x0A11_A529,
            ..DealiasConfig::default()
        },
    );
    let mut aliased: Vec<_> = report.aliased.iter().copied().collect();
    aliased.sort_unstable();
    let aliased_bytes: Vec<u8> = aliased
        .iter()
        .flat_map(|p| {
            let mut b = p.network().bits().to_be_bytes().to_vec();
            b.push(p.len());
            b
        })
        .collect();
    Pins {
        hits: addrs_digest(&first.hits),
        stats,
        duration_ns,
        follow_up: addrs_digest(&second.hits),
        aliased: (report.tested, report.probes, fnv1a(&aliased_bytes)),
    }
}

fn stats(packets_sent: u64, responses: u64, retransmits: u64) -> ProbeStats {
    ProbeStats {
        packets_sent,
        responses,
        retransmits,
    }
}

#[test]
fn scans_match_the_pinned_digests() {
    let internet = world();
    let list = targets(&internet);
    let pinned = [
        Pins {
            hits: 0xbb47bb450a810814,
            stats: stats(0x436f, 0x158e, 0),
            duration_ns: 0xa4a1ff0,
            follow_up: 0x180aaab934a15586,
            aliased: (0xaec, 0x20c4, 0x082d37e80031f010),
        },
        Pins {
            hits: 0x8a8df34c7e9ee443,
            stats: stats(0xa111, 0x1575, 0x5da2),
            duration_ns: 0x68506aba810,
            follow_up: 0xc99bc9f9dbf11e3a,
            aliased: (0xadd, 0x20ad, 0xb6813babba7b587c),
        },
        Pins {
            hits: 0x82557834f4988672,
            stats: stats(0x6697, 0x10f2, 0x2328),
            duration_ns: 0x1485f87ac0,
            follow_up: 0xe2e03a34799b21dd,
            aliased: (0x8c0, 0xa4a, 0x5081034a61c85bec),
        },
    ];
    let mut mismatches = Vec::new();
    for ((name, config), pin) in configs().into_iter().zip(&pinned) {
        let got = run(&internet, config, &list);
        if &got != pin {
            mismatches.push(format!("{name}: got {got:x?}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
