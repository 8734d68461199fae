//! The five CDN-style datasets of §7.
//!
//! The paper compares 6Gen against Entropy/IP on "a random sample of 10 K
//! addresses collected from five content distribution networks (labeled as
//! CDNs 1–5) used in the original Entropy/IP evaluation". Those datasets
//! are private; these generators span the same difficulty spectrum the
//! published curves exhibit:
//!
//! | CDN | Structure | Published outcome (Figures 8–9) |
//! |-----|-----------|-------------------------------|
//! | 1 | privacy-random identifiers | both algorithms find almost nothing |
//! | 2 | sparse random subnets, small random IIDs | both < 3 % recovery; hard |
//! | 3 | embedded IPv4 over sequential subnets + random tail | mid recovery; 6Gen well ahead |
//! | 4 | dense sequential low-byte, few subnets, **heavily aliased** | > 88 % recovery, 6Gen > 99 %; elided post-filter |
//! | 5 | hex-word identifiers, few subnets | both high and similar |

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sixgen_addr::NybbleAddr;
use sixgen_simnet::{
    AliasedRegion, HostKind, HostPopulation, HostScheme, Internet, NetworkSpec, SubnetPlan,
};

/// The five CDN datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cdn {
    /// Unpredictable: privacy-random identifiers.
    One,
    /// Sparse structure: random /64s with small random identifiers.
    Two,
    /// Mid structure: embedded IPv4 across sequential subnets.
    Three,
    /// Dense structure, heavily aliased.
    Four,
    /// Hex-word identifiers.
    Five,
}

impl Cdn {
    /// All five, in order.
    pub const ALL: [Cdn; 5] = [Cdn::One, Cdn::Two, Cdn::Three, Cdn::Four, Cdn::Five];

    /// Display label matching the paper ("CDN 1" … "CDN 5").
    pub fn label(self) -> &'static str {
        match self {
            Cdn::One => "CDN 1",
            Cdn::Two => "CDN 2",
            Cdn::Three => "CDN 3",
            Cdn::Four => "CDN 4",
            Cdn::Five => "CDN 5",
        }
    }

    /// The network spec for this CDN. `host_count` controls the active
    /// population (the original datasets sample 10 K from larger
    /// populations; use ≥ 20 000 for faithful train/test ratios).
    pub fn spec(self, host_count: usize) -> NetworkSpec {
        let pop = |scheme, subnets, count| HostPopulation {
            scheme,
            subnets,
            count,
            churned: 0,
            kind: HostKind::Web,
        };
        match self {
            Cdn::One => NetworkSpec {
                prefix: "2a07:1000::/32".parse().unwrap(),
                asn: 65101,
                name: "CDN1".into(),
                populations: vec![pop(
                    HostScheme::PrivacyRandom,
                    SubnetPlan::RandomSparse { count: 512 },
                    host_count,
                )],
                aliased: vec![],
                ports: vec![80],
            },
            Cdn::Two => NetworkSpec {
                prefix: "2a07:2000::/32".parse().unwrap(),
                asn: 65102,
                name: "CDN2".into(),
                populations: vec![
                    // Most hosts: random /64s, 5 random nybbles of IID —
                    // each subnet holds a few seeds in a 1M-address space.
                    pop(
                        HostScheme::LowByteRandom { nybbles: 5 },
                        SubnetPlan::RandomSparse { count: 2048 },
                        host_count * 19 / 20,
                    ),
                    // A thin predictable sliver keeps recovery non-zero
                    // (the published CDN 2 curves top out below ~3 %).
                    pop(
                        HostScheme::LowByteSequential,
                        SubnetPlan::RandomSparse { count: 16 },
                        host_count / 20,
                    ),
                ],
                aliased: vec![],
                ports: vec![80],
            },
            Cdn::Three => NetworkSpec {
                prefix: "2a07:3000::/32".parse().unwrap(),
                asn: 65103,
                name: "CDN3".into(),
                populations: vec![
                    pop(
                        HostScheme::Ipv4Embedded {
                            base: [203, 0, 113, 1],
                        },
                        SubnetPlan::Sequential { count: 64 },
                        host_count * 3 / 5,
                    ),
                    pop(
                        HostScheme::LowByteRandom { nybbles: 6 },
                        SubnetPlan::Sequential { count: 64 },
                        host_count * 2 / 5,
                    ),
                ],
                aliased: vec![],
                ports: vec![80],
            },
            Cdn::Four => NetworkSpec {
                prefix: "2a07:4000::/32".parse().unwrap(),
                asn: 65104,
                name: "CDN4".into(),
                populations: vec![
                    pop(
                        HostScheme::LowByteSequential,
                        SubnetPlan::Sequential { count: 12 },
                        host_count * 99 / 100,
                    ),
                    // A sliver of unstructured hosts: realistic, and keeps
                    // the all-seeds stopping rule from halting exploration
                    // of the dense region before it is fully covered.
                    pop(
                        HostScheme::PrivacyRandom,
                        SubnetPlan::RandomSparse { count: 16 },
                        host_count / 100,
                    ),
                ],
                // Extensively aliased: the host subnets themselves answer
                // everywhere (why CDN 4 is elided from the post-filter
                // comparison in Figure 9b).
                aliased: vec![AliasedRegion {
                    prefix: "2a07:4000::/56".parse().unwrap(),
                    ports: vec![80],
                }],
                ports: vec![80],
            },
            Cdn::Five => NetworkSpec {
                prefix: "2a07:5000::/32".parse().unwrap(),
                asn: 65105,
                name: "CDN5".into(),
                populations: vec![pop(
                    HostScheme::Wordy,
                    SubnetPlan::Sequential { count: 8 },
                    host_count,
                )],
                aliased: vec![],
                ports: vec![80],
            },
        }
    }
}

/// Materializes one CDN as a standalone simulated Internet.
pub fn cdn_internet(cdn: Cdn, host_count: usize, rng_seed: u64) -> Internet {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    Internet::build(vec![cdn.spec(host_count)], &mut rng).expect("unique prefixes")
}

/// Draws the §7 dataset: a uniform random sample of `n` active addresses
/// (without replacement). Panics if the CDN has fewer than `n` hosts.
pub fn cdn_seed_sample(internet: &Internet, n: usize, rng: &mut StdRng) -> Vec<NybbleAddr> {
    let network = &internet.networks()[0];
    let mut addrs: Vec<NybbleAddr> = network.active().iter().map(|&(addr, _)| addr).collect();
    assert!(
        addrs.len() >= n,
        "CDN has {} hosts, cannot sample {n}",
        addrs.len()
    );
    addrs.shuffle(rng);
    addrs.truncate(n);
    addrs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_cdns_build() {
        for cdn in Cdn::ALL {
            let internet = cdn_internet(cdn, 2000, 1);
            // Population arithmetic (3/5 + 2/5 etc.) may round down.
            let count = internet.active_host_count();
            assert!(
                (1990..=2000).contains(&count),
                "{}: {count} hosts",
                cdn.label()
            );
            assert_eq!(internet.networks().len(), 1);
        }
    }

    #[test]
    fn labels() {
        assert_eq!(Cdn::One.label(), "CDN 1");
        assert_eq!(Cdn::Five.label(), "CDN 5");
    }

    #[test]
    fn sample_is_without_replacement_and_active() {
        let internet = cdn_internet(Cdn::Four, 3000, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let sample = cdn_seed_sample(&internet, 1000, &mut rng);
        assert_eq!(sample.len(), 1000);
        let uniq: std::collections::HashSet<_> = sample.iter().collect();
        assert_eq!(uniq.len(), 1000);
        for s in &sample {
            assert!(internet.is_responsive(*s, 80));
        }
    }

    #[test]
    fn sample_deterministic() {
        let internet = cdn_internet(Cdn::Three, 3000, 2);
        let s1 = cdn_seed_sample(&internet, 500, &mut StdRng::seed_from_u64(9));
        let s2 = cdn_seed_sample(&internet, 500, &mut StdRng::seed_from_u64(9));
        assert_eq!(s1, s2);
    }

    #[test]
    fn cdn4_is_aliased_cdn5_is_not() {
        let four = cdn_internet(Cdn::Four, 1000, 1);
        assert!(four.is_responsive("2a07:4000::dead:beef".parse().unwrap(), 80));
        let five = cdn_internet(Cdn::Five, 1000, 1);
        assert!(!five.is_responsive("2a07:5000::1234:5678".parse().unwrap(), 80));
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn oversample_rejected() {
        let internet = cdn_internet(Cdn::One, 100, 1);
        cdn_seed_sample(&internet, 1000, &mut StdRng::seed_from_u64(1));
    }
}
