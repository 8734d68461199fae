//! Alias detection (§6.2 of the paper).
//!
//! The paper discovered that in many networks *every* address of a large
//! prefix responds (e.g. an Akamai /56 fully responsive on TCP/80), so raw
//! hit counts wildly overstate the number of distinct hosts. Its
//! best-effort detector: for each /96 prefix containing at least one hit,
//! probe **three random addresses** with **three TCP SYNs each**; if all
//! three addresses respond at least once, classify the prefix aliased. The
//! probability of falsely flagging a non-aliased /96 — even one with a
//! million responsive addresses — is below 10⁻¹⁰.
//!
//! This module implements that detector at any prefix granularity (the
//! paper also manually inspected /112s for two ASes), plus hit filtering.

use crate::prober::Prober;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sixgen_addr::{NybbleAddr, Prefix};
use std::collections::{BTreeMap, HashSet};

/// Alias-detection parameters. Defaults follow §6.2 exactly.
#[derive(Debug, Clone)]
pub struct DealiasConfig {
    /// Granularity: prefixes of this length are tested (96 in the paper;
    /// 112 for the per-AS refinement).
    pub prefix_len: u8,
    /// Random addresses drawn per prefix (3 in the paper).
    pub addresses_per_prefix: u32,
    /// Probes sent to each drawn address (3 in the paper).
    pub probes_per_address: u32,
    /// RNG seed for address draws.
    pub rng_seed: u64,
}

impl Default for DealiasConfig {
    fn default() -> Self {
        DealiasConfig {
            prefix_len: 96,
            addresses_per_prefix: 3,
            probes_per_address: 3,
            rng_seed: 0xA11A5,
        }
    }
}

/// Outcome of an alias-detection pass.
#[derive(Debug, Clone)]
pub struct AliasReport {
    /// Prefixes (at the configured granularity) classified aliased.
    pub aliased: HashSet<Prefix>,
    /// Number of prefixes tested (every prefix that contained a hit).
    pub tested: u64,
    /// Probe packets spent on detection.
    pub probes: u64,
    /// The granularity used.
    pub prefix_len: u8,
}

impl AliasReport {
    /// `true` if `addr` lies in a prefix classified aliased.
    pub fn is_aliased(&self, addr: NybbleAddr) -> bool {
        self.aliased.contains(&Prefix::of(addr, self.prefix_len))
    }

    /// Splits hits into `(non_aliased, aliased)` per this report.
    pub fn split<'a>(
        &self,
        hits: impl IntoIterator<Item = &'a NybbleAddr>,
    ) -> (Vec<NybbleAddr>, Vec<NybbleAddr>) {
        let mut non_aliased = Vec::new();
        let mut aliased = Vec::new();
        for &hit in hits {
            if self.is_aliased(hit) {
                aliased.push(hit);
            } else {
                non_aliased.push(hit);
            }
        }
        (non_aliased, aliased)
    }
}

/// Runs the §6.2 detector over a hit list: every `cfg.prefix_len` prefix
/// containing at least one hit is actively tested through `prober`.
pub fn detect_aliased(
    prober: &mut Prober<'_>,
    hits: &[NybbleAddr],
    port: u16,
    cfg: &DealiasConfig,
) -> AliasReport {
    // BTreeMap for deterministic iteration order.
    let mut prefixes: BTreeMap<Prefix, ()> = BTreeMap::new();
    for &hit in hits {
        prefixes.insert(Prefix::of(hit, cfg.prefix_len), ());
    }
    let mut rng = StdRng::seed_from_u64(cfg.rng_seed);
    let mut aliased = HashSet::new();
    let before = prober.stats().packets_sent;
    for (&prefix, _) in prefixes.iter() {
        let mut all_responded = true;
        for _ in 0..cfg.addresses_per_prefix {
            let addr = prefix.random_address(&mut rng);
            if !prober.probe_attempts(addr, port, cfg.probes_per_address) {
                all_responded = false;
                // A real pipeline still probes the remaining addresses of a
                // batch; we can short-circuit, as the classification is
                // already decided. Packet counts therefore form a lower
                // bound, as in any early-terminating scanner.
                break;
            }
        }
        if all_responded {
            aliased.insert(prefix);
        }
    }
    AliasReport {
        aliased,
        tested: prefixes.len() as u64,
        probes: prober.stats().packets_sent - before,
        prefix_len: cfg.prefix_len,
    }
}

/// Convenience wrapper: detect at /96, split the hits, and return
/// `(report, non_aliased_hits, aliased_hits)`.
pub fn dealias_hits(
    prober: &mut Prober<'_>,
    hits: &[NybbleAddr],
    port: u16,
    cfg: &DealiasConfig,
) -> (AliasReport, Vec<NybbleAddr>, Vec<NybbleAddr>) {
    let report = detect_aliased(prober, hits, port, cfg);
    let (non_aliased, aliased) = report.split(hits.iter());
    (report, non_aliased, aliased)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::internet::Internet;
    use crate::network::{AliasedRegion, NetworkSpec};
    use crate::prober::ProbeConfig;
    use crate::scheme::HostScheme;

    fn a(s: &str) -> NybbleAddr {
        s.parse().unwrap()
    }

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// One honest network plus one CDN with a fully-aliased /64.
    fn internet() -> Internet {
        let mut rng = StdRng::seed_from_u64(4);
        Internet::build(
            vec![
                NetworkSpec::simple(
                    p("2001:db8::/32"),
                    64496,
                    "Honest",
                    HostScheme::LowByteSequential,
                    100,
                ),
                NetworkSpec {
                    prefix: p("2600:aaaa::/32"),
                    asn: 20940,
                    name: "CdnLike".into(),
                    populations: vec![],
                    aliased: vec![AliasedRegion {
                        prefix: p("2600:aaaa:1::/64"),
                        ports: vec![80],
                    }],
                    ports: vec![80],
                },
            ],
            &mut rng,
        )
        .expect("unique prefixes")
    }

    #[test]
    fn detects_planted_aliased_region() {
        let net = internet();
        let mut prober = Prober::new(&net, ProbeConfig::default()).expect("valid probe config");
        let hits = vec![
            a("2001:db8::1"),
            a("2001:db8::2"),
            a("2600:aaaa:1:0:aa::beef"),
            a("2600:aaaa:1:0:bb::1"),
        ];
        let (report, non_aliased, aliased) =
            dealias_hits(&mut prober, &hits, 80, &DealiasConfig::default());
        // The two CDN hits sit in two different /96s, both aliased.
        assert_eq!(report.tested, 3, "two CDN /96s plus one honest /96");
        assert_eq!(report.aliased.len(), 2);
        assert_eq!(non_aliased, vec![a("2001:db8::1"), a("2001:db8::2")]);
        assert_eq!(aliased.len(), 2);
        // Any address within a tested-aliased /96 is classified aliased.
        assert!(report.is_aliased(a("2600:aaaa:1:0:aa::9999")));
        assert!(!report.is_aliased(a("2001:db8::7")));
    }

    #[test]
    fn honest_dense_prefix_not_flagged() {
        // Even 100 real hosts in one /96: the probability that a random
        // /96 address hits one is ~100/2^32 — the detector must not flag.
        let net = internet();
        let mut prober = Prober::new(&net, ProbeConfig::default()).expect("valid probe config");
        let hits: Vec<NybbleAddr> = (1..=100u32)
            .map(|i| NybbleAddr::from_bits(0x2001_0db8u128 << 96 | i as u128))
            .collect();
        let report = detect_aliased(&mut prober, &hits, 80, &DealiasConfig::default());
        assert_eq!(report.tested, 1);
        assert!(report.aliased.is_empty());
    }

    #[test]
    fn finer_granularity_at_112() {
        let net = internet();
        let mut prober = Prober::new(&net, ProbeConfig::default()).expect("valid probe config");
        let hits = vec![a("2600:aaaa:1::1"), a("2001:db8::1")];
        let cfg = DealiasConfig {
            prefix_len: 112,
            ..DealiasConfig::default()
        };
        let report = detect_aliased(&mut prober, &hits, 80, &cfg);
        assert!(report.is_aliased(a("2600:aaaa:1::ffff")));
        assert!(!report.is_aliased(a("2600:aaaa:1::1:0")), "different /112 not flagged");
        assert!(!report.is_aliased(a("2001:db8::2")));
    }

    #[test]
    fn empty_hits_tests_nothing() {
        let net = internet();
        let mut prober = Prober::new(&net, ProbeConfig::default()).expect("valid probe config");
        let report = detect_aliased(&mut prober, &[], 80, &DealiasConfig::default());
        assert_eq!(report.tested, 0);
        assert_eq!(report.probes, 0);
        assert!(report.aliased.is_empty());
    }

    #[test]
    fn probe_accounting() {
        let net = internet();
        let mut prober = Prober::new(&net, ProbeConfig::default()).expect("valid probe config");
        let hits = vec![a("2600:aaaa:1::1")];
        let report = detect_aliased(&mut prober, &hits, 80, &DealiasConfig::default());
        // Aliased prefix: 3 addresses, each answers on the first probe.
        assert_eq!(report.probes, 3);
        let hits = vec![a("2001:db8::1")];
        let report = detect_aliased(&mut prober, &hits, 80, &DealiasConfig::default());
        // Non-aliased: first random address eats all 3 probes, then we
        // short-circuit.
        assert_eq!(report.probes, 3);
    }

    #[test]
    fn detection_survives_packet_loss_with_probing_redundancy() {
        let net = internet();
        // 30% loss: three probes per address still see the aliased region
        // with probability (1 - 0.3^3)^3 ≈ 0.92; the fixed seed makes the
        // outcome stable.
        let mut prober = Prober::new(
            &net,
            ProbeConfig {
                loss: 0.3,
                ..ProbeConfig::default()
            },
        )
        .expect("valid probe config");
        let hits = vec![a("2600:aaaa:1::1")];
        let report = detect_aliased(&mut prober, &hits, 80, &DealiasConfig::default());
        assert!(report.is_aliased(a("2600:aaaa:1::1")));
    }
}
