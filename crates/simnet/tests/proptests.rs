//! Property tests for the simulated-Internet substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sixgen_addr::{NybbleAddr, Prefix};
use sixgen_simnet::dealias::{detect_aliased, DealiasConfig};
use sixgen_simnet::{
    AliasedRegion, HostKind, HostPopulation, HostScheme, Internet, NetworkSpec, ProbeConfig,
    Prober, SeedExtraction, SubnetPlan,
};
use std::collections::BTreeSet;

fn arb_scheme() -> impl Strategy<Value = HostScheme> {
    prop_oneof![
        Just(HostScheme::LowByteSequential),
        (1u8..8).prop_map(|n| HostScheme::LowByteRandom { nybbles: n }),
        any::<[u8; 3]>().prop_map(|oui| HostScheme::Eui64 { oui }),
        Just(HostScheme::PrivacyRandom),
        Just(HostScheme::Wordy),
        any::<[u8; 4]>().prop_map(|base| HostScheme::Ipv4Embedded { base }),
        (1u16..10000).prop_map(|port| HostScheme::PortEmbedded { port }),
    ]
}

fn arb_plan() -> impl Strategy<Value = SubnetPlan> {
    prop_oneof![
        (0u64..1000).prop_map(SubnetPlan::Single),
        (1u64..50).prop_map(|count| SubnetPlan::Sequential { count }),
        (1u64..20).prop_map(|count| SubnetPlan::RandomSparse { count }),
        ((1u64..20), (1u64..0x10000)).prop_map(|(count, stride)| SubnetPlan::Strided {
            count,
            stride
        }),
    ]
}

fn build(
    scheme: HostScheme,
    plan: SubnetPlan,
    count: usize,
    churned: usize,
    world_seed: u64,
) -> Internet {
    let mut rng = StdRng::seed_from_u64(world_seed);
    Internet::build(
        vec![NetworkSpec {
            prefix: "2001:db8::/32".parse().unwrap(),
            asn: 64496,
            name: "Prop".into(),
            populations: vec![HostPopulation {
                scheme,
                subnets: plan,
                count,
                churned,
                kind: HostKind::Web,
            }],
            aliased: vec![],
            ports: vec![80],
        }],
        &mut rng,
    )
    .expect("unique prefixes")
}

/// A routed-prefix length: the default route, a /64, or one between.
fn arb_len() -> impl Strategy<Value = u8> {
    prop_oneof![Just(0u8), Just(64u8), 1u8..64]
}

/// A world whose routed prefixes nest often: prefix `i` keeps the top
/// `draws[i].0` bits of `anchor`, draws the rest, and is `draws[i].2`
/// bits long, so most prefixes cover the anchor or sit beside it.
fn nested_internet(anchor: u128, draws: &[(u8, u128, u8)], with_default: bool) -> Internet {
    let mut prefixes: BTreeSet<Prefix> = draws
        .iter()
        .map(|&(keep, noise, len)| {
            let bits = anchor ^ noise.checked_shr(u32::from(keep)).unwrap_or(0);
            Prefix::new(NybbleAddr::from_bits(bits), len)
        })
        .collect();
    if with_default {
        prefixes.insert(Prefix::DEFAULT);
    }
    let specs = prefixes
        .into_iter()
        .enumerate()
        .map(|(i, prefix)| {
            NetworkSpec::simple(
                prefix,
                64_000 + i as u32,
                format!("N{i}"),
                HostScheme::LowByteSequential,
                3,
            )
        })
        .collect();
    Internet::build(specs, &mut StdRng::seed_from_u64(anchor as u64)).expect("distinct prefixes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The span table names the network the BGP trie routes to, for
    /// random addresses and at every prefix's edges. The default world
    /// has no nested prefixes, so only this test reaches the splitting
    /// path.
    #[test]
    fn span_table_matches_the_trie(
        anchor in any::<u128>(),
        draws in prop::collection::vec((0u8..=64, any::<u128>(), arb_len()), 1..16),
        with_default in 0u8..2,
        probes in prop::collection::vec(any::<u128>(), 0..48),
    ) {
        let internet = nested_internet(anchor, &draws, with_default == 1);
        let mut addrs = probes.clone();
        addrs.extend(probes.iter().map(|noise| anchor ^ noise >> 64));
        for route in internet.table().iter() {
            let first = route.prefix.network().bits();
            let last = first | u128::MAX.checked_shr(u32::from(route.prefix.len())).unwrap_or(0);
            addrs.extend([first, last, last.wrapping_add(1), first.wrapping_sub(1)]);
        }
        for bits in addrs {
            let addr = NybbleAddr::from_bits(bits);
            prop_assert_eq!(
                internet.network_of(addr).map(|n| n.spec().prefix),
                internet.table().routed_prefix(addr),
                "{}",
                addr
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn hosts_stay_inside_their_network(
        scheme in arb_scheme(),
        plan in arb_plan(),
        count in 1usize..60,
        seed in any::<u64>(),
    ) {
        let internet = build(scheme, plan, count, 0, seed);
        let prefix: Prefix = "2001:db8::/32".parse().unwrap();
        let network = &internet.networks()[0];
        prop_assert!(network.active_count() <= count, "duplicate collapse only shrinks");
        for (addr, _) in network.active() {
            prop_assert!(prefix.contains(*addr), "{addr} escaped");
            prop_assert!(internet.is_responsive(*addr, 80));
            prop_assert!(!internet.is_responsive(*addr, 443), "wrong port");
        }
    }

    #[test]
    fn churned_hosts_never_respond(
        scheme in arb_scheme(),
        count in 1usize..30,
        churned in 1usize..30,
        seed in any::<u64>(),
    ) {
        let internet = build(scheme, SubnetPlan::Single(0), count, churned, seed);
        let network = &internet.networks()[0];
        for (addr, _) in network.churned() {
            prop_assert!(!internet.is_responsive(*addr, 80));
        }
    }

    #[test]
    fn extraction_is_a_subset_of_ground_truth(
        scheme in arb_scheme(),
        plan in arb_plan(),
        count in 1usize..60,
        visibility in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let internet = build(scheme, plan, count, 5, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        let records = internet.extract_seeds(
            &SeedExtraction { visibility, stale_visibility: 1.0 },
            &mut rng,
        );
        let network = &internet.networks()[0];
        let known = |hosts: &[(NybbleAddr, HostKind)], addr: NybbleAddr| {
            hosts.binary_search_by_key(&addr, |&(host, _)| host).is_ok()
        };
        for record in &records {
            prop_assert!(
                known(network.active(), record.addr) || known(network.churned(), record.addr)
            );
        }
        // Full visibility captures everything.
        if visibility == 1.0 {
            prop_assert_eq!(
                records.len(),
                network.active_count() + network.churned().len()
            );
        }
    }

    #[test]
    fn prober_accounting_matches_scan_results(
        scheme in arb_scheme(),
        count in 1usize..40,
        loss in 0.0f64..0.5,
        seed in any::<u64>(),
    ) {
        let internet = build(scheme, SubnetPlan::Single(0), count, 0, seed);
        let mut prober = Prober::new(
            &internet,
            ProbeConfig { loss, retries: 2, rng_seed: seed, ..ProbeConfig::default() },
        )
        .expect("valid probe config");
        let network = &internet.networks()[0];
        let mut targets: Vec<NybbleAddr> = network.active().iter().map(|&(a, _)| a).collect();
        targets.push("2001:db8::dead:ffff".parse().unwrap());
        let n_targets = {
            let mut t = targets.clone();
            t.sort_unstable();
            t.dedup();
            t.len() as u64
        };
        let result = prober.scan(targets, 80);
        prop_assert_eq!(result.targets, n_targets);
        prop_assert!(result.hits.len() as u64 <= result.targets);
        prop_assert!(result.probes >= result.targets, "at least one probe each");
        prop_assert!(result.probes <= result.targets * 3, "retries bounded");
        // Every reported hit is truly responsive.
        for hit in &result.hits {
            prop_assert!(internet.is_responsive(*hit, 80));
        }
    }

    #[test]
    fn alias_detector_never_flags_honest_networks(
        scheme in arb_scheme(),
        count in 1usize..50,
        seed in any::<u64>(),
    ) {
        let internet = build(scheme, SubnetPlan::Single(0), count, 0, seed);
        let network = &internet.networks()[0];
        let hits: Vec<NybbleAddr> = network.active().iter().map(|&(a, _)| a).collect();
        let mut prober = Prober::new(&internet, ProbeConfig::default()).expect("valid probe config");
        let report = detect_aliased(&mut prober, &hits, 80, &DealiasConfig::default());
        prop_assert!(report.aliased.is_empty(), "false alias positives: {:?}", report.aliased);
    }

    #[test]
    fn alias_detector_always_flags_planted_regions(region_subnet in 0u16..16, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let region: Prefix = format!("2600:aaaa:{region_subnet:x}::/64").parse().unwrap();
        let internet = Internet::build(
            vec![NetworkSpec {
                prefix: "2600:aaaa::/32".parse().unwrap(),
                asn: 1,
                name: "Cdn".into(),
                populations: vec![],
                aliased: vec![AliasedRegion { prefix: region, ports: vec![80] }],
                ports: vec![80],
            }],
            &mut rng,
        )
        .expect("unique prefixes");
        let hit = NybbleAddr::from_bits(region.network().bits() | 0x1234);
        let mut prober = Prober::new(&internet, ProbeConfig::default()).expect("valid probe config");
        let report = detect_aliased(&mut prober, &[hit], 80, &DealiasConfig::default());
        prop_assert!(report.is_aliased(hit));
    }
}
