//! Networks: routed prefixes populated with ground-truth hosts, aliased
//! regions, and churned (stale) addresses.
//!
//! A materialized [`Network`] keeps its active and churned hosts as
//! address-sorted slices. A single address is looked up by binary search;
//! a sorted run of addresses, such as a scan's deduplicated target list,
//! is resolved in one merge with the host slice (`responsive_sorted`).
//! Seed extraction and sampling read the slices in address order as they
//! are (DESIGN §7, "The §6 scan: ground truth in one ordered pass").

use crate::scheme::HostScheme;
use rand::rngs::StdRng;
use rand::Rng;
use sixgen_addr::{NybbleAddr, Prefix};
use std::collections::HashMap;
#[cfg(test)]
use std::collections::HashSet;

/// What kind of service a host population represents. Seeds inherit the
/// kind of the host they point at, enabling the paper's §6.7.1 experiment
/// (running 6Gen on name-server seeds only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HostKind {
    /// Generic web/content servers (the bulk of AAAA records).
    #[default]
    Web,
    /// DNS name servers (NS records).
    NameServer,
    /// Mail servers (MX records).
    Mail,
    /// Routers / infrastructure.
    Router,
}

/// How hosts of a population are spread across the subnet bits between the
/// routed prefix and the /64 boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum SubnetPlan {
    /// All hosts share one subnet identifier.
    Single(u64),
    /// Host `i` lands in subnet `i % count` — dense, enumerable subnets
    /// (the common hosting-provider layout).
    Sequential {
        /// Number of consecutive subnets in use.
        count: u64,
    },
    /// Hosts are spread over `count` subnets drawn uniformly at random
    /// from the full subnet space — sparse, hard-to-enumerate layouts.
    RandomSparse {
        /// Number of distinct subnets drawn.
        count: u64,
    },
    /// Host `i` lands in subnet `(i % count) * stride` — per-customer
    /// delegation at a coarser boundary (e.g. a /56 or /52 per customer),
    /// which makes *higher* subnet nybbles the dynamic ones.
    Strided {
        /// Number of subnets in use.
        count: u64,
        /// Spacing between consecutive subnet identifiers.
        stride: u64,
    },
}

impl SubnetPlan {
    /// The subnet identifier for host `index`, given `width` available
    /// subnet bits and a per-population list of pre-drawn random subnets.
    fn subnet_for(&self, index: u64, width: u32, drawn: &[u64]) -> u64 {
        let cap = |v: u64| {
            if width >= 64 {
                v
            } else {
                v & ((1u64 << width).wrapping_sub(1))
            }
        };
        match self {
            SubnetPlan::Single(id) => cap(*id),
            SubnetPlan::Sequential { count } => cap(index % (*count).max(1)),
            SubnetPlan::Strided { count, stride } => {
                cap((index % (*count).max(1)).wrapping_mul(*stride))
            }
            SubnetPlan::RandomSparse { .. } => {
                debug_assert!(!drawn.is_empty());
                cap(drawn[(index % drawn.len() as u64) as usize])
            }
        }
    }

    fn random_subnet_count(&self) -> usize {
        match self {
            SubnetPlan::RandomSparse { count } => *count as usize,
            _ => 0,
        }
    }
}

/// A group of hosts sharing an assignment scheme and subnet layout.
#[derive(Debug, Clone)]
pub struct HostPopulation {
    /// Interface-identifier assignment policy.
    pub scheme: HostScheme,
    /// Subnet layout.
    pub subnets: SubnetPlan,
    /// Number of *active* hosts.
    pub count: usize,
    /// Number of *churned* hosts: generated with the same scheme (so they
    /// appear in historical seed data) but no longer responsive (§6.6's
    /// now-inactive seeds).
    pub churned: usize,
    /// Service kind, inherited by seeds pointing at these hosts.
    pub kind: HostKind,
}

impl HostPopulation {
    /// A population of `count` active web hosts with no churn, in subnet 0.
    pub fn simple(scheme: HostScheme, count: usize) -> HostPopulation {
        HostPopulation {
            scheme,
            subnets: SubnetPlan::Single(0),
            count,
            churned: 0,
            kind: HostKind::Web,
        }
    }
}

/// A region in which **every** address responds (§6.2): CDN-style aliasing
/// where, e.g., "all addresses in a single /56 prefix belonging to Akamai
/// responded to probes on TCP/80".
#[derive(Debug, Clone)]
pub struct AliasedRegion {
    /// The fully-responsive prefix (must lie within the network's routed
    /// prefix).
    pub prefix: Prefix,
    /// Ports on which the whole region responds.
    pub ports: Vec<u16>,
}

/// Declarative description of one network: a routed prefix, its origin AS,
/// host populations, and aliasing behaviour.
#[derive(Debug, Clone)]
pub struct NetworkSpec {
    /// The BGP-announced prefix.
    pub prefix: Prefix,
    /// Origin AS number.
    pub asn: u32,
    /// AS organization name (Table 1 reporting).
    pub name: String,
    /// Host groups.
    pub populations: Vec<HostPopulation>,
    /// Fully-responsive sub-regions.
    pub aliased: Vec<AliasedRegion>,
    /// Ports the *active hosts* respond on (aliased regions carry their
    /// own port lists).
    pub ports: Vec<u16>,
}

impl NetworkSpec {
    /// A network with a single population responding on TCP/80.
    pub fn simple(
        prefix: Prefix,
        asn: u32,
        name: impl Into<String>,
        scheme: HostScheme,
        count: usize,
    ) -> NetworkSpec {
        NetworkSpec {
            prefix,
            asn,
            name: name.into(),
            populations: vec![HostPopulation::simple(scheme, count)],
            aliased: Vec::new(),
            ports: vec![80],
        }
    }
}

/// A materialized network: concrete ground-truth address sets.
#[derive(Debug, Clone)]
pub struct Network {
    spec: NetworkSpec,
    /// Active host addresses and their kinds, sorted by address.
    active: Vec<(NybbleAddr, HostKind)>,
    /// Once-active, now-unresponsive addresses (appear in seed data),
    /// sorted by address.
    churned: Vec<(NybbleAddr, HostKind)>,
}

/// A host map's entries sorted by address.
fn sorted(hosts: HashMap<NybbleAddr, HostKind>) -> Vec<(NybbleAddr, HostKind)> {
    let mut hosts: Vec<(NybbleAddr, HostKind)> = hosts.into_iter().collect();
    hosts.sort_unstable_by_key(|&(addr, _)| addr);
    hosts
}

impl Network {
    /// Generates the ground truth for a spec. Deterministic for a given
    /// RNG state. A host generated twice keeps the kind of its last
    /// generation; a churned host is skipped if its address was already
    /// active when it was generated.
    ///
    /// # Panics
    /// Panics if the routed prefix is longer than 64 bits (host schemes
    /// occupy the low 64) or an aliased region lies outside the prefix.
    /// [`Internet::build`](crate::Internet::build) checks both first and
    /// returns a [`BuildError`](crate::BuildError) instead.
    pub fn materialize(spec: NetworkSpec, rng: &mut StdRng) -> Network {
        assert!(
            spec.prefix.len() <= 64,
            "routed prefix {} too long for host populations",
            spec.prefix
        );
        for region in &spec.aliased {
            assert!(
                spec.prefix.covers(&region.prefix),
                "aliased region {} outside network {}",
                region.prefix,
                spec.prefix
            );
        }
        let subnet_width = 64 - spec.prefix.len() as u32;
        let mut active = HashMap::new();
        let mut churned = HashMap::new();
        for pop in &spec.populations {
            let drawn: Vec<u64> = (0..pop.subnets.random_subnet_count())
                .map(|_| {
                    if subnet_width >= 64 {
                        rng.gen::<u64>()
                    } else if subnet_width == 0 {
                        0
                    } else {
                        rng.gen_range(0..1u64 << subnet_width)
                    }
                })
                .collect();
            for index in 0..(pop.count + pop.churned) as u64 {
                let subnet = pop.subnets.subnet_for(index, subnet_width, &drawn);
                let iid = pop.scheme.iid(index, rng);
                let bits = spec.prefix.network().bits()
                    | ((subnet as u128) << 64)
                    | iid as u128;
                let addr = NybbleAddr::from_bits(bits);
                if index < pop.count as u64 {
                    active.insert(addr, pop.kind);
                } else if !active.contains_key(&addr) {
                    churned.insert(addr, pop.kind);
                }
            }
        }
        Network {
            spec,
            active: sorted(active),
            churned: sorted(churned),
        }
    }

    /// The network's spec (prefix, ASN, name, ports, aliasing).
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// `true` if `addr` responds on `port`: it is an active host and the
    /// network serves that port, or it lies in an aliased region serving
    /// that port.
    pub fn is_responsive(&self, addr: NybbleAddr, port: u16) -> bool {
        self.aliased_answer(addr, port)
            || (self.spec.ports.contains(&port)
                && self
                    .active
                    .binary_search_by_key(&addr, |&(host, _)| host)
                    .is_ok())
    }

    /// `true` if `addr` lies in an aliased region serving `port`.
    fn aliased_answer(&self, addr: NybbleAddr, port: u16) -> bool {
        self.spec
            .aliased
            .iter()
            .any(|r| r.ports.contains(&port) && r.prefix.contains(addr))
    }

    /// Appends [`is_responsive`](Network::is_responsive) of every address
    /// of `addrs` to `out`, in order, with one merge over the host slice.
    /// `addrs` must be sorted.
    pub(crate) fn responsive_sorted(&self, addrs: &[NybbleAddr], port: u16, out: &mut Vec<bool>) {
        let Some(&first) = addrs.first() else {
            return;
        };
        let serves = self.spec.ports.contains(&port);
        let mut hosts = &self.active[self.active.partition_point(|&(host, _)| host < first)..];
        for &addr in addrs {
            while let [(host, _), rest @ ..] = hosts {
                if *host >= addr {
                    break;
                }
                hosts = rest;
            }
            let active = serves && hosts.first().is_some_and(|&(host, _)| host == addr);
            out.push(active || self.aliased_answer(addr, port));
        }
    }

    /// Active hosts with their kinds, sorted by address.
    pub fn active(&self) -> &[(NybbleAddr, HostKind)] {
        &self.active
    }

    /// Churned (stale) addresses with their kinds, sorted by address.
    pub fn churned(&self) -> &[(NybbleAddr, HostKind)] {
        &self.churned
    }

    /// Number of active hosts.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// The fully-responsive regions.
    pub fn aliased_regions(&self) -> &[AliasedRegion] {
        &self.spec.aliased
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5)
    }

    #[test]
    fn simple_network_materializes_expected_addresses() {
        let spec = NetworkSpec::simple(
            p("2001:db8::/32"),
            64496,
            "Example",
            HostScheme::LowByteSequential,
            10,
        );
        let net = Network::materialize(spec, &mut rng());
        assert_eq!(net.active_count(), 10);
        assert!(net.is_responsive("2001:db8::1".parse().unwrap(), 80));
        assert!(net.is_responsive("2001:db8::a".parse().unwrap(), 80));
        assert!(!net.is_responsive("2001:db8::b".parse().unwrap(), 80));
        assert!(
            !net.is_responsive("2001:db8::1".parse().unwrap(), 443),
            "port not served"
        );
    }

    #[test]
    fn subnet_plans_place_hosts() {
        let spec = NetworkSpec {
            prefix: p("2001:db8::/48"),
            asn: 1,
            name: "X".into(),
            populations: vec![HostPopulation {
                scheme: HostScheme::LowByteSequential,
                subnets: SubnetPlan::Sequential { count: 4 },
                count: 8,
                churned: 0,
                kind: HostKind::Web,
            }],
            aliased: Vec::new(),
            ports: vec![80],
        };
        let net = Network::materialize(spec, &mut rng());
        // Host 0 → subnet 0 iid 1; host 5 → subnet 1 iid 6.
        assert!(net.is_responsive("2001:db8:0:0::1".parse().unwrap(), 80));
        assert!(net.is_responsive("2001:db8:0:1::6".parse().unwrap(), 80));
        assert!(net.is_responsive("2001:db8:0:3::4".parse().unwrap(), 80));
        assert!(!net.is_responsive("2001:db8:0:4::1".parse().unwrap(), 80));
    }

    #[test]
    fn strided_subnets_place_hosts_at_coarse_boundaries() {
        let spec = NetworkSpec {
            prefix: p("2001:db8::/32"),
            asn: 1,
            name: "X".into(),
            populations: vec![HostPopulation {
                scheme: HostScheme::LowByteSequential,
                subnets: SubnetPlan::Strided { count: 3, stride: 0x1_0000 },
                count: 6,
                churned: 0,
                kind: HostKind::Web,
            }],
            aliased: Vec::new(),
            ports: vec![80],
        };
        let net = Network::materialize(spec, &mut rng());
        // Subnet value 0x10000 occupies bit 80 of the address, i.e. the
        // third group: host 0 → 2001:db8:0:…, host 1 → 2001:db8:1:…,
        // host 2 → 2001:db8:2:…; host 3 wraps back to subnet 0 with iid 4.
        assert!(net.is_responsive("2001:db8::1".parse().unwrap(), 80));
        assert!(net.is_responsive("2001:db8:1::2".parse().unwrap(), 80));
        assert!(net.is_responsive("2001:db8:2::3".parse().unwrap(), 80));
        assert!(net.is_responsive("2001:db8::4".parse().unwrap(), 80));
        assert!(!net.is_responsive("2001:db8:3::1".parse().unwrap(), 80));
    }

    #[test]
    fn random_sparse_subnets_stay_in_width() {
        let spec = NetworkSpec {
            prefix: p("2001:db8::/56"),
            asn: 1,
            name: "X".into(),
            populations: vec![HostPopulation {
                scheme: HostScheme::LowByteSequential,
                subnets: SubnetPlan::RandomSparse { count: 3 },
                count: 30,
                churned: 0,
                kind: HostKind::Web,
            }],
            aliased: Vec::new(),
            ports: vec![80],
        };
        let net = Network::materialize(spec.clone(), &mut rng());
        let prefix = p("2001:db8::/56");
        for (addr, _) in net.active() {
            assert!(prefix.contains(*addr), "{addr} escaped the /56");
        }
        // At most 3 distinct subnets (the /64s).
        let subnets: HashSet<u128> = net
            .active()
            .iter()
            .map(|(a, _)| a.bits() >> 64)
            .collect();
        assert!(subnets.len() <= 3);
    }

    #[test]
    fn aliased_region_responds_everywhere() {
        let spec = NetworkSpec {
            prefix: p("2001:db8::/32"),
            asn: 1,
            name: "CDN".into(),
            populations: vec![],
            aliased: vec![AliasedRegion {
                prefix: p("2001:db8:42::/48"),
                ports: vec![80],
            }],
            ports: vec![80],
        };
        let net = Network::materialize(spec, &mut rng());
        assert!(net.is_responsive("2001:db8:42:dead:beef::99".parse().unwrap(), 80));
        assert!(!net.is_responsive("2001:db8:43::1".parse().unwrap(), 80));
        assert!(
            !net.is_responsive("2001:db8:42::1".parse().unwrap(), 443),
            "aliased only on port 80"
        );
    }

    #[test]
    fn churned_hosts_do_not_respond() {
        let spec = NetworkSpec {
            prefix: p("2001:db8::/32"),
            asn: 1,
            name: "X".into(),
            populations: vec![HostPopulation {
                scheme: HostScheme::LowByteSequential,
                subnets: SubnetPlan::Single(0),
                count: 5,
                churned: 5,
                kind: HostKind::Web,
            }],
            aliased: Vec::new(),
            ports: vec![80],
        };
        let net = Network::materialize(spec, &mut rng());
        assert_eq!(net.active_count(), 5);
        assert_eq!(net.churned().len(), 5);
        for (addr, _) in net.churned() {
            assert!(!net.is_responsive(*addr, 80), "churned {addr} responded");
        }
    }

    #[test]
    #[should_panic(expected = "too long")]
    fn prefix_longer_than_64_rejected() {
        let spec = NetworkSpec::simple(
            p("2001:db8::/80"),
            1,
            "bad",
            HostScheme::LowByteSequential,
            1,
        );
        Network::materialize(spec, &mut rng());
    }

    #[test]
    #[should_panic(expected = "outside network")]
    fn aliased_region_outside_prefix_rejected() {
        let spec = NetworkSpec {
            prefix: p("2001:db8::/32"),
            asn: 1,
            name: "bad".into(),
            populations: vec![],
            aliased: vec![AliasedRegion {
                prefix: p("2001:db9::/48"),
                ports: vec![80],
            }],
            ports: vec![80],
        };
        Network::materialize(spec, &mut rng());
    }

    #[test]
    fn random_addr_in_prefix_is_contained() {
        let mut r = rng();
        for text in ["2001:db8::/96", "2001:db8::/112", "::/0", "2001:db8::1/128"] {
            let prefix = p(text);
            for _ in 0..20 {
                assert!(prefix.contains(prefix.random_address(&mut r)));
            }
        }
    }
}
