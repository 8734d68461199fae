//! [`Internet`]: the assembled ground-truth model — networks, routing, and
//! seed extraction.
//!
//! Besides its BGP [`PrefixTable`], an `Internet` keeps the address space
//! cut into disjoint spans, sorted by start, each owned by the network
//! whose routed prefix is the longest match for every address in it (a
//! nested prefix splits its parent into pieces). [`Internet::network_of`]
//! finds an address's span by binary search, and a scan's sorted target
//! list is resolved span by span, each run merged with its network's
//! address-sorted host slice (DESIGN §7, "The §6 scan: ground truth in one
//! ordered pass").

use crate::network::{HostKind, Network, NetworkSpec};
use rand::rngs::StdRng;
use rand::Rng;
use sixgen_addr::{NybbleAddr, Prefix};
use sixgen_routing::{AsRegistry, PrefixTable};
use std::fmt;

/// Why an [`Internet`] could not be assembled from its specs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// Two specs announced the same routed prefix.
    DuplicatePrefix(Prefix),
    /// A routed prefix is longer than /64: host populations fill the low
    /// 64 bits of every address.
    PrefixTooLong(Prefix),
    /// An aliased region does not lie inside its network's routed prefix.
    AliasedOutside {
        /// The aliased region.
        region: Prefix,
        /// The network's routed prefix.
        network: Prefix,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::DuplicatePrefix(prefix) => {
                write!(f, "duplicate routed prefix {prefix}")
            }
            BuildError::PrefixTooLong(prefix) => {
                write!(
                    f,
                    "routed prefix {prefix} too long for host populations (at most /64)"
                )
            }
            BuildError::AliasedOutside { region, network } => {
                write!(f, "aliased region {region} outside network {network}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// One seed address as extracted from a (simulated) DNS corpus: the address
/// plus the record kind it came from, enabling host-type experiments
/// (§6.7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedRecord {
    /// The seed address.
    pub addr: NybbleAddr,
    /// The service kind of the host the record points at.
    pub kind: HostKind,
}

/// How seeds are extracted from the ground truth, modeling a DNS-derived
/// corpus like the Rapid7 Forward DNS ANY dataset (§6.1).
#[derive(Debug, Clone)]
pub struct SeedExtraction {
    /// Fraction of each network's *active* hosts that appear in the corpus
    /// (DNS never sees every host).
    pub visibility: f64,
    /// Fraction of each network's *churned* hosts that (still) appear in
    /// the corpus — stale records pointing at now-dead addresses (§6.6).
    pub stale_visibility: f64,
}

impl Default for SeedExtraction {
    fn default() -> Self {
        SeedExtraction {
            visibility: 0.5,
            stale_visibility: 0.8,
        }
    }
}

/// The simulated IPv6 Internet: materialized networks plus the BGP view.
///
/// ```
/// use sixgen_simnet::{HostScheme, Internet, NetworkSpec};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let internet = Internet::build(
///     vec![NetworkSpec::simple(
///         "2001:db8::/32".parse().unwrap(),
///         64496,
///         "Example",
///         HostScheme::LowByteSequential,
///         100,
///     )],
///     &mut rng,
/// )
/// .expect("unique prefixes");
/// assert!(internet.is_responsive("2001:db8::42".parse().unwrap(), 80));
/// assert!(!internet.is_responsive("2001:db8::4242".parse().unwrap(), 80));
/// ```
#[derive(Debug)]
pub struct Internet {
    networks: Vec<Network>,
    table: PrefixTable,
    registry: AsRegistry,
    /// The whole address space as disjoint spans sorted by start: span `i`
    /// covers `spans[i].start` up to just before `spans[i + 1].start`
    /// (the last one up to `ffff:…:ffff`), and the first starts at `::`.
    spans: Vec<Span>,
}

/// A run of addresses with one longest-prefix match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    /// The span's first address.
    start: u128,
    /// Index into `networks` of the owning network; `None` is unrouted.
    network: Option<usize>,
}

/// The first and last address of `prefix`.
fn bounds(prefix: Prefix) -> (u128, u128) {
    let first = prefix.network().bits();
    (
        first,
        first | u128::MAX.checked_shr(u32::from(prefix.len())).unwrap_or(0),
    )
}

/// Cuts the address space into disjoint spans by longest-prefix match
/// over the networks' routed prefixes, which must be distinct. Any two
/// prefixes are disjoint or nested, so a sweep in address order with a
/// stack of the prefixes enclosing the sweep point finds every boundary:
/// a prefix opens a span at its first address, and closing it reopens
/// its innermost enclosing prefix (or unrouted space) after its last.
fn cut_spans(networks: &[Network]) -> Vec<Span> {
    /// Opens a span at `start`, replacing one opened at the same address.
    fn open(spans: &mut Vec<Span>, start: u128, network: Option<usize>) {
        let last = spans.last_mut().expect("the first span is never removed");
        if last.start == start {
            last.network = network;
        } else {
            spans.push(Span { start, network });
        }
    }

    let prefix = |i: usize| networks[i].spec().prefix;
    let mut order: Vec<usize> = (0..networks.len()).collect();
    // Prefix order puts a prefix before the prefixes nested in it.
    order.sort_unstable_by_key(|&i| prefix(i));
    let mut spans = vec![Span {
        start: 0,
        network: None,
    }];
    let mut enclosing: Vec<usize> = Vec::new();
    for i in order {
        let (first, _) = bounds(prefix(i));
        while let Some(&top) = enclosing.last() {
            let (_, last) = bounds(prefix(top));
            if last >= first {
                break;
            }
            enclosing.pop();
            open(&mut spans, last + 1, enclosing.last().copied());
        }
        open(&mut spans, first, Some(i));
        enclosing.push(i);
    }
    while let Some(top) = enclosing.pop() {
        if let Some(after) = bounds(prefix(top)).1.checked_add(1) {
            open(&mut spans, after, enclosing.last().copied());
        }
    }
    spans
}

impl Internet {
    /// Materializes all specs into ground truth and builds the routing
    /// view. Deterministic for a given RNG state. Every spec is checked
    /// before any is materialized: two specs announcing the same prefix, a
    /// routed prefix longer than /64 and an aliased region outside its
    /// network are each a [`BuildError`].
    pub fn build(specs: Vec<NetworkSpec>, rng: &mut StdRng) -> Result<Internet, BuildError> {
        let mut table = PrefixTable::new();
        let mut registry = AsRegistry::new();
        for spec in &specs {
            if table.insert(spec.prefix, spec.asn).is_some() {
                return Err(BuildError::DuplicatePrefix(spec.prefix));
            }
            if spec.prefix.len() > 64 {
                return Err(BuildError::PrefixTooLong(spec.prefix));
            }
            if let Some(region) = spec.aliased.iter().find(|r| !spec.prefix.covers(&r.prefix)) {
                return Err(BuildError::AliasedOutside {
                    region: region.prefix,
                    network: spec.prefix,
                });
            }
            registry.register(spec.asn, spec.name.clone());
        }
        let networks: Vec<Network> = specs
            .into_iter()
            .map(|spec| Network::materialize(spec, rng))
            .collect();
        let spans = cut_spans(&networks);
        Ok(Internet {
            networks,
            table,
            registry,
            spans,
        })
    }

    /// The span containing `addr`.
    fn span_of(&self, addr: NybbleAddr) -> usize {
        // The first span starts at `::`, so the count is at least one.
        self.spans.partition_point(|span| span.start <= addr.bits()) - 1
    }

    /// The network owning `addr`, by longest-prefix match.
    pub fn network_of(&self, addr: NybbleAddr) -> Option<&Network> {
        self.spans[self.span_of(addr)]
            .network
            .map(|i| &self.networks[i])
    }

    /// Ground truth: does `addr` respond on `port`?
    pub fn is_responsive(&self, addr: NybbleAddr, port: u16) -> bool {
        self.network_of(addr)
            .is_some_and(|n| n.is_responsive(addr, port))
    }

    /// [`is_responsive`](Internet::is_responsive) of every address of a
    /// sorted list, in its order: each span's run of addresses is merged
    /// with its network's host slice.
    pub(crate) fn responsive_sorted(&self, addrs: &[NybbleAddr], port: u16) -> Vec<bool> {
        let mut truth = Vec::with_capacity(addrs.len());
        let mut rest = addrs;
        let mut index = match rest.first() {
            Some(&first) => self.span_of(first),
            None => return truth,
        };
        while !rest.is_empty() {
            let end = match self.spans.get(index + 1) {
                Some(next) => rest.partition_point(|addr| addr.bits() < next.start),
                None => rest.len(),
            };
            let (run, tail) = rest.split_at(end);
            match self.spans[index].network {
                Some(i) => self.networks[i].responsive_sorted(run, port, &mut truth),
                None => truth.resize(truth.len() + run.len(), false),
            }
            rest = tail;
            index += 1;
        }
        truth
    }

    /// All materialized networks.
    pub fn networks(&self) -> &[Network] {
        &self.networks
    }

    /// The BGP prefix table.
    pub fn table(&self) -> &PrefixTable {
        &self.table
    }

    /// AS metadata.
    pub fn registry(&self) -> &AsRegistry {
        &self.registry
    }

    /// Total number of active hosts across all networks (aliased regions
    /// excluded — they are unbounded).
    pub fn active_host_count(&self) -> usize {
        self.networks.iter().map(|n| n.active_count()).sum()
    }

    /// Extracts a seed corpus: a deterministic sample of active (and stale)
    /// host addresses with their record kinds, across every network, each
    /// network's hosts drawn in address order.
    pub fn extract_seeds(&self, extraction: &SeedExtraction, rng: &mut StdRng) -> Vec<SeedRecord> {
        let mut seeds = Vec::new();
        for network in &self.networks {
            for &(addr, kind) in network.active() {
                if rng.gen_bool(extraction.visibility) {
                    seeds.push(SeedRecord { addr, kind });
                }
            }
            for &(addr, kind) in network.churned() {
                if rng.gen_bool(extraction.stale_visibility) {
                    seeds.push(SeedRecord { addr, kind });
                }
            }
        }
        seeds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{AliasedRegion, HostPopulation, SubnetPlan};
    use crate::scheme::HostScheme;
    use rand::SeedableRng;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn build() -> Internet {
        let mut rng = StdRng::seed_from_u64(11);
        Internet::build(
            vec![
                NetworkSpec::simple(
                    p("2001:db8::/32"),
                    64496,
                    "Alpha",
                    HostScheme::LowByteSequential,
                    20,
                ),
                NetworkSpec {
                    prefix: p("2620:100::/40"),
                    asn: 64497,
                    name: "Beta".into(),
                    populations: vec![HostPopulation {
                        scheme: HostScheme::Wordy,
                        subnets: SubnetPlan::Single(3),
                        count: 10,
                        churned: 4,
                        kind: HostKind::NameServer,
                    }],
                    aliased: Vec::new(),
                    ports: vec![80, 53],
                },
            ],
            &mut rng,
        )
        .expect("unique prefixes")
    }

    #[test]
    fn responsiveness_respects_routing() {
        let net = build();
        assert!(net.is_responsive("2001:db8::5".parse().unwrap(), 80));
        assert!(!net.is_responsive("2001:db9::5".parse().unwrap(), 80), "unrouted");
        assert_eq!(net.active_host_count(), 30);
    }

    #[test]
    fn network_of_uses_lpm() {
        let net = build();
        assert_eq!(net.network_of("2001:db8::1".parse().unwrap()).unwrap().spec().asn, 64496);
        assert_eq!(net.network_of("2620:100::1".parse().unwrap()).unwrap().spec().asn, 64497);
        assert!(net.network_of("fe80::1".parse().unwrap()).is_none());
    }

    #[test]
    fn seed_extraction_is_deterministic_and_tagged() {
        let net = build();
        let extraction = SeedExtraction {
            visibility: 1.0,
            stale_visibility: 1.0,
        };
        let mut r1 = StdRng::seed_from_u64(3);
        let mut r2 = StdRng::seed_from_u64(3);
        let s1 = net.extract_seeds(&extraction, &mut r1);
        let s2 = net.extract_seeds(&extraction, &mut r2);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 34, "20 active + 10 active + 4 stale");
        let ns = s1.iter().filter(|s| s.kind == HostKind::NameServer).count();
        assert_eq!(ns, 14);
    }

    #[test]
    fn seed_extraction_visibility_subsamples() {
        let net = build();
        let mut rng = StdRng::seed_from_u64(3);
        let all = net.extract_seeds(
            &SeedExtraction { visibility: 1.0, stale_visibility: 0.0 },
            &mut rng,
        );
        assert_eq!(all.len(), 30);
        let mut rng = StdRng::seed_from_u64(3);
        let half = net.extract_seeds(
            &SeedExtraction { visibility: 0.5, stale_visibility: 0.0 },
            &mut rng,
        );
        assert!(half.len() < 30 && !half.is_empty());
        // Seeds point at actual (current or former) hosts.
        for s in &half {
            assert!(net.network_of(s.addr).is_some());
        }
    }

    #[test]
    fn duplicate_prefix_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let err = Internet::build(
            vec![
                NetworkSpec::simple(p("2001:db8::/32"), 1, "A", HostScheme::LowByteSequential, 1),
                NetworkSpec::simple(p("2001:db8::/32"), 2, "B", HostScheme::LowByteSequential, 1),
            ],
            &mut rng,
        )
        .unwrap_err();
        assert_eq!(err, BuildError::DuplicatePrefix(p("2001:db8::/32")));
        assert_eq!(err.to_string(), "duplicate routed prefix 2001:db8::/32");
    }

    #[test]
    fn prefix_longer_than_64_is_a_build_error() {
        let mut rng = StdRng::seed_from_u64(1);
        let err = Internet::build(
            vec![
                NetworkSpec::simple(p("2001:db8::/32"), 1, "A", HostScheme::LowByteSequential, 1),
                NetworkSpec::simple(p("2001:db9::/80"), 2, "B", HostScheme::LowByteSequential, 1),
            ],
            &mut rng,
        )
        .unwrap_err();
        assert_eq!(err, BuildError::PrefixTooLong(p("2001:db9::/80")));
        assert_eq!(
            err.to_string(),
            "routed prefix 2001:db9::/80 too long for host populations (at most /64)"
        );
    }

    #[test]
    fn aliased_region_outside_its_network_is_a_build_error() {
        let mut rng = StdRng::seed_from_u64(1);
        let err = Internet::build(
            vec![NetworkSpec {
                aliased: vec![
                    AliasedRegion {
                        prefix: p("2001:db8:1::/48"),
                        ports: vec![80],
                    },
                    AliasedRegion {
                        prefix: p("2001:db9::/48"),
                        ports: vec![80],
                    },
                ],
                ..NetworkSpec::simple(p("2001:db8::/32"), 1, "A", HostScheme::LowByteSequential, 1)
            }],
            &mut rng,
        )
        .unwrap_err();
        assert_eq!(
            err,
            BuildError::AliasedOutside {
                region: p("2001:db9::/48"),
                network: p("2001:db8::/32"),
            }
        );
        assert_eq!(
            err.to_string(),
            "aliased region 2001:db9::/48 outside network 2001:db8::/32"
        );
    }

    /// Nested prefixes (the default route, a /32, a /48 inside it and a
    /// /64 inside that) with hosts in each, aliased regions and two ports.
    fn nested() -> Internet {
        let mut rng = StdRng::seed_from_u64(12);
        let hosts = |prefix: &str, asn: u32, count: usize| NetworkSpec {
            populations: vec![HostPopulation {
                scheme: HostScheme::LowByteSequential,
                subnets: SubnetPlan::Sequential { count: 3 },
                count,
                churned: 2,
                kind: HostKind::Web,
            }],
            ..NetworkSpec::simple(p(prefix), asn, "N", HostScheme::LowByteSequential, 0)
        };
        Internet::build(
            vec![
                hosts("2001:db8:0:1::/64", 4, 5),
                hosts("::/0", 1, 6),
                NetworkSpec {
                    aliased: vec![AliasedRegion {
                        prefix: p("2001:db8:7::/112"),
                        ports: vec![443],
                    }],
                    ports: vec![80, 443],
                    ..hosts("2001:db8::/32", 2, 12)
                },
                hosts("2001:db8::/48", 3, 9),
            ],
            &mut rng,
        )
        .expect("distinct prefixes")
    }

    #[test]
    fn nested_prefixes_split_their_parents() {
        let net = nested();
        let asn = |a: &str| net.network_of(a.parse().unwrap()).map(|n| n.spec().asn);
        assert_eq!(asn("::"), Some(1));
        assert_eq!(asn("2001:db7:ffff:ffff:ffff:ffff:ffff:ffff"), Some(1));
        assert_eq!(
            asn("2001:db8::"),
            Some(3),
            "the /48 starts where the /32 does"
        );
        assert_eq!(asn("2001:db8:0:1::"), Some(4));
        assert_eq!(asn("2001:db8:0:1:ffff:ffff:ffff:ffff"), Some(4));
        assert_eq!(
            asn("2001:db8:0:2::"),
            Some(3),
            "the /48 resumes after the /64"
        );
        assert_eq!(
            asn("2001:db8:1::"),
            Some(2),
            "the /32 resumes after the /48"
        );
        assert_eq!(asn("2001:db9::"), Some(1));
        assert_eq!(asn("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"), Some(1));
        // Starts strictly increase, and no two neighbours share an owner.
        for pair in net.spans.windows(2) {
            assert!(pair[0].start < pair[1].start);
            assert_ne!(pair[0].network, pair[1].network);
        }
    }

    #[test]
    fn sorted_lookup_matches_single_lookups() {
        let net = nested();
        let mut addrs: Vec<NybbleAddr> = Vec::new();
        for network in net.networks() {
            for &(addr, _) in network.active().iter().chain(network.churned()) {
                for delta in [0u128, 1, 2, 0x1_0000_0000_0000_0000] {
                    addrs.push(NybbleAddr::from_bits(addr.bits().wrapping_add(delta)));
                    addrs.push(NybbleAddr::from_bits(addr.bits().wrapping_sub(delta)));
                }
            }
        }
        for text in ["2001:db8:7::1", "2001:db8:7::1:0", "::", "ffff::1"] {
            addrs.push(text.parse().unwrap());
        }
        addrs.sort_unstable();
        addrs.dedup();
        for port in [80, 443, 53] {
            let single: Vec<bool> = addrs.iter().map(|&a| net.is_responsive(a, port)).collect();
            assert_eq!(net.responsive_sorted(&addrs, port), single, "port {port}");
            assert_eq!(single.contains(&true), port != 53, "port {port}");
        }
        assert!(net.responsive_sorted(&[], 80).is_empty());
    }
}
