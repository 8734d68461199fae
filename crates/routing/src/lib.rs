//! # sixgen-routing — BGP routed-prefix substrate
//!
//! The paper's experiments operate per *routed prefix*: seeds are grouped
//! "by BGP origin routed prefix" using RouteViews prefix-to-AS mappings
//! (§6.1), and 6Gen runs independently on each group. This crate provides
//! that substrate:
//!
//! * [`PrefixTable`] — a longest-prefix-match table over IPv6: the address
//!   space cut into disjoint spans, each naming its longest-matching
//!   route, and searched by binary search (bit-granular because announced
//!   prefixes are not always /64- or nybble-aligned, §4.2),
//! * [`RouteEntry`] — one announcement: prefix → origin ASN,
//! * [`AsRegistry`] — ASN → AS-name metadata (for Table 1-style reports),
//! * seed grouping by routed prefix.
//!
//! ```
//! use sixgen_routing::PrefixTable;
//!
//! let table = PrefixTable::from_routes([
//!     ("2001:db8::/32".parse().unwrap(), 64496),
//!     ("2001:db8:f::/48".parse().unwrap(), 64497),
//! ]);
//!
//! let hit = table.lookup("2001:db8:f::1".parse().unwrap()).unwrap();
//! assert_eq!(hit.asn, 64497, "longest match wins");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sixgen_addr::{NybbleAddr, Prefix};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// One route announcement: a prefix originated by an AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteEntry {
    /// The announced prefix.
    pub prefix: Prefix,
    /// The origin AS number.
    pub asn: u32,
}

/// A longest-prefix-match table over IPv6 prefixes.
///
/// The routes keep the order of their first announcement. Beside them the
/// table keeps the whole address space cut into disjoint spans, sorted by
/// start, each naming the route that is the longest match for every
/// address in it, or none: a nested prefix splits its parent into pieces.
/// A lookup is one binary search over the spans, and arbitrary
/// (non-aligned) prefix lengths are exact. The table is built once, by
/// [`from_routes`](PrefixTable::from_routes).
#[derive(Debug, Clone)]
pub struct PrefixTable {
    entries: Vec<RouteEntry>,
    /// Span `i` covers `spans[i].start` up to just before
    /// `spans[i + 1].start` (the last one up to `ffff:…:ffff`), and the
    /// first starts at `::`.
    spans: Vec<Span>,
}

/// A run of addresses with one longest-prefix match.
#[derive(Debug, Clone)]
struct Span {
    /// The span's first address.
    start: u128,
    /// Index into `entries` of the longest match; `None` is unrouted.
    route: Option<usize>,
}

/// The last address of `prefix`.
fn last(prefix: Prefix) -> u128 {
    prefix.network().bits() | u128::MAX.checked_shr(u32::from(prefix.len())).unwrap_or(0)
}

/// Cuts the address space into disjoint spans by longest-prefix match
/// over distinct prefixes. Any two prefixes are disjoint or nested, so a
/// sweep in address order with a stack of the prefixes enclosing the
/// sweep point finds every boundary: a prefix opens a span at its first
/// address, and closing it reopens its innermost enclosing prefix (or
/// unrouted space) after its last.
fn cut_spans(entries: &[RouteEntry]) -> Vec<Span> {
    /// Opens a span at `start`, replacing one opened at the same address.
    fn open(spans: &mut Vec<Span>, start: u128, route: Option<usize>) {
        let last = spans.last_mut().expect("the first span is never removed");
        if last.start == start {
            last.route = route;
        } else {
            spans.push(Span { start, route });
        }
    }

    let prefix = |i: usize| entries[i].prefix;
    let mut order: Vec<usize> = (0..entries.len()).collect();
    // Prefix order puts a prefix before the prefixes nested in it.
    order.sort_unstable_by_key(|&i| prefix(i));
    let mut spans = vec![Span {
        start: 0,
        route: None,
    }];
    let mut enclosing: Vec<usize> = Vec::new();
    for i in order {
        let first = prefix(i).network().bits();
        while let Some(&top) = enclosing.last() {
            let end = last(prefix(top));
            if end >= first {
                break;
            }
            enclosing.pop();
            open(&mut spans, end + 1, enclosing.last().copied());
        }
        open(&mut spans, first, Some(i));
        enclosing.push(i);
    }
    while let Some(top) = enclosing.pop() {
        if let Some(after) = last(prefix(top)).checked_add(1) {
            open(&mut spans, after, enclosing.last().copied());
        }
    }
    spans
}

impl Default for PrefixTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PrefixTable {
    /// Creates an empty table.
    pub fn new() -> PrefixTable {
        PrefixTable::from_routes([])
    }

    /// Builds a table from `(prefix, asn)` pairs. A prefix announced
    /// again keeps its first position in [`iter`](PrefixTable::iter) and
    /// takes the last origin.
    pub fn from_routes(routes: impl IntoIterator<Item = (Prefix, u32)>) -> PrefixTable {
        let mut entries: Vec<RouteEntry> = Vec::new();
        let mut positions: HashMap<Prefix, usize> = HashMap::new();
        for (prefix, asn) in routes {
            match positions.entry(prefix) {
                Entry::Occupied(position) => entries[*position.get()].asn = asn,
                Entry::Vacant(position) => {
                    position.insert(entries.len());
                    entries.push(RouteEntry { prefix, asn });
                }
            }
        }
        let spans = cut_spans(&entries);
        PrefixTable { entries, spans }
    }

    /// Number of announced prefixes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no prefix is announced.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The span containing `addr`.
    fn span_of(&self, addr: NybbleAddr) -> usize {
        // The first span starts at `::`, so the count is at least one.
        self.spans.partition_point(|span| span.start <= addr.bits()) - 1
    }

    /// The position in [`iter`](PrefixTable::iter) order of the longest
    /// match for `addr`.
    pub fn route_index(&self, addr: NybbleAddr) -> Option<usize> {
        self.spans[self.span_of(addr)].route
    }

    /// Longest-prefix-match lookup.
    pub fn lookup(&self, addr: NybbleAddr) -> Option<&RouteEntry> {
        self.route_index(addr).map(|i| &self.entries[i])
    }

    /// The routed prefix containing `addr`, if any.
    pub fn routed_prefix(&self, addr: NybbleAddr) -> Option<Prefix> {
        self.lookup(addr).map(|e| e.prefix)
    }

    /// Splits an address-sorted slice into its maximal runs that share
    /// one longest match, in order, each with that match's
    /// [`route_index`](PrefixTable::route_index).
    pub fn runs<'a>(
        &'a self,
        mut addrs: &'a [NybbleAddr],
    ) -> impl Iterator<Item = (Option<usize>, &'a [NybbleAddr])> + 'a {
        std::iter::from_fn(move || {
            let route = self.route_index(*addrs.first()?);
            let mut end = 0;
            while let Some(&addr) = addrs.get(end) {
                let span = self.span_of(addr);
                if self.spans[span].route != route {
                    break;
                }
                end += match self.spans.get(span + 1) {
                    Some(next) => addrs[end..].partition_point(|a| a.bits() < next.start),
                    None => addrs.len() - end,
                };
            }
            let (run, rest) = addrs.split_at(end);
            addrs = rest;
            Some((route, run))
        })
    }

    /// Iterates all announcements (in order of first announcement).
    pub fn iter(&self) -> impl Iterator<Item = &RouteEntry> {
        self.entries.iter()
    }

    /// Groups addresses by their routed prefix (§6.1: "We grouped seeds by
    /// BGP origin routed prefix"). Unrouted addresses are returned
    /// separately — a TGA typically skips them.
    pub fn group_by_prefix(
        &self,
        addrs: impl IntoIterator<Item = NybbleAddr>,
    ) -> (HashMap<Prefix, Vec<NybbleAddr>>, Vec<NybbleAddr>) {
        let mut grouped: HashMap<Prefix, Vec<NybbleAddr>> = HashMap::new();
        let mut unrouted = Vec::new();
        for addr in addrs {
            match self.routed_prefix(addr) {
                Some(prefix) => grouped.entry(prefix).or_default().push(addr),
                None => unrouted.push(addr),
            }
        }
        (grouped, unrouted)
    }

    /// Deterministically partitions addresses into per-routed-prefix
    /// shards: like [`group_by_prefix`](PrefixTable::group_by_prefix)
    /// but with a stable output order — shards sorted by prefix, each
    /// shard's seeds sorted and deduplicated — so the result can key
    /// reproducible per-shard work (the sharded engine driver derives
    /// RNG streams and merge order from it). Returns the shards and the
    /// unrouted remainder (sorted, deduplicated).
    pub fn partition(
        &self,
        addrs: impl IntoIterator<Item = NybbleAddr>,
    ) -> (Vec<(Prefix, Vec<NybbleAddr>)>, Vec<NybbleAddr>) {
        let (grouped, mut unrouted) = self.group_by_prefix(addrs);
        let mut shards: Vec<(Prefix, Vec<NybbleAddr>)> = grouped.into_iter().collect();
        shards.sort_by_key(|(prefix, _)| *prefix);
        for (_, seeds) in &mut shards {
            seeds.sort_unstable();
            seeds.dedup();
        }
        unrouted.sort_unstable();
        unrouted.dedup();
        (shards, unrouted)
    }
}

/// The prefix length [`partition_by_length`] shards by when no routed-prefix
/// table is given: seeds group under their enclosing /48, the typical BGP
/// announcement size.
pub const FALLBACK_SHARD_LEN: u8 = 48;

/// Deterministically partitions addresses into fixed-length prefix
/// shards — the fallback when no BGP table is available (every address
/// is "routed" under its enclosing /`len`). Same ordering contract as
/// [`PrefixTable::partition`]: shards sorted by prefix, seeds sorted
/// and deduplicated.
///
/// # Panics
///
/// Panics if `len > 128`.
pub fn partition_by_length(
    addrs: impl IntoIterator<Item = NybbleAddr>,
    len: u8,
) -> Vec<(Prefix, Vec<NybbleAddr>)> {
    let mut grouped: HashMap<Prefix, Vec<NybbleAddr>> = HashMap::new();
    for addr in addrs {
        grouped.entry(Prefix::new(addr, len)).or_default().push(addr);
    }
    let mut shards: Vec<(Prefix, Vec<NybbleAddr>)> = grouped.into_iter().collect();
    shards.sort_by_key(|(prefix, _)| *prefix);
    for (_, seeds) in &mut shards {
        seeds.sort_unstable();
        seeds.dedup();
    }
    shards
}

/// AS metadata: number → organization name, for Table 1-style reporting.
#[derive(Debug, Clone, Default)]
pub struct AsRegistry {
    names: HashMap<u32, String>,
}

impl AsRegistry {
    /// Creates an empty registry.
    pub fn new() -> AsRegistry {
        AsRegistry::default()
    }

    /// Builds a registry from `(asn, name)` pairs.
    pub fn from_pairs<N: Into<String>>(pairs: impl IntoIterator<Item = (u32, N)>) -> AsRegistry {
        AsRegistry {
            names: pairs.into_iter().map(|(a, n)| (a, n.into())).collect(),
        }
    }

    /// Registers (or renames) an AS.
    pub fn register(&mut self, asn: u32, name: impl Into<String>) {
        self.names.insert(asn, name.into());
    }

    /// The AS name, or `"AS<asn>"` if unregistered.
    pub fn name(&self, asn: u32) -> String {
        self.names
            .get(&asn)
            .cloned()
            .unwrap_or_else(|| format!("AS{asn}"))
    }

    /// Number of registered ASes.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` if no AS is registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> NybbleAddr {
        s.parse().unwrap()
    }

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn table() -> PrefixTable {
        PrefixTable::from_routes([
            (p("2001:db8::/32"), 64496),
            (p("2001:db8:f::/48"), 64497),
            (p("2600::/24"), 64498),
            // Non-aligned and longer-than-64 prefixes (§4.2).
            (p("2a00:8000::/17"), 64499),
            (p("2001:db8:1:2:3::/80"), 64500),
        ])
    }

    #[test]
    fn longest_prefix_match() {
        let t = table();
        assert_eq!(t.lookup(a("2001:db8::1")).unwrap().asn, 64496);
        assert_eq!(t.lookup(a("2001:db8:f::1")).unwrap().asn, 64497);
        assert_eq!(t.lookup(a("2001:db8:1:2:3::9")).unwrap().asn, 64500);
        assert_eq!(t.lookup(a("2001:db8:1:2:4::9")).unwrap().asn, 64496);
        assert_eq!(t.lookup(a("2600::1")).unwrap().asn, 64498);
        assert!(t.lookup(a("fe80::1")).is_none());
    }

    #[test]
    fn non_aligned_prefix_boundaries() {
        let t = table();
        // /17: 2a00:8000::/17 covers 2a00:8000:: .. 2a00:ffff:…
        assert_eq!(t.lookup(a("2a00:8000::1")).unwrap().asn, 64499);
        assert_eq!(t.lookup(a("2a00:ffff::1")).unwrap().asn, 64499);
        assert!(t.lookup(a("2a00:7fff::1")).is_none());
        assert!(t.lookup(a("2a01::1")).is_none());
    }

    /// The routes of [`table`] followed by `extra`.
    fn table_with(extra: &[(&str, u32)]) -> PrefixTable {
        let t = table();
        let routes = t.iter().map(|e| (e.prefix, e.asn));
        PrefixTable::from_routes(routes.chain(extra.iter().map(|&(s, asn)| (p(s), asn))))
    }

    #[test]
    fn default_route() {
        let t = table_with(&[("::/0", 1)]);
        assert_eq!(t.lookup(a("fe80::1")).unwrap().asn, 1);
        assert_eq!(t.lookup(a("::")).unwrap().asn, 1);
        assert_eq!(
            t.lookup(a("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"))
                .unwrap()
                .asn,
            1
        );
        // More specific still wins.
        assert_eq!(t.lookup(a("2001:db8::1")).unwrap().asn, 64496);
    }

    #[test]
    fn reinsert_replaces_and_reports_old() {
        let t = table_with(&[("2001:db8::/32", 7)]);
        assert_eq!(t.lookup(a("2001:db8::1")).unwrap().asn, 7);
        assert_eq!(t.len(), 5, "replacement does not add an entry");
        let first = t.iter().next().unwrap();
        assert_eq!(
            (first.prefix, first.asn),
            (p("2001:db8::/32"), 7),
            "the prefix keeps its first position"
        );
    }

    #[test]
    fn host_route() {
        let t = PrefixTable::from_routes([(p("2001:db8::5/128"), 42)]);
        assert_eq!(t.lookup(a("2001:db8::5")).unwrap().asn, 42);
        assert!(t.lookup(a("2001:db8::4")).is_none());
        assert!(t.lookup(a("2001:db8::6")).is_none());
    }

    /// A default route, a /32, a /48 starting where the /32 does and a /64
    /// inside the /48: every boundary of the sweep.
    fn nested() -> PrefixTable {
        PrefixTable::from_routes([
            (p("2001:db8:0:1::/64"), 4),
            (p("::/0"), 1),
            (p("2001:db8::/32"), 2),
            (p("2001:db8::/48"), 3),
        ])
    }

    #[test]
    fn nested_prefixes_cut_disjoint_spans() {
        let t = nested();
        let asn = |s: &str| t.lookup(a(s)).map(|e| e.asn);
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
        // Spans: starts strictly increase, the first is `::`, and no two
        // neighbours share a route.
        assert_eq!(t.spans[0].start, 0);
        for pair in t.spans.windows(2) {
            assert!(pair[0].start < pair[1].start);
            assert_ne!(pair[0].route, pair[1].route);
        }
        assert_eq!(t.spans.len(), 6);
        assert_eq!(t.route_index(a("2001:db8:0:1::9")), Some(0), "iter() order");
    }

    #[test]
    fn runs_span_a_nested_route_they_skip() {
        let t = nested();
        let addrs = |texts: &[&str]| texts.iter().map(|s| a(s)).collect::<Vec<_>>();
        let runs = |list: &[NybbleAddr]| -> Vec<(Option<usize>, usize)> {
            t.runs(list)
                .map(|(route, run)| (route, run.len()))
                .collect()
        };
        // The default route on both sides of the /32, nothing inside it.
        let outside = addrs(&["::1", "2001:db7::", "2001:db9::", "fe80::1"]);
        assert_eq!(runs(&outside), vec![(Some(1), 4)]);
        let across = addrs(&[
            "::1",
            "2001:db8::1",
            "2001:db8::2",
            "2001:db8:0:1::5",
            "2001:db8:0:2::",
            "2001:db8:1::",
            "2001:db9::",
        ]);
        assert_eq!(
            runs(&across),
            vec![
                (Some(1), 1),
                (Some(3), 2),
                (Some(0), 1),
                (Some(3), 1),
                (Some(2), 1),
                (Some(1), 1)
            ]
        );
        assert!(runs(&[]).is_empty());
        let empty = PrefixTable::new();
        assert_eq!(
            empty.runs(&across).collect::<Vec<_>>(),
            vec![(None, &across[..])]
        );
    }

    #[test]
    fn group_by_prefix_and_unrouted() {
        let t = table();
        let seeds = vec![
            a("2001:db8::1"),
            a("2001:db8::2"),
            a("2001:db8:f::1"),
            a("fe80::1"),
        ];
        let (grouped, unrouted) = t.group_by_prefix(seeds);
        assert_eq!(grouped[&p("2001:db8::/32")].len(), 2);
        assert_eq!(grouped[&p("2001:db8:f::/48")].len(), 1);
        assert_eq!(unrouted, vec![a("fe80::1")]);
    }

    #[test]
    fn as_registry_names() {
        let mut reg = AsRegistry::from_pairs([(20940u32, "Akamai"), (16509, "Amazon")]);
        assert_eq!(reg.name(20940), "Akamai");
        assert_eq!(reg.name(99999), "AS99999");
        reg.register(99999, "Example");
        assert_eq!(reg.name(99999), "Example");
        assert_eq!(reg.len(), 3);
        assert!(!reg.is_empty());
    }

    #[test]
    fn empty_table() {
        let t = PrefixTable::new();
        assert!(t.is_empty());
        assert!(t.lookup(a("::1")).is_none());
        let (grouped, unrouted) = t.group_by_prefix([a("::1")]);
        assert!(grouped.is_empty());
        assert_eq!(unrouted.len(), 1);
    }

    #[test]
    fn partition_is_sorted_deduplicated_and_input_order_independent() {
        let t = table();
        let seeds = vec![
            a("2001:db8:f::9"),
            a("2001:db8::2"),
            a("fe80::1"),
            a("2001:db8::1"),
            a("2001:db8::2"), // duplicate
            a("2600:1::1"),
            a("fe80::1"), // duplicate unrouted
        ];
        let (shards, unrouted) = t.partition(seeds.clone());
        let prefixes: Vec<Prefix> = shards.iter().map(|(p, _)| *p).collect();
        assert_eq!(
            prefixes,
            vec![p("2001:db8::/32"), p("2001:db8:f::/48"), p("2600::/24")]
        );
        assert_eq!(shards[0].1, vec![a("2001:db8::1"), a("2001:db8::2")]);
        assert_eq!(unrouted, vec![a("fe80::1")]);

        let mut reversed = seeds;
        reversed.reverse();
        assert_eq!(t.partition(reversed), (shards, unrouted));
    }

    #[test]
    fn partition_by_length_groups_under_fixed_prefixes() {
        let shards = partition_by_length(
            [
                a("2001:db8:1::5"),
                a("2001:db8:2::1"),
                a("2001:db8:1::5"), // duplicate
                a("2001:db8:1::2"),
            ],
            48,
        );
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].0, p("2001:db8:1::/48"));
        assert_eq!(shards[0].1, vec![a("2001:db8:1::2"), a("2001:db8:1::5")]);
        assert_eq!(shards[1].0, p("2001:db8:2::/48"));
    }
}
