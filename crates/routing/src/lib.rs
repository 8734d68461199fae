//! # sixgen-routing — BGP routed-prefix substrate
//!
//! The paper's experiments operate per *routed prefix*: seeds are grouped
//! "by BGP origin routed prefix" using RouteViews prefix-to-AS mappings
//! (§6.1), and 6Gen runs independently on each group. This crate provides
//! that substrate:
//!
//! * [`PrefixTable`] — a longest-prefix-match table over IPv6 (a binary
//!   trie, bit-granular because announced prefixes are not always /64- or
//!   nybble-aligned, §4.2),
//! * [`RouteEntry`] — one announcement: prefix → origin ASN,
//! * [`AsRegistry`] — ASN → AS-name metadata (for Table 1-style reports),
//! * seed grouping by routed prefix and by origin AS.
//!
//! ```
//! use sixgen_routing::PrefixTable;
//!
//! let mut table = PrefixTable::new();
//! table.insert("2001:db8::/32".parse().unwrap(), 64496);
//! table.insert("2001:db8:f::/48".parse().unwrap(), 64497);
//!
//! let hit = table.lookup("2001:db8:f::1".parse().unwrap()).unwrap();
//! assert_eq!(hit.asn, 64497, "longest match wins");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sixgen_addr::{NybbleAddr, Prefix};
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
/// Implemented as a binary (per-bit) trie: inserts and lookups are O(128)
/// regardless of table size, and arbitrary (non-aligned) prefix lengths are
/// exact. Inserting the same prefix twice replaces the previous entry.
#[derive(Debug, Clone)]
pub struct PrefixTable {
    nodes: Vec<TrieNode>,
    entries: Vec<RouteEntry>,
}

#[derive(Debug, Clone, Default)]
struct TrieNode {
    children: [Option<u32>; 2],
    /// Index into `entries` if a prefix terminates here.
    entry: Option<u32>,
}

impl Default for PrefixTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PrefixTable {
    /// Creates an empty table.
    pub fn new() -> PrefixTable {
        PrefixTable {
            nodes: vec![TrieNode::default()],
            entries: Vec::new(),
        }
    }

    /// Builds a table from `(prefix, asn)` pairs.
    pub fn from_routes(routes: impl IntoIterator<Item = (Prefix, u32)>) -> PrefixTable {
        let mut table = PrefixTable::new();
        for (prefix, asn) in routes {
            table.insert(prefix, asn);
        }
        table
    }

    /// Number of announced prefixes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no prefix is announced.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bit `depth` of `addr` (0 = most significant).
    #[inline]
    fn bit(addr: NybbleAddr, depth: u8) -> usize {
        ((addr.bits() >> (127 - depth as u32)) & 1) as usize
    }

    /// Announces `prefix` with origin `asn`. Returns the previous origin if
    /// the prefix was already announced.
    pub fn insert(&mut self, prefix: Prefix, asn: u32) -> Option<u32> {
        let mut node: u32 = 0;
        for depth in 0..prefix.len() {
            let b = Self::bit(prefix.network(), depth);
            node = match self.nodes[node as usize].children[b] {
                Some(c) => c,
                None => {
                    let id = self.nodes.len() as u32;
                    self.nodes.push(TrieNode::default());
                    self.nodes[node as usize].children[b] = Some(id);
                    id
                }
            };
        }
        match self.nodes[node as usize].entry {
            Some(e) => {
                let old = self.entries[e as usize].asn;
                self.entries[e as usize].asn = asn;
                Some(old)
            }
            None => {
                self.nodes[node as usize].entry = Some(self.entries.len() as u32);
                self.entries.push(RouteEntry { prefix, asn });
                None
            }
        }
    }

    /// Longest-prefix-match lookup.
    pub fn lookup(&self, addr: NybbleAddr) -> Option<&RouteEntry> {
        let mut node: u32 = 0;
        let mut best: Option<&RouteEntry> = None;
        for depth in 0..=128u16 {
            if let Some(e) = self.nodes[node as usize].entry {
                best = Some(&self.entries[e as usize]);
            }
            if depth == 128 {
                break;
            }
            match self.nodes[node as usize].children[Self::bit(addr, depth as u8)] {
                Some(c) => node = c,
                None => break,
            }
        }
        best
    }

    /// The routed prefix containing `addr`, if any.
    pub fn routed_prefix(&self, addr: NybbleAddr) -> Option<Prefix> {
        self.lookup(addr).map(|e| e.prefix)
    }

    /// Iterates all announcements (in insertion order).
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

    /// Groups addresses by origin AS. Unrouted addresses are dropped.
    pub fn group_by_asn(
        &self,
        addrs: impl IntoIterator<Item = NybbleAddr>,
    ) -> HashMap<u32, Vec<NybbleAddr>> {
        let mut grouped: HashMap<u32, Vec<NybbleAddr>> = HashMap::new();
        for addr in addrs {
            if let Some(entry) = self.lookup(addr) {
                grouped.entry(entry.asn).or_default().push(addr);
            }
        }
        grouped
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

    #[test]
    fn default_route() {
        let mut t = table();
        t.insert(p("::/0"), 1);
        assert_eq!(t.lookup(a("fe80::1")).unwrap().asn, 1);
        // More specific still wins.
        assert_eq!(t.lookup(a("2001:db8::1")).unwrap().asn, 64496);
    }

    #[test]
    fn reinsert_replaces_and_reports_old() {
        let mut t = table();
        assert_eq!(t.insert(p("2001:db8::/32"), 7), Some(64496));
        assert_eq!(t.lookup(a("2001:db8::1")).unwrap().asn, 7);
        assert_eq!(t.len(), 5, "replacement does not add an entry");
    }

    #[test]
    fn host_route() {
        let mut t = PrefixTable::new();
        t.insert(p("2001:db8::5/128"), 42);
        assert_eq!(t.lookup(a("2001:db8::5")).unwrap().asn, 42);
        assert!(t.lookup(a("2001:db8::6")).is_none());
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
    fn group_by_asn() {
        let t = table();
        let grouped = t.group_by_asn([a("2001:db8::1"), a("2001:db8:f::1"), a("fe80::1")]);
        assert_eq!(grouped[&64496].len(), 1);
        assert_eq!(grouped[&64497].len(), 1);
        assert_eq!(grouped.len(), 2);
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
