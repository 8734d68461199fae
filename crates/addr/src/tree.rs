//! [`NybbleTree`]: the 16-ary seed trie of §5.5 of the paper.
//!
//! 6Gen stores all seeds in a *nybble tree* — "a 16-ary tree where each
//! level in the tree represents a nybble position and branching corresponds
//! to that position's nybble value. This allows us to quickly iterate over
//! the seeds that fall within a given range instead of iterating over all
//! seeds," and lets a cluster's seed set be reconstructed from its range so
//! that only the range and seed-set size need be stored.
//!
//! Beyond the paper's queries, the tree also supports a branch-and-bound
//! *nearest-seed* search ([`NybbleTree::nearest_outside`]) used to find the
//! candidate seeds minimally distant from a cluster range without scanning
//! the full seed list.

use crate::address::NybbleAddr;
use crate::nybble::NYBBLE_COUNT;
use crate::range::Range;
use std::collections::HashMap;

/// Index of a node in the arena. `u32` keeps nodes compact; 4 G nodes is
/// far beyond any realistic seed corpus.
type NodeId = u32;

/// Children beyond this count spill from the node into a heap vector.
const INLINE_CHILDREN: usize = 3;

/// Child list storage: inline for up to [`INLINE_CHILDREN`] entries,
/// heap-spilled beyond that.
///
/// The overwhelming majority of trie nodes are chain links with a single
/// child (long shared prefixes, sparse low nybbles). Storing those inline
/// turns a downward walk into a scan of the contiguous node arena —
/// sorted insertion lays nodes out in preorder, so a chain's successor is
/// usually the next arena element — instead of a dependent pointer chase
/// through one heap block per node. On large corpora that halves the
/// walk's working set and removes one cache miss per visited node, which
/// is what the branch-and-bound growth search is bound by.
#[derive(Debug, Clone)]
enum Children {
    /// `(nybble value, child id)`, sorted by value.
    Inline {
        /// Entries in use.
        len: u8,
        /// Backing storage; `entries[..len]` is the live prefix.
        entries: [(u8, NodeId); INLINE_CHILDREN],
    },
    /// `(nybble value, child id)`, sorted by value. At most 16 entries.
    Spilled(Vec<(u8, NodeId)>),
    /// Burst-trie leaf bin; see [`BinLeaf`]. Produced only by
    /// [`NybbleTree::compress_bins`], which collapses sparse subtrees into
    /// flat lists so that queries scan a handful of contiguous words with
    /// direct nybble arithmetic instead of chasing dozens of interior
    /// nodes. A binned node's former descendants remain in the arena as
    /// unreachable orphans. Bins are immutable: `insert`/`remove` must not
    /// run on a compressed tree. Boxed to keep the hot arena nodes slim.
    Bin(Box<BinLeaf>),
}

/// A collapsed sparse subtree: the full address bits of its members plus
/// precomputed agreement masks that let queries reject or score the whole
/// bin with a few word ops.
#[derive(Debug, Clone)]
struct BinLeaf {
    /// `0xF` at every position where members differ; `0` where they all
    /// agree.
    vary: u128,
    /// The members' shared nybble values at the non-varying positions
    /// (zero at varying ones). Any mismatch between `common` and a query
    /// at a non-varying position is shared by *every* member, so
    /// `common`-level mismatches lower-bound each member's distance —
    /// often proving the whole bin prunable without touching `entries`.
    common: u128,
    /// Full address bits of every member, ascending.
    entries: Vec<u128>,
}

impl Default for Children {
    fn default() -> Children {
        Children::Inline {
            len: 0,
            entries: [(0, 0); INLINE_CHILDREN],
        }
    }
}

#[derive(Debug, Clone, Default)]
struct Node {
    /// Path-compressed run of nybbles consumed on entry to this node,
    /// *left-aligned*: the `k`-th prefix nybble lives at bit shift
    /// `124 - 4k`. A node entered at position `d` (via its parent's child
    /// key at `d - 1`) covers positions `d .. d + prefix_len`, and its
    /// children branch at `d + prefix_len`. Single-child chains —
    /// long shared prefixes and sparse leaf tails, the bulk of a
    /// 32-level nybble trie — collapse into one node, so a downward walk
    /// costs one arena visit per *branching* level instead of one per
    /// nybble. That cuts both the hop count and the resident size of the
    /// branch-and-bound growth search by several times on large corpora.
    prefix: u128,
    /// Number of nybbles of `prefix` in use (`≤ 31`; bits past it are
    /// stale and must not be read).
    prefix_len: u8,
    children: Children,
    /// Number of addresses stored in this subtree.
    count: u32,
}

/// Reads the `k`-th nybble of a left-aligned prefix.
#[inline]
fn prefix_nybble(prefix: u128, k: usize) -> u8 {
    ((prefix >> (124 - 4 * k)) & 0xF) as u8
}

/// `addr` shifted so that its nybble at `position` becomes a left-aligned
/// prefix's nybble 0. Position 32 (an empty tail) yields an empty prefix.
#[inline]
fn tail_prefix(bits: u128, position: usize) -> u128 {
    if position >= NYBBLE_COUNT {
        0
    } else {
        bits << (4 * position)
    }
}

/// `true` if all `plen` prefix nybbles equal `addr`'s nybbles starting at
/// `position` — one XOR/shift word compare instead of a nybble loop.
/// (`plen ≥ 1` implies `position ≤ 31`, so the shifts stay in range.)
#[inline]
fn prefix_matches(prefix: u128, plen: usize, bits: u128, position: usize) -> bool {
    plen == 0 || ((prefix ^ (bits << (4 * position))) >> (128 - 4 * plen)) == 0
}

/// A node's prefix re-aligned to absolute address positions: nybble `k`
/// of a prefix entered at `depth` lands at address position `depth + k`.
/// Stale bits past `plen` are masked off.
#[inline]
fn aligned_prefix(prefix: u128, plen: usize, depth: usize) -> u128 {
    if plen == 0 {
        0
    } else {
        (prefix & (!0u128 << (128 - 4 * plen))) >> (4 * depth)
    }
}

/// Reads the nybble of full address bits at address `position`
/// (position 0 is the most significant nybble).
#[inline]
fn bits_nybble(bits: u128, position: usize) -> u8 {
    ((bits >> (4 * (NYBBLE_COUNT - 1 - position))) & 0xF) as u8
}

/// Packed mask covering address positions `from..to` (nybble 0xF at each
/// covered position, most significant nybble is position 0).
#[inline]
fn region_mask(from: usize, to: usize) -> u128 {
    let hi = if from >= NYBBLE_COUNT { 0 } else { !0u128 >> (4 * from) };
    let lo = if to >= NYBBLE_COUNT { 0 } else { !0u128 >> (4 * to) };
    hi & !lo
}

/// Number of nonzero nybbles in `x` — with `x = (bits ^ fixed_values) &
/// fixed_mask`, the mismatch count over a range's fixed positions in a
/// handful of word ops instead of a 32-step loop.
#[inline]
fn nonzero_nybbles(x: u128) -> u32 {
    let y = x | (x >> 1);
    let y = y | (y >> 2);
    (y & 0x1111_1111_1111_1111_1111_1111_1111_1111u128).count_ones()
}

/// Widens every nonzero nybble of `x` to `0xF`.
#[inline]
fn smear_nybbles(x: u128) -> u128 {
    let y = x | (x >> 1);
    let y = y | (y >> 2);
    (y & 0x1111_1111_1111_1111_1111_1111_1111_1111u128) * 0xF
}

/// Orders two addresses the way the trie's branch-and-bound traversal
/// visits them against `range`: position by position, *matching* nybbles
/// before mismatching ones, values ascending within each class. Bin
/// members fed to the candidate state machines in this order reproduce
/// the DFS visit order of the subtree the bin replaced — which is what
/// keeps group first-visit order byte-identical under compression.
///
/// Only the first differing nybble decides (equal values imply equal
/// match bits), so one XOR locates it.
#[inline]
fn dfs_order(a: u128, b: u128, range: &Range) -> core::cmp::Ordering {
    let x = a ^ b;
    if x == 0 {
        return core::cmp::Ordering::Equal;
    }
    let p = (x.leading_zeros() / 4) as usize;
    let va = bits_nybble(a, p);
    let vb = bits_nybble(b, p);
    let set = range.set(p);
    (!set.contains(va), va).cmp(&(!set.contains(vb), vb))
}

impl Node {
    #[inline]
    fn children(&self) -> &[(u8, NodeId)] {
        match &self.children {
            Children::Inline { len, entries } => &entries[..*len as usize],
            Children::Spilled(v) => v,
            Children::Bin(_) => &[],
        }
    }

    /// The leaf bin, if this node was collapsed by
    /// [`NybbleTree::compress_bins`].
    #[inline]
    fn bin(&self) -> Option<&BinLeaf> {
        match &self.children {
            Children::Bin(b) => Some(b),
            _ => None,
        }
    }

    /// Inserts `entry` at sorted position `pos`, spilling to the heap when
    /// the inline capacity is exceeded.
    fn insert_child(&mut self, pos: usize, entry: (u8, NodeId)) {
        match &mut self.children {
            Children::Inline { len, entries } => {
                let n = *len as usize;
                if n < INLINE_CHILDREN {
                    entries.copy_within(pos..n, pos + 1);
                    entries[pos] = entry;
                    *len += 1;
                } else {
                    let mut spilled: Vec<(u8, NodeId)> = Vec::with_capacity(n + 1);
                    spilled.extend_from_slice(&entries[..n]);
                    spilled.insert(pos, entry);
                    self.children = Children::Spilled(spilled);
                }
            }
            Children::Spilled(v) => v.insert(pos, entry),
            Children::Bin(_) => unreachable!("insert on a compress_bins-compressed tree"),
        }
    }
}

/// A deduplicated group of candidate seeds sharing one growth key, from
/// [`NybbleTree::growth_candidates`]. All candidates in a group induce the
/// same expanded range when clustered into the queried range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateGroup {
    /// The shared mismatch signature against the queried range
    /// ([`Range::mismatch_signature`] bit convention: bit `k` is the nybble
    /// at bit-shift `4*k`).
    pub signature: u32,
    /// The candidates' packed nybble values at the signature positions
    /// (zero elsewhere). Always `0` when the query grouped by signature
    /// alone (loose clustering, where mismatch values do not shape the
    /// expanded range).
    pub values: u128,
    /// Number of stored addresses carrying this key.
    pub count: u64,
}

/// Result of [`NybbleTree::growth_candidates`]: everything one cluster
/// growth evaluation needs, from a single tree walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrowthCandidates {
    /// Minimum nybble Hamming distance from the range to a stored address
    /// outside it (`≥ 1`).
    pub distance: u32,
    /// Number of stored addresses *inside* the queried range (signature
    /// `0`), counted in the same walk. Because all candidates sit at
    /// minimum distance, a group's expanded range holds exactly
    /// `members + group.count` stored addresses.
    pub members: u64,
    /// The distinct candidate groups at `distance`, in first-visit order
    /// of the traversal (the order [`NybbleTree::nearest_outside`] yields
    /// candidates).
    pub groups: Vec<CandidateGroup>,
}

/// Mutable traversal state for [`NybbleTree::growth_candidates`].
#[derive(Debug)]
struct GrowthSearch {
    group_by_values: bool,
    /// One past the deepest non-full-wildcard position of the queried
    /// range: below it signatures are final and whole subtrees finalize
    /// from their cached counts.
    last: usize,
    best: u32,
    members: u64,
    groups: Vec<CandidateGroup>,
    /// Growth key → index into `groups`, for O(1) merge without disturbing
    /// first-visit order.
    index: HashMap<(u32, u128), usize, std::hash::BuildHasherDefault<GrowthKeyHasher>>,
}

impl GrowthSearch {
    /// Feeds one candidate event — `count` addresses sharing a final
    /// growth key at `mismatches` — through the best-distance state
    /// machine: a new minimum resets the groups, a tie merges by key
    /// preserving first-visit order, a worse distance is ignored.
    fn record(&mut self, sig: u32, values: u128, mismatches: u32, count: u64) {
        let key = (sig, if self.group_by_values { values } else { 0 });
        match mismatches.cmp(&self.best) {
            core::cmp::Ordering::Less => {
                self.best = mismatches;
                self.groups.clear();
                self.index.clear();
                self.index.insert(key, 0);
                self.groups.push(CandidateGroup {
                    signature: key.0,
                    values: key.1,
                    count,
                });
            }
            core::cmp::Ordering::Equal => match self.index.entry(key) {
                std::collections::hash_map::Entry::Occupied(slot) => {
                    self.groups[*slot.get()].count += count;
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(self.groups.len());
                    self.groups.push(CandidateGroup {
                        signature: key.0,
                        values: key.1,
                        count,
                    });
                }
            },
            core::cmp::Ordering::Greater => {}
        }
    }
}

/// Minimal multiply-rotate hasher for the growth-key map. The keys are
/// short integers hashed once per finalized subtree in the hot traversal;
/// the default SipHash costs more than the rest of the finalization
/// combined. Not DoS-resistant — fine for a bounded, non-adversarial map
/// that lives for one query.
#[derive(Default)]
struct GrowthKeyHasher(u64);

impl GrowthKeyHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl std::hash::Hasher for GrowthKeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }
}

/// A set of IPv6 addresses stored as a 16-ary trie over nybbles.
///
/// Supports insertion, membership, exact counting and iteration of the
/// addresses inside an arbitrary [`Range`], and nearest-neighbour search by
/// nybble Hamming distance.
///
/// ```
/// use sixgen_addr::{NybbleTree, Range};
///
/// let mut tree = NybbleTree::new();
/// tree.insert("2001:db8::1".parse().unwrap());
/// tree.insert("2001:db8::7".parse().unwrap());
/// tree.insert("2001:db9::1".parse().unwrap());
/// let range: Range = "2001:db8::?".parse().unwrap();
/// assert_eq!(tree.count_in_range(&range), 2);
/// ```
#[derive(Debug, Clone)]
pub struct NybbleTree {
    nodes: Vec<Node>,
}

impl Default for NybbleTree {
    fn default() -> Self {
        Self::new()
    }
}


impl NybbleTree {
    /// Creates an empty tree.
    pub fn new() -> NybbleTree {
        NybbleTree {
            nodes: vec![Node::default()],
        }
    }

    /// Builds a tree from an iterator of addresses (duplicates are stored
    /// once).
    pub fn from_addresses(addresses: impl IntoIterator<Item = NybbleAddr>) -> NybbleTree {
        let mut tree = NybbleTree::new();
        for addr in addresses {
            tree.insert(addr);
        }
        tree
    }

    /// Number of distinct addresses stored.
    pub fn len(&self) -> usize {
        self.nodes[0].count as usize
    }

    /// `true` if the tree stores no address.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of arena nodes (diagnostic; proportional to memory use).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn child(&self, node: NodeId, value: u8) -> Option<NodeId> {
        let children = self.nodes[node as usize].children();
        children
            .binary_search_by_key(&value, |&(v, _)| v)
            .ok()
            .map(|i| children[i].1)
    }

    /// Inserts an address; returns `true` if it was not already present.
    ///
    /// Insertion is the classic radix-tree surgery: descend matching
    /// prefixes; a mismatch mid-prefix *splits* the node (the existing
    /// subtree moves under a new tail node carrying the rest of the old
    /// prefix, the new address becomes a sibling leaf); a missing child at
    /// a branch point adds a leaf whose prefix is the address's whole
    /// remaining tail.
    pub fn insert(&mut self, addr: NybbleAddr) -> bool {
        if self.contains(addr) {
            return false;
        }
        let bits = addr.bits();
        let mut node: NodeId = 0;
        let mut depth = 0usize;
        loop {
            debug_assert!(
                self.nodes[node as usize].bin().is_none(),
                "insert on a compress_bins-compressed tree"
            );
            self.nodes[node as usize].count += 1;
            let plen = self.nodes[node as usize].prefix_len as usize;
            let prefix = self.nodes[node as usize].prefix;
            let mut k = 0;
            while k < plen && prefix_nybble(prefix, k) == addr.nybble(depth + k) {
                k += 1;
            }
            if k < plen {
                // Split at prefix offset `k` (address position `depth + k`):
                // this node keeps prefix[..k] and becomes a two-way branch
                // over the old subtree (under `tail`) and the new leaf.
                let count_before = self.nodes[node as usize].count - 1;
                let tail = Node {
                    prefix: tail_prefix(prefix, k + 1),
                    prefix_len: (plen - k - 1) as u8,
                    children: std::mem::take(&mut self.nodes[node as usize].children),
                    count: count_before,
                };
                let tail_id = self.nodes.len() as NodeId;
                self.nodes.push(tail);
                let leaf = Node {
                    prefix: tail_prefix(bits, depth + k + 1),
                    prefix_len: (NYBBLE_COUNT - depth - k - 1) as u8,
                    children: Children::default(),
                    count: 1,
                };
                let leaf_id = self.nodes.len() as NodeId;
                self.nodes.push(leaf);
                let old_key = prefix_nybble(prefix, k);
                let new_key = addr.nybble(depth + k);
                let (lo, hi) = if old_key < new_key {
                    ((old_key, tail_id), (new_key, leaf_id))
                } else {
                    ((new_key, leaf_id), (old_key, tail_id))
                };
                let n = &mut self.nodes[node as usize];
                n.prefix_len = k as u8; // bits past k go stale, not cleared
                n.children = Children::Inline {
                    len: 2,
                    entries: [lo, hi, (0, 0)],
                };
                return true;
            }
            depth += plen;
            if depth == NYBBLE_COUNT {
                // Full path already present: reviving an address removed
                // earlier (the count increments along the way did it).
                return true;
            }
            let value = addr.nybble(depth);
            match self.child(node, value) {
                Some(c) => {
                    node = c;
                    depth += 1;
                }
                None => {
                    let leaf = Node {
                        prefix: tail_prefix(bits, depth + 1),
                        prefix_len: (NYBBLE_COUNT - depth - 1) as u8,
                        children: Children::default(),
                        count: 1,
                    };
                    let id = self.nodes.len() as NodeId;
                    self.nodes.push(leaf);
                    let pos = self.nodes[node as usize]
                        .children()
                        .partition_point(|&(v, _)| v < value);
                    self.nodes[node as usize].insert_child(pos, (value, id));
                    return true;
                }
            }
        }
    }

    /// Removes an address; returns `true` if it was present.
    ///
    /// Removal only decrements the subtree counts along the address's
    /// path — nodes are never reclaimed. Every query skips zero-count
    /// subtrees, so a removed address is invisible, and re-inserting it
    /// revives the existing path without allocating. This makes removal
    /// O(32) and keeps long-lived mutable trees (e.g. the engine's
    /// min-address subsumption index) free of arena compaction; the
    /// zombie-node memory is bounded by total insertions.
    pub fn remove(&mut self, addr: NybbleAddr) -> bool {
        if !self.contains(addr) {
            return false;
        }
        let mut node: NodeId = 0;
        let mut depth = 0usize;
        loop {
            debug_assert!(
                self.nodes[node as usize].bin().is_none(),
                "remove on a compress_bins-compressed tree"
            );
            self.nodes[node as usize].count -= 1;
            depth += self.nodes[node as usize].prefix_len as usize;
            if depth == NYBBLE_COUNT {
                return true;
            }
            node = self
                .child(node, addr.nybble(depth))
                .expect("contains() verified the path");
            depth += 1;
        }
    }

    /// Membership test.
    pub fn contains(&self, addr: NybbleAddr) -> bool {
        let bits = addr.bits();
        let mut node: NodeId = 0;
        let mut depth = 0usize;
        loop {
            let n = &self.nodes[node as usize];
            if !prefix_matches(n.prefix, n.prefix_len as usize, bits, depth) {
                return false;
            }
            depth += n.prefix_len as usize;
            if depth == NYBBLE_COUNT {
                // A structurally present path may be a zombie left by
                // `remove`.
                return n.count > 0;
            }
            if let Some(bin) = n.bin() {
                return bin.entries.binary_search(&bits).is_ok();
            }
            match self.child(node, addr.nybble(depth)) {
                Some(c) => {
                    node = c;
                    depth += 1;
                }
                None => return false,
            }
        }
    }

    /// Collapses every sparse subtree — at least 2 and at most `max_bin`
    /// stored addresses, with branching below it — into a flat
    /// `Children::Bin` of full address bits, ascending.
    ///
    /// Sparse regions (isolated addresses differing in a few scattered
    /// nybbles) dominate the node count of a 16-ary trie, and the
    /// branch-and-bound growth search must *enumerate* them whenever a
    /// query range sits within its current distance bound — on large
    /// corpora that interior walk is the whole cost. A bin replaces dozens
    /// of dependent node hops with a linear scan of a few contiguous
    /// words scored by direct nybble arithmetic.
    ///
    /// Compression is a post-build step for trees that are no longer
    /// mutated (the engine's seed tree): `insert` and `remove` must not be
    /// called afterwards (debug-asserted). Binned subtrees' former
    /// interior nodes stay in the arena as unreachable orphans, so node
    /// ids — and external count arrays from [`subtree_counts`] — remain
    /// valid. Every query returns results byte-identical to the
    /// uncompressed tree, including candidate-group and nearest-seed
    /// *order* (bin survivors are replayed in the traversal's visit
    /// order — see `dfs_order`).
    ///
    /// [`subtree_counts`]: NybbleTree::subtree_counts
    pub fn compress_bins(&mut self, max_bin: usize) {
        self.compress_rec(0, 0, 0, max_bin);
    }

    fn compress_rec(&mut self, node: NodeId, depth: usize, acc: u128, max_bin: usize) {
        let n = &self.nodes[node as usize];
        if n.count == 0 || n.children().is_empty() {
            // Dead subtree, fully-compressed leaf, or an existing bin:
            // nothing to collapse.
            return;
        }
        let count = n.count as usize;
        if count >= 2 && count <= max_bin {
            let mut bits = Vec::with_capacity(count);
            self.collect_bits(node, depth, acc, &mut bits);
            debug_assert_eq!(bits.len(), count, "bins hold exactly the live addresses");
            debug_assert!(bits.windows(2).all(|w| w[0] < w[1]), "bins are ascending");
            let or_all = bits.iter().fold(0u128, |a, &b| a | b);
            let and_all = bits.iter().fold(!0u128, |a, &b| a & b);
            let vary = smear_nybbles(or_all ^ and_all);
            self.nodes[node as usize].children = Children::Bin(Box::new(BinLeaf {
                vary,
                common: and_all & !vary,
                entries: bits,
            }));
            return;
        }
        let plen = n.prefix_len as usize;
        let acc = acc | aligned_prefix(n.prefix, plen, depth);
        let d = depth + plen;
        let kids: Vec<(u8, NodeId)> = self.nodes[node as usize].children().to_vec();
        for (value, child) in kids {
            let child_acc = acc | ((value as u128) << (4 * (NYBBLE_COUNT - 1 - d)));
            self.compress_rec(child, d + 1, child_acc, max_bin);
        }
    }

    /// Collects the full address bits of every live address in `node`'s
    /// subtree, ascending. `acc` holds the path bits for positions before
    /// `depth`.
    fn collect_bits(&self, node: NodeId, depth: usize, acc: u128, out: &mut Vec<u128>) {
        let n = &self.nodes[node as usize];
        if n.count == 0 {
            return;
        }
        let plen = n.prefix_len as usize;
        let acc = acc | aligned_prefix(n.prefix, plen, depth);
        let d = depth + plen;
        if d == NYBBLE_COUNT {
            out.push(acc);
            return;
        }
        if let Some(bin) = n.bin() {
            out.extend_from_slice(&bin.entries);
            return;
        }
        for &(value, child) in n.children() {
            let child_acc = acc | ((value as u128) << (4 * (NYBBLE_COUNT - 1 - d)));
            self.collect_bits(child, d + 1, child_acc, out);
        }
    }

    /// Snapshot of every node's subtree count, indexed like the arena
    /// (`counts.len() == node_count()`). Callers that track a shrinking
    /// *subset* of the stored addresses — e.g. the engine's "still a live
    /// singleton cluster" view over the seed tree — start from this
    /// snapshot and walk it down with [`adjust_path_count`], then
    /// enumerate with [`for_each_in_range_pruned`] so dead regions cost
    /// nothing to skip.
    ///
    /// [`adjust_path_count`]: NybbleTree::adjust_path_count
    /// [`for_each_in_range_pruned`]: NybbleTree::for_each_in_range_pruned
    pub fn subtree_counts(&self) -> Vec<u32> {
        self.nodes.iter().map(|n| n.count).collect()
    }

    /// Applies `delta` to the external per-node counter along `addr`'s
    /// path (root included). Returns `false` — touching nothing — if the
    /// address is not stored.
    ///
    /// On a [`compress_bins`]-compressed tree the path ends at the bin
    /// node: external counts track bins at whole-bin granularity, and
    /// callers of [`for_each_in_range_pruned`] filter individual bin
    /// members themselves.
    ///
    /// [`compress_bins`]: NybbleTree::compress_bins
    /// [`for_each_in_range_pruned`]: NybbleTree::for_each_in_range_pruned
    pub fn adjust_path_count(&self, addr: NybbleAddr, counts: &mut [u32], delta: i32) -> bool {
        if !self.contains(addr) {
            return false;
        }
        debug_assert_eq!(counts.len(), self.nodes.len());
        let mut node: NodeId = 0;
        let mut depth = 0usize;
        loop {
            counts[node as usize] = counts[node as usize].wrapping_add_signed(delta);
            depth += self.nodes[node as usize].prefix_len as usize;
            if depth == NYBBLE_COUNT {
                return true;
            }
            if self.nodes[node as usize].bin().is_some() {
                return true;
            }
            node = self
                .child(node, addr.nybble(depth))
                .expect("contains() verified the path");
            depth += 1;
        }
    }

    /// Counts the stored addresses that lie within `range`, without
    /// enumerating them. Subtrees below the range's last constrained
    /// position are counted in O(1) from cached subtree sizes.
    pub fn count_in_range(&self, range: &Range) -> u64 {
        // Deepest position that is not a full wildcard; below it every
        // stored address matches and node counts can be used directly.
        let last_constrained = (0..NYBBLE_COUNT)
            .rev()
            .find(|&i| !range.set(i).is_full())
            .map(|i| i + 1)
            .unwrap_or(0);
        self.count_rec(0, 0, range, last_constrained)
    }

    fn count_rec(&self, node: NodeId, depth: usize, range: &Range, last: usize) -> u64 {
        let n = &self.nodes[node as usize];
        // Consume the compressed prefix: every nybble must match its
        // position's set. Positions at or past `last` are full wildcards
        // and need no check.
        let plen = n.prefix_len as usize;
        for k in 0..plen {
            let d = depth + k;
            if d >= last {
                break;
            }
            if !range.set(d).contains(prefix_nybble(n.prefix, k)) {
                return 0;
            }
        }
        let d = depth + plen;
        if d >= last {
            return n.count as u64;
        }
        if let Some(bin) = n.bin() {
            // A fixed-position mismatch at a non-varying position is
            // shared by every member: the whole bin misses the range.
            if (bin.common ^ range.fixed_values()) & range.fixed_mask() & !bin.vary != 0 {
                return 0;
            }
            // Positions before `d` are guaranteed by the path and those at
            // or past `last` are wildcards, so the full membership test is
            // equivalent — and word-parallel over fixed positions.
            return bin
                .entries
                .iter()
                .filter(|&&b| range.contains(NybbleAddr::from_bits(b)))
                .count() as u64;
        }
        let set = range.set(d);
        let mut total = 0u64;
        for &(value, child) in n.children() {
            if set.contains(value) {
                total += self.count_rec(child, d + 1, range, last);
            }
        }
        total
    }

    /// Calls `f` for every stored address inside `range`, in increasing
    /// address order.
    pub fn for_each_in_range(&self, range: &Range, mut f: impl FnMut(NybbleAddr)) {
        let mut path = NybbleAddr::UNSPECIFIED;
        self.visit_rec(0, 0, range, &mut path, &mut f);
    }

    /// Like [`for_each_in_range`], but additionally prunes every subtree
    /// whose entry in the caller-maintained `counts` array (see
    /// [`subtree_counts`] / [`adjust_path_count`]) is zero — enumerating
    /// only the *live* stored addresses inside `range`, in increasing
    /// order, at a cost proportional to the live matches rather than to
    /// everything the range covers.
    ///
    /// [`for_each_in_range`]: NybbleTree::for_each_in_range
    /// [`subtree_counts`]: NybbleTree::subtree_counts
    /// [`adjust_path_count`]: NybbleTree::adjust_path_count
    pub fn for_each_in_range_pruned(
        &self,
        range: &Range,
        counts: &[u32],
        mut f: impl FnMut(NybbleAddr),
    ) {
        debug_assert_eq!(counts.len(), self.nodes.len());
        let mut path = NybbleAddr::UNSPECIFIED;
        self.visit_pruned_rec(0, 0, range, counts, &mut path, &mut f);
    }

    fn visit_pruned_rec(
        &self,
        node: NodeId,
        depth: usize,
        range: &Range,
        counts: &[u32],
        path: &mut NybbleAddr,
        f: &mut impl FnMut(NybbleAddr),
    ) {
        if counts[node as usize] == 0 {
            return;
        }
        let n = &self.nodes[node as usize];
        let plen = n.prefix_len as usize;
        for k in 0..plen {
            let v = prefix_nybble(n.prefix, k);
            if !range.set(depth + k).contains(v) {
                return;
            }
            *path = path.with_nybble(depth + k, v);
        }
        let d = depth + plen;
        if d == NYBBLE_COUNT {
            f(*path);
            return;
        }
        if let Some(bin) = n.bin() {
            // A fixed-position mismatch at a non-varying position rules
            // out every member at once. Otherwise: bin members are stored
            // ascending, and range enumeration's
            // matching-children-ascending order is plain address order
            // among full matches. Positions before `d` are guaranteed by
            // the path, so the full membership test is equivalent.
            if (bin.common ^ range.fixed_values()) & range.fixed_mask() & !bin.vary != 0 {
                return;
            }
            for &b in &bin.entries {
                let addr = NybbleAddr::from_bits(b);
                if range.contains(addr) {
                    f(addr);
                }
            }
            return;
        }
        let set = range.set(d);
        for &(value, child) in n.children() {
            if set.contains(value) {
                *path = path.with_nybble(d, value);
                self.visit_pruned_rec(child, d + 1, range, counts, path, f);
            }
        }
    }

    /// Collects the stored addresses inside `range`.
    pub fn collect_in_range(&self, range: &Range) -> Vec<NybbleAddr> {
        let mut out = Vec::new();
        self.for_each_in_range(range, |a| out.push(a));
        out
    }

    fn visit_rec(
        &self,
        node: NodeId,
        depth: usize,
        range: &Range,
        path: &mut NybbleAddr,
        f: &mut impl FnMut(NybbleAddr),
    ) {
        let n = &self.nodes[node as usize];
        if n.count == 0 {
            return;
        }
        // Every path position is rewritten before descent, so no reset of
        // `path` is needed when backtracking.
        let plen = n.prefix_len as usize;
        for k in 0..plen {
            let v = prefix_nybble(n.prefix, k);
            if !range.set(depth + k).contains(v) {
                return;
            }
            *path = path.with_nybble(depth + k, v);
        }
        let d = depth + plen;
        if d == NYBBLE_COUNT {
            f(*path);
            return;
        }
        if let Some(bin) = n.bin() {
            // A fixed-position mismatch at a non-varying position rules
            // out every member at once. Otherwise: bin members are stored
            // ascending, and range enumeration's
            // matching-children-ascending order is plain address order
            // among full matches. Positions before `d` are guaranteed by
            // the path, so the full membership test is equivalent.
            if (bin.common ^ range.fixed_values()) & range.fixed_mask() & !bin.vary != 0 {
                return;
            }
            for &b in &bin.entries {
                let addr = NybbleAddr::from_bits(b);
                if range.contains(addr) {
                    f(addr);
                }
            }
            return;
        }
        let set = range.set(d);
        for &(value, child) in n.children() {
            if set.contains(value) {
                *path = path.with_nybble(d, value);
                self.visit_rec(child, d + 1, range, path, f);
            }
        }
    }

    /// Iterates every stored address in increasing order.
    pub fn addresses(&self) -> Vec<NybbleAddr> {
        self.collect_in_range(&Range::full())
    }

    /// Finds the stored addresses *outside* `range` that are minimally
    /// distant from it (nybble Hamming distance, §5.2), i.e. the paper's
    /// `FindCandidateSeeds`. Returns `(min_distance, seeds)` with
    /// `min_distance ≥ 1`, or `None` if every stored address lies inside the
    /// range.
    ///
    /// Branch-and-bound: a subtree is pruned as soon as its accumulated
    /// mismatch count exceeds the best distance found so far.
    pub fn nearest_outside(&self, range: &Range) -> Option<(u32, Vec<NybbleAddr>)> {
        let mut best = (NYBBLE_COUNT + 1) as u32;
        let mut out = Vec::new();
        let mut path = NybbleAddr::UNSPECIFIED;
        self.nearest_rec(0, 0, 0, range, &mut path, &mut best, &mut out);
        (!out.is_empty()).then_some((best, out))
    }

    /// Fused candidate search and density counting (§5.5): one
    /// branch-and-bound walk that finds the minimum distance from `range`
    /// to any stored address outside it, **deduplicates** those candidate
    /// addresses by growth key, and counts — in the same walk, from cached
    /// subtree sizes — both the addresses inside `range` and the addresses
    /// behind each key.
    ///
    /// The growth key is the candidate's mismatch *signature* (the set of
    /// positions at which it deviates from the range, as a
    /// [`Range::mismatch_signature`] bitmask), optionally extended by the
    /// candidate's nybble values at those positions (`group_by_values`,
    /// for tight clustering where inserted values shape the grown range).
    /// Every candidate with the same key induces the same expanded range,
    /// so one [`CandidateGroup`] per key replaces the per-candidate address
    /// vector of [`NybbleTree::nearest_outside`] — and because candidates
    /// sit at *minimum* distance, an address lies inside a group's expanded
    /// range iff it is a member of `range` (signature `0`) or carries
    /// exactly the group's key. Each group's expanded-range seed count is
    /// therefore `members + group.count`, with no per-range re-walk.
    ///
    /// Groups are returned in first-visit order of a fixed traversal
    /// (matching children before mismatching ones, values ascending), which
    /// is exactly the candidate order [`NybbleTree::nearest_outside`]
    /// produces — callers that iterate groups in order evaluate ranges in
    /// the same sequence as the unfused search-then-count implementation.
    ///
    /// Returns `None` if every stored address lies inside the range.
    pub fn growth_candidates(
        &self,
        range: &Range,
        group_by_values: bool,
    ) -> Option<GrowthCandidates> {
        self.growth_candidates_bounded(range, group_by_values, (NYBBLE_COUNT + 1) as u32)
    }

    /// [`growth_candidates`] seeded with a known *achievable* upper bound on
    /// the minimum distance — the distance from `range` to some stored
    /// address outside it, typically obtained from the sorted seed list's
    /// numeric neighbours of the range's `[min_address, max_address]`
    /// interval.
    ///
    /// The bound is pruning-only: branch-and-bound discards a subtree once
    /// its path mismatch count exceeds the best distance seen, and any
    /// subtree discarded against an achievable bound `b ≥ min distance`
    /// contains no minimum-distance candidate. The surviving candidates,
    /// their first-visit order, the member count, and the returned distance
    /// are therefore *identical* for every valid bound — only the number of
    /// visited nodes changes. Passing a bound below the true minimum
    /// distance (not achievable) would lose candidates; callers must derive
    /// it from a real stored outside address.
    ///
    /// [`growth_candidates`]: NybbleTree::growth_candidates
    pub fn growth_candidates_bounded(
        &self,
        range: &Range,
        group_by_values: bool,
        distance_bound: u32,
    ) -> Option<GrowthCandidates> {
        // Below the deepest constrained position every set is a full
        // wildcard: no further mismatch is possible, the signature is
        // final, and the whole subtree contributes its cached count.
        let last = (0..NYBBLE_COUNT)
            .rev()
            .find(|&i| !range.set(i).is_full())
            .map(|i| i + 1)
            .unwrap_or(0);
        let mut state = GrowthSearch {
            group_by_values,
            last,
            best: distance_bound.min((NYBBLE_COUNT + 1) as u32),
            members: 0,
            groups: Vec::new(),
            index: HashMap::default(),
        };
        self.growth_rec(0, 0, 0, 0, range, &mut state);
        (!state.groups.is_empty()).then_some(GrowthCandidates {
            distance: state.best,
            members: state.members,
            groups: state.groups,
        })
    }

    fn growth_rec(
        &self,
        node: NodeId,
        depth: usize,
        sig: u32,
        values: u128,
        range: &Range,
        state: &mut GrowthSearch,
    ) {
        let n = &self.nodes[node as usize];
        let mut mismatches = sig.count_ones();
        if mismatches > state.best || n.count == 0 {
            return;
        }
        // Consume the compressed prefix, accumulating mismatches exactly as
        // the per-level descent would: a chain has no branching choice, so
        // traversal order — and thus group first-visit order — is
        // unchanged. Positions at or past `last` are full wildcards.
        let mut sig = sig;
        let mut values = values;
        let plen = n.prefix_len as usize;
        let prefix_end = (depth + plen).min(state.last);
        if plen > 0
            && mismatches == state.best
            && range
                .partial_positions()
                .iter()
                .all(|&p| (p as usize) < depth || (p as usize) >= prefix_end)
        {
            // At-bound fast path: one more mismatch anywhere in the
            // prefix overruns the distance budget, so the prefix either
            // matches the range's fixed values exactly over the covered
            // constrained window (no partial positions in it — checked
            // above) or the whole subtree is pruned. One masked compare
            // replaces the per-nybble walk; `sig`/`values` are unchanged
            // on the match path, exactly as the loop would leave them.
            let window = region_mask(depth, prefix_end) & range.fixed_mask();
            let aligned = aligned_prefix(n.prefix, plen, depth);
            if (aligned ^ range.fixed_values()) & window != 0 {
                return;
            }
        } else {
            for k in 0..plen {
                let d = depth + k;
                if d >= state.last {
                    break;
                }
                let v = prefix_nybble(n.prefix, k);
                if !range.set(d).contains(v) {
                    sig |= 1u32 << (NYBBLE_COUNT - 1 - d);
                    values |= (v as u128) << ((NYBBLE_COUNT - 1 - d) * 4);
                    mismatches += 1;
                    if mismatches > state.best {
                        return;
                    }
                }
            }
        }
        let depth = depth + plen;
        if depth >= state.last {
            if mismatches == 0 {
                state.members += n.count as u64;
            } else {
                state.record(sig, values, mismatches, n.count as u64);
            }
            return;
        }
        if let Some(bin) = n.bin() {
            // Leaf bin: score every member over the remaining constrained
            // positions — a word-parallel mismatch count over the range's
            // fixed positions plus a short loop over its partial ones.
            // Members (no mismatch anywhere) tally into `members`;
            // candidates at most the entry bound get their signature
            // extracted (rare, slow path) and replay through the same
            // `record` state machine, in [`dfs_order`] — the visit order
            // of the subtree this bin replaced — so groups, counts, and
            // first-visit order are identical to the uncompressed walk.
            // (Entries dropped by the entry-bound filter would be
            // `Greater`-skips: `best` only tightens during the replay.)
            let region = region_mask(depth, state.last);
            let fixed = range.fixed_mask() & region;
            let goal = range.fixed_values() & region;
            // Mismatches at non-varying positions are shared by every
            // member, so they lower-bound each member's distance: prune
            // the whole bin in O(1) when they already exceed the bound.
            // (Positions before `depth` are excluded by `region` —
            // they're accounted for in the inherited `mismatches`.)
            if mismatches + nonzero_nybbles((bin.common ^ goal) & fixed & !bin.vary) > state.best
            {
                return;
            }
            let partials = range.partial_positions();
            let lo = partials.partition_point(|&p| (p as usize) < depth);
            let hi = partials.partition_point(|&p| (p as usize) < state.last);
            let partials = &partials[lo..hi];
            let mut survivors: Vec<(u128, u32, u128, u32)> = Vec::new();
            if mismatches == state.best && partials.is_empty() && fixed == region {
                // At-bound, hole-free window: survivors must equal `goal`
                // on *every* position of `[depth, last)`. Entries are
                // sorted and share all bits above `depth` (the bin sits at
                // the end of one root path), so the window is the primary
                // sort key and the matching entries form one contiguous
                // run — two binary searches replace the linear scan. The
                // run is exactly the set the masked scan below would keep,
                // so groups, counts, and order are unchanged.
                let above_window = !region_mask(state.last, NYBBLE_COUNT);
                let key = (bin.entries[0] & region_mask(0, depth)) | goal;
                let lo = bin.entries.partition_point(|&b| b & above_window < key);
                let hi = bin.entries.partition_point(|&b| b & above_window <= key);
                // Window positions are all fixed, so a matching entry adds
                // no mismatch: signature and values pass through as-is.
                for &b in &bin.entries[lo..hi] {
                    survivors.push((b, sig, values, mismatches));
                }
            } else if mismatches == state.best && partials.is_empty() {
                // At-bound fast path: the inherited path mismatches
                // already consume the whole distance budget, so an entry
                // survives only with *zero* further mismatches — an exact
                // match on every remaining fixed position. (Membership is
                // impossible: `m == 0` needs `mismatches == 0`, and the
                // bound is at least 1.) The filter collapses to one
                // masked compare per entry, which matters because
                // branch-and-bound funnels most scanned entries through
                // exactly this case: every deferred (one-more-mismatch)
                // descent taken at the bound lands here. Survivors are
                // identical to the general scan below — `m` would come
                // out `mismatches + 0` — so groups, counts, and order are
                // unchanged.
                for &b in &bin.entries {
                    if (b ^ goal) & fixed == 0 {
                        let mut bsig = sig;
                        let mut bvalues = values;
                        for p in depth..state.last {
                            let v = bits_nybble(b, p);
                            if !range.set(p).contains(v) {
                                bsig |= 1u32 << (NYBBLE_COUNT - 1 - p);
                                bvalues |= (v as u128) << ((NYBBLE_COUNT - 1 - p) * 4);
                            }
                        }
                        survivors.push((b, bsig, bvalues, mismatches));
                    }
                }
            } else {
                for &b in &bin.entries {
                    let mut m = mismatches + nonzero_nybbles((b ^ goal) & fixed);
                    // Skipping the partial scan when `m` already exceeds
                    // the bound can only undercount an entry that is
                    // filtered either way (and `m > 0` rules out
                    // membership).
                    if m <= state.best {
                        for &p in partials {
                            if !range.set(p as usize).contains(bits_nybble(b, p as usize)) {
                                m += 1;
                            }
                        }
                    }
                    if m == 0 {
                        state.members += 1;
                    } else if m <= state.best {
                        let mut bsig = sig;
                        let mut bvalues = values;
                        for p in depth..state.last {
                            let v = bits_nybble(b, p);
                            if !range.set(p).contains(v) {
                                bsig |= 1u32 << (NYBBLE_COUNT - 1 - p);
                                bvalues |= (v as u128) << ((NYBBLE_COUNT - 1 - p) * 4);
                            }
                        }
                        survivors.push((b, bsig, bvalues, m));
                    }
                }
            }
            survivors.sort_unstable_by(|x, y| dfs_order(x.0, y.0, range));
            for &(_, bsig, bvalues, m) in &survivors {
                state.record(bsig, bvalues, m, 1);
            }
            return;
        }
        let set = range.set(depth);
        let bit = 1u32 << (NYBBLE_COUNT - 1 - depth);
        let shift = (NYBBLE_COUNT - 1 - depth) * 4;
        // Matching children first so the distance bound tightens early —
        // and so group order matches `nearest_outside`'s candidate order.
        // One pass over the child list: matching children recurse
        // immediately, mismatching ones are deferred to a fixed stack
        // buffer (at most 16 children) and visited afterwards in the same
        // ascending-value order the two-pass formulation produced.
        let mut deferred = [(0u8, 0 as NodeId); 16];
        let mut deferred_len = 0;
        for &(value, child) in n.children() {
            if set.contains(value) {
                self.growth_rec(child, depth + 1, sig, values, range, state);
            } else {
                deferred[deferred_len] = (value, child);
                deferred_len += 1;
            }
        }
        for &(value, child) in &deferred[..deferred_len] {
            // `best` only tightens, so once a one-more-mismatch descent is
            // hopeless every remaining deferred child is too.
            if mismatches + 1 > state.best {
                break;
            }
            self.growth_rec(
                child,
                depth + 1,
                sig | bit,
                values | (value as u128) << shift,
                range,
                state,
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn nearest_rec(
        &self,
        node: NodeId,
        depth: usize,
        mismatches: u32,
        range: &Range,
        path: &mut NybbleAddr,
        best: &mut u32,
        out: &mut Vec<NybbleAddr>,
    ) {
        let n = &self.nodes[node as usize];
        if mismatches > *best || n.count == 0 {
            return;
        }
        // Consume the compressed prefix (forced path: no ordering choice),
        // accumulating mismatches and writing path nybbles.
        let mut mismatches = mismatches;
        let plen = n.prefix_len as usize;
        for k in 0..plen {
            let v = prefix_nybble(n.prefix, k);
            if !range.set(depth + k).contains(v) {
                mismatches += 1;
                if mismatches > *best {
                    return;
                }
            }
            *path = path.with_nybble(depth + k, v);
        }
        let depth = depth + plen;
        if depth == NYBBLE_COUNT {
            if mismatches == 0 {
                // Inside the range: not a candidate.
                return;
            }
            match mismatches.cmp(best) {
                core::cmp::Ordering::Less => {
                    *best = mismatches;
                    out.clear();
                    out.push(*path);
                }
                core::cmp::Ordering::Equal => out.push(*path),
                core::cmp::Ordering::Greater => {}
            }
            return;
        }
        if let Some(bin) = n.bin() {
            // Leaf bin: score every member to full depth (word-parallel
            // over the range's fixed positions), then replay the
            // survivors in [`dfs_order`] through the same state machine the
            // per-leaf traversal runs — `out`'s candidate order and
            // `best`'s evolution match the uncompressed tree exactly.
            let region = region_mask(depth, NYBBLE_COUNT);
            let fixed = range.fixed_mask() & region;
            let goal = range.fixed_values() & region;
            // Shared-position mismatches lower-bound every member's
            // distance: prune the whole bin in O(1) when possible.
            if mismatches + nonzero_nybbles((bin.common ^ goal) & fixed & !bin.vary) > *best {
                return;
            }
            let partials = range.partial_positions();
            let lo = partials.partition_point(|&p| (p as usize) < depth);
            let partials = &partials[lo..];
            let mut survivors: Vec<(u128, u32)> = Vec::new();
            for &b in &bin.entries {
                let mut m = mismatches + nonzero_nybbles((b ^ goal) & fixed);
                if m <= *best {
                    for &p in partials {
                        if !range.set(p as usize).contains(bits_nybble(b, p as usize)) {
                            m += 1;
                        }
                    }
                }
                // `m == 0` is a member of the range, not a candidate.
                if m > 0 && m <= *best {
                    survivors.push((b, m));
                }
            }
            survivors.sort_unstable_by(|x, y| dfs_order(x.0, y.0, range));
            for &(b, m) in &survivors {
                match m.cmp(best) {
                    core::cmp::Ordering::Less => {
                        *best = m;
                        out.clear();
                        out.push(NybbleAddr::from_bits(b));
                    }
                    core::cmp::Ordering::Equal => out.push(NybbleAddr::from_bits(b)),
                    core::cmp::Ordering::Greater => {}
                }
            }
            return;
        }
        let set = range.set(depth);
        // Visit matching children first so `best` tightens early.
        for matching in [true, false] {
            for &(value, child) in n.children() {
                if set.contains(value) == matching {
                    let add = u32::from(!matching);
                    if mismatches + add > *best {
                        continue;
                    }
                    *path = path.with_nybble(depth, value);
                    self.nearest_rec(child, depth + 1, mismatches + add, range, path, best, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn a(s: &str) -> NybbleAddr {
        s.parse().unwrap()
    }

    fn r(s: &str) -> Range {
        s.parse().unwrap()
    }

    #[test]
    fn insert_and_contains() {
        let mut tree = NybbleTree::new();
        assert!(tree.is_empty());
        assert!(tree.insert(a("2001:db8::1")));
        assert!(!tree.insert(a("2001:db8::1")), "duplicate insert");
        assert!(tree.insert(a("2001:db8::2")));
        assert_eq!(tree.len(), 2);
        assert!(tree.contains(a("2001:db8::1")));
        assert!(!tree.contains(a("2001:db8::3")));
    }

    #[test]
    fn count_in_range_basic() {
        let tree = NybbleTree::from_addresses([
            a("2001:db8::1"),
            a("2001:db8::7"),
            a("2001:db8::17"),
            a("2001:db9::1"),
        ]);
        assert_eq!(tree.count_in_range(&r("2001:db8::?")), 2);
        assert_eq!(tree.count_in_range(&r("2001:db8::??")), 3);
        assert_eq!(tree.count_in_range(&Range::full()), 4);
        assert_eq!(tree.count_in_range(&r("2002::?")), 0);
        assert_eq!(tree.count_in_range(&r("2001:db8::7")), 1);
    }

    #[test]
    fn count_uses_subtree_counts_for_wildcard_tails() {
        // Range constrained only in the first half: exercise the O(1)
        // subtree-count path.
        let tree = NybbleTree::from_addresses([
            a("2001:db8::1"),
            a("2001:db8:0:1::9:8:7"),
            a("2001:db9::1"),
        ]);
        let range = r("2001:db8:?:?:?:?:?:?").loosen();
        assert_eq!(tree.count_in_range(&range), 2);
    }

    #[test]
    fn collect_in_range_sorted() {
        let tree = NybbleTree::from_addresses([
            a("2001:db8::9"),
            a("2001:db8::1"),
            a("2001:db8::5"),
            a("fe80::1"),
        ]);
        let got = tree.collect_in_range(&r("2001:db8::?"));
        assert_eq!(got, vec![a("2001:db8::1"), a("2001:db8::5"), a("2001:db8::9")]);
        let all = tree.addresses();
        assert_eq!(all.len(), 4);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn nearest_outside_simple() {
        let tree = NybbleTree::from_addresses([
            a("2001:db8::11"),
            a("2001:db8::19"), // distance 1 from ::11 singleton
            a("2001:db8::99"), // distance 2
            a("2001:db8::1b"), // distance 1
        ]);
        let range = Range::from_address(a("2001:db8::11"));
        let (dist, seeds) = tree.nearest_outside(&range).unwrap();
        assert_eq!(dist, 1);
        let mut seeds = seeds;
        seeds.sort();
        assert_eq!(seeds, vec![a("2001:db8::19"), a("2001:db8::1b")]);
    }

    #[test]
    fn nearest_outside_excludes_members() {
        let tree = NybbleTree::from_addresses([a("2001:db8::1"), a("2001:db8::2")]);
        let range = r("2001:db8::?");
        assert!(tree.nearest_outside(&range).is_none());

        let tree =
            NybbleTree::from_addresses([a("2001:db8::1"), a("2001:db8::2"), a("2001:db8::1:0")]);
        let (dist, seeds) = tree.nearest_outside(&range).unwrap();
        assert_eq!(dist, 1);
        assert_eq!(seeds, vec![a("2001:db8::1:0")]);
    }

    #[test]
    fn nearest_outside_matches_naive_scan_randomized() {
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..20 {
            // Random seeds clustered in a /96-like region plus stragglers.
            let base: u128 = 0x2001_0db8_0000_0000_0000_0000_0000_0000;
            let addrs: Vec<NybbleAddr> = (0..60)
                .map(|_| {
                    let noise: u128 = rng.gen::<u32>() as u128 | ((rng.gen::<u8>() as u128) << 64);
                    NybbleAddr::from_bits(base | noise)
                })
                .collect();
            let tree = NybbleTree::from_addresses(addrs.iter().copied());
            // A range around one random seed with a couple of wildcards.
            let center = addrs[trial % addrs.len()];
            let range = Range::from_address(center)
                .expand_loose(center.with_nybble(31, center.nybble(31) ^ 1))
                .expand_loose(center.with_nybble(24, center.nybble(24) ^ 3));
            // Naive: min distance over non-members.
            let naive_min = addrs
                .iter()
                .filter(|s| !range.contains(**s))
                .map(|s| range.distance(*s))
                .min();
            let naive_set: Vec<NybbleAddr> = match naive_min {
                None => Vec::new(),
                Some(m) => {
                    let mut v: Vec<NybbleAddr> = addrs
                        .iter()
                        .copied()
                        .filter(|s| !range.contains(*s) && range.distance(*s) == m)
                        .collect();
                    v.sort();
                    v.dedup();
                    v
                }
            };
            match tree.nearest_outside(&range) {
                None => assert!(naive_set.is_empty()),
                Some((dist, mut seeds)) => {
                    seeds.sort();
                    assert_eq!(Some(dist), naive_min, "trial {trial}");
                    assert_eq!(seeds, naive_set, "trial {trial}");
                }
            }
        }
    }

    #[test]
    fn count_matches_naive_scan_randomized() {
        let mut rng = StdRng::seed_from_u64(7);
        let addrs: Vec<NybbleAddr> = (0..200)
            .map(|_| {
                let base: u128 = 0x2001_0db8_0000_0000_0000_0000_0000_0000;
                NybbleAddr::from_bits(base | (rng.gen::<u16>() as u128))
            })
            .collect();
        let tree = NybbleTree::from_addresses(addrs.iter().copied());
        let mut uniq = addrs.clone();
        uniq.sort();
        uniq.dedup();
        for range_text in ["2001:db8::?", "2001:db8::??", "2001:db8::???", "2001:db8::[0-7]?"] {
            let range = r(range_text);
            let naive = uniq.iter().filter(|s| range.contains(**s)).count() as u64;
            assert_eq!(tree.count_in_range(&range), naive, "{range_text}");
            assert_eq!(
                tree.collect_in_range(&range).len() as u64,
                naive,
                "{range_text}"
            );
        }
    }

    /// Reference implementation of the fused query: candidate search via
    /// `nearest_outside`, grouping via per-candidate signatures, counting
    /// via one `count_in_range` per expanded range.
    fn naive_growth_candidates(
        tree: &NybbleTree,
        range: &Range,
        group_by_values: bool,
    ) -> Option<GrowthCandidates> {
        let (distance, seeds) = tree.nearest_outside(range)?;
        let mut groups: Vec<CandidateGroup> = Vec::new();
        for seed in seeds {
            let sig = range.mismatch_signature(seed);
            let values = if group_by_values {
                seed.bits() & crate::nybble::position_nybble_mask(sig)
            } else {
                0
            };
            match groups
                .iter_mut()
                .find(|g| g.signature == sig && g.values == values)
            {
                Some(g) => g.count += 1,
                None => groups.push(CandidateGroup {
                    signature: sig,
                    values,
                    count: 1,
                }),
            }
        }
        Some(GrowthCandidates {
            distance,
            members: tree.count_in_range(range),
            groups,
        })
    }

    #[test]
    fn growth_candidates_simple() {
        // Cluster at ::11: candidates ::19 and ::1b share the mismatch
        // signature (last nybble), ::99 is farther.
        let tree = NybbleTree::from_addresses([
            a("2001:db8::11"),
            a("2001:db8::19"),
            a("2001:db8::99"),
            a("2001:db8::1b"),
        ]);
        let range = Range::from_address(a("2001:db8::11"));
        let got = tree.growth_candidates(&range, false).unwrap();
        assert_eq!(got.distance, 1);
        assert_eq!(got.members, 1);
        assert_eq!(got.groups.len(), 1, "one signature group");
        assert_eq!(got.groups[0].signature, 1, "last nybble is bit 0");
        assert_eq!(got.groups[0].count, 2);
        assert_eq!(got.groups[0].values, 0, "values zeroed without grouping");
        // Grouped by values, the two candidates split.
        let got = tree.growth_candidates(&range, true).unwrap();
        assert_eq!(got.groups.len(), 2);
        assert_eq!(got.groups[0].values, 0x9, "::19 visits first");
        assert_eq!(got.groups[1].values, 0xb);
        assert!(got.groups.iter().all(|g| g.count == 1));
    }

    #[test]
    fn growth_candidates_counts_match_expanded_range_counts() {
        let tree = NybbleTree::from_addresses([
            a("2001:db8::100"),
            a("2001:db8::105"),
            a("2001:db8::109"),
            a("2001:db8::205"),
        ]);
        let range = Range::from_address(a("2001:db8::100"));
        let got = tree.growth_candidates(&range, false).unwrap();
        for group in &got.groups {
            let expanded = range.widen_positions(group.signature);
            assert_eq!(
                got.members + group.count,
                tree.count_in_range(&expanded),
                "fused count must equal a fresh count of {expanded}"
            );
        }
        let got = tree.growth_candidates(&range, true).unwrap();
        for group in &got.groups {
            let expanded = range.insert_position_values(group.signature, group.values);
            assert_eq!(got.members + group.count, tree.count_in_range(&expanded));
        }
    }

    #[test]
    fn growth_candidates_none_when_all_inside() {
        let tree = NybbleTree::from_addresses([a("2001:db8::1"), a("2001:db8::2")]);
        assert!(tree.growth_candidates(&r("2001:db8::?"), false).is_none());
        assert!(tree.growth_candidates(&Range::full(), false).is_none());
        assert!(NybbleTree::new()
            .growth_candidates(&r("2001:db8::?"), false)
            .is_none());
    }

    #[test]
    fn growth_candidates_matches_naive_randomized() {
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..40 {
            let base: u128 = 0x2001_0db8_0000_0000_0000_0000_0000_0000;
            let addrs: Vec<NybbleAddr> = (0..80)
                .map(|_| {
                    let noise: u128 =
                        rng.gen::<u32>() as u128 | ((rng.gen::<u8>() as u128) << 64);
                    NybbleAddr::from_bits(base | noise)
                })
                .collect();
            let tree = NybbleTree::from_addresses(addrs.iter().copied());
            let center = addrs[trial % addrs.len()];
            let range = if trial % 2 == 0 {
                Range::from_address(center)
                    .expand_loose(center.with_nybble(31, center.nybble(31) ^ 1))
            } else {
                Range::from_address(center)
                    .expand_tight(center.with_nybble(24, center.nybble(24) ^ 3))
            };
            for group_by_values in [false, true] {
                let fused = tree.growth_candidates(&range, group_by_values);
                let naive = naive_growth_candidates(&tree, &range, group_by_values);
                // The naive reference visits candidates in the same
                // traversal order, so entire structs must agree — including
                // group order.
                assert_eq!(fused, naive, "trial {trial} values={group_by_values}");
            }
        }
    }

    #[test]
    fn node_count_shares_prefixes() {
        // Path compression: the 31 shared nybbles collapse into one inner
        // node's prefix. 1 root + 1 shared-prefix inner + 2 empty-tail
        // leaves for the final differing nybble.
        let tree = NybbleTree::from_addresses([a("2001:db8::1"), a("2001:db8::2")]);
        assert_eq!(tree.node_count(), 1 + 1 + 2);
        // A single address is root + one fully-compressed leaf.
        let tree = NybbleTree::from_addresses([a("2001:db8::1")]);
        assert_eq!(tree.node_count(), 2);
    }

    #[test]
    fn children_spill_beyond_inline_capacity() {
        // 16 children under one parent forces the spilled representation;
        // ordering and queries must be unaffected.
        let addrs: Vec<NybbleAddr> = (0..16u128)
            .map(|v| NybbleAddr::from_bits((0x2001_0db8u128 << 96) | v))
            .collect();
        let tree = NybbleTree::from_addresses(addrs.iter().copied());
        assert_eq!(tree.len(), 16);
        let got = tree.addresses();
        assert_eq!(got, addrs, "sorted enumeration survives the spill");
        assert_eq!(tree.count_in_range(&r("2001:db8::?")), 16);
        for &addr in &addrs {
            assert!(tree.contains(addr));
        }
    }

    #[test]
    fn remove_hides_address_and_reinsert_revives_it() {
        let mut tree = NybbleTree::from_addresses([a("2001:db8::1"), a("2001:db8::2")]);
        assert!(tree.remove(a("2001:db8::1")));
        assert!(!tree.remove(a("2001:db8::1")), "double remove");
        assert!(!tree.remove(a("2001:db8::9")), "never stored");
        assert!(!tree.contains(a("2001:db8::1")));
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.count_in_range(&r("2001:db8::?")), 1);
        assert_eq!(tree.addresses(), vec![a("2001:db8::2")]);
        // Queries that walk zombie paths must skip them.
        assert!(tree
            .growth_candidates(&Range::from_address(a("2001:db8::2")), false)
            .is_none());
        let nodes_before = tree.node_count();
        assert!(tree.insert(a("2001:db8::1")), "re-insert revives");
        assert_eq!(tree.node_count(), nodes_before, "revival allocates nothing");
        assert!(tree.contains(a("2001:db8::1")));
        assert_eq!(tree.len(), 2);
    }

    #[test]
    fn remove_then_queries_match_naive_randomized() {
        let mut rng = StdRng::seed_from_u64(21);
        let base: u128 = 0x2001_0db8_0000_0000_0000_0000_0000_0000;
        let addrs: Vec<NybbleAddr> = (0..120)
            .map(|_| NybbleAddr::from_bits(base | (rng.gen::<u16>() as u128)))
            .collect();
        let mut tree = NybbleTree::from_addresses(addrs.iter().copied());
        let mut live: Vec<NybbleAddr> = addrs.clone();
        live.sort();
        live.dedup();
        for step in 0..60 {
            let victim = live[rng.gen::<u64>() as usize % live.len()];
            assert!(tree.remove(victim));
            live.retain(|&x| x != victim);
            if step % 10 == 0 {
                let range = r("2001:db8::[0-7]???");
                let naive = live.iter().filter(|s| range.contains(**s)).count() as u64;
                assert_eq!(tree.count_in_range(&range), naive, "step {step}");
                assert_eq!(tree.collect_in_range(&range).len() as u64, naive);
                assert_eq!(tree.len(), live.len());
            }
        }
    }

    /// Engine-shaped corpus: a handful of subnets under one /64-ish base,
    /// dense structured tails, and scattered high-nybble noise — the mix
    /// that produces both deep shared chains and sparse binnable
    /// subtrees.
    fn structured_addrs(rng: &mut StdRng, n: usize) -> Vec<NybbleAddr> {
        (0..n)
            .map(|i| {
                let subnet = (i % 5) as u128;
                let structured = (i / 5 + 1) as u128;
                let noise: u128 = if i % 3 == 0 { rng.gen::<u16>() as u128 } else { 0 };
                NybbleAddr::from_bits(
                    (0x2600_3c00u128 << 96) | (subnet << 64) | structured | (noise << 16),
                )
            })
            .collect()
    }

    #[test]
    fn compressed_tree_queries_match_uncompressed_randomized() {
        let mut rng = StdRng::seed_from_u64(1234);
        for trial in 0..24 {
            let n = 40 + (trial * 17) % 140;
            let mut plain = NybbleTree::from_addresses(structured_addrs(&mut rng, n));
            let addrs = plain.addresses();
            if trial % 3 == 2 {
                // Zombie paths from pre-compression removals must stay
                // invisible inside bins too.
                for victim in addrs.iter().step_by(11) {
                    assert!(plain.remove(*victim));
                }
            }
            let live = plain.addresses();
            // max_bin 2 forces maximal binning, 16/128 are realistic, and
            // a bin larger than the corpus collapses the whole tree into
            // one root-level bin.
            for max_bin in [2usize, 16, 128, 100_000] {
                let mut packed = plain.clone();
                packed.compress_bins(max_bin);
                assert_eq!(packed.len(), plain.len());
                for &addr in &addrs {
                    assert_eq!(packed.contains(addr), plain.contains(addr));
                }
                for _ in 0..16 {
                    let probe = NybbleAddr::from_bits(
                        live[rng.gen::<u64>() as usize % live.len()].bits()
                            ^ (1u128 << (4 * (rng.gen::<u32>() % 32))),
                    );
                    assert_eq!(packed.contains(probe), plain.contains(probe));
                }
                for t in 0..10 {
                    let center = live[(trial + t * 13) % live.len()];
                    let range = match t % 5 {
                        0 => Range::from_address(center),
                        1 => Range::from_address(center)
                            .expand_loose(center.with_nybble(31, center.nybble(31) ^ 1)),
                        2 => Range::from_address(center)
                            .expand_tight(center.with_nybble(24, center.nybble(24) ^ 3)),
                        3 => Range::from_address(center)
                            .expand_loose(center.with_nybble(17, center.nybble(17) ^ 5))
                            .expand_loose(center.with_nybble(30, center.nybble(30) ^ 2)),
                        _ => Range::full(),
                    };
                    assert_eq!(
                        packed.count_in_range(&range),
                        plain.count_in_range(&range),
                        "trial {trial} t {t} max_bin {max_bin}"
                    );
                    assert_eq!(packed.collect_in_range(&range), plain.collect_in_range(&range));
                    // Exact equality including candidate order: bins must
                    // replay survivors in the traversal's visit order.
                    assert_eq!(
                        packed.nearest_outside(&range),
                        plain.nearest_outside(&range),
                        "trial {trial} t {t} max_bin {max_bin}"
                    );
                    for group_by_values in [false, true] {
                        assert_eq!(
                            packed.growth_candidates(&range, group_by_values),
                            plain.growth_candidates(&range, group_by_values),
                            "trial {trial} t {t} max_bin {max_bin} values {group_by_values}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn compressed_pruned_enumeration_is_bin_granular() {
        let addrs = [
            a("2001:db8::1"),
            a("2001:db8::2"),
            a("2001:db8::3"),
            a("2001:db9::1"),
        ];
        let mut tree = NybbleTree::from_addresses(addrs);
        // The db8 subtree (3 addresses, branching tail) collapses; the
        // db9 single-address chain is already one leaf.
        tree.compress_bins(3);
        let mut counts = tree.subtree_counts();
        // Killing one bin member stops at the bin node: enumeration still
        // yields the whole bin (callers filter individual members).
        assert!(tree.adjust_path_count(a("2001:db8::2"), &mut counts, -1));
        let mut seen = Vec::new();
        tree.for_each_in_range_pruned(&Range::full(), &counts, |x| seen.push(x));
        assert_eq!(seen, addrs.to_vec(), "bin granularity: members not filtered");
        // Killing the remaining members zeroes the bin node and prunes it.
        assert!(tree.adjust_path_count(a("2001:db8::1"), &mut counts, -1));
        assert!(tree.adjust_path_count(a("2001:db8::3"), &mut counts, -1));
        seen.clear();
        tree.for_each_in_range_pruned(&Range::full(), &counts, |x| seen.push(x));
        assert_eq!(seen, vec![a("2001:db9::1")]);
    }

    #[test]
    fn compress_bins_shrinks_reachable_interior() {
        // A sparse subtree of scattered noise collapses into one bin node.
        let mut rng = StdRng::seed_from_u64(5);
        let addrs: Vec<NybbleAddr> = (0..64)
            .map(|_| {
                NybbleAddr::from_bits((0x2600u128 << 112) | (rng.gen::<u64>() as u128))
            })
            .collect();
        let plain = NybbleTree::from_addresses(addrs.iter().copied());
        let mut packed = plain.clone();
        packed.compress_bins(128);
        // The whole corpus fits one bin: the only reachable nodes are the
        // root and the shared-prefix node carrying the bin.
        assert_eq!(packed.len(), plain.len());
        assert_eq!(packed.addresses(), plain.addresses());
    }

    #[test]
    fn pruned_enumeration_skips_externally_dead_subtrees() {
        let addrs = [
            a("2001:db8::1"),
            a("2001:db8::2"),
            a("2001:db8::3"),
            a("2001:db9::1"),
        ];
        let tree = NybbleTree::from_addresses(addrs);
        let mut counts = tree.subtree_counts();
        assert_eq!(counts.len(), tree.node_count());
        // Initially the pruned view equals the full view.
        let mut seen = Vec::new();
        tree.for_each_in_range_pruned(&Range::full(), &counts, |x| seen.push(x));
        assert_eq!(seen, addrs.to_vec());
        // Kill ::2 in the external view only: the tree still stores it.
        assert!(tree.adjust_path_count(a("2001:db8::2"), &mut counts, -1));
        assert!(!tree.adjust_path_count(a("2001:db8::9"), &mut counts, -1));
        seen.clear();
        tree.for_each_in_range_pruned(&r("2001:db8::?"), &counts, |x| seen.push(x));
        assert_eq!(seen, vec![a("2001:db8::1"), a("2001:db8::3")]);
        assert!(tree.contains(a("2001:db8::2")), "tree itself unchanged");
        // Revive it.
        assert!(tree.adjust_path_count(a("2001:db8::2"), &mut counts, 1));
        seen.clear();
        tree.for_each_in_range_pruned(&r("2001:db8::?"), &counts, |x| seen.push(x));
        assert_eq!(seen.len(), 3);
    }
}
