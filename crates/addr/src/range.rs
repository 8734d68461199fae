//! [`Range`]: a rectangular region of IPv6 address space, one value set per
//! nybble position.
//!
//! 6Gen clusters are *defined* by a range (§5.3 of the paper): every nybble
//! position independently admits a set of values. A fully dynamic position
//! is the paper's `?` wildcard; a bounded position is the `[1-2,8-a]`
//! notation. The paper distinguishes **loose** ranges (every dynamic nybble
//! is a full wildcard) from **tight** ranges (dynamic nybbles carry exactly
//! the observed values); both are instances of this one type, produced by
//! the two expansion operations [`Range::expand_loose`] and
//! [`Range::expand_tight`].

use crate::address::NybbleAddr;
use crate::error::AddrParseError;
use crate::nybble::{count_nonzero_nybbles, nybble_nonzero_positions, NybbleSet, NYBBLE_COUNT};
use rand::Rng;
use std::collections::HashSet;
use std::str::FromStr;

/// A rectangular IPv6 address region: the Cartesian product of one
/// [`NybbleSet`] per nybble position.
///
/// Invariant: every position's set is non-empty, so a range always contains
/// at least one address.
///
/// The type caches a packed representation of its *fixed* positions
/// (positions admitting exactly one value) so that membership tests and
/// Hamming distances run in a handful of word operations — the dominant cost
/// of 6Gen's candidate-seed search. Positions that are neither fixed nor
/// full wildcards ("partial" positions, which only arise in tight
/// clustering) are tracked in a short side list and checked in a loop.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Range {
    sets: [NybbleSet; NYBBLE_COUNT],
    /// `0xF` at each fixed position, `0` elsewhere.
    fixed_mask: u128,
    /// The fixed value at each fixed position, `0` elsewhere.
    fixed_values: u128,
    /// Positions that are neither fixed nor full (sorted, ascending).
    partial: Vec<u8>,
}

impl Range {
    /// The range containing exactly one address.
    pub fn from_address(addr: NybbleAddr) -> Range {
        let mut sets = [NybbleSet::EMPTY; NYBBLE_COUNT];
        for (i, set) in sets.iter_mut().enumerate() {
            *set = NybbleSet::single(addr.nybble(i));
        }
        Range {
            sets,
            fixed_mask: u128::MAX,
            fixed_values: addr.bits(),
            partial: Vec::new(),
        }
    }

    /// The range covering the entire IPv6 address space (all positions `?`).
    pub fn full() -> Range {
        Range::from_sets([NybbleSet::FULL; NYBBLE_COUNT])
    }

    /// Builds a range from explicit per-position sets.
    ///
    /// # Panics
    /// Panics if any set is empty (the range would contain no address).
    pub fn from_sets(sets: [NybbleSet; NYBBLE_COUNT]) -> Range {
        let mut fixed_mask = 0u128;
        let mut fixed_values = 0u128;
        let mut partial = Vec::new();
        for (i, set) in sets.iter().enumerate() {
            assert!(!set.is_empty(), "empty nybble set at position {i}");
            if let Some(v) = set.as_single() {
                let sh = NybbleAddr::shift(i);
                fixed_mask |= 0xFu128 << sh;
                fixed_values |= (v as u128) << sh;
            } else if !set.is_full() {
                partial.push(i as u8);
            }
        }
        Range {
            sets,
            fixed_mask,
            fixed_values,
            partial,
        }
    }

    /// The value set at nybble position `index`.
    ///
    /// # Panics
    /// Panics if `index >= 32`.
    #[inline]
    pub fn set(&self, index: usize) -> NybbleSet {
        self.sets[index]
    }

    /// All 32 per-position sets, most significant first.
    #[inline]
    pub fn sets(&self) -> &[NybbleSet; NYBBLE_COUNT] {
        &self.sets
    }

    /// Exports the range as 32 per-position set masks, most significant
    /// position first — the range's canonical wire form, used by the
    /// engine checkpoint format. Two equal ranges always export identical
    /// words, and [`Range::from_mask_words`] rebuilds an identical range
    /// (the packed fixed-position caches are re-derived, not serialized).
    pub fn mask_words(&self) -> [u16; NYBBLE_COUNT] {
        let mut words = [0u16; NYBBLE_COUNT];
        for (word, set) in words.iter_mut().zip(&self.sets) {
            *word = set.mask();
        }
        words
    }

    /// Rebuilds a range from [`Range::mask_words`] output. Returns `None`
    /// if any word is zero (an empty per-position set — the range would
    /// contain no address), so untrusted bytes cannot violate the
    /// non-empty invariant or panic.
    pub fn from_mask_words(words: [u16; NYBBLE_COUNT]) -> Option<Range> {
        if words.contains(&0) {
            return None;
        }
        let mut sets = [NybbleSet::EMPTY; NYBBLE_COUNT];
        for (set, &word) in sets.iter_mut().zip(&words) {
            *set = NybbleSet::from_mask(word);
        }
        Some(Range::from_sets(sets))
    }

    /// Packed mask of the *fixed* (single-value) positions: nybble `i` is
    /// `0xF` iff position `i`'s set holds exactly one value. With
    /// [`fixed_values`], supports word-parallel mismatch tests over many
    /// addresses.
    ///
    /// [`fixed_values`]: Range::fixed_values
    #[inline]
    pub fn fixed_mask(&self) -> u128 {
        self.fixed_mask
    }

    /// The single allowed value at every fixed position, packed at the
    /// position's nybble (zero elsewhere). See [`Range::fixed_mask`].
    #[inline]
    pub fn fixed_values(&self) -> u128 {
        self.fixed_values
    }

    /// The *partial* positions — more than one value allowed but not a
    /// full wildcard — ascending. Usually a handful: scan these
    /// one-by-one after a word-parallel pass over the fixed positions.
    #[inline]
    pub fn partial_positions(&self) -> &[u8] {
        &self.partial
    }

    /// The number of *dynamic* positions (sets with more than one value).
    pub fn dynamic_count(&self) -> u32 {
        (u128::MAX ^ self.fixed_mask).count_ones() / 4
    }

    /// `true` if every dynamic position is a full wildcard — the paper's
    /// *loose* range form (§5.3).
    pub fn is_loose(&self) -> bool {
        self.partial.is_empty()
    }

    /// The number of addresses in the range: the product of per-position set
    /// sizes. The only value that exceeds `u128` is the full address space
    /// (16³² = 2¹²⁸, all positions `?`), which saturates to `u128::MAX`;
    /// callers that can encounter the full space should treat `u128::MAX`
    /// as "entire space".
    pub fn size(&self) -> u128 {
        let mut acc: u128 = 1;
        for set in &self.sets {
            match acc.checked_mul(set.len() as u128) {
                Some(v) => acc = v,
                None => return u128::MAX,
            }
        }
        acc
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, addr: NybbleAddr) -> bool {
        if (addr.bits() ^ self.fixed_values) & self.fixed_mask != 0 {
            return false;
        }
        self.partial
            .iter()
            .all(|&i| self.sets[i as usize].contains(addr.nybble(i as usize)))
    }

    /// Nybble-level Hamming distance from the range to an address: the
    /// number of positions whose set does not contain the address's value.
    /// Distance from a wildcard position is zero (§5.2). Equivalently, the
    /// number of positions that would become (more) dynamic if the address
    /// were clustered into the range.
    #[inline]
    pub fn distance(&self, addr: NybbleAddr) -> u32 {
        let mut d = count_nonzero_nybbles((addr.bits() ^ self.fixed_values) & self.fixed_mask);
        for &i in &self.partial {
            if !self.sets[i as usize].contains(addr.nybble(i as usize)) {
                d += 1;
            }
        }
        d
    }

    /// The *mismatch signature* of `addr` against this range: a 32-bit
    /// position mask with bit `31 - i` set iff nybble position `i`'s set
    /// does not contain the address's value (so bit `k` covers the nybble
    /// at bit-shift `4*k` of the packed `u128`, and
    /// `signature.count_ones() == self.distance(addr)`).
    ///
    /// The fixed positions are resolved word-parallel (XOR + nybble
    /// collapse, no per-nybble loop); only the short partial-position list
    /// is checked iteratively. Two addresses with equal signatures induce
    /// the same [`Range::expand_loose`] result, which is what lets growth
    /// evaluation dedup candidate seeds at the tree level.
    #[inline]
    pub fn mismatch_signature(&self, addr: NybbleAddr) -> u32 {
        let mut sig = nybble_nonzero_positions((addr.bits() ^ self.fixed_values) & self.fixed_mask);
        for &i in &self.partial {
            let i = i as usize;
            if !self.sets[i].contains(addr.nybble(i)) {
                sig |= 1 << (NYBBLE_COUNT - 1 - i);
            }
        }
        sig
    }

    /// Widens every position named by `signature` (same bit convention as
    /// [`Range::mismatch_signature`]) to a full `?` wildcard — the loose
    /// expansion induced by any address with that mismatch signature.
    ///
    /// A zero signature returns a clone.
    pub fn widen_positions(&self, signature: u32) -> Range {
        if signature == 0 {
            return self.clone();
        }
        let mut sets = self.sets;
        let mut bits = signature;
        while bits != 0 {
            let k = bits.trailing_zeros() as usize;
            sets[NYBBLE_COUNT - 1 - k] = NybbleSet::FULL;
            bits &= bits - 1;
        }
        Range::from_sets(sets)
    }

    /// Inserts, at every position named by `signature`, the corresponding
    /// nybble of the packed address `bits` — the tight expansion induced by
    /// any address matching `bits` at those positions (bit `k` of the
    /// signature selects the nybble at bit-shift `4*k`).
    ///
    /// A zero signature returns a clone.
    pub fn insert_position_values(&self, signature: u32, bits: u128) -> Range {
        if signature == 0 {
            return self.clone();
        }
        let mut sets = self.sets;
        let mut sig = signature;
        while sig != 0 {
            let k = sig.trailing_zeros() as usize;
            let i = NYBBLE_COUNT - 1 - k;
            sets[i] = sets[i].insert(((bits >> (4 * k)) & 0xF) as u8);
            sig &= sig - 1;
        }
        Range::from_sets(sets)
    }

    /// Expands the range to cover `addr`, turning every mismatching
    /// position into a **full wildcard** — loose clustering (§5.3/§6.3).
    ///
    /// Positions that already contain the address's value are unchanged, so
    /// expanding by a member address returns a clone.
    pub fn expand_loose(&self, addr: NybbleAddr) -> Range {
        self.widen_positions(self.mismatch_signature(addr))
    }

    /// Expands the range to cover `addr`, inserting only the address's value
    /// at each mismatching position — tight clustering (§5.3/§6.3).
    pub fn expand_tight(&self, addr: NybbleAddr) -> Range {
        self.insert_position_values(self.mismatch_signature(addr), addr.bits())
    }

    /// Converts to the loose form: every dynamic position becomes a full
    /// wildcard.
    pub fn loosen(&self) -> Range {
        if self.is_loose() {
            return self.clone();
        }
        let mut sets = self.sets;
        for set in sets.iter_mut() {
            if !set.is_single() {
                *set = NybbleSet::FULL;
            }
        }
        Range::from_sets(sets)
    }

    /// Per-position union of two ranges (the smallest rectangle covering
    /// both).
    pub fn union(&self, other: &Range) -> Range {
        let mut sets = self.sets;
        for (i, set) in sets.iter_mut().enumerate() {
            *set = set.union(other.sets[i]);
        }
        Range::from_sets(sets)
    }

    /// `true` if every address of `self` lies in `other` (per-position
    /// subset test). Used by 6Gen's subsumed-cluster deletion (§5.4).
    pub fn is_subset(&self, other: &Range) -> bool {
        self.sets
            .iter()
            .zip(other.sets.iter())
            .all(|(a, b)| a.is_subset(*b))
    }

    /// Packs the 32 per-position membership masks into four 128-bit words
    /// for word-parallel subset tests (see [`PackedMasks`]).
    pub fn packed_masks(&self) -> PackedMasks {
        let mut words = [0u128; 4];
        for (i, set) in self.sets.iter().enumerate() {
            words[i / 8] |= (set.mask() as u128) << ((i % 8) * 16);
        }
        PackedMasks { words }
    }

    /// `true` if the two ranges share at least one address.
    pub fn intersects(&self, other: &Range) -> bool {
        self.sets
            .iter()
            .zip(other.sets.iter())
            .all(|(a, b)| !a.intersection(*b).is_empty())
    }

    /// The rectangle of addresses common to both ranges, if any.
    pub fn intersection(&self, other: &Range) -> Option<Range> {
        let mut sets = [NybbleSet::EMPTY; NYBBLE_COUNT];
        for (i, slot) in sets.iter_mut().enumerate() {
            let s = self.sets[i].intersection(other.sets[i]);
            if s.is_empty() {
                return None;
            }
            *slot = s;
        }
        Some(Range::from_sets(sets))
    }

    /// The `index`-th address of the range in lexicographic (most-
    /// significant-position-first) order.
    ///
    /// # Panics
    /// Panics if `index >= self.size()`.
    pub fn nth(&self, index: u128) -> NybbleAddr {
        let mut idx = index;
        let mut nybbles = [0u8; NYBBLE_COUNT];
        // Decompose in mixed radix, least significant position first.
        for i in (0..NYBBLE_COUNT).rev() {
            let radix = self.sets[i].len() as u128;
            nybbles[i] = self.sets[i].nth_value((idx % radix) as u32);
            idx /= radix;
        }
        assert!(idx == 0, "range index out of bounds");
        NybbleAddr::from_nybbles(nybbles)
    }

    /// The lexicographic rank of `addr` within the range, if it is a member.
    pub fn index_of(&self, addr: NybbleAddr) -> Option<u128> {
        let mut index: u128 = 0;
        for i in 0..NYBBLE_COUNT {
            let rank = self.sets[i].rank_of(addr.nybble(i))?;
            index = index * self.sets[i].len() as u128 + rank as u128;
        }
        Some(index)
    }

    /// The smallest address in the range.
    pub fn min_address(&self) -> NybbleAddr {
        let mut nybbles = [0u8; NYBBLE_COUNT];
        for (i, slot) in nybbles.iter_mut().enumerate() {
            *slot = self.sets[i].min_value().expect("range sets are non-empty");
        }
        NybbleAddr::from_nybbles(nybbles)
    }

    /// The largest address in the range. Every member lies numerically in
    /// `[min_address(), max_address()]` (per-position nybbles are
    /// independent), so any address outside that interval is outside the
    /// range — the basis for sorted-neighbour distance bounds.
    pub fn max_address(&self) -> NybbleAddr {
        let mut nybbles = [0u8; NYBBLE_COUNT];
        for (i, slot) in nybbles.iter_mut().enumerate() {
            *slot = self.sets[i].max_value().expect("range sets are non-empty");
        }
        NybbleAddr::from_nybbles(nybbles)
    }

    /// Iterates every address in the range in lexicographic order.
    pub fn iter(&self) -> RangeIter {
        RangeIter::new(self)
    }

    /// Draws one address uniformly at random. Per-position independent
    /// sampling is exactly uniform over the rectangle, so this works even
    /// for ranges whose size saturates `u128`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> NybbleAddr {
        let mut nybbles = [0u8; NYBBLE_COUNT];
        for (i, slot) in nybbles.iter_mut().enumerate() {
            let set = self.sets[i];
            *slot = match set.as_single() {
                Some(v) => v,
                None => set.nth_value(rng.gen_range(0..set.len())),
            };
        }
        NybbleAddr::from_nybbles(nybbles)
    }
}

impl FromStr for Range {
    type Err = AddrParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        crate::parse::parse_range(s)
    }
}

impl core::fmt::Display for Range {
    /// Formats using group notation with RFC 5952-style `::` compression of
    /// the longest run (≥ 2) of all-zero groups. Dynamic nybbles render as
    /// `?` or `[..]` sets; groups containing them are never compressed.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // A group is "zero" if all four sets are the single value 0.
        let group_is_zero = |g: usize| {
            (0..4).all(|k| self.sets[g * 4 + k] == NybbleSet::single(0))
        };
        // Find the leftmost longest run of >= 2 zero groups.
        let (mut best_start, mut best_len) = (0usize, 0usize);
        let mut g = 0;
        while g < 8 {
            if group_is_zero(g) {
                let start = g;
                while g < 8 && group_is_zero(g) {
                    g += 1;
                }
                if g - start > best_len {
                    best_start = start;
                    best_len = g - start;
                }
            } else {
                g += 1;
            }
        }
        let compress = best_len >= 2;
        let write_group = |f: &mut core::fmt::Formatter<'_>, g: usize| -> core::fmt::Result {
            // Skip leading fixed zeros, but print at least one token.
            let mut started = false;
            for k in 0..4 {
                let set = self.sets[g * 4 + k];
                if !started && k < 3 && set == NybbleSet::single(0) {
                    continue;
                }
                started = true;
                write!(f, "{set}")?;
            }
            Ok(())
        };
        let mut g = 0;
        let mut first = true;
        while g < 8 {
            if compress && g == best_start {
                f.write_str("::")?;
                g += best_len;
                first = true; // '::' already provides the separator
                if g == 8 {
                    return Ok(());
                }
                continue;
            }
            if !first {
                f.write_str(":")?;
            }
            first = false;
            write_group(f, g)?;
            g += 1;
        }
        Ok(())
    }
}

/// Lexicographic iterator over a [`Range`]'s addresses: an odometer over
/// the packed address bits, the least significant position varying
/// fastest.
///
/// The iterator holds the bits of the next address. To advance, it takes
/// the lowest dynamic position whose set holds a value above the current
/// one, moves that position to the smallest such value (the
/// `trailing_zeros` of the set's mask above the current value) and resets
/// every position below it to its minimum. One step costs a few word
/// operations, and one per dynamic position passed on a carry, instead of
/// rebuilding all 32 nybbles. The sequence is the rank order of
/// [`Range::nth`].
///
/// [`size_hint`](Iterator::size_hint) is exact while the addresses left
/// fit in `usize`, and `(usize::MAX, None)` above that.
#[derive(Debug, Clone)]
pub struct RangeIter {
    /// Bits of the next address, or `None` once the range is exhausted.
    next: Option<u128>,
    /// Addresses not yet yielded, `next` included. Saturates like
    /// [`Range::size`] for the whole address space.
    remaining: u128,
    /// The range's smallest address: what positions reset to on a carry.
    min: u128,
    /// Bit shift and value mask of every dynamic position, least
    /// significant first; only the first `dynamic_len` entries are set.
    dynamic: [(u32, u32); NYBBLE_COUNT],
    dynamic_len: usize,
}

impl RangeIter {
    fn new(range: &Range) -> Self {
        let mut dynamic = [(0, 0); NYBBLE_COUNT];
        let mut dynamic_len = 0;
        for (i, set) in range.sets.iter().enumerate().rev() {
            if !set.is_single() {
                dynamic[dynamic_len] = (NybbleAddr::shift(i), u32::from(set.mask()));
                dynamic_len += 1;
            }
        }
        let min = range.min_address().bits();
        RangeIter {
            next: Some(min),
            remaining: range.size(),
            min,
            dynamic,
            dynamic_len,
        }
    }

    /// The address after `bits` in lexicographic order, or `None` if
    /// `bits` is the range's last address.
    #[inline]
    fn successor(&self, bits: u128) -> Option<u128> {
        for &(shift, mask) in &self.dynamic[..self.dynamic_len] {
            let value = ((bits >> shift) & 0xF) as u32;
            // The set's values above `value` (`value + 1 <= 16`).
            let above = mask & (u32::MAX << (value + 1));
            if above != 0 {
                // Positions below `shift` all sat at their maximum: they
                // wrap to the range's minimum.
                let below = (1u128 << shift) - 1;
                let wrapped = (bits & !below) | (self.min & below);
                let next = u128::from(above.trailing_zeros());
                return Some((wrapped & !(0xFu128 << shift)) | (next << shift));
            }
        }
        None
    }
}

impl Iterator for RangeIter {
    type Item = NybbleAddr;

    #[inline]
    fn next(&mut self) -> Option<NybbleAddr> {
        let bits = self.next?;
        self.next = self.successor(bits);
        self.remaining = self.remaining.saturating_sub(1);
        Some(NybbleAddr::from_bits(bits))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match (self.next, usize::try_from(self.remaining)) {
            (None, _) => (0, Some(0)),
            (Some(_), Ok(n)) => (n, Some(n)),
            (Some(_), Err(_)) => (usize::MAX, None),
        }
    }
}

/// Samples **distinct** addresses from a range, optionally excluding a set
/// of already-used addresses.
///
/// 6Gen's final cluster growth must "consume the budget exactly by randomly
/// selecting addresses in the newly grown cluster's range that were not in
/// the cluster's pre-growth range" (§5.4). For ranges not much larger than
/// the number of draws, rejection sampling degrades, so the sampler switches
/// to enumerate-and-shuffle below a density threshold.
#[derive(Debug)]
pub struct RangeSampler {
    range: Range,
    drawn: HashSet<NybbleAddr>,
}

/// A [`Range`]'s 32 per-position membership masks packed into four 128-bit
/// words (eight 16-bit nybble-set masks per word).
///
/// Per position, `a ⊆ b` is `mask_a & !mask_b == 0`; packing tests eight
/// positions per `u128` AND-NOT, so a full subset test is four word ops
/// instead of a 32-iteration loop. The engine's subsumption scan — every
/// live cluster tested against each newly grown range, every round — keeps
/// one `PackedMasks` per cluster to make that scan cheap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedMasks {
    words: [u128; 4],
}

impl PackedMasks {
    /// `true` if every per-position set of `self` is a subset of the
    /// corresponding set of `other`. Agrees exactly with
    /// [`Range::is_subset`] on the source ranges.
    #[inline]
    pub fn is_subset(&self, other: &PackedMasks) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & !b == 0)
    }
}

impl RangeSampler {
    /// Creates a sampler over `range`.
    pub fn new(range: Range) -> RangeSampler {
        RangeSampler {
            range,
            drawn: HashSet::new(),
        }
    }

    /// Draws up to `count` distinct addresses from the range, each not
    /// previously drawn by this sampler and for which `exclude` returns
    /// `false`. Returns fewer than `count` only if the range is exhausted.
    pub fn draw<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        count: usize,
        mut exclude: impl FnMut(NybbleAddr) -> bool,
    ) -> Vec<NybbleAddr> {
        let size = self.range.size();
        let mut out = Vec::with_capacity(count);
        // Dense regime: enumerating the whole range costs at most 4x the
        // requested draw, so do that and shuffle for exact uniformity.
        let dense = size <= (count as u128).saturating_mul(4).max(1024);
        if dense {
            let mut pool: Vec<NybbleAddr> = self
                .range
                .iter()
                .filter(|a| !self.drawn.contains(a) && !exclude(*a))
                .collect();
            // Partial Fisher–Yates: only the first `count` slots matter.
            let take = count.min(pool.len());
            for i in 0..take {
                let j = rng.gen_range(i..pool.len());
                pool.swap(i, j);
            }
            pool.truncate(take);
            for a in &pool {
                self.drawn.insert(*a);
            }
            out.extend(pool);
            return out;
        }
        // Sparse regime: rejection sampling; collisions are rare because the
        // range dwarfs the draw count.
        let mut attempts: u64 = 0;
        let max_attempts = (count as u64).saturating_mul(64).max(4096);
        while out.len() < count && attempts < max_attempts {
            attempts += 1;
            let a = self.range.sample(rng);
            if self.drawn.contains(&a) || exclude(a) {
                continue;
            }
            self.drawn.insert(a);
            out.push(a);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn r(s: &str) -> Range {
        s.parse().unwrap()
    }

    fn a(s: &str) -> NybbleAddr {
        s.parse().unwrap()
    }

    #[test]
    fn paper_example_range() {
        // §2: 2001:db8::?:100? represents 256 addresses, including
        // 2001:db8::5:1000, 2001:db8::8:100a, and 2001:db8::1003.
        let range = r("2001:db8::?:100?");
        assert_eq!(range.size(), 256);
        assert!(range.contains(a("2001:db8::5:1000")));
        assert!(range.contains(a("2001:db8::8:100a")));
        assert!(range.contains(a("2001:db8::1003")));
        assert!(!range.contains(a("2001:db8::5:2000")));
    }

    #[test]
    fn singleton_range() {
        let range = Range::from_address(a("2001:db8::1"));
        assert_eq!(range.size(), 1);
        assert!(range.contains(a("2001:db8::1")));
        assert!(!range.contains(a("2001:db8::2")));
        assert_eq!(range.dynamic_count(), 0);
        assert!(range.is_loose());
        assert_eq!(range.to_string(), "2001:db8::1");
    }

    #[test]
    fn full_range_saturates_size() {
        let range = Range::full();
        assert_eq!(range.size(), u128::MAX);
        assert!(range.contains(a("::")));
        assert!(range.contains(a("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff")));
        assert_eq!(range.dynamic_count(), 32);
    }

    #[test]
    fn almost_full_range_size_is_exact() {
        // One fixed position: 16^31 exactly.
        let mut sets = [NybbleSet::FULL; NYBBLE_COUNT];
        sets[0] = NybbleSet::single(2);
        assert_eq!(Range::from_sets(sets).size(), 1u128 << 124);
    }

    #[test]
    fn distance_examples_from_paper() {
        // §5.2: distance between 2001:db8::51 and 2001:db8::5? is zero.
        let range = r("2001:db8::5?");
        assert_eq!(range.distance(a("2001:db8::51")), 0);
        assert_eq!(range.distance(a("2001:db8::61")), 1);
        assert_eq!(range.distance(a("2001:db8::161")), 2);
        let singleton = Range::from_address(a("2001:db8::58"));
        assert_eq!(singleton.distance(a("2001:db8::51")), 1);
    }

    #[test]
    fn distance_counts_partial_positions() {
        let range = r("2001:db8::[1-3]");
        assert_eq!(range.distance(a("2001:db8::2")), 0);
        assert_eq!(range.distance(a("2001:db8::5")), 1);
        assert_eq!(range.distance(a("2002:db8::5")), 2);
    }

    #[test]
    fn expand_loose_makes_full_wildcards() {
        let range = Range::from_address(a("2001:db8::1230"));
        let grown = range.expand_loose(a("2001:db8::1204"));
        // Positions 29 and 31 differ.
        assert_eq!(grown.size(), 256);
        assert!(grown.contains(a("2001:db8::12ff")));
        assert!(grown.is_loose());
        assert_eq!(grown.to_string(), "2001:db8::12??");
    }

    #[test]
    fn expand_tight_inserts_single_values() {
        let range = Range::from_address(a("2001:db8::1230"));
        let grown = range.expand_tight(a("2001:db8::1204"));
        assert_eq!(grown.size(), 4); // {3,0} x {0,4}
        assert!(grown.contains(a("2001:db8::1230")));
        assert!(grown.contains(a("2001:db8::1204")));
        assert!(grown.contains(a("2001:db8::1200")));
        assert!(grown.contains(a("2001:db8::1234")));
        assert!(!grown.contains(a("2001:db8::1231")));
        assert!(!grown.is_loose());
    }

    #[test]
    fn mismatch_signature_matches_per_position_scan() {
        for (range_text, addr_text) in [
            ("2001:db8::5?", "2001:db8::51"),
            ("2001:db8::5?", "2001:db8::161"),
            ("2001:db8::[1-3]", "2002:db8::5"),
            ("2001:db8::1230", "2001:db8::1204"),
            ("::", "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"),
            ("?:2::3:?", "4:2::9:1"),
        ] {
            let range = r(range_text);
            let addr = a(addr_text);
            let mut expected = 0u32;
            for i in 0..NYBBLE_COUNT {
                if !range.set(i).contains(addr.nybble(i)) {
                    expected |= 1 << (NYBBLE_COUNT - 1 - i);
                }
            }
            let sig = range.mismatch_signature(addr);
            assert_eq!(sig, expected, "{range_text} vs {addr_text}");
            assert_eq!(sig.count_ones(), range.distance(addr));
        }
    }

    #[test]
    fn signature_expansions_match_address_expansions() {
        for (range_text, addr_text) in [
            ("2001:db8::1230", "2001:db8::1204"),
            ("2001:db8::5?", "2001:db8::161"),
            ("2001:db8::[1-3]", "2002:db8::5"),
        ] {
            let range = r(range_text);
            let addr = a(addr_text);
            let sig = range.mismatch_signature(addr);
            assert_eq!(range.widen_positions(sig), range.expand_loose(addr));
            assert_eq!(
                range.insert_position_values(sig, addr.bits()),
                range.expand_tight(addr)
            );
        }
        // Zero signature: both are clones.
        let range = r("2001:db8::?");
        assert_eq!(range.widen_positions(0), range);
        assert_eq!(range.insert_position_values(0, u128::MAX), range);
    }

    #[test]
    fn expand_by_member_is_identity() {
        let range = r("2001:db8::?");
        assert_eq!(range.expand_loose(a("2001:db8::7")), range);
        assert_eq!(range.expand_tight(a("2001:db8::7")), range);
    }

    #[test]
    fn loosen_widens_partials() {
        let tight = r("2001:db8::[1-3]");
        let loose = tight.loosen();
        assert_eq!(loose, r("2001:db8::?"));
        assert!(tight.is_subset(&loose));
    }

    #[test]
    fn subset_and_intersection() {
        let big = r("2001:db8::?:?");
        let small = r("2001:db8::5:?");
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
        assert!(big.intersects(&small));
        assert_eq!(big.intersection(&small).unwrap(), small);

        let other = r("2001:db9::?");
        assert!(!big.intersects(&other));
        assert!(big.intersection(&other).is_none());

        let left = r("2001:db8::[1-4]");
        let right = r("2001:db8::[3-8]");
        let mid = left.intersection(&right).unwrap();
        assert_eq!(mid, r("2001:db8::[3-4]"));
    }

    #[test]
    fn union_covers_both() {
        let x = Range::from_address(a("2001:db8::1"));
        let y = Range::from_address(a("2001:db8::9"));
        let u = x.union(&y);
        assert_eq!(u, r("2001:db8::[1,9]"));
        assert!(x.is_subset(&u) && y.is_subset(&u));
    }

    #[test]
    fn nth_and_index_roundtrip() {
        let range = r("2001:db8::?:100[0-3]");
        let size = range.size();
        assert_eq!(size, 64);
        for idx in 0..size {
            let addr = range.nth(idx);
            assert!(range.contains(addr));
            assert_eq!(range.index_of(addr), Some(idx));
        }
        assert_eq!(range.index_of(a("2001:db8::1004")), None);
    }

    #[test]
    fn iteration_matches_nth() {
        let range = r("::[a-b]0[1,5]");
        let via_iter: Vec<_> = range.iter().collect();
        assert_eq!(via_iter.len(), range.size() as usize);
        for (i, addr) in via_iter.iter().enumerate() {
            assert_eq!(*addr, range.nth(i as u128));
        }
        // Lexicographic order.
        let mut sorted = via_iter.clone();
        sorted.sort();
        assert_eq!(via_iter, sorted);
    }

    #[test]
    fn min_address() {
        assert_eq!(r("2001:db8::?").min_address(), a("2001:db8::"));
        assert_eq!(r("2001:db8::[4-6]").min_address(), a("2001:db8::4"));
    }

    #[test]
    fn sampling_is_within_range() {
        let range = r("2001:db8::?:?");
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(range.contains(range.sample(&mut rng)));
        }
    }

    #[test]
    fn sampling_covers_all_values_eventually() {
        let range = r("::[0-3]");
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = HashSet::new();
        for _ in 0..200 {
            seen.insert(range.sample(&mut rng));
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn sampler_draws_distinct_dense() {
        let range = r("::?"); // 16 addresses
        let mut s = RangeSampler::new(range.clone());
        let mut rng = StdRng::seed_from_u64(3);
        let drawn = s.draw(&mut rng, 10, |_| false);
        assert_eq!(drawn.len(), 10);
        let uniq: HashSet<_> = drawn.iter().collect();
        assert_eq!(uniq.len(), 10);
        // Draw the rest; never repeats, exhausts at 16.
        let rest = s.draw(&mut rng, 100, |_| false);
        assert_eq!(rest.len(), 6);
    }

    #[test]
    fn sampler_respects_exclusion() {
        let range = r("::?");
        let mut s = RangeSampler::new(range);
        let mut rng = StdRng::seed_from_u64(3);
        // Exclude even last nybbles.
        let drawn = s.draw(&mut rng, 16, |addr| addr.nybble(31) % 2 == 0);
        assert_eq!(drawn.len(), 8);
        assert!(drawn.iter().all(|a| a.nybble(31) % 2 == 1));
    }

    #[test]
    fn sampler_sparse_regime() {
        let range = r("2001:db8::?:?:?:?"); // 16^16 addresses
        let mut s = RangeSampler::new(range.clone());
        let mut rng = StdRng::seed_from_u64(3);
        let drawn = s.draw(&mut rng, 1000, |_| false);
        assert_eq!(drawn.len(), 1000);
        let uniq: HashSet<_> = drawn.iter().collect();
        assert_eq!(uniq.len(), 1000);
        assert!(drawn.iter().all(|a| range.contains(*a)));
    }

    #[test]
    fn mask_words_round_trip() {
        for s in [
            "2001:db8::?:100?",
            "::",
            "2001:db8::[1-2,8-a]",
            "?:2::3:?",
        ] {
            let range = r(s);
            let rebuilt = Range::from_mask_words(range.mask_words()).unwrap();
            assert_eq!(rebuilt, range, "round trip of {s}");
            assert_eq!(rebuilt.mask_words(), range.mask_words());
            // The derived caches must match too: subset/contains behave
            // identically on the rebuilt range.
            assert!(rebuilt.packed_masks().is_subset(&range.packed_masks()));
        }
        // An empty per-position set is rejected, not asserted on.
        let mut words = r("::").mask_words();
        words[7] = 0;
        assert!(Range::from_mask_words(words).is_none());
    }

    #[test]
    fn display_roundtrips_through_parse() {
        for s in [
            "2001:db8::?:100?",
            "::",
            "2001:db8::[1-2,8-a]",
            "?:2::3:?",
            "2001:db8:0:?::5",
        ] {
            let range = r(s);
            let printed = range.to_string();
            assert_eq!(r(&printed), range, "roundtrip of {s} via {printed}");
        }
    }
}
