//! Incremental best-growth selection: a tournament tree over [`SelectKey`]s
//! that replicates the reference selection scan's RNG draw stream *exactly*.
//!
//! ## What the scan does
//!
//! The reference scan (`scan_reference`, compiled only for tests) walks
//! the key array in slot order carrying a running best. Each ready key
//! compares against the running best with [`SelectKey::preference`]:
//!
//! * `Greater` — the key becomes the new running best, tie count resets to 1;
//! * `Equal`  — the tie count increments to `t` and the scan draws
//!   `bounded_draw(rng, t)`, adopting this slot as the winner on 0 (a
//!   reservoir over scan order, uniform among exact ties);
//! * `Less`   — skipped.
//!
//! The draws therefore depend on the full *prefix-maximum structure* of the
//! array, not just the globally best key: every maximal run of slots tying
//! the running best — an **era** — contributes `count - 1` draws with bounds
//! `2..=count`, in slot order, even when a later era dethrones it. Replaying
//! that stream bit-for-bit is the determinism obligation here: the run RNG
//! is shared with final-growth sampling, so one missing or reordered draw
//! changes every downstream target.
//!
//! ## How the tree replicates it
//!
//! A padded power-of-two tournament tree stores, per node, the best key in
//! its segment and how many slots tie it. Point updates are O(log N).
//! Selection walks the tree left-to-right with the running best, *merging*
//! whole subtrees whose best equals the running best (their tie count is
//! known without descending) and *skipping* subtrees whose best is worse —
//! descending only where a new era begins. That yields the exact era
//! sequence `(key₁, c₁), …, (keyₘ, cₘ)` of the scan at cost
//! O((m + 1) · log N) instead of O(N); the draws are then replayed from the
//! era counts alone, and the winner (the reservoir survivor of the final
//! era) is mapped back to its slot index by an ordinal descent.
//!
//! The draws themselves are irreducible — their number and bounds are
//! pinned by the scan's semantics — so a round's selection cost is
//! O(era structure) + O(ties of the running best), the latter typically
//! dominated by dense singleton populations whose cached growths tie
//! exactly.
//!
//! ## How the equivalence is checked
//!
//! In this crate's unit-test builds the engine runs `scan_reference` on a
//! clone of the run RNG before every selection and asserts that the tree
//! picks the same slot and leaves the RNG in the same state, so every
//! unit test that steps a session checks the tree round by round.
//! Release builds carry neither the scan nor the check.

use crate::draw::bounded_draw;

/// Compact per-slot copy of a cached growth's selection inputs (seed
/// count and range size), held in the [`SelectTree`]'s leaves, one per
/// slot.
///
/// Selection visits keys, not slots; reading the full `Slot` (cluster
/// range + cached growth range, hundreds of bytes) per visit would make
/// selection memory-bound. `size == 0` marks a slot with no selectable
/// growth (stale, exhausted, or dead) — real ranges always have
/// size ≥ 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SelectKey {
    pub(crate) count: u64,
    pub(crate) size: u128,
}

impl SelectKey {
    pub(crate) const NONE: SelectKey = SelectKey { count: 0, size: 0 };

    pub(crate) fn is_ready(&self) -> bool {
        self.size != 0
    }

    /// Must order exactly like `Growth::preference` on the source
    /// growths: the selection's comparison results — including which
    /// comparisons come out `Equal` and therefore draw from the shared
    /// run RNG — decide the whole downstream target stream.
    ///
    /// `Equal` is a true equivalence on ready keys: equal density plus
    /// equal size forces equal count, so two keys compare `Equal` exactly
    /// when they are component-wise equal. The tree's tie counting relies
    /// on that (`==` and `preference(..) == Equal` agree).
    pub(crate) fn preference(&self, other: &SelectKey) -> core::cmp::Ordering {
        sixgen_addr::compare_density(self.count, self.size, other.count, other.size)
            .then_with(|| other.size.cmp(&self.size))
    }
}

/// One tournament-tree node: the best ready key in the segment and the
/// number of slots tying it (0 ⟺ no ready key in the segment).
#[derive(Debug, Clone, Copy)]
struct NodeEntry {
    key: SelectKey,
    ties: u64,
}

impl NodeEntry {
    const EMPTY: NodeEntry = NodeEntry {
        key: SelectKey::NONE,
        ties: 0,
    };

    fn merge(self, right: NodeEntry) -> NodeEntry {
        if self.ties == 0 {
            return right;
        }
        if right.ties == 0 {
            return self;
        }
        match self.key.preference(&right.key) {
            core::cmp::Ordering::Greater => self,
            core::cmp::Ordering::Less => right,
            core::cmp::Ordering::Equal => NodeEntry {
                key: self.key,
                ties: self.ties + right.ties,
            },
        }
    }
}

/// Tournament tree over the slot key array. Slot count is fixed at
/// construction (the engine never adds slots after initialization; dead
/// slots are set to [`SelectKey::NONE`]).
#[derive(Debug)]
pub(crate) struct SelectTree {
    /// Leaf capacity, a power of two ≥ the slot count (≥ 1).
    cap: usize,
    /// 1-indexed implicit binary tree: `nodes[1]` is the root, leaves are
    /// `nodes[cap..cap + cap]`; leaf `cap + i` holds slot `i`'s key.
    /// Padding leaves past the slot count stay `EMPTY` forever.
    nodes: Vec<NodeEntry>,
}

impl SelectTree {
    /// Builds the tree from the initial key array in O(N).
    pub(crate) fn from_keys(keys: &[SelectKey]) -> SelectTree {
        let cap = keys.len().next_power_of_two().max(1);
        let mut nodes = vec![NodeEntry::EMPTY; 2 * cap];
        for (i, &key) in keys.iter().enumerate() {
            nodes[cap + i] = NodeEntry {
                key,
                ties: u64::from(key.is_ready()),
            };
        }
        for i in (1..cap).rev() {
            nodes[i] = nodes[2 * i].merge(nodes[2 * i + 1]);
        }
        SelectTree { cap, nodes }
    }

    /// Replaces slot `i`'s key and rebalances the path to the root.
    pub(crate) fn set(&mut self, i: usize, key: SelectKey) {
        let mut node = self.cap + i;
        self.nodes[node] = NodeEntry {
            key,
            ties: u64::from(key.is_ready()),
        };
        while node > 1 {
            node /= 2;
            self.nodes[node] = self.nodes[2 * node].merge(self.nodes[2 * node + 1]);
        }
    }

    /// How many slots tie the best ready key: a lower bound, plus one, on
    /// the draws the next [`select`](Self::select) replays.
    pub(crate) fn root_ties(&self) -> u64 {
        self.nodes[1].ties
    }

    /// The best ready key among slots `0..i`, or `None` when none of them
    /// is ready: the running best the reference scan carries when it
    /// reaches slot `i`. One merge per level, O(log N).
    pub(crate) fn best_before(&self, i: usize) -> Option<SelectKey> {
        let mut node = self.cap + i;
        let mut best = NodeEntry::EMPTY;
        while node > 1 {
            if node % 2 == 1 {
                best = self.nodes[node - 1].merge(best);
            }
            node /= 2;
        }
        (best.ties > 0).then_some(best.key)
    }

    /// Appends the prefix-maximum eras of `node`'s segment (in slot order)
    /// to `eras`, given the eras already accumulated to its left.
    fn eras_rec(&self, node: usize, eras: &mut Vec<(SelectKey, u64)>) {
        let entry = self.nodes[node];
        if entry.ties == 0 {
            return;
        }
        if let Some(last) = eras.last_mut() {
            match entry.key.preference(&last.0) {
                // Everything in this subtree is worse than the running
                // best: the scan would skip every element.
                core::cmp::Ordering::Less => return,
                // The subtree's best ties the running best, and nothing
                // inside beats it — every tying element extends the
                // current era, the rest is skipped.
                core::cmp::Ordering::Equal => {
                    last.1 += entry.ties;
                    return;
                }
                core::cmp::Ordering::Greater => {}
            }
        }
        if node >= self.cap {
            eras.push((entry.key, entry.ties));
            return;
        }
        self.eras_rec(2 * node, eras);
        self.eras_rec(2 * node + 1, eras);
    }

    /// The slot index of the `ordinal`-th slot (1-indexed, slot order)
    /// whose key equals the tree's global best.
    fn find_ordinal(&self, mut ordinal: u64) -> usize {
        let best = self.nodes[1].key;
        let mut node = 1;
        while node < self.cap {
            let left = self.nodes[2 * node];
            let left_ties = if left.ties > 0 && left.key == best {
                left.ties
            } else {
                0
            };
            if ordinal <= left_ties {
                node *= 2;
            } else {
                ordinal -= left_ties;
                node = 2 * node + 1;
            }
        }
        node - self.cap
    }

    /// Selects the round's best slot, drawing tie-breaks from `next_word`
    /// in exactly the order and with exactly the bounds of the reference
    /// scan. Returns `None` when no slot is ready.
    pub(crate) fn select(&self, mut next_word: impl FnMut() -> u64) -> Option<usize> {
        if self.nodes[1].ties == 0 {
            return None;
        }
        let mut eras: Vec<(SelectKey, u64)> = Vec::with_capacity(8);
        self.eras_rec(1, &mut eras);
        debug_assert!(!eras.is_empty());
        // Replay the scan's draw stream: era j of count c contributes
        // draws with bounds 2..=c. Only the final era (the global best)
        // decides the winner — its reservoir survivor is the last ordinal
        // whose draw came up 0, or the era's first slot.
        let final_era = eras.len() - 1;
        let mut winner_ordinal = 1;
        for (j, &(_, count)) in eras.iter().enumerate() {
            if j == final_era {
                for t in 2..=count {
                    if bounded_draw(&mut next_word, t) == 0 {
                        winner_ordinal = t;
                    }
                }
            } else {
                for t in 2..=count {
                    bounded_draw(&mut next_word, t);
                }
            }
        }
        Some(self.find_ordinal(winner_ordinal))
    }

    /// Every leaf's key in slot order, padding leaves included (they hold
    /// [`SelectKey::NONE`], which the scan skips).
    #[cfg(test)]
    pub(crate) fn keys(&self) -> Vec<SelectKey> {
        self.nodes[self.cap..].iter().map(|leaf| leaf.key).collect()
    }
}

/// The reference selection scan the tree must reproduce draw for draw:
/// a reservoir over slot order that draws `bounded_draw(next_word, t)`
/// for the `t`-th slot tying the running best.
#[cfg(test)]
pub(crate) fn scan_reference(
    keys: &[SelectKey],
    mut next_word: impl FnMut() -> u64,
) -> Option<usize> {
    let mut best_index: Option<usize> = None;
    let mut best_key = SelectKey::NONE;
    let mut ties: u64 = 0;
    for (i, key) in keys.iter().enumerate() {
        if !key.is_ready() {
            continue;
        }
        match best_index {
            None => {
                best_index = Some(i);
                best_key = *key;
                ties = 1;
            }
            Some(_) => match key.preference(&best_key) {
                core::cmp::Ordering::Greater => {
                    best_index = Some(i);
                    best_key = *key;
                    ties = 1;
                }
                core::cmp::Ordering::Equal => {
                    ties += 1;
                    if bounded_draw(&mut next_word, ties) == 0 {
                        best_index = Some(i);
                    }
                }
                core::cmp::Ordering::Less => {}
            },
        }
    }
    best_index
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic word stream that records how many words were
    /// consumed — the draw-stream fingerprint the tree must match.
    struct Stream {
        state: u64,
        consumed: u64,
    }

    impl Stream {
        fn new(seed: u64) -> Stream {
            Stream {
                state: seed,
                consumed: 0,
            }
        }

        fn next(&mut self) -> u64 {
            self.consumed += 1;
            self.state = crate::engine::splitmix64(self.state);
            self.state
        }
    }

    fn key(count: u64, size: u128) -> SelectKey {
        SelectKey { count, size }
    }

    /// Pseudo-random key arrays with heavy exact ties, interleaved NONEs,
    /// and value plateaus — the prefix-max era structure the engine
    /// produces. Checked: same winner, same number of words consumed,
    /// same post-stream state, across fresh builds and incremental edits.
    #[test]
    fn tree_matches_scan_reference_randomized() {
        let mut gen = 0xD15EA5Eu64;
        let mut word = move || {
            gen = crate::engine::splitmix64(gen);
            gen
        };
        for trial in 0..200u64 {
            let n = 1 + (word() % 97) as usize;
            let mut keys: Vec<SelectKey> = (0..n)
                .map(|_| {
                    if word() % 4 == 0 {
                        SelectKey::NONE
                    } else {
                        // Small value pools force massive tie sets and
                        // multi-era prefix structures.
                        key(1 + word() % 3, (1 + word() % 4) as u128)
                    }
                })
                .collect();
            let mut tree = SelectTree::from_keys(&keys);

            for edit in 0..6 {
                let mut scan_stream = Stream::new(trial * 31 + edit);
                let mut tree_stream = Stream::new(trial * 31 + edit);
                let expected = scan_reference(&keys, || scan_stream.next());
                let got = tree.select(|| tree_stream.next());
                assert_eq!(got, expected, "winner diverged (trial {trial}, edit {edit})");
                assert_eq!(
                    tree_stream.consumed, scan_stream.consumed,
                    "draw count diverged (trial {trial}, edit {edit})"
                );
                assert_eq!(
                    tree_stream.state, scan_stream.state,
                    "post-selection RNG state diverged (trial {trial}, edit {edit})"
                );

                // Point edit: kill, revive, or change one slot.
                let i = (word() % n as u64) as usize;
                let new_key = match word() % 3 {
                    0 => SelectKey::NONE,
                    1 => key(1 + word() % 3, (1 + word() % 4) as u128),
                    _ => key(1 + word() % 5, (1 + word() % 8) as u128),
                };
                keys[i] = new_key;
                tree.set(i, new_key);
            }
        }
    }

    #[test]
    fn empty_and_all_none_select_nothing() {
        let tree = SelectTree::from_keys(&[]);
        assert_eq!(tree.select(|| panic!("no draws expected")), None);
        let tree = SelectTree::from_keys(&[SelectKey::NONE; 5]);
        assert_eq!(tree.select(|| panic!("no draws expected")), None);
    }

    #[test]
    fn single_ready_slot_draws_nothing() {
        let mut keys = vec![SelectKey::NONE; 9];
        keys[4] = key(3, 16);
        let tree = SelectTree::from_keys(&keys);
        assert_eq!(tree.select(|| panic!("a lone slot never draws")), Some(4));
    }

    /// `best_before(i)` is the running best of a scan over slots `0..i`.
    #[test]
    fn best_before_is_the_prefix_running_best() {
        let mut gen = 0xB0A7u64;
        let mut word = move || {
            gen = crate::engine::splitmix64(gen);
            gen
        };
        for _ in 0..50 {
            let n = 1 + (word() % 70) as usize;
            let keys: Vec<SelectKey> = (0..n)
                .map(|_| match word() % 3 {
                    0 => SelectKey::NONE,
                    _ => key(1 + word() % 4, (1 + word() % 3) as u128),
                })
                .collect();
            let tree = SelectTree::from_keys(&keys);
            for i in 0..n {
                let expected = keys[..i].iter().filter(|k| k.is_ready()).fold(
                    None,
                    |best: Option<SelectKey>, &k| match best {
                        Some(b) if k.preference(&b) != core::cmp::Ordering::Greater => Some(b),
                        _ => Some(k),
                    },
                );
                assert_eq!(tree.best_before(i), expected, "slots 0..{i} of {keys:?}");
            }
        }
    }

    /// Earlier eras that lose to a later one must still burn their draws:
    /// [5,5,9] draws once (bound 2) even though 9 wins outright.
    #[test]
    fn dethroned_era_still_consumes_draws() {
        let keys = vec![key(5, 16), key(5, 16), key(9, 16)];
        let tree = SelectTree::from_keys(&keys);
        let mut stream = Stream::new(7);
        assert_eq!(tree.select(|| stream.next()), Some(2));
        assert_eq!(stream.consumed, 1, "one draw for the dethroned tie");
    }
}
