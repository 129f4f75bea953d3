//! Dense bitsets over [`StateId`]s.
//!
//! Region analysis and cover checking are dominated by membership tests
//! and sweeps over subsets of the state space. A `Vec<bool>` mask costs a
//! byte per state and defeats vectorization; a sorted `Vec<StateId>`
//! costs a binary search per query. [`BitSet`] packs the same information
//! into `u64` blocks: bit `i` of word `i / 64` is state `StateId(i)`,
//! giving O(1) membership, cache-friendly unions, and word-at-a-time
//! iteration.
//!
//! [`BitSlice`] is the borrowed form, a `Copy` view of `words` laid out
//! the same way. Analyses that keep many sets (one per region) store them
//! side by side in one word arena and hand out views into it, so a table
//! of sets costs one allocation instead of one per set.

use crate::graph::StateId;

/// A fixed-domain dense bitset over state ids `0..len`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set over the domain `0..len`.
    pub fn new(len: usize) -> Self {
        BitSet { words: vec![0; len.div_ceil(64)], len }
    }

    /// Builds a set over `0..len` from the given members.
    pub fn from_ids(len: usize, ids: impl IntoIterator<Item = StateId>) -> Self {
        let mut set = BitSet::new(len);
        for s in ids {
            set.insert(s);
        }
        set
    }

    /// The domain size (number of addressable states, not members).
    pub fn domain_len(&self) -> usize {
        self.len
    }

    /// Adds `s` to the set.
    ///
    /// # Panics
    ///
    /// Panics if `s` is outside the domain.
    pub fn insert(&mut self, s: StateId) {
        let i = s.index();
        assert!(i < self.len, "state {i} outside bitset domain {}", self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Removes `s` from the set.
    pub fn remove(&mut self, s: StateId) {
        let i = s.index();
        if i < self.len {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Whether `s` is a member. Out-of-domain ids are never members.
    pub fn contains(&self, s: StateId) -> bool {
        self.as_slice().contains(s)
    }

    /// Number of members.
    pub fn count(&self) -> usize {
        self.as_slice().count()
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Adds every member of `other` (domains must match).
    ///
    /// # Panics
    ///
    /// Panics if the domains differ.
    pub fn union_with<'a>(&mut self, other: impl Into<BitSlice<'a>>) {
        let other = other.into();
        assert_eq!(self.len, other.len, "bitset domain mismatch");
        for (w, o) in self.words.iter_mut().zip(other.words) {
            *w |= o;
        }
    }

    /// Whether the sets share any member (domains must match).
    pub fn intersects<'a>(&self, other: impl Into<BitSlice<'a>>) -> bool {
        self.as_slice().intersects(other)
    }

    /// The raw `u64` blocks, low states first.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Members in ascending state-id order, word at a time.
    pub fn iter(&self) -> impl Iterator<Item = StateId> + '_ {
        self.as_slice().iter()
    }

    /// The set as a borrowed view.
    pub fn as_slice(&self) -> BitSlice<'_> {
        BitSlice { words: &self.words, len: self.len }
    }
}

/// A borrowed, read-only view of a bitset over state ids `0..len`: the
/// same word layout as [`BitSet`], usually a window into a larger word
/// arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitSlice<'a> {
    words: &'a [u64],
    len: usize,
}

impl<'a> BitSlice<'a> {
    /// A view of `words` as a set over `0..len`.
    ///
    /// # Panics
    ///
    /// Panics unless `words` holds exactly `len.div_ceil(64)` blocks.
    pub fn new(words: &'a [u64], len: usize) -> Self {
        assert_eq!(words.len(), len.div_ceil(64), "bitset view of the wrong width");
        BitSlice { words, len }
    }

    /// Whether `s` is a member. Out-of-domain ids are never members.
    pub fn contains(self, s: StateId) -> bool {
        let i = s.index();
        i < self.len && self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of members.
    pub fn count(self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the sets share any member (domains must match).
    pub fn intersects<'b>(self, other: impl Into<BitSlice<'b>>) -> bool {
        self.words.iter().zip(other.into().words).any(|(a, b)| a & b != 0)
    }

    /// The raw `u64` blocks, low states first.
    pub fn words(self) -> &'a [u64] {
        self.words
    }

    /// Members in ascending state-id order, word at a time.
    pub fn iter(self) -> impl Iterator<Item = StateId> + 'a {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(StateId::new(wi * 64 + bit))
            })
        })
    }
}

impl<'a> From<&'a BitSet> for BitSlice<'a> {
    fn from(set: &'a BitSet) -> Self {
        set.as_slice()
    }
}

impl FromIterator<StateId> for BitSet {
    /// Collects into a set whose domain is the smallest multiple of one
    /// word covering the largest member.
    fn from_iter<I: IntoIterator<Item = StateId>>(iter: I) -> Self {
        let ids: Vec<StateId> = iter.into_iter().collect();
        let len = ids.iter().map(|s| s.index() + 1).max().unwrap_or(0);
        BitSet::from_ids(len, ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut set = BitSet::new(130);
        assert!(set.is_empty());
        for i in [0, 63, 64, 65, 129] {
            set.insert(StateId::new(i));
        }
        assert_eq!(set.count(), 5);
        assert!(set.contains(StateId::new(64)));
        assert!(!set.contains(StateId::new(1)));
        assert!(!set.contains(StateId::new(1000)), "out of domain is absent");
        set.remove(StateId::new(64));
        assert!(!set.contains(StateId::new(64)));
        assert_eq!(set.count(), 4);
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let members = [3usize, 17, 63, 64, 127, 128];
        let set = BitSet::from_ids(200, members.iter().map(|&i| StateId::new(i)));
        let out: Vec<usize> = set.iter().map(|s| s.index()).collect();
        assert_eq!(out, members);
    }

    #[test]
    fn union_and_intersection() {
        let a = BitSet::from_ids(70, [0, 3, 65].map(StateId::new));
        let mut b = BitSet::from_ids(70, [3, 66].map(StateId::new));
        assert!(a.intersects(&b));
        b.union_with(&a);
        assert_eq!(b.count(), 4);
        let disjoint = BitSet::from_ids(70, [9].map(StateId::new));
        assert!(!a.intersects(&disjoint));
    }

    #[test]
    fn words_layout() {
        let set = BitSet::from_ids(128, [0, 64].map(StateId::new));
        assert_eq!(set.words(), &[1, 1]);
    }

    #[test]
    fn slices_view_the_same_members() {
        let set = BitSet::from_ids(130, [1, 64, 129].map(StateId::new));
        let view = set.as_slice();
        assert_eq!(view, BitSlice::new(set.words(), 130));
        assert_eq!(view.iter().collect::<Vec<_>>(), set.iter().collect::<Vec<_>>());
        assert_eq!(view.count(), 3);
        assert!(view.contains(StateId::new(129)) && !view.contains(StateId::new(130)));
        let mut grown = BitSet::new(130);
        grown.union_with(view);
        assert_eq!(grown, set);
        assert!(grown.intersects(view) && !BitSet::new(130).as_slice().intersects(&set));
    }

    #[test]
    #[should_panic(expected = "outside bitset domain")]
    fn out_of_domain_insert_panics() {
        BitSet::new(10).insert(StateId::new(10));
    }
}
