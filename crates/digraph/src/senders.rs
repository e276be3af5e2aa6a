//! Agent-set representations that scale past the 64-agent bitmask.
//!
//! The original hot path packed every in-neighborhood into a single
//! `u64` ([`AgentSet`]), which silently capped the whole system at
//! `n ≤ 64`: querying agent 64 of such a mask returned `false` instead
//! of failing. [`SenderSet`] lifts the cap without giving up the inline
//! fast path:
//!
//! * [`SenderSet::Mask`] — one `u64`, agents `0..64`. Zero indirection;
//!   identical to the old representation bit for bit.
//! * [`SenderSet::Words`] — a borrowed word array, bit `j` of word `w`
//!   ⇔ agent `64·w + j`. Arbitrary `n`, no allocation (the words are
//!   borrowed from a [`WordSet`] owned elsewhere).
//! * [`SenderSet::Sorted`] — a borrowed CSR row: strictly ascending
//!   agent ids. This is what [`crate::CsrDigraph`] hands out, again
//!   without allocating.
//!
//! All three variants iterate in **ascending agent order**, so any fold
//! over a set is bit-identical across representations — the equivalence
//! the large-`n` executor's identity suite pins down.
//!
//! # Contract
//!
//! A `SenderSet` never *silently* ignores an out-of-range query: on the
//! `Mask` fast path, [`SenderSet::contains`] with `agent ≥ 64` is a
//! **debug assertion** (the caller is holding an agent id the
//! representation cannot express — the exact bug class this type was
//! introduced to eliminate). The wide variants answer exactly.

use crate::graph::BitIter;
use crate::{Agent, AgentSet};

/// A set of sender/agent ids in one of three borrowed representations.
///
/// See the module docs for the representation contract. Use
/// [`SenderSet::iter`] for folds (ascending order, identical across
/// variants) and [`SenderSet::contains`] for membership.
#[derive(Debug, Clone, Copy)]
pub enum SenderSet<'a> {
    /// Inline `u64` bitmask — agents `0..64` only (the fast path).
    Mask(AgentSet),
    /// Borrowed word-array bitmask: bit `j` of `words[w]` ⇔ agent
    /// `64·w + j`.
    Words(&'a [u64]),
    /// Borrowed strictly-ascending agent-id slice (a CSR row).
    Sorted(&'a [u32]),
}

impl<'a> SenderSet<'a> {
    /// Whether `agent` is in the set.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `agent < 64` on the [`SenderSet::Mask`] fast
    /// path: a query the mask cannot represent is a logic error in the
    /// caller, not an absent member (release builds answer `false`, the
    /// pre-`SenderSet` behaviour).
    #[inline]
    #[must_use]
    pub fn contains(&self, agent: Agent) -> bool {
        match self {
            SenderSet::Mask(m) => {
                debug_assert!(
                    agent < 64,
                    "agent {agent} queried against a 64-bit mask sender set; \
                     use the Words/Sorted representation for n > 64"
                );
                agent < 64 && m & (1u64 << agent) != 0
            }
            SenderSet::Words(words) => {
                let w = agent / 64;
                w < words.len() && words[w] & (1u64 << (agent % 64)) != 0
            }
            SenderSet::Sorted(ids) => {
                u32::try_from(agent).is_ok_and(|a| ids.binary_search(&a).is_ok())
            }
        }
    }

    /// The number of agents in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            SenderSet::Mask(m) => m.count_ones() as usize,
            SenderSet::Words(words) => words.iter().map(|w| w.count_ones() as usize).sum(),
            SenderSet::Sorted(ids) => ids.len(),
        }
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        match self {
            SenderSet::Mask(m) => *m == 0,
            SenderSet::Words(words) => words.iter().all(|&w| w == 0),
            SenderSet::Sorted(ids) => ids.is_empty(),
        }
    }

    /// The smallest agent in the set, if any.
    #[must_use]
    pub fn first(&self) -> Option<Agent> {
        match self {
            SenderSet::Mask(m) => (*m != 0).then(|| m.trailing_zeros() as Agent),
            SenderSet::Words(words) => words
                .iter()
                .enumerate()
                .find(|(_, &w)| w != 0)
                .map(|(i, &w)| i * 64 + w.trailing_zeros() as usize),
            SenderSet::Sorted(ids) => ids.first().map(|&j| j as Agent),
        }
    }

    /// Iterates the agents in **ascending** order (all variants).
    /// Takes `self` by value (the set is `Copy`); the iterator borrows
    /// the underlying words/row, not the set value itself.
    #[must_use]
    pub fn iter(self) -> SenderIter<'a> {
        SenderIter {
            inner: match self {
                SenderSet::Mask(m) => IterInner::Mask(BitIter(m)),
                SenderSet::Words(words) => IterInner::Words {
                    words,
                    word: 0,
                    rem: words.first().copied().unwrap_or(0),
                },
                SenderSet::Sorted(ids) => IterInner::Sorted(ids.iter()),
            },
        }
    }

    /// The set as a plain `u64` mask, if it fits (every member `< 64`).
    /// The `Mask` variant always fits; wide variants fit iff no high
    /// agent is present.
    #[must_use]
    pub fn as_mask(&self) -> Option<AgentSet> {
        match self {
            SenderSet::Mask(m) => Some(*m),
            SenderSet::Words(words) => match words {
                [] => Some(0),
                [w] => Some(*w),
                [w, rest @ ..] => rest.iter().all(|&x| x == 0).then_some(*w),
            },
            SenderSet::Sorted(ids) => {
                let mut m = 0u64;
                for &j in *ids {
                    if j >= 64 {
                        return None;
                    }
                    m |= 1u64 << j;
                }
                Some(m)
            }
        }
    }
}

/// The low `k` bits set (`k < 64`).
fn low_bits(k: usize) -> u64 {
    debug_assert!(k < 64);
    (1u64 << k) - 1
}

impl From<AgentSet> for SenderSet<'_> {
    fn from(mask: AgentSet) -> Self {
        SenderSet::Mask(mask)
    }
}

impl<'a> From<&'a WordSet> for SenderSet<'a> {
    fn from(set: &'a WordSet) -> Self {
        SenderSet::Words(set.words())
    }
}

/// Ascending iterator over a [`SenderSet`]; see [`SenderSet::iter`].
#[derive(Debug, Clone)]
pub struct SenderIter<'a> {
    inner: IterInner<'a>,
}

#[derive(Debug, Clone)]
enum IterInner<'a> {
    Mask(BitIter),
    Words {
        words: &'a [u64],
        word: usize,
        rem: u64,
    },
    Sorted(std::slice::Iter<'a, u32>),
}

impl Iterator for SenderIter<'_> {
    type Item = Agent;

    #[inline]
    fn next(&mut self) -> Option<Agent> {
        match &mut self.inner {
            IterInner::Mask(bits) => bits.next(),
            IterInner::Words { words, word, rem } => loop {
                if *rem != 0 {
                    let j = rem.trailing_zeros() as usize;
                    *rem &= *rem - 1;
                    return Some(*word * 64 + j);
                }
                *word += 1;
                if *word >= words.len() {
                    return None;
                }
                *rem = words[*word];
            },
            IterInner::Sorted(ids) => ids.next().map(|&j| j as Agent),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match &self.inner {
            IterInner::Mask(bits) => bits.0.count_ones() as usize,
            IterInner::Words { words, word, rem } => {
                rem.count_ones() as usize
                    + words
                        .iter()
                        .skip(*word + 1)
                        .map(|w| w.count_ones() as usize)
                        .sum::<usize>()
            }
            IterInner::Sorted(ids) => ids.len(),
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for SenderIter<'_> {}

/// An **owned** agent set over arbitrarily many agents: the word-array
/// generalisation of the `u64` [`AgentSet`], used wherever a set must
/// outlive a borrow (hand-built inboxes at any `n`).
///
/// Borrow it as a [`SenderSet::Words`] via [`WordSet::as_sender_set`]
/// (or `From<&WordSet>`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WordSet {
    words: Vec<u64>,
}

impl WordSet {
    /// The empty set with capacity for agents `0..n` (rounded up to the
    /// containing word; inserting beyond grows automatically).
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        WordSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// The set `{0, …, n−1}`.
    #[must_use]
    pub fn full(n: usize) -> Self {
        let mut s = Self::with_capacity(n);
        for w in 0..n / 64 {
            s.words[w] = u64::MAX;
        }
        if !n.is_multiple_of(64) {
            s.words[n / 64] = low_bits(n % 64);
        }
        s
    }

    /// Builds the set from a `u64` mask (agents `0..64`).
    #[must_use]
    pub fn from_mask(mask: AgentSet) -> Self {
        WordSet { words: vec![mask] }
    }

    /// Inserts `agent`, growing the word array as needed. Returns
    /// whether the agent was newly inserted.
    pub fn insert(&mut self, agent: Agent) -> bool {
        let w = agent / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let bit = 1u64 << (agent % 64);
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        fresh
    }

    /// Removes `agent` if present. Returns whether it was present.
    pub fn remove(&mut self, agent: Agent) -> bool {
        let w = agent / 64;
        if w >= self.words.len() {
            return false;
        }
        let bit = 1u64 << (agent % 64);
        let had = self.words[w] & bit != 0;
        self.words[w] &= !bit;
        had
    }

    /// Whether `agent` is in the set.
    #[must_use]
    pub fn contains(&self, agent: Agent) -> bool {
        self.as_sender_set().contains(agent)
    }

    /// The number of agents in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.as_sender_set().len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.as_sender_set().is_empty()
    }

    /// The backing word array (bit `j` of word `w` ⇔ agent `64·w + j`).
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Borrows the set as a [`SenderSet::Words`].
    #[must_use]
    pub fn as_sender_set(&self) -> SenderSet<'_> {
        SenderSet::Words(&self.words)
    }

    /// Iterates the agents in ascending order.
    #[must_use]
    pub fn iter(&self) -> SenderIter<'_> {
        self.as_sender_set().iter()
    }
}

impl FromIterator<Agent> for WordSet {
    fn from_iter<I: IntoIterator<Item = Agent>>(iter: I) -> Self {
        let mut s = WordSet::default();
        for a in iter {
            s.insert(a);
        }
        s
    }
}

/// A round topology: anything that can hand out each agent's
/// in-neighborhood as a borrowed [`SenderSet`].
///
/// Implemented by the dense [`crate::Digraph`] (mask fast path,
/// `n ≤ 64`) and the sparse [`crate::CsrDigraph`] (CSR rows, arbitrary
/// `n`), so executors can be generic over the storage. Both hand out
/// sets that iterate in ascending agent order, keeping algorithm folds
/// bit-identical across storages.
pub trait RoundTopology: Sync {
    /// The number of agents.
    fn n(&self) -> usize;

    /// Agent `i`'s in-neighborhood (always contains `i` itself under
    /// the paper's self-loop convention).
    fn sender_set(&self, i: Agent) -> SenderSet<'_>;
}

impl RoundTopology for crate::Digraph {
    #[inline]
    fn n(&self) -> usize {
        self.n()
    }

    #[inline]
    fn sender_set(&self, i: Agent) -> SenderSet<'_> {
        crate::Digraph::sender_set(self, i)
    }
}

impl RoundTopology for crate::CsrDigraph {
    #[inline]
    fn n(&self) -> usize {
        self.n()
    }

    #[inline]
    fn sender_set(&self, i: Agent) -> SenderSet<'_> {
        crate::CsrDigraph::sender_set(self, i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_and_words_agree_below_64() {
        let mask: u64 = 0b1011_0110_0101;
        let owned = WordSet::from_mask(mask);
        let a = SenderSet::Mask(mask);
        let b = owned.as_sender_set();
        assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
        assert_eq!(a.len(), b.len());
        for agent in 0..64 {
            assert_eq!(a.contains(agent), b.contains(agent), "agent {agent}");
        }
        assert_eq!(a.as_mask(), Some(mask));
        assert_eq!(b.as_mask(), Some(mask));
    }

    #[test]
    fn sorted_rows_agree_with_words() {
        let ids: Vec<u32> = vec![0, 3, 63, 64, 65, 200];
        let owned: WordSet = ids.iter().map(|&j| j as usize).collect();
        let sorted = SenderSet::Sorted(&ids);
        assert_eq!(
            sorted.iter().collect::<Vec<_>>(),
            owned.iter().collect::<Vec<_>>()
        );
        assert!(sorted.contains(200) && owned.contains(200));
        assert!(!sorted.contains(199) && !owned.contains(199));
        assert_eq!(sorted.len(), 6);
        assert_eq!(sorted.first(), Some(0));
        assert_eq!(sorted.as_mask(), None, "agent 200 does not fit a u64");
    }

    #[test]
    fn agent_64_is_representable() {
        // The bug this module fixes: agent 64 used to vanish silently.
        let mut s = WordSet::with_capacity(65);
        assert!(s.insert(64));
        assert!(s.contains(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![64]);
        assert!(s.remove(64));
        assert!(s.is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "64-bit mask sender set")]
    fn mask_out_of_range_query_asserts() {
        let _ = SenderSet::Mask(u64::MAX).contains(64);
    }

    #[test]
    fn full_and_from_iter() {
        for n in [1usize, 63, 64, 65, 130] {
            let s = WordSet::full(n);
            assert_eq!(s.len(), n, "full({n})");
            assert_eq!(s.iter().collect::<Vec<_>>(), (0..n).collect::<Vec<_>>());
            assert!(!s.contains(n));
        }
    }

    #[test]
    fn first_and_empty() {
        assert_eq!(SenderSet::Mask(0).first(), None);
        assert!(SenderSet::Mask(0).is_empty());
        let w = [0u64, 0, 1 << 5];
        let s = SenderSet::Words(&w);
        assert_eq!(s.first(), Some(128 + 5));
        assert!(!s.is_empty());
        let empty: [u32; 0] = [];
        assert_eq!(SenderSet::Sorted(&empty).first(), None);
    }

    #[test]
    fn size_hints_are_exact() {
        let ids: Vec<u32> = vec![1, 64, 129];
        let s = SenderSet::Sorted(&ids);
        let mut it = s.iter();
        assert_eq!(it.size_hint(), (3, Some(3)));
        it.next();
        assert_eq!(it.size_hint(), (2, Some(2)));
        let owned: WordSet = [1usize, 64, 129].into_iter().collect();
        let mut it = owned.iter();
        assert_eq!(it.len(), 3);
        it.next();
        assert_eq!(it.size_hint(), (2, Some(2)));
    }
}
