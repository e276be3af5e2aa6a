//! Zero-allocation inbox views over a shared per-round message slate.
//!
//! The executor gathers every agent's message **once** per round into a
//! flat slate (one slot per agent) and hands each agent an [`Inbox`]: a
//! borrowed view of that slate restricted to the agent's in-neighbors.
//! Nothing is cloned and nothing is allocated per agent — stepping a
//! round is O(n) slate writes plus the algorithms' own reads.
//!
//! The sender restriction is a [`SenderSet`]: a round on a dense graph
//! hands in the classic `u64` in-neighborhood bitmask (the `Mask` fast
//! path, `n ≤ 64`), while a round on a sparse large-`n` graph hands in a
//! borrowed CSR row or word-array set — same `Inbox` API, no allocation,
//! and ascending iteration order on every representation so algorithm
//! folds are bit-identical across topologies.
//!
//! Unit tests and harnesses that want to hand-craft an inbox without an
//! executor use [`InboxBuffer`], the owned counterpart (no longer
//! capped at 64 senders).

use crate::Agent;
use consensus_digraph::{AgentSet, SenderIter, SenderSet, WordSet};

/// A borrowed view of the messages one agent receives in one round:
/// the sender set plus the round's shared message slate (`slate[j]` is
/// agent `j`'s broadcast).
///
/// The view is `Copy` (a [`SenderSet`] and a slice reference);
/// iteration yields `(sender, &message)` pairs in ascending sender
/// order, which always include the receiving agent's own message
/// (communication graphs have mandatory self-loops).
#[derive(Debug, Clone, Copy)]
pub struct Inbox<'a, M> {
    senders: SenderSet<'a>,
    slate: &'a [M],
}

impl<'a, M> Inbox<'a, M> {
    /// Creates the view of `slate` restricted to the `senders` bitmask
    /// (the `n ≤ 64` fast path). Bits at or beyond `slate.len()` are
    /// ignored.
    #[must_use]
    pub fn new(senders: AgentSet, slate: &'a [M]) -> Self {
        Inbox::from_senders(senders, slate)
    }

    /// Creates the view of `slate` restricted to an arbitrary
    /// [`SenderSet`] representation (mask, word array, or CSR row).
    /// Members at or beyond `slate.len()` are ignored.
    #[must_use]
    pub fn from_senders(senders: impl Into<SenderSet<'a>>, slate: &'a [M]) -> Self {
        let n = slate.len();
        let senders = match senders.into() {
            SenderSet::Mask(m) => {
                let valid = if n >= 64 { u64::MAX } else { (1u64 << n) - 1 };
                SenderSet::Mask(m & valid)
            }
            // A partial last word may keep stray bits ≥ n; `len`/`iter`
            // clamp them (ascending order puts them strictly last).
            SenderSet::Words(words) => SenderSet::Words(&words[..words.len().min(n.div_ceil(64))]),
            SenderSet::Sorted(ids) => {
                let k = ids.partition_point(|&j| (j as usize) < n);
                SenderSet::Sorted(&ids[..k])
            }
        };
        Inbox { senders, slate }
    }

    /// The senders of this inbox.
    ///
    /// The `Words` representation may report members at or beyond the
    /// slate length that the inbox itself ignores; use [`Inbox::len`] /
    /// [`Inbox::iter`] for the clamped view.
    #[inline]
    #[must_use]
    pub fn senders(&self) -> SenderSet<'a> {
        self.senders
    }

    /// The number of received messages.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        match self.senders {
            SenderSet::Words(words) => {
                let n = self.slate.len();
                let full = n / 64;
                let mut count: usize = words
                    .iter()
                    .take(full)
                    .map(|w| w.count_ones() as usize)
                    .sum();
                if !n.is_multiple_of(64) {
                    if let Some(&w) = words.get(full) {
                        count += (w & ((1u64 << (n % 64)) - 1)).count_ones() as usize;
                    }
                }
                count
            }
            s => s.len(),
        }
    }

    /// Whether the inbox is empty (never the case under the paper's
    /// self-loop convention).
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a message from `agent` was received.
    ///
    /// # Panics
    ///
    /// On the `u64`-mask fast path, querying an agent the mask cannot
    /// represent (`agent ≥ 64` while the round really has more agents)
    /// is a **debug assertion**: it is exactly the silent-`false` bug
    /// class that capped the system at 64 agents. Queries beyond the
    /// slate length are an ordinary `false` (no such agent this round).
    #[inline]
    #[must_use]
    pub fn contains(&self, agent: Agent) -> bool {
        agent < self.slate.len() && self.senders.contains(agent)
    }

    /// The message from `agent`, if one was received.
    #[inline]
    #[must_use]
    pub fn get(&self, agent: Agent) -> Option<&'a M> {
        if self.contains(agent) {
            Some(&self.slate[agent])
        } else {
            None
        }
    }

    /// The lowest-indexed `(sender, message)` pair.
    ///
    /// # Panics
    ///
    /// Panics if the inbox is empty.
    #[must_use]
    pub fn first(&self) -> (Agent, &'a M) {
        let j = self.senders.first().expect("first() on an empty inbox");
        assert!(j < self.slate.len(), "first() on an empty inbox");
        (j, &self.slate[j])
    }

    /// Iterates over `(sender, &message)` pairs in ascending sender
    /// order.
    #[must_use]
    pub fn iter(&self) -> InboxIter<'a, M> {
        InboxIter {
            inner: self.senders.iter(),
            slate: self.slate,
            remaining: self.len(),
        }
    }
}

impl<'a, M> IntoIterator for Inbox<'a, M> {
    type Item = (Agent, &'a M);
    type IntoIter = InboxIter<'a, M>;

    fn into_iter(self) -> InboxIter<'a, M> {
        self.iter()
    }
}

/// Iterator over the `(sender, &message)` pairs of an [`Inbox`].
///
/// `remaining` counts only in-slate senders; because every
/// representation iterates ascending, the first `remaining` items of
/// the underlying sender iterator are exactly the valid ones, so any
/// stray out-of-slate bits are never reached.
#[derive(Debug, Clone)]
pub struct InboxIter<'a, M> {
    inner: SenderIter<'a>,
    slate: &'a [M],
    remaining: usize,
}

impl<'a, M> Iterator for InboxIter<'a, M> {
    type Item = (Agent, &'a M);

    #[inline]
    fn next(&mut self) -> Option<(Agent, &'a M)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let j = self.inner.next().expect("sender count matches iterator");
        Some((j, &self.slate[j]))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<M> ExactSizeIterator for InboxIter<'_, M> {}

/// An owned inbox for hand-crafted deliveries (unit tests, harnesses):
/// a dense slate plus an owned sender set, viewable as an [`Inbox`].
///
/// Backed by a [`WordSet`], so sender ids are **not** capped at 64.
#[derive(Debug, Clone)]
pub struct InboxBuffer<M> {
    senders: WordSet,
    slate: Vec<M>,
}

impl<M: Clone> InboxBuffer<M> {
    /// Builds an inbox from explicit `(sender, message)` pairs. Slate
    /// slots for non-senders are filled with a clone of the first
    /// message (they are never read through the sender set).
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty or a sender appears twice.
    #[must_use]
    pub fn from_pairs(pairs: &[(Agent, M)]) -> Self {
        assert!(!pairs.is_empty(), "an inbox needs at least one message");
        let top = pairs.iter().map(|&(j, _)| j).max().expect("non-empty");
        let mut slate = vec![pairs[0].1.clone(); top + 1];
        let mut senders = WordSet::with_capacity(top + 1);
        for (j, msg) in pairs {
            assert!(!senders.contains(*j), "duplicate sender {j}");
            senders.insert(*j);
            slate[*j] = msg.clone();
        }
        InboxBuffer { senders, slate }
    }
}

impl<M> InboxBuffer<M> {
    /// Borrows the buffer as an [`Inbox`] view.
    #[must_use]
    pub fn as_inbox(&self) -> Inbox<'_, M> {
        Inbox::from_senders(&self.senders, &self.slate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_iterates_masked_ascending() {
        let slate = [10, 20, 30, 40];
        let inbox = Inbox::new(0b1011, &slate);
        let got: Vec<(usize, i32)> = inbox.iter().map(|(j, &m)| (j, m)).collect();
        assert_eq!(got, vec![(0, 10), (1, 20), (3, 40)]);
        assert_eq!(inbox.len(), 3);
        assert!(!inbox.is_empty());
        assert_eq!(inbox.first(), (0, &10));
        assert_eq!(inbox.get(3), Some(&40));
        assert_eq!(inbox.get(2), None);
        assert!(inbox.contains(1));
        assert!(!inbox.contains(2));
    }

    #[test]
    fn out_of_range_bits_are_ignored() {
        let slate = [1, 2];
        let inbox = Inbox::new(u64::MAX, &slate);
        assert_eq!(inbox.len(), 2);
        assert_eq!(inbox.senders().as_mask(), Some(0b11));
    }

    #[test]
    fn into_iterator_matches_iter() {
        let slate = [5, 6, 7];
        let inbox = Inbox::new(0b101, &slate);
        let a: Vec<_> = inbox.iter().collect();
        let b: Vec<_> = inbox.into_iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn buffer_from_pairs_roundtrips() {
        let buf = InboxBuffer::from_pairs(&[(1, "b"), (4, "e")]);
        let inbox = buf.as_inbox();
        let got: Vec<(usize, &str)> = inbox.iter().map(|(j, &m)| (j, m)).collect();
        assert_eq!(got, vec![(1, "b"), (4, "e")]);
    }

    #[test]
    #[should_panic(expected = "duplicate sender")]
    fn buffer_rejects_duplicates() {
        let _ = InboxBuffer::from_pairs(&[(2, 0.0), (2, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "at least one message")]
    fn buffer_rejects_empty() {
        let _ = InboxBuffer::<f64>::from_pairs(&[]);
    }

    /// The regression the whole refactor pins down: on the old
    /// `u64`-mask representation, agent 64 of a 65-agent round was
    /// unrepresentable and `contains(64)` silently returned `false`.
    /// The wide representations answer exactly.
    #[test]
    fn sixty_five_agent_round_is_exact() {
        let slate: Vec<f64> = (0..65).map(|j| j as f64).collect();
        let buf = InboxBuffer::from_pairs(&[(0, 0.0), (63, 63.0), (64, 64.0)]);
        let inbox = buf.as_inbox();
        assert!(inbox.contains(64), "agent 64 must be representable");
        assert_eq!(inbox.get(64), Some(&64.0));
        assert_eq!(inbox.len(), 3);
        let got: Vec<usize> = inbox.iter().map(|(j, _)| j).collect();
        assert_eq!(got, vec![0, 63, 64]);

        // Same round through a CSR row.
        let ids: Vec<u32> = vec![0, 63, 64];
        let csr = Inbox::from_senders(SenderSet::Sorted(&ids), &slate);
        assert!(csr.contains(64));
        assert_eq!(csr.get(64), Some(&64.0));
        assert_eq!(
            csr.iter().map(|(j, _)| j).collect::<Vec<_>>(),
            vec![0, 63, 64]
        );
    }

    /// On a genuinely large round, querying the mask fast path beyond
    /// its 64-bit range is a logic error, not an absent member.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "64-bit mask sender set")]
    fn mask_fast_path_rejects_out_of_range_query() {
        let slate: Vec<f64> = vec![0.0; 65];
        let inbox = Inbox::new(u64::MAX, &slate);
        let _ = inbox.contains(64);
    }

    #[test]
    fn words_with_partial_last_word_clamp_to_slate() {
        // 65-agent sender set viewed over a 65-slot slate, then over a
        // truncated 10-slot slate: stray bits ≥ 10 must vanish.
        let full = WordSet::full(65);
        let slate: Vec<i32> = (0..65).collect();
        let inbox = Inbox::from_senders(&full, &slate);
        assert_eq!(inbox.len(), 65);
        let short = &slate[..10];
        let clipped = Inbox::from_senders(&full, short);
        assert_eq!(clipped.len(), 10);
        assert!(!clipped.contains(10));
        assert_eq!(clipped.iter().count(), 10);
        assert_eq!(
            clipped.iter().map(|(j, _)| j).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
    }
}
