//! Classic averaging (convex combination) algorithms.
//!
//! These are the “deceptively simple” algorithms of Charron-Bost et
//! al. \[8\] (§2.2): each agent updates to a weighted average of the values
//! it received, with weights depending only on the current round's
//! inbox. They solve asymptotic consensus in every rooted network model,
//! are memoryless and anonymous, and have *continuous* consensus
//! functions (paper Theorem 2 of §2.2).

use std::borrow::Cow;

use crate::{Agent, Algorithm, Inbox, Point};

/// Plain averaging: `y_i ← mean of the received values` (uniform weights
/// over the inbox, self included).
///
/// In non-split models its per-round contraction is only `1 − 1/n` in the
/// worst case (\[7\]), far from the optimal `1/2` of the midpoint algorithm
/// — the bench harness shows this gap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeanValue;

impl<const D: usize> Algorithm<D> for MeanValue {
    type State = Point<D>;
    type Msg = Point<D>;

    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("mean-value")
    }

    fn init(&self, _agent: Agent, y0: Point<D>) -> Point<D> {
        y0
    }

    fn message(&self, state: &Point<D>) -> Point<D> {
        *state
    }

    #[inline]
    fn step(&self, _agent: Agent, state: &mut Point<D>, inbox: Inbox<'_, Point<D>>, _round: u64) {
        debug_assert!(!inbox.is_empty());
        let mut acc = Point::ZERO;
        for (_, p) in inbox {
            acc += *p;
        }
        *state = acc * (1.0 / inbox.len() as f64);
    }

    fn output(&self, state: &Point<D>) -> Point<D> {
        *state
    }
}

/// Averaging with a fixed self-weight: `y_i ← w·y_i + (1−w)·mean(received
/// from others)`. Falls back to keeping `y_i` when nothing else arrives.
///
/// `w = 1/2` is the classic “lazy” averaging; `w = 1/3` restricted to two
/// agents recovers [`crate::TwoAgentThirds`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelfWeightedAverage {
    self_weight: f64,
}

impl SelfWeightedAverage {
    /// Creates the rule with the given self-weight `w ∈ \[0, 1\]`.
    ///
    /// # Panics
    ///
    /// Panics if `w ∉ \[0, 1\]`.
    #[must_use]
    pub fn new(self_weight: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&self_weight),
            "self-weight must be in [0, 1]"
        );
        SelfWeightedAverage { self_weight }
    }

    /// The configured self-weight.
    #[must_use]
    pub fn self_weight(&self) -> f64 {
        self.self_weight
    }
}

impl<const D: usize> Algorithm<D> for SelfWeightedAverage {
    type State = Point<D>;
    type Msg = Point<D>;

    fn name(&self) -> Cow<'static, str> {
        Cow::Owned(format!("self-weighted-average(w={})", self.self_weight))
    }

    fn init(&self, _agent: Agent, y0: Point<D>) -> Point<D> {
        y0
    }

    fn message(&self, state: &Point<D>) -> Point<D> {
        *state
    }

    #[inline]
    fn step(&self, agent: Agent, state: &mut Point<D>, inbox: Inbox<'_, Point<D>>, _round: u64) {
        let mut acc = Point::ZERO;
        let mut count = 0usize;
        for (from, p) in inbox {
            if from != agent {
                acc += *p;
                count += 1;
            }
        }
        if count > 0 {
            *state = *state * self.self_weight + acc * ((1.0 - self.self_weight) / count as f64);
        }
    }

    fn output(&self, state: &Point<D>) -> Point<D> {
        *state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inbox1(vals: &[f64]) -> crate::InboxBuffer<Point<1>> {
        let pairs: Vec<(Agent, Point<1>)> = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| (i, Point([v])))
            .collect();
        crate::InboxBuffer::from_pairs(&pairs)
    }

    #[test]
    fn mean_of_inbox() {
        let alg = MeanValue;
        let mut s = alg.init(0, Point([3.0]));
        alg.step(0, &mut s, inbox1(&[3.0, 0.0, 6.0]).as_inbox(), 1);
        assert_eq!(<MeanValue as Algorithm<1>>::output(&alg, &s), Point([3.0]));
        alg.step(0, &mut s, inbox1(&[1.0, 3.0]).as_inbox(), 2);
        assert_eq!(<MeanValue as Algorithm<1>>::output(&alg, &s), Point([2.0]));
    }

    #[test]
    fn self_weight_half() {
        let alg = SelfWeightedAverage::new(0.5);
        let mut s = alg.init(0, Point([0.0]));
        alg.step(0, &mut s, inbox1(&[0.0, 1.0]).as_inbox(), 1);
        assert_eq!(
            <SelfWeightedAverage as Algorithm<1>>::output(&alg, &s),
            Point([0.5])
        );
    }

    #[test]
    fn self_weight_third_matches_two_agent_algorithm() {
        let a = SelfWeightedAverage::new(1.0 / 3.0);
        let b = crate::TwoAgentThirds;
        let mut sa = <SelfWeightedAverage as Algorithm<1>>::init(&a, 0, Point([0.2]));
        let mut sb = <crate::TwoAgentThirds as Algorithm<1>>::init(&b, 0, Point([0.2]));
        let inbox = inbox1(&[0.2, 0.9]);
        a.step(0, &mut sa, inbox.as_inbox(), 1);
        b.step(0, &mut sb, inbox.as_inbox(), 1);
        let va = <SelfWeightedAverage as Algorithm<1>>::output(&a, &sa)[0];
        let vb = <crate::TwoAgentThirds as Algorithm<1>>::output(&b, &sb)[0];
        assert!((va - vb).abs() < 1e-12);
    }

    #[test]
    fn mean_stays_in_hull() {
        let alg = MeanValue;
        let mut s = alg.init(0, Point([0.7]));
        let vals = [0.7, -0.3, 1.9, 0.0];
        alg.step(0, &mut s, inbox1(&vals).as_inbox(), 1);
        let out = <MeanValue as Algorithm<1>>::output(&alg, &s)[0];
        assert!((-0.3..=1.9).contains(&out));
    }

    #[test]
    #[should_panic(expected = "self-weight")]
    fn rejects_bad_weight() {
        let _ = SelfWeightedAverage::new(1.5);
    }
}
