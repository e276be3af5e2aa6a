//! The amortized midpoint algorithm (\[9\], used in §6 of the paper).

use std::borrow::Cow;

use crate::{Agent, Algorithm, Inbox, Point};

/// The **amortized midpoint** algorithm of Charron-Bost, Függer and
/// Nowak \[9\], the matching upper bound for Theorem 3.
///
/// Agents operate in *macro-rounds* of `period` ordinary rounds
/// (`period = n − 1` for a rooted model on `n` agents). During a
/// macro-round every agent maintains interval bounds `[lo_i, hi_i]`
/// (initialised to its value) and relays them: on receipt it joins its
/// bounds with all received bounds. At the end of the macro-round it sets
/// `y_i ← (lo_i + hi_i)/2` and restarts the interval at `[y_i, y_i]`.
///
/// Because any product of `n − 1` rooted graphs is non-split (\[8\]; a
/// property test in `consensus-digraph` checks this), each macro-round
/// contracts the value spread by `1/2`, i.e. a per-round contraction of
/// `(1/2)^{1/(n−1)}`. Theorem 3 of the paper shows no algorithm can beat
/// `(1/2)^{1/(n−2)}` in rooted models, so this is asymptotically optimal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AmortizedMidpoint {
    period: usize,
}

/// Per-agent state of [`AmortizedMidpoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct AmortizedState<const D: usize> {
    y: Point<D>,
    lo: Point<D>,
    hi: Point<D>,
    /// Rounds completed within the current macro-round.
    phase: usize,
}

impl AmortizedMidpoint {
    /// Creates the algorithm with macro-rounds of `period ≥ 1` rounds.
    /// For a rooted model on `n` agents use `period = n − 1`.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    #[must_use]
    pub fn new(period: usize) -> Self {
        assert!(period >= 1, "macro-round period must be at least 1");
        AmortizedMidpoint { period }
    }

    /// The algorithm tuned for a rooted network model on `n ≥ 2` agents
    /// (`period = n − 1`).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn for_agents(n: usize) -> Self {
        assert!(n >= 2, "need at least two agents");
        Self::new(n - 1)
    }

    /// The macro-round length.
    #[must_use]
    pub fn period(&self) -> usize {
        self.period
    }
}

impl<const D: usize> Algorithm<D> for AmortizedMidpoint {
    type State = AmortizedState<D>;
    /// The relayed interval `(lo, hi)`.
    type Msg = (Point<D>, Point<D>);

    fn name(&self) -> Cow<'static, str> {
        Cow::Owned(format!("amortized-midpoint(P={})", self.period))
    }

    fn init(&self, _agent: Agent, y0: Point<D>) -> AmortizedState<D> {
        AmortizedState {
            y: y0,
            lo: y0,
            hi: y0,
            phase: 0,
        }
    }

    fn message(&self, state: &AmortizedState<D>) -> (Point<D>, Point<D>) {
        (state.lo, state.hi)
    }

    #[inline]
    fn step(
        &self,
        _agent: Agent,
        state: &mut AmortizedState<D>,
        inbox: Inbox<'_, (Point<D>, Point<D>)>,
        _round: u64,
    ) {
        for (_, (lo, hi)) in inbox {
            state.lo = state.lo.min(lo);
            state.hi = state.hi.max(hi);
        }
        state.phase += 1;
        if state.phase == self.period {
            state.y = state.lo.midpoint(&state.hi);
            state.lo = state.y;
            state.hi = state.y;
            state.phase = 0;
        }
    }

    fn output(&self, state: &AmortizedState<D>) -> Point<D> {
        state.y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one round of the algorithm on a clique of `states`, delivering
    /// everyone's message to everyone.
    fn clique_round(alg: &AmortizedMidpoint, states: &mut [AmortizedState<1>], round: u64) {
        let slate: Vec<(Point<1>, Point<1>)> = states.iter().map(|s| alg.message(s)).collect();
        let all = (1u64 << states.len()) - 1;
        for (i, s) in states.iter_mut().enumerate() {
            alg.step(i, s, Inbox::new(all, &slate), round);
        }
    }

    #[test]
    fn macro_round_boundary_updates_output() {
        let alg = AmortizedMidpoint::new(3);
        let mut states: Vec<AmortizedState<1>> = [0.0, 1.0, 4.0]
            .iter()
            .enumerate()
            .map(|(i, &v)| alg.init(i, Point([v])))
            .collect();
        // Outputs stay put during the macro-round…
        clique_round(&alg, &mut states, 1);
        assert_eq!(alg.output(&states[0]), Point([0.0]));
        clique_round(&alg, &mut states, 2);
        assert_eq!(alg.output(&states[2]), Point([4.0]));
        // …and jump to the interval midpoint at the boundary.
        clique_round(&alg, &mut states, 3);
        for s in &states {
            assert_eq!(alg.output(s), Point([2.0]));
        }
    }

    #[test]
    fn interval_join_is_monotone() {
        let alg = AmortizedMidpoint::new(5);
        let mut s = alg.init(0, Point([1.0]));
        let buf = crate::InboxBuffer::from_pairs(&[(0, (Point([0.5]), Point([2.0])))]);
        alg.step(0, &mut s, buf.as_inbox(), 1);
        assert_eq!(s.lo, Point([0.5]));
        assert_eq!(s.hi, Point([2.0]));
        let buf = crate::InboxBuffer::from_pairs(&[(0, (Point([0.9]), Point([1.1])))]);
        alg.step(0, &mut s, buf.as_inbox(), 2);
        assert_eq!(
            s.lo,
            Point([0.5]),
            "lo never increases within a macro-round"
        );
        assert_eq!(
            s.hi,
            Point([2.0]),
            "hi never decreases within a macro-round"
        );
    }

    #[test]
    fn period_one_is_midpoint() {
        // With period 1 the algorithm collapses to the midpoint algorithm.
        let am = AmortizedMidpoint::new(1);
        let mp = crate::Midpoint;
        let mut sa = <AmortizedMidpoint as Algorithm<1>>::init(&am, 0, Point([0.0]));
        let mut sm = <crate::Midpoint as Algorithm<1>>::init(&mp, 0, Point([0.0]));
        for round in 1..=5 {
            let v = round as f64;
            let inbox_a = crate::InboxBuffer::from_pairs(&[
                (0, am.message(&sa)),
                (1, (Point([v]), Point([v]))),
            ]);
            let inbox_m = crate::InboxBuffer::from_pairs(&[(0, mp.message(&sm)), (1, Point([v]))]);
            am.step(0, &mut sa, inbox_a.as_inbox(), round);
            mp.step(0, &mut sm, inbox_m.as_inbox(), round);
            assert_eq!(am.output(&sa), mp.output(&sm));
        }
    }

    #[test]
    fn clique_contracts_half_per_macro_round() {
        let n = 5;
        let alg = AmortizedMidpoint::for_agents(n);
        let mut states: Vec<AmortizedState<1>> =
            (0..n).map(|i| alg.init(i, Point([i as f64]))).collect();
        let spread = |sts: &[AmortizedState<1>]| {
            let outs: Vec<f64> = sts.iter().map(|s| alg.output(s)[0]).collect();
            outs.iter().cloned().fold(f64::MIN, f64::max)
                - outs.iter().cloned().fold(f64::MAX, f64::min)
        };
        let mut round = 0u64;
        let d0 = spread(&states);
        for _macro in 0..4 {
            for _ in 0..alg.period() {
                round += 1;
                clique_round(&alg, &mut states, round);
            }
        }
        let d4 = spread(&states);
        assert!(
            d4 <= d0 / 16.0 + 1e-12,
            "4 macro-rounds must contract by ≥ 2^4: {d0} → {d4}"
        );
    }
}
