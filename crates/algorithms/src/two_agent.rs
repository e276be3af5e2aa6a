//! Algorithm 1 of the paper: the optimal two-agent algorithm with
//! contraction rate 1/3.

use std::borrow::Cow;

use crate::{Agent, Algorithm, Inbox, Point};

/// **Algorithm 1** of the paper (§4): the two-agent convex combination
/// algorithm achieving contraction rate `1/3` in `{H0, H1, H2}`.
///
/// Each round an agent broadcasts its value; if it receives the other
/// agent's value `y_j`, it moves to `y_i/3 + 2·y_j/3`; otherwise it keeps
/// `y_i`. Theorem 1 shows `1/3` is optimal: *every* asymptotic consensus
/// algorithm for two agents has contraction rate at least `1/3` in any
/// model containing the three graphs of Figure 1.
///
/// The algorithm is well-defined for any `n`, moving towards the average
/// of the *other* agents' values; only the `n = 2` case carries the
/// optimality guarantee.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TwoAgentThirds;

impl<const D: usize> Algorithm<D> for TwoAgentThirds {
    type State = Point<D>;
    type Msg = Point<D>;

    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("two-agent-thirds")
    }

    fn init(&self, _agent: Agent, y0: Point<D>) -> Point<D> {
        y0
    }

    fn message(&self, state: &Point<D>) -> Point<D> {
        *state
    }

    #[inline]
    fn step(&self, agent: Agent, state: &mut Point<D>, inbox: Inbox<'_, Point<D>>, _round: u64) {
        let mut others = Point::ZERO;
        let mut count = 0usize;
        for (from, p) in inbox {
            if from != agent {
                others += *p;
                count += 1;
            }
        }
        if count > 0 {
            // y ← y/3 + 2/3 · mean(others); for n = 2 this is the paper's
            // y_i/3 + 2 y_j/3.
            *state = *state * (1.0 / 3.0) + others * (2.0 / (3.0 * count as f64));
        }
    }

    fn output(&self, state: &Point<D>) -> Point<D> {
        *state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_update_rule() {
        let alg = TwoAgentThirds;
        let mut s = alg.init(0, Point([0.0]));
        let inbox = crate::InboxBuffer::from_pairs(&[(0, Point([0.0])), (1, Point([1.0]))]);
        alg.step(0, &mut s, inbox.as_inbox(), 1);
        assert!((<TwoAgentThirds as Algorithm<1>>::output(&alg, &s)[0] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn no_message_keeps_value() {
        let alg = TwoAgentThirds;
        let mut s = alg.init(1, Point([0.4]));
        let inbox = crate::InboxBuffer::from_pairs(&[(1, Point([0.4]))]);
        alg.step(1, &mut s, inbox.as_inbox(), 1);
        assert_eq!(
            <TwoAgentThirds as Algorithm<1>>::output(&alg, &s),
            Point([0.4])
        );
    }

    #[test]
    fn contraction_one_third_under_h1() {
        // Under the constant pattern H1 (agent 0 deaf), the spread shrinks
        // exactly by 1/3 per round — the algorithm's worst case.
        let alg = TwoAgentThirds;
        let mut y0 = alg.init(0, Point([0.0]));
        let mut y1 = alg.init(1, Point([1.0]));
        let mut spread = 1.0;
        for round in 1..=10 {
            let m0 = <TwoAgentThirds as Algorithm<1>>::message(&alg, &y0);
            let m1 = <TwoAgentThirds as Algorithm<1>>::message(&alg, &y1);
            // H1: 0 hears only itself; 1 hears both.
            let slate = [m0, m1];
            alg.step(0, &mut y0, Inbox::new(0b01, &slate), round);
            alg.step(1, &mut y1, Inbox::new(0b11, &slate), round);
            let new_spread = (<TwoAgentThirds as Algorithm<1>>::output(&alg, &y1)[0]
                - <TwoAgentThirds as Algorithm<1>>::output(&alg, &y0)[0])
                .abs();
            assert!(
                (new_spread - spread / 3.0).abs() < 1e-12,
                "round {round}: expected exact 1/3 contraction"
            );
            spread = new_spread;
        }
    }

    #[test]
    fn alternating_h0_contracts_by_third() {
        // Under H0 both agents move to y/3 + 2·other/3: the spread flips
        // sign and shrinks to |2/3 − 1/3| = 1/3 of the previous spread.
        let alg = TwoAgentThirds;
        let mut y0 = alg.init(0, Point([0.0]));
        let mut y1 = alg.init(1, Point([3.0]));
        let m0 = <TwoAgentThirds as Algorithm<1>>::message(&alg, &y0);
        let m1 = <TwoAgentThirds as Algorithm<1>>::message(&alg, &y1);
        let slate = [m0, m1];
        alg.step(0, &mut y0, Inbox::new(0b11, &slate), 1);
        alg.step(1, &mut y1, Inbox::new(0b11, &slate), 1);
        assert!((<TwoAgentThirds as Algorithm<1>>::output(&alg, &y0)[0] - 2.0).abs() < 1e-12);
        assert!((<TwoAgentThirds as Algorithm<1>>::output(&alg, &y1)[0] - 1.0).abs() < 1e-12);
    }
}
