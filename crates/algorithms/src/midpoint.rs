//! The midpoint algorithm (paper Algorithm 2, from \[9\]) and its
//! windowed (non-memoryless) generalisation.

use std::borrow::Cow;

use crate::{Agent, Algorithm, Inbox, Point};

/// **Algorithm 2** of the paper — the midpoint algorithm of Charron-Bost,
/// Függer and Nowak \[9\].
///
/// Each round, every agent sets its value to the midpoint of the extremes
/// of the values it received (coordinate-wise for `D > 1`):
/// `y_i ← (min_j y_j + max_j y_j) / 2` over `j ∈ In_i(t)`.
///
/// In any **non-split** network model this contracts the value spread by
/// exactly `1/2` per round, which is optimal by Theorem 2: *no* algorithm
/// (convex or not, memoryless or not) beats `1/2` in a model containing
/// `deaf(G)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Midpoint;

impl<const D: usize> Algorithm<D> for Midpoint {
    type State = Point<D>;
    type Msg = Point<D>;

    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("midpoint")
    }

    fn init(&self, _agent: Agent, y0: Point<D>) -> Point<D> {
        y0
    }

    fn message(&self, state: &Point<D>) -> Point<D> {
        *state
    }

    #[inline]
    fn step(&self, _agent: Agent, state: &mut Point<D>, inbox: Inbox<'_, Point<D>>, _round: u64) {
        debug_assert!(!inbox.is_empty(), "self-loop guarantees a message");
        let mut it = inbox.iter();
        let (_, &first) = it.next().expect("self-loop guarantees a message");
        let mut lo = first;
        let mut hi = first;
        for (_, p) in it {
            lo = lo.min(p);
            hi = hi.max(p);
        }
        *state = lo.midpoint(&hi);
    }

    fn output(&self, state: &Point<D>) -> Point<D> {
        *state
    }
}

/// State of [`WindowedMidpoint`]: the current value plus the sliding
/// window of inboxes from the last `w` rounds.
#[derive(Debug, Clone)]
pub struct WindowedState<const D: usize> {
    y: Point<D>,
    window: std::collections::VecDeque<Vec<Point<D>>>,
    capacity: usize,
}

/// A **non-memoryless** midpoint variant: remembers all values received in
/// the last `window` rounds and takes the midpoint of their extremes.
///
/// With `window = 1` this coincides with [`Midpoint`]. It exemplifies the
/// class of algorithms the paper's lower bounds also cover — algorithms
/// whose output depends on more than the current round's messages (§1,
/// violation (ii)). Theorem 2 says the extra memory cannot beat the `1/2`
/// bound in deaf-closed models; the ablation bench demonstrates this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowedMidpoint {
    window: usize,
}

impl WindowedMidpoint {
    /// Creates a windowed midpoint over the last `window ≥ 1` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    #[must_use]
    pub fn new(window: usize) -> Self {
        assert!(window >= 1, "window must be at least 1");
        WindowedMidpoint { window }
    }
}

impl<const D: usize> Algorithm<D> for WindowedMidpoint {
    type State = WindowedState<D>;
    type Msg = Point<D>;

    fn name(&self) -> Cow<'static, str> {
        Cow::Owned(format!("windowed-midpoint(w={})", self.window))
    }

    fn init(&self, _agent: Agent, y0: Point<D>) -> WindowedState<D> {
        WindowedState {
            y: y0,
            window: std::collections::VecDeque::with_capacity(self.window),
            capacity: self.window,
        }
    }

    fn message(&self, state: &WindowedState<D>) -> Point<D> {
        state.y
    }

    #[inline]
    fn step(
        &self,
        _agent: Agent,
        state: &mut WindowedState<D>,
        inbox: Inbox<'_, Point<D>>,
        _round: u64,
    ) {
        if state.window.len() == state.capacity {
            state.window.pop_front();
        }
        state
            .window
            .push_back(inbox.iter().map(|(_, p)| *p).collect());
        let (_, &first) = inbox.first();
        let mut lo = first;
        let mut hi = first;
        for batch in &state.window {
            for p in batch {
                lo = lo.min(p);
                hi = hi.max(p);
            }
        }
        state.y = lo.midpoint(&hi);
    }

    fn output(&self, state: &WindowedState<D>) -> Point<D> {
        state.y
    }

    /// The windowed midpoint may leave the hull of the *current* round's
    /// values (it averages over older extremes), so it does not qualify
    /// as a convex combination algorithm in the paper's per-round sense.
    fn is_convex_combination(&self) -> bool {
        self.window == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InboxBuffer;

    fn inbox1(vals: &[f64]) -> InboxBuffer<Point<1>> {
        let pairs: Vec<(Agent, Point<1>)> = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| (i, Point([v])))
            .collect();
        InboxBuffer::from_pairs(&pairs)
    }

    #[test]
    fn midpoint_of_received_values() {
        let alg = Midpoint;
        let mut s = alg.init(0, Point([10.0]));
        alg.step(0, &mut s, inbox1(&[10.0, 0.0, 4.0]).as_inbox(), 1);
        assert_eq!(<Midpoint as Algorithm<1>>::output(&alg, &s), Point([5.0]));
    }

    #[test]
    fn midpoint_multidim_is_coordinatewise() {
        let alg = Midpoint;
        let mut s = alg.init(0, Point([0.0, 8.0]));
        let inbox = InboxBuffer::from_pairs(&[
            (0, Point([0.0, 8.0])),
            (1, Point([4.0, 0.0])),
            (2, Point([2.0, 2.0])),
        ]);
        alg.step(0, &mut s, inbox.as_inbox(), 1);
        assert_eq!(alg.output(&s), Point([2.0, 4.0]));
    }

    #[test]
    fn midpoint_halves_spread_in_nonsplit_round() {
        // Non-split pair: both agents hear agent 0.
        let alg = Midpoint;
        let mut s0 = alg.init(0, Point([0.0]));
        let mut s1 = alg.init(1, Point([1.0]));
        // G: 0 → 1 plus self-loops (0 deaf, non-split on 2 agents).
        alg.step(0, &mut s0, inbox1(&[0.0]).as_inbox(), 1);
        alg.step(1, &mut s1, inbox1(&[0.0, 1.0]).as_inbox(), 1);
        let d = (<Midpoint as Algorithm<1>>::output(&alg, &s1)[0]
            - <Midpoint as Algorithm<1>>::output(&alg, &s0)[0])
            .abs();
        assert!((d - 0.5).abs() < 1e-12, "spread must halve, got {d}");
    }

    #[test]
    fn windowed_equals_midpoint_for_w1() {
        let w = WindowedMidpoint::new(1);
        let m = Midpoint;
        let mut sw = <WindowedMidpoint as Algorithm<1>>::init(&w, 0, Point([3.0]));
        let mut sm = <Midpoint as Algorithm<1>>::init(&m, 0, Point([3.0]));
        for round in 1..=4 {
            let inbox = inbox1(&[3.0, round as f64]);
            w.step(0, &mut sw, inbox.as_inbox(), round as u64);
            m.step(0, &mut sm, inbox.as_inbox(), round as u64);
            assert_eq!(w.output(&sw), m.output(&sm));
        }
    }

    #[test]
    fn windowed_remembers_old_extremes() {
        let w = WindowedMidpoint::new(2);
        let mut s = <WindowedMidpoint as Algorithm<1>>::init(&w, 0, Point([0.0]));
        // Round 1: hears 0 and 10 → midpoint 5.
        w.step(0, &mut s, inbox1(&[0.0, 10.0]).as_inbox(), 1);
        assert_eq!(w.output(&s), Point([5.0]));
        // Round 2: hears only itself (5), but remembers round-1 extremes
        // {0, 10} → stays at 5 instead of keeping 5 as trivial midpoint.
        w.step(0, &mut s, inbox1(&[5.0]).as_inbox(), 2);
        assert_eq!(w.output(&s), Point([5.0]));
        // Round 3: window slides; round-1 extremes forgotten, only round-2
        // {5} and round-3 {5, 1} remain → midpoint(1,5) = 3.
        w.step(0, &mut s, inbox1(&[5.0, 1.0]).as_inbox(), 3);
        assert_eq!(w.output(&s), Point([3.0]));
    }

    #[test]
    fn window_zero_rejected() {
        let r = std::panic::catch_unwind(|| WindowedMidpoint::new(0));
        assert!(r.is_err());
    }
}
