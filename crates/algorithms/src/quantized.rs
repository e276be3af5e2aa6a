//! Quantized midpoint — the “quantizable” aspect of \[9\].
//!
//! The paper's matching upper bounds come from *“Fast, robust,
//! quantizable approximate consensus”* (Charron-Bost, Függer, Nowak;
//! ICALP 2016). Quantizability means the midpoint rule still works when
//! values are confined to a grid `q·Z` (fixed-point hardware, bounded
//! bandwidth): rounding the midpoint to the grid keeps validity and
//! contracts the spread to a **single quantum** within
//! `⌈log₂(Δ/q)⌉` rounds in non-split models. Exact agreement is not
//! always reached (a deaf extreme agent can hold one quantum forever —
//! consistent with Theorem 2: the contraction-rate bound applies to the
//! real-valued tail, which quantization simply cuts off), so the
//! deciding version decides within one quantum, i.e. solves approximate
//! consensus with `ε = q`.

use std::borrow::Cow;

use crate::{Agent, Algorithm, Inbox, Point};

/// Midpoint with outputs rounded to the grid `step·Z` (per coordinate,
/// round-half-down via `floor(x/step + 1/2)`).
///
/// Initial values are quantized on `init` too, so all outputs live on
/// the grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantizedMidpoint {
    step: f64,
}

impl QuantizedMidpoint {
    /// Creates the rule with grid step `step > 0`.
    ///
    /// # Panics
    ///
    /// Panics if `step ≤ 0` or not finite.
    #[must_use]
    pub fn new(step: f64) -> Self {
        assert!(step > 0.0 && step.is_finite(), "grid step must be positive");
        QuantizedMidpoint { step }
    }

    /// The grid step (quantum).
    #[must_use]
    pub fn quantum(&self) -> f64 {
        self.step
    }

    fn quantize<const D: usize>(&self, p: Point<D>) -> Point<D> {
        let mut out = p;
        for c in 0..D {
            out[c] = (p[c] / self.step + 0.5).floor() * self.step;
        }
        out
    }
}

impl<const D: usize> Algorithm<D> for QuantizedMidpoint {
    type State = Point<D>;
    type Msg = Point<D>;

    fn name(&self) -> Cow<'static, str> {
        Cow::Owned(format!("quantized-midpoint(q={})", self.step))
    }

    fn init(&self, _agent: Agent, y0: Point<D>) -> Point<D> {
        self.quantize(y0)
    }

    fn message(&self, state: &Point<D>) -> Point<D> {
        *state
    }

    #[inline]
    fn step(&self, _agent: Agent, state: &mut Point<D>, inbox: Inbox<'_, Point<D>>, _round: u64) {
        let mut it = inbox.iter();
        let (_, &first) = it.next().expect("self-loop guarantees a message");
        let mut lo = first;
        let mut hi = first;
        for (_, p) in it {
            lo = lo.min(p);
            hi = hi.max(p);
        }
        *state = self.quantize(lo.midpoint(&hi));
    }

    fn output(&self, state: &Point<D>) -> Point<D> {
        *state
    }

    /// Rounding can step just outside the received hull (by < one
    /// quantum), so the strict per-round convex property does not hold.
    fn is_convex_combination(&self) -> bool {
        false
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
    fn outputs_stay_on_grid() {
        let q = QuantizedMidpoint::new(0.25);
        let mut s = <QuantizedMidpoint as Algorithm<1>>::init(&q, 0, Point([0.3]));
        assert_eq!(s[0], 0.25);
        <QuantizedMidpoint as Algorithm<1>>::step(
            &q,
            0,
            &mut s,
            inbox1(&[0.25, 1.0]).as_inbox(),
            1,
        );
        let v = <QuantizedMidpoint as Algorithm<1>>::output(&q, &s)[0];
        assert_eq!(v, 0.75, "midpoint 0.625 rounds to 0.75 on the 0.25 grid");
        assert_eq!((v / 0.25).fract(), 0.0);
    }

    #[test]
    fn clique_reaches_one_quantum_in_log_rounds() {
        let step = 1.0 / 64.0;
        let q = QuantizedMidpoint::new(step);
        let n = 5;
        let mut states: Vec<Point<1>> = (0..n)
            .map(|i| q.init(i, Point([i as f64 / (n - 1) as f64])))
            .collect();
        let spread = |sts: &[Point<1>]| {
            sts.iter().map(|p| p[0]).fold(f64::MIN, f64::max)
                - sts.iter().map(|p| p[0]).fold(f64::MAX, f64::min)
        };
        let mut rounds = 0;
        while spread(&states) > step && rounds < 30 {
            rounds += 1;
            let slate: Vec<Point<1>> = states.iter().map(|s| q.message(s)).collect();
            let all = (1u64 << states.len()) - 1;
            for (i, st) in states.iter_mut().enumerate() {
                <QuantizedMidpoint as Algorithm<1>>::step(
                    &q,
                    i,
                    st,
                    Inbox::new(all, &slate),
                    rounds,
                );
            }
        }
        // ⌈log2(1/step)⌉ = 6 rounds suffice on the clique (actually 1
        // here since everyone sees everyone; keep the loose bound).
        assert!(
            rounds <= 6,
            "spread ≤ one quantum within log2(Δ/q) rounds; took {rounds}"
        );
        assert!(spread(&states) <= step + 1e-12);
    }

    #[test]
    fn deaf_pattern_contracts_to_one_quantum() {
        use crate::Algorithm;
        let step = 1.0 / 32.0;
        let q = QuantizedMidpoint::new(step);
        // Agent 0 deaf forever: others converge to within one quantum of
        // agent 0's (frozen) value.
        let mut s0 = <QuantizedMidpoint as Algorithm<1>>::init(&q, 0, Point([0.0]));
        let mut s1 = <QuantizedMidpoint as Algorithm<1>>::init(&q, 1, Point([1.0]));
        let mut s2 = <QuantizedMidpoint as Algorithm<1>>::init(&q, 2, Point([1.0]));
        for round in 1..=12 {
            let slate = [q.message(&s0), q.message(&s1), q.message(&s2)];
            let mut n0 = s0;
            // Deaf: agent 0 hears only itself.
            <QuantizedMidpoint as Algorithm<1>>::step(
                &q,
                0,
                &mut n0,
                Inbox::new(0b001, &slate),
                round,
            );
            let mut n1 = s1;
            <QuantizedMidpoint as Algorithm<1>>::step(
                &q,
                1,
                &mut n1,
                Inbox::new(0b111, &slate),
                round,
            );
            let mut n2 = s2;
            <QuantizedMidpoint as Algorithm<1>>::step(
                &q,
                2,
                &mut n2,
                Inbox::new(0b111, &slate),
                round,
            );
            (s0, s1, s2) = (n0, n1, n2);
        }
        assert_eq!(s0[0], 0.0);
        assert!(s1[0] <= step + 1e-12 && s2[0] <= step + 1e-12);
    }

    #[test]
    fn validity_within_half_quantum() {
        let q = QuantizedMidpoint::new(0.1);
        let mut s = <QuantizedMidpoint as Algorithm<1>>::init(&q, 0, Point([0.0]));
        <QuantizedMidpoint as Algorithm<1>>::step(
            &q,
            0,
            &mut s,
            inbox1(&[0.0, 0.13]).as_inbox(),
            1,
        );
        // Midpoint 0.065 rounds to 0.1 — within step/2 of the hull.
        assert!(s[0] <= 0.13 + 0.05 + 1e-12);
    }

    #[test]
    #[should_panic(expected = "grid step")]
    fn rejects_bad_step() {
        let _ = QuantizedMidpoint::new(0.0);
    }
}
