//! The trimmed-mean family of fault-tolerant averaging rules.
//!
//! These are the approximate-agreement update rules of the classical
//! literature the paper builds on: Dolev et al. \[14\] and Fekete \[17, 18\]
//! repeatedly apply *cautious* functions — drop the `t` most extreme
//! values on each side, then average what remains. With `t = f` the rule
//! tolerates `f` crash/Byzantine values per round; Theorem 6 of the
//! paper shows that, round-based, no such rule (nor any other) can beat
//! `1/(⌈n/f⌉+1)` in the asynchronous crash model.
//!
//! The implementation is one-dimensional in spirit (the classical rule
//! sorts scalars) and is applied coordinate-wise for `D > 1`.

use std::borrow::Cow;

use crate::{Agent, Algorithm, Inbox, Point};

/// Trimmed-mean averaging: per coordinate, sort the received values,
/// drop the lowest `trim` and highest `trim` (clamped so at least one
/// survives), and average the remainder.
///
/// `trim = 0` is [`crate::MeanValue`]; large `trim` approaches the
/// median. The rule is a convex combination algorithm (the trimmed mean
/// lies in the hull of received values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrimmedMean {
    trim: usize,
}

impl TrimmedMean {
    /// Creates the rule dropping `trim` values from each side.
    #[must_use]
    pub fn new(trim: usize) -> Self {
        TrimmedMean { trim }
    }

    /// The per-side trim count.
    #[must_use]
    pub fn trim(&self) -> usize {
        self.trim
    }

    /// The trimmed mean of a non-empty scalar slice.
    #[must_use]
    pub fn trimmed_mean(&self, values: &[f64]) -> f64 {
        debug_assert!(!values.is_empty());
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let t = self.trim.min((sorted.len() - 1) / 2);
        let kept = &sorted[t..sorted.len() - t];
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

impl<const D: usize> Algorithm<D> for TrimmedMean {
    type State = Point<D>;
    type Msg = Point<D>;

    fn name(&self) -> Cow<'static, str> {
        Cow::Owned(format!("trimmed-mean(t={})", self.trim))
    }

    fn init(&self, _agent: Agent, y0: Point<D>) -> Point<D> {
        y0
    }

    fn message(&self, state: &Point<D>) -> Point<D> {
        *state
    }

    #[inline]
    fn step(&self, _agent: Agent, state: &mut Point<D>, inbox: Inbox<'_, Point<D>>, _round: u64) {
        let mut out = Point::ZERO;
        for c in 0..D {
            let coord: Vec<f64> = inbox.iter().map(|(_, p)| p[c]).collect();
            out[c] = self.trimmed_mean(&coord);
        }
        *state = out;
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
    fn trim_zero_is_mean() {
        let t = TrimmedMean::new(0);
        assert!((t.trimmed_mean(&[1.0, 2.0, 6.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn trims_extremes() {
        let t = TrimmedMean::new(1);
        assert!((t.trimmed_mean(&[100.0, 1.0, 2.0, 3.0, -50.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn trim_clamped_to_keep_one() {
        let t = TrimmedMean::new(10);
        // 3 values, trim clamped to 1: the median survives.
        assert!((t.trimmed_mean(&[0.0, 5.0, 100.0]) - 5.0).abs() < 1e-12);
        // Single value: untouched.
        assert_eq!(t.trimmed_mean(&[7.0]), 7.0);
    }

    #[test]
    fn outlier_influence_is_bounded() {
        // One faulty extreme value among n = 5: with trim = 1 the update
        // ignores it entirely.
        let alg = TrimmedMean::new(1);
        let mut s = <TrimmedMean as Algorithm<1>>::init(&alg, 0, Point([0.5]));
        alg.step(0, &mut s, inbox1(&[0.5, 0.4, 0.6, 0.5, 1e9]).as_inbox(), 1);
        let out = <TrimmedMean as Algorithm<1>>::output(&alg, &s)[0];
        assert!((0.4..=0.6).contains(&out), "outlier ignored: {out}");
    }

    #[test]
    fn stays_in_received_hull() {
        let alg = TrimmedMean::new(2);
        let mut s = <TrimmedMean as Algorithm<1>>::init(&alg, 0, Point([0.0]));
        alg.step(
            0,
            &mut s,
            inbox1(&[0.0, 1.0, 0.2, 0.9, 0.5, 0.7]).as_inbox(),
            1,
        );
        let out = <TrimmedMean as Algorithm<1>>::output(&alg, &s)[0];
        assert!((0.0..=1.0).contains(&out));
    }

    #[test]
    fn multidim_coordinatewise() {
        let alg = TrimmedMean::new(1);
        let mut s = alg.init(0, Point([0.0, 0.0]));
        let inbox = crate::InboxBuffer::from_pairs(&[
            (0, Point([0.0, 9.0])),
            (1, Point([1.0, 1.0])),
            (2, Point([2.0, 2.0])),
        ]);
        alg.step(0, &mut s, inbox.as_inbox(), 1);
        assert_eq!(alg.output(&s), Point([1.0, 2.0]));
    }

    #[test]
    fn deaf_round_is_identity() {
        let alg = TrimmedMean::new(2);
        let mut s = <TrimmedMean as Algorithm<1>>::init(&alg, 0, Point([0.33]));
        alg.step(0, &mut s, inbox1(&[0.33]).as_inbox(), 1);
        assert_eq!(
            <TrimmedMean as Algorithm<1>>::output(&alg, &s),
            Point([0.33])
        );
    }
}
