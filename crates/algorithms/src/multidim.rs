//! Multidimensional midpoint algorithms (Függer–Nowak, *Fast
//! Multidimensional Asymptotic and Approximate Consensus*,
//! arXiv:1805.04923).
//!
//! The source paper's bounds are stated for values in `R^d`, but its
//! witness algorithms are scalar. Its successor paper studies how the
//! midpoint machinery extends to `d > 1` and shows that the *rule used
//! to contract the received value set* matters:
//!
//! * [`MidpointCoordinatewise`] applies the scalar midpoint per
//!   coordinate — the centre of the received bounding box. It contracts
//!   every **coordinate** spread by `1/2` in non-split rounds, but the
//!   box centre can sit as far as `√d/2 · box_diameter` from a received
//!   extreme (and for `d ≥ 3` even *outside the convex hull* of the
//!   received values — take the unit-simplex vertices `e_1, …, e_d`),
//!   so the **hull diameter** pays an extra `≈ ½·log₂ d` rounds before
//!   it starts halving.
//! * [`MidpointSimplex`] applies the safe-area / *MidExtremes* rule of
//!   arXiv:1805.04923: move to the midpoint of a received pair that
//!   realises the diameter of the received set (the longest edge of the
//!   received simplex — the intersection point every agent can compute
//!   from extremes alone). The new value is a convex combination of two
//!   received values, so validity holds in every dimension, and the
//!   hull diameter contracts without the `√d` detour — at `d = 1` both
//!   rules coincide bit-for-bit with [`crate::Midpoint`].
//!
//! The decision-time separation between the two rules (simplex decides
//! strictly earlier for `d ≥ 2`) is reproduced as a golden sweep table
//! by the `multidim_decision_times` experiment grid in the bench crate.

use std::borrow::Cow;

use crate::{Agent, Algorithm, Inbox, Point};

/// The **coordinate-wise midpoint**: each round the agent moves to the
/// centre of the bounding box of the values it received,
/// `y_i[c] ← (min_j y_j[c] + max_j y_j[c]) / 2` independently per
/// coordinate `c`.
///
/// For `D = 1` this is exactly [`crate::Midpoint`] (Algorithm 2 of the
/// source paper) and the two produce bit-identical traces. For `D ≥ 3`
/// the box centre can leave the convex hull of the received values
/// (received set `{e_1, …, e_D}` has box centre `(½, …, ½)` with
/// coordinate sum `D/2 > 1`), so the rule is **not** a convex
/// combination algorithm in higher dimensions — the property tests pin
/// both the `D ≤ 2` containment and the `D ≥ 3` escape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MidpointCoordinatewise;

impl<const D: usize> Algorithm<D> for MidpointCoordinatewise {
    type State = Point<D>;
    type Msg = Point<D>;

    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("midpoint-coordinatewise")
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
        let (_, &first) = inbox.first();
        let mut lo = first;
        let mut hi = first;
        for (_, p) in inbox.iter() {
            lo = lo.min(p);
            hi = hi.max(p);
        }
        *state = lo.midpoint(&hi);
    }

    fn output(&self, state: &Point<D>) -> Point<D> {
        *state
    }

    /// The box centre is a convex combination of the received values
    /// only up to `D = 2`; from `D = 3` on it can escape the hull.
    fn is_convex_combination(&self) -> bool {
        D <= 2
    }
}

/// The **simplex (safe-area) midpoint** — the *MidExtremes* rule of
/// arXiv:1805.04923: each round the agent moves to the midpoint of a
/// received pair realising the diameter of its received value set (the
/// longest edge of the simplex spanned by the received values).
///
/// Ties are broken deterministically by ascending sender order (the
/// first maximal pair in the `(i, j)` scan), as the model's determinism
/// requirement demands. The new value is the average of two received
/// values, hence always inside their convex hull — validity holds in
/// every dimension, unlike [`MidpointCoordinatewise`]. For `D = 1` the
/// diameter pair is `(min, max)`, so the rule is bit-identical to
/// [`crate::Midpoint`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MidpointSimplex;

impl<const D: usize> Algorithm<D> for MidpointSimplex {
    type State = Point<D>;
    type Msg = Point<D>;

    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("midpoint-simplex")
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
        // O(k²) scan over the received pairs without allocating: the
        // inbox view is `Copy`, so nested iteration walks the shared
        // slate twice. Squared distances avoid the sqrt on the hot path
        // and preserve the exact comparison semantics.
        let (_, &first) = inbox.first();
        let mut best_a = first;
        let mut best_b = first;
        let mut best_sq = -1.0f64;
        for (i, a) in inbox.iter() {
            for (j, b) in inbox.iter() {
                if j <= i {
                    continue;
                }
                let d = *a - *b;
                let sq = d.0.iter().map(|x| x * x).sum::<f64>();
                if sq > best_sq {
                    best_sq = sq;
                    best_a = *a;
                    best_b = *b;
                }
            }
        }
        // A single received message (deaf round) leaves the value fixed:
        // best_a = best_b = own value, whose midpoint is itself.
        *state = best_a.midpoint(&best_b);
    }

    fn output(&self, state: &Point<D>) -> Point<D> {
        *state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{diameter, in_bounding_box, InboxBuffer, Midpoint};

    fn inbox<const D: usize>(pts: &[Point<D>]) -> InboxBuffer<Point<D>> {
        let pairs: Vec<(Agent, Point<D>)> = pts.iter().enumerate().map(|(i, &p)| (i, p)).collect();
        InboxBuffer::from_pairs(&pairs)
    }

    fn one_step<A: Algorithm<D, State = Point<D>, Msg = Point<D>>, const D: usize>(
        alg: &A,
        received: &[Point<D>],
    ) -> Point<D> {
        let mut s = alg.init(0, received[0]);
        alg.step(0, &mut s, inbox(received).as_inbox(), 1);
        alg.output(&s)
    }

    #[test]
    fn coordinatewise_is_the_box_centre() {
        let got = one_step(
            &MidpointCoordinatewise,
            &[Point([0.0, 8.0]), Point([4.0, 0.0]), Point([2.0, 2.0])],
        );
        assert_eq!(got, Point([2.0, 4.0]));
    }

    #[test]
    fn simplex_moves_to_the_longest_edge_midpoint() {
        // Farthest pair is (0,0)–(4,0); the third value is ignored.
        let got = one_step(
            &MidpointSimplex,
            &[Point([0.0, 0.0]), Point([4.0, 0.0]), Point([1.0, 1.0])],
        );
        assert_eq!(got, Point([2.0, 0.0]));
    }

    #[test]
    fn simplex_tie_break_is_first_pair_in_sender_order() {
        // Equilateral-ish: (e1,e2), (e1,e3), (e2,e3) all at distance √2;
        // the ascending scan must settle on (e1, e2).
        let e = [
            Point([1.0, 0.0, 0.0]),
            Point([0.0, 1.0, 0.0]),
            Point([0.0, 0.0, 1.0]),
        ];
        assert_eq!(one_step(&MidpointSimplex, &e), Point([0.5, 0.5, 0.0]));
    }

    #[test]
    fn both_rules_equal_scalar_midpoint_at_d1() {
        let vals = [Point([10.0]), Point([0.0]), Point([4.0]), Point([7.5])];
        let m = one_step(&Midpoint, &vals);
        assert_eq!(one_step(&MidpointCoordinatewise, &vals), m);
        assert_eq!(one_step(&MidpointSimplex, &vals), m);
        assert_eq!(m, Point([5.0]));
    }

    #[test]
    fn deaf_round_is_identity_for_both() {
        for_received_only_self::<2>();
        for_received_only_self::<5>();

        fn for_received_only_self<const D: usize>() {
            let y = Point([0.75; D]);
            assert_eq!(one_step(&MidpointCoordinatewise, &[y]), y);
            assert_eq!(one_step(&MidpointSimplex, &[y]), y);
        }
    }

    #[test]
    fn box_centre_escapes_the_hull_at_d3() {
        // Received = unit-simplex vertices: the box centre (½,½,½) has
        // coordinate sum 3/2 > 1 — outside the hull {x ≥ 0, Σx = 1} —
        // while the simplex rule stays on a received edge.
        let e = [
            Point([1.0, 0.0, 0.0]),
            Point([0.0, 1.0, 0.0]),
            Point([0.0, 0.0, 1.0]),
        ];
        let boxed = one_step(&MidpointCoordinatewise, &e);
        assert_eq!(boxed, Point([0.5, 0.5, 0.5]));
        assert!(boxed.0.iter().sum::<f64>() > 1.0 + 1e-12, "outside hull");
        assert!(
            !<MidpointCoordinatewise as Algorithm<3>>::is_convex_combination(
                &MidpointCoordinatewise
            )
        );
        let safe = one_step(&MidpointSimplex, &e);
        assert!((safe.0.iter().sum::<f64>() - 1.0).abs() < 1e-12, "on hull");
        assert!(<MidpointSimplex as Algorithm<3>>::is_convex_combination(
            &MidpointSimplex
        ));
        assert!(in_bounding_box(&safe, &e, 0.0));
    }

    #[test]
    fn simplex_step_halves_the_received_diameter_bound() {
        // After the move, the agent is within diam/2 of every endpoint
        // of the farthest pair — the contraction the safe-area argument
        // uses.
        let pts = [
            Point([0.0, 0.0]),
            Point([3.0, 4.0]),
            Point([1.0, 1.0]),
            Point([2.0, 0.5]),
        ];
        let d = diameter(&pts);
        let got = one_step(&MidpointSimplex, &pts);
        assert!((got.dist(&Point([0.0, 0.0])) - d / 2.0).abs() < 1e-12);
        assert!((got.dist(&Point([3.0, 4.0])) - d / 2.0).abs() < 1e-12);
    }
}
