//! Asymptotic consensus algorithms for dynamic networks.
//!
//! This crate implements the algorithms whose *upper* bounds make the
//! lower bounds of *“Tight Bounds for Asymptotic and Approximate
//! Consensus”* (Függer, Nowak, Schwarz; PODC 2018) tight, plus the
//! non-convex comparators discussed in the paper's introduction:
//!
//! | Algorithm | Paper reference | Contraction (upper bound) |
//! |---|---|---|
//! | [`TwoAgentThirds`] | Algorithm 1 (§4) | `1/3` in `{H0,H1,H2}` |
//! | [`Midpoint`] | Algorithm 2 (§5), from \[9\] | `1/2` in non-split models |
//! | [`AmortizedMidpoint`] | §6, from \[9\] | `(1/2)^{1/(n−1)}` in rooted models |
//! | [`MeanValue`] / [`SelfWeightedAverage`] | classic averaging (\[8\]) | model-dependent |
//! | [`WindowedMidpoint`] | “non-memoryless” example (§1 (ii)) | — |
//! | [`MassSplitting`] | “non-convex” example (§1 (i)) | fixed-graph only |
//! | [`Overshoot`] | second-order controller example (§1) | — |
//! | [`TrimmedMean`] | cautious functions of Dolev et al. \[14\] / Fekete \[17,18\] | — |
//! | [`QuantizedMidpoint`] | the “quantizable” variant of \[9\] | one quantum in `⌈log₂(Δ/q)⌉` rounds |
//! | [`MidpointCoordinatewise`] | `R^d` box-centre rule (arXiv:1805.04923) | `1/2` per **coordinate** in non-split models |
//! | [`MidpointSimplex`] | `R^d` MidExtremes / safe-area rule (arXiv:1805.04923) | hull-diameter contraction, valid for every `d` |
//!
//! The [`stochastic`] module provides the row-stochastic-matrix view of
//! the linear rules (Dobrushin coefficients, products, support graphs)
//! used to cross-validate measured contraction rates.
//!
//! Algorithms are deterministic state machines over the Heard-Of-style
//! round structure of the paper's §2: in each round every agent sends a
//! message to its out-neighbors, receives the messages of its
//! in-neighbors (always including itself — communication graphs have
//! self-loops), and updates its state. The [`Algorithm`] trait encodes
//! exactly that; the executor lives in `consensus-dynamics`.
//!
//! # Example
//!
//! ```
//! use consensus_algorithms::{Algorithm, InboxBuffer, Midpoint, Point};
//!
//! let alg = Midpoint;
//! let mut state = alg.init(0, Point([0.0]));
//! // Agent 0 hears itself (0.0) and agent 1 (1.0):
//! let inbox = InboxBuffer::from_pairs(&[(0, alg.message(&state)), (1, Point([1.0]))]);
//! alg.step(0, &mut state, inbox.as_inbox(), 1);
//! assert_eq!(alg.output(&state), Point([0.5]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod amortized;
mod averaging;
pub mod float;
mod inbox;
mod midpoint;
mod multidim;
mod nonconvex;
mod point;
mod quantized;
pub mod stochastic;
mod trimmed;
mod two_agent;

pub use amortized::AmortizedMidpoint;
pub use averaging::{MeanValue, SelfWeightedAverage};
pub use inbox::{Inbox, InboxBuffer, InboxIter};
pub use midpoint::{Midpoint, WindowedMidpoint};
pub use multidim::{MidpointCoordinatewise, MidpointSimplex};
pub use nonconvex::{MassSplitting, Overshoot};
pub use point::{
    bounding_box, box_diameter, centroid, convex_combination, coordinate_spreads, diameter,
    farthest_pair, in_bounding_box, in_convex_hull, per_coordinate_rates, HullPlanes, Point,
};
pub use quantized::QuantizedMidpoint;
pub use trimmed::TrimmedMean;
pub use two_agent::TwoAgentThirds;

/// An agent identifier (0-based), re-exported from `consensus-digraph`.
pub type Agent = consensus_digraph::Agent;

/// A deterministic round-based asymptotic consensus algorithm (paper §2).
///
/// One round for agent `i`:
/// 1. the harness collects `message(&state_i)` from every agent into the
///    round's shared message slate;
/// 2. the harness hands `i` an [`Inbox`] view of that slate restricted
///    to `i`'s in-neighbors in the round's communication graph —
///    **always** including `i`'s own message (self-loops are mandatory);
/// 3. `step` updates the state; `output` reads the current value `y_i`.
///
/// Determinism is part of the model: identical inboxes must produce
/// identical states (the lower bounds' indistinguishability arguments
/// rely on it). Implementations must not use randomness or ambient state.
///
/// Algorithms, states and messages are shareable across threads, so
/// every executor can split a round's agents across pool workers.
pub trait Algorithm<const D: usize>: Sync {
    /// Per-agent local state.
    type State: Clone + std::fmt::Debug + Send + Sync;
    /// The message broadcast each round.
    type Msg: Clone + std::fmt::Debug + Send + Sync;

    /// A short human-readable name (used in bench tables). Borrowed for
    /// the common parameter-free case; parameterised algorithms return
    /// an owned formatted name.
    fn name(&self) -> std::borrow::Cow<'static, str>;

    /// The initial state of `agent` with initial value `y0`.
    fn init(&self, agent: Agent, y0: Point<D>) -> Self::State;

    /// The message the agent broadcasts in the *next* round.
    fn message(&self, state: &Self::State) -> Self::Msg;

    /// One state update. `inbox` is a borrowed view over the round's
    /// message slate (ascending sender order, always containing the
    /// agent's own message); nothing is cloned per agent. `round` counts
    /// from 1 as in the paper.
    ///
    /// The executor calls this for every agent of every round from one
    /// loop that is generic over topology and step policy. The
    /// implementations in this crate are `#[inline]`: without the hint,
    /// self-weighted averaging's `step` stayed an out-of-line call in
    /// that loop and the ensemble sweep ran about 30% slower.
    fn step(&self, agent: Agent, state: &mut Self::State, inbox: Inbox<'_, Self::Msg>, round: u64);

    /// The current output value `y_i(t)`.
    fn output(&self, state: &Self::State) -> Point<D>;

    /// Whether the algorithm is a *convex combination* algorithm (§2.2):
    /// outputs always lie in the convex hull of the values just received.
    /// Used by test harnesses to decide which invariants to assert.
    fn is_convex_combination(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    // The trait must be object-safe enough for generic executors; this is
    // a compile-time check that common algorithms share a call pattern.
    fn exercise<A: Algorithm<1>>(alg: &A) -> Point<1> {
        let mut s = alg.init(0, Point([1.0]));
        let inbox = InboxBuffer::from_pairs(&[(0, alg.message(&s))]);
        alg.step(0, &mut s, inbox.as_inbox(), 1);
        alg.output(&s)
    }

    #[test]
    fn all_algorithms_run_one_solo_round() {
        // A deaf agent (inbox = own message only) must keep a finite value.
        assert!(exercise(&Midpoint).is_finite());
        assert!(exercise(&MeanValue).is_finite());
        assert!(exercise(&TwoAgentThirds).is_finite());
        assert!(exercise(&AmortizedMidpoint::new(4)).is_finite());
        assert!(exercise(&SelfWeightedAverage::new(0.5)).is_finite());
        assert!(exercise(&WindowedMidpoint::new(3)).is_finite());
        assert!(exercise(&Overshoot::new(0.3)).is_finite());
    }

    #[test]
    fn deaf_round_is_identity_for_convex_algorithms() {
        // With only its own message, a convex combination algorithm must
        // keep its value exactly.
        fn check<A: Algorithm<1>>(alg: &A) {
            let mut s = alg.init(0, Point([0.75]));
            for round in 1..=5 {
                let inbox = InboxBuffer::from_pairs(&[(0, alg.message(&s))]);
                alg.step(0, &mut s, inbox.as_inbox(), round);
                assert_eq!(
                    alg.output(&s),
                    Point([0.75]),
                    "{} moved without input",
                    alg.name()
                );
            }
        }
        check(&Midpoint);
        check(&MeanValue);
        check(&TwoAgentThirds);
        check(&AmortizedMidpoint::new(3));
        check(&SelfWeightedAverage::new(0.25));
        check(&WindowedMidpoint::new(2));
    }
}
