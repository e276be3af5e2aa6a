//! # consensus-dynet
//!
//! Dynamic-network adversaries for the *highly dynamic* regimes of
//! Charron-Bost–Függer–Nowak, *Approximate Consensus in Highly Dynamic
//! Networks* (arXiv:1408.0620), built on the
//! [`Driver`](consensus_dynamics::scenario::Driver) abstraction of
//! `consensus-dynamics`.
//!
//! Every graph source the reproduction had so far is either a static
//! family, an i.i.d. per-round sampler, or a valency-probing proof
//! adversary. The tight contraction bounds of the source paper, however,
//! are statements about **worst-case dynamic** communication patterns,
//! and the interesting dynamic regimes sit between "rooted every round"
//! and "adversarially probed":
//!
//! * [`TIntervalAdversary`] — *T-interval connectivity*: every window of
//!   `T` consecutive rounds has a rooted union graph, but no single
//!   round need be rooted. Decision times degrade linearly in `T`.
//! * [`RotatingTreeSchedule`] — an *eventually rooted* schedule: a
//!   finite chaotic prefix of non-rooted (split) graphs, then rooted
//!   spanning trees whose root rotates every round.
//! * [`BoundedChurnAdversary`] — *bounded-influence churn*: the edge set
//!   mutates by at most `k` edges per round around a fixed rooted core.
//! * [`DiameterMaximiser`] — an *adaptive* driver that scores a small
//!   candidate graph set by one-step lookahead against the live
//!   execution each round and picks the graph maximising the next-round
//!   value diameter (a greedy value-aware adversary in the spirit of the
//!   valency probes).
//! * [`BeamSearch`] — the scalable form of the adaptive adversary:
//!   seeded beam search over the rooted-graph class (single-edge
//!   toggles + splitmix64 mutations), replacing the `n ≤ 4` exhaustive
//!   enumeration with a width/depth-bounded frontier that reaches
//!   `n ≥ 16`; [`ExhaustiveRooted`] is its exhaustive reference at
//!   small `n`.
//!
//! All non-adaptive adversaries are deterministic functions of
//! `(parameters, seed)`: the same seed reproduces the exact same graph
//! sequence bit-for-bit, which is what makes the averaging-rate
//! ensemble grids of [`grid`] replayable and thread-count invariant
//! under the `consensus-sweep` harness.
//!
//! ## Quickstart
//!
//! ```
//! use consensus_algorithms::{Midpoint, Point};
//! use consensus_dynamics::Scenario;
//! use consensus_dynet::TIntervalAdversary;
//!
//! let inits: Vec<Point<1>> = (0..8).map(|i| Point([i as f64 / 7.0])).collect();
//! let decide = |t: usize| {
//!     Scenario::new(Midpoint, &inits)
//!         .adversary(TIntervalAdversary::new(8, t, 42))
//!         .decide(1e-3)
//!         .decision_round(600)
//!         .expect("T-interval unions are rooted, so midpoint converges")
//! };
//! // Spreading the rooted union over T rounds slows the decision down.
//! assert!(decide(1) < decide(4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod beam;
pub mod churn;
pub mod grid;
pub mod rotating;
mod score;
pub mod tinterval;
mod util;

pub use adaptive::DiameterMaximiser;
pub use beam::{BeamSearch, ExhaustiveRooted};
pub use churn::BoundedChurnAdversary;
pub use grid::{AdversaryKind, DynAdversary, DynamicCell, DynamicGrid};
pub use rotating::RotatingTreeSchedule;
pub use score::FORK_GRAIN;
pub use tinterval::TIntervalAdversary;
