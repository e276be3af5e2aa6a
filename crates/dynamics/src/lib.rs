//! Synchronous round-based execution engine for consensus in dynamic
//! networks.
//!
//! This crate implements the computational model of the paper's §2 (in
//! the spirit of the Heard-Of model \[10\]): computation proceeds in
//! communication-closed rounds; in round `t` the adversary picks a
//! communication graph `G_t` from the network model, every agent sends
//! its message to its out-neighbors, receives from its in-neighbors
//! (always including itself), and applies its deterministic transition
//! function.
//!
//! * [`Scenario`] — **the** entry point: a builder over *algorithm ×
//!   driver × faults × stop condition* that runs any experiment shape
//!   of the paper and returns a [`Trace`];
//! * [`Execution`] — the low-level stepper: per-agent states,
//!   zero-allocation single-round stepping over a shared message slate,
//!   forking (for valency probes), and [`Execution::lookahead`], the next
//!   round agent by agent (for adversaries that score many candidate
//!   graphs against one configuration);
//! * [`scenario::Driver`] — the graph-choice abstraction behind
//!   [`Scenario`]: pattern replay, state-dependent topologies, and the
//!   probing lower-bound adversaries all implement it;
//! * [`pattern`] — [`pattern::PatternSource`] implementations: constant,
//!   periodic, sequential, sampled-random patterns;
//! * [`metric`] — the [`Metric`] spread measures behind
//!   [`Scenario::decide`]: [`HullDiameter`] (the paper's `Δ`, default)
//!   and [`BoxDiameter`] (per-coordinate `L∞`), so multidimensional
//!   decision rounds are measured in hull diameter;
//! * [`Trace`] — the recorded run: per-round outputs, diameters
//!   `Δ(y(t))`, and contraction-rate estimators matching the paper's
//!   `sup_E limsup_t (δ(C_t))^{1/t}` definition (§3);
//! * [`byzantine`] — value-fault strategies (two-faced senders) for the
//!   cautious-rule experiments tied to the Byzantine lineage \[14\],
//!   injected via [`Scenario::faults`].
//!
//! # Example
//!
//! ```
//! use consensus_algorithms::{Midpoint, Point};
//! use consensus_digraph::Digraph;
//! use consensus_dynamics::{pattern::ConstantPattern, Scenario};
//!
//! // Midpoint on a 3-clique: exact agreement after one round.
//! let inits = [Point([0.0]), Point([1.0]), Point([0.25])];
//! let trace = Scenario::new(Midpoint, &inits)
//!     .pattern(ConstantPattern::new(Digraph::complete(3)))
//!     .run(1);
//! assert!(trace.final_diameter() < 1e-15);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod byzantine;
mod diameter_trace;
mod executor;
pub mod metric;
pub mod pattern;
pub mod scenario;
mod sharded;
mod trace;

pub use diameter_trace::DiameterTrace;
pub use executor::{Execution, LimitEstimate, Lookahead};
pub use metric::{BoxDiameter, HullDiameter, Metric};
pub use scenario::{FaultyScenario, Scenario};
pub use sharded::{ShardedExecution, DEFAULT_CHUNK};
pub use trace::{estimate_rates, RateEstimate, Trace};
