//! # tight-bounds-consensus
//!
//! A full, executable reproduction of
//! *“Tight Bounds for Asymptotic and Approximate Consensus”*
//! (Matthias Függer, Thomas Nowak, Manfred Schwarz; PODC 2018,
//! arXiv:1705.02898).
//!
//! The paper proves **tight lower bounds on the contraction rate** of
//! asymptotic consensus algorithms in dynamic networks — bounds that
//! hold for *arbitrary* algorithms (full-information, non-convex,
//! higher-order) — and derives decision-time lower bounds for
//! approximate consensus. This crate re-exports the whole system:
//!
//! | Layer | Crate | What it reproduces |
//! |---|---|---|
//! | [`digraph`] | `consensus-digraph` | communication graphs, products, `R(G)`, Figure 1–2 families, Lemma 24 graphs |
//! | [`netmodel`] | `consensus-netmodel` | network models, `α`/`β` machinery, solvability (Thm 19), α-diameter (Def 22) |
//! | [`obs`] | `consensus-obs` | deterministic structured tracing, per-round events of the cells that ran them, pool profiling |
//! | [`algorithms`] | `consensus-algorithms` | Algorithm 1, midpoint, amortized midpoint, averaging, non-convex comparators |
//! | [`dynamics`] | `consensus-dynamics` | Heard-Of-style round executor, patterns, traces, rate estimators |
//! | [`valency`] | `consensus-valency` | valency probes and the Theorem 1/2/3/5 adversaries |
//! | [`approx`] | `consensus-approx` | deciding wrappers, ε-agreement, decision-round rules and lower bounds (Thms 8–11) |
//! | [`asyncsim`] | `consensus-asyncsim` | asynchronous crashes, round-based executors, MinRelay (Thms 6–7) |
//! | [`sweep`] | `consensus-sweep` | parallel multi-seed sweep grids, work-stealing pool, ensemble statistics, `R^d` multidim axes |
//! | [`dynet`] | `consensus-dynet` | dynamic-network adversaries (T-interval, eventually-rooted, bounded churn, adaptive) and the averaging-rate ensemble axes (arXiv:1408.0620) |
//! | [`controlplane`] | `consensus-controlplane` | checkpointed sweep coordinator: `.sweepck` resume, worker processes, run metrics |
//!
//! plus [`bounds`] — every closed-form bound of Table 1 and Theorems
//! 8–11 as documented, tested functions, and a machine-readable
//! [`bounds::theorems`] registry whose keys label the measured rows of
//! the reproduction harness (the `paper` grid of `consensus-bench`).
//!
//! ## Quickstart
//!
//! Every experiment is *"an algorithm, driven by a pattern source or
//! adversary, measured by a trace"* — the
//! [`Scenario`](dynamics::Scenario) builder expresses exactly that:
//!
//! ```
//! use tight_bounds_consensus::prelude::*;
//!
//! // Midpoint under the Theorem-2 lower-bound adversary: the valency
//! // diameter δ̂ contracts at exactly 1/2 per round — the tight bound.
//! let inits = [Point([0.0]), Point([0.7]), Point([1.0])];
//! let adv = adversary::theorem2(&Digraph::complete(3));
//! let mut sc = Scenario::new(Midpoint, &inits).adversary(adv.driver());
//! let trace = sc.run(8);
//! assert_eq!(trace.rounds(), 8);
//! let rate = sc.driver().record().per_round_rate();
//! assert!((rate - 0.5).abs() < 1e-6);
//! assert!((bounds::table1_nonsplit_lower(3) - 0.5).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use consensus_algorithms as algorithms;
pub use consensus_approx as approx;
pub use consensus_asyncsim as asyncsim;
pub use consensus_controlplane as controlplane;
pub use consensus_digraph as digraph;
pub use consensus_dynamics as dynamics;
pub use consensus_dynet as dynet;
pub use consensus_netmodel as netmodel;
pub use consensus_obs as obs;
pub use consensus_pool as pool;
pub use consensus_sweep as sweep;
pub use consensus_valency as valency;

pub mod bounds;

/// The things almost every user needs, importable in one line.
pub mod prelude {
    pub use crate::bounds;
    pub use consensus_algorithms::float::{det_argmax, det_max, det_min, det_min_max};
    pub use consensus_algorithms::{
        Algorithm, AmortizedMidpoint, Inbox, InboxBuffer, MassSplitting, MeanValue, Midpoint,
        MidpointCoordinatewise, MidpointSimplex, Overshoot, Point, QuantizedMidpoint,
        SelfWeightedAverage, TrimmedMean, TwoAgentThirds, WindowedMidpoint,
    };
    pub use consensus_approx::{rules as decision_rules, Decider};
    pub use consensus_controlplane::{CellExecutor, Metrics, RunConfig, SweepPlan};
    pub use consensus_digraph::{families, CsrDigraph, Digraph, RoundTopology, SenderSet, WordSet};
    pub use consensus_dynamics::{
        pattern, scenario, BoxDiameter, Execution, HullDiameter, Metric, Scenario,
        ShardedExecution, Trace,
    };
    pub use consensus_dynet::{
        AdversaryKind, BeamSearch, BoundedChurnAdversary, DiameterMaximiser, DynAdversary,
        DynamicCell, DynamicGrid, ExhaustiveRooted, RotatingTreeSchedule, TIntervalAdversary,
    };
    pub use consensus_netmodel::{alpha, beta, NetworkModel};
    pub use consensus_obs::{Clock, NullClock, TraceHandle};
    pub use consensus_sweep::{
        CellCtx, CellOutcome, EnsembleGrid, InitDist, MultidimCell, MultidimGrid, MultidimInitDist,
        Stats, Sweep, SweepReport, SweepSummary, Topology,
    };
    pub use consensus_valency::{adversary, ProbeFamily, ProbeSet, ProbeTruncation};
}
