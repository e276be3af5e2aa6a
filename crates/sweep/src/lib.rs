//! # consensus-sweep
//!
//! Parallel multi-seed sweep harness for the *Tight Bounds for
//! Asymptotic and Approximate Consensus* reproduction.
//!
//! The paper's results are statements about **worst-case and ensemble**
//! behavior: Table 1 bounds the contraction rate over *all* admissible
//! communication patterns, and Theorems 8–11 bound decision times over
//! *all* executions with a given `Δ/ε`. A single `Scenario` run probes
//! one execution; this crate fans one configuration out over a cartesian
//! grid of axes and aggregates the ensemble:
//!
//! * [`Sweep`] — the harness, a seeded parallel map: cells run on a
//!   hand-rolled work-stealing thread pool (`consensus-pool`), each with
//!   a deterministic seed derived only from `(base_seed, cell index)`
//!   ([`cell_seed`]), so the aggregate is a pure function of the grid —
//!   bit-identical at any thread count — and any cell is replayable solo
//!   ([`Sweep::run_cell`]).
//! * [`grid`] — the named axes ([`EnsembleGrid`]: replicate seeds, agent
//!   counts, [`InitDist`] initial-value distributions, [`Topology`]
//!   graph samplers, a free algorithm parameter).
//! * [`multidim`] — the `R^d` axes ([`MultidimGrid`]: a **dimension**
//!   axis plus [`MultidimInitDist`] unit-cube / unit-simplex /
//!   correlated-Gaussian initial distributions) behind the
//!   multidimensional decision-time grids of arXiv:1805.04923.
//! * [`stats`] — per-cell [`CellOutcome`]s aggregated into
//!   min/max/mean/quantile [`Stats`] and convergence-failure counts
//!   ([`SweepSummary`]).
//! * [`report`] — byte-stable JSON ([`SweepReport`]) for the CI
//!   regression gate and downstream plotting.
//!
//! ## What sweeps reproduce
//!
//! * **Contraction-rate ensembles** (Table 1, Theorems 1–3): sweep an
//!   algorithm over seeds × topologies and compare the measured rate
//!   distribution against the tight bound the proof adversaries attain —
//!   random patterns contract *faster* than the worst case, which is the
//!   paper's point.
//! * **Decision-time curves** (Theorems 8–11, and the decision-time
//!   figures of Függer–Nowak, arXiv:1805.04923): sweep `Δ/ε` × seeds and
//!   aggregate the first round with spread ≤ ε.
//! * **Averaging-rate ensembles** over dynamic graphs in the style of
//!   Charron-Bost–Függer–Nowak (arXiv:1408.0620): the [`Topology`] axis
//!   samples rooted / non-split / `N_A(n, f)` classes i.i.d. per round,
//!   and the `consensus-dynet` crate layers the *structured* dynamic
//!   adversaries (T-interval connectivity, eventually-rooted schedules,
//!   bounded churn) on the same harness via its `DynamicGrid`.
//!
//! ## Quickstart
//!
//! ```
//! use consensus_algorithms::MeanValue;
//! use consensus_dynamics::Scenario;
//! use consensus_sweep::{
//!     fingerprint, CellOutcome, EnsembleGrid, InitDist, Sweep, SweepSummary, Topology,
//! };
//!
//! let grid = EnsembleGrid::new()
//!     .agents(&[4, 8])
//!     .topologies(&[Topology::Complete, Topology::Rooted { density: 0.2 }])
//!     .inits(&[InitDist::Uniform])
//!     .replicates(4);
//! let sweep = Sweep::new(grid.cells()).seed(7);
//! let outcomes = sweep.run(|cell, ctx| {
//!     let inits = cell.inits(&mut ctx.rng());
//!     let mut sc = Scenario::new(MeanValue, &inits)
//!         .pattern(cell.pattern(ctx.subseed(1)))
//!         .until_converged(1e-6);
//!     let rounds = sc.advance(200) as u64;
//!     let exec = sc.execution();
//!     CellOutcome {
//!         rate: (exec.value_diameter().max(1e-300)).powf(1.0 / rounds.max(1) as f64),
//!         decision_round: (exec.value_diameter() <= 1e-6).then(|| exec.round()),
//!         rounds,
//!         converged: exec.value_diameter() <= 1e-6,
//!         fingerprint: fingerprint(exec.outputs_slice()),
//!     }
//! });
//! let summary = SweepSummary::aggregate(&outcomes);
//! assert_eq!(summary.cells, 16);
//! assert_eq!(summary.failures, 0, "random patterns beat the worst case");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grid;
pub mod harness;
pub mod multidim;
pub mod report;
pub mod stats;

pub use grid::{EnsembleCell, EnsembleGrid, InitDist, Topology};
pub use harness::{cell_seed, CellCtx, Sweep, SweepError, DEFAULT_BASE_SEED};
pub use multidim::{MultidimCell, MultidimGrid, MultidimInitDist};
pub use report::SweepReport;
pub use stats::{fingerprint, CellOutcome, Stats, SweepSummary};
