//! # consensus-controlplane
//!
//! The sweep control plane for the *Tight Bounds for Asymptotic and
//! Approximate Consensus* reproduction: every grid run goes through it,
//! from one laptop to a fleet. Its coordinator walks any
//! registered grid and dispatches the cells itself, on the
//! work-stealing pool's threads or to spawned worker processes. With a
//! checkpoint it streams every completed cell to an append-only file,
//! so an interrupted run resumes **cell-exact** and aggregates
//! **bit-identically** to an uninterrupted one. An in-process run is
//! the same loop with no checkpoint and no workers.
//!
//! * [`coordinator`] — the run loop: resume, dispatch (with the cell
//!   spans and pool profile of a traced run), one run per cell with a
//!   failure recorded as
//!   [`WorkerFailed`](checkpoint::CellStatus::WorkerFailed), merge.
//! * [`checkpoint`] — the one cell-record format: length-prefixed,
//!   checksummed records with rates as raw `f64::to_bits`, so no
//!   decimal formatting ever touches the data path. The `.sweepck` file
//!   is a log of them, tolerant of the truncated tail a `SIGKILL`
//!   leaves behind; the worker pipe carries them as one hex line per
//!   reply.
//! * [`worker`] — spawned `sweep-worker` processes and their pool,
//!   which re-runs a cell once on a fresh worker after a transport
//!   failure (the one retry in the control plane), and kills and reaps
//!   its workers when it drops.
//! * [`metrics`] — lock-free run counters and a deterministic JSON
//!   snapshot. No clocks in this crate: elapsed time is measured by
//!   the caller.
//!
//! ## Why determinism makes this easy
//!
//! Every sweep cell's outcome is a pure function of `(grid, preset,
//! base_seed, cell index)` — the per-cell seeding discipline the
//! harness has enforced since it existed. That single property is what
//! lets the control plane offer strong guarantees with simple
//! machinery: a checkpoint doesn't need to save RNG state mid-stream
//! (cells are atomic), resume doesn't need to replay a log (re-running
//! a cell gives the same bits), and process workers don't need sticky
//! assignment (any worker computes the same answer). The CI
//! `resume-integrity` job SIGKILLs a checkpointed golden sweep
//! mid-grid, resumes it at a different worker count, and diffs the
//! aggregate JSON byte-for-byte against the uninterrupted golden file.
//!
//! ## Quickstart
//!
//! ```
//! use consensus_controlplane::{
//!     coordinator::{self, RunConfig, SweepPlan},
//!     metrics::Metrics,
//! };
//! use consensus_sweep::CellOutcome;
//!
//! let plan = SweepPlan {
//!     grid: "demo".into(),
//!     preset: "unit".into(),
//!     base_seed: 7,
//!     n_cells: 8,
//!     rows_per_cell: 1,
//! };
//! let metrics = Metrics::new();
//! let exec = |cell: usize| -> Result<Vec<CellOutcome>, String> {
//!     Ok(vec![CellOutcome::of_rate(0.5 + cell as f64 / 100.0, 10)])
//! };
//! let out = coordinator::run(&plan, &RunConfig::default(), &exec, &metrics)
//!     .expect("coordinated run");
//! assert!(out.completed);
//! assert_eq!(out.outcome_rows().expect("complete").len(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod coordinator;
pub mod metrics;
pub mod worker;

pub use checkpoint::{
    CellRecord, CellStatus, CheckpointHeader, CheckpointWriter, LoadedCheckpoint,
};
pub use coordinator::{run, CellExecutor, RunConfig, RunOutcome, SweepPlan};
pub use metrics::{Metrics, MetricsSnapshot};
pub use worker::{ProcessPool, WorkerSpawn};
