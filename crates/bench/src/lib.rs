//! The reproduction harness: every measured artefact of the paper, and
//! the sweep grids around it, as registry grids of the `sweep` bin.
//!
//! [`orchestrate`] declares the [`orchestrate::Grid`] interface and its
//! registry; [`experiments`] holds the `paper` grid (Table 1 and
//! Theorems 1–11, one row per number, each with its claim) and the
//! ensemble, multidim and dynamic-rates grids; [`advsearch`] holds the
//! adversary-search grid. `cargo run --release -p consensus-bench --bin
//! sweep -- --grid paper --quick` prints the paper's tables and exits 1
//! if a claim fails.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advsearch;
pub mod cli;
pub mod experiments;
pub mod obswire;
pub mod orchestrate;
pub mod tablefmt;
pub mod wallclock;
