//! The reproduction harness: every table and figure of the paper as an
//! executable experiment.
//!
//! Each public function in [`experiments`] regenerates one artefact
//! (Table 1, Figures 1–2, the theorem series) and returns it as a
//! printable report. The `tables` bench target prints all of them (so
//! `cargo bench` reproduces the paper end-to-end), and each also has a
//! standalone binary (`cargo run -p consensus-bench --bin table1`, …).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advsearch;
pub mod cli;
pub mod experiments;
pub mod obswire;
pub mod orchestrate;
pub mod tablefmt;
pub mod wallclock;
