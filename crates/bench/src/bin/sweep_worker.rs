//! The sweep worker process: the other end of the coordinator's pipe.
//!
//! Spawned by `sweep --workers N` (never run by hand), configured once
//! on the command line with the grid identity, then driven with one
//! request line per cell on stdin (the decimal cell index), answering
//! one reply line per request on stdout until stdin closes:
//!
//! ```text
//! sweep-worker --grid NAME --preset golden [--seed S] [--cell-delay-ms MS]
//! ```
//!
//! A reply is one framed `.sweepck` record in lowercase hex: the cell's
//! checkpoint record, rates as raw `f64::to_bits`, so a worker-computed
//! cell is bit-identical to an in-process one — the property the CI
//! `resume-integrity` gate pins — or, for a cell error, a failure
//! record with the message. A request that is not a cell index of the
//! grid (a line that is not a number, or an index past the last cell)
//! and a cell that panics get a failure record too, and the worker
//! serves on. The coordinator records a failure record as the cell's
//! failure and does not retry it.

#![forbid(unsafe_code)]

use std::time::Duration;

use consensus_bench::cli::{flag_value, usage};
use consensus_bench::orchestrate::{worker_serve, AnySpec, DEFAULT_GRID};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut grid = DEFAULT_GRID.to_owned();
    let mut preset: String = "golden".into();
    let mut seed: Option<u64> = None;
    let mut delay_ms: u64 = 0;

    let mut it = args.iter().map(String::as_str);
    while let Some(a) = it.next() {
        match a {
            "--grid" => grid = flag_value(a, it.next(), "a grid name"),
            "--preset" => preset = flag_value(a, it.next(), "a preset name"),
            "--seed" => seed = Some(flag_value(a, it.next(), "a seed (an unsigned integer)")),
            "--cell-delay-ms" => delay_ms = flag_value(a, it.next(), "a delay in ms"),
            other => usage(&format!("sweep-worker: unknown flag `{other}`")),
        }
    }

    let mut spec =
        AnySpec::resolve(&grid, &preset).unwrap_or_else(|e| usage(&format!("sweep-worker: {e}")));
    if let Some(s) = seed {
        spec.set_base_seed(s);
    }
    if let Err(e) = worker_serve(&spec, Duration::from_millis(delay_ms)) {
        eprintln!("sweep-worker: stdio error: {e}");
        std::process::exit(1);
    }
}
