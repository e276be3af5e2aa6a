//! The sweep worker process: the other end of the coordinator's pipe.
//!
//! Spawned by `sweep --workers N` (never run by hand), configured once
//! on the command line with the grid identity, then driven with one
//! request line per cell on stdin (the decimal cell index), answering
//! one reply line per request on stdout until stdin closes:
//!
//! ```text
//! sweep-worker --grid NAME --preset golden [--seed S]
//!              [--cell-delay-ms MS] [--fail-cells a,b,c]
//! ```
//!
//! A reply is one framed `.sweepck` record in lowercase hex: the cell's
//! checkpoint record, rates as raw `f64::to_bits`, so a worker-computed
//! cell is bit-identical to an in-process one — the property the CI
//! `resume-integrity` gate pins — or, for a cell error, a failure
//! record with the message. `--fail-cells` injects failure replies for
//! the named cells (the coordinator-retry test aid).

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
    let mut fail_cells: Vec<u64> = Vec::new();

    let mut it = args.iter().map(String::as_str);
    while let Some(a) = it.next() {
        match a {
            "--grid" => grid = flag_value(a, it.next(), "a grid name"),
            "--preset" => preset = flag_value(a, it.next(), "a preset name"),
            "--seed" => seed = Some(flag_value(a, it.next(), "a seed (an unsigned integer)")),
            "--cell-delay-ms" => delay_ms = flag_value(a, it.next(), "a delay in ms"),
            "--fail-cells" => {
                let list: String = flag_value(a, it.next(), "a list of cell indices `a,b,c`");
                fail_cells = list
                    .split(',')
                    .map(|v| flag_value(a, Some(v.trim()), "a cell index"))
                    .collect();
            }
            other => usage(&format!("sweep-worker: unknown flag `{other}`")),
        }
    }

    let mut spec =
        AnySpec::resolve(&grid, &preset).unwrap_or_else(|e| usage(&format!("sweep-worker: {e}")));
    if let Some(s) = seed {
        spec.set_base_seed(s);
    }
    if let Err(e) = worker_serve(&spec, Duration::from_millis(delay_ms), &fail_cells) {
        eprintln!("sweep-worker: stdio error: {e}");
        std::process::exit(1);
    }
}
