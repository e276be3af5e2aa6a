//! Parallel multi-seed ensemble sweeps with statistical aggregation.
//!
//! Runs one of the registered experiment grids through the coordinator
//! (`controlplane::run`) and prints the aggregate table, or instead the
//! machine-readable JSON document the CI `sweep-regression` job diffs
//! against the checked-in golden files. A grid is one `Grid` impl
//! (`consensus_bench::orchestrate`); this bin runs every grid through
//! the same path and never asks which one it runs.
//!
//! ```text
//! cargo run --release -p consensus-bench --bin sweep -- [FLAGS]
//!   --grid NAME     which experiment grid to run (see --list; the
//!                   default is the first grid it prints)
//!   --list          print the registered grids and exit
//!   --golden        run the fixed CI preset of the selected grid
//!   --quick         run the small smoke preset (for the default grid
//!                   this also appends every other grid's quick table)
//!   --full          run the large preset (the default)
//!   --preset NAME   select a preset by name (golden|quick|full); an
//!                   unknown name is a clean error listing the valid set
//!   --threads N     worker count (default: all cores; results identical)
//!   --seed S        override the base seed
//!   --json          print the JSON instead of the table (golden-diff
//!                   mode)
//!   --out PATH      also write the JSON to PATH (no file is written
//!                   without it)
//!   --replay I      re-run cell I solo and print its rows; with --json,
//!                   print the one-cell report's JSON instead, whose
//!                   cells_detail rows equal the cell's rows of the full
//!                   report
//! ```
//!
//! Tracing flags (the [`consensus_obs`] structured-trace capture; see
//! the README's Observability section):
//!
//! ```text
//!   --trace-out PATH      write the merged trace as JSONL to PATH: the
//!                         events of the cells this run executed in this
//!                         process (an ensemble cell records a `round`
//!                         span with diameter/contraction gauges per
//!                         round; resumed cells record nothing), so
//!                         --workers is a usage error with it
//!   --trace-timing        use a real wall clock and keep profile
//!                         events (timestamped JSONL; NOT byte-stable —
//!                         without this flag the trace is the content
//!                         stream, identical at any --threads value and
//!                         with or without --checkpoint)
//! ```
//!
//! Control-plane flags. Every run except `--replay` goes through the
//! coordinator; without these flags it runs the cells on in-process
//! threads with no checkpoint. Every cell goes through the grid's one
//! cell runner, and one function lays out the report, so the aggregate
//! JSON and the table are the same with any of these flags:
//!
//! ```text
//!   --checkpoint PATH     stream finished cells to a resumable .sweepck
//!   --resume              resume an interrupted run from --checkpoint
//!   --workers N           run cells in N spawned `sweep-worker` processes
//!   --metrics-out PATH    write the end-of-run metrics JSON to PATH
//!   --stop-after N        stop dispatching after N cells (testing aid;
//!                         needs --checkpoint)
//!   --cell-delay-ms MS    stretch every cell by MS ms (CI kill pacing)
//! ```
//!
//! Every grid states claims about its complete report (`Grid::claims`:
//! the paper's bounds for the `paper` grid, the separations and
//! invariants of the others), and the table's ✓/✗ marks come from them.
//! After printing a complete report (and, for the default grid at
//! `--quick`, the appended tables), the bin names each failed claim on
//! stderr and exits 1. A `--replay` or an interrupted run states none.
//!
//! A failed cell is one stderr line, `cell N failed: …`; the report is
//! printed with the cell's rows counted as failures, and the exit code
//! is 1. Each cell runs once: a cell is a pure function of its index,
//! so a second run would fail it the same way. Only a worker's
//! transport failure (the process cannot start, dies, or sends a reply
//! that does not decode) re-runs the cell once on a fresh worker; its
//! message then ends with `(retried once on a fresh worker)`.
//!
//! A missing or malformed flag value, an unknown flag (with `--list`
//! too), a flag that needs another one (`--resume` and `--stop-after`
//! need `--checkpoint`), or an output or control-plane flag with
//! `--replay` is a usage error: one stderr line naming the flags, exit
//! code 2. An output file (`--out`, `--metrics-out`, `--trace-out`)
//! that cannot be written is one stderr line naming the flag, the path
//! and the OS error, exit code 1. With `--workers`, one worker is
//! spawned before any cell is dispatched; if that fails, the run is one
//! stderr line naming the worker program and the OS error, exit code 1,
//! with nothing on stdout and no checkpoint written.
//!
//! The CI gate commands are the `sweep-regression` matrix of
//! `.github/workflows/ci.yml`: each golden file under `ci/` is diffed
//! against `--json` output without a checkpoint, through `--checkpoint`
//! and through `--workers 2`, and the table-mode stdouts with and
//! without a checkpoint are diffed against each other. The
//! crash-resume gate reaches `ci/golden_sweep.json` the hard way:
//! `--golden --json --checkpoint ck`, `SIGKILL` mid-grid, then
//! `--golden --json --checkpoint ck --resume`, required byte-identical.

#![forbid(unsafe_code)]

use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use consensus_bench::cli::{flag_value, usage};
use consensus_bench::experiments::SpecError;
use consensus_bench::obswire;
use consensus_bench::orchestrate::{AnySpec, DEFAULT_GRID};
use consensus_bench::wallclock::WallClock;
use tight_bounds_consensus::controlplane::{self, Metrics, ProcessPool, RunConfig, WorkerSpawn};
use tight_bounds_consensus::obs::{Clock, NullClock, TraceHandle, DEFAULT_RECORDER_CAP};
use tight_bounds_consensus::prelude::*;

/// Unwraps a preset/spec lookup, turning an unknown name into a usage
/// error.
fn spec_or_exit<T>(r: Result<T, SpecError>) -> T {
    r.unwrap_or_else(|e| usage(&e.to_string()))
}

fn print_outcome(index: usize, label: &str, seed: u64, o: &CellOutcome) {
    println!(
        "cell {index} [{label}] seed {seed}: rate {:.6}, decision {:?}, rounds {}, converged {}, fingerprint {:016x}",
        o.rate, o.decision_round, o.rounds, o.converged, o.fingerprint,
    );
}

/// The control-plane side of the CLI. The default value means an
/// in-process run: no checkpoint, no workers.
#[derive(Debug, Default, PartialEq)]
struct ControlFlags {
    checkpoint: Option<PathBuf>,
    resume: bool,
    workers: Option<usize>,
    metrics_out: Option<String>,
    stop_after: Option<u64>,
    cell_delay_ms: u64,
}

/// The tracing side of the CLI: where to write the JSONL capture, and
/// whether to keep wall-clock timing.
#[derive(Debug, Default)]
struct TraceFlags {
    out: Option<String>,
    timing: bool,
}

impl TraceFlags {
    /// An enabled handle when `--trace-out` was given (wall clock only
    /// under `--trace-timing`), else the zero-cost disabled handle.
    fn handle(&self) -> TraceHandle {
        if self.out.is_none() {
            return TraceHandle::disabled();
        }
        let clock: Arc<dyn Clock> = if self.timing {
            Arc::new(WallClock::new())
        } else {
            Arc::new(NullClock)
        };
        TraceHandle::enabled_with(DEFAULT_RECORDER_CAP, clock)
    }

    /// Writes the capture to `--trace-out` (content stream unless
    /// `--trace-timing`); a no-op when tracing is off.
    fn write(&self, trace: &TraceHandle) {
        let Some(path) = &self.out else { return };
        obswire::write_trace(path, trace, self.timing)
            .unwrap_or_else(|e| write_failed("--trace-out", path, &e));
        eprintln!("trace: JSONL written to {path}");
    }
}

/// Reports a failed write of `path`, the value of `flag`, on one stderr
/// line with the OS error and exits with code 1, as a checkpoint I/O
/// error does.
fn write_failed(flag: &str, path: &str, err: &std::io::Error) -> ! {
    eprintln!("sweep: cannot write {flag} {path}: {err}");
    std::process::exit(1);
}

/// Locates the `sweep-worker` binary: the `SWEEP_WORKER` env override,
/// else the sibling of the running `sweep` binary (both live in the
/// same cargo target directory).
fn worker_program() -> PathBuf {
    if let Ok(p) = std::env::var("SWEEP_WORKER") {
        return PathBuf::from(p);
    }
    let exe = std::env::current_exe().expect("current_exe");
    let dir = exe.parent().expect("binary has a parent directory");
    dir.join(format!("sweep-worker{}", std::env::consts::EXE_SUFFIX))
}

/// Runs the spec through the coordinator (in-process threads or worker
/// processes), emits the report if the grid completed, and returns the
/// process exit code: 0 clean/interrupted-with-checkpoint, 1 on failed
/// cells, a failed claim, a checkpoint error or a worker program that
/// cannot be spawned.
fn run_coordinated(
    spec: &AnySpec,
    preset: &str,
    cf: &ControlFlags,
    tf: &TraceFlags,
    threads: Option<usize>,
    seed: Option<u64>,
    emit: impl Fn(&SweepReport) -> bool,
) -> i32 {
    let trace = &tf.handle();
    let plan = spec.plan(preset);
    let metrics = Metrics::new();
    let n_workers = cf.workers.unwrap_or(0);
    let cfg = RunConfig {
        threads: if n_workers > 0 {
            n_workers
        } else {
            threads.unwrap_or_else(tight_bounds_consensus::pool::default_threads)
        },
        checkpoint: cf.checkpoint.clone(),
        resume: cf.resume,
        stop_after: cf.stop_after,
        trace: trace.clone(),
        ..RunConfig::default()
    };

    let start = Instant::now();
    let delay = Duration::from_millis(cf.cell_delay_ms);
    let result = if n_workers > 0 {
        let mut args = vec![
            "--grid".into(),
            spec.grid_name().into(),
            "--preset".into(),
            preset.into(),
        ];
        if let Some(s) = seed {
            args.push("--seed".into());
            args.push(s.to_string());
        }
        if cf.cell_delay_ms > 0 {
            args.push("--cell-delay-ms".into());
            args.push(cf.cell_delay_ms.to_string());
        }
        let pool = ProcessPool::new(
            WorkerSpawn {
                program: worker_program(),
                args,
            },
            &metrics,
        );
        // A worker that cannot start would fail every cell twice over:
        // spawn one before dispatching, and stop before any output.
        if let Err(e) = pool.spawn_idle() {
            eprintln!("sweep: {e}");
            return 1;
        }
        controlplane::run(&plan, &cfg, &pool, &metrics)
    } else {
        let exec = spec.traced_executor(delay, trace.clone());
        controlplane::run(&plan, &cfg, &exec, &metrics)
    };
    let elapsed_ms = u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX);

    if let Some(path) = &cf.metrics_out {
        let snap = metrics.snapshot(n_workers as u64);
        std::fs::write(path, snap.to_json(Some(elapsed_ms)))
            .unwrap_or_else(|e| write_failed("--metrics-out", path, &e));
    }

    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            tf.write(trace);
            return 1;
        }
    };
    for (cell, error) in &outcome.failed_cells {
        eprintln!("cell {cell} failed: {error}");
    }
    if !outcome.completed {
        eprintln!(
            "sweep interrupted after {} of {} cells ({} resumed); rerun with --resume to finish",
            outcome.resumed + outcome.executed,
            plan.n_cells,
            outcome.resumed,
        );
        tf.write(trace);
        return 0;
    }
    let report = spec.report_from_rows(outcome.outcome_rows().expect("completed run has rows"));
    obswire::enrich_report(trace, &report);
    tf.write(trace);
    let claim_failed = emit(&report);
    i32::from(claim_failed || !outcome.failed_cells.is_empty())
}

/// The stderr lines naming the failed claims of `spec` about its
/// complete `report`.
fn failed_claims(spec: &AnySpec, report: &SweepReport) -> Vec<String> {
    let grid = spec.grid_name();
    (spec.claims(report).into_iter())
        .filter(|(_, ok)| !ok)
        .map(|(what, _)| format!("sweep: {grid} claim failed: {what}"))
        .collect()
}

/// What the default grid's table ends with: at `quick`, every other
/// grid's quick table on the same seed, then, when `--out` wrote the
/// JSON, a note that it covers the default grid only. Also the failed
/// claims of the appended grids.
fn default_grid_appendix(
    preset: &str,
    threads: Option<usize>,
    seed: Option<u64>,
    wrote_json: bool,
) -> (String, Vec<String>) {
    let others: Vec<&str> = AnySpec::registry()
        .map(|(name, _)| name)
        .filter(|&name| name != DEFAULT_GRID)
        .collect();
    let (mut out, mut failed) = (String::new(), Vec::new());
    if preset == "quick" {
        for name in &others {
            let mut other = spec_or_exit(AnySpec::resolve(name, preset));
            if let Some(s) = seed {
                other.set_base_seed(s);
            }
            let report = other.run_in_process(threads);
            out.push('\n');
            out.push_str(&other.table(&report));
            failed.extend(failed_claims(&other, &report));
        }
    }
    if wrote_json {
        out.push_str(&format!(
            "\n(the written JSON covers the {DEFAULT_GRID} grid only; run --grid NAME for the \
             JSON of another grid: {})",
            others.join(", ")
        ));
    }
    (out, failed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut grid = DEFAULT_GRID.to_owned();
    let mut preset: String = "full".into();
    let mut threads: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut json_only = false;
    let mut out_path: Option<String> = None;
    let mut replay: Option<usize> = None;
    let mut cf = ControlFlags::default();
    let mut tf = TraceFlags::default();
    let mut list = false;

    let mut it = args.iter().map(String::as_str);
    while let Some(a) = it.next() {
        match a {
            "--grid" => grid = flag_value(a, it.next(), "a grid name"),
            "--list" => list = true,
            "--golden" => preset = "golden".into(),
            "--quick" => preset = "quick".into(),
            "--full" => preset = "full".into(),
            "--preset" => preset = flag_value(a, it.next(), "a preset name"),
            "--json" => json_only = true,
            "--threads" => threads = Some(flag_value(a, it.next(), "a thread count")),
            "--seed" => seed = Some(flag_value(a, it.next(), "a seed (an unsigned integer)")),
            "--out" => out_path = Some(flag_value(a, it.next(), "a path")),
            "--replay" => replay = Some(flag_value(a, it.next(), "a cell index")),
            "--checkpoint" => cf.checkpoint = Some(flag_value(a, it.next(), "a path")),
            "--resume" => cf.resume = true,
            "--workers" => {
                let n: NonZeroUsize = flag_value(a, it.next(), "a positive worker count");
                cf.workers = Some(n.get());
            }
            "--metrics-out" => cf.metrics_out = Some(flag_value(a, it.next(), "a path")),
            "--stop-after" => cf.stop_after = Some(flag_value(a, it.next(), "a cell count")),
            "--cell-delay-ms" => cf.cell_delay_ms = flag_value(a, it.next(), "a delay in ms"),
            "--trace-out" => tf.out = Some(flag_value(a, it.next(), "a path")),
            "--trace-timing" => tf.timing = true,
            other => usage(&format!(
                "unknown flag `{other}` — see the module docs or --list for usage"
            )),
        }
    }
    if list {
        println!("registered grids (select with --grid NAME):");
        for (name, description) in AnySpec::registry() {
            println!("  {name:<14} {description}");
        }
        return;
    }
    let mut spec = spec_or_exit(AnySpec::resolve(&grid, &preset));
    if let Some(s) = seed {
        spec.set_base_seed(s);
    }
    if tf.out.is_none() && tf.timing {
        usage("--trace-timing needs --trace-out PATH");
    }
    if cf.resume && cf.checkpoint.is_none() {
        usage("--resume needs --checkpoint PATH (the run to resume)");
    }
    if cf.stop_after.is_some() && cf.checkpoint.is_none() {
        usage("--stop-after needs --checkpoint PATH (where the finished cells wait for --resume)");
    }
    if replay.is_some() && (out_path.is_some() || tf.out.is_some()) {
        usage("--replay prints one cell's rows and writes no file: drop --out and --trace-out");
    }
    if tf.out.is_some() && cf.workers.is_some() {
        usage("--trace-out and --workers exclude each other: worker cells record no events");
    }

    // Prints a complete report, then names its failed claims on stderr;
    // whether one failed.
    let emit = |report: &SweepReport| {
        let json = report.to_json();
        if let Some(path) = &out_path {
            std::fs::write(path, &json).unwrap_or_else(|e| write_failed("--out", path, &e));
        }
        let mut failed = failed_claims(&spec, report);
        if json_only {
            print!("{json}");
        } else {
            let mut table = spec.table(report);
            if grid == DEFAULT_GRID {
                let (appendix, appendix_failed) =
                    default_grid_appendix(&preset, threads, seed, out_path.is_some());
                table.push_str(&appendix);
                failed.extend(appendix_failed);
            }
            println!("{table}");
            if let Some(path) = &out_path {
                println!("JSON written to {path}");
            }
        }
        for line in &failed {
            eprintln!("{line}");
        }
        !failed.is_empty()
    };

    if let Some(index) = replay {
        if cf != ControlFlags::default() {
            usage("--replay is a solo debugging path; drop the control-plane flags");
        }
        // Replay one cell solo: same configuration, same seed as the
        // full sweep — the debugging path for a surprising aggregate.
        let Some(solo) = spec.replay(index) else {
            usage(&format!(
                "--replay {index}: the {grid} grid's {preset} preset has {} cells",
                spec.n_cells()
            ));
        };
        if json_only {
            print!("{}", solo.to_json());
            return;
        }
        for ((label, seed), o) in solo.labels.iter().zip(&solo.seeds).zip(&solo.outcomes) {
            print_outcome(index, label, *seed, o);
        }
        return;
    }
    std::process::exit(run_coordinated(
        &spec, &preset, &cf, &tf, threads, seed, emit,
    ));
}
