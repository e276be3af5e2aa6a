//! The coordinator: walks a grid plan, dispatches cells to an executor
//! (in-process threads or spawned worker processes), streams every
//! completion to the checkpoint, and records failed cells.
//!
//! The control flow is deliberately thin — all the heavy lifting lives
//! in parts that are testable alone:
//!
//! ```text
//! plan + config
//!   └─ resume: load .sweepck, keep Done cells, re-queue the rest
//!   └─ dispatch: pool::try_run_indexed over the cells still to run
//!        runner   = executor.run_cell, once, panics contained,
//!                   inside a `cell` span on (cell, lane::SWEEP)
//!        observer = checkpoint append + metrics, in completion order
//!   └─ profile: the pool's worker and per-cell counters, on
//!               (PROFILE_SHARD, lane::POOL)
//!   └─ merge: resumed records + fresh records, in cell order
//! ```
//!
//! An in-process run is this loop with no checkpoint and no workers:
//! the executor runs each cell on the pool thread that dispatched it.
//!
//! **Determinism contract.** A cell's outcomes are a pure function of
//! `(grid, preset, base_seed, cell)` — the executor guarantees it, the
//! per-cell seeding enforces it — so the merged record vector is
//! identical whether the grid ran in one process, across twelve
//! workers, or in three separately-killed-and-resumed sessions. The CI
//! `resume-integrity` job checks exactly this, byte-for-byte, on the
//! aggregated JSON.
//!
//! **Failure policy.** Each cell runs once. A cell is a pure function
//! of its index, so running it again would fail it the same way. An
//! executor error, a panic or a wrong row count records the cell as
//! [`CellStatus::WorkerFailed`] with placeholder outcomes instead of
//! killing the sweep, and the failure message is surfaced in
//! [`RunOutcome::failed_cells`]. The one failure a second attempt can
//! mend is a worker process dying around its cell, so
//! [`ProcessPool`](crate::worker::ProcessPool) retries that itself, on a
//! fresh process. A later `--resume` re-executes exactly the
//! worker-failed cells.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Mutex;

use consensus_obs::{lane, Event, TraceHandle, PROFILE_SHARD};
use consensus_pool::{self as pool, CancelToken, PoolProfile};
use consensus_sweep::{cell_seed, CellOutcome, SweepError};

use crate::checkpoint::{self, CellRecord, CellStatus, CheckpointHeader, CheckpointWriter};
use crate::metrics::Metrics;

/// Runs one grid cell. Implementations must be pure in the cell index:
/// the same cell always produces the same outcome rows, regardless of
/// thread, process, or how many times it is asked.
pub trait CellExecutor: Sync {
    /// Executes cell `cell` and returns its outcome rows.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of why the cell could not
    /// run (a worker crash, a cell error, …). The coordinator records
    /// the cell as `WorkerFailed` and never calls it again this run.
    fn run_cell(&self, cell: usize) -> Result<Vec<CellOutcome>, String>;
}

impl<F> CellExecutor for F
where
    F: Fn(usize) -> Result<Vec<CellOutcome>, String> + Sync,
{
    fn run_cell(&self, cell: usize) -> Result<Vec<CellOutcome>, String> {
        self(cell)
    }
}

/// The identity of the sweep being coordinated — what goes into the
/// checkpoint header and what a resume validates against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPlan {
    /// Registered grid name.
    pub grid: String,
    /// Preset within the grid.
    pub preset: String,
    /// The sweep's base seed.
    pub base_seed: u64,
    /// Number of grid cells.
    pub n_cells: usize,
    /// Outcome rows per cell.
    pub rows_per_cell: usize,
}

impl SweepPlan {
    /// The checkpoint header this plan writes and validates.
    #[must_use]
    pub fn header(&self) -> CheckpointHeader {
        CheckpointHeader {
            grid: self.grid.clone(),
            preset: self.preset.clone(),
            base_seed: self.base_seed,
            n_cells: self.n_cells as u64,
            rows_per_cell: self.rows_per_cell as u32,
        }
    }
}

/// How to run the plan: parallelism, checkpointing, and early-stop.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// Concurrent cell executions (0 ⇒ 1).
    pub threads: usize,
    /// Checkpoint file to stream completions to, if any.
    pub checkpoint: Option<PathBuf>,
    /// Whether to load an existing checkpoint at `checkpoint` and skip
    /// its `Done` cells (a missing file starts fresh).
    pub resume: bool,
    /// Stop dispatching after this many completions *this session*
    /// (a deterministic stand-in for an external kill in tests); 0
    /// dispatches none.
    pub stop_after: Option<u64>,
    /// Stops dispatch: raised by the run itself on a checkpoint append
    /// failure or at `stop_after`, or by the caller before or during
    /// the run. Finished cells stay in the checkpoint.
    pub cancel: CancelToken,
    /// Structured tracing: a `cell` span around every executed cell,
    /// the pool profile, and a profile-class `coordinate` span with plan
    /// counters. The executor records its cells' own events. Disabled
    /// by default; never affects results.
    pub trace: TraceHandle,
}

/// What a coordinated run produced.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// One slot per grid cell: the cell's record, or `None` when the
    /// run stopped before reaching it.
    pub records: Vec<Option<CellRecord>>,
    /// Cells satisfied from the checkpoint.
    pub resumed: usize,
    /// Cells executed this session.
    pub executed: usize,
    /// Whether every cell now has a record.
    pub completed: bool,
    /// `(cell, error)` for every cell recorded as `WorkerFailed` this
    /// session, ascending by cell.
    pub failed_cells: Vec<(u64, String)>,
}

impl RunOutcome {
    /// The outcome rows of a **completed** run, flattened in cell
    /// order (`rows_per_cell` rows per cell) — the exact input the
    /// in-process aggregation path consumes.
    #[must_use]
    pub fn outcome_rows(&self) -> Option<Vec<CellOutcome>> {
        if !self.completed {
            return None;
        }
        let mut rows = Vec::new();
        for r in &self.records {
            rows.extend(r.as_ref()?.outcomes.iter().copied());
        }
        Some(rows)
    }
}

/// Runs `plan` with `executor`, streaming completions to the checkpoint
/// and counters in `metrics`.
///
/// # Errors
///
/// [`SweepError::Checkpoint`]: an unreadable or corrupt checkpoint, a
/// header that does not match `plan`, or an append failure mid-run (the
/// run cancels and drains first). A failed cell is not an error; it is
/// in [`RunOutcome::failed_cells`].
///
/// # Panics
///
/// Panics with the pool's message if the coordinator's own bookkeeping
/// (checkpoint append, counters, spans) panics. Executor panics are
/// contained and fail only their cell.
pub fn run(
    plan: &SweepPlan,
    cfg: &RunConfig,
    executor: &dyn CellExecutor,
    metrics: &Metrics,
) -> Result<RunOutcome, SweepError> {
    let header = plan.header();
    let mut slots: Vec<Option<CellRecord>> = vec![None; plan.n_cells];
    let mut writer: Option<Mutex<CheckpointWriter>> = None;

    if let Some(path) = &cfg.checkpoint {
        if cfg.resume && path.exists() {
            let loaded = checkpoint::load(path)?;
            if loaded.header != header {
                return Err(SweepError::checkpoint(format!(
                    "checkpoint {} was written by a different sweep \
                     (file: grid={} preset={} base_seed={} cells={} rows={}; \
                     expected: grid={} preset={} base_seed={} cells={} rows={})",
                    path.display(),
                    loaded.header.grid,
                    loaded.header.preset,
                    loaded.header.base_seed,
                    loaded.header.n_cells,
                    loaded.header.rows_per_cell,
                    header.grid,
                    header.preset,
                    header.base_seed,
                    header.n_cells,
                    header.rows_per_cell,
                )));
            }
            slots = loaded.latest_by_cell()?;
            writer = Some(Mutex::new(CheckpointWriter::append_to(
                path,
                loaded.valid_len,
            )?));
        } else {
            writer = Some(Mutex::new(CheckpointWriter::create(path, &header)?));
        }
    }

    // Done cells are settled; WorkerFailed cells get another chance
    // (their stale record stays in the file — last record wins).
    let todo: Vec<usize> = (0..plan.n_cells)
        .filter(|&i| !matches!(&slots[i], Some(r) if r.status == CellStatus::Done))
        .collect();
    let resumed = plan.n_cells - todo.len();
    metrics.set_plan(plan.n_cells as u64, resumed as u64);
    let stop_reached = || cfg.stop_after.is_some_and(|limit| metrics.done() >= limit);
    if stop_reached() {
        cfg.cancel.cancel();
    }

    let io_error: Mutex<Option<SweepError>> = Mutex::new(None);
    let failed_cells: Mutex<Vec<(u64, String)>> = Mutex::new(Vec::new());
    let rows = plan.rows_per_cell;

    let trace = &cfg.trace;
    let mut coord_rec = trace.recorder(PROFILE_SHARD, lane::CONTROL);
    if let Some(rec) = &mut coord_rec {
        rec.record(Event::span_begin("coordinate", 0).profile());
        rec.profile_counter("plan_cells", 0, plan.n_cells as u64);
        rec.profile_counter("plan_resumed", 0, resumed as u64);
    }

    let profile = PoolProfile::new();
    let fresh = pool::try_run_indexed(
        todo.len(),
        cfg.threads.max(1),
        &cfg.cancel,
        &*trace.clock(),
        |j| {
            let i = todo[j];
            in_cell_span(trace, i, || {
                metrics.cell_started();
                let (status, outcomes) = match run_contained(executor, i, rows) {
                    Ok(outcomes) => (CellStatus::Done, outcomes),
                    Err(message) => {
                        failed_cells
                            .lock()
                            .expect("failure list poisoned")
                            .push((i as u64, message));
                        let placeholder = vec![CellOutcome::failed(0, 0); rows];
                        (CellStatus::WorkerFailed, placeholder)
                    }
                };
                CellRecord {
                    cell: i as u64,
                    seed: cell_seed(plan.base_seed, i as u64),
                    status,
                    outcomes,
                }
            })
        },
        |_, record| {
            if let Some(w) = &writer {
                let appended = w.lock().expect("checkpoint writer poisoned").append(record);
                if let Err(e) = appended {
                    io_error
                        .lock()
                        .expect("error slot poisoned")
                        .get_or_insert(e);
                    cfg.cancel.cancel();
                }
            }
            metrics.cell_finished(record.status == CellStatus::WorkerFailed);
            if stop_reached() {
                cfg.cancel.cancel();
            }
        },
        &profile,
    );

    // The profile is complete even when the dispatch failed (the pool
    // flushes worker stats first). Close and commit the coordinate span
    // too, so a partial trace still shows the coordinator phase.
    emit_pool_profile(trace, &profile, &todo);
    if let Some(mut rec) = coord_rec {
        rec.profile_counter("cells_done", 0, metrics.done());
        rec.record(Event::span_end("coordinate", 0).profile());
        trace.commit(rec);
    }
    let fresh = fresh.unwrap_or_else(|e| panic!("the coordinator's bookkeeping panicked: {e}"));

    if let Some(e) = io_error.into_inner().expect("error slot poisoned") {
        return Err(e);
    }

    let mut executed = 0usize;
    for (&i, record) in todo.iter().zip(fresh) {
        if let Some(r) = record {
            slots[i] = Some(r);
            executed += 1;
        }
    }
    let completed = slots.iter().all(Option::is_some);
    let mut failed_cells = failed_cells.into_inner().expect("failure list poisoned");
    failed_cells.sort_unstable_by_key(|(c, _)| *c);
    Ok(RunOutcome {
        records: slots,
        resumed,
        executed,
        completed,
        failed_cells,
    })
}

/// Runs `f` inside a `cell` span on `(cell, lane::SWEEP)` of `trace`;
/// just `f` on a disabled handle.
fn in_cell_span<R>(trace: &TraceHandle, cell: usize, f: impl FnOnce() -> R) -> R {
    let Some(mut rec) = trace.recorder(cell as u64, lane::SWEEP) else {
        return f();
    };
    rec.span_begin("cell", cell as u64);
    let r = f();
    rec.span_end("cell", cell as u64);
    trace.commit(rec);
    r
}

/// Commits a finished dispatch's [`PoolProfile`] as profile-class
/// events on the run-level `(PROFILE_SHARD, lane::POOL)` recorder:
/// per-worker own/stolen cell counts, plus each cell's duration (keyed
/// by its grid index, `todo[job]`) when the trace's clock produces
/// timestamps. A no-op on a disabled handle.
fn emit_pool_profile(trace: &TraceHandle, profile: &PoolProfile, todo: &[usize]) {
    let Some(mut rec) = trace.recorder(PROFILE_SHARD, lane::POOL) else {
        return;
    };
    for w in profile.workers() {
        rec.profile_counter("pool_worker_own", w.worker as u64, w.own);
        rec.profile_counter("pool_worker_stolen", w.worker as u64, w.stolen);
    }
    for (job, ns) in profile.cell_durations_ns() {
        rec.profile_counter("pool_cell_ns", todo[job] as u64, ns);
    }
    trace.commit(rec);
}

/// One executor attempt with panics contained and row counts checked.
fn run_contained(
    executor: &dyn CellExecutor,
    cell: usize,
    rows: usize,
) -> Result<Vec<CellOutcome>, String> {
    let outcomes =
        catch_unwind(AssertUnwindSafe(|| executor.run_cell(cell))).unwrap_or_else(|payload| {
            Err(format!(
                "cell {cell} panicked: {}",
                pool::payload_message(payload)
            ))
        })?;
    if outcomes.len() != rows {
        return Err(format!(
            "cell {cell} produced {} outcome rows, expected {rows}",
            outcomes.len()
        ));
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn plan(n: usize) -> SweepPlan {
        SweepPlan {
            grid: "ensemble".into(),
            preset: "unit".into(),
            base_seed: 42,
            n_cells: n,
            rows_per_cell: 1,
        }
    }

    /// A deterministic fake executor: outcomes derived from the index.
    fn fake_outcome(cell: usize) -> CellOutcome {
        CellOutcome {
            rate: 0.5 + cell as f64 / 100.0,
            decision_round: Some(cell as u64 + 1),
            rounds: cell as u64 + 1,
            converged: true,
            fingerprint: 0x1000 + cell as u64,
        }
    }

    fn fake_exec(cell: usize) -> Result<Vec<CellOutcome>, String> {
        Ok(vec![fake_outcome(cell)])
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("controlplane-unit");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(format!("{name}-{}.sweepck", std::process::id()))
    }

    #[test]
    fn uncheckpointed_run_completes_in_cell_order() {
        let metrics = Metrics::new();
        let out = run(
            &plan(9),
            &RunConfig {
                threads: 3,
                ..RunConfig::default()
            },
            &fake_exec,
            &metrics,
        )
        .expect("run");
        assert!(out.completed);
        assert_eq!((out.resumed, out.executed), (0, 9));
        let rows = out.outcome_rows().expect("complete");
        assert_eq!(rows.len(), 9);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.fingerprint, 0x1000 + i as u64);
            let record = out.records[i].as_ref().expect("complete");
            assert_eq!(record.seed, cell_seed(42, i as u64), "per-cell seed");
        }
        assert_eq!(metrics.snapshot(3).cells_done, 9);
    }

    #[test]
    fn stop_after_then_resume_is_bit_identical_to_fresh() {
        let path = tmp("stopresume");
        std::fs::remove_file(&path).ok();
        let metrics = Metrics::new();
        let partial = run(
            &plan(12),
            &RunConfig {
                threads: 2,
                checkpoint: Some(path.clone()),
                stop_after: Some(5),
                ..RunConfig::default()
            },
            &fake_exec,
            &metrics,
        )
        .expect("partial run");
        assert!(!partial.completed, "stopped early");
        assert!(partial.executed >= 5 && partial.executed < 12);

        let metrics2 = Metrics::new();
        let resumed = run(
            &plan(12),
            &RunConfig {
                threads: 4,
                checkpoint: Some(path.clone()),
                resume: true,
                ..RunConfig::default()
            },
            &fake_exec,
            &metrics2,
        )
        .expect("resumed run");
        assert!(resumed.completed);
        assert_eq!(resumed.resumed, partial.executed);
        assert_eq!(resumed.executed, 12 - partial.executed);

        let fresh = run(
            &plan(12),
            &RunConfig::default(),
            &fake_exec,
            &Metrics::new(),
        )
        .expect("fresh run");
        let a = resumed.outcome_rows().expect("complete");
        let b = fresh.outcome_rows().expect("complete");
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.rate.to_bits(), y.rate.to_bits());
            assert_eq!(x.fingerprint, y.fingerprint);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stop_after_zero_dispatches_nothing_and_resumes_to_the_fresh_rows() {
        let path = tmp("stopzero");
        std::fs::remove_file(&path).ok();
        for threads in [1, 3] {
            let stopped = run(
                &plan(8),
                &RunConfig {
                    threads,
                    checkpoint: Some(path.clone()),
                    stop_after: Some(0),
                    ..RunConfig::default()
                },
                &fake_exec,
                &Metrics::new(),
            )
            .expect("stopped run");
            assert_eq!(stopped.executed, 0, "{threads} threads");
            assert!(!stopped.completed);
            let loaded = checkpoint::load(&path).expect("load");
            assert!(loaded.records.is_empty(), "{threads} threads: header only");
        }
        let resumed = run(
            &plan(8),
            &RunConfig {
                checkpoint: Some(path.clone()),
                resume: true,
                ..RunConfig::default()
            },
            &fake_exec,
            &Metrics::new(),
        )
        .expect("resumed run");
        assert_eq!((resumed.resumed, resumed.executed), (0, 8));
        let fresh =
            run(&plan(8), &RunConfig::default(), &fake_exec, &Metrics::new()).expect("fresh run");
        let a = resumed.outcome_rows().expect("complete");
        let b = fresh.outcome_rows().expect("complete");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.fingerprint, y.fingerprint);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_a_mismatched_plan() {
        let path = tmp("mismatch");
        std::fs::remove_file(&path).ok();
        let _ = run(
            &plan(4),
            &RunConfig {
                checkpoint: Some(path.clone()),
                ..RunConfig::default()
            },
            &fake_exec,
            &Metrics::new(),
        )
        .expect("seed run");
        let mut other = plan(4);
        other.base_seed = 7;
        let err = run(
            &other,
            &RunConfig {
                checkpoint: Some(path.clone()),
                resume: true,
                ..RunConfig::default()
            },
            &fake_exec,
            &Metrics::new(),
        )
        .expect_err("different sweep");
        assert!(err.to_string().contains("different sweep"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_failing_cell_runs_exactly_once() {
        let calls: Vec<AtomicUsize> = (0..6).map(|_| AtomicUsize::new(0)).collect();
        let exec = |cell: usize| {
            calls[cell].fetch_add(1, Ordering::SeqCst);
            if cell == 3 {
                return Err("cell error".to_owned());
            }
            fake_exec(cell)
        };
        let metrics = Metrics::new();
        let out = run(&plan(6), &RunConfig::default(), &exec, &metrics).expect("run");
        assert!(out.completed);
        for (cell, n) in calls.iter().enumerate() {
            assert_eq!(n.load(Ordering::SeqCst), 1, "cell {cell} runs once");
        }
        assert_eq!(
            out.records[3].as_ref().unwrap().status,
            CellStatus::WorkerFailed
        );
        assert_eq!(out.failed_cells, vec![(3, "cell error".to_owned())]);
        assert_eq!(metrics.snapshot(1).retries, 0);
        assert_eq!(metrics.snapshot(1).cells_failed, 1);
    }

    #[test]
    fn persistently_failing_cell_becomes_worker_failed_not_fatal() {
        let exec = |cell: usize| {
            if cell == 2 {
                return Err("dead worker".to_owned());
            }
            fake_exec(cell)
        };
        let metrics = Metrics::new();
        let out = run(&plan(5), &RunConfig::default(), &exec, &metrics).expect("run survives");
        assert!(out.completed, "one bad cell must not kill the sweep");
        let bad = out.records[2].as_ref().unwrap();
        assert_eq!(bad.status, CellStatus::WorkerFailed);
        assert_eq!(bad.outcomes.len(), 1);
        assert!(!bad.outcomes[0].converged);
        assert_eq!(out.failed_cells.len(), 1);
        assert_eq!(out.failed_cells[0].0, 2);
        assert!(out.failed_cells[0].1.contains("dead worker"));
        assert_eq!(metrics.snapshot(1).retries, 0);
        assert_eq!(metrics.snapshot(1).cells_failed, 1);
    }

    #[test]
    fn panicking_cell_is_contained_and_recorded() {
        let exec = |cell: usize| {
            assert!(cell != 1, "boom in cell {cell}");
            fake_exec(cell)
        };
        let out =
            run(&plan(4), &RunConfig::default(), &exec, &Metrics::new()).expect("panics contained");
        assert!(out.completed);
        assert_eq!(
            out.records[1].as_ref().unwrap().status,
            CellStatus::WorkerFailed
        );
        assert!(out.failed_cells[0].1.contains("panicked"));
    }

    #[test]
    fn resume_retries_worker_failed_cells() {
        let path = tmp("retryfailed");
        std::fs::remove_file(&path).ok();
        // First pass: cell 1 always fails → WorkerFailed record.
        let flaky = |cell: usize| {
            if cell == 1 {
                return Err("down".to_owned());
            }
            fake_exec(cell)
        };
        let first = run(
            &plan(4),
            &RunConfig {
                checkpoint: Some(path.clone()),
                ..RunConfig::default()
            },
            &flaky,
            &Metrics::new(),
        )
        .expect("first");
        assert_eq!(first.failed_cells.len(), 1);
        // Second pass (worker healthy again): only cell 1 re-runs.
        let metrics = Metrics::new();
        let second = run(
            &plan(4),
            &RunConfig {
                checkpoint: Some(path.clone()),
                resume: true,
                ..RunConfig::default()
            },
            &fake_exec,
            &metrics,
        )
        .expect("second");
        assert!(second.completed);
        assert_eq!(second.resumed, 3, "done cells stay settled");
        assert_eq!(second.executed, 1, "only the failed cell re-ran");
        assert_eq!(second.records[1].as_ref().unwrap().status, CellStatus::Done);
        // And the file now agrees (last record wins).
        let loaded = checkpoint::load(&path).expect("load");
        let slots = loaded.latest_by_cell().expect("in range");
        assert_eq!(slots[1].as_ref().unwrap().status, CellStatus::Done);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn traced_run_matches_untraced_and_emits_coordinator_spans() {
        let trace = TraceHandle::enabled();
        let traced = run(
            &plan(7),
            &RunConfig {
                threads: 3,
                trace: trace.clone(),
                ..RunConfig::default()
            },
            &fake_exec,
            &Metrics::new(),
        )
        .expect("traced run");
        let plain = run(&plan(7), &RunConfig::default(), &fake_exec, &Metrics::new())
            .expect("untraced run");
        let a = traced.outcome_rows().expect("complete");
        let b = plain.outcome_rows().expect("complete");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.fingerprint, y.fingerprint, "tracing must not perturb");
        }
        let s = trace.merged();
        assert_eq!(s.events_for_span("coordinate").len(), 2);
        assert_eq!(s.events_for_span("cell").len(), 2 * 7);
        assert_eq!(s.counter_total("plan_cells"), 7);
        assert_eq!(s.counter_total("cells_done"), 7);
        assert!(
            s.content().events_for_span("coordinate").is_empty(),
            "coordinator spans are profile-class"
        );
    }

    #[test]
    fn traced_pool_profile_counts_every_cell() {
        let path = tmp("profile");
        std::fs::remove_file(&path).ok();
        let partial = run(
            &plan(12),
            &RunConfig {
                checkpoint: Some(path.clone()),
                stop_after: Some(5),
                ..RunConfig::default()
            },
            &fake_exec,
            &Metrics::new(),
        )
        .expect("partial run");
        let ran_first: Vec<bool> = partial.records.iter().map(Option::is_some).collect();
        let clock: std::sync::Arc<dyn consensus_obs::Clock> =
            std::sync::Arc::new(consensus_obs::TickClock::new());
        let trace = TraceHandle::enabled_with(consensus_obs::DEFAULT_RECORDER_CAP, clock);
        let resumed = run(
            &plan(12),
            &RunConfig {
                threads: 3,
                checkpoint: Some(path.clone()),
                resume: true,
                trace: trace.clone(),
                ..RunConfig::default()
            },
            &fake_exec,
            &Metrics::new(),
        )
        .expect("resumed run");
        let s = trace.merged();
        assert_eq!(
            s.counter_total("pool_worker_own") + s.counter_total("pool_worker_stolen"),
            resumed.executed as u64,
            "profile accounts for every executed cell"
        );
        let mut timed: Vec<u64> = (s.events.iter())
            .filter(|e| e.event.name == "pool_cell_ns")
            .map(|e| e.event.index)
            .collect();
        timed.sort_unstable();
        let skipped: Vec<u64> = (0..12u64).filter(|&i| !ran_first[i as usize]).collect();
        assert_eq!(timed, skipped, "cell durations are keyed by grid cell");
        // Profile events never reach the content stream.
        assert_eq!(s.content().counter_total("pool_worker_own"), 0);
        assert!(s
            .content()
            .events
            .iter()
            .all(|e| e.event.name != "pool_cell_ns"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn external_cancel_leaves_a_resumable_checkpoint() {
        let path = tmp("cancel");
        std::fs::remove_file(&path).ok();
        let cancel = CancelToken::new();
        cancel.cancel();
        let out = run(
            &plan(6),
            &RunConfig {
                checkpoint: Some(path.clone()),
                cancel: cancel.clone(),
                ..RunConfig::default()
            },
            &fake_exec,
            &Metrics::new(),
        )
        .expect("cancelled run still returns");
        assert!(!out.completed);
        assert_eq!(out.executed, 0);
        // The file holds a valid header and is resumable.
        let resumed = run(
            &plan(6),
            &RunConfig {
                checkpoint: Some(path.clone()),
                resume: true,
                ..RunConfig::default()
            },
            &fake_exec,
            &Metrics::new(),
        )
        .expect("resume");
        assert!(resumed.completed);
        std::fs::remove_file(&path).ok();
    }
}
