//! Spawned worker processes: the coordinator side of the
//! `sweep-worker` pipe.
//!
//! A [`ProcessPool`] owns a stack of idle worker processes. Dispatching
//! a cell pops one (spawning lazily if the stack is empty;
//! [`ProcessPool::spawn_idle`] spawns one ahead, so a caller learns
//! that the worker program cannot start before any cell runs), writes one
//! request line (the decimal cell index), reads one reply line (a
//! framed checkpoint record in hex, decoded by
//! [`checkpoint::decode_reply`]), and pushes the worker back.
//!
//! **Failure policy.** The pool is the one place that retries, and it
//! retries only a *transport failure*: the worker cannot be spawned,
//! hangs up, exits before replying, or sends a reply that does not
//! decode or names another cell. Such a worker is discarded and counted
//! as a restart, and the cell runs once more on a fresh process; a
//! second transport failure is the cell's error. A failure record the
//! worker sends for the cell itself is returned at once, and the worker
//! goes back on the stack: the cell is a pure function of its index, so
//! it would fail the same way again. The coordinator records either
//! error as `WorkerFailed`.
//!
//! Dropping a worker (a discarded one, or every idle one when the pool
//! drops) kills its process and reaps it, so no zombies accumulate.
//! Because each cell's result is a pure function of `(grid, preset,
//! base_seed, cell)`, *which* process runs a cell never matters: the
//! process path aggregates bit-identically to the in-process path.

use std::io::{BufRead as _, BufReader, Write as _};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Mutex;

use consensus_sweep::CellOutcome;

use crate::checkpoint;
use crate::coordinator::CellExecutor;
use crate::metrics::Metrics;

/// How to spawn one worker process.
#[derive(Debug, Clone)]
pub struct WorkerSpawn {
    /// The worker binary.
    pub program: PathBuf,
    /// Its arguments (grid/preset/seed configuration — fixed per run).
    pub args: Vec<String>,
}

/// One live worker process with its pipes.
#[derive(Debug)]
struct WorkerProc {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl WorkerProc {
    fn spawn(spawn: &WorkerSpawn) -> Result<WorkerProc, String> {
        let mut child = Command::new(&spawn.program)
            .args(&spawn.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn worker {}: {e}", spawn.program.display()))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(WorkerProc {
            child,
            stdin,
            stdout,
        })
    }

    /// One request/reply round trip: `Ok` holds the cell's own result
    /// (its rows, or the error the worker reported), `Err` a transport
    /// failure.
    fn run_cell(&mut self, cell: u64) -> Result<Result<Vec<CellOutcome>, String>, String> {
        self.stdin
            .write_all(format!("{cell}\n").as_bytes())
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("worker hung up on request for cell {cell}: {e}"))?;
        let mut reply = String::new();
        let n = self
            .stdout
            .read_line(&mut reply)
            .map_err(|e| format!("cannot read worker reply for cell {cell}: {e}"))?;
        if n == 0 {
            return Err(format!("worker exited before replying for cell {cell}"));
        }
        checkpoint::decode_reply(reply.strip_suffix('\n').unwrap_or(&reply), cell)
            .map_err(|e| format!("malformed worker reply for cell {cell}: {e}"))
    }
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        // Kill rather than wait for the worker to see stdin close: a
        // discarded worker may be hung. Reap it so no zombies accumulate
        // over a long sweep.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A pool of spawned worker processes implementing [`CellExecutor`].
///
/// Thread-safe: the idle stack is a mutex, but each round trip happens
/// *outside* the lock, so `N` coordinator threads drive `N` concurrent
/// worker processes.
#[derive(Debug)]
pub struct ProcessPool<'m> {
    spawn: WorkerSpawn,
    idle: Mutex<Vec<WorkerProc>>,
    metrics: &'m Metrics,
}

impl<'m> ProcessPool<'m> {
    /// A pool that spawns workers on demand with the given command
    /// line, reporting retries and restarts to `metrics`.
    #[must_use]
    pub fn new(spawn: WorkerSpawn, metrics: &'m Metrics) -> Self {
        ProcessPool {
            spawn,
            idle: Mutex::new(Vec::new()),
            metrics,
        }
    }

    /// Spawns one worker onto the idle stack, where the first cell
    /// dispatched picks it up.
    ///
    /// # Errors
    ///
    /// The spawn failure, on one line naming the program and the OS
    /// error.
    pub fn spawn_idle(&self) -> Result<(), String> {
        let worker = WorkerProc::spawn(&self.spawn)?;
        self.idle
            .lock()
            .expect("worker stack poisoned")
            .push(worker);
        Ok(())
    }

    fn take_worker(&self) -> Result<WorkerProc, String> {
        if let Some(w) = self.idle.lock().expect("worker stack poisoned").pop() {
            return Ok(w);
        }
        WorkerProc::spawn(&self.spawn)
    }

    /// One round trip of `cell` on `worker`: `Ok` holds the cell's own
    /// result, `Err` a transport failure (a spawn error included).
    fn round_trip(
        &self,
        worker: Result<WorkerProc, String>,
        cell: u64,
    ) -> Result<Result<Vec<CellOutcome>, String>, String> {
        let mut worker = worker?;
        match worker.run_cell(cell) {
            Ok(result) => {
                // The worker answered, with rows or a cell error of its
                // own: it is healthy, so it goes back on the stack.
                self.idle
                    .lock()
                    .expect("worker stack poisoned")
                    .push(worker);
                Ok(result)
            }
            Err(e) => {
                // The process is suspect: drop it (kill + reap).
                self.metrics.worker_restart();
                drop(worker);
                Err(e)
            }
        }
    }
}

impl CellExecutor for ProcessPool<'_> {
    fn run_cell(&self, cell: usize) -> Result<Vec<CellOutcome>, String> {
        let cell = cell as u64;
        self.round_trip(self.take_worker(), cell)
            .or_else(|_| {
                self.metrics.retry();
                self.round_trip(WorkerProc::spawn(&self.spawn), cell)
            })
            .map_err(|e| format!("{e} (retried once on a fresh worker)"))?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{CellRecord, CellStatus};
    use crate::coordinator::{self, RunConfig, SweepPlan};
    use crate::metrics::MetricsSnapshot;

    /// A one-cell plan.
    fn one_cell() -> SweepPlan {
        SweepPlan {
            grid: "ensemble".into(),
            preset: "unit".into(),
            base_seed: 1,
            n_cells: 1,
            rows_per_cell: 1,
        }
    }

    /// Runs [`one_cell`] on `/bin/sh -c script` workers; the cell's
    /// record, its failure message if any, and the metrics snapshot.
    fn run_one_cell(script: &str) -> (CellRecord, Option<String>, MetricsSnapshot) {
        let metrics = Metrics::new();
        let pool = ProcessPool::new(
            WorkerSpawn {
                program: "/bin/sh".into(),
                args: vec!["-c".into(), script.into()],
            },
            &metrics,
        );
        let out = coordinator::run(&one_cell(), &RunConfig::default(), &pool, &metrics)
            .expect("the run completes");
        let record = out.records[0].clone().expect("the cell is recorded");
        let failure = out.failed_cells.into_iter().next().map(|(_, e)| e);
        (record, failure, metrics.snapshot(1))
    }

    #[test]
    fn a_worker_that_dies_once_is_rescued_by_a_fresh_one() {
        let marker = std::env::temp_dir().join(format!("worker-dies-once-{}", std::process::id()));
        std::fs::remove_file(&marker).ok();
        let done = checkpoint::encode_reply(0, 0, Ok(vec![CellOutcome::of_rate(0.5, 1)]));
        let script = format!(
            "if [ -e '{m}' ]; then while read -r cell; do echo {done}; done; \
             else touch '{m}'; read -r cell; exit 0; fi",
            m = marker.display()
        );
        let (record, failure, snap) = run_one_cell(&script);
        std::fs::remove_file(&marker).ok();
        assert_eq!((record.status, failure), (CellStatus::Done, None));
        assert_eq!(record.outcomes[0].rate, 0.5);
        assert_eq!((snap.retries, snap.worker_restarts), (1, 1));
    }

    #[test]
    fn a_cell_error_the_worker_reports_is_not_retried() {
        let failed = checkpoint::encode_reply(0, 0, Err("no such cell".into()));
        let (record, failure, snap) =
            run_one_cell(&format!("while read -r cell; do echo {failed}; done"));
        assert_eq!(record.status, CellStatus::WorkerFailed);
        assert_eq!(
            failure.as_deref(),
            Some("no such cell"),
            "the worker's own message"
        );
        assert_eq!((snap.retries, snap.worker_restarts), (0, 0));
    }

    #[test]
    fn transport_failures_retry_on_a_fresh_worker_then_fail_the_cell() {
        let stray = checkpoint::encode_reply(7, 0, Ok(vec![CellOutcome::of_rate(0.5, 1)]));
        let workers = [
            ("read -r cell; exit 0".to_owned(), "exited before replying"),
            ("read -r cell; echo garbage".to_owned(), "not lowercase hex"),
            (
                format!("while read -r cell; do echo {stray}; done"),
                "names cell 7",
            ),
        ];
        let plan = SweepPlan {
            grid: "ensemble".into(),
            preset: "unit".into(),
            base_seed: 1,
            n_cells: 3,
            rows_per_cell: 1,
        };
        for (script, why) in workers {
            let metrics = Metrics::new();
            let pool = ProcessPool::new(
                WorkerSpawn {
                    program: "/bin/sh".into(),
                    args: vec!["-c".into(), script.clone()],
                },
                &metrics,
            );
            let out = coordinator::run(&plan, &RunConfig::default(), &pool, &metrics)
                .expect("the run completes");
            assert!(out.completed, "{script}");
            for r in &out.records {
                let r = r.as_ref().expect("every cell recorded");
                assert_eq!(r.status, CellStatus::WorkerFailed, "{script}");
            }
            assert_eq!(out.failed_cells.len(), 3, "{script}");
            for (_, error) in &out.failed_cells {
                assert!(error.contains(why), "{script}: {error}");
            }
            let snap = metrics.snapshot(1);
            assert_eq!(snap.retries, 3, "{script}");
            assert_eq!(
                snap.worker_restarts, 6,
                "{script}: both attempts of every cell restart their worker"
            );
        }
    }
}
