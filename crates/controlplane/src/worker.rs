//! Spawned worker processes: the coordinator side of the
//! `sweep-worker` pipe.
//!
//! A [`ProcessPool`] owns a stack of idle worker processes. Dispatching
//! a cell pops one (spawning lazily if the stack is empty), writes one
//! request line (the decimal cell index), reads one reply line (a
//! framed checkpoint record in hex, decoded by
//! [`checkpoint::decode_reply`]), and pushes the worker back. Workers
//! that die mid-cell — crash, kill, a reply that does not decode or
//! names another cell — are discarded and counted as a restart; the
//! *cell* error is returned to the coordinator, whose retry policy
//! (once, then `WorkerFailed`) decides what happens next. A retried
//! cell therefore runs on a fresh process.
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
    /// line, reporting restarts to `metrics`.
    #[must_use]
    pub fn new(spawn: WorkerSpawn, metrics: &'m Metrics) -> Self {
        ProcessPool {
            spawn,
            idle: Mutex::new(Vec::new()),
            metrics,
        }
    }

    fn take_worker(&self) -> Result<WorkerProc, String> {
        if let Some(w) = self.idle.lock().expect("worker stack poisoned").pop() {
            return Ok(w);
        }
        WorkerProc::spawn(&self.spawn)
    }
}

impl CellExecutor for ProcessPool<'_> {
    fn run_cell(&self, cell: usize) -> Result<Vec<CellOutcome>, String> {
        let mut worker = self.take_worker()?;
        match worker.run_cell(cell as u64) {
            Ok(result) => {
                // The worker answered, with rows or a cell error of its
                // own: it is healthy, so it goes back on the stack.
                self.idle
                    .lock()
                    .expect("worker stack poisoned")
                    .push(worker);
                result
            }
            Err(e) => {
                // Transport failure: the process is suspect. Drop it
                // (kill + reap) and let the retry run on a fresh spawn.
                self.metrics.worker_restart();
                drop(worker);
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CellStatus;
    use crate::coordinator::{self, RunConfig, SweepPlan};

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
