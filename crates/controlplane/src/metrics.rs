//! Run metrics: lock-free counters updated by the coordinator and its
//! workers, snapshotted at end of run.
//!
//! Two deliberate restrictions keep the metrics layer inside the
//! repo's determinism rules:
//!
//! * **No clocks.** This crate never reads wall-clock time (detlint R3
//!   reserves that for `crates/bench`); throughput figures are computed
//!   from an elapsed time the *caller* measured and passed into
//!   [`MetricsSnapshot::to_json`]. With `elapsed_ms: None` the snapshot
//!   is a pure function of the run — byte-identical across re-runs —
//!   which is what lets tests assert on it.
//! * **No maps.** Counters are named struct fields; the JSON rendering
//!   below writes them in a fixed order.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared run counters. All methods are lock-free and callable from any
/// worker thread.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Total cells in the grid.
    cells_total: AtomicU64,
    /// Cells satisfied from the checkpoint at startup.
    cells_resumed: AtomicU64,
    /// Cells completed by this run (including worker-failed ones).
    cells_done: AtomicU64,
    /// Cells recorded as `WorkerFailed`.
    cells_failed: AtomicU64,
    /// Cells a worker pool re-ran on a fresh worker after a transport
    /// failure.
    retries: AtomicU64,
    /// Worker processes respawned after dying mid-cell.
    worker_restarts: AtomicU64,
    /// Cells currently executing.
    in_flight: AtomicU64,
    /// High-water mark of `in_flight`.
    max_in_flight: AtomicU64,
}

impl Metrics {
    /// Fresh, all-zero counters.
    #[must_use]
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records the grid size and how many cells the checkpoint already
    /// covered.
    pub fn set_plan(&self, cells_total: u64, cells_resumed: u64) {
        self.cells_total.store(cells_total, Ordering::Relaxed);
        self.cells_resumed.store(cells_resumed, Ordering::Relaxed);
    }

    /// A cell began executing.
    pub fn cell_started(&self) {
        let now = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.max_in_flight.fetch_max(now, Ordering::Relaxed);
    }

    /// A cell finished (`failed` when it was recorded as
    /// `WorkerFailed`).
    pub fn cell_finished(&self, failed: bool) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.cells_done.fetch_add(1, Ordering::Relaxed);
        if failed {
            self.cells_failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A worker transport failure: the cell is being re-run on a fresh
    /// worker.
    pub fn retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker process died and was (or will be) respawned.
    pub fn worker_restart(&self) {
        self.worker_restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// Cells completed by this run so far.
    #[must_use]
    pub fn done(&self) -> u64 {
        self.cells_done.load(Ordering::Relaxed)
    }

    /// A consistent-enough copy of the counters (individually atomic;
    /// the set is a point-in-time read, exact once the run has
    /// quiesced).
    #[must_use]
    pub fn snapshot(&self, workers: u64) -> MetricsSnapshot {
        MetricsSnapshot {
            cells_total: self.cells_total.load(Ordering::Relaxed),
            cells_resumed: self.cells_resumed.load(Ordering::Relaxed),
            cells_done: self.cells_done.load(Ordering::Relaxed),
            cells_failed: self.cells_failed.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            max_in_flight: self.max_in_flight.load(Ordering::Relaxed),
            workers,
        }
    }
}

/// A point-in-time copy of every counter, plus the worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Total cells in the grid.
    pub cells_total: u64,
    /// Cells satisfied from the checkpoint at startup.
    pub cells_resumed: u64,
    /// Cells completed by this run.
    pub cells_done: u64,
    /// Cells recorded as `WorkerFailed`.
    pub cells_failed: u64,
    /// Cells re-run on a fresh worker after a transport failure.
    pub retries: u64,
    /// Worker processes respawned.
    pub worker_restarts: u64,
    /// Cells executing at snapshot time (0 once quiesced).
    pub in_flight: u64,
    /// High-water mark of concurrent cells.
    pub max_in_flight: u64,
    /// Configured worker count.
    pub workers: u64,
}

impl MetricsSnapshot {
    /// Serializes the snapshot as stable 2-space-indented JSON.
    ///
    /// `elapsed_ms` is measured by the caller (this crate reads no
    /// clocks); when `None`, `elapsed_ms` and `cells_per_sec` are
    /// `null` and the output is fully deterministic.
    #[must_use]
    pub fn to_json(&self, elapsed_ms: Option<u64>) -> String {
        let (elapsed, rate) = match elapsed_ms {
            Some(ms) => {
                let secs = ms as f64 / 1000.0;
                let rate = if secs > 0.0 {
                    consensus_sweep::report::json_f64(self.cells_done as f64 / secs)
                } else {
                    "null".to_owned()
                };
                (ms.to_string(), rate)
            }
            None => ("null".to_owned(), "null".to_owned()),
        };
        format!(
            "{{\n  \"cells_total\": {},\n  \"cells_resumed\": {},\n  \"cells_done\": {},\n  \"cells_failed\": {},\n  \"retries\": {},\n  \"worker_restarts\": {},\n  \"max_in_flight\": {},\n  \"workers\": {},\n  \"elapsed_ms\": {elapsed},\n  \"cells_per_sec\": {rate}\n}}\n",
            self.cells_total,
            self.cells_resumed,
            self.cells_done,
            self.cells_failed,
            self.retries,
            self.worker_restarts,
            self.max_in_flight,
            self.workers,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = Metrics::new();
        m.set_plan(16, 4);
        m.cell_started();
        m.cell_started();
        m.cell_finished(false);
        m.cell_finished(true);
        m.retry();
        m.worker_restart();
        let s = m.snapshot(3);
        assert_eq!(s.cells_total, 16);
        assert_eq!(s.cells_resumed, 4);
        assert_eq!(s.cells_done, 2);
        assert_eq!(s.cells_failed, 1);
        assert_eq!(s.retries, 1);
        assert_eq!(s.worker_restarts, 1);
        assert_eq!(s.in_flight, 0);
        assert_eq!(s.max_in_flight, 2);
        assert_eq!(s.workers, 3);
    }

    #[test]
    fn snapshot_json_without_elapsed_is_deterministic() {
        let m = Metrics::new();
        m.set_plan(8, 0);
        let a = m.snapshot(2).to_json(None);
        let b = m.snapshot(2).to_json(None);
        assert_eq!(a, b);
        assert!(a.contains("\"elapsed_ms\": null"));
        assert!(a.contains("\"cells_per_sec\": null"));
        assert!(a.ends_with("}\n"));
    }

    #[test]
    fn snapshot_json_with_elapsed_reports_throughput() {
        let m = Metrics::new();
        m.set_plan(4, 0);
        for _ in 0..4 {
            m.cell_started();
            m.cell_finished(false);
        }
        let json = m.snapshot(1).to_json(Some(2000));
        assert!(json.contains("\"elapsed_ms\": 2000"), "{json}");
        assert!(json.contains("\"cells_per_sec\": 2.0"), "{json}");
    }
}
