//! A hand-rolled work-stealing thread pool for embarrassingly parallel
//! workloads: sweep cell grids, the executor's intra-round chunks, and
//! the sweep control plane's cell dispatch.
//!
//! The build environment has no registry access, so instead of `rayon`
//! this crate implements the minimal scheduler those consumers need:
//! every worker owns a deque of job indices (dealt round-robin up
//! front), pops work from its own front, and when empty steals from the
//! back of the other workers' deques. All threads are scoped
//! ([`std::thread::scope`]), so runners may borrow from the caller's
//! stack — no `'static` bounds, no `Arc` plumbing.
//!
//! Results are returned **in cell order** regardless of which worker
//! ran which cell and in which interleaving, which is what makes every
//! consumer's aggregation independent of the thread count (see the
//! 1-thread-vs-N-thread determinism property tests in the sweep
//! crate). [`for_each_chunk_mut`] extends the same guarantee to
//! in-place parallel writes: chunks are disjoint, so any pure-per-slot
//! writer is deterministic at every worker count.
//!
//! Two extensions serve the checkpointing control plane:
//!
//! * [`CancelToken`] — a shared stop flag. A cancelled run stops
//!   *pulling* new jobs but drains the cells already in flight, so a
//!   coordinator shutdown never tears a half-written result out of a
//!   worker's hands.
//! * [`try_run_indexed_observed`] — invokes an observer on the worker
//!   thread the moment each cell completes (the streaming-checkpoint
//!   hook), and reports **every** panicking cell, not just the first.
//!
//! For observability, [`try_run_indexed_profiled`] additionally fills a
//! [`PoolProfile`] with per-worker own/steal counts and per-cell
//! durations (timed through an injected `consensus-obs` [`Clock`] —
//! this crate reads no wall clocks itself).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use consensus_obs::{Clock, NullClock};

/// A shared cancellation flag: cloning yields handles onto the same
/// flag, so a coordinator can hand one to the pool (and a metrics
/// server, and a signal hook) and stop them all with one call.
///
/// Cancellation is *cooperative draining*: a cancelled pool run stops
/// dispatching queued cells but lets in-flight cells finish, so every
/// observed result is complete and every checkpoint record is whole.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Raises the flag. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether [`CancelToken::cancel`] has been called on any clone.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// One panicking cell inside a pool run: the cell index and the
/// stringified panic payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellPanic {
    /// The index of the cell whose runner panicked.
    pub cell: usize,
    /// The panic payload, stringified (`&str` / `String` payloads are
    /// preserved verbatim).
    pub message: String,
}

/// One or more cell runners panicked inside the pool.
///
/// Every panicking cell is collected — a multi-cell failure lists
/// *all* bad indices in ascending order, so a sweep over a poisoned
/// grid reports the complete damage in one pass instead of one cell
/// per re-run. (The panic payload alone cannot identify the cell: by
/// the time a scoped-thread join re-raises it, the index is gone. The
/// sweep harness enriches each entry further with the cell's derived
/// seed.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolError {
    /// Every panicking cell, ascending by index; never empty.
    pub failures: Vec<CellPanic>,
}

impl PoolError {
    /// The lowest-indexed panicking cell (the head of `failures`).
    #[must_use]
    pub fn first(&self) -> &CellPanic {
        &self.failures[0]
    }

    /// The panicking cell indices, ascending.
    #[must_use]
    pub fn cells(&self) -> Vec<usize> {
        self.failures.iter().map(|f| f.cell).collect()
    }
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.failures.len() == 1 {
            let p = &self.failures[0];
            write!(f, "cell {} panicked: {}", p.cell, p.message)
        } else {
            write!(f, "{} cells panicked:", self.failures.len())?;
            for p in &self.failures {
                write!(f, " [cell {}: {}]", p.cell, p.message)?;
            }
            Ok(())
        }
    }
}

impl std::error::Error for PoolError {}

/// What one worker did during a profiled pool run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerProfile {
    /// The worker's index (0-based; the sequential path is worker 0).
    pub worker: usize,
    /// Cells popped from the worker's own deque.
    pub own: u64,
    /// Cells stolen from other workers' deques.
    pub stolen: u64,
    /// `(cell, nanos)` per cell this worker ran, in completion order —
    /// present only when the injected [`Clock`] reports time. Panicked
    /// cells are included (timed to the unwind catch).
    pub cell_nanos: Vec<(usize, u64)>,
}

/// Per-worker statistics collected by [`try_run_indexed_profiled`].
///
/// The profile is **scheduling-dependent by nature** (which worker ran
/// or stole which cell varies run to run), which is why the
/// observability layer surfaces it as profile-class events, excluded
/// from content streams and goldens. It is complete even when cells
/// panic: workers flush their stats before the error is assembled, so
/// a post-mortem of a `WorkerFailed` cell sees the full queue/steal
/// picture.
#[derive(Debug, Default)]
pub struct PoolProfile {
    workers: Mutex<Vec<WorkerProfile>>,
}

impl PoolProfile {
    /// A fresh, empty profile.
    #[must_use]
    pub fn new() -> Self {
        PoolProfile::default()
    }

    fn push(&self, wp: WorkerProfile) {
        self.workers.lock().expect("profile poisoned").push(wp);
    }

    /// Every worker's profile, ascending by worker index.
    #[must_use]
    pub fn workers(&self) -> Vec<WorkerProfile> {
        let mut out = self.workers.lock().expect("profile poisoned").clone();
        out.sort_by_key(|w| w.worker);
        out
    }

    /// Total cells executed (own + stolen, across workers).
    #[must_use]
    pub fn cells_run(&self) -> u64 {
        self.workers().iter().map(|w| w.own + w.stolen).sum()
    }

    /// Total steals across workers.
    #[must_use]
    pub fn steals(&self) -> u64 {
        self.workers().iter().map(|w| w.stolen).sum()
    }

    /// Per-cell durations, ascending by cell index (empty under the
    /// [`NullClock`]).
    #[must_use]
    pub fn cell_durations_ns(&self) -> Vec<(usize, u64)> {
        let mut out: Vec<(usize, u64)> = self
            .workers()
            .iter()
            .flat_map(|w| w.cell_nanos.iter().copied())
            .collect();
        out.sort_by_key(|&(cell, _)| cell);
        out
    }
}

/// Stringifies a panic payload (the `Box<dyn Any>` from `catch_unwind`).
fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f(0), f(1), …, f(n_cells - 1)` on up to `threads` workers and
/// returns the results in index order.
///
/// `threads ≤ 1` (or a single cell) degrades to a plain sequential loop
/// with no thread or lock overhead. Worker identity never influences the
/// result: the output of cell `i` is `f(i)`, full stop.
///
/// # Panics
///
/// Propagates cell-runner panics, re-raised with every offending cell
/// index (see [`try_run_indexed`] for the non-panicking form).
pub fn run_indexed<R, F>(n_cells: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    match try_run_indexed(n_cells, threads, f) {
        Ok(out) => out,
        Err(e) => panic!("sweep worker panicked: {e}"),
    }
}

/// Like [`run_indexed`], but panicking cell runners are reported as a
/// [`PoolError`] naming **every** bad cell instead of tearing the
/// caller down.
///
/// All cells run to completion even when some panic (a panicking cell
/// is caught and recorded, and its worker moves on), so the error is a
/// complete census of the poisoned cells — deterministic regardless of
/// interleaving, ascending by index. The closure is wrapped in
/// [`AssertUnwindSafe`]: a panicking cell may leave caller-owned shared
/// state (atomics, mutexes) partially updated, as with any propagated
/// panic.
///
/// # Errors
///
/// Returns every panicking cell with its panic message, ascending by
/// cell index.
pub fn try_run_indexed<R, F>(n_cells: usize, threads: usize, f: F) -> Result<Vec<R>, PoolError>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let slots = try_run_indexed_observed(n_cells, threads, &CancelToken::new(), f, |_, _| {})?;
    // No cancellation and no error ⇒ every cell completed.
    Ok(slots
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| panic!("cell {i} never ran")))
        .collect())
}

/// The streaming, cancellable core of the pool: runs the cells of
/// `0..n_cells` on up to `threads` workers, invoking `observe(i, &r)`
/// **on the worker thread** the moment cell `i` completes — the hook a
/// checkpointing coordinator uses to stream results to disk in
/// completion order — and stopping the dispatch of *new* cells once
/// `cancel` is raised (in-flight cells drain and are still observed).
///
/// Returns one slot per cell: `Some(result)` for cells that ran,
/// `None` for cells skipped because of cancellation. Without
/// cancellation every slot is `Some`.
///
/// A panic inside `f` *or* `observe` is recorded against the cell and
/// the worker moves on; all such cells are reported together.
///
/// # Errors
///
/// Returns every panicking cell with its panic message, ascending by
/// cell index.
pub fn try_run_indexed_observed<R, F, O>(
    n_cells: usize,
    threads: usize,
    cancel: &CancelToken,
    f: F,
    observe: O,
) -> Result<Vec<Option<R>>, PoolError>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
    O: Fn(usize, &R) + Sync,
{
    try_run_indexed_profiled(
        n_cells,
        threads,
        cancel,
        &NullClock,
        f,
        observe,
        &PoolProfile::new(),
    )
}

/// [`try_run_indexed_observed`] plus profiling: per-worker own/steal
/// cell counts and — when `clock` reports time — per-cell durations,
/// flushed into `profile`.
///
/// The profile is flushed by every worker before the run returns,
/// **including when cells panic**: an `Err` still leaves `profile`
/// holding the complete queue/steal census, so post-mortem traces of
/// failed cells are never blind. Under the [`NullClock`] the per-cell
/// timing overhead is two virtual calls per cell.
///
/// # Errors
///
/// Returns every panicking cell with its panic message, ascending by
/// cell index.
#[allow(clippy::too_many_arguments)]
pub fn try_run_indexed_profiled<R, F, O>(
    n_cells: usize,
    threads: usize,
    cancel: &CancelToken,
    clock: &dyn Clock,
    f: F,
    observe: O,
    profile: &PoolProfile,
) -> Result<Vec<Option<R>>, PoolError>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
    O: Fn(usize, &R) + Sync,
{
    let workers = threads.max(1).min(n_cells.max(1));
    let run_one = |i: usize, wp: &mut WorkerProfile| -> Result<R, CellPanic> {
        let t0 = clock.now_nanos();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let r = f(i);
            observe(i, &r);
            r
        }))
        .map_err(|payload| CellPanic {
            cell: i,
            message: payload_message(payload),
        });
        if let (Some(t0), Some(t1)) = (t0, clock.now_nanos()) {
            wp.cell_nanos.push((i, t1.saturating_sub(t0)));
        }
        result
    };

    if workers <= 1 {
        let mut wp = WorkerProfile::default();
        let mut out: Vec<Option<R>> = Vec::with_capacity(n_cells);
        let mut failures = Vec::new();
        for i in 0..n_cells {
            if cancel.is_cancelled() {
                out.push(None);
                continue;
            }
            wp.own += 1;
            match run_one(i, &mut wp) {
                Ok(r) => out.push(Some(r)),
                Err(p) => {
                    failures.push(p);
                    out.push(None);
                }
            }
        }
        profile.push(wp);
        if failures.is_empty() {
            return Ok(out);
        }
        return Err(PoolError { failures });
    }

    // Deal the cells round-robin so every deque starts with work spread
    // across the whole grid (neighboring cells often cost alike; dealing
    // them apart balances better than contiguous chunks).
    let mut deques: Vec<VecDeque<usize>> = vec![VecDeque::new(); workers];
    for i in 0..n_cells {
        deques[i % workers].push_back(i);
    }
    let deques: Vec<Mutex<VecDeque<usize>>> = deques.into_iter().map(Mutex::new).collect();

    let mut collected: Vec<Vec<(usize, R)>> = Vec::with_capacity(workers);
    let mut failures: Vec<CellPanic> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let deques = &deques;
                let run_one = &run_one;
                scope.spawn(move || {
                    let mut wp = WorkerProfile {
                        worker: w,
                        ..WorkerProfile::default()
                    };
                    let mut done: Vec<(usize, R)> = Vec::new();
                    let mut bad: Vec<CellPanic> = Vec::new();
                    while !cancel.is_cancelled() {
                        match next_job(deques, w) {
                            Some((i, stolen)) => {
                                if stolen {
                                    wp.stolen += 1;
                                } else {
                                    wp.own += 1;
                                }
                                match run_one(i, &mut wp) {
                                    Ok(r) => done.push((i, r)),
                                    Err(p) => bad.push(p),
                                }
                            }
                            None => break,
                        }
                    }
                    // Flush before the join so the profile is complete
                    // even when `bad` turns the run into an error.
                    profile.push(wp);
                    (done, bad)
                })
            })
            .collect();
        for h in handles {
            let (done, bad) = h.join().expect("pool worker infrastructure panicked");
            collected.push(done);
            failures.extend(bad);
        }
    });

    if !failures.is_empty() {
        failures.sort_by_key(|p| p.cell);
        return Err(PoolError { failures });
    }

    // Reassemble in cell order; every index appears at most once because
    // jobs are only produced by the up-front deal.
    let mut slots: Vec<Option<R>> = (0..n_cells).map(|_| None).collect();
    for (i, r) in collected.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "cell {i} ran twice");
        slots[i] = Some(r);
    }
    Ok(slots)
}

/// Applies `f` to disjoint chunks of `items`, in parallel across up to
/// `threads` workers. Each call receives the chunk's starting index in
/// `items` and the mutable chunk slice; chunks are `chunk_len` items
/// (the last one shorter). Used by the chunked executor to split a
/// round's state writes across cores: chunks are disjoint, so results
/// are independent of the worker count and interleaving whenever `f`
/// writes each slot as a pure function of the slot's global index.
///
/// `threads ≤ 1` (or a single chunk) runs sequentially in place.
pub fn for_each_chunk_mut<T, F>(items: &mut [T], chunk_len: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = items.len();
    if n == 0 {
        return;
    }
    let chunk_len = chunk_len.max(1);
    let n_chunks = n.div_ceil(chunk_len);
    let workers = threads.max(1).min(n_chunks);
    if workers <= 1 {
        for (k, chunk) in items.chunks_mut(chunk_len).enumerate() {
            f(k * chunk_len, chunk);
        }
        return;
    }

    // Hand out the (disjoint) chunk slices through one shared queue;
    // chunk granularity is coarse, so the lock is uncontended in
    // practice.
    let jobs: Mutex<Vec<(usize, &mut [T])>> = Mutex::new(
        items
            .chunks_mut(chunk_len)
            .enumerate()
            .map(|(k, chunk)| (k * chunk_len, chunk))
            .collect(),
    );
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let job = jobs.lock().expect("chunk queue poisoned").pop();
                match job {
                    Some((start, chunk)) => f(start, chunk),
                    None => break,
                }
            });
        }
    });
}

/// Pops the next job for worker `w`: own deque front first, then steal
/// from the back of the other deques (scanning circularly from `w + 1`).
/// The flag reports whether the job was stolen (for [`PoolProfile`]).
fn next_job(deques: &[Mutex<VecDeque<usize>>], w: usize) -> Option<(usize, bool)> {
    if let Some(i) = deques[w].lock().expect("deque poisoned").pop_front() {
        return Some((i, false));
    }
    let k = deques.len();
    for off in 1..k {
        let victim = (w + off) % k;
        if let Some(i) = deques[victim].lock().expect("deque poisoned").pop_back() {
            return Some((i, true));
        }
    }
    None
}

/// The worker count used when a sweep does not set one explicitly: the
/// machine's available parallelism, or 1 when that cannot be determined.
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_cell_order() {
        for threads in [1, 2, 3, 8] {
            let out = run_indexed(37, threads, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_cell_runs_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..101).map(|_| AtomicUsize::new(0)).collect();
        let _ = run_indexed(101, 4, |i| hits[i].fetch_add(1, Ordering::SeqCst));
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn empty_grid_is_fine() {
        let out: Vec<u8> = run_indexed(0, 4, |_| unreachable!("no cells"));
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_cells_is_fine() {
        let out = run_indexed(3, 64, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn borrows_caller_stack_without_arc() {
        let data = [10usize, 20, 30, 40];
        let out = run_indexed(data.len(), 2, |i| data[i] * 2);
        assert_eq!(out, vec![20, 40, 60, 80]);
    }

    #[test]
    fn stealing_drains_imbalanced_loads() {
        // Cell 0 is slow; the other worker must steal the rest.
        let out = run_indexed(16, 2, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "sweep worker panicked")]
    fn worker_panics_propagate() {
        let _ = run_indexed(4, 2, |i| {
            assert!(i != 2, "boom");
            i
        });
    }

    #[test]
    fn try_run_reports_the_poisoned_cell() {
        for threads in [1, 2, 4] {
            let err = try_run_indexed(8, threads, |i| {
                assert!(i != 5, "cell five is poisoned");
                i * 10
            })
            .unwrap_err();
            assert_eq!(err.first().cell, 5);
            assert!(
                err.first().message.contains("cell five is poisoned"),
                "payload lost: {}",
                err.first().message
            );
            assert!(err.to_string().contains("cell 5 panicked"));
        }
    }

    /// Regression for the first-panic-only bug: a multi-cell failure
    /// must list **every** bad cell, not just the lowest-indexed one.
    #[test]
    fn try_run_collects_every_panicking_cell() {
        for threads in [1, 2, 4] {
            let err = try_run_indexed(8, threads, |i| {
                assert!(i != 2 && i != 6, "cell {i} is poisoned");
                i
            })
            .unwrap_err();
            assert_eq!(err.cells(), vec![2, 6], "threads={threads}");
            assert!(err.failures[0].message.contains("cell 2 is poisoned"));
            assert!(err.failures[1].message.contains("cell 6 is poisoned"));
            let text = err.to_string();
            assert!(
                text.contains("2 cells panicked") && text.contains("cell 6"),
                "{text}"
            );
        }
    }

    #[test]
    fn try_run_reports_all_odd_cells() {
        let err = try_run_indexed(16, 4, |i| assert!(i % 2 == 0, "odd cell {i}")).unwrap_err();
        assert_eq!(
            err.cells(),
            (0..16).filter(|i| i % 2 == 1).collect::<Vec<_>>()
        );
        assert_eq!(err.first().cell, 1, "smallest failing index leads");
    }

    #[test]
    fn try_run_ok_matches_run_indexed() {
        let a = try_run_indexed(23, 3, |i| i * i).unwrap();
        let b = run_indexed(23, 3, |i| i * i);
        assert_eq!(a, b);
    }

    #[test]
    fn string_panic_payloads_survive() {
        let err = try_run_indexed(2, 1, |i| {
            if i == 1 {
                panic!("seed {} went bad", 42);
            }
        })
        .unwrap_err();
        assert_eq!(err.first().message, "seed 42 went bad");
    }

    #[test]
    fn observer_sees_every_completion_exactly_once() {
        for threads in [1, 3] {
            let seen: Vec<AtomicUsize> = (0..33).map(|_| AtomicUsize::new(0)).collect();
            let out = try_run_indexed_observed(
                33,
                threads,
                &CancelToken::new(),
                |i| i * 3,
                |i, r| {
                    assert_eq!(*r, i * 3, "observer sees the cell's own result");
                    seen[i].fetch_add(1, Ordering::SeqCst);
                },
            )
            .unwrap();
            assert!(seen.iter().all(|h| h.load(Ordering::SeqCst) == 1));
            assert!(out.iter().enumerate().all(|(i, r)| *r == Some(i * 3)));
        }
    }

    #[test]
    fn cancellation_drains_without_new_dispatch() {
        let cancel = CancelToken::new();
        let started = AtomicUsize::new(0);
        let out = try_run_indexed_observed(
            64,
            2,
            &cancel,
            |i| {
                started.fetch_add(1, Ordering::SeqCst);
                if started.load(Ordering::SeqCst) >= 4 {
                    cancel.cancel();
                }
                i
            },
            |_, _| {},
        )
        .unwrap();
        let ran = out.iter().filter(|r| r.is_some()).count();
        assert!(ran >= 4, "the in-flight cells drained: {ran}");
        assert!(ran < 64, "cancellation stopped new dispatch: {ran}");
        // Completed slots hold their cell's result; skipped slots are None.
        for (i, r) in out.iter().enumerate() {
            if let Some(v) = r {
                assert_eq!(*v, i);
            }
        }
    }

    #[test]
    fn cancelled_before_start_runs_nothing() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let out = try_run_indexed_observed(8, 3, &cancel, |_| unreachable!("cancelled"), |_, _| {})
            .unwrap();
        assert!(out.iter().all(Option::is_none));
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
    }

    #[test]
    fn chunks_cover_every_slot_once() {
        for threads in [1, 2, 4, 7] {
            for chunk_len in [1, 3, 64, 1000] {
                let mut v = vec![0usize; 257];
                for_each_chunk_mut(&mut v, chunk_len, threads, |start, chunk| {
                    for (k, slot) in chunk.iter_mut().enumerate() {
                        *slot += start + k + 1;
                    }
                });
                assert!(
                    v.iter().enumerate().all(|(i, &x)| x == i + 1),
                    "threads={threads} chunk_len={chunk_len}"
                );
            }
        }
    }

    #[test]
    fn empty_chunked_slice_is_fine() {
        let mut v: Vec<u8> = Vec::new();
        for_each_chunk_mut(&mut v, 8, 4, |_, _| unreachable!("no chunks"));
    }

    #[test]
    fn profile_counts_own_and_stolen_cells() {
        use consensus_obs::TickClock;
        for threads in [1, 2, 4] {
            let profile = PoolProfile::new();
            let clock = TickClock::new();
            let out = try_run_indexed_profiled(
                24,
                threads,
                &CancelToken::new(),
                &clock,
                |i| i * 2,
                |_, _| {},
                &profile,
            )
            .unwrap();
            assert_eq!(out.len(), 24);
            assert_eq!(profile.cells_run(), 24, "threads={threads}");
            let durations = profile.cell_durations_ns();
            assert_eq!(durations.len(), 24, "tick clock times every cell");
            assert_eq!(
                durations.iter().map(|&(c, _)| c).collect::<Vec<_>>(),
                (0..24).collect::<Vec<_>>(),
                "durations are reported per cell, ascending"
            );
            let workers = profile.workers();
            assert!(workers.len() <= threads);
            assert!(workers.iter().all(|w| w.worker < threads));
        }
    }

    #[test]
    fn null_clock_skips_durations_but_keeps_counts() {
        let profile = PoolProfile::new();
        let _ = try_run_indexed_profiled(
            9,
            3,
            &CancelToken::new(),
            &NullClock,
            |i| i,
            |_, _| {},
            &profile,
        )
        .unwrap();
        assert_eq!(profile.cells_run(), 9);
        assert!(profile.cell_durations_ns().is_empty());
    }

    /// Regression: a panicking cell must not lose the run's queue/steal
    /// statistics — the profile stays a complete census so post-mortem
    /// traces of failed cells see the full picture.
    #[test]
    fn profile_is_complete_even_when_a_cell_panics() {
        use consensus_obs::TickClock;
        for threads in [1, 2, 4] {
            let profile = PoolProfile::new();
            let clock = TickClock::new();
            let err = try_run_indexed_profiled(
                16,
                threads,
                &CancelToken::new(),
                &clock,
                |i| {
                    assert!(i != 5, "cell five is poisoned");
                    i
                },
                |_, _| {},
                &profile,
            )
            .unwrap_err();
            assert_eq!(err.cells(), vec![5]);
            assert_eq!(
                profile.cells_run(),
                16,
                "threads={threads}: panicked cell still counted"
            );
            assert!(
                profile.cell_durations_ns().iter().any(|&(c, _)| c == 5),
                "threads={threads}: the poisoned cell is timed too"
            );
        }
    }

    #[test]
    fn stealing_is_visible_in_the_profile() {
        // Worker 0 sleeps on its first cell; with 2 workers the other
        // one must steal from its deque to drain the grid.
        let profile = PoolProfile::new();
        let _ = try_run_indexed_profiled(
            16,
            2,
            &CancelToken::new(),
            &NullClock,
            |i| {
                if i == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                }
                i
            },
            |_, _| {},
            &profile,
        )
        .unwrap();
        assert_eq!(profile.cells_run(), 16);
        assert!(profile.steals() > 0, "slow worker forces steals");
    }
}
