//! A hand-rolled work-stealing thread pool for embarrassingly parallel
//! workloads: sweep cell grids, the executor's intra-round chunks, the
//! adaptive adversaries' candidate scoring, and the sweep control
//! plane's cell dispatch.
//!
//! The build environment has no registry access, so instead of `rayon`
//! this crate implements the minimal scheduler those consumers need:
//! every worker owns a deque of job indices (dealt round-robin up
//! front), pops work from its own front, and when empty steals from the
//! back of the other workers' deques.
//!
//! Results are returned **in cell order** regardless of which worker
//! ran which cell and in which interleaving, which is what makes every
//! consumer's aggregation independent of the thread count (see the
//! 1-thread-vs-N-thread determinism property tests in the sweep
//! crate). [`for_each_chunk_mut`] extends the same guarantee to
//! in-place parallel writes: chunks are disjoint, so any pure-per-slot
//! writer is deterministic at every worker count.
//!
//! # Forks
//!
//! All three entry points — [`run_indexed`], [`try_run_indexed`] and
//! [`for_each_chunk_mut`] — fork through one core:
//!
//! * **The caller participates.** A call on `t` workers spawns `t − 1`
//!   scoped helper threads ([`std::thread::scope`]) and runs worker 0's
//!   share on the calling thread, which would otherwise only wait in
//!   the join. Scoped threads let runners borrow from the caller's
//!   stack — no `'static` bounds, no `Arc` plumbing.
//! * **Nested calls run inline.** A pool call made on a thread that is
//!   running one worker's share of a forked call (a sweep cell whose
//!   adversary scores candidates, say) runs every item on that thread:
//!   the outer call already occupies the workers it was given, and a
//!   nested fork would only oversubscribe the machine. A call on one
//!   worker runs inline without marking its thread, so the cells of a
//!   1-thread sweep still fork their own pool calls.
//!
//! There are no spawn-once workers. A persistent thread can run a
//! closure that borrows the caller's stack only once the closure's
//! lifetime is erased, which takes `unsafe` code, and every crate root
//! of the workspace forbids it. Each forked call therefore pays a thread
//! spawn per helper, and callers keep small jobs off the pool instead:
//! the adversaries' candidate scoring forks only chunks of at least a
//! work grain, several dispatches' worth of scoring.
//!
//! Two extensions of [`try_run_indexed`] serve the checkpointing
//! control plane:
//!
//! * [`CancelToken`] — a shared stop flag. A cancelled run stops
//!   *pulling* new jobs but drains the cells already in flight, so a
//!   coordinator shutdown never tears a half-written result out of a
//!   worker's hands.
//! * An observer invoked on the worker thread the moment each cell
//!   completes (the streaming-checkpoint hook); every panicking cell is
//!   reported, not just the first.
//!
//! For observability it also fills a [`PoolProfile`] with per-worker
//! own/steal counts and per-cell durations (timed through an injected
//! `consensus-obs` [`Clock`] — this crate reads no wall clocks itself).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
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
/// control plane's coordinator maps each entry back to its grid cell
/// and that cell's derived seed.)
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
    /// The worker's index (0-based; worker 0 runs on the calling thread).
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

/// Per-worker statistics collected by [`try_run_indexed`].
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

/// Stringifies a panic payload (the `Box<dyn Any>` from `catch_unwind`):
/// `&str` and `String` payloads verbatim, anything else as
/// `non-string panic payload`.
#[must_use]
pub fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
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
/// The calling thread is worker 0; a call made on a pool worker runs
/// every cell inline (see [Forks](crate#forks)). Worker identity never
/// influences the result: the output of cell `i` is `f(i)`, full stop.
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
    let slots = try_run_indexed(
        n_cells,
        threads,
        &CancelToken::new(),
        &NullClock,
        f,
        |_, _| {},
        &PoolProfile::new(),
    )
    .unwrap_or_else(|e| panic!("sweep worker panicked: {e}"));
    slots
        .into_iter()
        .map(|r| r.expect("an uncancelled run completes every cell"))
        .collect()
}

/// The fallible, streaming, cancellable, profiled form of
/// [`run_indexed`]: runs the cells of `0..n_cells` on up to `threads`
/// workers, invoking `observe(i, &r)` **on the worker thread** the
/// moment cell `i` completes — the hook a checkpointing coordinator uses
/// to stream results to disk in completion order — and stopping the
/// dispatch of *new* cells once `cancel` is raised (in-flight cells
/// drain and are still observed).
///
/// Returns one slot per cell: `Some(result)` for cells that ran, `None`
/// for cells skipped because of cancellation. Without cancellation every
/// slot is `Some`.
///
/// A panic inside `f` *or* `observe` is caught and recorded against the
/// cell, and its worker moves on, so every cell runs even when some
/// panic and the error is a complete census of the poisoned cells —
/// deterministic regardless of interleaving. The closures are wrapped
/// in [`AssertUnwindSafe`]: a panicking cell may leave caller-owned
/// shared state (atomics, mutexes) partially updated, as with any
/// propagated panic.
///
/// `profile` receives every worker's own/steal cell counts and — when
/// `clock` reports time — per-cell durations. Every worker flushes its
/// stats before the run returns, **including when cells panic**, so an
/// `Err` still leaves `profile` a complete census. Under the
/// [`NullClock`] the timing costs two virtual calls per cell.
///
/// # Errors
///
/// Returns every panicking cell with its panic message, ascending by
/// cell index.
#[allow(clippy::too_many_arguments)]
pub fn try_run_indexed<R, F, O>(
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

    // Deal the cells round-robin so every deque starts with work spread
    // across the whole grid (neighboring cells often cost alike; dealing
    // them apart balances better than contiguous chunks).
    let workers = width(threads, n_cells);
    let mut deques: Vec<VecDeque<usize>> = vec![VecDeque::new(); workers];
    for i in 0..n_cells {
        deques[i % workers].push_back(i);
    }
    let deques: Vec<Mutex<VecDeque<usize>>> = deques.into_iter().map(Mutex::new).collect();

    let per_worker = fork(workers, |w| {
        let mut wp = WorkerProfile {
            worker: w,
            ..WorkerProfile::default()
        };
        let mut done: Vec<(usize, R)> = Vec::new();
        let mut bad: Vec<CellPanic> = Vec::new();
        while !cancel.is_cancelled() {
            let Some((i, stolen)) = next_job(&deques, w) else {
                break;
            };
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
        // Flush before returning so the profile is complete even when
        // `bad` turns the run into an error.
        profile.push(wp);
        (done, bad)
    });

    // Reassemble in cell order; every index appears at most once because
    // jobs are only produced by the up-front deal.
    let mut slots: Vec<Option<R>> = (0..n_cells).map(|_| None).collect();
    let mut failures: Vec<CellPanic> = Vec::new();
    for (done, bad) in per_worker {
        for (i, r) in done {
            debug_assert!(slots[i].is_none(), "cell {i} ran twice");
            slots[i] = Some(r);
        }
        failures.extend(bad);
    }
    if failures.is_empty() {
        return Ok(slots);
    }
    failures.sort_by_key(|p| p.cell);
    Err(PoolError { failures })
}

/// Applies `f` to disjoint chunks of `items`, in parallel across up to
/// `threads` workers. Each call receives the chunk's starting index in
/// `items` and the mutable chunk slice; chunks are `chunk_len` items
/// (the last one shorter). Used by the chunked executor to split a
/// round's state writes across cores: chunks are disjoint, so results
/// are independent of the worker count and interleaving whenever `f`
/// writes each slot as a pure function of the slot's global index.
///
/// # Panics
///
/// Propagates a panic of `f` once every worker has finished.
pub fn for_each_chunk_mut<T, F>(items: &mut [T], chunk_len: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk_len = chunk_len.max(1);
    let workers = width(threads, items.len().div_ceil(chunk_len));
    // Hand the chunks out in ascending order through one shared iterator;
    // chunk granularity is coarse, so the lock is uncontended in practice.
    let jobs = Mutex::new(items.chunks_mut(chunk_len).enumerate());
    fork(workers, |_| loop {
        let job = jobs.lock().expect("chunk queue poisoned").next();
        match job {
            Some((k, chunk)) => f(k * chunk_len, chunk),
            None => break,
        }
    });
}

thread_local! {
    /// Whether this thread is running one worker's share of a forked
    /// pool call (see [`fork`]).
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as a pool worker until dropped, then
/// restores the previous mark — on unwind too, so a panicking cell
/// cannot leave its thread marked.
struct PoolMark(bool);

impl PoolMark {
    fn enter() -> Self {
        PoolMark(IN_POOL.replace(true))
    }
}

impl Drop for PoolMark {
    fn drop(&mut self) {
        IN_POOL.set(self.0);
    }
}

/// The number of workers a call with `threads` and `jobs` runs on:
/// `threads`, capped by the job count, or 1 — inline — on a thread that
/// is already a pool worker, whose siblings keep the machine busy.
fn width(threads: usize, jobs: usize) -> usize {
    if IN_POOL.get() {
        1
    } else {
        threads.clamp(1, jobs.max(1))
    }
}

/// The fork core behind every pool call: runs `work(w)` for each worker
/// `w < workers` and returns the results in worker order. Worker 0 runs
/// on the calling thread, which would otherwise idle in the join; the
/// others run on scoped helper threads, so `work` may borrow from the
/// caller's stack. While they run, forked workers are marked as pool
/// workers, which makes a pool call inside `work` run inline. One
/// worker runs inline and unmarked.
///
/// A panic of `work` propagates with its original payload once every
/// worker has finished.
fn fork<T: Send>(workers: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if workers <= 1 {
        return vec![work(0)];
    }
    let marked = |w| {
        let _mark = PoolMark::enter();
        work(w)
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers)
            .map(|w| {
                let marked = &marked;
                scope.spawn(move || marked(w))
            })
            .collect();
        let mut out = Vec::with_capacity(workers);
        out.push(marked(0));
        for h in helpers {
            out.push(h.join().unwrap_or_else(|payload| resume_unwind(payload)));
        }
        out
    })
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
    use std::sync::{mpsc, Barrier};
    use std::thread::{self, ThreadId};

    /// The plain fallible run: no cancellation, clock or observer.
    fn try_run<R: Send>(
        n_cells: usize,
        threads: usize,
        f: impl Fn(usize) -> R + Sync,
    ) -> Result<Vec<R>, PoolError> {
        let slots = try_run_indexed(
            n_cells,
            threads,
            &CancelToken::new(),
            &NullClock,
            f,
            |_, _| {},
            &PoolProfile::new(),
        )?;
        Ok(slots.into_iter().map(Option::unwrap).collect())
    }

    /// The thread of each cell of a 2-worker run whose two cells wait
    /// for each other. They run at once on two threads, and cell 0 —
    /// the head of worker 0's deque, which the other worker can only
    /// steal once its own cell 1 is done — runs on the caller.
    fn rendezvous_threads() -> Vec<ThreadId> {
        let meet = Barrier::new(2);
        run_indexed(2, 2, |_| {
            meet.wait();
            thread::current().id()
        })
    }

    /// A 16-cell runner for 2 workers whose cell 0 blocks until every
    /// other cell has run: cell 0's worker is stuck in it, so the other
    /// worker must steal from cell 0's deque.
    fn cell_zero_waits_for_the_rest() -> impl Fn(usize) -> usize + Sync {
        let (tx, rx) = mpsc::channel();
        let rx = Mutex::new(rx);
        move |i| {
            if i == 0 {
                let rx = rx.lock().expect("one waiter");
                for _ in 1..16 {
                    rx.recv().expect("the other cells hold a sender");
                }
            } else {
                tx.send(()).expect("cell 0 holds the receiver");
            }
            i
        }
    }

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
        let out = run_indexed(16, 2, cell_zero_waits_for_the_rest());
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn the_caller_runs_worker_zeros_share() {
        let me = thread::current().id();
        let ids = rendezvous_threads();
        assert_eq!(ids[0], me, "worker 0's cell ran on the caller");
        assert_ne!(ids[1], me, "worker 1's cell ran on a helper");
    }

    #[test]
    fn nested_calls_run_inline_on_the_cell_thread() {
        let meet = Barrier::new(2);
        let inline = run_indexed(2, 2, |_| {
            // Both cells run at once, so each runs on a forked worker.
            meet.wait();
            let me = Some(thread::current().id());
            let items = run_indexed(8, 4, |_| Some(thread::current().id()));
            let mut chunks = vec![None; 8];
            for_each_chunk_mut(&mut chunks, 1, 4, |_, c| {
                c[0] = Some(thread::current().id());
            });
            // A fork whose caller happened to drain every item would
            // pass the thread check; its profile would list 4 workers.
            let profile = PoolProfile::new();
            let nested = try_run_indexed(
                8,
                4,
                &CancelToken::new(),
                &NullClock,
                |i| i,
                |_, _| {},
                &profile,
            );
            nested.is_ok()
                && profile.workers().len() == 1
                && items.iter().chain(&chunks).all(|&t| t == me)
        });
        assert_eq!(inline, vec![true, true]);
    }

    #[test]
    fn top_level_calls_fork_again_after_a_nested_panic() {
        let me = thread::current().id();
        let meet = Barrier::new(2);
        let mut v = vec![0u8; 2];
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            for_each_chunk_mut(&mut v, 1, 2, |_, _| {
                // Both chunks run at once; the caller's panics in a
                // nested call, unwinding through its worker share.
                meet.wait();
                if thread::current().id() == me {
                    run_indexed(2, 2, |_| -> u8 { panic!("nested boom") });
                }
            });
        }));
        let message = payload_message(unwound.unwrap_err());
        assert!(message.contains("nested boom"), "{message}");
        assert!(!IN_POOL.get(), "the unwind restored the caller's mark");
        let ids = rendezvous_threads();
        assert_eq!((ids[0] == me, ids[1] == me), (true, false));
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
    #[should_panic(expected = "chunk two is poisoned")]
    fn chunk_panics_propagate_with_their_payload() {
        let mut v = vec![0u8; 4];
        for_each_chunk_mut(&mut v, 1, 2, |start, _| {
            assert!(start != 2, "chunk two is poisoned");
        });
    }

    #[test]
    fn try_run_reports_the_poisoned_cell() {
        for threads in [1, 2, 4] {
            let err = try_run(8, threads, |i| {
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
            let err = try_run(8, threads, |i| {
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
        let err = try_run(16, 4, |i| assert!(i % 2 == 0, "odd cell {i}")).unwrap_err();
        assert_eq!(
            err.cells(),
            (0..16).filter(|i| i % 2 == 1).collect::<Vec<_>>()
        );
        assert_eq!(err.first().cell, 1, "smallest failing index leads");
    }

    #[test]
    fn try_run_ok_matches_run_indexed() {
        let a = try_run(23, 3, |i| i * i).unwrap();
        let b = run_indexed(23, 3, |i| i * i);
        assert_eq!(a, b);
    }

    #[test]
    fn string_panic_payloads_survive() {
        let err = try_run(2, 1, |i| {
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
            let out = try_run_indexed(
                33,
                threads,
                &CancelToken::new(),
                &NullClock,
                |i| i * 3,
                |i, r| {
                    assert_eq!(*r, i * 3, "observer sees the cell's own result");
                    seen[i].fetch_add(1, Ordering::SeqCst);
                },
                &PoolProfile::new(),
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
        let out = try_run_indexed(
            64,
            2,
            &cancel,
            &NullClock,
            |i| {
                started.fetch_add(1, Ordering::SeqCst);
                if started.load(Ordering::SeqCst) >= 4 {
                    cancel.cancel();
                }
                i
            },
            |_, _| {},
            &PoolProfile::new(),
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
        let out = try_run_indexed(
            8,
            3,
            &cancel,
            &NullClock,
            |_| unreachable!("cancelled"),
            |_, _: &()| {},
            &PoolProfile::new(),
        )
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
            let out = try_run_indexed(
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
        let _ = try_run_indexed(
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
            let err = try_run_indexed(
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
        let profile = PoolProfile::new();
        let _ = try_run_indexed(
            16,
            2,
            &CancelToken::new(),
            &NullClock,
            cell_zero_waits_for_the_rest(),
            |_, _| {},
            &profile,
        )
        .unwrap();
        assert_eq!(profile.cells_run(), 16);
        assert!(profile.steals() > 0, "a stuck worker forces steals");
    }
}
