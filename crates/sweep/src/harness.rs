//! The [`Sweep`] harness: fan a list of cell configurations out over the
//! work-stealing pool with deterministic per-cell seeding.
//!
//! A *cell* is one point of an experiment grid — any `Sync` value. The
//! harness owns three things the hand-rolled experiment loops used to
//! re-implement separately:
//!
//! 1. **Scheduling** — cells run on [`consensus_pool::run_indexed`], so a
//!    sweep uses every core but returns results in cell order.
//! 2. **Seeding** — every cell gets a seed derived *only* from the sweep's
//!    base seed and the cell index ([`cell_seed`]), never from thread
//!    identity or timing. Running the same sweep with 1 thread or N
//!    threads is bit-identical, and any cell can be replayed solo with
//!    [`Sweep::run_cell`].
//! 3. **Replayability** — `run_cell(i, f)` re-executes exactly the cell
//!    the full run executed at index `i`, same seed, same configuration.
//!
//! On top of these, [`Sweep::try_run_where`] is the **checkpointing
//! hook** used by `consensus-controlplane`: it runs an arbitrary
//! *subset* of the grid (the cells a checkpoint does not already
//! cover), streams every completion to an observer the moment it
//! lands, and honors a [`CancelToken`] so a coordinator shutdown
//! drains cleanly. Because per-cell seeds depend only on the cell
//! index, a subset run is bit-identical to the same cells of a full
//! run — the property that makes cell-exact resume possible at all.

use consensus_obs::{lane, TraceHandle, PROFILE_SHARD};
use consensus_pool::{self as pool, CancelToken, PoolProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Mixes a sweep-level base seed and a cell index into an independent
/// per-cell seed (splitmix64 over a golden-ratio-striped input — the
/// standard recipe for turning a counter into decorrelated streams).
///
/// The function is pure: replaying cell `i` of a sweep only needs the
/// base seed and `i`, not the execution history of the other cells.
#[must_use]
pub fn cell_seed(base_seed: u64, index: u64) -> u64 {
    let mut z = base_seed ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One panicking cell of a sweep: everything needed to replay the
/// failure solo — the cell index, the deterministic seed that cell ran
/// with, and the panic message. `sweep.run_cell(failure.cell, runner)`
/// reproduces it exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// The index of the poisoned cell.
    pub cell: usize,
    /// The seed the poisoned cell ran with
    /// (`cell_seed(base_seed, cell)`).
    pub seed: u64,
    /// The stringified panic payload.
    pub message: String,
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell {} (seed {:#018x}): {}",
            self.cell, self.seed, self.message
        )
    }
}

/// A sweep-level failure.
///
/// * [`SweepError::CellsPanicked`] — one or more cell runners
///   panicked. **Every** panicking cell is listed with its replay seed
///   (the pool collects them all), so a multi-cell failure is a
///   complete census, not a one-at-a-time drip.
/// * [`SweepError::Checkpoint`] — the checkpoint layer rejected
///   something: an unreadable or corrupted `.sweepck` file, a header
///   that does not match the sweep being resumed, or an append that
///   failed mid-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// One or more cell runners panicked; ascending by cell index,
    /// never empty.
    CellsPanicked {
        /// Every panicking cell with its replay seed and message.
        failures: Vec<CellFailure>,
    },
    /// Checkpoint I/O or validation failed.
    Checkpoint {
        /// The cell whose record was being written, when applicable.
        cell: Option<u64>,
        /// What went wrong.
        message: String,
    },
}

impl SweepError {
    /// A checkpoint error not tied to a particular cell.
    #[must_use]
    pub fn checkpoint(message: impl Into<String>) -> Self {
        SweepError::Checkpoint {
            cell: None,
            message: message.into(),
        }
    }

    /// The per-cell failures (empty for checkpoint errors).
    #[must_use]
    pub fn failures(&self) -> &[CellFailure] {
        match self {
            SweepError::CellsPanicked { failures } => failures,
            SweepError::Checkpoint { .. } => &[],
        }
    }
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::CellsPanicked { failures } if failures.len() == 1 => {
                let p = &failures[0];
                write!(
                    f,
                    "sweep cell {} (seed {:#018x}) panicked: {}",
                    p.cell, p.seed, p.message
                )
            }
            SweepError::CellsPanicked { failures } => {
                write!(f, "{} sweep cells panicked:", failures.len())?;
                for p in failures {
                    write!(f, " [{p}]")?;
                }
                Ok(())
            }
            SweepError::Checkpoint {
                cell: Some(c),
                message,
            } => {
                write!(f, "sweep checkpoint error at cell {c}: {message}")
            }
            SweepError::Checkpoint {
                cell: None,
                message,
            } => {
                write!(f, "sweep checkpoint error: {message}")
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// Per-cell context handed to the runner closure: the cell's index in
/// the grid and its deterministic seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellCtx {
    /// The cell's position in the grid (row order of [`Sweep::cells`]).
    pub index: usize,
    /// The cell's seed, `cell_seed(base_seed, index)`.
    pub seed: u64,
}

impl CellCtx {
    /// A fresh deterministic generator for this cell. Every call returns
    /// the same stream, so a runner may draw its initial values and its
    /// graph pattern from separate `rng()` calls *only* if it wants
    /// identical streams; otherwise derive sub-seeds from
    /// [`CellCtx::seed`].
    #[must_use]
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }

    /// A decorrelated sub-seed for the `k`-th random component of this
    /// cell (initial values, graph pattern, …).
    #[must_use]
    pub fn subseed(&self, k: u64) -> u64 {
        cell_seed(self.seed, k)
    }
}

/// A configured sweep: an ordered list of cells, a base seed, and a
/// thread count.
///
/// ```
/// use consensus_sweep::Sweep;
///
/// let squares = Sweep::new((0u64..8).collect())
///     .seed(7)
///     .threads(4)
///     .run(|&c, _ctx| c * c);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
#[derive(Debug, Clone)]
pub struct Sweep<C> {
    cells: Vec<C>,
    base_seed: u64,
    threads: usize,
    trace: TraceHandle,
}

/// Converts a completed [`PoolProfile`] into profile-class events on
/// the run-level `(PROFILE_SHARD, lane::POOL)` recorder: per-worker
/// own/stolen cell counts plus per-cell durations when the trace's
/// clock produces timestamps. A no-op on a disabled handle.
fn emit_pool_profile(trace: &TraceHandle, profile: &PoolProfile) {
    let Some(mut rec) = trace.recorder(PROFILE_SHARD, lane::POOL) else {
        return;
    };
    for w in profile.workers() {
        rec.profile_counter("pool_worker_own", w.worker as u64, w.own);
        rec.profile_counter("pool_worker_stolen", w.worker as u64, w.stolen);
    }
    for (cell, ns) in profile.cell_durations_ns() {
        rec.profile_counter("pool_cell_ns", cell as u64, ns);
    }
    trace.commit(rec);
}

/// The default base seed; chosen so unconfigured sweeps are still fully
/// deterministic.
pub const DEFAULT_BASE_SEED: u64 = 0x5EED_CE11;

impl<C: Sync> Sweep<C> {
    /// A sweep over the given cells, with the default base seed and one
    /// worker per available core.
    #[must_use]
    pub fn new(cells: Vec<C>) -> Self {
        Sweep {
            cells,
            base_seed: DEFAULT_BASE_SEED,
            threads: pool::default_threads(),
            trace: TraceHandle::disabled(),
        }
    }

    /// Attaches a [`TraceHandle`]. When enabled, every cell records a
    /// `cell` span on `(shard = cell index, lane = SWEEP)` and the run
    /// commits a pool profile (worker own/stolen counts, per-cell
    /// durations under a timing clock) on `(PROFILE_SHARD, POOL)`.
    ///
    /// Tracing is observation only: results, per-cell seeds, and
    /// failure reporting are bit-identical with tracing on or off.
    #[must_use]
    pub fn trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the base seed all per-cell seeds are derived from.
    #[must_use]
    pub fn seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Sets the worker count (1 ⇒ sequential). Thread count never
    /// affects results, only wall-clock time.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The cells, in run order.
    #[must_use]
    pub fn cells(&self) -> &[C] {
        &self.cells
    }

    /// The number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the grid is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The base seed.
    #[must_use]
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// The deterministic seed of cell `index`.
    #[must_use]
    pub fn seed_of(&self, index: usize) -> u64 {
        cell_seed(self.base_seed, index as u64)
    }

    /// Runs every cell on the pool and returns the results in cell
    /// order. The runner sees the cell configuration and its
    /// [`CellCtx`]; it must not depend on anything else (global state,
    /// time), or determinism is forfeit.
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&C, CellCtx) -> R + Sync,
    {
        if self.trace.is_enabled() {
            return self
                .try_run(f)
                .unwrap_or_else(|e| panic!("traced sweep failed: {e}"));
        }
        pool::run_indexed(self.cells.len(), self.threads, |i| {
            f(&self.cells[i], self.ctx(i))
        })
    }

    /// Runs cell `i` with a `cell` span around the runner when tracing
    /// is enabled; the plain runner otherwise.
    fn run_spanned<R, F>(&self, i: usize, f: &F) -> R
    where
        F: Fn(&C, CellCtx) -> R,
    {
        let ctx = self.ctx(i);
        match self.trace.recorder(i as u64, lane::SWEEP) {
            None => f(&self.cells[i], ctx),
            Some(mut rec) => {
                rec.span_begin("cell", i as u64);
                let r = f(&self.cells[i], ctx);
                rec.span_end("cell", i as u64);
                self.trace.commit(rec);
                r
            }
        }
    }

    /// Like [`Sweep::run`], but panicking cells are reported as a
    /// [`SweepError`] naming **every** bad cell *and its seed* instead
    /// of tearing the whole sweep down — each entry is a ready-made
    /// replay recipe for [`Sweep::run_cell`].
    ///
    /// # Errors
    ///
    /// Returns every panicking cell with its seed and panic message,
    /// ascending by cell index.
    pub fn try_run<R, F>(&self, f: F) -> Result<Vec<R>, SweepError>
    where
        R: Send,
        F: Fn(&C, CellCtx) -> R + Sync,
    {
        let all = vec![true; self.cells.len()];
        let slots = self.try_run_where(&all, &CancelToken::new(), f, |_, _| {})?;
        Ok(slots
            .into_iter()
            .map(|r| r.expect("no cancel token raised: every cell ran"))
            .collect())
    }

    /// The checkpointing entry point: runs only the cells where
    /// `todo[i]` is `true`, invoking `observe(i, &result)` **on the
    /// worker thread** the moment cell `i` completes — completion
    /// order, not cell order — and stopping the dispatch of new cells
    /// once `cancel` is raised (in-flight cells drain and are still
    /// observed).
    ///
    /// Because every cell's seed depends only on `(base_seed, i)`, the
    /// subset run is bit-identical to the same cells of a full
    /// [`Sweep::run`] — this is what makes a checkpoint resume
    /// cell-exact. Returns one slot per grid cell: `Some` for cells run
    /// here, `None` for cells skipped (masked out or cancelled).
    ///
    /// # Errors
    ///
    /// Returns every panicking cell with its seed and panic message.
    ///
    /// # Panics
    ///
    /// Panics if `todo.len() != self.len()`.
    pub fn try_run_where<R, F, O>(
        &self,
        todo: &[bool],
        cancel: &CancelToken,
        f: F,
        observe: O,
    ) -> Result<Vec<Option<R>>, SweepError>
    where
        R: Send,
        F: Fn(&C, CellCtx) -> R + Sync,
        O: Fn(usize, &R) + Sync,
    {
        assert_eq!(todo.len(), self.cells.len(), "one mask entry per cell");
        let indices: Vec<usize> = (0..self.cells.len()).filter(|&i| todo[i]).collect();
        let profile = PoolProfile::new();
        let clock = self.trace.clock();
        let res = pool::try_run_indexed(
            indices.len(),
            self.threads,
            cancel,
            &*clock,
            |j| self.run_spanned(indices[j], &f),
            |j, r| observe(indices[j], r),
            &profile,
        );
        // The profile is complete even when cells panicked (the pool
        // flushes worker stats before reporting failures), so commit it
        // before mapping the error.
        emit_pool_profile(&self.trace, &profile);
        let packed = res.map_err(|e| {
            self.enrich(consensus_pool::PoolError {
                failures: e
                    .failures
                    .into_iter()
                    .map(|p| consensus_pool::CellPanic {
                        cell: indices[p.cell],
                        message: p.message,
                    })
                    .collect(),
            })
        })?;
        let mut out: Vec<Option<R>> = (0..self.cells.len()).map(|_| None).collect();
        for (j, r) in packed.into_iter().enumerate() {
            out[indices[j]] = r;
        }
        Ok(out)
    }

    /// Replays a single cell exactly as the full run executed it (same
    /// configuration, same seed) — the "replay one cell solo" entry
    /// point for debugging a surprising aggregate.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn run_cell<R, F>(&self, index: usize, f: F) -> R
    where
        F: Fn(&C, CellCtx) -> R,
    {
        assert!(index < self.cells.len(), "cell index out of range");
        f(&self.cells[index], self.ctx(index))
    }

    fn ctx(&self, index: usize) -> CellCtx {
        CellCtx {
            index,
            seed: self.seed_of(index),
        }
    }

    /// Maps a pool error onto the sweep's cell seeds.
    fn enrich(&self, e: consensus_pool::PoolError) -> SweepError {
        SweepError::CellsPanicked {
            failures: e
                .failures
                .into_iter()
                .map(|p| CellFailure {
                    cell: p.cell,
                    seed: self.seed_of(p.cell),
                    message: p.message,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn cell_seeds_are_decorrelated_and_pure() {
        let a = cell_seed(42, 0);
        let b = cell_seed(42, 1);
        assert_ne!(a, b);
        assert_eq!(a, cell_seed(42, 0), "pure function of (base, index)");
        assert_ne!(cell_seed(43, 0), a, "base seed matters");
    }

    #[test]
    fn run_matches_run_cell_for_every_index() {
        let sweep = Sweep::new(vec![3u64, 1, 4, 1, 5, 9, 2, 6])
            .seed(11)
            .threads(4);
        let all = sweep.run(|&c, ctx| {
            let mut rng = ctx.rng();
            c.wrapping_mul(rng.random_range(1u64..1000))
        });
        for (i, expected) in all.iter().enumerate() {
            let solo = sweep.run_cell(i, |&c, ctx| {
                let mut rng = ctx.rng();
                c.wrapping_mul(rng.random_range(1u64..1000))
            });
            assert_eq!(*expected, solo, "cell {i} must replay identically");
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let cells: Vec<u64> = (0..33).collect();
        let one = Sweep::new(cells.clone()).threads(1).run(|&c, ctx| {
            let mut rng = ctx.rng();
            (c, ctx.seed, rng.random_range(0.0f64..1.0))
        });
        let many = Sweep::new(cells).threads(7).run(|&c, ctx| {
            let mut rng = ctx.rng();
            (c, ctx.seed, rng.random_range(0.0f64..1.0))
        });
        assert_eq!(one, many);
    }

    #[test]
    fn subseeds_differ_from_seed_and_each_other() {
        let ctx = CellCtx {
            index: 3,
            seed: cell_seed(1, 3),
        };
        assert_ne!(ctx.subseed(0), ctx.subseed(1));
        assert_ne!(ctx.subseed(0), ctx.seed);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn run_cell_bounds_checked() {
        Sweep::new(vec![0u8]).run_cell(5, |_, _| ());
    }

    #[test]
    fn try_run_surfaces_cell_and_seed() {
        let sweep = Sweep::new((0u64..12).collect()).seed(99).threads(3);
        let err = sweep
            .try_run(|&c, _ctx| assert!(c != 7, "bad cell payload"))
            .unwrap_err();
        let failures = err.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].cell, 7);
        assert_eq!(
            failures[0].seed,
            sweep.seed_of(7),
            "error carries the replay seed"
        );
        assert!(failures[0].message.contains("bad cell payload"));
        assert!(err.to_string().contains("sweep cell 7"));
        // The error is a replay recipe: run_cell reproduces the panic.
        let replay = std::panic::catch_unwind(|| sweep.run_cell(failures[0].cell, |&c, _| c != 7));
        assert!(replay.is_err() || !replay.unwrap_or(true));
    }

    /// Regression: a grid with *two* poisoned cells reports both
    /// `(cell, seed)` pairs in one error.
    #[test]
    fn try_run_lists_every_bad_cell_with_its_seed() {
        let sweep = Sweep::new((0u64..10).collect()).seed(7).threads(4);
        let err = sweep
            .try_run(|&c, _ctx| assert!(c != 3 && c != 8, "cell {c} poisoned"))
            .unwrap_err();
        let failures = err.failures();
        assert_eq!(
            failures.iter().map(|p| p.cell).collect::<Vec<_>>(),
            vec![3, 8]
        );
        assert_eq!(failures[0].seed, sweep.seed_of(3));
        assert_eq!(failures[1].seed, sweep.seed_of(8));
        let text = err.to_string();
        assert!(text.contains("2 sweep cells panicked"), "{text}");
        assert!(text.contains("cell 8"), "{text}");
    }

    #[test]
    fn try_run_ok_matches_run() {
        let sweep = Sweep::new((0u64..9).collect()).seed(5).threads(4);
        let a = sweep.try_run(|&c, ctx| (c, ctx.seed)).unwrap();
        let b = sweep.run(|&c, ctx| (c, ctx.seed));
        assert_eq!(a, b);
    }

    #[test]
    fn try_run_where_is_bit_identical_to_the_full_run_subset() {
        let sweep = Sweep::new((0u64..20).collect()).seed(13).threads(4);
        let full = sweep.run(|&c, ctx| {
            let mut rng = ctx.rng();
            (c, ctx.seed, rng.random_range(0.0f64..1.0))
        });
        let mask: Vec<bool> = (0..20).map(|i| i % 3 != 1).collect();
        let subset = sweep
            .try_run_where(
                &mask,
                &CancelToken::new(),
                |&c, ctx| {
                    let mut rng = ctx.rng();
                    (c, ctx.seed, rng.random_range(0.0f64..1.0))
                },
                |_, _| {},
            )
            .unwrap();
        for i in 0..20 {
            if mask[i] {
                assert_eq!(subset[i], Some(full[i]), "cell {i} resumes bit-identically");
            } else {
                assert_eq!(subset[i], None, "masked cell {i} must not run");
            }
        }
    }

    #[test]
    fn try_run_where_observer_streams_only_todo_cells() {
        use std::sync::Mutex;
        let sweep = Sweep::new((0u64..9).collect()).seed(3).threads(2);
        let mask: Vec<bool> = (0..9).map(|i| i >= 4).collect();
        let seen = Mutex::new(Vec::new());
        let _ = sweep
            .try_run_where(
                &mask,
                &CancelToken::new(),
                |&c, _| c * 2,
                |i, r| {
                    seen.lock().unwrap().push((i, *r));
                },
            )
            .unwrap();
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(
            seen,
            (4..9).map(|i| (i, i as u64 * 2)).collect::<Vec<_>>(),
            "observer fires once per todo cell with its result"
        );
    }

    #[test]
    fn traced_run_is_bit_identical_to_untraced() {
        let cells: Vec<u64> = (0..17).collect();
        let runner = |&c: &u64, ctx: CellCtx| {
            let mut rng = ctx.rng();
            (c, ctx.seed, rng.random_range(0.0f64..1.0))
        };
        let plain = Sweep::new(cells.clone()).seed(21).threads(4).run(runner);
        let trace = consensus_obs::TraceHandle::enabled();
        let traced = Sweep::new(cells)
            .seed(21)
            .threads(4)
            .trace(trace.clone())
            .run(runner);
        assert_eq!(plain, traced, "tracing must not perturb results");
        let s = trace.merged();
        assert_eq!(
            s.events_for_span("cell").len(),
            2 * 17,
            "one begin/end pair per cell"
        );
        assert_eq!(s.content(), s.content(), "content stream is a stable value");
    }

    #[test]
    fn traced_content_stream_is_thread_count_invariant() {
        let contents: Vec<_> = [1usize, 5]
            .iter()
            .map(|&threads| {
                let trace = consensus_obs::TraceHandle::enabled();
                let _ = Sweep::new((0u64..23).collect())
                    .seed(9)
                    .threads(threads)
                    .trace(trace.clone())
                    .run(|&c, ctx| c.wrapping_mul(ctx.seed));
                trace.merged().content()
            })
            .collect();
        assert_eq!(contents[0], contents[1]);
    }

    #[test]
    fn traced_pool_profile_counts_every_cell() {
        let trace = consensus_obs::TraceHandle::enabled();
        let sweep = Sweep::new((0u64..12).collect())
            .seed(2)
            .threads(3)
            .trace(trace.clone());
        let _ = sweep.try_run(|&c, _| c).unwrap();
        let s = trace.merged();
        assert_eq!(
            s.counter_total("pool_worker_own") + s.counter_total("pool_worker_stolen"),
            12,
            "profile accounts for all cells"
        );
        // Profile events never reach the content stream.
        assert_eq!(s.content().counter_total("pool_worker_own"), 0);
    }

    #[test]
    fn traced_try_run_where_profiles_even_on_panic() {
        let trace = consensus_obs::TraceHandle::enabled();
        let sweep = Sweep::new((0u64..8).collect())
            .seed(4)
            .threads(2)
            .trace(trace.clone());
        let mask = vec![true; 8];
        let err = sweep
            .try_run_where(
                &mask,
                &CancelToken::new(),
                |&c, _| assert!(c != 3, "poisoned"),
                |_, _| {},
            )
            .unwrap_err();
        assert_eq!(err.failures()[0].cell, 3);
        let s = trace.merged();
        assert_eq!(
            s.counter_total("pool_worker_own") + s.counter_total("pool_worker_stolen"),
            8,
            "panicking cells still counted in the profile"
        );
    }

    #[test]
    fn try_run_where_reports_original_cell_indices() {
        let sweep = Sweep::new((0u64..10).collect()).seed(1).threads(2);
        let mask: Vec<bool> = (0..10).map(|i| i % 2 == 0).collect();
        let err = sweep
            .try_run_where(
                &mask,
                &CancelToken::new(),
                |&c, _| assert!(c != 6, "poisoned"),
                |_, _| {},
            )
            .unwrap_err();
        let failures = err.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].cell, 6, "grid index, not subset index");
        assert_eq!(failures[0].seed, sweep.seed_of(6));
    }
}
