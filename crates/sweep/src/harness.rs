//! The [`Sweep`] harness: a seeded parallel map that fans a list of cell
//! configurations out over the work-stealing pool with deterministic
//! per-cell seeding.
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
//! The registry grids do not run here: `consensus-controlplane`'s
//! coordinator dispatches their cells itself (checkpoint, failure
//! records, tracing) and seeds each one with the same [`cell_seed`], so
//! a resumed subset of a grid is bit-identical to the same cells of a
//! full run. [`SweepError`] is its checkpoint error type.

use consensus_pool as pool;
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

/// A checkpoint failure: the checkpoint layer rejected an unreadable or
/// corrupted `.sweepck` file, a header that does not match the sweep
/// being resumed, or an append that failed mid-run. A cell's own
/// failure is never an error: the coordinator records the cell as
/// failed and finishes the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
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
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
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
        }
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
    ///
    /// # Panics
    ///
    /// Panics once every cell has run if any runner panicked, naming
    /// every panicking cell.
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&C, CellCtx) -> R + Sync,
    {
        pool::run_indexed(self.cells.len(), self.threads, |i| {
            f(&self.cells[i], self.ctx(i))
        })
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
}
