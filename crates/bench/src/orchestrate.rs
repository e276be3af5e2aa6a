//! The experiment grids behind one interface. A grid is one [`Grid`]
//! impl: its registry name, presets, cells, row labels, cell runner,
//! table and claims. Everything else is shared and grid-agnostic:
//!
//! - [`run_grid`], an in-process run: the coordinator
//!   (`controlplane::run`) with no checkpoint and no workers;
//! - the registry behind [`AnySpec`], which resolves a `(grid, preset)`
//!   pair and gives the coordinator a [`SweepPlan`], a
//!   [`CellExecutor`] ([`GridExecutor`]) and report assembly from flat
//!   outcome rows;
//! - the `sweep-worker` serve loop ([`worker_serve`]), so the worker
//!   binary stays a thin `main`.
//!
//! The load-bearing invariant: for every grid, the report of a
//! coordinated run is the same **byte-for-byte** on the JSON whether its
//! rows came from in-process threads, spawned worker processes, or a
//! checkpoint resumed across three kills, and at any thread count. It
//! holds by construction: every cell runs through the grid's one
//! [`Grid::run_cell`] with the same `(base_seed, cell)`-derived
//! [`CellCtx`], one coordinator dispatches the cells, and one assembly
//! function lays out labels and seeds. The tests at the bottom check it
//! on every registered grid's golden preset; the CI `sweep-regression`
//! job checks every golden file with and without a checkpoint and
//! through worker processes.

use std::fmt;
use std::io::{BufRead as _, Write as _};
use std::ops::{Deref, DerefMut};
use std::panic::RefUnwindSafe;
use std::time::Duration;

use consensus_obs::TraceHandle;
use tight_bounds_consensus::controlplane::{
    self, checkpoint, CellExecutor, Metrics, RunConfig, SweepPlan,
};
use tight_bounds_consensus::pool;
use tight_bounds_consensus::prelude::*;
use tight_bounds_consensus::sweep::cell_seed;

use crate::advsearch::AdversarySpec;
use crate::experiments::{DynamicSpec, EnsembleSpec, MultidimSpec, PaperSpec, SpecError};

/// One experiment grid of the `sweep` bin, declared as data: how to
/// name, build, label and run it. The runner, the report layout, the
/// coordinator's executor and the CLI are shared by every grid.
///
/// `RefUnwindSafe` lets callers run an [`AnySpec`] under
/// `catch_unwind`.
pub trait Grid: Clone + fmt::Debug + Send + Sync + RefUnwindSafe + 'static {
    /// The registry name, selected with `--grid NAME`.
    const NAME: &'static str;
    /// The one-line `--list` description.
    const ABOUT: &'static str;
    /// Outcome rows per cell.
    const ROWS_PER_CELL: usize = 1;
    /// One cell's parameters.
    type Cell: Send + Sync;
    /// One cell's `ROWS_PER_CELL` outcome rows, in report order.
    type Rows: AsRef<[CellOutcome]> + Send;

    /// The named preset.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownPreset`] naming [`Grid::NAME`] and the valid
    /// set for an unknown name.
    fn preset(name: &str) -> Result<Self, SpecError>;
    /// The report name embedded in the JSON.
    fn report_name(&self) -> &str;
    /// The base seed all per-cell seeds derive from.
    fn base_seed(&self) -> u64;
    /// Overrides the base seed (the `--seed` flag).
    fn set_base_seed(&mut self, seed: u64);
    /// The cells, in report order.
    fn cells(&self) -> Vec<Self::Cell>;
    /// The report label of row `row` of `cell`.
    fn row_label(&self, cell: &Self::Cell, row: usize) -> String;
    /// Runs one cell. A cell that records spans of its own writes them to
    /// `trace` on shard `ctx.index`; its rows never depend on `trace`.
    fn run_cell(&self, cell: &Self::Cell, ctx: CellCtx, trace: &TraceHandle) -> Self::Rows;
    /// Renders the human table of a report of this grid. Its ✓/✗ marks
    /// come from [`Grid::claims`].
    fn table(&self, report: &SweepReport) -> String;
    /// The grid's claims about a complete report, as `(what is tested,
    /// holds)` rows. The text names the quantity, the relation and its
    /// tolerance (exact, or ± a tolerance and why). The `sweep` bin exits
    /// 1 when one of them fails.
    fn claims(&self, _report: &SweepReport) -> Vec<(String, bool)> {
        Vec::new()
    }
}

/// Runs `grid` in process: [`GridSpec::run`].
///
/// # Panics
///
/// Panics naming every failed cell.
#[must_use]
pub fn run_grid<G: Grid>(grid: &G, threads: Option<usize>, trace: TraceHandle) -> SweepReport {
    GridSpec::run(grid, threads, trace)
}

/// Builds the report of `cells`, given as consecutive `(index, cell)`
/// pairs, from their rows (`ROWS_PER_CELL` per cell, in the same order).
/// This is the one place the row labels, seeds and JSON row indices are
/// laid out: the report of a run and of a `--replay` both come from it.
fn assemble<'c, G: Grid>(
    grid: &G,
    cells: impl Iterator<Item = (usize, &'c G::Cell)>,
    rows: Vec<CellOutcome>,
) -> SweepReport {
    let mut labels = Vec::with_capacity(rows.len());
    let mut seeds = Vec::with_capacity(rows.len());
    let mut first = None;
    for (i, cell) in cells {
        first.get_or_insert(i);
        let seed = cell_seed(grid.base_seed(), i as u64);
        for row in 0..G::ROWS_PER_CELL {
            labels.push(grid.row_label(cell, row));
            seeds.push(seed);
        }
    }
    let mut report = SweepReport::new(grid.report_name(), grid.base_seed(), labels, seeds, rows);
    report.first_index = first.unwrap_or(0) * G::ROWS_PER_CELL;
    report
}

/// A registry entry: a grid's name, `--list` text and preset
/// constructor.
struct Registered {
    name: &'static str,
    about: &'static str,
    preset: fn(&str) -> Result<AnySpec, SpecError>,
}

const fn register<G: Grid>() -> Registered {
    Registered {
        name: G::NAME,
        about: G::ABOUT,
        preset: |preset| G::preset(preset).map(|g| AnySpec(Box::new(g))),
    }
}

/// Every grid the `sweep` bin can run, in `--list` order. This is the
/// one dispatch point: adding a grid is one [`Grid`] impl plus one entry
/// here.
const REGISTRY: [Registered; 5] = [
    register::<EnsembleSpec>(),
    register::<MultidimSpec>(),
    register::<DynamicSpec>(),
    register::<AdversarySpec>(),
    register::<PaperSpec>(),
];

/// The grid the `sweep` bin runs without `--grid`: the first registered.
pub const DEFAULT_GRID: &str = REGISTRY[0].name;

/// Any registered experiment grid: a box that derefs to the grid's
/// [`GridSpec`] face, so every [`GridSpec`] method is called on it
/// directly.
#[derive(Debug)]
pub struct AnySpec(Box<dyn GridSpec>);

impl Clone for AnySpec {
    fn clone(&self) -> Self {
        AnySpec(self.0.clone_box())
    }
}

impl Deref for AnySpec {
    type Target = dyn GridSpec;

    fn deref(&self) -> &Self::Target {
        &*self.0
    }
}

impl DerefMut for AnySpec {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut *self.0
    }
}

impl AnySpec {
    /// Resolves a `(grid, preset)` pair from the registry.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownGrid`] for an unregistered grid name,
    /// [`SpecError::UnknownPreset`] for a bad preset within a grid.
    pub fn resolve(grid: &str, preset: &str) -> Result<AnySpec, SpecError> {
        let entry = REGISTRY
            .iter()
            .find(|e| e.name == grid)
            .ok_or_else(|| SpecError::UnknownGrid { got: grid.into() })?;
        (entry.preset)(preset)
    }

    /// The registered grids as `(name, description)`, in `--list` order.
    pub fn registry() -> impl Iterator<Item = (&'static str, &'static str)> {
        REGISTRY.iter().map(|e| (e.name, e.about))
    }
}

/// The object-safe face of every [`Grid`], which [`AnySpec`] derefs to.
pub trait GridSpec: fmt::Debug + Send + Sync + RefUnwindSafe {
    /// The registry name of the grid.
    fn grid_name(&self) -> &'static str;
    /// The spec's base seed.
    fn base_seed(&self) -> u64;
    /// Overrides the base seed (the `--seed` flag).
    fn set_base_seed(&mut self, seed: u64);
    /// The number of grid cells.
    fn n_cells(&self) -> usize;
    /// Outcome rows per cell: 2 for multidim (the matched
    /// coordinatewise/simplex pair), 1 otherwise.
    fn rows_per_cell(&self) -> usize;
    /// An in-process [`CellExecutor`] over this grid (cells
    /// materialized once) whose cells record into `trace`, the
    /// coordinated run's trace. `delay` stretches every cell by a sleep —
    /// the CI crash-resume job uses it to make a mid-grid `SIGKILL`
    /// land reliably; zero means no overhead.
    fn traced_executor(&self, delay: Duration, trace: TraceHandle) -> GridExecutor<'_>;
    /// Assembles the grid's [`SweepReport`] from coordinator outcome
    /// rows (flat, `rows_per_cell` per cell, cell order), laid out by the
    /// same function as the in-process run's, so the JSON is
    /// byte-identical to it.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != n_cells * rows_per_cell`.
    fn report_from_rows(&self, rows: Vec<CellOutcome>) -> SweepReport;
    /// Re-runs cell `index` solo, exactly as the full sweep runs it, and
    /// returns the report of that cell alone: its rows, labels and seeds
    /// equal the cell's rows of the full report. `None` past the last
    /// cell.
    fn replay(&self, index: usize) -> Option<SweepReport>;
    /// Renders the grid's human table for a report.
    fn table(&self, report: &SweepReport) -> String;
    /// The grid's [`Grid::claims`] about a complete report.
    fn claims(&self, report: &SweepReport) -> Vec<(String, bool)>;
    /// A boxed copy of the grid.
    fn clone_box(&self) -> Box<dyn GridSpec>;

    /// [`GridSpec::traced_executor`] with cells that record nothing.
    fn executor(&self, delay: Duration) -> GridExecutor<'_> {
        self.traced_executor(delay, TraceHandle::disabled())
    }

    /// The coordinator plan (and checkpoint header identity) of this
    /// spec under the given preset name.
    fn plan(&self, preset: &str) -> SweepPlan {
        SweepPlan {
            grid: self.grid_name().into(),
            preset: preset.into(),
            base_seed: self.base_seed(),
            n_cells: self.n_cells(),
            rows_per_cell: self.rows_per_cell(),
        }
    }

    /// Runs the grid in process: a coordinated run with no checkpoint
    /// and no workers, on `threads` pool threads (`None` ⇒ all cores).
    /// `trace` receives the coordinator's cell spans and pool profile and
    /// the cells' own events. The report depends on neither `trace` nor
    /// the thread count.
    ///
    /// # Panics
    ///
    /// Panics naming every failed cell. Each cell runs once: a cell is a
    /// pure function of its index, so a second run would fail it again.
    fn run(&self, threads: Option<usize>, trace: TraceHandle) -> SweepReport {
        let cfg = RunConfig {
            threads: threads.unwrap_or_else(pool::default_threads),
            trace: trace.clone(),
            ..RunConfig::default()
        };
        let exec = self.traced_executor(Duration::ZERO, trace);
        // Without a checkpoint the plan's preset name is never written.
        let out = controlplane::run(&self.plan(""), &cfg, &exec, &Metrics::new())
            .unwrap_or_else(|e| panic!("{} run failed: {e}", self.grid_name()));
        let failed: Vec<String> = (out.failed_cells.iter())
            .map(|(cell, error)| format!("cell {cell} failed: {error}"))
            .collect();
        assert!(failed.is_empty(), "{}", failed.join("; "));
        self.report_from_rows(out.outcome_rows().expect("an uncancelled run completes"))
    }

    /// [`GridSpec::run`] untraced.
    fn run_in_process(&self, threads: Option<usize>) -> SweepReport {
        self.run(threads, TraceHandle::disabled())
    }
}

impl<G: Grid> GridSpec for G {
    fn grid_name(&self) -> &'static str {
        G::NAME
    }

    fn base_seed(&self) -> u64 {
        Grid::base_seed(self)
    }

    fn set_base_seed(&mut self, seed: u64) {
        Grid::set_base_seed(self, seed);
    }

    fn n_cells(&self) -> usize {
        self.cells().len()
    }

    fn rows_per_cell(&self) -> usize {
        G::ROWS_PER_CELL
    }

    fn traced_executor(&self, delay: Duration, trace: TraceHandle) -> GridExecutor<'_> {
        let cells = self.cells();
        let rows = move |index| {
            let seed = cell_seed(Grid::base_seed(self), index as u64);
            let ctx = CellCtx { index, seed };
            self.run_cell(&cells[index], ctx, &trace).as_ref().to_vec()
        };
        GridExecutor {
            rows: Box::new(rows),
            delay,
        }
    }

    fn report_from_rows(&self, rows: Vec<CellOutcome>) -> SweepReport {
        let cells = self.cells();
        let n_rows = cells.len() * G::ROWS_PER_CELL;
        assert_eq!(rows.len(), n_rows, "rows_per_cell rows per grid cell");
        assemble(self, cells.iter().enumerate(), rows)
    }

    fn replay(&self, index: usize) -> Option<SweepReport> {
        let cells = self.cells();
        let cell = cells.get(index)?;
        let rows = self.executor(Duration::ZERO).rows(index);
        Some(assemble(self, std::iter::once((index, cell)), rows))
    }

    fn table(&self, report: &SweepReport) -> String {
        Grid::table(self, report)
    }

    fn claims(&self, report: &SweepReport) -> Vec<(String, bool)> {
        Grid::claims(self, report)
    }

    fn clone_box(&self) -> Box<dyn GridSpec> {
        Box::new(self.clone())
    }
}

/// An in-process [`CellExecutor`] over one grid: runs the grid's
/// [`Grid::run_cell`] with the `(base_seed, cell)`-derived [`CellCtx`]
/// that a worker process and `--replay` use too, so a cell's rows are
/// bit-identical wherever it runs, and so are the events its cells
/// record into the trace of [`GridSpec::traced_executor`].
pub struct GridExecutor<'s> {
    rows: Box<dyn Fn(usize) -> Vec<CellOutcome> + Send + Sync + 's>,
    delay: Duration,
}

impl GridExecutor<'_> {
    /// The outcome rows of one cell (panics propagate; the coordinator
    /// contains them).
    #[must_use]
    pub fn rows(&self, cell: usize) -> Vec<CellOutcome> {
        (self.rows)(cell)
    }
}

impl CellExecutor for GridExecutor<'_> {
    fn run_cell(&self, cell: usize) -> Result<Vec<CellOutcome>, String> {
        if !self.delay.is_zero() {
            // Pure pacing for the CI kill window: lengthens wall-clock
            // time, never touches the data path.
            std::thread::sleep(self.delay);
        }
        Ok(self.rows(cell))
    }
}

/// The `sweep-worker` serve loop, until stdin closes: one request line
/// in (the decimal cell index), one reply line out (the framed
/// checkpoint record of [`checkpoint::encode_reply`], in hex). A cell
/// runs as the coordinator's in-process executor runs it, `delay`
/// included. A request that is not a cell index of the grid, or a cell
/// that panics, gets a failure record with the reason.
///
/// # Errors
///
/// Returns the first unrecoverable stdio error.
pub fn worker_serve(spec: &AnySpec, delay: Duration) -> Result<(), std::io::Error> {
    let exec = spec.executor(delay);
    let n_cells = spec.n_cells() as u64;
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in stdin.lock().lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (cell, result) = match line.parse::<u64>() {
            Err(e) => (u64::MAX, Err(format!("bad request {line:?}: {e}"))),
            Ok(cell) if cell >= n_cells => (
                cell,
                Err(format!(
                    "cell {cell} is past the last cell: the grid has {n_cells} cells"
                )),
            ),
            Ok(cell) => {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    exec.run_cell(cell as usize)
                }))
                .unwrap_or_else(|payload| {
                    Err(format!("cell panicked: {}", pool::payload_message(payload)))
                });
                (cell, result)
            }
        };
        let seed = cell_seed(spec.base_seed(), cell);
        let mut reply = checkpoint::encode_reply(cell, seed, result);
        reply.push('\n');
        out.write_all(reply.as_bytes())?;
        out.flush()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tight_bounds_consensus::controlplane::{CellRecord, CellStatus};

    #[test]
    fn resolve_covers_the_registry_and_rejects_strangers() {
        for (grid, _) in AnySpec::registry() {
            let spec = AnySpec::resolve(grid, "golden").expect("registered grid");
            assert_eq!(spec.grid_name(), grid);
            assert!(spec.n_cells() > 0);
        }
        let err = AnySpec::resolve("bogus", "golden").expect_err("unregistered");
        assert!(err.to_string().contains("unknown grid `bogus`"), "{err}");
    }

    /// A run through a fresh checkpoint at 3 threads, as JSON.
    fn checkpointed_json(spec: &AnySpec, preset: &str) -> String {
        let dir = std::env::temp_dir().join("orchestrate-unit");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!(
            "{}-{preset}-{}.sweepck",
            spec.grid_name(),
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        let exec = spec.executor(Duration::ZERO);
        let out = controlplane::run(
            &spec.plan(preset),
            &RunConfig {
                threads: 3,
                checkpoint: Some(path.clone()),
                ..RunConfig::default()
            },
            &exec,
            &Metrics::new(),
        )
        .expect("checkpointed run");
        std::fs::remove_file(&path).ok();
        assert!(out.completed);
        spec.report_from_rows(out.outcome_rows().expect("complete"))
            .to_json()
    }

    /// A two-cell-per-dimension multidim grid over `dims`, small enough
    /// for a unit test.
    fn tiny_multidim(dims: &[usize]) -> MultidimSpec {
        MultidimSpec {
            name: "unit".into(),
            grid: MultidimGrid::new()
                .dims(dims)
                .agents(&[4])
                .topologies(&[Topology::Rooted { density: 0.5 }])
                .inits(&[MultidimInitDist::UnitCube])
                .replicates(2),
            base_seed: 7,
            tol: 1e-4,
            max_rounds: 200,
        }
    }

    #[test]
    fn golden_reports_are_the_same_with_and_without_a_checkpoint() {
        for (grid, _) in AnySpec::registry() {
            let spec = AnySpec::resolve(grid, "golden").expect("golden");
            let checkpointed = checkpointed_json(&spec, "golden");
            for threads in [1, 3] {
                assert_eq!(
                    spec.run_in_process(Some(threads)).to_json(),
                    checkpointed,
                    "{grid} at {threads} threads: the checkpoint must not change a \
                     single byte of the golden JSON"
                );
            }
        }
    }

    #[test]
    fn multidim_rows_pair_up_exactly_like_run_multidim() {
        let spec = AnySpec(Box::new(tiny_multidim(&[1, 2])));
        assert_eq!(spec.rows_per_cell(), 2);
        let in_process = spec.run_in_process(Some(1)).to_json();
        assert_eq!(in_process, checkpointed_json(&spec, "unit"));
    }

    #[test]
    fn run_grid_panics_naming_every_failed_cell() {
        // Cells 2 and 3 have d = 5, which no multidim cell runner serves.
        let spec = tiny_multidim(&[1, 5]);
        let payload =
            std::panic::catch_unwind(|| run_grid(&spec, Some(2), TraceHandle::disabled()))
                .expect_err("the d = 5 cells fail the run");
        let message = pool::payload_message(payload);
        for cell in [2, 3] {
            assert!(
                message.contains(&format!("cell {cell} failed: cell {cell} panicked")),
                "{message}"
            );
        }
        assert!(
            !message.contains("cell 0") && !message.contains("cell 1 "),
            "{message}"
        );
        assert!(
            message.contains("dimension 5 is not in the dispatch set"),
            "{message}"
        );
    }

    #[test]
    fn a_flipped_pooled_fingerprint_fails_exactly_the_replay_claim() {
        let spec = AnySpec::resolve("adversary_search", "golden").expect("registered");
        let exec = spec.executor(Duration::ZERO);
        let mut rows: Vec<CellOutcome> = (0..spec.n_cells()).flat_map(|i| exec.rows(i)).collect();
        assert!(spec
            .claims(&spec.report_from_rows(rows.clone()))
            .iter()
            .all(|c| c.1));
        // Cell 2 is the pooled Theorem 2 cell, the partner of serial cell 1.
        rows[2].fingerprint ^= 1;
        let failed: Vec<String> = (spec.claims(&spec.report_from_rows(rows)).into_iter())
            .filter(|(_, ok)| !ok)
            .map(|(what, _)| what)
            .collect();
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert!(
            failed[0].starts_with("replay-equal: thm2 n=4"),
            "{failed:?}"
        );
    }

    #[test]
    fn worker_protocol_round_trips_executor_rows() {
        for (grid, preset, cell) in [("ensemble", "golden", 3u64), ("multidim", "quick", 5)] {
            let spec = AnySpec::resolve(grid, preset).expect("registered");
            let want = CellRecord {
                cell,
                seed: cell_seed(spec.base_seed(), cell),
                status: CellStatus::Done,
                outcomes: spec.executor(Duration::ZERO).rows(cell as usize),
            };
            assert_eq!(want.outcomes.len(), spec.rows_per_cell(), "{grid}");
            let line = checkpoint::encode_reply(cell, want.seed, Ok(want.outcomes.clone()));
            let got = CellRecord {
                outcomes: checkpoint::decode_reply(&line, cell)
                    .expect("a well-formed reply")
                    .expect("a finished cell"),
                ..want.clone()
            };
            assert!(
                got.bit_eq(&want),
                "{grid}: the rows cross the pipe bit-exactly"
            );
        }
    }
}
