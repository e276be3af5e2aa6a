//! The grid workloads: the `full` ensemble, multidim and dynamic_rates
//! sweeps at derived seeds, either in process on the sweep pool
//! (`grid_sweep`) or through `controlplane::run` with a per-cell
//! checkpoint and `sweep-worker` processes (`grid_sweep_durable`).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use consensus_bench::experiments::{run_ensemble_traced, try_ensemble_spec};
use consensus_bench::obswire::{enrich_report, trace_rounds_ensemble};
use consensus_bench::orchestrate::AnySpec;
use consensus_obs::{to_jsonl_content, NullClock, DEFAULT_RECORDER_CAP};
use tight_bounds_consensus::controlplane::{
    self, checkpoint, CellExecutor, CheckpointWriter, Metrics, ProcessPool, RunConfig, WorkerSpawn,
};
use tight_bounds_consensus::prelude::*;

use crate::layers::{Layers, GRIDS};
use crate::stats::{fnv1a, mix, ms_since};
use crate::{Checks, Ctx, Item, Workload};

/// The preset every measured sweep runs.
const PRESET: &str = "full";

/// Derived seeds per run: the loop cycles through them, so every seed's
/// report is checked against one reference and against its repeats.
const SEEDS: u64 = 8;

/// The golden preset of each grid and the file its report must equal.
const GOLDENS: [(&str, &str, &str); 3] = [
    ("ensemble", "golden", "ci/golden_sweep.json"),
    ("multidim", "quick", "ci/golden_multidim.json"),
    ("dynamic_rates", "quick", "ci/golden_dynamic.json"),
];

/// Both grid workloads; `durable` selects the control-plane path.
pub struct Grids {
    ctx: Ctx,
    specs: Vec<AnySpec>,
    durable: bool,
    /// Report hashes by `(grid, seed)`, one per sweep run.
    produced: BTreeMap<(usize, u64), Vec<u64>>,
    /// Whether the set-up's golden ensemble matched its golden file.
    warm_golden: bool,
}

/// What the traced durable path records around the control plane.
#[derive(Default)]
struct DurableLog {
    round_trips_us: Mutex<Vec<f64>>,
    retries: u64,
    restarts: u64,
}

impl DurableLog {
    /// Moves the round trips under `key` and the retry and restart
    /// counts into `layers`.
    fn record(self, layers: &mut Layers, key: &str) {
        for us in self.round_trips_us.into_inner().expect("round-trip log") {
            layers.push(key, us);
        }
        layers.push("controlplane.retries", self.retries as f64);
        layers.push("controlplane.worker_restarts", self.restarts as f64);
    }
}

/// A timing [`CellExecutor`] around the worker pool: records every
/// cell's request/response round trip.
struct TimedExec<'p> {
    inner: &'p dyn CellExecutor,
    round_trips_us: &'p Mutex<Vec<f64>>,
}

impl CellExecutor for TimedExec<'_> {
    fn run_cell(&self, cell: usize) -> Result<Vec<CellOutcome>, String> {
        let t = Instant::now();
        let r = self.inner.run_cell(cell);
        let us = ms_since(t) * 1e3;
        self.round_trips_us.lock().expect("round-trip log").push(us);
        r
    }
}

impl Grids {
    /// Resolves the three full grids, then warms the execution path
    /// (pool threads or worker processes, code and data caches) with the
    /// golden ensemble and checks its report, so a broken build or worker
    /// fails before the loop.
    pub fn setup(ctx: &Ctx, durable: bool) -> Grids {
        if durable {
            std::fs::create_dir_all(&ctx.tmp).expect("cannot create the checkpoint directory");
        }
        let mut grids = Grids {
            ctx: ctx.clone(),
            specs: GRIDS
                .iter()
                .map(|g| AnySpec::resolve(g, PRESET).expect("every grid has a full preset"))
                .collect(),
            durable,
            produced: BTreeMap::new(),
            warm_golden: false,
        };
        grids.warm_golden = grids.golden(GOLDENS[0]);
        grids
    }

    /// Runs a golden preset on the configured path; whether its report
    /// equals the golden file.
    fn golden(&self, (grid, preset, file): (&str, &str, &str)) -> bool {
        let spec = AnySpec::resolve(grid, preset).expect("golden preset");
        let json = self.sweep(&spec, preset, u64::MAX, None);
        if self.durable {
            std::fs::remove_file(self.checkpoint_path(&spec, u64::MAX)).ok();
        }
        let golden = std::fs::read_to_string(self.ctx.repo.join(file)).ok();
        json.is_some() && json == golden
    }

    /// One sweep of `spec` on the configured path: the report JSON, or
    /// `None` when a cell failed or the run panicked. `log` switches on
    /// the control plane's timers.
    fn sweep(
        &self,
        spec: &AnySpec,
        preset: &str,
        k: u64,
        log: Option<&mut DurableLog>,
    ) -> Option<String> {
        if !self.durable {
            let nproc = self.ctx.nproc;
            return std::panic::catch_unwind(|| spec.run_in_process(Some(nproc)).to_json()).ok();
        }
        let metrics = Metrics::new();
        let pool = ProcessPool::new(worker_spawn(&self.ctx, spec, preset), &metrics);
        let cfg = RunConfig {
            threads: self.ctx.nproc,
            checkpoint: Some(self.checkpoint_path(spec, k)),
            ..RunConfig::default()
        };
        let plan = spec.plan(preset);
        let out = match log {
            None => controlplane::run(&plan, &cfg, &pool, &metrics),
            Some(log) => {
                let timed = TimedExec {
                    inner: &pool,
                    round_trips_us: &log.round_trips_us,
                };
                let out = controlplane::run(&plan, &cfg, &timed, &metrics);
                let snap = metrics.snapshot(self.ctx.nproc as u64);
                log.retries += snap.retries;
                log.restarts += snap.worker_restarts;
                out
            }
        };
        // Dropping the pool closes every worker's stdin and reaps it.
        drop(pool);
        let out = out.ok()?;
        for (cell, error) in &out.failed_cells {
            eprintln!("{} cell {cell} failed: {error}", spec.grid_name());
        }
        if !out.completed || !out.failed_cells.is_empty() {
            return None;
        }
        Some(spec.report_from_rows(out.outcome_rows()?).to_json())
    }

    fn checkpoint_path(&self, spec: &AnySpec, k: u64) -> PathBuf {
        self.ctx
            .tmp
            .join(format!("{}-{k}.sweepck", spec.grid_name()))
    }

    /// The spec of grid `g` at the seed of loop item `k`.
    fn spec_at(&self, g: usize, k: u64) -> AnySpec {
        let mut spec = self.specs[g].clone();
        spec.set_base_seed(mix(self.ctx.seed, k % SEEDS));
        spec
    }

    fn record(&mut self, g: usize, spec: &AnySpec, json: Option<&str>, item: &mut Item) {
        item.work += spec.n_cells() as u64;
        item.checks
            .check(json.is_some(), "sweep completed without failed cells");
        if let Some(json) = json {
            self.produced
                .entry((g, spec.base_seed()))
                .or_default()
                .push(fnv1a(json.as_bytes()));
        }
    }
}

/// The worker command line for one spec (grid, preset and seed are fixed
/// per worker process).
fn worker_spawn(ctx: &Ctx, spec: &AnySpec, preset: &str) -> WorkerSpawn {
    WorkerSpawn {
        program: ctx.worker.clone(),
        args: vec![
            "--grid".into(),
            spec.grid_name().into(),
            "--preset".into(),
            preset.into(),
            "--seed".into(),
            spec.base_seed().to_string(),
        ],
    }
}

/// One in-process sweep with a timer around every cell, through the
/// executor rows the control plane also runs: the report JSON, the wall
/// time in ms, and `(label, µs, rounds)` per cell.
fn timed_in_process(spec: &AnySpec, threads: usize) -> (String, f64, Vec<(String, f64, u64)>) {
    let exec = spec.executor(Duration::ZERO);
    let sweep = Sweep::new((0..spec.n_cells()).collect::<Vec<usize>>()).threads(threads);
    let t = Instant::now();
    let timed = sweep.run(|&i, _| {
        let t = Instant::now();
        let rows = exec.rows(i);
        (rows, ms_since(t) * 1e3)
    });
    let wall_ms = ms_since(t);
    let rows: Vec<CellOutcome> = timed.iter().flat_map(|(r, _)| r.iter().copied()).collect();
    let report = spec.report_from_rows(rows);
    let per = spec.rows_per_cell();
    let cells = timed
        .iter()
        .enumerate()
        .map(|(i, (rows, us))| {
            let label = &report.labels[i * per];
            let label = label.split(" alg=").next().unwrap_or(label);
            (label.to_owned(), *us, rows.iter().map(|o| o.rounds).sum())
        })
        .collect();
    (report.to_json(), wall_ms, cells)
}

impl Workload for Grids {
    fn item(&mut self, k: u64) -> Item {
        let mut item = Item::default();
        for g in 0..self.specs.len() {
            let spec = self.spec_at(g, k);
            let t = Instant::now();
            let json = self.sweep(&spec, PRESET, k, None);
            item.samples_ms.push(ms_since(t));
            if self.durable {
                std::fs::remove_file(self.checkpoint_path(&spec, k)).ok();
            }
            self.record(g, &spec, json.as_deref(), &mut item);
        }
        item
    }

    fn traced_item(&mut self, k: u64, layers: &mut Layers) -> Item {
        let mut item = Item::default();
        let nproc = self.ctx.nproc;
        for (g, grid) in GRIDS.iter().enumerate() {
            let spec = self.spec_at(g, k);
            if self.durable {
                let mut log = DurableLog::default();
                let t = Instant::now();
                let json = self.sweep(&spec, PRESET, k, Some(&mut log));
                item.samples_ms.push(ms_since(t));
                std::fs::remove_file(self.checkpoint_path(&spec, k)).ok();
                log.record(layers, "controlplane.rt_us");
                self.record(g, &spec, json.as_deref(), &mut item);
                continue;
            }
            let t = Instant::now();
            let (json, wall_ms, cells) = timed_in_process(&spec, nproc);
            item.samples_ms.push(ms_since(t));
            layers.push(format!("sweep.cells.{grid}"), cells.len() as f64);
            layers.push("pool.capacity_ns", nproc as f64 * wall_ms * 1e6);
            for (label, us, rounds) in &cells {
                layers.push(format!("sweep.cell_us.{grid}"), *us);
                layers.push("sweep.cell_ns", us * 1e3);
                layers.push("dynamics.rounds", *rounds as f64);
                layers.cell(grid, label, us / 1e3);
            }
            self.record(g, &spec, Some(&json), &mut item);
        }
        item
    }

    /// The durable path's one-off measurements at the first seed: the
    /// checkpoint reloaded and replayed, and the worker overhead over the
    /// same cells run in process.
    fn probe(&mut self, layers: &mut Layers, checks: &mut Checks) {
        if !self.durable {
            return;
        }
        for g in 0..self.specs.len() {
            let spec = self.spec_at(g, 0);
            let mut log = DurableLog::default();
            let json = self.sweep(&spec, PRESET, u64::MAX, Some(&mut log));
            checks.check(json.is_some(), "probe sweep completed without failed cells");
            log.record(layers, "controlplane.probe_rt_us");
            let path = self.checkpoint_path(&spec, u64::MAX);
            replay_checkpoint(&path, &spec, &self.ctx.tmp, layers);
            std::fs::remove_file(path).ok();
            for (_, us, _) in timed_in_process(&spec, self.ctx.nproc).2 {
                layers.push("controlplane.inproc_us", us);
            }
        }
    }

    fn verify(&mut self, checks: &mut Checks) {
        // Every repeat of a seed produced the same bytes, and those bytes
        // equal an independent reference: 1 thread in process for the
        // in-process path, the in-process path for the durable one.
        let threads = if self.durable { self.ctx.nproc } else { 1 };
        for ((g, seed), hashes) in &self.produced {
            let mut spec = self.specs[*g].clone();
            spec.set_base_seed(*seed);
            let reference = fnv1a(spec.run_in_process(Some(threads)).to_json().as_bytes());
            checks.check(
                hashes.iter().all(|h| *h == reference),
                &format!("{} seed {seed} matches its reference", GRIDS[*g]),
            );
        }
        let (grid, preset, file) = GOLDENS[0];
        checks.check(
            self.warm_golden,
            &format!("{grid} {preset} report equals {file}"),
        );
        for golden @ (grid, preset, file) in &GOLDENS[1..] {
            checks.check(
                self.golden(*golden),
                &format!("{grid} {preset} report equals {file}"),
            );
        }
        if !self.durable {
            let golden = std::fs::read_to_string(self.ctx.repo.join("ci/golden_trace.jsonl")).ok();
            checks.check(
                golden.is_some() && golden == golden_trace(self.ctx.nproc),
                "round-level golden trace equals ci/golden_trace.jsonl",
            );
        }
    }
}

/// Times loading the run's checkpoint, then replays its records through
/// a fresh `CheckpointWriter::append`.
fn replay_checkpoint(path: &Path, spec: &AnySpec, tmp: &Path, layers: &mut Layers) {
    let t = Instant::now();
    let Ok(loaded) = checkpoint::load(path) else {
        return;
    };
    layers.push("controlplane.checkpoint_load_ms", ms_since(t));
    let copy = tmp.join(format!("{}-replay.sweepck", spec.grid_name()));
    let mut writer =
        CheckpointWriter::create(&copy, &spec.plan(PRESET).header()).expect("replay checkpoint");
    for record in &loaded.records {
        let t = Instant::now();
        writer.append(record).expect("replay append");
        layers.push("controlplane.checkpoint_append_us", ms_since(t) * 1e3);
    }
    drop(writer);
    std::fs::remove_file(&copy).ok();
}

/// The content trace `sweep --golden --trace-out PATH --trace-level
/// round` writes.
fn golden_trace(threads: usize) -> Option<String> {
    let spec = try_ensemble_spec("golden").ok()?;
    let trace = TraceHandle::enabled_with(DEFAULT_RECORDER_CAP, Arc::new(NullClock));
    let report = run_ensemble_traced(&spec, Some(threads), trace.clone());
    enrich_report(&trace, &report);
    trace_rounds_ensemble(&spec, &report, &trace);
    Some(to_jsonl_content(&trace.merged()))
}
