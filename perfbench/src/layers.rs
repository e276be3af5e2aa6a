//! The traced run's per-layer numbers: the samples the workloads'
//! traced items record around their calls into each layer, the fixed-size
//! probes of single layers, and the table that names every per-layer
//! metric with the end-to-end metric and workload it should move.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use consensus_bench::experiments::{
    run_dynamic, run_dynamic_traced, run_ensemble, run_ensemble_traced, run_multidim,
    run_multidim_traced, spread_inits, try_dynamic_spec, try_ensemble_spec, try_multidim_spec,
};
use consensus_bench::obswire::enrich_report;
use tight_bounds_consensus::dynamics::pattern::PatternSource;
use tight_bounds_consensus::prelude::*;
use tight_bounds_consensus::sweep::EnsembleCell;

use crate::stats::{mean, median, mix, ms_since, percentile};

/// One per-layer metric: name, unit, and the end-to-end metric (by its
/// workload-specific name) and workload it should move.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
}

const fn lm(name: &'static str, unit: &'static str, moves: &'static str) -> LayerMetric {
    LayerMetric { name, unit, moves }
}

const GRID_P50: &str = "sweep_ms_p50 on grid_sweep";
const BOTH_GRIDS: &str = "sweep_ms_p50 on grid_sweep and grid_sweep_durable";
const DURABLE: &str = "sweep_ms_p50 on grid_sweep_durable, nothing on grid_sweep";
const ADV: &str = "adv_grid_s on adversary_search";
const CONTEXT: &str = "nothing (host context, not gated)";
const SHARDED: &str = "round_us_p50 on large_n (not a BENCHMARK.json workload)";

/// Every per-layer metric the traced run reports, in report order.
pub const PER_LAYER: &[LayerMetric] = &[
    lm(
        "pool.dispatch_us",
        "us",
        "adv_grid_s on adversary_search, sweep_ms_p50 on grid_sweep",
    ),
    lm("pool.chunk_dispatch_us", "us", SHARDED),
    lm(
        "pool.idle_frac",
        "ratio",
        "sweep_ms_p50 on grid_sweep, adv_grid_s on adversary_search",
    ),
    lm("sweep.cell_us_p50.ensemble", "us", BOTH_GRIDS),
    lm("sweep.cell_us_p50.multidim", "us", BOTH_GRIDS),
    lm("sweep.cell_us_p50.dynamic_rates", "us", BOTH_GRIDS),
    lm("sweep.cell_us_p99.ensemble", "us", BOTH_GRIDS),
    lm("sweep.cell_us_p99.multidim", "us", BOTH_GRIDS),
    lm("sweep.cell_us_p99.dynamic_rates", "us", BOTH_GRIDS),
    lm("sweep.cells.ensemble", "count", BOTH_GRIDS),
    lm("sweep.cells.multidim", "count", BOTH_GRIDS),
    lm("sweep.cells.dynamic_rates", "count", BOTH_GRIDS),
    lm(
        "dynamics.ns_per_round",
        "ns",
        "sweep_ms_p50 on grid_sweep, adv_grid_s on adversary_search",
    ),
    lm("dynamics.rounds_per_cell", "count", GRID_P50),
    lm("dynamics.fork_step_us", "us", ADV),
    lm("dynamics.sharded_round_us", "us", SHARDED),
    lm(
        "algorithms.ns_per_reception",
        "ns",
        "updates_per_s on large_n (not a BENCHMARK.json workload)",
    ),
    lm("netmodel.graph_sample_us", "us", GRID_P50),
    lm("dynet.next_block_ms", "ms", ADV),
    lm("dynet.beam_candidates", "count", ADV),
    lm("dynet.score_us_per_candidate", "us", ADV),
    lm("dynet.gen_us_per_candidate", "us", ADV),
    lm("dynet.cell_ms.diameter_max", "ms", ADV),
    lm("dynet.cell_ms.beam_full_width", "ms", ADV),
    lm("dynet.cell_ms.exhaustive", "ms", ADV),
    lm("dynet.cell_ms.beam_large", "ms", ADV),
    lm("valency.step_ms", "ms", ADV),
    lm("valency.cell_ms.thm1", "ms", ADV),
    lm("valency.cell_ms.thm2", "ms", ADV),
    lm("valency.cell_ms.deaf_valency", "ms", ADV),
    lm("valency.cell_ms.thm3", "ms", ADV),
    lm("controlplane.checkpoint_append_us", "us", DURABLE),
    lm("controlplane.checkpoint_load_ms", "ms", DURABLE),
    lm("controlplane.worker_round_trip_us_p50", "us", DURABLE),
    lm("controlplane.worker_round_trip_us_p99", "us", DURABLE),
    lm("controlplane.worker_overhead_us", "us", DURABLE),
    lm("controlplane.retries", "count", DURABLE),
    lm("controlplane.worker_restarts", "count", DURABLE),
    lm("obs.traced_ratio", "ratio", "no untraced end-to-end metric"),
    lm(
        "bench.trace_overhead_frac",
        "ratio",
        "no untraced end-to-end metric (the benchmark's own timers)",
    ),
    lm("calib.spin_ms_1t", "ms", CONTEXT),
    lm("calib.parallelism", "ratio", CONTEXT),
];

/// The grids of the sweep workloads, in run order.
pub const GRIDS: [&str; 3] = ["ensemble", "multidim", "dynamic_rates"];

/// Raw samples recorded by traced items and probes, keyed by name, plus
/// per-cell times by label for the straggler tables.
#[derive(Default)]
pub struct Layers {
    raw: BTreeMap<String, Vec<f64>>,
    cells: BTreeMap<String, BTreeMap<String, f64>>,
}

impl Layers {
    /// Appends one sample under `key`.
    pub fn push(&mut self, key: impl Into<String>, value: f64) {
        self.raw.entry(key.into()).or_default().push(value);
    }

    /// Records one cell's time under its grid and label (the slowest of
    /// repeated runs is kept).
    pub fn cell(&mut self, grid: &str, label: &str, ms: f64) {
        let slot = self
            .cells
            .entry(grid.to_owned())
            .or_default()
            .entry(label.to_owned())
            .or_insert(0.0);
        *slot = slot.max(ms);
    }

    fn get(&self, key: &str) -> &[f64] {
        self.raw.get(key).map_or(&[], Vec::as_slice)
    }

    fn med(&self, key: &str) -> f64 {
        median(self.get(key))
    }

    fn sum(&self, key: &str) -> f64 {
        self.get(key).iter().sum()
    }

    /// The `k` slowest cells of every grid, as printable tables.
    #[must_use]
    pub fn stragglers(&self, k: usize) -> String {
        let mut out = String::new();
        for (grid, cells) in &self.cells {
            let mut rows: Vec<(&String, &f64)> = cells.iter().collect();
            rows.sort_by(|a, b| b.1.total_cmp(a.1).then_with(|| a.0.cmp(b.0)));
            let total: f64 = cells.values().sum();
            out.push_str(&format!(
                "stragglers {grid} ({} cells, {total:.1} ms of cell time):\n",
                cells.len()
            ));
            for (label, ms) in rows.into_iter().take(k) {
                out.push_str(&format!(
                    "  {ms:>10.3} ms  {:>5.1}%  {label}\n",
                    100.0 * ms / total.max(f64::MIN_POSITIVE)
                ));
            }
        }
        out
    }

    /// Every [`PER_LAYER`] metric, computed from the recorded samples
    /// (the median of a metric's own samples unless derived below).
    #[must_use]
    pub fn finish(&self) -> Vec<(&'static LayerMetric, f64)> {
        let fork = self.med("dynamics.fork_step_us");
        let score = self.med("dynet.score_us");
        let ratio = |num: &str, den: &str| self.sum(num) / self.sum(den).max(1.0);
        let cell_us =
            |grid: &str, q: f64| percentile(self.get(&format!("sweep.cell_us.{grid}")), q);
        PER_LAYER
            .iter()
            .map(|m| {
                let v = match m.name {
                    "pool.idle_frac" => 1.0 - ratio("sweep.cell_ns", "pool.capacity_ns"),
                    "dynamics.ns_per_round" => ratio("sweep.cell_ns", "dynamics.rounds"),
                    "dynamics.rounds_per_cell" => {
                        self.sum("dynamics.rounds") / self.get("sweep.cell_ns").len().max(1) as f64
                    }
                    "dynet.next_block_ms" => {
                        ratio("dynet.next_block_ms_total", "dynet.next_block_calls")
                    }
                    "dynet.score_us_per_candidate" => score,
                    "dynet.gen_us_per_candidate" => {
                        ratio("dynet.beam16_ns", "dynet.beam16_candidates") / 1e3 - fork - score
                    }
                    "valency.step_ms" => ratio("valency.ms", "valency.steps"),
                    "controlplane.worker_round_trip_us_p50" => {
                        percentile(self.get("controlplane.rt_us"), 0.5)
                    }
                    "controlplane.worker_round_trip_us_p99" => {
                        percentile(self.get("controlplane.rt_us"), 0.99)
                    }
                    "controlplane.worker_overhead_us" => {
                        mean(self.get("controlplane.probe_rt_us"))
                            - mean(self.get("controlplane.inproc_us"))
                    }
                    "controlplane.retries" | "controlplane.worker_restarts" => self.sum(m.name),
                    name => match name.split_once(".cell_us_p") {
                        Some(("sweep", rest)) => {
                            let (q, grid) = rest.split_once('.').expect("sweep.cell_us_pQ.grid");
                            cell_us(grid, q.parse::<f64>().expect("percentile") / 100.0)
                        }
                        _ => self.med(name),
                    },
                };
                (m, v)
            })
            .collect()
    }
}

/// The median per-call time in µs of `f` over `reps` calls, after a
/// warm-up call.
fn per_call_us(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            ms_since(t) * 1e3
        })
        .collect();
    median(&times)
}

/// The median over `batches` of the mean per-op time in µs of `batch`
/// calls of `f`.
fn batched_us(batches: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            ms_since(t) * 1e3 / batch as f64
        })
        .collect();
    median(&times)
}

/// The fixed-size single-layer probes: pool dispatch, a fork step at the
/// beam's `n`, one pattern draw, and the tracing ratio of the sweeps.
pub fn probes(layers: &mut Layers, nproc: usize, seed: u64) {
    layers.push(
        "pool.dispatch_us",
        per_call_us(300, || {
            black_box(tight_bounds_consensus::pool::run_indexed(
                nproc, nproc, black_box,
            ));
        }),
    );
    let mut slots = vec![0u64; nproc];
    layers.push(
        "pool.chunk_dispatch_us",
        per_call_us(300, || {
            tight_bounds_consensus::pool::for_each_chunk_mut(&mut slots, 1, nproc, |_, c| {
                black_box(c);
            });
        }),
    );

    // The large beam's configuration: n = 16 agents under MeanValue, one
    // deaf candidate graph per fork.
    let mut exec = Execution::new(MeanValue, &spread_inits(16));
    let deaf = families::deaf_family(&Digraph::complete(16));
    exec.step(&deaf[3]);
    let g = &deaf[0];
    let fork_step = batched_us(15, 2000, || {
        let mut fork = exec.clone();
        fork.step(black_box(g));
        black_box(&fork);
    });
    let fork_score = batched_us(15, 2000, || {
        let mut fork = exec.clone();
        fork.step(black_box(g));
        black_box(fork.value_diameter());
    });
    layers.push("dynamics.fork_step_us", fork_step);
    layers.push("dynet.score_us", fork_score - fork_step);

    // One draw from each topology class of the full ensemble at n = 16.
    let spec = try_ensemble_spec("full").expect("the full ensemble preset exists");
    let mut classes: Vec<EnsembleCell> = spec.grid.cells();
    let mut seen = std::collections::BTreeSet::new();
    classes.retain(|c| c.n == 16 && seen.insert(c.topology.label()));
    let mut patterns: Vec<_> = classes.iter().map(|c| c.pattern(mix(seed, 7))).collect();
    let mut round = 0u64;
    layers.push(
        "netmodel.graph_sample_us",
        batched_us(15, 200, || {
            round += 1;
            for p in &mut patterns {
                black_box(p.next_graph(round));
            }
        }) / patterns.len().max(1) as f64,
    );

    traced_ratio(layers, nproc, mix(seed, 8));
}

/// `obs.traced_ratio`: the three full sweeps with the program's
/// `TraceHandle` enabled (plus report enrichment, as `sweep --trace-out`
/// does) over the same sweeps untraced, alternating, medians of 3.
fn traced_ratio(layers: &mut Layers, nproc: usize, seed: u64) {
    let mut es = try_ensemble_spec("full").expect("ensemble full");
    let mut ms = try_multidim_spec("full").expect("multidim full");
    let mut ds = try_dynamic_spec("full").expect("dynamic_rates full");
    es.base_seed = seed;
    ms.base_seed = seed;
    ds.base_seed = seed;
    let threads = Some(nproc);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let t = Instant::now();
        black_box(run_ensemble(&es, threads));
        black_box(run_multidim(&ms, threads));
        black_box(run_dynamic(&ds, threads));
        plain.push(ms_since(t));
        let t = Instant::now();
        let trace = TraceHandle::enabled();
        enrich_report(&trace, &run_ensemble_traced(&es, threads, trace.clone()));
        enrich_report(&trace, &run_multidim_traced(&ms, threads, trace.clone()));
        enrich_report(&trace, &run_dynamic_traced(&ds, threads, trace.clone()));
        black_box(trace.merged().len());
        traced.push(ms_since(t));
    }
    layers.push("obs.traced_ratio", median(&traced) / median(&plain));
}
