//! The repository benchmark. One workload per invocation, closed loop
//! (the next item starts when the previous one finishes), for a fixed
//! number of seconds:
//!
//! ```text
//! perfbench --workload NAME --seed S --seconds T --trace 0|1
//!           --repo DIR --worker PATH --tmp DIR
//! ```
//!
//! Workloads: `grid_sweep`, `grid_sweep_durable`, `adversary_search`,
//! `large_n` (see `BENCHMARK.json` for why each exists, and `large_n.rs`
//! for why that one is not listed there). `perfbench/run.py`
//! builds this binary and the `sweep-worker` it drives and supplies the
//! paths. The untraced run (`--trace 0`) reports the end-to-end metrics;
//! the traced run (`--trace 1`) reports every per-layer metric, the
//! straggler tables and the benchmark's own tracing overhead. Every run
//! prints a spin-loop calibration of the host and checks its outputs.
//! The last line of standard output is the JSON result.

#![forbid(unsafe_code)]

mod adversary;
mod grids;
mod large_n;
mod layers;
mod stats;

use std::path::PathBuf;
use std::time::Instant;

use layers::Layers;
use stats::{calibrate, median, ms_since, peak_rss_mb, percentile};

/// Every workload, in report order.
const WORKLOADS: [&str; 4] = [
    "grid_sweep",
    "grid_sweep_durable",
    "adversary_search",
    "large_n",
];

/// What every workload needs from the command line.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Threads and worker processes never exceed this.
    pub nproc: usize,
    pub seed: u64,
    /// The checkout root (goldens are read from `ci/`).
    pub repo: PathBuf,
    /// The `sweep-worker` binary.
    pub worker: PathBuf,
    /// A directory of this run's own for checkpoints.
    pub tmp: PathBuf,
}

/// Correctness checks made and failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one check; a failure is reported on standard error.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    fn add(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One closed-loop item: its latency samples, the work it did (cells or
/// agent updates) and its checks.
#[derive(Debug, Default)]
pub struct Item {
    pub samples_ms: Vec<f64>,
    pub work: u64,
    pub checks: Checks,
}

/// A workload: closed-loop items, the same items with the benchmark's
/// timers around the calls into each layer, one-off layer measurements
/// that would distort a timed item, and the checks that need a
/// reference.
pub trait Workload {
    fn item(&mut self, k: u64) -> Item;
    fn traced_item(&mut self, k: u64, layers: &mut Layers) -> Item;
    fn probe(&mut self, layers: &mut Layers, checks: &mut Checks);
    fn verify(&mut self, checks: &mut Checks);
}

fn setup(name: &str, ctx: &Ctx) -> Box<dyn Workload> {
    match name {
        "grid_sweep" => Box::new(grids::Grids::setup(ctx, false)),
        "grid_sweep_durable" => Box::new(grids::Grids::setup(ctx, true)),
        "adversary_search" => Box::new(adversary::Adversary::setup(ctx)),
        "large_n" => Box::new(large_n::LargeN::setup(ctx)),
        other => unreachable!("unknown workload {other}"),
    }
}

/// Sets the workload up repeatedly (for 0.3 s, at least 7 and at most
/// 5001 times) and returns the median set-up time in seconds with the
/// last instance.
fn timed_setup(name: &str, ctx: &Ctx) -> (f64, Box<dyn Workload>) {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let w = setup(name, ctx);
        times.push(t.elapsed().as_secs_f64());
        let spent = start.elapsed().as_secs_f64();
        if times.len() >= 5001 || (times.len() >= 7 && spent > 0.3) {
            println!("setup: {} repetitions", times.len());
            return (median(&times), w);
        }
    }
}

/// The outcome of one closed loop.
#[derive(Debug, Default)]
struct LoopStats {
    samples_ms: Vec<f64>,
    /// Work per second of every item.
    rates: Vec<f64>,
    wall_s: f64,
}

impl LoopStats {
    /// The median item's work per second: robust to a burst of load
    /// from other tenants of the host.
    fn throughput(&self) -> f64 {
        median(&self.rates)
    }
}

/// Runs items until `seconds` have passed (at least one item).
fn closed_loop(
    w: &mut dyn Workload,
    seconds: f64,
    mut layers: Option<&mut Layers>,
    checks: &mut Checks,
) -> LoopStats {
    let mut stats = LoopStats::default();
    let start = Instant::now();
    let mut k = 0;
    while k == 0 || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let item = match layers.as_deref_mut() {
            Some(l) => w.traced_item(k, l),
            None => w.item(k),
        };
        stats
            .rates
            .push(item.work as f64 / t.elapsed().as_secs_f64());
        stats.samples_ms.extend(item.samples_ms);
        checks.add(item.checks);
        k += 1;
    }
    stats.wall_s = start.elapsed().as_secs_f64();
    stats
}

/// Runs the workload's reference checks and reports how long they took.
fn timed_verify(w: &mut dyn Workload, checks: &mut Checks) {
    let t = Instant::now();
    w.verify(checks);
    println!("reference checks: {:.3} s", ms_since(t) / 1e3);
}

/// The workload's own names for the end-to-end metrics: throughput, and
/// the latency percentiles with their unit and scale from ms.
fn aliases(workload: &str) -> (&'static str, [(&'static str, &'static str, f64); 3]) {
    match workload {
        "adversary_search" => (
            "adv_cells_per_s",
            [
                ("adv_grid_s", "s", 1e-3),
                ("adv_grid_s_p90", "s", 1e-3),
                ("adv_grid_s_p99", "s", 1e-3),
            ],
        ),
        "large_n" => (
            "updates_per_s",
            [
                ("round_us_p50", "us", 1e3),
                ("round_us_p90", "us", 1e3),
                ("round_us_p99", "us", 1e3),
            ],
        ),
        _ => (
            "sweep_cells_per_s",
            [
                ("sweep_ms_p50", "ms", 1.0),
                ("sweep_ms_p90", "ms", 1.0),
                ("sweep_ms_p99", "ms", 1.0),
            ],
        ),
    }
}

/// The end-to-end metrics of one loop, as `(name, value, unit)`.
fn end_to_end(setup_s: f64, stats: &LoopStats) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("setup_s", setup_s, "s"),
        ("throughput_per_s", stats.throughput(), "1/s"),
        ("latency_ms_p50", percentile(&stats.samples_ms, 0.5), "ms"),
        ("latency_ms_p90", percentile(&stats.samples_ms, 0.9), "ms"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// Prints the end-to-end metrics under the workload's own names.
fn print_end_to_end(workload: &str, label: &str, setup_s: f64, stats: &LoopStats) {
    let (per_s, lat) = aliases(workload);
    let n = stats.samples_ms.len();
    println!("{label}: {n} samples over {:.3} s", stats.wall_s);
    println!("  {:<24} {:>16.6} s", "setup_s", setup_s);
    println!("  {per_s:<24} {:>16.3} 1/s", stats.throughput());
    for (q, (name, unit, scale)) in [0.5, 0.9, 0.99].into_iter().zip(lat) {
        // A percentile is reported only with ten samples beyond it.
        if (1.0 - q) * n as f64 >= 10.0 || q == 0.5 {
            let v = percentile(&stats.samples_ms, q) * scale;
            println!("  {name:<24} {v:>16.6} {unit}");
        } else {
            println!(
                "  {name:<24} {:>16} (needs {} samples)",
                "-",
                (10.0 / (1.0 - q)).ceil()
            );
        }
    }
    println!("  {:<24} {:>16.3} MB", "peak_rss_mb", peak_rss_mb());
}

fn json_result(checks: Checks, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    )
}

struct Args {
    workload: String,
    seconds: f64,
    trace: bool,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let (mut repo, mut worker, mut tmp) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => trace = Some(value == "1"),
            "--repo" => repo = Some(PathBuf::from(value)),
            "--worker" => worker = Some(PathBuf::from(value)),
            "--tmp" => tmp = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (use {})",
            WORKLOADS.join("|")
        ));
    }
    let tmp: PathBuf = tmp.ok_or("--tmp is required")?;
    Ok(Args {
        workload,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        ctx: Ctx {
            nproc: tight_bounds_consensus::pool::default_threads(),
            seed: seed.ok_or("--seed is required")?,
            repo: repo.ok_or("--repo is required")?,
            worker: worker.ok_or("--worker is required")?,
            tmp: tmp.join(format!("run-{}", std::process::id())),
        },
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let ctx = &args.ctx;
    let name = args.workload.as_str();
    println!(
        "perfbench {name}: seed {} seconds {} trace {} nproc {}",
        ctx.seed,
        args.seconds,
        u8::from(args.trace),
        ctx.nproc
    );
    let (spin_ms, parallelism) = calibrate(ctx.nproc);
    println!(
        "calibration: spin {spin_ms:.3} ms at 1 thread, effective parallelism {parallelism:.3} at {} threads",
        ctx.nproc
    );

    let (setup_s, mut w) = timed_setup(name, ctx);
    let mut checks = Checks::default();
    let result = if args.trace {
        traced_run(
            name,
            &args,
            setup_s,
            &mut *w,
            &mut checks,
            (spin_ms, parallelism),
        )
    } else {
        let stats = closed_loop(&mut *w, args.seconds, None, &mut checks);
        timed_verify(&mut *w, &mut checks);
        print_end_to_end(name, "untraced", setup_s, &stats);
        end_to_end(setup_s, &stats)
    };
    drop(w);
    std::fs::remove_dir_all(&ctx.tmp).ok();
    println!(
        "  {:<24} {:>16.6} ({} of {} checks failed)",
        "failed_ratio",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.failed,
        checks.attempted
    );
    println!("{}", json_result(checks, &result));
}

/// The traced run: half the time untraced, half with the benchmark's
/// layer timers, one traced item of every other workload, and the
/// single-layer probes.
fn traced_run(
    name: &str,
    args: &Args,
    setup_s: f64,
    w: &mut dyn Workload,
    checks: &mut Checks,
    calibration: (f64, f64),
) -> Vec<(&'static str, f64, &'static str)> {
    let ctx = &args.ctx;
    let plain = closed_loop(w, args.seconds / 2.0, None, checks);
    let mut layers = Layers::default();
    let traced = closed_loop(w, args.seconds / 2.0, Some(&mut layers), checks);
    w.probe(&mut layers, checks);
    timed_verify(w, checks);
    print_end_to_end(name, "untraced", setup_s, &plain);
    print_end_to_end(name, "traced", setup_s, &traced);
    println!("benchmark tracing overhead (traced − untraced):");
    for ((metric, t, unit), (_, u, _)) in end_to_end(setup_s, &traced)
        .into_iter()
        .zip(end_to_end(setup_s, &plain))
        .skip(1)
    {
        println!(
            "  {metric:<24} {:>+16.6} {unit} ({:+.2}%)",
            t - u,
            100.0 * (t / u - 1.0)
        );
    }
    layers.push(
        "bench.trace_overhead_frac",
        percentile(&traced.samples_ms, 0.5) / percentile(&plain.samples_ms, 0.5) - 1.0,
    );

    for other in WORKLOADS.iter().filter(|o| **o != name) {
        let t = Instant::now();
        let mut o = setup(other, ctx);
        checks.add(o.traced_item(0, &mut layers).checks);
        o.probe(&mut layers, checks);
        o.verify(checks);
        println!("layer pass {other}: {:.3} s", ms_since(t) / 1e3);
    }
    layers::probes(&mut layers, ctx.nproc, ctx.seed);
    layers.push("calib.spin_ms_1t", calibration.0);
    layers.push("calib.parallelism", calibration.1);

    print!("{}", layers.stragglers(5));
    println!("per-layer metrics (→ the end-to-end metric and workload each should move):");
    let finished = layers.finish();
    for (m, v) in &finished {
        println!("  {:<40} {v:>16.6} {:<6} → {}", m.name, m.unit, m.moves);
    }
    finished
        .into_iter()
        .map(|(m, v)| (m.name, v, m.unit))
        .collect()
}
