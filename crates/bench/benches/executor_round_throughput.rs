//! Criterion micro-benchmark: per-round executor cost, legacy
//! gather-and-clone inboxes vs the zero-allocation [`Inbox`] slate path,
//! plus the **large-`n` chunked executor** measurement the CI gate
//! uploads as `BENCH_executor.json`.
//!
//! The legacy path replicates the seed semantics: per agent per round,
//! collect the in-neighbors' messages into a freshly allocated buffer
//! (O(n·deg) clones + allocations per round). The `Inbox` path is
//! `Execution::step`: one shared slate written once per round, per-agent
//! views are a bitmask + slice borrow — no per-round heap allocation.
//!
//! The large-`n` section times `Execution` on a CSR ring-lattice
//! topology with intra-round chunk parallelism at
//! `n ∈ {10³, 10⁴, 10⁵}` — well past the dense graph's `n ≤ 64` cap —
//! at one thread and at the full worker pool, and writes the measured
//! throughput to `BENCH_executor.json` (override the path with the
//! `BENCH_EXECUTOR_OUT` environment variable).

use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;
use tight_bounds_consensus::prelude::*;

fn inits(n: usize) -> Vec<Point<1>> {
    (0..n).map(|i| Point([i as f64 / (n - 1) as f64])).collect()
}

/// One legacy-style round: fresh per-agent inbox buffers, messages
/// cloned out of the slate (the seed executor's allocation profile).
fn legacy_round(alg: &Midpoint, states: &mut [Point<1>], g: &Digraph, round: u64) {
    let msgs: Vec<Point<1>> = states
        .iter()
        .map(|s| <Midpoint as Algorithm<1>>::message(alg, s))
        .collect();
    for (i, state) in states.iter_mut().enumerate() {
        let pairs: Vec<(usize, Point<1>)> = g.in_neighbors(i).map(|j| (j, msgs[j])).collect();
        let buf = InboxBuffer::from_pairs(&pairs);
        alg.step(i, state, buf.as_inbox(), round);
    }
}

fn round_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("executor_round_throughput");
    group.sample_size(20);
    const ROUNDS: u64 = 100;

    for n in [8usize, 32, 64] {
        let g = Digraph::complete(n);
        let start = inits(n);

        group.bench_function(BenchmarkId::new("legacy_gather_clone", n), |b| {
            b.iter(|| {
                let alg = Midpoint;
                let mut states: Vec<Point<1>> = start
                    .iter()
                    .enumerate()
                    .map(|(i, &y)| <Midpoint as Algorithm<1>>::init(&alg, i, y))
                    .collect();
                for round in 1..=ROUNDS {
                    legacy_round(&alg, &mut states, black_box(&g), round);
                }
                states[0]
            })
        });

        group.bench_function(BenchmarkId::new("inbox_slate", n), |b| {
            b.iter(|| {
                let mut e = Execution::new(Midpoint, &start);
                for _ in 0..ROUNDS {
                    e.step(black_box(&g));
                }
                e.value_diameter()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, round_throughput);

/// In-degree (excluding the self-loop) of the large-`n` benchmark's ring
/// lattice — bounded-degree, strongly connected at every `n`.
const LATTICE_K: usize = 6;

/// One measured chunked run: `rounds` midpoint rounds over a
/// `ring_lattice(n, LATTICE_K)` with the given worker count. Returns
/// `(elapsed_seconds, final_diameter)` — the diameter doubles as the
/// do-not-optimize sink and a sanity check that the run really
/// contracted.
fn chunked_run(n: usize, rounds: u64, threads: usize) -> (f64, f64) {
    let vals: Vec<Point<1>> = (0..n)
        .map(|i| Point([((i * 2_654_435_761 % 1_000_003) as f64) / 1_000_003.0]))
        .collect();
    let g = CsrDigraph::ring_lattice(n, LATTICE_K);
    let mut e = Execution::new(Midpoint, &vals).threads(threads);
    let start = Instant::now();
    for _ in 0..rounds {
        e.step(black_box(&g));
    }
    let elapsed = start.elapsed().as_secs_f64();
    (elapsed, e.value_diameter())
}

/// Runs the large-`n` grid and writes `BENCH_executor.json`. Timings
/// are machine-dependent (an uploaded artifact, not a golden); the
/// schema and the grid are fixed.
fn emit_executor_json() {
    let threads_full = tight_bounds_consensus::pool::default_threads();
    let configs: &[usize] = if threads_full > 1 {
        &[1, threads_full]
    } else {
        &[1]
    };
    let mut runs = String::new();
    println!("\nchunked executor throughput (ring_lattice k={LATTICE_K}, midpoint):");
    for &(n, rounds) in &[(1_000usize, 400u64), (10_000, 100), (100_000, 25)] {
        for &threads in configs {
            let (elapsed, final_diameter) = chunked_run(n, rounds, threads);
            let rounds_per_s = rounds as f64 / elapsed;
            let updates_per_s = rounds_per_s * n as f64;
            println!(
                "  n={n:<7} threads={threads:<3} {rounds:>4} rounds in {elapsed:>8.4}s  \
                 ({rounds_per_s:>10.1} rounds/s, {updates_per_s:>14.0} agent-updates/s)"
            );
            if !runs.is_empty() {
                runs.push_str(",\n");
            }
            runs.push_str(&format!(
                "    {{\"n\": {n}, \"threads\": {threads}, \"rounds\": {rounds}, \
                 \"elapsed_s\": {elapsed:.6}, \"rounds_per_s\": {rounds_per_s:.3}, \
                 \"agent_updates_per_s\": {updates_per_s:.0}, \
                 \"final_diameter\": {final_diameter:e}}}"
            ));
        }
    }
    let json = format!(
        "{{\n  \"name\": \"executor_round_throughput\",\n  \"kernel\": \"midpoint\",\n  \
         \"topology\": \"ring_lattice(k={LATTICE_K})\",\n  \"runs\": [\n{runs}\n  ]\n}}\n"
    );
    // `cargo bench` sets the CWD to the package dir, not the workspace
    // root — anchor the default so CI finds the artifact at the root.
    let path = std::env::var("BENCH_EXECUTOR_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_executor.json").into()
    });
    std::fs::write(&path, &json).expect("failed to write the executor bench JSON");
    println!("executor throughput JSON written to {path}");
}

fn main() {
    benches();
    emit_executor_json();
}
