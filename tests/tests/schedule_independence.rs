//! Schedule-independence stress suite: randomized (seeded) thread
//! counts and chunk sizes must never change a single output bit.
//!
//! The determinism contract (see the README) says parallelism in this
//! workspace is an *implementation detail*: chunked `Execution` rounds,
//! the `Sweep` harness, and the raw pool primitives all promise results
//! bit-identical to their single-thread baselines at every worker
//! count and chunk granularity. The existing suites pin a few
//! hand-picked configurations; this one fuzzes the schedule space with
//! a seeded generator so oddball shard shapes (chunk of 1, chunks
//! larger than `n`, more threads than agents) are exercised too.

use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};
use tight_bounds_consensus::pool;
use tight_bounds_consensus::prelude::*;

/// Seeded initial values in `[-1, 1]`, non-uniform and sign-mixed.
fn random_inits(n: usize, rng: &mut StdRng) -> Vec<Point<1>> {
    (0..n)
        .map(|_| Point([rng.random_range(-1.0..=1.0)]))
        .collect()
}

/// Runs `alg` for `rounds` on `csr` under one (threads, chunk) config
/// and returns the final value bits.
fn run_chunked<A: Algorithm<1>>(
    alg: A,
    vals: &[Point<1>],
    csr: &CsrDigraph,
    rounds: usize,
    threads: usize,
    chunk: usize,
) -> Vec<u64> {
    let mut e = Execution::new(alg, vals).threads(threads).chunk_size(chunk);
    for _ in 0..rounds {
        e.step(csr);
    }
    e.outputs_slice().iter().map(|p| p[0].to_bits()).collect()
}

#[test]
fn sharded_execution_is_schedule_independent_under_random_configs() {
    let mut rng = StdRng::seed_from_u64(0xDE71_1417);
    for trial in 0..6 {
        let n = rng.random_range(65usize..=400);
        let degree = rng.random_range(1usize..=4);
        let rounds = rng.random_range(3usize..=12);
        let vals = random_inits(n, &mut rng);
        let csr = CsrDigraph::ring_lattice(n, degree);

        let period = rng.random_range(1usize..=rounds);
        let base_mid = run_chunked(Midpoint, &vals, &csr, rounds, 1, n);
        let base_mean = run_chunked(MeanValue, &vals, &csr, rounds, 1, n);
        let base_amortized = run_chunked(AmortizedMidpoint::new(period), &vals, &csr, rounds, 1, n);
        for _ in 0..4 {
            let threads = rng.random_range(2usize..=16);
            // Deliberately include degenerate shapes: chunk of 1 and
            // chunks larger than the agent count.
            let chunk = rng.random_range(1usize..=2 * n);
            assert_eq!(
                base_mid,
                run_chunked(Midpoint, &vals, &csr, rounds, threads, chunk),
                "trial {trial}: Midpoint diverged at threads={threads} chunk={chunk}"
            );
            assert_eq!(
                base_mean,
                run_chunked(MeanValue, &vals, &csr, rounds, threads, chunk),
                "trial {trial}: MeanValue diverged at threads={threads} chunk={chunk}"
            );
            assert_eq!(
                base_amortized,
                run_chunked(
                    AmortizedMidpoint::new(period),
                    &vals,
                    &csr,
                    rounds,
                    threads,
                    chunk
                ),
                "trial {trial}: AmortizedMidpoint diverged at threads={threads} chunk={chunk}"
            );
        }
    }
}

/// One sweep cell: a small seeded consensus run whose result folds the
/// exact bit pattern of every final value, so any schedule-dependent
/// wobble anywhere in the cell shows up in the digest.
fn cell_digest(steps: u64, ctx: CellCtx) -> u64 {
    let mut crng = ctx.rng();
    let n = crng.random_range(2usize..=48);
    let vals: Vec<Point<1>> = (0..n)
        .map(|_| Point([crng.random_range(-1.0..=1.0)]))
        .collect();
    let csr = CsrDigraph::ring_lattice(n, 1);
    // Each cell itself shards internally — nested parallelism is part
    // of the contract, not an exception to it.
    let mut e = Execution::new(Midpoint, &vals).threads(2).chunk_size(3);
    for _ in 0..steps {
        e.step(&csr);
    }
    e.outputs_slice().iter().fold(ctx.seed, |acc, p| {
        acc.wrapping_mul(0x100_0000_01B3)
            .wrapping_add(p[0].to_bits())
    })
}

#[test]
fn sweep_results_are_thread_count_independent() {
    let mut rng = StdRng::seed_from_u64(0x5EED_5EED);
    for trial in 0..5 {
        let cells: Vec<u64> = (1..=rng.random_range(5u64..=40)).collect();
        let base_seed = rng.next_u64();
        let run = |threads: usize| {
            Sweep::new(cells.clone())
                .seed(base_seed)
                .threads(threads)
                .run(|&steps, ctx| cell_digest(steps, ctx))
        };
        let baseline = run(1);
        for _ in 0..3 {
            let threads = rng.random_range(2usize..=16);
            assert_eq!(
                baseline,
                run(threads),
                "trial {trial}: sweep diverged at threads={threads}"
            );
        }
    }
}

/// Drives one randomized configuration through the three pool-backed
/// adaptive-search paths — probe forks, greedy valency candidate forks,
/// and the beam scorer — and digests every output bit.
fn adaptive_digest(n: usize, inits: &[Point<1>], steps: usize, threads: usize) -> u64 {
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |bits: u64| {
        acc = acc.wrapping_mul(0x100_0000_01B3).wrapping_add(bits);
    };

    // Pool-backed probe continuations.
    let model = NetworkModel::deaf(&Digraph::complete(n));
    let exec = Execution::new(Midpoint, inits);
    let est = ProbeSet::deaf_continuations(&model)
        .threads(threads)
        .estimate(&exec);
    fold(u64::from(est.converged));
    for p in &est.limits {
        fold(p[0].to_bits());
    }

    // Pool-backed greedy valency candidate forks.
    let mut exec = Execution::new(Midpoint, inits);
    let trace = adversary::theorem2(&Digraph::complete(n))
        .threads(threads)
        .drive(&mut exec, steps);
    trace.chosen.iter().for_each(|&c| fold(c as u64));
    trace.deltas.iter().for_each(|d| fold(d.to_bits()));
    exec.outputs_slice()
        .iter()
        .for_each(|p| fold(p[0].to_bits()));

    // Pool-backed beam scoring (random mutations on, so the RNG'd path
    // is the one being fuzzed, not just the deterministic toggles).
    let mut sc = Scenario::new(MeanValue, inits)
        .adversary(BeamSearch::new(n, 0xBEA_5EED).mutations(3).threads(threads));
    sc.advance(steps);
    sc.execution()
        .outputs_slice()
        .iter()
        .for_each(|p| fold(p[0].to_bits()));
    acc
}

#[test]
fn adaptive_search_paths_are_thread_count_independent() {
    let mut rng = StdRng::seed_from_u64(0xADA7_71FE);
    for trial in 0..5 {
        let n = rng.random_range(3usize..=8);
        let steps = rng.random_range(2usize..=6);
        let inits = random_inits(n, &mut rng);
        let baseline = adaptive_digest(n, &inits, steps, 1);
        for _ in 0..3 {
            let threads = rng.random_range(2usize..=16);
            assert_eq!(
                baseline,
                adaptive_digest(n, &inits, steps, threads),
                "trial {trial}: adaptive search diverged at threads={threads} (n={n})"
            );
        }
    }
}

#[test]
fn pool_chunk_primitive_is_schedule_independent() {
    let mut rng = StdRng::seed_from_u64(0x00C0_FFEE);
    for trial in 0..8 {
        let n = rng.random_range(1usize..=5000);
        let src: Vec<f64> = (0..n).map(|_| rng.random_range(-8.0..=8.0)).collect();
        // Sequential baseline of a position-dependent transform.
        let expect: Vec<u64> = src
            .iter()
            .enumerate()
            .map(|(i, &v)| (v.abs() * (i as f64 + 1.0)).sqrt().to_bits())
            .collect();
        let threads = rng.random_range(1usize..=16);
        let chunk = rng.random_range(1usize..=2 * n);
        let mut out = vec![0u64; n];
        pool::for_each_chunk_mut(&mut out, chunk, threads, |start, slot| {
            for (k, o) in slot.iter_mut().enumerate() {
                let i = start + k;
                *o = (src[i].abs() * (i as f64 + 1.0)).sqrt().to_bits();
            }
        });
        assert_eq!(
            expect, out,
            "trial {trial}: pool chunking diverged at threads={threads} chunk={chunk}"
        );
    }
}
