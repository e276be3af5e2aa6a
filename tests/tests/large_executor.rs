//! The large-`n` executor identity suite: an [`Execution`] stepped on a
//! [`CsrDigraph`], with its agents chunked across pool workers, must
//! reproduce the serial execution on the dense [`Digraph`] **bit for
//! bit** wherever both apply (`n ≤ 64`, any thread count, any chunk
//! size, stateless or stateful rules, any dimension), and must run
//! correctly *past* the old silent `n ≤ 64` inbox cap — 65+-agent runs
//! end-to-end, where the pre-`SenderSet` bitmask would have silently
//! dropped agent 64's messages.

use tight_bounds_consensus::prelude::*;

/// Deterministic, non-uniform, sign-mixed initial values.
fn inits(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 2_654_435_761 % 1_000_003) as f64) / 1_000_003.0 - 0.5)
        .collect()
}

fn points(vals: &[f64]) -> Vec<Point<1>> {
    vals.iter().map(|&v| Point([v])).collect()
}

/// Every coordinate of every output, as bits.
fn bits<A: Algorithm<D>, const D: usize, P>(e: &Execution<A, D, P>) -> Vec<[u64; D]> {
    e.outputs_slice()
        .iter()
        .map(|p| p.0.map(f64::to_bits))
        .collect()
}

/// Deterministic "random" dense digraph: splitmix-style per-agent
/// masks, self-loops enforced, restricted to `n` agents.
fn scrambled_digraph(n: usize, salt: u64) -> Digraph {
    let masks: Vec<u64> = (0..n)
        .map(|i| {
            let mut z = salt.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let valid = if n >= 64 { u64::MAX } else { (1u64 << n) - 1 };
            (z & valid) | (1u64 << i)
        })
        .collect();
    Digraph::from_in_masks(&masks).expect("n validated")
}

/// Steps `alg` serially on scrambled dense graphs, then chunked on the
/// same graphs (dense and CSR) at every (threads, chunk) shape, and
/// requires every output bit to agree.
fn check_identity<A: Algorithm<D> + Clone, const D: usize>(
    alg: A,
    inits: &[Point<D>],
    rounds: usize,
) {
    let n = inits.len();
    let graphs: Vec<Digraph> = (0..rounds)
        .map(|r| scrambled_digraph(n, r as u64))
        .collect();
    let csrs: Vec<CsrDigraph> = graphs.iter().map(CsrDigraph::from_dense).collect();

    let mut dense = Execution::new(alg.clone(), inits);
    for g in &graphs {
        dense.step(g);
    }
    let reference = bits(&dense);

    for (threads, chunk) in [(1, usize::MAX), (2, 3), (7, 16), (13, 1)] {
        let mut chunked = Execution::new(alg.clone(), inits)
            .threads(threads)
            .chunk_size(chunk);
        let mut csr = Execution::new(alg.clone(), inits)
            .threads(threads)
            .chunk_size(chunk);
        for (g, c) in graphs.iter().zip(&csrs) {
            chunked.step(g);
            csr.step(c);
        }
        let what = format!("{} n={n} threads={threads} chunk={chunk}", alg.name());
        assert_eq!(
            reference,
            bits(&chunked),
            "dense-graph path diverged: {what}"
        );
        assert_eq!(reference, bits(&csr), "CSR path diverged: {what}");
    }
}

#[test]
fn sharded_is_bit_identical_to_dense_midpoint() {
    for n in [1, 2, 23, 64] {
        check_identity(Midpoint, &points(&inits(n)), 12);
    }
}

#[test]
fn sharded_is_bit_identical_to_dense_mean_value() {
    for n in [3, 31, 64] {
        check_identity(MeanValue, &points(&inits(n)), 12);
    }
}

#[test]
fn sharded_is_bit_identical_to_dense_self_weighted() {
    for n in [5, 48, 64] {
        check_identity(SelfWeightedAverage::new(1.0 / 3.0), &points(&inits(n)), 12);
    }
}

/// Rules with per-agent state beyond the value (the macro-round phase
/// and interval, a window of past inboxes) or a sort per step: none of
/// them had a chunked path before `Execution` took a step policy.
#[test]
fn chunked_stateful_rules_are_bit_identical_to_dense() {
    for n in [7, 40, 64] {
        let pts = points(&inits(n));
        check_identity(AmortizedMidpoint::new(n - 1), &pts, 2 * n);
        check_identity(WindowedMidpoint::new(3), &pts, 12);
        check_identity(TrimmedMean::new(1), &pts, 12);
    }
}

#[test]
fn chunked_simplex_is_bit_identical_to_dense_in_the_plane() {
    for n in [4, 29, 64] {
        let vals = inits(2 * n);
        let pts: Vec<Point<2>> = vals.chunks(2).map(|c| Point([c[0], c[1]])).collect();
        check_identity(MidpointSimplex, &pts, 12);
    }
}

/// The headline regression: 65 agents end-to-end. On the complete
/// graph every agent hears all 65 values, so one midpoint round
/// reaches exact consensus at `(lo + hi) * 0.5` — a value that
/// **depends on agent 64's extreme input**. The old `u64`-mask inbox
/// silently dropped sender 64, which would shift the consensus value;
/// this asserts both convergence and the exact answer.
#[test]
fn sixty_five_agents_reach_exact_midpoint_consensus() {
    let n = 65;
    let mut vals = inits(n);
    vals[64] = 10.0; // the extreme value lives past the u64 cap
    let (lo, hi) = vals
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let expect = (lo + hi) * 0.5;

    let g = CsrDigraph::complete(n);
    let mut e = Execution::new(Midpoint, &points(&vals)).threads(4);
    e.step(&g);
    assert_eq!(e.round(), 1);
    assert_eq!(
        e.value_diameter(),
        0.0,
        "complete graph agrees in one round"
    );
    for (i, p) in e.outputs_slice().iter().enumerate() {
        assert_eq!(
            p[0].to_bits(),
            expect.to_bits(),
            "agent {i} must agree on the midpoint of ALL 65 inputs"
        );
    }
    assert!(
        (expect - 10.0).abs() > 1.0,
        "sanity: the answer visibly depends on agent 64's input"
    );
}

/// A stateful rule past the cap: amortized midpoint with macro-rounds
/// of `n − 1 = 129` rounds on a 130-agent ring lattice, chunked over 4
/// workers. Every agent is within 22 hops of every other, so the first
/// macro-round relays the whole initial interval to everyone and every
/// agent lands on its midpoint at round 129 — the first round any
/// output moves, and inside the initial hull.
#[test]
fn large_sparse_scenario_converges_end_to_end() {
    let n = 130;
    let vals = inits(n);
    let (lo0, hi0) = vals
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let g = CsrDigraph::ring_lattice(n, 6);
    assert!(g.is_strongly_connected());
    let mut e = Execution::new(AmortizedMidpoint::new(n - 1), &points(&vals))
        .threads(4)
        .chunk_size(16);
    let tol = 1e-9;
    let mut decided = None;
    for r in 1..=20 * n as u64 {
        e.step(&g);
        if e.value_diameter() <= tol {
            decided = Some(r);
            break;
        }
    }
    assert_eq!(
        decided,
        Some(n as u64 - 1),
        "one macro-round spans the lattice"
    );
    for p in e.outputs_slice() {
        assert!(
            (lo0..=hi0).contains(&p[0]),
            "validity: {} escaped the initial interval [{lo0}, {hi0}]",
            p[0]
        );
    }
}
