//! Property tests for the beam-search adaptive adversary: with nothing
//! pruned (width at least the whole digraph class, depth enough to
//! reach any rooted graph from `K_n` by single-edge toggles, no random
//! mutations) the beam **is** the exhaustive rooted argmax — for every
//! initial configuration, not just the spread the unit tests use. The
//! pooled scorer must also be invisible: any thread count, same bits.

use consensus_algorithms::{MeanValue, Midpoint, Point};
use consensus_dynamics::Scenario;
use consensus_dynet::{BeamSearch, ExhaustiveRooted, FORK_GRAIN};
use consensus_obs::TraceHandle;
use proptest::prelude::*;

fn inits(n: usize, raw: &[f64]) -> Vec<Point<1>> {
    (0..n).map(|i| Point([raw[i % raw.len()]])).collect()
}

/// Width that can never prune at `n ≤ 4` (≥ the full digraph count).
fn full_width(n: usize) -> usize {
    1 << (n * (n - 1))
}

fn drive_beam(n: usize, start: &[Point<1>], rounds: usize, threads: usize) -> Vec<Point<1>> {
    let mut sc = Scenario::new(Midpoint, start).adversary(
        BeamSearch::new(n, 7)
            .width(full_width(n))
            .depth(n * (n - 1))
            .mutations(0)
            .threads(threads),
    );
    sc.advance(rounds);
    sc.execution().outputs_slice().to_vec()
}

fn drive_exhaustive(n: usize, start: &[Point<1>], rounds: usize) -> Vec<Point<1>> {
    let mut sc = Scenario::new(Midpoint, start).adversary(ExhaustiveRooted::new(n));
    sc.advance(rounds);
    sc.execution().outputs_slice().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// **Unpruned beam ≡ exhaustive argmax** at `n ∈ {2, 3}` over
    /// arbitrary initial configurations, for several rounds of adaptive
    /// play, bit-for-bit on every agent value.
    #[test]
    fn full_width_beam_equals_exhaustive_small_n(
        n in 2usize..4,
        rounds in 1usize..4,
        raw in proptest::collection::vec(0.0f64..1.0, 3),
    ) {
        let start = inits(n, &raw);
        let beam = drive_beam(n, &start, rounds, 1);
        let exact = drive_exhaustive(n, &start, rounds);
        for (a, b) in beam.iter().zip(exact.iter()) {
            prop_assert_eq!(a[0].to_bits(), b[0].to_bits());
        }
    }

    /// The same equivalence at `n = 4` (4096 candidate digraphs), with
    /// the beam scorer additionally run pooled: exhaustive, serial
    /// beam, and pooled beam all agree bit-for-bit.
    #[test]
    fn full_width_beam_equals_exhaustive_n4_pooled(
        rounds in 1usize..3,
        raw in proptest::collection::vec(0.0f64..1.0, 4),
    ) {
        let n = 4;
        let start = inits(n, &raw);
        let exact = drive_exhaustive(n, &start, rounds);
        for threads in [1, 4] {
            let beam = drive_beam(n, &start, rounds, threads);
            for (a, b) in beam.iter().zip(exact.iter()) {
                prop_assert_eq!(a[0].to_bits(), b[0].to_bits(), "threads={}", threads);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A pruning, mutating beam commits the same schedule at every
    /// thread count. At `n ≤ 12` a wave carries far less than the fork
    /// grain, so it scores inline whatever `threads` says;
    /// `beam_waves_over_the_fork_grain_are_thread_count_invariant` covers
    /// waves that fork.
    #[test]
    fn mutating_beam_is_thread_count_invariant(
        n in 5usize..13,
        seed in any::<u64>(),
        raw in proptest::collection::vec(0.0f64..1.0, 12),
    ) {
        let start = inits(n, &raw);
        let run = |threads: usize| {
            let mut sc = Scenario::new(MeanValue, &start).adversary(
                BeamSearch::new(n, seed)
                    .width(4)
                    .depth(3)
                    .mutations(3)
                    .threads(threads),
            );
            sc.advance(4);
            sc.execution().outputs_slice().to_vec()
        };
        let serial = run(1);
        for threads in [2, 3] {
            let pooled = run(threads);
            for (a, b) in pooled.iter().zip(serial.iter()) {
                prop_assert_eq!(a[0].to_bits(), b[0].to_bits(), "threads={}", threads);
            }
        }
    }
}

/// At `n = 64` a width-2 expansion wave holds the rooted single-edge
/// toggles of its two frontier graphs, up to `2 · 64 · 63 = 8064`
/// candidates of about `2n = 128` receptions each. Scoring it in three
/// chunks at 3 threads needs `3 · FORK_GRAIN / 2n = 3072` of them; the
/// serial run checks every round's wave holds that many, so a larger
/// grain fails this test instead of quietly scoring it inline. The
/// pooled schedule must be bit-identical to the serial one.
#[test]
fn beam_waves_over_the_fork_grain_are_thread_count_invariant() {
    let n = 64;
    let start: Vec<Point<1>> = (0..n)
        .map(|i| Point([((i * 37) % n) as f64 / n as f64]))
        .collect();
    let run = |threads: usize, trace: TraceHandle| {
        let mut sc = Scenario::new(MeanValue, &start).adversary(
            BeamSearch::new(n, 0x48)
                .width(2)
                .depth(1)
                .mutations(2)
                .threads(threads)
                .trace(trace, 0),
        );
        sc.advance(2);
        sc.execution()
            .outputs_slice()
            .iter()
            .map(|p| p[0].to_bits())
            .collect::<Vec<_>>()
    };
    let trace = TraceHandle::enabled();
    let serial = run(1, trace.clone());
    // A round scores at most n + 2 seeds (the deaf family, K_n and the
    // last committed graph) before its one wave.
    let scored: Vec<u64> = trace
        .merged()
        .events
        .iter()
        .filter(|e| e.event.name == "beam_candidates")
        .map(|e| e.event.value)
        .collect();
    assert_eq!(scored.len(), 2, "one count per round");
    let three_chunks = 3 * FORK_GRAIN.div_ceil(2 * n);
    for &k in &scored {
        let wave = usize::try_from(k).expect("fits") - (n + 2);
        assert!(wave >= three_chunks, "a wave of {wave} < {three_chunks}");
    }
    assert_eq!(run(3, TraceHandle::disabled()), serial);
}
