//! Property tests for the beam-search adaptive adversary: with nothing
//! pruned (width at least the whole digraph class, depth enough to
//! reach any rooted graph from `K_n` by single-edge toggles, no random
//! mutations) the beam **is** the exhaustive rooted argmax — for every
//! initial configuration, not just the spread the unit tests use. The
//! pooled scorer must also be invisible: any thread count, same bits.

use consensus_algorithms::{MeanValue, Midpoint, Point};
use consensus_dynamics::Scenario;
use consensus_dynet::{BeamSearch, ExhaustiveRooted};
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

    /// A pruning, mutating beam scores each wave in one contiguous chunk
    /// per worker; at 2 and 3 workers the chunk boundaries fall mid-wave
    /// (and at different candidates), and the schedule must not notice.
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
