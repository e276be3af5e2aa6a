//! Bit identity of the O(n) scalar diameter: for finite values
//! `diameter::<1>` computes `dist(max, min)`, which must equal the
//! pairwise maximum bit for bit — subnormals, signed zeros and
//! differences that overflow to +∞ included — while NaN and infinities
//! keep the pairwise loop's result.

use consensus_algorithms::float::det_max;
use consensus_algorithms::{diameter, Point};
use proptest::prelude::*;

/// The pairwise definition the scalar path must reproduce.
fn pairwise(points: &[Point<1>]) -> f64 {
    let mut best: f64 = 0.0;
    for (i, a) in points.iter().enumerate() {
        for b in &points[i + 1..] {
            best = det_max(best, a.dist(b));
        }
    }
    best
}

/// A finite value of the class `class` selects: an arbitrary finite bit
/// pattern, a subnormal (or zero) of either sign, ±0.0, a value within
/// 16 ulps of ±`f64::MAX` (so that a pair of opposite signs overflows
/// when subtracted), or a small ordinary value.
fn finite(class: u64, bits: u64) -> f64 {
    let sign = bits & (1 << 63);
    let v = match class % 5 {
        // Clearing the top exponent bit of a NaN or ∞ makes it finite.
        0 if f64::from_bits(bits).is_finite() => f64::from_bits(bits),
        0 => f64::from_bits(bits & !(1 << 62)),
        1 => f64::from_bits(sign | (bits & 0x000F_FFFF_FFFF_FFFF)),
        2 => f64::from_bits(sign),
        3 => f64::from_bits(sign | (f64::MAX.to_bits() - bits % 16)),
        _ => (bits % 2001) as f64 / 1000.0 - 1.0,
    };
    assert!(v.is_finite());
    v
}

fn points(values: &[f64]) -> Vec<Point<1>> {
    values.iter().map(|&v| Point([v])).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Random finite inputs of every class, mixed within one set.
    #[test]
    fn scalar_diameter_is_the_pairwise_maximum_bit_for_bit(
        len in 0usize..12,
        classes in prop::collection::vec(any::<u64>(), 12),
        bits in prop::collection::vec(any::<u64>(), 12),
    ) {
        let values: Vec<f64> = (0..len).map(|i| finite(classes[i], bits[i])).collect();
        let pts = points(&values);
        prop_assert_eq!(diameter(&pts).to_bits(), pairwise(&pts).to_bits(), "{:?}", values);
    }

    /// Sets drawn from one class at a time, so that subnormal-only,
    /// zero-only and near-overflow-only sets all occur.
    #[test]
    fn scalar_diameter_matches_within_one_class(
        len in 2usize..8,
        class in 0u64..5,
        bits in prop::collection::vec(any::<u64>(), 8),
    ) {
        let values: Vec<f64> = (0..len).map(|i| finite(class, bits[i])).collect();
        let pts = points(&values);
        prop_assert_eq!(diameter(&pts).to_bits(), pairwise(&pts).to_bits(), "{:?}", values);
    }
}

#[test]
fn non_finite_and_degenerate_sets_match_the_pairwise_loop() {
    let neg_nan = -f64::NAN;
    let (inf, ninf) = (f64::INFINITY, f64::NEG_INFINITY);
    let cases: [&[f64]; 17] = [
        &[],
        &[0.5],
        &[f64::NAN],
        &[inf],
        &[0.0, f64::NAN, 1.0],
        &[0.0, neg_nan, 1.0],
        &[neg_nan, f64::NAN],
        &[f64::NAN, 2.0, neg_nan],
        &[inf, 1.0],
        &[ninf, 1.0],
        &[inf, inf],
        &[inf, ninf],
        &[ninf, ninf, 0.0],
        &[inf, f64::NAN],
        &[f64::MAX, -f64::MAX],
        &[-0.0, 0.0],
        &[5e-324, -5e-324, 0.0],
    ];
    for values in cases {
        let pts = points(values);
        assert_eq!(
            diameter(&pts).to_bits(),
            pairwise(&pts).to_bits(),
            "{values:?}"
        );
    }
    // The overflow case really overflows, and NaN still surfaces.
    assert_eq!(diameter(&points(&[f64::MAX, -f64::MAX])), inf);
    assert!(diameter(&points(&[0.0, f64::NAN, 1.0])).is_nan());
}
