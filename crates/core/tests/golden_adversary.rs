//! Golden test: the `adversary_search` quick-preset sweep is pinned
//! byte-for-byte against `ci/golden_adversary.json` (the same file the
//! CI `sweep-regression` job diffs against the `sweep` bin's
//! `--grid adversary_search --quick --json` output), and the report
//! must reproduce the grid's three structural invariants:
//!
//! * **strict probes stay tight** — the Theorem 1/2 greedy valency
//!   adversaries (probes in strict mode: a truncated probe is an error,
//!   never a silent under-approximation) measure exactly their paper
//!   rates, 1/3 and 1/2;
//! * **pooling is invisible** — every serial/pooled cell pair
//!   (Theorem 2 candidate forks, diameter-max forks) has bit-identical
//!   rate and output fingerprint at every thread count, and the
//!   diameter maximiser over `deaf(K_16)` still measures the exact 1/2
//!   midpoint rate at `n = 16`;
//! * **beam exactness** — the full-width beam search (nothing pruned)
//!   reproduces the exhaustive rooted argmax byte-for-byte at `n = 4`,
//!   while the pruned beam at `n = 16` finds schedules contracting
//!   strictly slower than the 1/2 deaf bound.

use consensus_bench::advsearch::{adversary_checks, AdvCell, AdversarySpec};
use consensus_bench::orchestrate::{run_grid, Grid};
use tight_bounds_consensus::obs::TraceHandle;

/// The checked-in golden JSON (kept in `ci/` so the regression job can
/// diff it without building the test harness).
const GOLDEN: &str = include_str!("../../../ci/golden_adversary.json");

#[test]
fn quick_preset_matches_the_golden_json() {
    let spec = AdversarySpec::preset("quick").expect("quick preset");
    let report = run_grid(&spec, Some(2), TraceHandle::disabled());
    assert_eq!(
        report.to_json(),
        GOLDEN,
        "adversary_search quick preset diverged from ci/golden_adversary.json; \
         regenerate with `cargo run --release -p consensus-bench --bin sweep -- \
         --grid adversary_search --quick --json > ci/golden_adversary.json` if \
         the change is intended"
    );
}

#[test]
fn quick_preset_is_thread_count_invariant() {
    let spec = AdversarySpec::preset("quick").expect("quick preset");
    let one = run_grid(&spec, Some(1), TraceHandle::disabled());
    let many = run_grid(&spec, Some(4), TraceHandle::disabled());
    assert_eq!(
        one.to_json(),
        many.to_json(),
        "bit-identical at any thread count"
    );
}

#[test]
fn every_cross_cell_invariant_holds() {
    let spec = AdversarySpec::preset("quick").expect("quick preset");
    let report = run_grid(&spec, None, TraceHandle::disabled());
    assert_eq!(report.summary.failures, 0, "every probe must converge");
    let checks = adversary_checks(&spec, &report);
    // The quick preset carries all five invariant families: the two
    // serial/pooled pairs, the beam/exhaustive pair, the exact-1/2
    // diameter-max rows, the large-n beam bound, and the Theorem 3
    // lower bound.
    assert!(
        checks.len() >= 8,
        "expected the full check set, got {checks:?}"
    );
    assert!(
        checks
            .iter()
            .any(|(desc, _)| desc.starts_with("thm3 n=5 δ̂ ≥")),
        "the Theorem 3 row is checked against its bound: {checks:?}"
    );
    for (desc, ok) in &checks {
        assert!(ok, "invariant failed: {desc}");
    }
}

#[test]
fn diameter_max_rate_is_exactly_half_at_n16() {
    let spec = AdversarySpec::preset("quick").expect("quick preset");
    let report = run_grid(&spec, None, TraceHandle::disabled());
    let mut seen = 0;
    for (i, cell) in spec.cells.iter().enumerate() {
        if let AdvCell::DiameterMaxDeaf { n: 16, .. } = cell {
            // Exact equality, not a tolerance: every per-round midpoint
            // contraction under deaf(K_16) halves the spread exactly in
            // binary floating point, and the mean of exact halves is
            // exactly one half.
            assert_eq!(report.outcomes[i].rate, 0.5, "cell {}", cell.label());
            seen += 1;
        }
    }
    assert_eq!(seen, 2, "quick preset carries the serial/pooled n=16 pair");
}

#[test]
fn full_width_beam_equals_the_exhaustive_argmax() {
    let spec = AdversarySpec::preset("quick").expect("quick preset");
    let report = run_grid(&spec, None, TraceHandle::disabled());
    let beam = spec
        .cells
        .iter()
        .position(|c| matches!(c, AdvCell::BeamFullWidth { n: 4, .. }))
        .expect("quick preset has the full-width beam cell");
    let exact = spec
        .cells
        .iter()
        .position(|c| matches!(c, AdvCell::Exhaustive { n: 4, .. }))
        .expect("quick preset has the exhaustive reference cell");
    assert_eq!(
        report.outcomes[beam].fingerprint, report.outcomes[exact].fingerprint,
        "an unpruned beam must reproduce the exhaustive rooted argmax byte-for-byte"
    );
    assert_eq!(
        report.outcomes[beam].rate.to_bits(),
        report.outcomes[exact].rate.to_bits()
    );
}
