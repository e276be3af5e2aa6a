//! Golden test: the `adversary_search` quick-preset sweep is pinned
//! byte-for-byte against `ci/golden_adversary.json` (the same file the
//! CI `sweep-regression` job diffs against the `sweep` bin's
//! `--grid adversary_search --quick --json` output), and every claim of
//! the grid must hold on it:
//!
//! * **strict probes stay tight** — the Theorem 1/2 greedy valency
//!   adversaries (probes in strict mode: a truncated probe is an error,
//!   never a silent under-approximation) measure exactly their paper
//!   rates, 1/3 and 1/2, and every cell's probes converge;
//! * **pooling is invisible** — every serial/pooled cell pair
//!   (Theorem 2 candidate forks, diameter-max forks) has bit-identical
//!   rate and output fingerprint at every thread count, and the
//!   diameter maximiser over `deaf(K_16)` still measures the exact 1/2
//!   midpoint rate at `n = 16`;
//! * **beam exactness** — the full-width beam search (nothing pruned)
//!   reproduces the exhaustive rooted argmax byte-for-byte at `n = 4`,
//!   while the pruned beam at `n = 16` finds schedules contracting
//!   strictly slower than the 1/2 deaf bound.

use consensus_bench::advsearch::AdversarySpec;
use consensus_bench::orchestrate::{run_grid, Grid};
use tight_bounds_consensus::obs::TraceHandle;

/// The checked-in golden JSON (kept in `ci/` so the regression job can
/// diff it without building the test harness).
const GOLDEN: &str = include_str!("../../../ci/golden_adversary.json");

/// The quick preset's claims whose text starts with `prefix`, each
/// asserted to hold; how many there are.
fn holding(prefix: &str) -> usize {
    let spec = AdversarySpec::preset("quick").expect("quick preset");
    let claims = spec.claims(&run_grid(&spec, None, TraceHandle::disabled()));
    let mine: Vec<_> = claims
        .iter()
        .filter(|(what, _)| what.starts_with(prefix))
        .collect();
    for (what, ok) in &mine {
        assert!(ok, "claim failed: {what}");
    }
    mine.len()
}

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
    // The quick preset carries every claim family: converged probes, the
    // two serial/pooled pairs, the beam/exhaustive pair, the exact-1/2
    // diameter-max rows, the large-n beam bound, the Theorem 1/2 rates
    // and the Theorem 3 lower bound.
    let all = holding("");
    assert!(all >= 8, "expected the full claim set, got {all}");
    assert_eq!(holding("every row of `adversary_search` converged"), 1);
    assert_eq!(holding("thm3 n=5 δ̂ ≥"), 1, "the Theorem 3 row is claimed");
}

#[test]
fn diameter_max_rate_is_exactly_half_at_n16() {
    // Exact equality, not a tolerance: every per-round midpoint
    // contraction under deaf(K_16) halves the spread exactly in binary
    // floating point, and the mean of exact halves is exactly one half.
    assert_eq!(
        holding("diameter-max deaf n=16 rate = 1/2 exactly"),
        2,
        "quick preset carries the serial/pooled n=16 pair"
    );
}

#[test]
fn full_width_beam_equals_the_exhaustive_argmax() {
    assert_eq!(
        holding("beam ≡ exhaustive (n=4)"),
        1,
        "an unpruned beam must reproduce the exhaustive rooted argmax byte-for-byte"
    );
}
