//! Golden test: the `multidim_decision_times` quick-preset sweep is
//! pinned byte-for-byte against `ci/golden_multidim.json` (the same
//! file the CI `sweep-regression` job diffs against the `sweep` bin's
//! `--grid multidim --quick --json` output), and the grid's separation
//! claims (arXiv:1805.04923) must hold on it:
//!
//! * `d = 1` — the two rules degenerate to the scalar midpoint, so each
//!   matched pair is **bit-identical** (same fingerprint, same decision
//!   round);
//! * `d ≥ 2` — the simplex (MidExtremes) rule decides in strictly fewer
//!   rounds on average than the coordinate-wise box-centre rule, on the
//!   *same* executions (identical inits and graph sequences per pair).

use consensus_bench::experiments::{multidim_separation, MultidimSpec};
use consensus_bench::orchestrate::{run_grid, Grid};
use tight_bounds_consensus::obs::TraceHandle;

/// The checked-in golden JSON (kept in `ci/` so the regression job can
/// diff it without building the test harness).
const GOLDEN: &str = include_str!("../../../ci/golden_multidim.json");

/// The quick preset's claims whose text starts with `prefix`, each
/// asserted to hold; how many there are.
fn holding(prefix: &str) -> usize {
    let spec = MultidimSpec::preset("quick").expect("quick preset");
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
    let spec = MultidimSpec::preset("quick").expect("quick preset");
    let report = run_grid(&spec, Some(2), TraceHandle::disabled());
    assert_eq!(
        report.to_json(),
        GOLDEN,
        "multidim_decision_times quick preset diverged from ci/golden_multidim.json; \
         regenerate with `cargo run --release -p consensus-bench --bin sweep -- \
         --grid multidim --quick --json > ci/golden_multidim.json` if the change is intended"
    );
}

#[test]
fn quick_preset_is_thread_count_invariant() {
    let spec = MultidimSpec::preset("quick").expect("quick preset");
    let one = run_grid(&spec, Some(1), TraceHandle::disabled());
    let many = run_grid(&spec, Some(4), TraceHandle::disabled());
    assert_eq!(
        one.to_json(),
        many.to_json(),
        "bit-identical at any thread count"
    );
}

#[test]
fn separation_simplex_decides_strictly_earlier_for_d_ge_2() {
    let spec = MultidimSpec::preset("quick").expect("quick preset");
    let report = run_grid(&spec, None, TraceHandle::disabled());
    assert_eq!(
        multidim_separation(&spec, &report)
            .iter()
            .map(|(d, _, _)| *d)
            .collect::<Vec<_>>(),
        vec![1, 2, 3, 8],
        "the quick preset sweeps d ∈ {{1, 2, 3, 8}}"
    );
    assert_eq!(
        holding("every row of `multidim_decision_times` converged"),
        1
    );
    assert_eq!(holding("d="), 4, "one separation claim per dimension");
}

#[test]
fn d1_pairs_are_bit_identical() {
    assert_eq!(
        holding("d=1: every coordinatewise/simplex pair is bit-identical"),
        1
    );
    let spec = MultidimSpec::preset("quick").expect("quick preset");
    let report = run_grid(&spec, None, TraceHandle::disabled());
    for i in 0..report.outcomes.len() / 2 {
        assert_eq!(
            report.seeds[2 * i],
            report.seeds[2 * i + 1],
            "matched pairs share the cell seed"
        );
    }
}
