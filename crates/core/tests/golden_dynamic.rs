//! Golden test: the `dynamic_rates` quick-preset sweep is pinned
//! byte-for-byte against `ci/golden_dynamic.json` (the same file the CI
//! `sweep-regression` job diffs against the `sweep` bin's
//! `--grid dynamic_rates --quick --json` output), and the report must
//! reproduce the arXiv:1408.0620 headline:
//!
//! * **T-interval separation** — under the T-interval-connectivity
//!   adversary at fixed `n`, the measured decision times **strictly
//!   increase in T** for `T ∈ {1, 2, 4}`: spreading the rooted union
//!   over `T` rounds slows ε-agreement down;
//! * **within the tight-bounds envelope** — no adversary in the grid
//!   pushes midpoint's per-round contraction ratio above 1 on average
//!   (the spread never re-expands), and the adaptive diameter maximiser
//!   sits exactly at the paper's 1/2 non-split bound.

use consensus_bench::experiments::{dynamic_by_kind, dynamic_separation, DynamicSpec};
use consensus_bench::orchestrate::{run_grid, Grid};
use tight_bounds_consensus::obs::TraceHandle;
use tight_bounds_consensus::prelude::AdversaryKind;

/// The checked-in golden JSON (kept in `ci/` so the regression job can
/// diff it without building the test harness).
const GOLDEN: &str = include_str!("../../../ci/golden_dynamic.json");

#[test]
fn quick_preset_matches_the_golden_json() {
    let spec = DynamicSpec::preset("quick").expect("quick preset");
    let report = run_grid(&spec, Some(2), TraceHandle::disabled());
    assert_eq!(
        report.to_json(),
        GOLDEN,
        "dynamic_rates quick preset diverged from ci/golden_dynamic.json; \
         regenerate with `cargo run --release -p consensus-bench --bin sweep -- \
         --grid dynamic_rates --quick --json > ci/golden_dynamic.json` if the \
         change is intended"
    );
}

#[test]
fn quick_preset_is_thread_count_invariant() {
    let spec = DynamicSpec::preset("quick").expect("quick preset");
    let one = run_grid(&spec, Some(1), TraceHandle::disabled());
    let many = run_grid(&spec, Some(4), TraceHandle::disabled());
    assert_eq!(
        one.to_json(),
        many.to_json(),
        "bit-identical at any thread count"
    );
}

#[test]
fn decision_times_strictly_increase_in_t() {
    let spec = DynamicSpec::preset("quick").expect("quick preset");
    let report = run_grid(&spec, None, TraceHandle::disabled());
    assert_eq!(
        report.summary.failures, 0,
        "golden grid must fully converge"
    );
    let sep = dynamic_separation(&spec, &report);
    assert_eq!(
        sep.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
        vec![1, 2, 4],
        "the quick preset sweeps T ∈ {{1, 2, 4}}"
    );
    for w in sep.windows(2) {
        let a = w[0].1.as_ref().expect("T-interval cells decided");
        let b = w[1].1.as_ref().expect("T-interval cells decided");
        assert!(
            a.mean < b.mean,
            "decision time must increase strictly in T: T={} mean {} vs T={} mean {}",
            w[0].0,
            a.mean,
            w[1].0,
            b.mean
        );
    }
}

#[test]
fn rates_stay_within_the_tight_bounds_envelope() {
    let spec = DynamicSpec::preset("quick").expect("quick preset");
    let report = run_grid(&spec, None, TraceHandle::disabled());
    let rate = report.summary.rate.as_ref().expect("rates measured");
    assert!(
        rate.max <= 1.0 + 1e-12,
        "midpoint must never expand the spread on average (got {})",
        rate.max
    );
    // The adaptive diameter maximiser over deaf(K_n) reproduces the
    // Theorem-2 tight rate: exactly 1/2 per round against midpoint.
    for (kind, _, rates) in dynamic_by_kind(&spec, &report) {
        if kind == AdversaryKind::DiameterMax {
            let r = rates.expect("diameter-max cells decided");
            assert!(
                (r.mean - 0.5).abs() < 1e-9 && (r.max - 0.5).abs() < 1e-9,
                "greedy deaf choice must pin midpoint at the 1/2 bound, got mean {}",
                r.mean
            );
        }
    }
}
