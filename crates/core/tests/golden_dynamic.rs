//! Golden test: the `dynamic_rates` quick-preset sweep is pinned
//! byte-for-byte against `ci/golden_dynamic.json` (the same file the CI
//! `sweep-regression` job diffs against the `sweep` bin's
//! `--grid dynamic_rates --quick --json` output), and the grid's claims
//! must hold on it — the arXiv:1408.0620 headline among them:
//!
//! * **T-interval separation** — under the T-interval-connectivity
//!   adversary at fixed `n`, the measured decision times **strictly
//!   increase in T** for `T ∈ {1, 2, 4}`: spreading the rooted union
//!   over `T` rounds slows ε-agreement down;
//! * **within the tight-bounds envelope** — no adversary in the grid
//!   pushes midpoint's per-round contraction ratio above 1 on average
//!   (the spread never re-expands), and the adaptive diameter maximiser
//!   sits at the paper's 1/2 non-split bound.

use consensus_bench::experiments::{dynamic_separation, DynamicSpec};
use consensus_bench::orchestrate::{run_grid, Grid};
use tight_bounds_consensus::obs::TraceHandle;

/// The checked-in golden JSON (kept in `ci/` so the regression job can
/// diff it without building the test harness).
const GOLDEN: &str = include_str!("../../../ci/golden_dynamic.json");

/// The quick preset's claims whose text starts with `prefix`, each
/// asserted to hold; how many there are.
fn holding(prefix: &str) -> usize {
    let spec = DynamicSpec::preset("quick").expect("quick preset");
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
    let sep = dynamic_separation(&spec, &report);
    assert_eq!(
        sep.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
        vec![1, 2, 4],
        "the quick preset sweeps T ∈ {{1, 2, 4}}"
    );
    assert_eq!(holding("every row of `dynamic_rates` converged"), 1);
    assert_eq!(holding("t-interval:"), 2, "T=1 < T=2 and T=2 < T=4");
}

#[test]
fn rates_stay_within_the_tight_bounds_envelope() {
    assert_eq!(holding("every mean contraction ratio ≤ 1"), 1);
    assert_eq!(holding("diameter-max:"), 1);
}
