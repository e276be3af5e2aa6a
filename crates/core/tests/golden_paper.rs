//! Golden test: the `paper` grid's quick preset — every measured
//! artefact of the paper, one row per number — is pinned byte-for-byte
//! against `ci/golden_paper.json` (the file the CI `sweep-regression` job
//! diffs against `sweep --grid paper --quick --json`) at one and three
//! threads, every theorem of [`bounds::theorems`] has a measured row, and
//! every claim of the grid holds on it.

use consensus_bench::experiments::PaperSpec;
use consensus_bench::orchestrate::{run_grid, Grid};
use tight_bounds_consensus::bounds;
use tight_bounds_consensus::obs::TraceHandle;

/// The checked-in golden JSON (kept in `ci/` so the regression job can
/// diff it without building the test harness).
const GOLDEN: &str = include_str!("../../../ci/golden_paper.json");

#[test]
fn quick_preset_matches_the_golden_json_at_one_and_three_threads() {
    let spec = PaperSpec::preset("quick").expect("quick preset");
    for threads in [1, 3] {
        assert_eq!(
            run_grid(&spec, Some(threads), TraceHandle::disabled()).to_json(),
            GOLDEN,
            "paper quick preset at {threads} threads diverged from ci/golden_paper.json; \
             regenerate with `cargo run --release -p consensus-bench --bin sweep -- \
             --grid paper --quick --json > ci/golden_paper.json` if the change is intended"
        );
    }
}

#[test]
fn every_theorem_has_a_measured_row() {
    let spec = PaperSpec::preset("quick").expect("quick preset");
    let report = run_grid(&spec, None, TraceHandle::disabled());
    for t in bounds::theorems() {
        let key = format!("{} ", t.key);
        assert!(
            report.labels.iter().any(|l| l.starts_with(&key)),
            "{} ({}) has no measured row",
            t.id,
            t.key
        );
    }
    for lemma in ["lemma14 ", "lemma24 "] {
        assert!(
            report.labels.iter().any(|l| l.starts_with(lemma)),
            "{lemma}"
        );
    }
}

#[test]
fn every_claim_holds() {
    let spec = PaperSpec::preset("quick").expect("quick preset");
    let claims = spec.claims(&run_grid(&spec, None, TraceHandle::disabled()));
    // The decision rounds of Theorems 8 and 9 are pinned exactly at the
    // matching algorithms' ⌈log3(Δ/ε)⌉ and ⌈log2(Δ/ε)⌉.
    for log in ["= ⌈log3(Δ/ε)⌉", "= ⌈log2(Δ/ε)⌉"] {
        assert_eq!(
            claims.iter().filter(|(what, _)| what.contains(log)).count(),
            3
        );
    }
    assert!(claims.len() >= 80, "{} claims", claims.len());
    for (what, ok) in &claims {
        assert!(ok, "claim failed: {what}");
    }
}
