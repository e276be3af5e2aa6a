//! Determinism properties of the observability layer: tracing a run
//! must never change its result, and the *content* event stream must be
//! bit-identical at every thread count.
//!
//! These are the workspace-level counterparts of the byte-level
//! `ci/golden_trace.jsonl` gate — the golden pins two thread counts,
//! the proptests here sample the rest.

use consensus_bench::experiments::EnsembleSpec;
use consensus_bench::obswire::enrich_report;
use consensus_bench::orchestrate::{run_grid, AnySpec, Grid};
use proptest::prelude::*;
use tight_bounds_consensus::obs::{to_jsonl_content, TraceHandle};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A traced run reports the same outcomes, byte for byte, as the
    /// untraced run at the same (arbitrary) thread count.
    #[test]
    fn traced_run_equals_untraced_run(threads in 1u64..9) {
        let spec = EnsembleSpec::preset("golden").expect("golden preset");
        let threads = usize::try_from(threads).expect("small");
        let plain = run_grid(&spec, Some(threads), TraceHandle::disabled());
        let traced = run_grid(&spec, Some(threads), TraceHandle::enabled());
        prop_assert_eq!(plain.to_json(), traced.to_json());
    }

    /// The content stream (cell spans, the cells' round events,
    /// enrichment) from a single-threaded run is bit-identical to the one
    /// from an N-threaded run — scheduling may reorder execution, never
    /// the merged trace.
    #[test]
    fn content_stream_is_thread_count_invariant(threads in 2u64..9) {
        let spec = EnsembleSpec::preset("golden").expect("golden preset");
        let threads = usize::try_from(threads).expect("small");
        let t1 = TraceHandle::enabled();
        let tn = TraceHandle::enabled();
        let r1 = run_grid(&spec, Some(1), t1.clone());
        let rn = run_grid(&spec, Some(threads), tn.clone());
        enrich_report(&t1, &r1);
        enrich_report(&tn, &rn);
        prop_assert_eq!(
            to_jsonl_content(&t1.merged()),
            to_jsonl_content(&tn.merged())
        );
    }
}

/// The same two properties hold on the multidim and dynamic grids,
/// whose cells record no round events.
#[test]
fn multidim_and_dynamic_grids_trace_deterministically() {
    for grid in ["multidim", "dynamic_rates"] {
        let spec = AnySpec::resolve(grid, "golden").expect("golden preset");
        let plain = spec.run_in_process(Some(3));
        let t1 = TraceHandle::enabled();
        let tn = TraceHandle::enabled();
        let r1 = spec.run(Some(1), t1.clone());
        let rn = spec.run(Some(3), tn.clone());
        assert_eq!(plain.to_json(), rn.to_json(), "{grid}");
        enrich_report(&t1, &r1);
        enrich_report(&tn, &rn);
        assert_eq!(
            to_jsonl_content(&t1.merged()),
            to_jsonl_content(&tn.merged()),
            "{grid}"
        );
    }
}
