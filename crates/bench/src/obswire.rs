//! Wiring between the bench runners and the [`consensus_obs`] tracing
//! core: report enrichment, the per-round event format of the cells,
//! and the JSONL writer the `sweep` bin's `--trace-out` flag uses.
//!
//! Everything here emits **content-class** events on deterministic
//! lanes, so a trace written with the default (timestamp-free) clock is
//! a pure function of the spec — the property the `ci/golden_trace.jsonl`
//! gate pins at two different thread counts.

use std::io::Write as _;

use consensus_obs::{lane, to_jsonl_content, to_jsonl_full, Recorder, TraceHandle};
use tight_bounds_consensus::prelude::*;

use crate::experiments::EnsembleSpec;

/// Copies a finished report's per-cell outcomes into the trace on
/// [`lane::ENRICH`] (shard = report row), so a trace file is
/// self-contained: rate, rounds, convergence and the replay fingerprint
/// travel with the spans that produced them.
///
/// Content-class and derived only from the report, so enrichment never
/// perturbs the determinism contract.
pub fn enrich_report(trace: &TraceHandle, report: &SweepReport) {
    if !trace.is_enabled() {
        return;
    }
    for (i, o) in report.outcomes.iter().enumerate() {
        let shard = i as u64;
        let Some(mut rec) = trace.recorder(shard, lane::ENRICH) else {
            return;
        };
        rec.counter("cell_rounds", shard, o.rounds);
        rec.counter("cell_converged", shard, u64::from(o.converged));
        if let Some(t) = o.decision_round {
            rec.counter("cell_decision_round", shard, t);
        }
        rec.counter("cell_fingerprint", shard, o.fingerprint);
        if o.rate.is_finite() {
            rec.gauge("cell_rate", shard, o.rate);
        }
        trace.commit(rec);
    }
}

/// Records one executed round on a cell's `(cell, lane::EXECUTOR)`
/// recorder: a `round` span around the round's `diameter` gauge `d` and
/// its `contraction` gauge `d / prev`, where `prev` is the spread before
/// the round. Contraction reads `1.0` when `prev` is 0. This is the one
/// format of round events; `ci/golden_trace.jsonl` pins it.
pub fn record_round(rec: &mut Recorder, round: u64, prev: f64, d: f64) {
    let contraction = if prev > 0.0 { d / prev } else { 1.0 };
    rec.span_begin("round", round);
    rec.gauge("diameter", round, d);
    rec.gauge("contraction", round, contraction);
    rec.span_end("round", round);
}

/// Does nothing. Kept under the name and signature of the former
/// sequential round replay, which `perfbench/` still calls after a
/// traced ensemble run: ensemble cells now record their round events
/// in-line ([`record_round`]) when their trace is enabled, so a replay
/// on top would record every round twice.
pub fn trace_rounds_ensemble(spec: &EnsembleSpec, report: &SweepReport, trace: &TraceHandle) {
    let _ = (spec, report, trace);
}

/// Writes the merged trace to `path` as JSONL: the content stream
/// (timestamp-free, profile events stripped, byte-stable across thread
/// counts) unless `timing` is set, in which case the full stream —
/// profile events and any clock timestamps included — is written.
///
/// # Errors
///
/// Propagates the underlying file-system error.
pub fn write_trace(path: &str, trace: &TraceHandle, timing: bool) -> std::io::Result<()> {
    let merged = trace.merged();
    let body = if timing {
        to_jsonl_full(&merged)
    } else {
        to_jsonl_content(&merged)
    };
    let mut f = std::fs::File::create(path)?;
    f.write_all(body.as_bytes())
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::experiments::EnsembleSpec;
    use crate::orchestrate::{run_grid, Grid, GridSpec};
    use tight_bounds_consensus::controlplane::{self, Metrics, RunConfig};

    #[test]
    fn enrichment_is_a_pure_function_of_the_report() {
        let spec = EnsembleSpec::preset("golden").expect("preset");
        let t1 = TraceHandle::enabled();
        let t2 = TraceHandle::enabled();
        let r1 = run_grid(&spec, Some(1), t1.clone());
        let r2 = run_grid(&spec, Some(4), t2.clone());
        enrich_report(&t1, &r1);
        enrich_report(&t2, &r2);
        assert_eq!(
            to_jsonl_content(&t1.merged().content()),
            to_jsonl_content(&t2.merged().content()),
            "content JSONL must be identical at any thread count"
        );
    }

    #[test]
    fn ensemble_cells_record_their_rounds_in_line_on_both_paths() {
        let spec = EnsembleSpec::preset("golden").expect("preset");
        let plain = run_grid(&spec, Some(2), TraceHandle::disabled());
        let mut streams = Vec::new();
        for threads in [1, 3] {
            let trace = TraceHandle::enabled();
            let report = run_grid(&spec, Some(threads), trace.clone());
            assert_eq!(plain.to_json(), report.to_json(), "tracing changes no row");
            let merged = trace.merged();
            for (i, o) in report.outcomes.iter().enumerate() {
                let round_events = merged
                    .events_for_span("round")
                    .into_iter()
                    .filter(|e| e.shard == i as u64)
                    .count();
                assert_eq!(
                    round_events as u64,
                    2 * o.rounds,
                    "cell {i} records exactly its reported rounds"
                );
            }
            streams.push(to_jsonl_content(&merged));
        }
        // The coordinator's in-process executor hands the cells the run's
        // trace, so its capture is the classic path's.
        let trace = TraceHandle::enabled();
        let cfg = RunConfig {
            threads: 3,
            trace: trace.clone(),
            ..RunConfig::default()
        };
        let exec = spec.traced_executor(Duration::ZERO, trace.clone());
        let out = controlplane::run(&spec.plan("golden"), &cfg, &exec, &Metrics::new())
            .expect("coordinated run");
        let report = spec.report_from_rows(out.outcome_rows().expect("complete"));
        assert_eq!(plain.to_json(), report.to_json());
        streams.push(to_jsonl_content(&trace.merged()));
        assert_eq!(streams[0], streams[1], "1 vs 3 threads");
        assert_eq!(streams[0], streams[2], "classic vs coordinated");
    }
}
