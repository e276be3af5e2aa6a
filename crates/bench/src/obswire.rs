//! Wiring between the bench runners and the [`consensus_obs`] tracing
//! core: trace levels, report enrichment, round-level replay, and the
//! JSONL writer the `sweep` bin's `--trace-out` flag uses.
//!
//! Everything here emits **content-class** events on deterministic
//! lanes, so a trace written with the default (timestamp-free) clock is
//! a pure function of the spec — the property the `ci/golden_trace.jsonl`
//! gate pins at two different thread counts.

use std::io::Write as _;

use consensus_obs::{lane, to_jsonl_content, to_jsonl_full, TraceHandle};
use tight_bounds_consensus::algorithms::diameter;
use tight_bounds_consensus::prelude::*;

use crate::experiments::EnsembleSpec;

/// Granularity of a `sweep --trace-out` capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceLevel {
    /// Per-cell spans, pool profile, and report enrichment (cheap; the
    /// default). Works on every grid.
    Span,
    /// Everything `Span` captures **plus** a sequential per-cell
    /// round replay emitting per-round diameter and contraction on
    /// [`lane::EXECUTOR`]. Only the ensemble grid's in-process path
    /// replays rounds; the `sweep` bin rejects this level for any other
    /// grid and for the coordinated path.
    Round,
}

impl TraceLevel {
    /// Parses a CLI value (`span` or `round`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "span" => Some(Self::Span),
            "round" => Some(Self::Round),
            _ => None,
        }
    }
}

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

/// Sequentially replays every ensemble cell for exactly the rounds its
/// report row executed, emitting a `round` span with `diameter` and
/// `contraction` gauges per round on `(cell, lane::EXECUTOR)`.
///
/// The replay reconstructs each cell from its seed (the same
/// derivation [`crate::orchestrate::run_grid`] uses), so it never
/// touches the reported outcomes — it is a read-only magnification of
/// a run that already happened. Sequential by construction, hence
/// thread-count invariant.
pub fn trace_rounds_ensemble(spec: &EnsembleSpec, report: &SweepReport, trace: &TraceHandle) {
    if !trace.is_enabled() {
        return;
    }
    let sweep = Sweep::new(spec.grid.cells()).seed(spec.base_seed);
    assert_eq!(
        sweep.len(),
        report.outcomes.len(),
        "report rows must match the spec grid"
    );
    for (i, cell) in sweep.cells().iter().enumerate() {
        let ctx = CellCtx {
            index: i,
            seed: sweep.seed_of(i),
        };
        let Some(mut rec) = trace.recorder(i as u64, lane::EXECUTOR) else {
            return;
        };
        let inits = cell.inits(&mut ctx.rng());
        let mut sc = Scenario::new(SelfWeightedAverage::new(cell.param), &inits)
            .pattern(cell.pattern(ctx.subseed(1)))
            .decide(spec.tol);
        let mut prev = diameter(&inits);
        for r in 1..=report.outcomes[i].rounds {
            if sc.advance(1) == 0 {
                break;
            }
            let d = sc.execution().value_diameter();
            rec.span_begin("round", r);
            rec.gauge("diameter", r, d);
            rec.gauge("contraction", r, if prev > 0.0 { d / prev } else { 1.0 });
            rec.span_end("round", r);
            prev = d;
        }
        trace.commit(rec);
    }
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
    use super::*;
    use crate::experiments::EnsembleSpec;
    use crate::orchestrate::{run_grid, Grid};

    #[test]
    fn trace_level_parses_cli_values() {
        assert_eq!(TraceLevel::parse("span"), Some(TraceLevel::Span));
        assert_eq!(TraceLevel::parse("round"), Some(TraceLevel::Round));
        assert_eq!(TraceLevel::parse("ROUND"), None);
    }

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
    fn round_replay_matches_reported_rounds_and_never_alters_the_report() {
        let spec = EnsembleSpec::preset("golden").expect("preset");
        let plain = run_grid(&spec, Some(2), TraceHandle::disabled());
        let trace = TraceHandle::enabled();
        let traced = run_grid(&spec, Some(2), trace.clone());
        assert_eq!(plain.to_json(), traced.to_json());
        trace_rounds_ensemble(&spec, &traced, &trace);
        let merged = trace.merged();
        for (i, o) in traced.outcomes.iter().enumerate() {
            let span_events = merged
                .events_for_span("round")
                .into_iter()
                .filter(|e| e.shard == i as u64)
                .count();
            assert_eq!(
                span_events as u64,
                2 * o.rounds,
                "cell {i} must replay exactly its reported rounds"
            );
        }
        // The replay itself is sequential, so a second replay at any
        // thread count produces identical bytes.
        let again = TraceHandle::enabled();
        trace_rounds_ensemble(&spec, &traced, &again);
        let lhs = merged.content();
        let rhs = again.merged().content();
        assert_eq!(lhs.events_for_span("round"), rhs.events_for_span("round"));
    }
}
