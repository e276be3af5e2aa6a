//! Machine-readable sweep reports: a tiny, dependency-free JSON emitter
//! with byte-stable output.
//!
//! The CI `sweep-regression` job diffs this output against a checked-in
//! golden file, so stability is a contract: keys are emitted in a fixed
//! order, floats use Rust's shortest-roundtrip formatting (identical on
//! every platform), non-finite floats become `null`, and nothing
//! machine- or time-dependent (thread counts, durations) is included.

use crate::stats::{CellOutcome, Stats, SweepSummary};

/// Escapes a string for a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats a float as JSON: shortest-roundtrip decimal, `null` when not
/// finite (JSON has no NaN/Infinity).
#[must_use]
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_owned()
    }
}

fn json_stats(stats: Option<&Stats>, indent: &str) -> String {
    match stats {
        None => "null".to_owned(),
        Some(s) => format!(
            "{{\n{indent}  \"count\": {},\n{indent}  \"min\": {},\n{indent}  \"max\": {},\n{indent}  \"mean\": {},\n{indent}  \"std_dev\": {},\n{indent}  \"median\": {},\n{indent}  \"p90\": {}\n{indent}}}",
            s.count,
            json_f64(s.min),
            json_f64(s.max),
            json_f64(s.mean),
            json_f64(s.std_dev),
            json_f64(s.median),
            json_f64(s.p90),
        ),
    }
}

/// One sweep, ready to serialize: name, seed, per-cell labels/seeds/
/// outcomes, and the aggregate summary.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Report name (e.g. the grid preset that produced it).
    pub name: String,
    /// The sweep's base seed.
    pub base_seed: u64,
    /// One label per cell, in cell order.
    pub labels: Vec<String>,
    /// One seed per cell, in cell order.
    pub seeds: Vec<u64>,
    /// One outcome per cell, in cell order.
    pub outcomes: Vec<CellOutcome>,
    /// The aggregate statistics of `outcomes`.
    pub summary: SweepSummary,
    /// The `index` the JSON gives the first row: 0, except in the
    /// report of one cell re-run solo, whose rows keep their index in
    /// the full report.
    pub first_index: usize,
}

impl SweepReport {
    /// Builds a report, computing the summary from the outcomes.
    ///
    /// # Panics
    ///
    /// Panics if `labels`, `seeds` and `outcomes` disagree in length.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        base_seed: u64,
        labels: Vec<String>,
        seeds: Vec<u64>,
        outcomes: Vec<CellOutcome>,
    ) -> Self {
        assert_eq!(labels.len(), outcomes.len(), "one label per cell");
        assert_eq!(seeds.len(), outcomes.len(), "one seed per cell");
        let summary = SweepSummary::aggregate(&outcomes);
        SweepReport {
            name: name.into(),
            base_seed,
            labels,
            seeds,
            outcomes,
            summary,
            first_index: 0,
        }
    }

    /// Serializes the report as stable, 2-space-indented JSON (the
    /// `BENCH_sweep.json` format).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"name\": \"{}\",\n", json_escape(&self.name)));
        out.push_str(&format!("  \"base_seed\": {},\n", self.base_seed));
        out.push_str(&format!("  \"cells\": {},\n", self.outcomes.len()));
        let s = &self.summary;
        out.push_str("  \"summary\": {\n");
        out.push_str(&format!("    \"converged\": {},\n", s.converged));
        out.push_str(&format!("    \"failures\": {},\n", s.failures));
        out.push_str(&format!("    \"decided\": {},\n", s.decided));
        out.push_str(&format!(
            "    \"rate\": {},\n",
            json_stats(s.rate.as_ref(), "    ")
        ));
        out.push_str(&format!(
            "    \"decision_round\": {},\n",
            json_stats(s.decision_round.as_ref(), "    ")
        ));
        out.push_str(&format!(
            "    \"rounds\": {}\n",
            json_stats(s.rounds.as_ref(), "    ")
        ));
        out.push_str("  },\n");
        out.push_str("  \"cells_detail\": [\n");
        for (i, o) in self.outcomes.iter().enumerate() {
            let decision = o
                .decision_round
                .map_or("null".to_owned(), |r| r.to_string());
            out.push_str(&format!(
                "    {{\"index\": {}, \"label\": \"{}\", \"seed\": {}, \"rate\": {}, \"decision_round\": {decision}, \"rounds\": {}, \"converged\": {}, \"fingerprint\": \"{:016x}\"}}{}\n",
                self.first_index + i,
                json_escape(&self.labels[i]),
                self.seeds[i],
                json_f64(o.rate),
                o.rounds,
                o.converged,
                o.fingerprint,
                if i + 1 < self.outcomes.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> SweepReport {
        SweepReport::new(
            "unit",
            42,
            vec!["a".into(), "b\"quoted\"".into()],
            vec![1, 2],
            vec![
                CellOutcome {
                    rate: 0.5,
                    decision_round: Some(3),
                    rounds: 3,
                    converged: true,
                    fingerprint: 0xDEAD,
                },
                CellOutcome {
                    rate: f64::NAN,
                    decision_round: None,
                    rounds: 9,
                    converged: false,
                    fingerprint: 0xBEEF,
                },
            ],
        )
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let r = sample_report();
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b, "serialization is deterministic");
        assert!(a.contains("\"name\": \"unit\""));
        assert!(a.contains("b\\\"quoted\\\""));
        assert!(a.contains("\"rate\": null"), "NaN serializes as null");
        assert!(a.contains("\"fingerprint\": \"000000000000dead\""));
        assert!(a.ends_with("}\n"));
    }

    #[test]
    fn floats_roundtrip_shortest() {
        assert_eq!(json_f64(0.5), "0.5");
        assert_eq!(json_f64(1.0), "1.0");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.0 / 3.0), "0.3333333333333333");
    }

    #[test]
    fn summary_matches_outcomes() {
        let r = sample_report();
        assert_eq!(r.summary.cells, 2);
        assert_eq!(r.summary.failures, 1);
        assert_eq!(r.summary.decided, 1);
    }

    #[test]
    #[should_panic(expected = "one label per cell")]
    fn arity_is_checked() {
        let _ = SweepReport::new("x", 0, vec![], vec![1], vec![CellOutcome::of_rate(0.5, 1)]);
    }
}
