//! In-memory aggregation over event streams: histogram percentiles and
//! a plaintext summary of span and counter totals.
//!
//! All ordering goes through [`f64::total_cmp`] and all grouping
//! through `BTreeMap`, so every summary is a deterministic function of
//! the stream.

use std::collections::BTreeMap;

use crate::event::EventKind;
use crate::trace::EventStream;

/// Percentile by the nearest-rank-on-sorted convention used across the
/// repo's stats: index `q * (len - 1)` rounded half-up.
///
/// # Panics
///
/// Panics if `sorted` is empty.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty set");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    sorted[(pos + 0.5) as usize]
}

/// A five-number-plus summary of a value set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: usize,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (p50).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Summarizes a value set (`None` when empty). Sorting uses
/// [`f64::total_cmp`], so NaNs order deterministically instead of
/// poisoning the result.
#[must_use]
pub fn summarize(values: &[f64]) -> Option<HistogramSummary> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let sum: f64 = sorted.iter().sum();
    Some(HistogramSummary {
        count: sorted.len(),
        min: sorted[0],
        max: sorted[sorted.len() - 1],
        mean: sum / sorted.len() as f64,
        p50: percentile(&sorted, 0.50),
        p90: percentile(&sorted, 0.90),
        p99: percentile(&sorted, 0.99),
    })
}

/// Renders a stream as plaintext lines in the Prometheus text style:
/// the event and dropped-event totals, then completed spans and counter
/// totals per name — a run's metrics read from its own trace.
///
/// Span counts are completed-pair counts; names iterate in `BTreeMap`
/// order, so the rendering is deterministic.
#[must_use]
pub fn render_summary(stream: &EventStream) -> String {
    let mut spans: BTreeMap<&str, u64> = BTreeMap::new();
    let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
    for e in &stream.events {
        match e.event.kind {
            EventKind::SpanEnd => *spans.entry(e.event.name).or_insert(0) += 1,
            EventKind::Counter => *counters.entry(e.event.name).or_insert(0) += e.event.value,
            EventKind::SpanBegin | EventKind::Gauge => {}
        }
    }
    let mut out = String::new();
    out.push_str(&format!("obs_events {}\n", stream.len()));
    out.push_str(&format!("obs_dropped {}\n", stream.dropped));
    for (name, n) in &spans {
        out.push_str(&format!("obs_spans{{name=\"{name}\"}} {n}\n"));
    }
    for (name, total) in &counters {
        out.push_str(&format!("obs_counter{{name=\"{name}\"}} {total}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{lane, TraceHandle};

    #[test]
    fn summarize_orders_with_total_cmp() {
        let s = summarize(&[3.0, 1.0, 2.0, f64::NAN]).expect("non-empty");
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 1.0);
        assert!(s.max.is_nan(), "NaN sorts last under total_cmp");
        assert_eq!(s.p50, 3.0, "rank 1.5 rounds half-up to index 2");
        assert_eq!(summarize(&[]), None);
    }

    #[test]
    fn percentile_of_singleton_is_the_value() {
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn percentile_picks_ranked_entries() {
        let v: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0, "4.5 rounds half-up");
        assert_eq!(percentile(&v, 0.9), 8.0, "8.1 rounds to 8");
        assert_eq!(percentile(&v, 1.0), 9.0);
    }

    #[test]
    fn summary_lines_are_deterministic_and_sorted() {
        let t = TraceHandle::enabled();
        let mut r = t.recorder(0, lane::SWEEP).expect("enabled");
        r.span_begin("cell", 0);
        r.counter("messages", 0, 5);
        r.counter("beam_candidates", 0, 2);
        r.span_end("cell", 0);
        t.commit(r);
        let text = render_summary(&t.merged());
        assert_eq!(
            text,
            "obs_events 4\nobs_dropped 0\nobs_spans{name=\"cell\"} 1\n\
             obs_counter{name=\"beam_candidates\"} 2\nobs_counter{name=\"messages\"} 5\n"
        );
    }
}
