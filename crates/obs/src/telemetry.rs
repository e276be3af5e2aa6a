//! Round-level executor telemetry: the [`RoundTelemetry`] observer the
//! executor's observed step emits through.
//!
//! `RoundTelemetry` emits the live convergence curve as structured
//! events: per-round diameter, the contraction ratio Δ(t)/Δ(t−1), and
//! the round's message (reception) count, wrapped in `round` spans
//! whose begin/end timestamps populate the timing side-channel when a
//! real clock is injected.

use crate::recorder::Recorder;

/// A per-round event emitter wrapped around one [`Recorder`].
///
/// The executor calls [`begin_round`](RoundTelemetry::begin_round)
/// before stepping and [`end_round`](RoundTelemetry::end_round) after;
/// `stride` decimates emission for million-round runs while the
/// contraction ratio stays the exact per-round ratio (the previous
/// diameter is tracked every round, emitted or not).
#[derive(Debug, Clone)]
pub struct RoundTelemetry {
    rec: Recorder,
    prev_diameter: Option<f64>,
    stride: u64,
}

impl RoundTelemetry {
    /// Telemetry writing into `rec` (typically
    /// `trace.recorder(shard, lane::EXECUTOR)`).
    #[must_use]
    pub fn new(rec: Recorder) -> Self {
        RoundTelemetry {
            rec,
            prev_diameter: None,
            stride: 1,
        }
    }

    /// Emit events only every `stride`-th round (`0` is treated as 1).
    /// Decimation never changes *which* ratio is reported for an
    /// emitted round, only which rounds are emitted.
    #[must_use]
    pub fn stride(mut self, stride: u64) -> Self {
        self.stride = stride.max(1);
        self
    }

    /// Seeds the contraction baseline with the diameter of the initial
    /// configuration, so round 1 reports Δ(1)/Δ(0).
    #[must_use]
    pub fn initial_diameter(mut self, d0: f64) -> Self {
        self.prev_diameter = Some(d0);
        self
    }

    fn emits(&self, round: u64) -> bool {
        round.is_multiple_of(self.stride)
    }

    /// Whether the executor must measure this round: true when the
    /// round emits, or when the *next* one does (its contraction ratio
    /// divides by this round's diameter). On a decimated round where
    /// this returns `false` the executor may run its plain step and
    /// skip [`end_round`](RoundTelemetry::end_round) entirely — the
    /// baseline the next emitted ratio needs is still recorded, so
    /// every reported ratio stays the exact per-round value.
    #[must_use]
    pub fn needs_diameter(&self, round: u64) -> bool {
        self.emits(round) || self.emits(round + 1)
    }

    /// Marks the start of round `round` (timestamps the span begin).
    pub fn begin_round(&mut self, round: u64) {
        if self.emits(round) {
            self.rec.span_begin("round", round);
        }
    }

    /// Marks the end of round `round` with its resulting diameter and
    /// the number of message receptions the round performed.
    pub fn end_round(&mut self, round: u64, diameter: f64, receptions: u64) {
        if self.emits(round) {
            self.rec.gauge("diameter", round, diameter);
            if let Some(prev) = self.prev_diameter {
                if prev > 0.0 && prev.is_finite() {
                    self.rec.gauge("contraction", round, diameter / prev);
                }
            }
            self.rec.counter("messages", round, receptions);
            self.rec.span_end("round", round);
        }
        self.prev_diameter = Some(diameter);
    }

    /// Consumes the telemetry into its recorder, ready to commit.
    #[must_use]
    pub fn finish(self) -> Recorder {
        self.rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{lane, TraceHandle};

    #[test]
    fn emits_diameter_contraction_and_messages_per_round() {
        let t = TraceHandle::enabled();
        let mut tel = RoundTelemetry::new(t.recorder(0, lane::EXECUTOR).expect("enabled"))
            .initial_diameter(1.0);
        for (round, d) in [(1u64, 0.5), (2, 0.25)] {
            tel.begin_round(round);
            tel.end_round(round, d, 10);
        }
        t.commit(tel.finish());
        let s = t.merged();
        assert_eq!(s.gauge_values("diameter"), vec![0.5, 0.25]);
        assert_eq!(s.gauge_values("contraction"), vec![0.5, 0.5]);
        assert_eq!(s.counter_total("messages"), 20);
        assert_eq!(s.events_for_span("round").len(), 4);
    }

    #[test]
    fn stride_decimates_but_ratio_stays_per_round() {
        let t = TraceHandle::enabled();
        let mut tel =
            RoundTelemetry::new(t.recorder(0, lane::EXECUTOR).expect("enabled")).stride(2);
        // Diameters halve each round; only even rounds are emitted.
        let mut d = 1.0;
        for round in 1..=4u64 {
            d *= 0.5;
            tel.begin_round(round);
            tel.end_round(round, d, 1);
        }
        t.commit(tel.finish());
        let s = t.merged();
        assert_eq!(s.gauge_values("diameter"), vec![0.25, 0.0625]);
        // The ratio at an emitted round is vs the *previous round*, not
        // the previously emitted one.
        assert_eq!(s.gauge_values("contraction"), vec![0.5, 0.5]);
    }

    #[test]
    fn zero_baseline_suppresses_the_ratio() {
        let t = TraceHandle::enabled();
        let mut tel = RoundTelemetry::new(t.recorder(0, lane::EXECUTOR).expect("enabled"))
            .initial_diameter(0.0);
        tel.begin_round(1);
        tel.end_round(1, 0.0, 1);
        t.commit(tel.finish());
        assert!(t.merged().gauge_values("contraction").is_empty());
    }
}
