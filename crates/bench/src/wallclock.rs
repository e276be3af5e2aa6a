//! The one real clock in the workspace.
//!
//! Every library crate takes time through the [`consensus_obs::Clock`]
//! trait and defaults to [`consensus_obs::NullClock`] (no timestamps),
//! so library output can never depend on wall-clock time. [`WallClock`]
//! is the single place a real `std::time::Instant` feeds that trait,
//! and it lives in the bench crate on purpose: the detlint R7 rule
//! forbids `Instant`/`SystemTime` anywhere in `crates/bench` library
//! code *except this file* (bins, tests and benches stay exempt).
//!
//! Timestamps produced here are monotonic nanoseconds since the clock
//! was constructed — useful for profiling, never for content. Traces
//! written for golden comparison must use the content stream
//! ([`consensus_obs::EventStream::content`]), which strips timestamps.

use consensus_obs::Clock;
use std::time::Instant;

/// Monotonic wall clock anchored at construction.
///
/// Feeds real elapsed nanoseconds into [`consensus_obs`] recorders (the
/// `sweep` bin's `--trace-timing`). Only ever wire this into a trace
/// that is *not* golden-gated, or strip timestamps with
/// [`consensus_obs::EventStream::content`] before comparing.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// Anchors the clock at the current instant.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now_nanos(&self) -> Option<u64> {
        // `as_nanos` is u128; saturate rather than wrap if a bench
        // session somehow runs for five centuries.
        Some(u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic_and_present() {
        let c = WallClock::new();
        let a = c.now_nanos().expect("wall clock always reports");
        let b = c.now_nanos().expect("wall clock always reports");
        assert!(b >= a);
    }
}
