//! Per-shard bounded event recorders: the write side of the stream.
//!
//! One [`Recorder`] belongs to one logical shard (a sweep cell, a
//! valency probe, a run-level profile) on one lane, and is used from a
//! single worker thread at a time — recording is a bounds check and a
//! `Vec` push, no locks, no allocation after the ring fills. Recorders
//! are committed back to the owning
//! [`TraceHandle`](crate::TraceHandle), which merges them in
//! `(shard, lane)` order so the merged stream never depends on which
//! worker ran what, or when.

use std::sync::Arc;

use crate::clock::Clock;
use crate::event::Event;

/// An [`Event`] as it sits in the stream: its position key
/// (`shard`, `lane`, `seq`) plus the optional timing side-channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// The logical unit that produced the event (cell index, probe
    /// index, [`crate::PROFILE_SHARD`] for run-level profiles).
    pub shard: u64,
    /// Which subsystem's recorder on that shard (see [`crate::lane`]).
    pub lane: u8,
    /// Position within the recorder, in record order.
    pub seq: u32,
    /// The event itself.
    pub event: Event,
    /// Timing side-channel: the injected clock's reading at record
    /// time, if it had one. Never serialized into the content stream.
    pub t_ns: Option<u64>,
}

/// A bounded event buffer for one `(shard, lane)`.
///
/// The capacity bound makes recording safe on million-round runs: once
/// full, further events are counted in [`Recorder::dropped`] instead of
/// growing without limit.
#[derive(Clone)]
pub struct Recorder {
    shard: u64,
    lane: u8,
    clock: Arc<dyn Clock>,
    cap: usize,
    events: Vec<TimedEvent>,
    dropped: u64,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("shard", &self.shard)
            .field("lane", &self.lane)
            .field("cap", &self.cap)
            .field("len", &self.events.len())
            .field("dropped", &self.dropped)
            .finish_non_exhaustive()
    }
}

impl Recorder {
    /// A recorder for `(shard, lane)` holding at most `cap` events.
    #[must_use]
    pub fn new(shard: u64, lane: u8, cap: usize, clock: Arc<dyn Clock>) -> Self {
        Recorder {
            shard,
            lane,
            clock,
            cap: cap.max(1),
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// The shard this recorder belongs to.
    #[must_use]
    pub fn shard(&self) -> u64 {
        self.shard
    }

    /// The lane this recorder belongs to.
    #[must_use]
    pub fn lane(&self) -> u8 {
        self.lane
    }

    /// Records one event, stamping it from the injected clock. Silently
    /// counted as dropped once the capacity bound is reached.
    pub fn record(&mut self, event: Event) {
        if self.events.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        let seq = self.events.len() as u32;
        self.events.push(TimedEvent {
            shard: self.shard,
            lane: self.lane,
            seq,
            event,
            t_ns: self.clock.now_nanos(),
        });
    }

    /// Records a content-class span opening.
    pub fn span_begin(&mut self, name: &'static str, index: u64) {
        self.record(Event::span_begin(name, index));
    }

    /// Records a content-class span closing.
    pub fn span_end(&mut self, name: &'static str, index: u64) {
        self.record(Event::span_end(name, index));
    }

    /// Records a content-class counter.
    pub fn counter(&mut self, name: &'static str, index: u64, value: u64) {
        self.record(Event::counter(name, index, value));
    }

    /// Records a content-class gauge.
    pub fn gauge(&mut self, name: &'static str, index: u64, value: f64) {
        self.record(Event::gauge(name, index, value));
    }

    /// Records a profile-class counter (scheduling-dependent data).
    pub fn profile_counter(&mut self, name: &'static str, index: u64, value: u64) {
        self.record(Event::counter(name, index, value).profile());
    }

    /// Events recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events rejected by the capacity bound.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The recorded events, in record order.
    #[must_use]
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// Consumes the recorder into its events and drop count.
    #[must_use]
    pub fn into_parts(self) -> (Vec<TimedEvent>, u64) {
        (self.events, self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{NullClock, TickClock};

    #[test]
    fn records_in_order_with_seq() {
        let mut r = Recorder::new(3, 1, 16, Arc::new(NullClock));
        r.span_begin("cell", 3);
        r.counter("messages", 3, 12);
        r.span_end("cell", 3);
        assert_eq!(r.len(), 3);
        let seqs: Vec<u32> = r.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert!(r.events().iter().all(|e| e.shard == 3 && e.lane == 1));
        assert!(r.events().iter().all(|e| e.t_ns.is_none()));
    }

    #[test]
    fn capacity_bound_counts_drops() {
        let mut r = Recorder::new(0, 0, 2, Arc::new(NullClock));
        for i in 0..5 {
            r.counter("c", i, i);
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 3);
    }

    #[test]
    fn injected_clock_stamps_the_side_channel() {
        let mut r = Recorder::new(0, 0, 8, Arc::new(TickClock::new()));
        r.span_begin("round", 1);
        r.span_end("round", 1);
        let ts: Vec<Option<u64>> = r.events().iter().map(|e| e.t_ns).collect();
        assert_eq!(ts, vec![Some(0), Some(1)]);
    }
}
