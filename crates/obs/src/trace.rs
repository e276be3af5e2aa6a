//! The [`TraceHandle`]: the shared, cheaply-cloneable entry point that
//! instrumented layers thread through, and the merged [`EventStream`]
//! it produces.
//!
//! A disabled handle (the default) is a single `Option` check on every
//! instrumentation site — `recorder()` returns `None` and the
//! instrumented code takes its untraced path. An enabled handle hands
//! out one bounded [`Recorder`] per `(shard, lane)`; workers record
//! into it privately and commit it back when their unit of work
//! completes. [`TraceHandle::merged`] then sorts the committed
//! recorders by `(shard, lane)` — **never** by commit order — so the
//! merged content stream is bit-identical at every thread count.

use std::sync::{Arc, Mutex};

use crate::clock::{Clock, NullClock};
use crate::event::Class;
use crate::recorder::{Recorder, TimedEvent};

/// The shard used by run-level profile recorders (pool worker stats);
/// `u64::MAX` so they sort after every real cell/probe shard.
pub const PROFILE_SHARD: u64 = u64::MAX;

/// Default per-recorder capacity bound.
pub const DEFAULT_RECORDER_CAP: usize = 1 << 16;

/// Lane constants: which subsystem's recorder occupies a shard.
///
/// The merge key is `(shard, lane)`, so two subsystems may both record
/// against the same logical shard (a sweep cell span on
/// [`lane::SWEEP`], the bench layer's outcome gauges on
/// [`lane::ENRICH`]) without their event order depending on timing.
/// The caller's contract is that at most one recorder is committed per
/// `(shard, lane)` pair.
pub mod lane {
    /// Sweep-harness cell spans.
    pub const SWEEP: u8 = 0;
    /// Bench-layer per-cell outcome enrichment.
    pub const ENRICH: u8 = 1;
    /// Per-round events of a cell's executed rounds.
    pub const EXECUTOR: u8 = 2;
    /// Valency probe spans.
    pub const PROBE: u8 = 3;
    /// Beam-search generation spans.
    pub const BEAM: u8 = 4;
    /// Pool worker profiles (profile class).
    pub const POOL: u8 = 5;
    /// Control-plane coordinator spans (profile class).
    pub const CONTROL: u8 = 6;
}

struct Shared {
    clock: Arc<dyn Clock>,
    cap: usize,
    committed: Mutex<Vec<Recorder>>,
}

/// A cloneable handle onto one trace; see the module docs.
///
/// All clones share the same committed-recorder store, so a handle can
/// be threaded by value through builders ([`Sweep::trace`],
/// `ProbeSet::trace`, `BeamSearch::trace` — see those crates) while the
/// caller keeps a clone to merge at the end.
///
/// [`Sweep::trace`]: https://docs.rs/consensus-sweep
#[derive(Clone, Default)]
pub struct TraceHandle {
    inner: Option<Arc<Shared>>,
}

// The handle is panic-safe by construction: the only interior
// mutability is the committed-recorder Mutex, which poisons on panic,
// and clocks are stateless or atomic. Spell that out so holders (e.g.
// a traced `Sweep`) stay usable under `catch_unwind`.
impl std::panic::UnwindSafe for TraceHandle {}
impl std::panic::RefUnwindSafe for TraceHandle {}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("TraceHandle(disabled)"),
            Some(s) => write!(
                f,
                "TraceHandle(enabled, {} recorders committed)",
                s.committed.lock().map_or(0, |c| c.len())
            ),
        }
    }
}

impl TraceHandle {
    /// The inert handle: every `recorder()` call returns `None`.
    #[must_use]
    pub fn disabled() -> Self {
        TraceHandle { inner: None }
    }

    /// An enabled handle with the default capacity and the
    /// deterministic [`NullClock`] (no timing side-channel).
    #[must_use]
    pub fn enabled() -> Self {
        TraceHandle::enabled_with(DEFAULT_RECORDER_CAP, Arc::new(NullClock))
    }

    /// An enabled handle with an explicit per-recorder capacity and an
    /// injected clock (the only way wall time ever enters a trace).
    #[must_use]
    pub fn enabled_with(cap: usize, clock: Arc<dyn Clock>) -> Self {
        TraceHandle {
            inner: Some(Arc::new(Shared {
                clock,
                cap,
                committed: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether this handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A fresh recorder for `(shard, lane)`, or `None` when disabled.
    /// The caller must [`commit`](TraceHandle::commit) it when the unit
    /// of work completes, and must not hand out two recorders for the
    /// same `(shard, lane)`.
    #[must_use]
    pub fn recorder(&self, shard: u64, lane: u8) -> Option<Recorder> {
        self.inner
            .as_ref()
            .map(|s| Recorder::new(shard, lane, s.cap, Arc::clone(&s.clock)))
    }

    /// Commits a completed recorder into the shared store. May be
    /// called from any worker thread; commit order never affects the
    /// merged stream. A recorder committed to a disabled handle is
    /// silently discarded.
    pub fn commit(&self, rec: Recorder) {
        if let Some(s) = &self.inner {
            s.committed.lock().expect("trace store poisoned").push(rec);
        }
    }

    /// The injected clock ([`NullClock`] when disabled) — what the
    /// instrumented layers use to time work without reading wall
    /// clocks themselves.
    #[must_use]
    pub fn clock(&self) -> Arc<dyn Clock> {
        match &self.inner {
            Some(s) => Arc::clone(&s.clock),
            None => Arc::new(NullClock),
        }
    }

    /// Merges every committed recorder into one stream, ordered by
    /// `(shard, lane, seq)` — a deterministic, index-ordered reduction
    /// that erases scheduling: the same computation commits the same
    /// recorders, so the merged **content** stream is bit-identical at
    /// any thread count. Non-destructive; recorders stay committed.
    #[must_use]
    pub fn merged(&self) -> EventStream {
        let Some(s) = &self.inner else {
            return EventStream::default();
        };
        let committed = s.committed.lock().expect("trace store poisoned");
        let mut recs: Vec<&Recorder> = committed.iter().collect();
        recs.sort_by_key(|r| (r.shard(), r.lane()));
        let mut events = Vec::with_capacity(recs.iter().map(|r| r.len()).sum());
        let mut dropped = 0;
        for r in recs {
            events.extend_from_slice(r.events());
            dropped += r.dropped();
        }
        EventStream { events, dropped }
    }
}

/// A merged, ordered event stream: the read side of a trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventStream {
    /// Events in `(shard, lane, seq)` order.
    pub events: Vec<TimedEvent>,
    /// Total events rejected by recorder capacity bounds.
    pub dropped: u64,
}

impl EventStream {
    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the stream is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The deterministic subset: content-class events with the timing
    /// side-channel stripped. Two runs of the same computation produce
    /// equal `content()` streams regardless of thread count or clock.
    ///
    /// `seq` is renumbered per `(shard, lane)` over the surviving
    /// events: whether a profile-class event (say, a pool steal count
    /// only emitted on multi-worker runs) occupied a slot in the
    /// original recorder must not leak into the content stream.
    #[must_use]
    pub fn content(&self) -> EventStream {
        let mut next: std::collections::BTreeMap<(u64, u8), u32> =
            std::collections::BTreeMap::new();
        EventStream {
            events: self
                .events
                .iter()
                .filter(|e| e.event.class == Class::Content)
                .map(|e| {
                    let seq = next.entry((e.shard, e.lane)).or_insert(0);
                    let renumbered = TimedEvent {
                        t_ns: None,
                        seq: *seq,
                        ..*e
                    };
                    *seq += 1;
                    renumbered
                })
                .collect(),
            dropped: self.dropped,
        }
    }

    /// Every span-boundary event with the given name, in stream order.
    #[must_use]
    pub fn events_for_span(&self, name: &str) -> Vec<&TimedEvent> {
        self.events
            .iter()
            .filter(|e| {
                e.event.name == name
                    && matches!(
                        e.event.kind,
                        crate::EventKind::SpanBegin | crate::EventKind::SpanEnd
                    )
            })
            .collect()
    }

    /// The sum of every counter with the given name.
    #[must_use]
    pub fn counter_total(&self, name: &str) -> u64 {
        self.events
            .iter()
            .filter(|e| e.event.kind == crate::EventKind::Counter && e.event.name == name)
            .map(|e| e.event.value)
            .sum()
    }

    /// Every gauge value with the given name, in stream order.
    #[must_use]
    pub fn gauge_values(&self, name: &str) -> Vec<f64> {
        self.events
            .iter()
            .filter(|e| e.event.kind == crate::EventKind::Gauge && e.event.name == name)
            .map(|e| e.event.value_f64())
            .collect()
    }

    /// Durations of completed spans with the given name, from the
    /// timing side-channel: one entry per begin/end pair on the same
    /// `(shard, lane, index)`, in end order. Pairs without timestamps
    /// are skipped (the [`NullClock`] case).
    #[must_use]
    pub fn span_durations_ns(&self, name: &str) -> Vec<u64> {
        use std::collections::BTreeMap;
        let mut open: BTreeMap<(u64, u8, u64), u64> = BTreeMap::new();
        let mut out = Vec::new();
        for e in &self.events {
            if e.event.name != name {
                continue;
            }
            let key = (e.shard, e.lane, e.event.index);
            match e.event.kind {
                crate::EventKind::SpanBegin => {
                    if let Some(t) = e.t_ns {
                        open.insert(key, t);
                    }
                }
                crate::EventKind::SpanEnd => {
                    if let (Some(t1), Some(t0)) = (e.t_ns, open.remove(&key)) {
                        out.push(t1.saturating_sub(t0));
                    }
                }
                _ => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TickClock;

    #[test]
    fn disabled_handle_is_inert() {
        let t = TraceHandle::disabled();
        assert!(!t.is_enabled());
        assert!(t.recorder(0, 0).is_none());
        assert!(t.merged().is_empty());
        assert_eq!(t.clock().now_nanos(), None);
    }

    #[test]
    fn merge_orders_by_shard_and_lane_not_commit_order() {
        let t = TraceHandle::enabled();
        let mut late = t.recorder(5, lane::SWEEP).expect("enabled");
        late.span_begin("cell", 5);
        let mut early = t.recorder(1, lane::SWEEP).expect("enabled");
        early.span_begin("cell", 1);
        let mut enrich = t.recorder(1, lane::ENRICH).expect("enabled");
        enrich.gauge("rate", 1, 0.5);
        // Commit deliberately out of order.
        t.commit(late);
        t.commit(enrich);
        t.commit(early);
        let s = t.merged();
        let keys: Vec<(u64, u8)> = s.events.iter().map(|e| (e.shard, e.lane)).collect();
        assert_eq!(keys, vec![(1, 0), (1, 1), (5, 0)]);
    }

    #[test]
    fn content_strips_profile_and_timing() {
        let t = TraceHandle::enabled_with(64, Arc::new(TickClock::new()));
        let mut r = t.recorder(0, lane::POOL).expect("enabled");
        r.counter("messages", 0, 9);
        r.profile_counter("steals", 0, 2);
        t.commit(r);
        let s = t.merged();
        assert_eq!(s.len(), 2);
        assert!(s.events.iter().any(|e| e.t_ns.is_some()));
        let c = s.content();
        assert_eq!(c.len(), 1);
        assert_eq!(c.events[0].event.name, "messages");
        assert!(c.events.iter().all(|e| e.t_ns.is_none()));
    }

    #[test]
    fn query_api_finds_spans_counters_gauges() {
        let t = TraceHandle::enabled_with(64, Arc::new(TickClock::new()));
        let mut r = t.recorder(2, lane::EXECUTOR).expect("enabled");
        r.span_begin("round", 1);
        r.counter("messages", 1, 4);
        r.gauge("diameter", 1, 0.25);
        r.span_end("round", 1);
        r.span_begin("round", 2);
        r.counter("messages", 2, 4);
        r.span_end("round", 2);
        t.commit(r);
        let s = t.merged();
        assert_eq!(s.events_for_span("round").len(), 4);
        assert_eq!(s.counter_total("messages"), 8);
        assert_eq!(s.gauge_values("diameter"), vec![0.25]);
        assert_eq!(s.span_durations_ns("round").len(), 2);
        assert_eq!(s.span_durations_ns("round")[0], 3, "ticks 0..=3");
    }

    #[test]
    fn clones_share_the_store() {
        let t = TraceHandle::enabled();
        let t2 = t.clone();
        let mut r = t2.recorder(0, 0).expect("enabled");
        r.counter("c", 0, 1);
        t2.commit(r);
        assert_eq!(t.merged().len(), 1);
    }
}
