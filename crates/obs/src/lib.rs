//! # consensus-obs
//!
//! Deterministic structured observability for the *Tight Bounds for
//! Asymptotic and Approximate Consensus* reproduction: event tracing and
//! profiling that never violate the repo's determinism contract. The
//! events come from the code that did the work: a sweep cell records
//! its own spans, and the per-round events of its rounds, as it runs.
//!
//! The paper's claims are trajectory claims — per-round contraction
//! ratios approaching the tight 1/2 and 1/3 rates, decision-time
//! growth curves — but goldens and `Stats` only see end-of-run
//! aggregates. This crate is the layer in between: instrumented code
//! records structured [`Event`]s (spans for `round`/`cell`/`probe`/
//! `beam_generation`, counters, bit-exact f64 gauges) into bounded
//! per-shard [`Recorder`]s, and a [`TraceHandle`] merges them with a
//! deterministic `(shard, lane)`-ordered reduction.
//!
//! ## The determinism contract
//!
//! * **Content vs profile.** Every event carries a [`Class`]:
//!   [`Class::Content`] events are pure functions of the computation
//!   and merge bit-identically at every thread count (CI pins this
//!   with `ci/golden_trace.jsonl`); [`Class::Profile`] events
//!   (per-worker task/steal counts, shard imbalance) are
//!   scheduling-dependent and excluded from the content stream.
//! * **Timing is a side-channel.** Wall-clock time enters only through
//!   a caller-injected [`Clock`] — libraries default to [`NullClock`],
//!   the real clock lives in `consensus-bench` and the bins (detlint
//!   R7 enforces this). Timestamps ride next to events, are stripped
//!   by [`EventStream::content`], and are never part of fingerprints
//!   or goldens.
//!
//! ## Sinks
//!
//! * [`jsonl`] — byte-stable JSONL ([`to_jsonl_content`] /
//!   [`to_jsonl_full`]) plus the parser the `trace-report` bin uses;
//! * the in-memory query API on [`EventStream`]
//!   ([`EventStream::events_for_span`], [`EventStream::gauge_values`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod event;
pub mod jsonl;
pub mod recorder;
pub mod trace;

pub use clock::{Clock, NullClock, TickClock};
pub use event::{Class, Event, EventKind};
pub use jsonl::{parse_line, to_jsonl_content, to_jsonl_full, ParsedEvent};
pub use recorder::{Recorder, TimedEvent};
pub use trace::{lane, EventStream, TraceHandle, DEFAULT_RECORDER_CAP, PROFILE_SHARD};
