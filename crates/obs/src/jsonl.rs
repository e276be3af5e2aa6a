//! Byte-stable JSONL serialization of event streams, plus the
//! hand-rolled line parser the `trace-report` bin reads back with.
//!
//! Same contract as `consensus-sweep::report`: keys in a fixed order,
//! floats in Rust's shortest-roundtrip formatting with non-finite
//! values as `null`, and — in content mode — nothing machine- or
//! time-dependent, so the CI trace golden (`ci/golden_trace.jsonl`)
//! can diff the output byte-for-byte across thread counts.
//!
//! Gauges additionally carry their payload as a `bits` hex field: the
//! `value` field is for humans, `bits` is the authoritative bit-exact
//! round-trip channel (`f64::to_bits`).

use crate::event::{Class, EventKind};
use crate::trace::EventStream;

/// Escapes a string for a JSON string literal: quotes, backslashes and
/// control characters, nothing else. The sweep report's JSON uses it
/// too.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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

fn push_line(out: &mut String, e: &crate::recorder::TimedEvent, timing: bool) {
    out.push_str(&format!(
        "{{\"shard\":{},\"lane\":{},\"seq\":{},\"kind\":\"{}\",\"name\":\"{}\",\"index\":{}",
        e.shard,
        e.lane,
        e.seq,
        e.event.kind.tag(),
        escape(e.event.name),
        e.event.index,
    ));
    match e.event.kind {
        EventKind::Counter => out.push_str(&format!(",\"value\":{}", e.event.value)),
        EventKind::Gauge => {
            let x = e.event.value_f64();
            let human = if x.is_finite() {
                format!("{x:?}")
            } else {
                "null".to_owned()
            };
            out.push_str(&format!(
                ",\"value\":{human},\"bits\":\"{:016x}\"",
                e.event.value
            ));
        }
        EventKind::SpanBegin | EventKind::SpanEnd => {}
    }
    if e.event.class == Class::Profile {
        out.push_str(",\"class\":\"profile\"");
    }
    if timing {
        if let Some(t) = e.t_ns {
            out.push_str(&format!(",\"t_ns\":{t}"));
        }
    }
    out.push_str("}\n");
}

/// Serializes the **content** stream: content-class events only, timing
/// stripped — the byte-stable, thread-count-invariant form the CI trace
/// golden pins.
#[must_use]
pub fn to_jsonl_content(stream: &EventStream) -> String {
    let mut out = String::new();
    for e in &stream.content().events {
        push_line(&mut out, e, false);
    }
    out
}

/// Serializes the **full** stream: every event (profile class tagged)
/// with the timing side-channel included where the injected clock
/// provided one. Machine-dependent by design; never golden-gated.
#[must_use]
pub fn to_jsonl_full(stream: &EventStream) -> String {
    let mut out = String::new();
    for e in &stream.events {
        push_line(&mut out, e, true);
    }
    out
}

/// One event parsed back from a JSONL line (owned name; payload kept
/// as raw bits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedEvent {
    /// The shard field.
    pub shard: u64,
    /// The lane field.
    pub lane: u8,
    /// The seq field.
    pub seq: u32,
    /// The event kind.
    pub kind: EventKind,
    /// The determinism class (`profile` tag present or not).
    pub class: Class,
    /// The event name.
    pub name: String,
    /// The instance index.
    pub index: u64,
    /// Counter value, or gauge bits (from the `bits` field).
    pub value: u64,
    /// The timing side-channel, when serialized.
    pub t_ns: Option<u64>,
}

impl ParsedEvent {
    /// The gauge payload as an `f64` (bit-exact; garbage for counters).
    #[must_use]
    pub fn value_f64(&self) -> f64 {
        f64::from_bits(self.value)
    }
}

/// Extracts the raw text of `"key":<value>` from a single-line JSON
/// object produced by this module (values never contain unescaped `,`
/// or `}` except inside strings, which our emitter never produces).
fn raw_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .char_indices()
        .find(|&(_, c)| c == ',' || c == '}')
        .map_or(rest.len(), |(i, _)| i);
    Some(rest[..end].trim())
}

fn str_field(line: &str, key: &str) -> Option<String> {
    let raw = raw_field(line, key)?;
    let inner = raw.strip_prefix('"')?.strip_suffix('"')?;
    // Names are identifiers in practice; unescape the basics anyway.
    Some(
        inner
            .replace("\\\"", "\"")
            .replace("\\n", "\n")
            .replace("\\\\", "\\"),
    )
}

fn u64_field(line: &str, key: &str) -> Option<u64> {
    raw_field(line, key)?.parse().ok()
}

/// Parses one line written by [`to_jsonl_content`] or
/// [`to_jsonl_full`]. Returns `None` on blank or malformed lines.
#[must_use]
pub fn parse_line(line: &str) -> Option<ParsedEvent> {
    let line = line.trim();
    if line.is_empty() {
        return None;
    }
    let kind = EventKind::from_tag(&str_field(line, "kind")?)?;
    let value = match kind {
        EventKind::Counter => u64_field(line, "value").unwrap_or(0),
        EventKind::Gauge => {
            let hex = str_field(line, "bits")?;
            u64::from_str_radix(&hex, 16).ok()?
        }
        EventKind::SpanBegin | EventKind::SpanEnd => 0,
    };
    let class = if str_field(line, "class").as_deref() == Some("profile") {
        Class::Profile
    } else {
        Class::Content
    };
    Some(ParsedEvent {
        shard: u64_field(line, "shard")?,
        lane: u64_field(line, "lane")? as u8,
        seq: u64_field(line, "seq")? as u32,
        kind,
        class,
        name: str_field(line, "name")?,
        index: u64_field(line, "index")?,
        value,
        t_ns: u64_field(line, "t_ns"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TickClock;
    use crate::trace::{lane, TraceHandle};
    use std::sync::Arc;

    fn sample() -> EventStream {
        let t = TraceHandle::enabled_with(64, Arc::new(TickClock::new()));
        let mut r = t.recorder(1, lane::SWEEP).expect("enabled");
        r.span_begin("cell", 1);
        r.counter("messages", 1, 42);
        r.gauge("diameter", 1, 1.0 / 3.0);
        r.profile_counter("steals", 0, 2);
        r.span_end("cell", 1);
        t.commit(r);
        t.merged()
    }

    #[test]
    fn content_jsonl_is_byte_stable_and_untimed() {
        let s = sample();
        let a = to_jsonl_content(&s);
        let b = to_jsonl_content(&s);
        assert_eq!(a, b);
        assert!(!a.contains("t_ns"), "{a}");
        assert!(!a.contains("profile"), "{a}");
        assert!(a.contains("\"kind\":\"span_begin\""));
        assert!(a.contains("\"bits\":\"3fd5555555555555\""));
        assert!(a.lines().count() == 4, "{a}");
    }

    #[test]
    fn full_jsonl_carries_timing_and_class() {
        let s = sample();
        let full = to_jsonl_full(&s);
        assert!(full.contains("\"t_ns\":0"), "{full}");
        assert!(full.contains("\"class\":\"profile\""), "{full}");
        assert_eq!(full.lines().count(), 5);
    }

    #[test]
    fn parse_roundtrips_every_line() {
        let s = sample();
        for (line, want) in to_jsonl_full(&s).lines().zip(&s.events) {
            let p = parse_line(line).expect("parses");
            assert_eq!(p.shard, want.shard);
            assert_eq!(p.lane, want.lane);
            assert_eq!(p.seq, want.seq);
            assert_eq!(p.kind, want.event.kind);
            assert_eq!(p.class, want.event.class);
            assert_eq!(p.name, want.event.name);
            assert_eq!(p.index, want.event.index);
            assert_eq!(p.value, want.event.value);
            assert_eq!(p.t_ns, want.t_ns);
        }
    }

    #[test]
    fn gauge_bits_roundtrip_even_for_non_finite() {
        let t = TraceHandle::enabled();
        let mut r = t.recorder(0, 0).expect("enabled");
        r.gauge("g", 0, f64::INFINITY);
        t.commit(r);
        let s = t.merged();
        let text = to_jsonl_content(&s);
        assert!(text.contains("\"value\":null"), "{text}");
        let p = parse_line(text.lines().next().unwrap()).expect("parses");
        assert_eq!(p.value_f64(), f64::INFINITY);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert_eq!(parse_line(""), None);
        assert_eq!(parse_line("{\"shard\":0}"), None);
        assert_eq!(parse_line("not json"), None);
    }
}
