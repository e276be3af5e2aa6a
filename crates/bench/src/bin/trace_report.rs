//! Renders a `--trace-out` JSONL capture as a human-readable report.
//!
//! ```text
//! cargo run --release -p consensus-bench --bin trace-report -- PATH
//!   PATH           a JSONL file written by `sweep --trace-out`
//!   --lane NAME    restrict to one lane (sweep|enrich|executor|probe|
//!                  beam|pool|control)
//! ```
//!
//! The report aggregates the stream per `(lane, name)`: span pair
//! counts (with wall-time totals when the capture was taken with
//! `--trace-timing`), counter sums, and gauge min/mean/max — e.g. the
//! per-round `contraction` gauges the cells of an ensemble capture
//! record as they run, or the `pool_worker_stolen` counters of a
//! profiled sweep.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;

use consensus_bench::tablefmt::{rate, section, Table};
use tight_bounds_consensus::obs::{parse_line, Class, EventKind, ParsedEvent};

/// The lane registry: display name per [`tight_bounds_consensus::obs::lane`]
/// constant.
const LANES: [(u8, &str); 7] = [
    (0, "sweep"),
    (1, "enrich"),
    (2, "executor"),
    (3, "probe"),
    (4, "beam"),
    (5, "pool"),
    (6, "control"),
];

fn lane_name(lane: u8) -> String {
    LANES
        .iter()
        .find(|(id, _)| *id == lane)
        .map_or_else(|| format!("lane{lane}"), |(_, n)| (*n).to_owned())
}

/// Per-`(lane, name)` aggregate of one event kind.
#[derive(Debug, Default)]
struct Agg {
    count: u64,
    sum: u64,
    gauges: Vec<f64>,
    /// Open span begins keyed by `(shard, index)` → `t_ns`, and the
    /// accumulated closed-span duration.
    open: BTreeMap<(u64, u64), Option<u64>>,
    pairs: u64,
    span_ns: u64,
    timed_pairs: u64,
}

impl Agg {
    fn feed(&mut self, e: &ParsedEvent) {
        self.count += 1;
        match e.kind {
            EventKind::Counter => self.sum += e.value,
            EventKind::Gauge => self.gauges.push(e.value_f64()),
            EventKind::SpanBegin => {
                self.open.insert((e.shard, e.index), e.t_ns);
            }
            EventKind::SpanEnd => {
                if let Some(begun) = self.open.remove(&(e.shard, e.index)) {
                    self.pairs += 1;
                    if let (Some(t0), Some(t1)) = (begun, e.t_ns) {
                        self.span_ns += t1.saturating_sub(t0);
                        self.timed_pairs += 1;
                    }
                }
            }
        }
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut lane_filter: Option<u8> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--lane" => {
                let v = it.next().expect("--lane needs a name");
                lane_filter = Some(
                    LANES
                        .iter()
                        .find(|(_, n)| n == v)
                        .map(|(id, _)| *id)
                        .unwrap_or_else(|| {
                            eprintln!("--lane: unknown lane `{v}`");
                            std::process::exit(2);
                        }),
                );
            }
            other if path.is_none() && !other.starts_with("--") => path = Some(other.to_owned()),
            other => {
                eprintln!("unknown flag `{other}` — usage: trace-report PATH [--lane NAME]");
                std::process::exit(2);
            }
        }
    }
    let path = path.unwrap_or_else(|| {
        eprintln!("usage: trace-report PATH [--lane NAME]");
        std::process::exit(2);
    });
    let body = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("failed to read {path}: {e}");
        std::process::exit(1);
    });

    let mut total = 0u64;
    let mut profile = 0u64;
    let mut malformed = 0u64;
    // Keyed by (lane, name, kind-tag) so counters and gauges sharing a
    // name stay separate rows; BTreeMap keeps the report ordering
    // deterministic.
    let mut aggs: BTreeMap<(u8, String, &'static str), Agg> = BTreeMap::new();
    for line in body.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Some(e) = parse_line(line) else {
            malformed += 1;
            continue;
        };
        if let Some(l) = lane_filter {
            if e.lane != l {
                continue;
            }
        }
        total += 1;
        if e.class == Class::Profile {
            profile += 1;
        }
        let kind = match e.kind {
            EventKind::SpanBegin | EventKind::SpanEnd => "span",
            EventKind::Counter => "counter",
            EventKind::Gauge => "gauge",
        };
        aggs.entry((e.lane, e.name.clone(), kind))
            .or_default()
            .feed(&e);
    }

    print!("{}", section(&format!("Trace report — {path}")));
    println!(
        "{total} events ({} content, {profile} profile), {malformed} malformed line(s)\n",
        total - profile,
    );
    let mut t = Table::new(&[
        "lane", "name", "kind", "count", "total", "min", "mean", "max",
    ]);
    for ((lane, name, kind), a) in &aggs {
        let (count, tot, min, avg, max) = match *kind {
            "span" => {
                let tot = if a.timed_pairs > 0 {
                    format!("{:.3}ms", a.span_ns as f64 / 1e6)
                } else {
                    "-".into()
                };
                (a.pairs.to_string(), tot, "-".into(), "-".into(), "-".into())
            }
            "counter" => (
                a.count.to_string(),
                a.sum.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
            ),
            _ => {
                let finite: Vec<f64> = a.gauges.iter().copied().filter(|x| x.is_finite()).collect();
                if finite.is_empty() {
                    (
                        a.count.to_string(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                    )
                } else {
                    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                    for &x in &finite {
                        lo = lo.min(x);
                        hi = hi.max(x);
                    }
                    (
                        a.count.to_string(),
                        "-".into(),
                        rate(lo),
                        rate(mean(&finite)),
                        rate(hi),
                    )
                }
            }
        };
        t.row(&[
            lane_name(*lane),
            name.clone(),
            (*kind).into(),
            count,
            tot,
            min,
            avg,
            max,
        ]);
    }
    print!("{}", t.render());
}
