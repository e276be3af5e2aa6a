//! Tracing-overhead smoke check (CI satellite of the observability
//! layer): the observed executor path must stay within 1.10× of the
//! unobserved baseline.
//!
//! Timing assertions are flaky on shared runners, so the ratio is
//! always *measured and printed* but only *asserted* when the
//! `OBS_OVERHEAD_STRICT=1` environment variable is set (the dedicated
//! CI step sets it; `cargo test` on a busy laptop does not).

use std::time::Instant;

use tight_bounds_consensus::obs::{lane, RoundTelemetry, TraceHandle};
use tight_bounds_consensus::prelude::*;

const N: usize = 2000;
const ROUNDS: usize = 200;
const REPS: usize = 5;

fn inits(n: usize) -> Vec<Point<1>> {
    (0..n).map(|i| Point([i as f64 / (n - 1) as f64])).collect()
}

/// Best-of-`REPS` wall time of `f`, in nanoseconds, after one untimed
/// warmup rep (first-touch page faults and frequency ramp-up otherwise
/// land on whichever side runs first).
fn best_of<F: FnMut() -> f64>(mut f: F) -> (u128, f64) {
    let _ = f();
    let mut best = u128::MAX;
    let mut last = 0.0;
    for _ in 0..REPS {
        let t0 = Instant::now();
        last = f();
        best = best.min(t0.elapsed().as_nanos());
    }
    (best, last)
}

#[test]
fn observed_executor_overhead_stays_small() {
    let g = CsrDigraph::ring_lattice(N, 8);
    let xs = inits(N);

    let (base_ns, d_base) = best_of(|| {
        let mut exec = Execution::new(MeanValue, &xs);
        for _ in 0..ROUNDS {
            exec.step(&g);
        }
        exec.value_diameter()
    });

    let trace = TraceHandle::enabled();
    let (obs_ns, d_obs) = best_of(|| {
        let mut exec = Execution::new(MeanValue, &xs);
        let rec = trace.recorder(0, lane::EXECUTOR).expect("trace is enabled");
        // Stride keeps the recorder under its cap across repetitions
        // while still exercising the telemetry branch every round.
        let mut tel = RoundTelemetry::new(rec).stride(16);
        for _ in 0..ROUNDS {
            exec.step_observed(&g, &mut tel);
        }
        exec.value_diameter()
    });

    assert_eq!(
        d_base.to_bits(),
        d_obs.to_bits(),
        "telemetry must not perturb the computation"
    );

    let ratio = obs_ns as f64 / base_ns as f64;
    println!("observed/unobserved executor time: {ratio:.4} ({obs_ns} ns vs {base_ns} ns)");
    if std::env::var("OBS_OVERHEAD_STRICT").as_deref() == Ok("1") {
        assert!(
            ratio <= 1.10,
            "observed executor path is {ratio:.3}x the baseline (budget 1.10x)"
        );
    }
}
