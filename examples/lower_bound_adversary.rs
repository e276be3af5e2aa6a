//! Watch the lower-bound adversaries of Theorems 1, 2 and 3 at work.
//!
//! Each adversary is a [`Scenario`] driver: per step it forks the
//! execution into its candidate successors, estimates the valency
//! diameter `δ̂` of each (the spread of limits its probe continuations
//! can still reach), and picks the worst for the algorithm. The
//! recorded δ̂-trace decays *no faster* than the paper's bound — for
//! the optimal algorithms it matches it exactly.
//!
//! Run with: `cargo run -p consensus-examples --example lower_bound_adversary`

use tight_bounds_consensus::prelude::*;
use tight_bounds_consensus::valency::adversary::{AdversaryTrace, GreedyValencyAdversary};

/// Runs `alg` for `steps` adversary steps and returns the δ̂ record.
fn drive<A: Algorithm<1> + Clone>(
    alg: A,
    inits: &[Point<1>],
    adv: &GreedyValencyAdversary,
    steps: usize,
) -> AdversaryTrace {
    let mut sc = Scenario::new(alg, inits).adversary(adv.driver());
    sc.advance(steps * adv.block_len());
    sc.driver().record().clone()
}

fn print_trace(title: &str, bound: f64, trace: &AdversaryTrace) {
    println!("{title}");
    println!("  step   δ̂ (valency diameter)   δ̂-ratio   bound/step");
    let per_step_bound = bound.powi(trace.block_len as i32);
    for (k, d) in trace.deltas.iter().enumerate().take(8) {
        let ratio = if k == 0 {
            String::from("  -  ")
        } else {
            format!("{:.4}", d / trace.deltas[k - 1])
        };
        println!("  {k:>4}   {d:<22.6e} {ratio:<9} {per_step_bound:.4}");
    }
    println!(
        "  measured per-round rate {:.4} ≥ bound {:.4} ✓\n",
        trace.per_round_rate(),
        bound
    );
    assert!(trace.per_round_rate() >= bound - 1e-4);
}

fn main() {
    println!("== Theorem 1: n = 2, model {{H0, H1, H2}}, vs Algorithm 1 ==");
    let adv = adversary::theorem1();
    let trace = drive(TwoAgentThirds, &[Point([0.0]), Point([1.0])], &adv, 10);
    print_trace("two-agent thirds (rate exactly 1/3):", 1.0 / 3.0, &trace);

    println!("== Theorem 2: deaf(K_4), vs midpoint ==");
    let adv = adversary::theorem2(&Digraph::complete(4));
    let inits4 = [Point([0.0]), Point([1.0]), Point([0.5]), Point([0.8])];
    let trace = drive(Midpoint, &inits4, &adv, 10);
    print_trace("midpoint (rate exactly 1/2):", 0.5, &trace);

    println!("== Theorem 2: deaf(K_4), vs a NON-CONVEX overshoot controller ==");
    let adv = adversary::theorem2(&Digraph::complete(4));
    let trace = drive(Overshoot::new(0.5), &inits4, &adv, 10);
    print_trace(
        "overshoot κ=0.5 (leaves the hull, still ≥ 1/2):",
        0.5,
        &trace,
    );

    println!("== Theorem 3: Ψ model, n = 6, vs amortized midpoint ==");
    let n = 6;
    let adv = adversary::theorem3(n);
    let inits: Vec<Point<1>> = (0..n).map(|i| Point([i as f64 / (n - 1) as f64])).collect();
    let trace = drive(AmortizedMidpoint::for_agents(n), &inits, &adv, 6);
    print_trace(
        &format!(
            "amortized midpoint (σ-blocks of {} rounds; bound (1/2)^(1/{})):",
            n - 2,
            n - 2
        ),
        bounds::theorem3_lower(n),
        &trace,
    );

    println!("summary: no algorithm — convex or not — escapes the bounds.");
}
