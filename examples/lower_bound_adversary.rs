//! Watch the lower-bound adversaries of Theorems 1, 2 and 3 at work,
//! on the graphs of the paper's Figures 1 and 2.
//!
//! Each adversary is a [`Scenario`] driver: per step it forks the
//! execution into its candidate successors, estimates the valency
//! diameter `δ̂` of each (the spread of limits its probe continuations
//! can still reach), and picks the worst for the algorithm. The
//! recorded δ̂-curve decays *no faster* than the paper's bound — for
//! the optimal algorithms it matches it exactly — while the value
//! spread `Δ` follows. The measured rates and their claims are rows of
//! the `paper` grid (`sweep --grid paper`).
//!
//! Run with: `cargo run -p consensus-examples --example lower_bound_adversary`

use tight_bounds_consensus::digraph::render::{to_ascii, to_dot, RenderOptions};
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

/// Prints the δ̂ and Δ curves of `trace` beside the bound's curve
/// `δ̂₀ · bound^t`, one line per adversary step.
fn print_trace(title: &str, bound: f64, trace: &AdversaryTrace) {
    println!("{title}");
    println!("  step  rounds  δ̂ (valency)  δ̂₀·bound^t  Δ (values)");
    for (k, d) in trace.deltas.iter().enumerate() {
        let t = k * trace.block_len;
        let curve = trace.deltas[0] * bound.powi(t as i32);
        let spread = trace.value_diameters[k];
        println!("  {k:>4}  {t:>6}  {d:<12.3e}  {curve:<11.3e}  {spread:.3e}");
    }
    println!(
        "  measured per-round rate {:.4} ≥ bound {:.4} ✓\n",
        trace.per_round_rate(),
        bound
    );
    assert!(trace.per_round_rate() >= bound - 1e-4);
}

/// Figures 1 and 2: the graphs the adversaries choose from.
fn print_figures() {
    println!("== Figure 1: the rooted two-agent graphs H0, H1, H2 ==");
    for (name, g) in ["H0", "H1", "H2"].iter().zip(families::two_agent()) {
        let deaf = (0..2).find(|&i| g.is_deaf(i)).map(|i| i + 1);
        let (rooted, nonsplit) = (g.is_rooted(), g.is_nonsplit());
        println!("{name}: rooted={rooted} non-split={nonsplit} deaf-agent={deaf:?}");
        print!("{}", to_ascii(&g, &RenderOptions::named(name)));
    }
    print!(
        "DOT (paper layout):\n{}",
        to_dot(&families::two_agent()[1], &RenderOptions::named("H1"))
    );
    println!("\n== Figure 2: the rooted graphs Ψ_i for n = 6 ==");
    for i in 0..3 {
        let g = families::psi(6, i);
        println!(
            "Ψ_{} (deaf agent {}): rooted={}",
            i + 1,
            i + 1,
            g.is_rooted()
        );
        print!("{}", to_ascii(&g, &RenderOptions::default()));
    }
    println!(
        "DOT:\n{}",
        to_dot(&families::psi(6, 0), &RenderOptions::named("Psi1"))
    );
}

fn main() {
    print_figures();

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
            "amortized midpoint (σ-blocks of {} rounds; bound (1/2)^(1/{})); Δ falls \
             in steps of its {}-round macro-rounds:",
            n - 2,
            n - 2,
            n - 1
        ),
        bounds::theorem3_lower(n),
        &trace,
    );

    println!("summary: no algorithm — convex or not — escapes the bounds.");
}
