//! End-to-end tightness tests: for each theorem, the measured adversarial
//! lower bound and the matching algorithm's upper bound coincide — the
//! paper's headline claims, executed.

use tight_bounds_consensus::prelude::*;
use tight_bounds_consensus::valency::adversary::{AdversaryTrace, GreedyValencyAdversary};

/// Drives `alg` for `steps` adversary steps via the Scenario facade and
/// returns the recorded δ̂ trace.
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

fn pts(vals: &[f64]) -> Vec<Point<1>> {
    vals.iter().map(|&v| Point([v])).collect()
}

fn spread_inits(n: usize) -> Vec<Point<1>> {
    (0..n).map(|i| Point([i as f64 / (n - 1) as f64])).collect()
}

#[test]
fn theorem1_is_tight() {
    // Lower: the Thm-1 adversary holds δ̂ ≥ δ̂₀/3^t against Algorithm 1.
    let adv = adversary::theorem1();
    let lower = drive(TwoAgentThirds, &pts(&[0.0, 1.0]), &adv, 10).per_round_rate();
    // Upper: Algorithm 1's worst pattern (constant H1) contracts at 1/3.
    let [_, h1, _] = families::two_agent();
    let upper = Scenario::new(TwoAgentThirds, &pts(&[0.0, 1.0]))
        .pattern(pattern::ConstantPattern::new(h1))
        .run(20)
        .rates()
        .t_root;
    assert!((lower - 1.0 / 3.0).abs() < 1e-4, "lower = {lower}");
    assert!((upper - 1.0 / 3.0).abs() < 1e-9, "upper = {upper}");
    assert!((lower - bounds::theorem1_lower()).abs() < 1e-4);
}

#[test]
fn theorem2_is_tight_for_nonsplit() {
    for n in [3usize, 5, 7] {
        // Lower: Thm-2 adversary vs midpoint.
        let adv = adversary::theorem2(&Digraph::complete(n));
        let lower = drive(Midpoint, &spread_inits(n), &adv, 10).per_round_rate();
        // Upper: midpoint under the constant deaf graph.
        let f0 = Digraph::complete(n).make_deaf(0);
        let upper = Scenario::new(Midpoint, &spread_inits(n))
            .pattern(pattern::ConstantPattern::new(f0))
            .run(24)
            .rates()
            .t_root;
        assert!((lower - 0.5).abs() < 1e-4, "n = {n}: lower = {lower}");
        assert!((upper - 0.5).abs() < 1e-9, "n = {n}: upper = {upper}");
    }
}

#[test]
fn theorem3_is_asymptotically_tight() {
    for n in [4usize, 5, 6] {
        // Lower: σ-adversary valency shrink per macro-round ≥ 1/2,
        // i.e. ≥ (1/2)^{1/(n−2)} per round.
        let adv = adversary::theorem3(n);
        let trace = drive(AmortizedMidpoint::for_agents(n), &spread_inits(n), &adv, 8);
        assert!(
            trace.per_step_rate() >= 0.5 - 1e-3,
            "n = {n}: per-σ-block rate {}",
            trace.per_step_rate()
        );
        // Upper: the algorithm's value spread halves per n−1 rounds under
        // the adversarial pattern (aligned at macro boundaries).
        let vd = &trace.value_diameters;
        let aligned = (1..vd.len())
            .rev()
            .map(|k| (k * (n - 2), vd[k]))
            .find(|(t, _)| t % (n - 1) == 0)
            .expect("aligned boundary exists");
        let alg_rate = (aligned.1 / vd[0]).powf(1.0 / aligned.0 as f64);
        let hi = bounds::amortized_midpoint_upper(n);
        assert!(
            alg_rate <= hi + 1e-9,
            "n = {n}: algorithm rate {alg_rate} exceeds upper bound {hi}"
        );
        // Tightness gap closes as n grows: bounds within (1/2)^{1/(n-1)(n-2)}.
        let lo = bounds::theorem3_lower(n);
        assert!(hi - lo < 0.1, "n = {n}: interval [{lo}, {hi}]");
    }
}

#[test]
fn theorem5_matches_specialised_theorems() {
    // On the two-agent model, the generic Thm-5 adversary recovers the
    // Thm-1 rate; on deaf models it recovers the Thm-2 rate.
    let two = NetworkModel::two_agent();
    let r = drive(
        TwoAgentThirds,
        &pts(&[0.0, 1.0]),
        &adversary::theorem5(&two),
        10,
    )
    .per_round_rate();
    assert!((r - 1.0 / 3.0).abs() < 1e-3, "two-agent: {r}");

    let deaf = NetworkModel::deaf(&Digraph::complete(3));
    let r = drive(Midpoint, &spread_inits(3), &adversary::theorem5(&deaf), 10).per_round_rate();
    assert!((r - 0.5).abs() < 1e-3, "deaf: {r}");
}

#[test]
fn exact_solvability_gives_rate_zero() {
    // For a model where exact consensus is solvable, an algorithm can
    // reach spread 0 in finite time (contraction rate 0): the singleton
    // complete graph.
    let m = NetworkModel::singleton(Digraph::complete(5));
    assert!(beta::exact_consensus_solvable(&m));
    let mut exec = Execution::new(Midpoint, &spread_inits(5));
    exec.step(&m.graphs()[0]);
    assert_eq!(exec.value_diameter(), 0.0);
}

#[test]
fn nonconvex_algorithms_cannot_beat_theorem2() {
    for kappa in [0.2, 0.5, 0.8] {
        let adv = adversary::theorem2(&Digraph::complete(4));
        let r = drive(Overshoot::new(kappa), &spread_inits(4), &adv, 8).per_round_rate();
        assert!(r >= 0.5 - 1e-3, "κ = {kappa}: rate {r} beats the bound");
    }
}

#[test]
fn memory_cannot_beat_theorem2() {
    for w in [2usize, 4, 8] {
        let adv = adversary::theorem2(&Digraph::complete(4));
        let r = drive(WindowedMidpoint::new(w), &spread_inits(4), &adv, 8).per_round_rate();
        assert!(r >= 0.5 - 1e-3, "w = {w}: rate {r} beats the bound");
    }
}

#[test]
fn table1_bounds_are_internally_consistent() {
    // Lower ≤ upper in every interval cell; specialised = generic form.
    for n in 4..=10 {
        let (lo, hi) = bounds::table1_rooted_interval(n);
        assert!(lo <= hi);
    }
    for (n, f) in [(3usize, 1usize), (5, 2), (9, 4)] {
        let (lo, hi) = bounds::table1_async_interval(n, f);
        assert!(lo < hi);
    }
    assert_eq!(bounds::table1_nonsplit_lower(2), bounds::theorem1_lower());
    assert_eq!(bounds::table1_nonsplit_lower(9), bounds::theorem2_lower());
}
