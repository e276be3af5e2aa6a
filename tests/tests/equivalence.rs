//! Equivalence suite: the zero-allocation `Inbox`-slate executor must
//! produce **bit-identical** traces to the seed semantics (per agent
//! per round, a freshly allocated buffer of cloned `(sender, message)`
//! pairs) — for every algorithm, under constant, periodic and
//! Theorem-1/2/3 adversary patterns, and under proptest-random rooted
//! graph sequences.

use proptest::prelude::*;
use tight_bounds_consensus::netmodel::sampler::{GraphSampler, RootedSampler};
use tight_bounds_consensus::prelude::*;
use tight_bounds_consensus::valency::adversary::GreedyValencyAdversary;

/// Replays `graphs` with the seed executor semantics: messages gathered
/// per round, then **cloned per agent** into a freshly allocated owned
/// inbox ([`InboxBuffer`]), exactly like the pre-`Inbox` hot path.
fn reference_outputs<A: Algorithm<1>>(
    alg: &A,
    inits: &[Point<1>],
    graphs: &[Digraph],
) -> Vec<Vec<Point<1>>> {
    let mut states: Vec<A::State> = inits
        .iter()
        .enumerate()
        .map(|(i, &y0)| alg.init(i, y0))
        .collect();
    let mut all = vec![states.iter().map(|s| alg.output(s)).collect::<Vec<_>>()];
    for (t, g) in graphs.iter().enumerate() {
        let msgs: Vec<A::Msg> = states.iter().map(|s| alg.message(s)).collect();
        for (i, state) in states.iter_mut().enumerate() {
            let pairs: Vec<(usize, A::Msg)> =
                g.in_neighbors(i).map(|j| (j, msgs[j].clone())).collect();
            let owned = InboxBuffer::from_pairs(&pairs);
            alg.step(i, state, owned.as_inbox(), (t + 1) as u64);
        }
        all.push(states.iter().map(|s| alg.output(s)).collect());
    }
    all
}

/// Runs `graphs` through the `Inbox`-slate [`Execution`] and asserts
/// bit-identical per-round outputs against the reference semantics.
fn assert_equivalent<A: Algorithm<1> + Clone>(alg: A, inits: &[Point<1>], graphs: &[Digraph]) {
    let reference = reference_outputs(&alg, inits, graphs);
    let mut exec = Execution::new(alg.clone(), inits);
    assert_eq!(exec.outputs_slice(), reference[0].as_slice());
    for (t, g) in graphs.iter().enumerate() {
        exec.step(g);
        assert_eq!(
            exec.outputs_slice(),
            reference[t + 1].as_slice(),
            "{}: outputs diverged at round {}",
            alg.name(),
            t + 1
        );
    }
}

/// Exercises one algorithm under all deterministic pattern shapes.
fn check_patterns<A: Algorithm<1> + Clone>(alg: A, n: usize) {
    let inits: Vec<Point<1>> = (0..n)
        .map(|i| Point([(i as f64 * 0.73).sin() * 3.0]))
        .collect();
    // Constant pattern (complete and deaf variants).
    let k = Digraph::complete(n);
    assert_equivalent(alg.clone(), &inits, &vec![k.clone(); 12]);
    assert_equivalent(alg.clone(), &inits, &vec![k.make_deaf(0); 12]);
    // Periodic pattern over a 3-graph cycle.
    let cycle = [
        families::cycle(n),
        families::star_out(n, n / 2),
        k.make_deaf(n - 1),
    ];
    let periodic: Vec<Digraph> = (0..12).map(|t| cycle[t % 3].clone()).collect();
    assert_equivalent(alg, &inits, &periodic);
}

/// Extracts the graph sequence an adversary plays against `alg`, then
/// replays it through the reference semantics.
fn check_adversary<A: Algorithm<1> + Clone>(alg: A, n: usize, adv: &GreedyValencyAdversary) {
    let inits: Vec<Point<1>> = (0..n)
        .map(|i| Point([i as f64 / (n - 1).max(1) as f64]))
        .collect();
    let mut sc = Scenario::new(alg.clone(), &inits).adversary(adv.driver());
    let trace = sc.run(3 * adv.block_len());
    let graphs: Vec<Digraph> = (1..=trace.rounds())
        .map(|t| trace.graph_at(t).clone())
        .collect();
    let reference = reference_outputs(&alg, &inits, &graphs);
    for (t, expected) in reference.iter().enumerate() {
        assert_eq!(
            trace.outputs_at(t),
            expected.as_slice(),
            "{}: adversary trace diverged at round {t}",
            alg.name()
        );
    }
}

#[test]
fn all_algorithms_bit_identical_under_patterns() {
    let n = 6;
    check_patterns(Midpoint, n);
    check_patterns(MeanValue, n);
    check_patterns(TwoAgentThirds, n);
    check_patterns(SelfWeightedAverage::new(0.4), n);
    check_patterns(WindowedMidpoint::new(3), n);
    check_patterns(AmortizedMidpoint::for_agents(n), n);
    check_patterns(Overshoot::new(0.35), n);
    check_patterns(TrimmedMean::new(1), n);
    check_patterns(QuantizedMidpoint::new(1.0 / 64.0), n);
}

#[test]
fn mass_splitting_bit_identical_on_fixed_graph() {
    // Mass splitting requires a fixed out-degree-known topology: drive
    // it with its own constant graph.
    let g = families::cycle(5);
    let alg = MassSplitting::new(&g);
    let inits: Vec<Point<1>> = (0..5).map(|i| Point([i as f64])).collect();
    assert_equivalent(alg, &inits, &vec![g; 20]);
}

#[test]
fn decider_bit_identical_under_patterns() {
    check_patterns(Decider::new(Midpoint, 4), 6);
}

#[test]
fn theorem1_adversary_equivalence() {
    let adv = adversary::theorem1();
    check_adversary(TwoAgentThirds, 2, &adv);
    check_adversary(Midpoint, 2, &adv);
    check_adversary(MeanValue, 2, &adv);
}

#[test]
fn theorem2_adversary_equivalence() {
    let adv = adversary::theorem2(&Digraph::complete(4));
    check_adversary(Midpoint, 4, &adv);
    check_adversary(WindowedMidpoint::new(2), 4, &adv);
    check_adversary(Overshoot::new(0.5), 4, &adv);
    check_adversary(TrimmedMean::new(1), 4, &adv);
}

#[test]
fn theorem3_adversary_equivalence() {
    let n = 5;
    let adv = adversary::theorem3(n);
    check_adversary(AmortizedMidpoint::for_agents(n), n, &adv);
    check_adversary(Midpoint, n, &adv);
}

/// Reference decision-round semantics: replay the graphs through the
/// seed executor and return the first round whose **scalar spread**
/// (`max − min`) is ≤ `eps`, or `None` within the horizon.
fn reference_scalar_decision_round<A: Algorithm<1>>(
    alg: &A,
    inits: &[Point<1>],
    graphs: &[Digraph],
    eps: f64,
) -> Option<u64> {
    let spread = |outs: &[Point<1>]| {
        let lo = outs.iter().map(|p| p[0]).fold(f64::INFINITY, f64::min);
        let hi = outs.iter().map(|p| p[0]).fold(f64::NEG_INFINITY, f64::max);
        (hi - lo).max(0.0)
    };
    reference_outputs(alg, inits, graphs)
        .iter()
        .position(|outs| spread(outs) <= eps)
        .map(|t| t as u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random rooted graph sequences, random initial values: the Inbox
    /// path and the seed gather-clone semantics never diverge by a
    /// single bit, for a memoryless and a stateful algorithm.
    #[test]
    fn random_rooted_sequences_bit_identical(
        vals in prop::collection::vec(-50.0f64..50.0, 5),
        seed in 0u64..10_000,
        density in 0.0f64..0.8,
    ) {
        use rand::SeedableRng;
        let n = vals.len();
        let inits: Vec<Point<1>> = vals.iter().map(|&v| Point([v])).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sampler = RootedSampler::new(n, density);
        let graphs: Vec<Digraph> = (0..15).map(|_| sampler.sample(&mut rng)).collect();
        assert_equivalent(Midpoint, &inits, &graphs);
        assert_equivalent(AmortizedMidpoint::for_agents(n), &inits, &graphs);
        assert_equivalent(SelfWeightedAverage::new(0.3), &inits, &graphs);
    }

    /// `Scenario::decision_round` under the new hull-diameter metric
    /// agrees with the scalar decider for `Point<1>`: across random
    /// rooted graph sequences and initial values, the decision round is
    /// identical whether the metric is implicit (the default), spelled
    /// out as `HullDiameter`, spelled out as `BoxDiameter` (all spread
    /// notions coincide in 1-D), or computed by replaying the trace
    /// through the seed semantics and scanning for the first round with
    /// scalar spread ≤ ε.
    #[test]
    fn hull_metric_decision_round_matches_scalar_decider(
        vals in prop::collection::vec(-20.0f64..20.0, 5),
        seed in 0u64..10_000,
        density in 0.0f64..0.8,
        eps_exp in 1i32..8,
    ) {
        use tight_bounds_consensus::dynamics::{BoxDiameter, HullDiameter};
        use tight_bounds_consensus::dynamics::pattern::SeqThenConstant;
        use rand::SeedableRng;

        let n = vals.len();
        let inits: Vec<Point<1>> = vals.iter().map(|&v| Point([v])).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sampler = RootedSampler::new(n, density);
        let horizon = 40;
        let graphs: Vec<Digraph> = (0..horizon).map(|_| sampler.sample(&mut rng)).collect();
        let eps = 10f64.powi(-eps_exp);

        let replay = || SeqThenConstant::new(graphs.clone(), Digraph::complete(n));
        let implicit = Scenario::new(Midpoint, &inits)
            .pattern(replay())
            .decide(eps)
            .decision_round(horizon);
        let hull = Scenario::new(Midpoint, &inits)
            .pattern(replay())
            .metric(HullDiameter)
            .decide(eps)
            .decision_round(horizon);
        let boxd = Scenario::new(Midpoint, &inits)
            .pattern(replay())
            .metric(BoxDiameter)
            .decide(eps)
            .decision_round(horizon);
        let reference = reference_scalar_decision_round(&Midpoint, &inits, &graphs, eps);

        prop_assert_eq!(implicit, reference, "default metric ≠ scalar decider");
        prop_assert_eq!(hull, reference, "hull metric ≠ scalar decider");
        prop_assert_eq!(boxd, reference, "box metric ≠ scalar decider");
    }
}
