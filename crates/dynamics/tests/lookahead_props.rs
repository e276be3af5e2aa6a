//! [`Execution::lookahead`] is the step it predicts: for every algorithm
//! in `consensus-algorithms`, after a few warm-up rounds, agent `i`'s
//! lookahead output under an in-mask equals, bit for bit, its output
//! after cloning the execution and stepping a graph with that in-mask.
//! The macro-round (`AmortizedMidpoint`), stateful (`WindowedMidpoint`)
//! and non-convex (`Overshoot`, `MassSplitting`) rules are covered, the
//! multidimensional rules run at `D = 2` and `D = 3`, and a test rule
//! that reads the round number and agent id pins the arguments the
//! lookahead passes to the transition.

use std::borrow::Cow;

use consensus_algorithms::{
    Algorithm, AmortizedMidpoint, Inbox, MassSplitting, MeanValue, Midpoint,
    MidpointCoordinatewise, MidpointSimplex, Overshoot, Point, QuantizedMidpoint,
    SelfWeightedAverage, TrimmedMean, TwoAgentThirds, WindowedMidpoint,
};
use consensus_digraph::Digraph;
use consensus_dynamics::Execution;
use proptest::prelude::*;

/// Moves each agent to the mean of what it hears plus a term in the
/// round number and its own id, so a lookahead that passed the wrong
/// round or agent to the transition would show.
#[derive(Debug, Clone)]
struct RoundAndAgent;

impl Algorithm<1> for RoundAndAgent {
    type State = Point<1>;
    type Msg = Point<1>;
    fn name(&self) -> Cow<'static, str> {
        "round-and-agent".into()
    }
    fn init(&self, _agent: usize, y0: Point<1>) -> Point<1> {
        y0
    }
    fn message(&self, state: &Point<1>) -> Point<1> {
        *state
    }
    fn step(&self, agent: usize, state: &mut Point<1>, inbox: Inbox<'_, Point<1>>, round: u64) {
        let sum = inbox.iter().fold(0.0, |acc, (_, p)| acc + p[0]);
        *state = Point([sum / inbox.len() as f64 + round as f64 * 1e-3 + agent as f64 * 1e-6]);
    }
    fn output(&self, state: &Point<1>) -> Point<1> {
        *state
    }
}

/// Self-looped random in-mask rows for `n` agents: dense when `sparse`
/// is all ones, about a quarter of the edges otherwise.
fn graph(n: usize, dense: &[u64], sparse: &[u64]) -> Digraph {
    let masks: Vec<u64> = (0..n).map(|i| dense[i] & sparse[i]).collect();
    Digraph::from_in_masks(&masks).expect("1 ≤ n ≤ 64")
}

/// Steps `alg` through `warm`, then compares the lookahead with a
/// cloned step under every graph of `probes`, agent by agent.
fn check<A, const D: usize>(
    alg: A,
    inits: &[Point<D>],
    warm: &[Digraph],
    probes: &[Digraph],
) -> Result<(), String>
where
    A: Algorithm<D> + Clone,
{
    let name = alg.name();
    let mut exec = Execution::new(alg, inits);
    for g in warm {
        exec.step(g);
    }
    let la = exec.lookahead();
    prop_assert_eq!(la.n(), exec.n());
    for g in probes {
        let mut fork = exec.clone();
        fork.step(g);
        for (i, want) in fork.outputs_slice().iter().enumerate() {
            let got = la.output(i, g.in_mask(i));
            prop_assert_eq!(
                got.0.map(f64::to_bits),
                want.0.map(f64::to_bits),
                "{} at D = {}, agent {}, round {}",
                name,
                D,
                i,
                exec.round() + 1
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lookahead_matches_a_cloned_step_for_every_algorithm(
        n in 2usize..13,
        warm_rounds in 1usize..6,
        dense in prop::collection::vec(any::<u64>(), 12 * 10),
        sparse in prop::collection::vec(any::<u64>(), 12 * 10),
        values in prop::collection::vec(-10.0f64..10.0, 12 * 3),
    ) {
        // Rounds 0..warm_rounds warm up; the rest are probes. Odd
        // rounds are sparse, even ones dense.
        let graphs: Vec<Digraph> = (0..10)
            .map(|r| {
                let rows = r * 12..(r + 1) * 12;
                let sparse = if r % 2 == 1 { &sparse[rows.clone()] } else { &[u64::MAX; 12][..] };
                graph(n, &dense[rows], sparse)
            })
            .collect();
        let (warm, probes) = graphs.split_at(warm_rounds);
        let at = |i: usize, d: usize| values[(i * 3 + d) % values.len()];
        let p1: Vec<Point<1>> = (0..n).map(|i| Point([at(i, 0)])).collect();
        let p2: Vec<Point<2>> = (0..n).map(|i| Point([at(i, 0), at(i, 1)])).collect();
        let p3: Vec<Point<3>> = (0..n).map(|i| Point([at(i, 0), at(i, 1), at(i, 2)])).collect();

        check(Midpoint, &p1, warm, probes)?;
        check(MeanValue, &p1, warm, probes)?;
        check(SelfWeightedAverage::new(0.25), &p1, warm, probes)?;
        check(TwoAgentThirds, &p1, warm, probes)?;
        check(AmortizedMidpoint::new(3), &p1, warm, probes)?;
        check(WindowedMidpoint::new(3), &p1, warm, probes)?;
        check(MassSplitting::new(&graphs[0]), &p1, warm, probes)?;
        check(Overshoot::new(0.4), &p1, warm, probes)?;
        check(TrimmedMean::new(1), &p1, warm, probes)?;
        check(QuantizedMidpoint::new(0.01), &p1, warm, probes)?;
        check(RoundAndAgent, &p1, warm, probes)?;

        check(MidpointCoordinatewise, &p2, warm, probes)?;
        check(MidpointSimplex, &p2, warm, probes)?;
        check(MidpointCoordinatewise, &p3, warm, probes)?;
        check(MidpointSimplex, &p3, warm, probes)?;
        check(MeanValue, &p3, warm, probes)?;
        check(WindowedMidpoint::new(2), &p2, warm, probes)?;
    }
}
