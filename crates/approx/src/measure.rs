//! Empirical minimal decision times against lower-bound adversaries.
//!
//! A deciding algorithm is correct only if, at its decision round, the
//! spread of outputs is ≤ ε in **every** execution. Running the base
//! algorithm under a lower-bound adversary and recording the first round
//! with spread ≤ ε therefore measures the minimal safe decision round of
//! the deciding version of that algorithm — the quantity Theorems 8–11
//! bound from below.
//!
//! These helpers are thin wrappers over the
//! [`Scenario`] builder
//! (`Scenario::new(alg, inits).adversary(adv.driver()).decide(eps)`):
//! use the builder directly when you also need the trace or the
//! adversary's `δ̂` record.

use consensus_algorithms::{Algorithm, Point};
use consensus_dynamics::{Metric, Scenario};
use consensus_valency::GreedyValencyAdversary;

/// The first round `t` at which the adversarial execution's value spread
/// drops to ≤ `eps`, or `None` if it stays above within `max_rounds`.
///
/// The adversary moves in whole blocks and the spread is checked at
/// block boundaries; for single-round blocks the answer is exact, and
/// for σ-blocks the paper's bounds are also stated per macro-round, so
/// block granularity matches the theorem statements.
#[must_use]
pub fn minimal_decision_round<A, const D: usize>(
    alg: A,
    adversary: &GreedyValencyAdversary,
    inits: &[Point<D>],
    eps: f64,
    max_rounds: usize,
) -> Option<u64>
where
    A: Algorithm<D> + Clone,
{
    Scenario::new(alg, inits)
        .adversary(adversary.driver())
        .decide(eps)
        .decision_round(max_rounds)
}

/// Like [`minimal_decision_round`], but with an explicit spread
/// [`Metric`]: the first round `t` at which `metric` over the outputs
/// drops to ≤ `eps`. The default measurement uses the hull diameter
/// (the ε-agreement notion of the multidimensional experiments,
/// arXiv:1805.04923); pass
/// [`BoxDiameter`](consensus_dynamics::BoxDiameter) to measure
/// per-coordinate agreement instead. For `D = 1` every metric agrees
/// with the scalar spread and this coincides with
/// [`minimal_decision_round`].
#[must_use]
pub fn minimal_decision_round_with<A, M, const D: usize>(
    alg: A,
    adversary: &GreedyValencyAdversary,
    inits: &[Point<D>],
    metric: M,
    eps: f64,
    max_rounds: usize,
) -> Option<u64>
where
    A: Algorithm<D> + Clone,
    M: Metric<D>,
{
    Scenario::new(alg, inits)
        .adversary(adversary.driver())
        .metric(metric)
        .decide(eps)
        .decision_round(max_rounds)
}

/// Sweeps `Δ/ε` ratios and returns `(ratio, measured_round)` pairs for
/// plotting against the closed-form bounds (the decision-time series of
/// the bench harness).
#[must_use]
pub fn decision_time_series<A, const D: usize>(
    alg: A,
    adversary: &GreedyValencyAdversary,
    inits: &[Point<D>],
    ratios: &[f64],
    max_rounds: usize,
) -> Vec<(f64, Option<u64>)>
where
    A: Algorithm<D> + Clone,
{
    let delta = consensus_algorithms::diameter(inits);
    ratios
        .iter()
        .map(|&r| {
            let eps = delta / r;
            (
                r,
                minimal_decision_round(alg.clone(), adversary, inits, eps, max_rounds),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules;
    use consensus_algorithms::{Midpoint, TwoAgentThirds};
    use consensus_digraph::Digraph;
    use consensus_valency::adversary;

    fn pts(vals: &[f64]) -> Vec<Point<1>> {
        vals.iter().map(|&v| Point([v])).collect()
    }

    #[test]
    fn midpoint_needs_log2_rounds() {
        let adv = adversary::theorem2(&Digraph::complete(3));
        for eps in [0.1, 1e-2, 1e-4] {
            let t = minimal_decision_round(Midpoint, &adv, &pts(&[0.0, 1.0, 0.5]), eps, 64)
                .expect("converges");
            assert_eq!(t, rules::midpoint_decision_round(1.0, eps), "eps = {eps}");
            assert!(
                (t as f64) >= rules::thm9_lower_bound(1.0, eps) - 1e-9,
                "Theorem 9 lower bound"
            );
        }
    }

    #[test]
    fn two_agent_needs_log3_rounds() {
        let adv = adversary::theorem1();
        for eps in [0.1, 1e-3] {
            let t = minimal_decision_round(TwoAgentThirds, &adv, &pts(&[0.0, 1.0]), eps, 64)
                .expect("converges");
            assert_eq!(t, rules::two_agent_decision_round(1.0, eps), "eps = {eps}");
            assert!((t as f64) >= rules::thm8_lower_bound(1.0, eps) - 1e-9);
        }
    }

    #[test]
    fn metric_variant_agrees_for_scalars() {
        use consensus_dynamics::{BoxDiameter, HullDiameter};
        let adv = adversary::theorem2(&Digraph::complete(3));
        let inits = pts(&[0.0, 1.0, 0.5]);
        for eps in [0.1, 1e-3] {
            let plain = minimal_decision_round(Midpoint, &adv, &inits, eps, 64);
            let hull = minimal_decision_round_with(Midpoint, &adv, &inits, HullDiameter, eps, 64);
            let boxd = minimal_decision_round_with(Midpoint, &adv, &inits, BoxDiameter, eps, 64);
            assert_eq!(plain, hull, "hull metric is the default");
            assert_eq!(plain, boxd, "metrics coincide at D = 1");
        }
    }

    #[test]
    fn already_converged_decides_immediately() {
        let adv = adversary::theorem1();
        let t = minimal_decision_round(TwoAgentThirds, &adv, &pts(&[0.4, 0.4]), 1e-3, 8);
        assert_eq!(t, Some(0));
    }

    #[test]
    fn unreachable_eps_returns_none() {
        let adv = adversary::theorem1();
        let t = minimal_decision_round(TwoAgentThirds, &adv, &pts(&[0.0, 1.0]), 1e-9, 4);
        assert_eq!(t, None);
    }

    #[test]
    fn series_is_monotone() {
        let adv = adversary::theorem2(&Digraph::complete(3));
        let series = decision_time_series(
            Midpoint,
            &adv,
            &pts(&[0.0, 1.0, 0.5]),
            &[10.0, 100.0, 1000.0],
            64,
        );
        let ts: Vec<u64> = series.iter().map(|(_, t)| t.expect("converges")).collect();
        assert!(ts[0] <= ts[1] && ts[1] <= ts[2]);
    }
}
