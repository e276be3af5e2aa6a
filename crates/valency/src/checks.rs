//! Executable forms of the paper's valency lemmas.

use consensus_algorithms::{diameter, Algorithm, Point};
use consensus_dynamics::Execution;
use consensus_netmodel::NetworkModel;

use crate::probe::ProbeSet;

/// **Lemma 8**: if for every agent `i` the model contains a graph in
/// which `i` is deaf, then every initial configuration satisfies
/// `δ(C_0) = Δ(y(0))`.
///
/// Returns `(δ̂(C_0), Δ(y(0)))` computed with the deaf-continuation
/// probes; the caller asserts closeness. Requires
/// [`NetworkModel::every_agent_deaf_somewhere`].
///
/// # Panics
///
/// Panics if some agent is never deaf in the model (the lemma's
/// hypothesis).
#[must_use]
pub fn lemma8_initial_valency<A, const D: usize>(
    alg: A,
    model: &NetworkModel,
    inits: &[Point<D>],
) -> (f64, f64)
where
    A: Algorithm<D> + Clone,
{
    assert!(
        model.every_agent_deaf_somewhere(),
        "Lemma 8 needs every agent deaf in some graph of N"
    );
    let exec = Execution::new(alg, inits);
    let probes = ProbeSet::deaf_continuations(model);
    let est = probes.estimate(&exec);
    (est.diameter(), diameter(inits))
}

/// **Lemma 3 (iii)** specialised to probes: restricting the model can
/// only shrink the estimated valency diameter. Returns
/// `(δ̂_sub(C_0), δ̂_full(C_0))`.
///
/// # Panics
///
/// Panics if `sub` is not a subset of `full`.
#[must_use]
pub fn lemma3_monotonicity<A, const D: usize>(
    alg: A,
    full: &NetworkModel,
    sub: &NetworkModel,
    inits: &[Point<D>],
) -> (f64, f64)
where
    A: Algorithm<D> + Clone,
{
    assert!(
        sub.graphs().iter().all(|g| full.contains(g)),
        "sub-model must be included in the full model"
    );
    let exec = Execution::new(alg, inits);
    let d_sub = ProbeSet::constants(sub).estimate(&exec).diameter();
    let d_full = ProbeSet::constants(full).estimate(&exec).diameter();
    (d_sub, d_full)
}

/// **Lemma 7** specialised to the deaf model: the valencies of two
/// successor configurations `F_i.C` and `F_j.C` intersect (they share
/// the limit reached by making a third agent `ℓ` deaf forever).
///
/// Returns the distance between the two `F_ℓ^ω`-limits — the proof says
/// it must be ~0.
///
/// # Panics
///
/// Panics if the agents are not distinct or out of range.
#[must_use]
pub fn lemma7_intersection<A, const D: usize>(
    alg: A,
    g: &consensus_digraph::Digraph,
    inits: &[Point<D>],
    i: usize,
    j: usize,
    ell: usize,
) -> f64
where
    A: Algorithm<D> + Clone,
{
    let n = g.n();
    assert!(i < n && j < n && ell < n && i != j && ell != i && ell != j);
    let fi = g.make_deaf(i);
    let fj = g.make_deaf(j);
    let fl = g.make_deaf(ell);
    let probes = ProbeSet::new(vec![crate::probe::ProbePattern::Constant(fl)]);

    let mut ei = Execution::new(alg.clone(), inits);
    ei.step(&fi);
    let li = probes.estimate(&ei).limits[0];

    let mut ej = Execution::new(alg, inits);
    ej.step(&fj);
    let lj = probes.estimate(&ej).limits[0];

    li.dist(&lj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_algorithms::{MeanValue, Midpoint, TwoAgentThirds, WindowedMidpoint};
    use consensus_digraph::Digraph;

    fn pts(vals: &[f64]) -> Vec<Point<1>> {
        vals.iter().map(|&v| Point([v])).collect()
    }

    #[test]
    fn lemma8_holds_for_deaf_models() {
        let model = NetworkModel::deaf(&Digraph::complete(4));
        for alg_run in 0..3 {
            let inits = pts(&[0.0, 0.3, 0.9, 0.5]);
            let (dv, dy) = match alg_run {
                0 => lemma8_initial_valency(Midpoint, &model, &inits),
                1 => lemma8_initial_valency(MeanValue, &model, &inits),
                _ => lemma8_initial_valency(WindowedMidpoint::new(2), &model, &inits),
            };
            assert!((dv - dy).abs() < 1e-9, "δ(C0) = Δ(y(0)): {dv} vs {dy}");
        }
    }

    #[test]
    fn lemma8_two_agent() {
        let model = NetworkModel::two_agent();
        let (dv, dy) = lemma8_initial_valency(TwoAgentThirds, &model, &pts(&[0.25, 0.75]));
        assert!((dv - dy).abs() < 1e-9);
        assert!((dy - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lemma3_probe_monotone() {
        let full = NetworkModel::deaf(&Digraph::complete(3));
        let sub = full
            .restrict("two graphs", |g| !g.is_deaf(2))
            .expect("non-empty");
        let (d_sub, d_full) = lemma3_monotonicity(Midpoint, &full, &sub, &pts(&[0.0, 1.0, 0.5]));
        assert!(d_sub <= d_full + 1e-12, "{d_sub} ≤ {d_full}");
    }

    #[test]
    fn lemma7_valencies_intersect() {
        let g = Digraph::complete(4);
        for alg_run in 0..2 {
            let gap = match alg_run {
                0 => lemma7_intersection(Midpoint, &g, &pts(&[0.0, 1.0, 0.4, 0.8]), 0, 1, 2),
                _ => lemma7_intersection(MeanValue, &g, &pts(&[0.0, 1.0, 0.4, 0.8]), 0, 1, 2),
            };
            assert!(gap < 1e-9, "F_i.C and F_j.C share the F_ℓ^ω limit: {gap}");
        }
    }

    #[test]
    #[should_panic(expected = "Lemma 8")]
    fn lemma8_rejects_wrong_model() {
        // Ψ model: only agents 0..3 are ever deaf.
        let model = NetworkModel::psi(5);
        let _ = lemma8_initial_valency(Midpoint, &model, &pts(&[0.0, 1.0, 0.5, 0.2, 0.9]));
    }
}
