//! Recorded executions and contraction-rate estimation.
//!
//! The paper defines the contraction rate of an algorithm as
//! `sup_E limsup_{t→∞} (δ(C_t))^{1/t}` (§3), where `δ` is the valency
//! diameter. Along the worst-case executions constructed by the proofs,
//! the *value* spread `Δ(y(t))` contracts geometrically at the same rate,
//! so a [`Trace`] records outputs per round and offers several rate
//! estimators; the valency-diameter variant lives in `consensus-valency`.

use consensus_algorithms::float::det_max;
use consensus_algorithms::{diameter, HullPlanes, Point};
use consensus_digraph::Digraph;

/// A recorded execution: the output vectors of rounds `0..=T` and the
/// communication graphs of rounds `1..=T`.
#[derive(Debug, Clone)]
pub struct Trace<const D: usize> {
    outputs: Vec<Vec<Point<D>>>,
    graphs: Vec<Digraph>,
}

/// Contraction-rate estimates extracted from a trace; see
/// [`Trace::rates`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateEstimate {
    /// `(Δ(y(T)) / Δ(y(0)))^{1/T}` — the direct analogue of the paper's
    /// `t`-th-root definition over the recorded horizon.
    pub t_root: f64,
    /// The geometric mean of per-round ratios over the second half of the
    /// trace (discards transients; robust for amortized algorithms).
    pub steady_state: f64,
    /// The worst (largest) single-round ratio observed.
    pub worst_round: f64,
}

impl<const D: usize> Trace<D> {
    /// Starts a trace at the given initial configuration (round 0).
    #[must_use]
    pub fn new(initial_outputs: Vec<Point<D>>) -> Self {
        Trace {
            outputs: vec![initial_outputs],
            graphs: Vec::new(),
        }
    }

    /// Records one completed round.
    pub fn record(&mut self, graph: Digraph, outputs: Vec<Point<D>>) {
        self.graphs.push(graph);
        self.outputs.push(outputs);
    }

    /// The number of recorded rounds `T`.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.graphs.len()
    }

    /// The output vector after round `t` (`t = 0` is the initial
    /// configuration).
    ///
    /// # Panics
    ///
    /// Panics if `t > rounds()`.
    #[must_use]
    pub fn outputs_at(&self, t: usize) -> &[Point<D>] {
        &self.outputs[t]
    }

    /// The communication graph of round `t ∈ 1..=rounds()`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn graph_at(&self, t: usize) -> &Digraph {
        assert!(t >= 1, "rounds are 1-based");
        &self.graphs[t - 1]
    }

    /// The value spread `Δ(y(t))` for every `t ∈ 0..=rounds()`.
    #[must_use]
    pub fn diameters(&self) -> Vec<f64> {
        self.outputs.iter().map(|o| diameter(o)).collect()
    }

    /// `Δ(y(0))`.
    #[must_use]
    pub fn initial_diameter(&self) -> f64 {
        diameter(&self.outputs[0])
    }

    /// `Δ(y(T))`.
    #[must_use]
    pub fn final_diameter(&self) -> f64 {
        diameter(self.outputs.last().expect("trace holds round 0"))
    }

    /// Whether the final spread is below `tol`.
    #[must_use]
    pub fn converged(&self, tol: f64) -> bool {
        self.final_diameter() <= tol
    }

    /// Per-round contraction ratios `Δ(y(t)) / Δ(y(t−1))` (rounds whose
    /// predecessor spread is ≤ `floor` are skipped to avoid 0/0).
    #[must_use]
    pub fn round_ratios(&self, floor: f64) -> Vec<f64> {
        let d = self.diameters();
        d.windows(2)
            .filter(|w| w[0] > floor)
            .map(|w| w[1] / w[0])
            .collect()
    }

    /// Contraction-rate estimates over the recorded horizon.
    ///
    /// Returns ratios of 0 when the initial spread is already ~0. When
    /// the spread collapses to (floating-point) zero mid-trace, the
    /// estimators are computed over the prefix before the collapse —
    /// geometric-rate estimation is meaningless past exact agreement.
    #[must_use]
    pub fn rates(&self) -> RateEstimate {
        estimate_rates(&self.diameters())
    }

    /// **Validity check** (paper §2.1): every recorded output lies in the
    /// convex hull of the initial values. Exact for `D ∈ {1, 2, 3}`
    /// (cross-product half-plane / supporting-plane tests, see
    /// [`consensus_algorithms::in_convex_hull`]); a bounding-box
    /// relaxation for `D ≥ 4`. Only
    /// meaningful for convex combination algorithms — and strict enough
    /// to catch the coordinate-wise box centre leaving the hull at
    /// `d = 3` (arXiv:1805.04923), which the old box check could not.
    /// The supporting-plane structure of the initial hull is computed
    /// **once** ([`HullPlanes`]) and queried per point — bit-identical
    /// to calling [`in_convex_hull`](consensus_algorithms::in_convex_hull)
    /// per point, but `O(planes)` instead
    /// of `O(planes · n)` per query.
    #[must_use]
    pub fn validity_holds(&self, tol: f64) -> bool {
        let hull = HullPlanes::new(&self.outputs[0]);
        self.outputs
            .iter()
            .flat_map(|round| round.iter())
            .all(|p| hull.contains(p, tol))
    }

    /// **Agreement+Convergence check**: the spread is ≤ `tol` at the end
    /// and never increased by more than `slack` relative to its running
    /// minimum (a cheap guard against oscillating "convergence").
    #[must_use]
    pub fn convergence_is_monotoneish(&self, tol: f64, slack: f64) -> bool {
        let mut running_min = f64::INFINITY;
        for d in self.diameters() {
            if d > running_min * (1.0 + slack) && d > tol {
                return false;
            }
            running_min = running_min.min(d);
        }
        self.final_diameter() <= tol
    }
}

/// Contraction-rate estimates from a per-round diameter sequence
/// (`diameters[t] = Δ(y(t))`, `t = 0` the initial configuration).
///
/// This is the estimator behind [`Trace::rates`], exposed standalone
/// for runs that record only diameters, not outputs.
/// Returns all-zero estimates for an empty or all-degenerate sequence.
#[must_use]
pub fn estimate_rates(diameters: &[f64]) -> RateEstimate {
    const FLOOR: f64 = 1e-280;
    let d = diameters;
    if d.is_empty() {
        return RateEstimate {
            t_root: 0.0,
            steady_state: 0.0,
            worst_round: 0.0,
        };
    }
    // Longest prefix with strictly positive spreads.
    let last = d.iter().rposition(|&x| x > FLOOR).unwrap_or(0);
    let t_root = if last == 0 || d[0] <= FLOOR {
        0.0
    } else {
        (d[last] / d[0]).powf(1.0 / last as f64)
    };
    let ratios: Vec<f64> = d[..=last]
        .windows(2)
        .filter(|w| w[0] > FLOOR && w[1] > FLOOR)
        .map(|w| w[1] / w[0])
        .collect();
    let half = ratios.len() / 2;
    let tail = &ratios[half..];
    let steady_state = if tail.is_empty() {
        t_root
    } else {
        let log_sum: f64 = tail.iter().map(|r| r.max(FLOOR).ln()).sum();
        (log_sum / tail.len() as f64).exp()
    };
    let worst_round = d
        .windows(2)
        .filter(|w| w[0] > FLOOR)
        .map(|w| w[1] / w[0])
        .fold(0.0, det_max);
    RateEstimate {
        t_root,
        steady_state,
        worst_round,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(vals: &[f64]) -> Vec<Point<1>> {
        vals.iter().map(|&v| Point([v])).collect()
    }

    fn geometric_trace(rate: f64, rounds: usize) -> Trace<1> {
        let mut t = Trace::new(mk(&[0.0, 1.0]));
        let mut d = 1.0;
        for _ in 0..rounds {
            d *= rate;
            t.record(Digraph::complete(2), mk(&[0.0, d]));
        }
        t
    }

    #[test]
    fn t_root_recovers_geometric_rate() {
        for rate in [0.5, 1.0 / 3.0, 0.9] {
            let t = geometric_trace(rate, 30);
            let r = t.rates();
            assert!((r.t_root - rate).abs() < 1e-9, "t_root for {rate}");
            assert!((r.steady_state - rate).abs() < 1e-9);
            assert!((r.worst_round - rate).abs() < 1e-9);
        }
    }

    #[test]
    fn rates_of_flat_trace_are_zero() {
        let mut t = Trace::new(mk(&[0.5, 0.5]));
        t.record(Digraph::complete(2), mk(&[0.5, 0.5]));
        let r = t.rates();
        assert_eq!(r.t_root, 0.0);
    }

    #[test]
    fn diameters_and_accessors() {
        let t = geometric_trace(0.5, 3);
        assert_eq!(t.rounds(), 3);
        assert_eq!(t.diameters(), vec![1.0, 0.5, 0.25, 0.125]);
        assert_eq!(t.outputs_at(0).len(), 2);
        assert!(t.graph_at(1).is_complete());
        assert!((t.initial_diameter() - 1.0).abs() < 1e-15);
        assert!((t.final_diameter() - 0.125).abs() < 1e-15);
    }

    #[test]
    fn validity_detects_escape() {
        let mut t = Trace::new(mk(&[0.0, 1.0]));
        t.record(Digraph::complete(2), mk(&[0.2, 0.8]));
        assert!(t.validity_holds(0.0));
        t.record(Digraph::complete(2), mk(&[-0.5, 0.8]));
        assert!(!t.validity_holds(1e-9));
    }

    #[test]
    fn monotoneish_convergence() {
        let good = geometric_trace(0.5, 20);
        assert!(good.convergence_is_monotoneish(1e-5, 0.01));
        // A spread that re-expands fails the check.
        let mut bad = Trace::new(mk(&[0.0, 1.0]));
        bad.record(Digraph::complete(2), mk(&[0.0, 0.1]));
        bad.record(Digraph::complete(2), mk(&[0.0, 0.9]));
        bad.record(Digraph::complete(2), mk(&[0.0, 0.0]));
        assert!(!bad.convergence_is_monotoneish(1e-5, 0.01));
    }

    #[test]
    fn round_ratios_skip_degenerate() {
        let mut t = Trace::new(mk(&[0.0, 0.0]));
        t.record(Digraph::complete(2), mk(&[0.0, 0.0]));
        assert!(t.round_ratios(1e-300).is_empty());
    }
}
