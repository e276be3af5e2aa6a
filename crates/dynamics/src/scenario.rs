//! The unified [`Scenario`] driver: one builder for every experiment
//! shape of the paper.
//!
//! Every lower-bound experiment is *"an algorithm, driven by a pattern
//! source or adversary, measured by a trace"*.
//! [`Scenario`] expresses exactly that shape:
//!
//! ```text
//! Scenario::new(alg, &inits)
//!     .pattern(p)      // graphs from a PatternSource, or
//!     .graphs(f)       // graphs computed from the live state, or
//!     .adversary(d)    // any Driver (e.g. the valency adversaries)
//!     .metric(m)       // optional: how spread is measured (default: hull diameter)
//!     .decide(eps)     // optional: stop at the first spread ≤ ε
//!     .run(rounds)     // -> Trace, or
//!     .drive(rounds, on_round)  // on_round(graph, exec) after every round
//! ```
//!
//! Every run goes through one drive loop, [`Scenario::drive`], and every
//! per-round measurement through its callback: [`Scenario::run`] records
//! a [`Trace`] there, [`Scenario::advance`] and
//! [`Scenario::decision_round`] pass a callback that does nothing, and
//! the sweep cells collect their contraction ratios and trace events
//! there.
//!
//! The graph choice per round-block is abstracted by the [`Driver`]
//! trait, so pattern sources, state-dependent schedulers (the `N_A`
//! adversaries of `consensus-asyncsim`) and the valency-probing proof
//! adversaries of `consensus-valency` all drive the same loop. The
//! *spread* measure behind `decide`/`until_converged` is likewise
//! abstracted by [`Metric`] (default: [`HullDiameter`], the paper's
//! `Δ`), so multidimensional decision rounds are measured in hull
//! diameter rather than any scalar projection.

use std::ops::ControlFlow;

use consensus_algorithms::{Algorithm, Point};
use consensus_digraph::Digraph;

use crate::metric::{HullDiameter, Metric};
use crate::pattern::PatternSource;
use crate::{Execution, Trace};

/// Chooses the communication graphs of an execution, one block of
/// rounds at a time (blocks have length 1 for ordinary patterns; the
/// Theorem-3 adversary moves in σ-blocks of `n − 2` rounds).
///
/// Implementors see the *current* execution, so choices may depend on
/// live state — probing adversaries fork it, value-aware schedulers
/// sort by it, plain patterns ignore it.
///
/// # Contract for conforming adversaries
///
/// A `Driver` **must**:
///
/// * supply exactly [`Driver::block_len`] graphs per
///   [`Driver::next_block`] call, each on the execution's agent count
///   (`Execution::step` rejects size mismatches; self-loops are
///   enforced by [`Digraph`] itself, matching the paper's model);
/// * be **deterministic**: the emitted sequence may depend only on the
///   driver's construction parameters (including any seed) and on the
///   executions it has observed — never on wall-clock time, thread
///   identity or global state. The sweep harness's bit-identical
///   replay and thread-count invariance rely on this; value-*aware*
///   choices (forking `exec`, as the valency adversaries and the
///   dynamic-network diameter maximiser do) are fine because the
///   execution itself is deterministic;
/// * treat `exec` as read-only: probing forks a [`Execution::clone`],
///   never advances the shared execution (the drive loop applies the
///   returned graphs itself).
///
/// A `Driver` **should** document its *liveness class* — the property
/// of the emitted sequence that makes convergence claims meaningful:
/// rooted every round (the paper's baseline), every T-round window
/// union rooted (T-interval connectivity), rooted from some round on
/// (eventually rooted), and so on. Nothing in the trait enforces
/// liveness: a driver may legally emit disconnected graphs forever,
/// and `decision_round` then reports `None` at the horizon.
///
/// [`Driver::observe`] is called once per block *after* the block's
/// rounds have been applied; use it for bookkeeping (the valency
/// adversary records value spreads there), not for graph choice.
pub trait Driver<A: Algorithm<D>, const D: usize> {
    /// Rounds per block (≥ 1). Stop conditions are checked at block
    /// boundaries, matching the paper's per-(macro-)round granularity.
    fn block_len(&self) -> usize {
        1
    }

    /// Appends the next block's graphs (exactly [`Driver::block_len`]
    /// of them) to `out`.
    fn next_block(&mut self, exec: &Execution<A, D>, out: &mut Vec<Digraph>);

    /// Called once after each block has been applied (bookkeeping hook;
    /// the valency adversary records value spreads here).
    fn observe(&mut self, exec: &Execution<A, D>) {
        let _ = exec;
    }
}

/// A [`Driver`] that replays a [`PatternSource`], one graph per round.
#[derive(Debug, Clone)]
pub struct PatternDriver<P>(pub P);

impl<A: Algorithm<D>, const D: usize, P: PatternSource> Driver<A, D> for PatternDriver<P> {
    fn next_block(&mut self, exec: &Execution<A, D>, out: &mut Vec<Digraph>) {
        out.push(self.0.next_graph(exec.round() + 1));
    }
}

/// A [`Driver`] that computes each round's graph from the live
/// execution — proximity topologies, bounded-confidence influence
/// graphs, value-aware schedulers.
#[derive(Debug, Clone)]
pub struct FnDriver<F>(pub F);

impl<A: Algorithm<D>, const D: usize, F> Driver<A, D> for FnDriver<F>
where
    F: FnMut(&Execution<A, D>) -> Digraph,
{
    fn next_block(&mut self, exec: &Execution<A, D>, out: &mut Vec<Digraph>) {
        out.push((self.0)(exec));
    }
}

/// The builder state before a driver is chosen ([`Scenario::new`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoDriver;

/// One configured experiment: an algorithm, a graph [`Driver`], and
/// optional stop conditions — the single entry point subsuming the
/// former `Execution::run`, `Execution::run_until_converged`,
/// `GreedyValencyAdversary::drive` and
/// `measure::minimal_decision_round` APIs.
///
/// # Example
///
/// ```
/// use consensus_algorithms::{Midpoint, Point};
/// use consensus_digraph::Digraph;
/// use consensus_dynamics::{pattern::ConstantPattern, Scenario};
///
/// let inits = [Point([0.0]), Point([1.0]), Point([0.25])];
/// let trace = Scenario::new(Midpoint, &inits)
///     .pattern(ConstantPattern::new(Digraph::complete(3)))
///     .run(1);
/// assert!(trace.final_diameter() < 1e-15);
/// ```
#[derive(Debug, Clone)]
pub struct Scenario<A: Algorithm<D>, Dr, const D: usize, M = HullDiameter> {
    exec: Execution<A, D>,
    driver: Dr,
    stop_below: Option<f64>,
    /// How `decide`/`until_converged` measure the spread.
    metric: M,
    /// Scratch block buffer, reused across blocks.
    blocks: Vec<Digraph>,
}

impl<A: Algorithm<D>, const D: usize> Scenario<A, NoDriver, D> {
    /// Starts a scenario of `alg` from the given initial values, with
    /// the default [`HullDiameter`] spread metric.
    ///
    /// # Panics
    ///
    /// Panics if `inits` is empty or has more than 64 agents.
    #[must_use]
    pub fn new(alg: A, inits: &[Point<D>]) -> Self {
        Self::resume(Execution::new(alg, inits))
    }

    /// Continues from an existing (possibly forked or partially run)
    /// execution.
    ///
    /// # Panics
    ///
    /// Panics if the execution has more than 64 agents: drivers emit
    /// dense [`Digraph`] rounds.
    #[must_use]
    pub fn resume(exec: Execution<A, D>) -> Self {
        assert!(
            exec.n() <= 64,
            "drivers emit Digraph rounds: need 1..=64 agents"
        );
        Scenario {
            exec,
            driver: NoDriver,
            stop_below: None,
            metric: HullDiameter,
            blocks: Vec::new(),
        }
    }
}

impl<A: Algorithm<D>, const D: usize, M> Scenario<A, NoDriver, D, M> {
    /// Drives the scenario with a [`PatternSource`], one graph per
    /// round.
    #[must_use]
    pub fn pattern<P: PatternSource>(self, pattern: P) -> Scenario<A, PatternDriver<P>, D, M> {
        self.adversary(PatternDriver(pattern))
    }

    /// Drives the scenario with a graph computed from the live
    /// execution each round.
    #[must_use]
    pub fn graphs<F>(self, next: F) -> Scenario<A, FnDriver<F>, D, M>
    where
        F: FnMut(&Execution<A, D>) -> Digraph,
    {
        self.adversary(FnDriver(next))
    }

    /// Drives the scenario with an arbitrary [`Driver`] — typically a
    /// lower-bound adversary (`GreedyValencyAdversary::driver()` in
    /// `consensus-valency`, the `N_A` schedulers in
    /// `consensus-asyncsim`).
    #[must_use]
    pub fn adversary<Dr: Driver<A, D>>(self, driver: Dr) -> Scenario<A, Dr, D, M> {
        Scenario {
            exec: self.exec,
            driver,
            stop_below: self.stop_below,
            metric: self.metric,
            blocks: self.blocks,
        }
    }
}

impl<A: Algorithm<D>, Dr, const D: usize, M> Scenario<A, Dr, D, M> {
    /// Replaces the spread [`Metric`] behind `decide`/
    /// `until_converged`/[`Scenario::decision_round`] (default:
    /// [`HullDiameter`], the paper's `Δ`). Pass
    /// [`BoxDiameter`](crate::metric::BoxDiameter) for per-coordinate
    /// ε-agreement, or any closure `Fn(&[Point<D>]) -> f64`.
    #[must_use]
    pub fn metric<M2: Metric<D>>(self, metric: M2) -> Scenario<A, Dr, D, M2> {
        Scenario {
            exec: self.exec,
            driver: self.driver,
            stop_below: self.stop_below,
            metric,
            blocks: self.blocks,
        }
    }

    /// Stops runs at the first block boundary where the value spread
    /// (per the configured [`Metric`]) is ≤ `eps` — the decision event
    /// of approximate consensus (§9). The resulting trace ends at the
    /// minimal safe decision round; [`Scenario::decision_round`]
    /// returns it directly.
    #[must_use]
    pub fn decide(mut self, eps: f64) -> Self {
        self.stop_below = Some(eps);
        self
    }

    /// Stops runs once the value spread is ≤ `tol` (alias of
    /// [`Scenario::decide`] named for convergence studies).
    #[must_use]
    pub fn until_converged(self, tol: f64) -> Self {
        self.decide(tol)
    }

    /// The underlying execution (current states, round count, outputs).
    #[must_use]
    pub fn execution(&self) -> &Execution<A, D> {
        &self.exec
    }

    /// Consumes the scenario, returning the execution for inspection or
    /// further (differently driven) continuation.
    #[must_use]
    pub fn into_execution(self) -> Execution<A, D> {
        self.exec
    }

    /// The driver — e.g. to read the valency adversary's δ̂ record
    /// after a run.
    #[must_use]
    pub fn driver(&self) -> &Dr {
        &self.driver
    }

    /// Mutable access to the driver.
    #[must_use]
    pub fn driver_mut(&mut self) -> &mut Dr {
        &mut self.driver
    }
}

impl<A: Algorithm<D>, Dr: Driver<A, D>, const D: usize, M: Metric<D>> Scenario<A, Dr, D, M> {
    /// The one drive loop behind every run variant: choose a block,
    /// apply it round by round, call `on_round` with each round's graph
    /// and the execution after it, then [`Driver::observe`] the block.
    /// Runs up to `max_rounds` rounds (whole blocks; a final partial
    /// horizon is rounded up to the block length) and returns the number
    /// executed.
    ///
    /// The drive stops early at the first block boundary where the
    /// configured stop threshold ([`Scenario::decide`]) is reached, or at
    /// the end of a block in which `on_round` returned
    /// [`ControlFlow::Break`]. The scenario can be continued afterwards.
    pub fn drive<F>(&mut self, max_rounds: usize, mut on_round: F) -> usize
    where
        F: FnMut(&Digraph, &Execution<A, D>) -> ControlFlow<()>,
    {
        let mut done = 0;
        let mut stop = false;
        while done < max_rounds && !stop {
            if let Some(eps) = self.stop_below {
                if self.metric.measure(self.exec.outputs_slice()) <= eps {
                    break;
                }
            }
            self.blocks.clear();
            self.driver.next_block(&self.exec, &mut self.blocks);
            assert!(
                !self.blocks.is_empty(),
                "driver must supply at least one graph per block"
            );
            for g in self.blocks.drain(..) {
                self.exec.step(&g);
                done += 1;
                stop |= on_round(&g, &self.exec).is_break();
            }
            self.driver.observe(&self.exec);
        }
        done
    }

    /// [`Scenario::drive`], recording every round's graph and outputs
    /// in a [`Trace`].
    pub fn run(&mut self, max_rounds: usize) -> Trace<D> {
        let mut trace = Trace::new(self.exec.outputs());
        self.drive(max_rounds, |g, exec| {
            trace.record(g.clone(), exec.outputs());
            ControlFlow::Continue(())
        });
        trace
    }

    /// [`Scenario::drive`] with a callback that does nothing — the
    /// allocation-free variant for rate measurement and probing. Returns
    /// the number of rounds executed.
    pub fn advance(&mut self, max_rounds: usize) -> usize {
        self.drive(max_rounds, |_, _| ControlFlow::Continue(()))
    }

    /// Runs until the spread (per the configured [`Metric`]) drops to
    /// ≤ the [`Scenario::decide`] threshold and returns the first
    /// qualifying round (checked at block boundaries, matching the
    /// per-(macro-)round granularity of Theorems 8–11), or `None` if
    /// the `max_rounds` horizon is exhausted first.
    ///
    /// `max_rounds` is a **total horizon counted from round 0**, not a
    /// relative budget: rounds already executed (via
    /// [`Scenario::drive`], [`Scenario::run`] or [`Scenario::advance`])
    /// are not recounted, so interleaving `advance(k)` with
    /// `decision_round(T)` measures the same decision round as a single
    /// `decision_round(T)` call.
    ///
    /// # Panics
    ///
    /// Panics if no `decide`/`until_converged` threshold is configured.
    pub fn decision_round(&mut self, max_rounds: usize) -> Option<u64> {
        let eps = self
            .stop_below
            .expect("decision_round requires .decide(eps)");
        let executed = usize::try_from(self.exec.round()).unwrap_or(usize::MAX);
        self.advance(max_rounds.saturating_sub(executed));
        (self.metric.measure(self.exec.outputs_slice()) <= eps).then(|| self.exec.round())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::ConstantPattern;
    use consensus_algorithms::{MeanValue, Midpoint};
    use consensus_digraph::families;

    fn pts(vals: &[f64]) -> Vec<Point<1>> {
        vals.iter().map(|&v| Point([v])).collect()
    }

    #[test]
    fn pattern_run_records_every_round() {
        let trace = Scenario::new(Midpoint, &pts(&[0.0, 1.0, 0.4]))
            .pattern(ConstantPattern::new(Digraph::complete(3)))
            .run(5);
        assert_eq!(trace.rounds(), 5);
        assert!(trace.final_diameter() < 1e-12);
    }

    #[test]
    fn decide_stops_at_first_sub_eps_round() {
        // Midpoint under the deaf graph halves per round: Δ/ε = 8 needs
        // exactly 3 rounds.
        let f0 = Digraph::complete(3).make_deaf(0);
        let mut sc = Scenario::new(Midpoint, &pts(&[0.0, 1.0, 1.0]))
            .pattern(ConstantPattern::new(f0))
            .decide(1.0 / 8.0);
        assert_eq!(sc.decision_round(64), Some(3));
    }

    #[test]
    fn decision_round_zero_when_already_agreed() {
        let mut sc = Scenario::new(Midpoint, &pts(&[0.4, 0.4]))
            .pattern(ConstantPattern::new(Digraph::complete(2)))
            .decide(1e-3);
        assert_eq!(sc.decision_round(8), Some(0));
    }

    #[test]
    fn decision_round_none_when_unreachable() {
        let f0 = Digraph::complete(2).make_deaf(0);
        let mut sc = Scenario::new(Midpoint, &pts(&[0.0, 1.0]))
            .pattern(ConstantPattern::new(f0))
            .decide(1e-12);
        assert_eq!(sc.decision_round(4), None);
    }

    #[test]
    fn graphs_driver_sees_live_state() {
        // Make the lowest-valued agent deaf each round: state-dependent
        // topology.
        let mut sc = Scenario::new(MeanValue, &pts(&[0.0, 1.0, 0.5])).graphs(|e| {
            let outs = e.outputs_slice();
            let lowest = (0..e.n())
                .min_by(|&a, &b| outs[a][0].total_cmp(&outs[b][0]))
                .expect("non-empty");
            Digraph::complete(3).make_deaf(lowest)
        });
        let trace = sc.run(30);
        assert!(trace.validity_holds(1e-9));
        assert!(trace.final_diameter() < trace.initial_diameter());
    }

    #[test]
    fn advance_matches_run_without_recording() {
        let mut a = Scenario::new(Midpoint, &pts(&[0.0, 1.0, 0.3]))
            .pattern(ConstantPattern::new(families::cycle(3)));
        let mut b = Scenario::new(Midpoint, &pts(&[0.0, 1.0, 0.3]))
            .pattern(ConstantPattern::new(families::cycle(3)));
        let trace = a.run(7);
        assert_eq!(b.advance(7), 7);
        assert_eq!(a.execution().outputs_slice(), b.execution().outputs_slice());
        assert_eq!(trace.rounds(), 7);
    }

    /// Blocks of three rounds; agent `(t − 1) mod n` is deaf in round `t`.
    struct DeafTriples;

    impl<A: Algorithm<1>> Driver<A, 1> for DeafTriples {
        fn block_len(&self) -> usize {
            3
        }

        fn next_block(&mut self, exec: &Execution<A, 1>, out: &mut Vec<Digraph>) {
            let n = exec.n();
            for k in 0..3 {
                out.push(Digraph::complete(n).make_deaf((exec.round() as usize + k) % n));
            }
        }
    }

    #[test]
    fn drive_calls_back_after_every_round_of_a_block() {
        let mut sc = Scenario::new(Midpoint, &pts(&[0.0, 1.0, 0.4])).adversary(DeafTriples);
        let mut seen = Vec::new();
        // A partial horizon is rounded up to the block: 7 rounds → 9.
        let done = sc.drive(7, |g, exec| {
            seen.push((exec.round(), g.clone()));
            ControlFlow::Continue(())
        });
        assert_eq!(done, 9);
        for (t, (round, g)) in (1..).zip(&seen) {
            assert_eq!(*round, t);
            assert_eq!(*g, Digraph::complete(3).make_deaf((t as usize - 1) % 3));
        }
        assert_eq!(seen.len(), 9);

        // A break ends the drive with its block: round 11 closes at 12.
        let mut rounds = Vec::new();
        let done = sc.drive(64, |_, exec| {
            rounds.push(exec.round());
            if exec.round() == 11 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(done, 3);
        assert_eq!(rounds, [10, 11, 12]);
    }

    #[test]
    fn run_records_what_a_recording_callback_sees() {
        let build = || Scenario::new(MeanValue, &pts(&[0.0, 1.0, 0.3, 0.9])).adversary(DeafTriples);
        let trace = build().run(7);
        let mut sc = build();
        let mut graphs = Vec::new();
        let mut outputs = vec![sc.execution().outputs()];
        sc.drive(7, |g, exec| {
            graphs.push(g.clone());
            outputs.push(exec.outputs());
            ControlFlow::Continue(())
        });
        assert_eq!(trace.rounds(), 9);
        assert_eq!(graphs.len(), 9);
        for (t, outs) in outputs.iter().enumerate() {
            assert_eq!(trace.outputs_at(t), outs.as_slice(), "outputs of round {t}");
        }
        for (t, g) in (1..).zip(&graphs) {
            assert_eq!(trace.graph_at(t), g, "graph of round {t}");
        }
    }

    #[test]
    fn resume_continues_forked_execution() {
        let mut e = Execution::new(Midpoint, &pts(&[0.0, 1.0]));
        e.step(&Digraph::complete(2));
        let trace = Scenario::resume(e.clone())
            .pattern(ConstantPattern::new(Digraph::complete(2)))
            .run(3);
        assert_eq!(trace.rounds(), 3);
        assert_eq!(trace.outputs_at(0), e.outputs_slice());
    }

    #[test]
    fn decision_round_does_not_recount_after_advance() {
        // Midpoint under deaf(K_3) halves per round: Δ/ε = 8 decides at
        // round 3. Splitting the drive as advance(2) + decision_round(64)
        // must agree with the one-shot measurement.
        let f0 = Digraph::complete(3).make_deaf(0);
        let build = || {
            Scenario::new(Midpoint, &pts(&[0.0, 1.0, 1.0]))
                .pattern(ConstantPattern::new(f0.clone()))
                .decide(1.0 / 8.0)
        };
        let mut oneshot = build();
        assert_eq!(oneshot.decision_round(64), Some(3));

        let mut split = build();
        assert_eq!(split.advance(2), 2);
        assert_eq!(split.decision_round(64), Some(3), "no recounting");
        assert_eq!(split.execution().round(), 3, "stopped at the decision");

        // The horizon is absolute: after advance(2), a budget of 2 is
        // already exhausted and may not buy 2 extra rounds.
        let mut exhausted = build();
        exhausted.advance(2);
        assert_eq!(exhausted.decision_round(2), None);
        assert_eq!(exhausted.execution().round(), 2, "no extra rounds ran");
    }

    #[test]
    fn metric_choice_changes_the_decision_round() {
        use crate::metric::{BoxDiameter, HullDiameter};
        use consensus_algorithms::MidpointCoordinatewise;
        // Deaf K_3 in R^2, deaf agent pinned at the origin: each round
        // the hearers move to the box centre, so the box diameter halves
        // exactly while the hull (Euclidean) diameter is √2× larger on
        // the diagonal — box-diameter ε-agreement is reached one round
        // earlier at ε chosen between Δ∞ and Δ₂ after t rounds.
        let inits = [Point([0.0, 0.0]), Point([1.0, 1.0]), Point([1.0, 0.25])];
        let f0 = Digraph::complete(3).make_deaf(0);
        let eps = 1.25 / 8.0; // between 1/8 (box after 3) and √2/8 (hull)
        let mut hull = Scenario::new(MidpointCoordinatewise, &inits)
            .pattern(ConstantPattern::new(f0.clone()))
            .metric(HullDiameter)
            .decide(eps);
        let mut boxm = Scenario::new(MidpointCoordinatewise, &inits)
            .pattern(ConstantPattern::new(f0))
            .metric(BoxDiameter)
            .decide(eps);
        let t_hull = hull.decision_round(64).expect("converges");
        let t_box = boxm.decision_round(64).expect("converges");
        assert!(
            t_box < t_hull,
            "box decides at {t_box}, hull needs {t_hull}"
        );
    }

    #[test]
    fn default_metric_is_hull_diameter() {
        // For D = 1 the default metric is the scalar spread: identical
        // decision rounds whether the metric is spelled out or not.
        let build = || {
            Scenario::new(Midpoint, &pts(&[0.0, 1.0, 1.0]))
                .pattern(ConstantPattern::new(Digraph::complete(3).make_deaf(0)))
        };
        let implicit = build().decide(1.0 / 8.0).decision_round(64);
        let explicit = build()
            .metric(crate::metric::HullDiameter)
            .decide(1.0 / 8.0)
            .decision_round(64);
        assert_eq!(implicit, Some(3));
        assert_eq!(implicit, explicit);
    }

    #[test]
    fn closure_metrics_drive_decisions() {
        // Stop when everyone is within ε of agent 0 — a custom metric.
        let leader = |outs: &[Point<1>]| {
            outs.iter()
                .map(|p| (p[0] - outs[0][0]).abs())
                .fold(0.0, f64::max)
        };
        let mut sc = Scenario::new(Midpoint, &pts(&[0.0, 1.0, 0.5]))
            .pattern(ConstantPattern::new(Digraph::complete(3)))
            .metric(leader)
            .decide(1e-9);
        assert_eq!(sc.decision_round(16), Some(1), "clique agrees in 1 round");
    }

    /// An empty block advances no round, so without the assert the drive
    /// loop would spin forever.
    #[test]
    #[should_panic(expected = "driver must supply at least one graph per block")]
    fn empty_block_driver_is_rejected() {
        struct EmptyBlocks;
        impl<A: Algorithm<1>> Driver<A, 1> for EmptyBlocks {
            fn next_block(&mut self, _exec: &Execution<A, 1>, _out: &mut Vec<Digraph>) {}
        }
        let _ = Scenario::new(Midpoint, &pts(&[0.0, 1.0]))
            .adversary(EmptyBlocks)
            .run(1);
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn sixty_five_agent_scenario_rejected() {
        let inits: Vec<Point<1>> = (0..65).map(|i| Point([i as f64])).collect();
        let _ = Scenario::new(Midpoint, &inits);
    }
}
