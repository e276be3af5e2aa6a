//! The [`Execution`] engine: states, rounds, forking.

use consensus_algorithms::{diameter, Algorithm, Inbox, Point};
use consensus_digraph::{AgentSet, RoundTopology};

use crate::pattern::PatternSource;

/// Default agents-per-chunk of [`Execution::threads`]: large enough to
/// amortize scheduling, small enough to load-balance a million agents
/// over any realistic core count.
const DEFAULT_CHUNK: usize = 4096;

/// How one round's agent transitions are scheduled: [`Serial`] (the
/// default) or [`Chunked`].
///
/// A transition reads only its own agent's state, the round's shared
/// message slate and the round number, and writes only its own agent's
/// state, so every policy produces the same bits.
pub trait StepPolicy {
    /// Calls `f(i, &mut states[i])` once for every agent `i`.
    fn for_each_agent<S: Send>(&self, states: &mut [S], f: impl Fn(usize, &mut S) + Sync);
}

/// Every agent on the calling thread, in ascending order. Zero-sized:
/// the executor that [`crate::Scenario`], drivers and adversaries use
/// carries no thread count and never branches on one.
#[derive(Debug, Clone, Copy, Default)]
pub struct Serial;

impl StepPolicy for Serial {
    #[inline]
    fn for_each_agent<S: Send>(&self, states: &mut [S], f: impl Fn(usize, &mut S) + Sync) {
        for (i, state) in states.iter_mut().enumerate() {
            f(i, state);
        }
    }
}

/// Agents split into contiguous chunks stepped on up to `threads`
/// workers ([`consensus_pool::for_each_chunk_mut`]); see
/// [`Execution::threads`] and [`Execution::chunk_size`].
#[derive(Debug, Clone, Copy)]
pub struct Chunked {
    threads: usize,
    chunk: usize,
}

impl StepPolicy for Chunked {
    fn for_each_agent<S: Send>(&self, states: &mut [S], f: impl Fn(usize, &mut S) + Sync) {
        consensus_pool::for_each_chunk_mut(states, self.chunk, self.threads, |start, chunk| {
            for (k, state) in chunk.iter_mut().enumerate() {
                f(start + k, state);
            }
        });
    }
}

/// A live execution of an algorithm: one state per agent, advanced one
/// communication-closed round at a time (paper §2).
///
/// `Execution` is the low-level stepper: it owns the per-agent states,
/// a reused message slate (gathered once per round — stepping performs
/// **no per-round heap allocation** after warm-up), and a cache of the
/// current outputs. Rounds run over any [`RoundTopology`]: the dense
/// [`Digraph`](consensus_digraph::Digraph) (`n ≤ 64`) or the sparse
/// [`CsrDigraph`](consensus_digraph::CsrDigraph) (any `n`). High-level
/// runs (patterns, adversaries, decision measurement) go
/// through [`crate::Scenario`].
///
/// The [`StepPolicy`] parameter `P` schedules each round's transitions:
/// [`Serial`] by default, [`Chunked`] after [`Execution::threads`].
/// Thread count and chunk size never change an output bit.
///
/// `Execution` is [`Clone`] (when the algorithm is), which is how the
/// valency engine forks a configuration `C` into the different successor
/// executions `G.C` needed by the lower-bound adversaries.
#[derive(Clone)]
pub struct Execution<A: Algorithm<D>, const D: usize, P = Serial> {
    alg: A,
    states: Vec<A::State>,
    /// Cached `y(t)`, refreshed after every step.
    outs: Vec<Point<D>>,
    /// Reused per-round message slate (`msgs[j]` = agent `j`'s broadcast).
    msgs: Vec<A::Msg>,
    round: u64,
    policy: P,
}

impl<A: Algorithm<D>, const D: usize> Execution<A, D> {
    /// Starts an execution of `alg` from the given initial values
    /// (one per agent; `inits.len()` is the number of agents `n`).
    ///
    /// # Panics
    ///
    /// Panics if `inits` is empty.
    #[must_use]
    pub fn new(alg: A, inits: &[Point<D>]) -> Self {
        assert!(!inits.is_empty(), "need at least one agent");
        let states: Vec<A::State> = inits
            .iter()
            .enumerate()
            .map(|(i, &y0)| alg.init(i, y0))
            .collect();
        let outs = states.iter().map(|s| alg.output(s)).collect();
        Execution {
            alg,
            states,
            outs,
            msgs: Vec::with_capacity(inits.len()),
            round: 0,
            policy: Serial,
        }
    }

    /// Steps each round's agents in chunks of 4096 on up to `threads`
    /// pool workers (`threads ≤ 1` runs the chunks in place). Thread
    /// count never affects results, only wall-clock time.
    #[must_use]
    pub fn threads(self, threads: usize) -> Execution<A, D, Chunked> {
        Execution {
            alg: self.alg,
            states: self.states,
            outs: self.outs,
            msgs: self.msgs,
            round: self.round,
            policy: Chunked {
                threads: threads.max(1),
                chunk: DEFAULT_CHUNK,
            },
        }
    }

    /// The next round of this configuration, evaluated one agent at a
    /// time: gathers the message slate once, after which
    /// [`Lookahead::output`] returns any agent's next output under any
    /// in-mask without stepping (or cloning) the execution.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`: [`Lookahead::output`] takes `u64` in-masks.
    #[must_use]
    pub fn lookahead(&self) -> Lookahead<'_, A, D> {
        assert!(
            self.n() <= 64,
            "lookahead takes u64 in-masks: need 1..=64 agents"
        );
        let mut slate = Vec::with_capacity(self.n());
        gather(&self.alg, &self.states, &mut slate);
        Lookahead { exec: self, slate }
    }
}

impl<A: Algorithm<D>, const D: usize> Execution<A, D, Chunked> {
    /// Sets the agents-per-chunk granularity of [`Execution::threads`].
    /// Chunk size never affects results, only load balance.
    #[must_use]
    pub fn chunk_size(mut self, chunk: usize) -> Self {
        self.policy.chunk = chunk.max(1);
        self
    }
}

impl<A: Algorithm<D>, const D: usize, P> Execution<A, D, P> {
    /// The number of agents.
    #[must_use]
    pub fn n(&self) -> usize {
        self.states.len()
    }

    /// The number of completed rounds (`t`; round 0 is the initial
    /// configuration).
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The algorithm being executed.
    #[must_use]
    pub fn algorithm(&self) -> &A {
        &self.alg
    }

    /// The current output vector `y(t) = (y_1(t), …, y_n(t))`, borrowed
    /// from the executor's cache — no allocation.
    #[must_use]
    pub fn outputs_slice(&self) -> &[Point<D>] {
        &self.outs
    }

    /// The current output vector as an owned `Vec` (a copy of the
    /// cache). Prefer [`Execution::outputs_slice`] on hot paths.
    #[must_use]
    pub fn outputs(&self) -> Vec<Point<D>> {
        self.outs.clone()
    }

    /// The current value spread `Δ(y(t))` (paper §2.1). Reads the output
    /// cache; no allocation.
    #[must_use]
    pub fn value_diameter(&self) -> f64 {
        diameter(&self.outs)
    }

    /// Read access to an agent's state (used by state-aware tests).
    ///
    /// # Panics
    ///
    /// Panics if `agent ≥ n`.
    #[must_use]
    pub fn state(&self, agent: usize) -> &A::State {
        &self.states[agent]
    }

    fn refresh_outputs(&mut self) {
        self.outs.clear();
        let alg = &self.alg;
        self.outs.extend(self.states.iter().map(|s| alg.output(s)));
    }
}

impl<A: Algorithm<D>, const D: usize, P: StepPolicy> Execution<A, D, P> {
    /// Executes one round with topology `g`: gather all messages once
    /// into the shared slate, hand every agent an [`Inbox`] view
    /// restricted to its in-neighborhood (self included), apply the
    /// transition function everywhere.
    ///
    /// # Panics
    ///
    /// Panics if `g.n() != self.n()`.
    pub fn step<G: RoundTopology>(&mut self, g: &G) {
        assert_eq!(g.n(), self.n(), "graph size must match agent count");
        self.round += 1;
        gather(&self.alg, &self.states, &mut self.msgs);
        let (alg, msgs, round) = (&self.alg, &self.msgs[..], self.round);
        self.policy.for_each_agent(&mut self.states, |i, state| {
            alg.step(i, state, Inbox::from_senders(g.sender_set(i), msgs), round);
        });
        self.refresh_outputs();
    }

    /// Runs under `pattern` until the spread drops to ≤ `tol` (or
    /// `max_rounds` elapse) and returns the limit estimate (the centroid
    /// of the final outputs) **together with its convergence status**.
    /// Used by the valency engine as "the limit of this continuation";
    /// records no trace and performs no per-round allocation beyond the
    /// pattern's own graphs.
    ///
    /// [`LimitEstimate::converged`] reports whether the spread actually
    /// reached `tol` within the horizon. A truncated probe (`converged ==
    /// false`) returns the centroid of a configuration that is still
    /// spread out, which is *not* a reachable limit — silently treating
    /// it as one is exactly the bug that can make a valency
    /// under-approximation `δ̂` unsound, so callers must check the flag
    /// (or run in a strict mode that refuses truncated probes).
    pub fn limit_estimate<Pat: PatternSource>(
        &mut self,
        pattern: &mut Pat,
        tol: f64,
        max_rounds: usize,
    ) -> LimitEstimate<D> {
        let start = self.round;
        for _ in 0..max_rounds {
            if self.value_diameter() <= tol {
                break;
            }
            let g = pattern.next_graph(self.round + 1);
            self.step(&g);
        }
        let mut acc = Point::ZERO;
        for p in &self.outs {
            acc += *p;
        }
        LimitEstimate {
            point: acc * (1.0 / self.outs.len() as f64),
            converged: self.value_diameter() <= tol,
            rounds: self.round - start,
        }
    }
}

/// Refills `slate` with every agent's broadcast for the next round.
fn gather<A: Algorithm<D>, const D: usize>(alg: &A, states: &[A::State], slate: &mut Vec<A::Msg>) {
    slate.clear();
    slate.extend(states.iter().map(|s| alg.message(s)));
}

/// One configuration's next round, agent by agent (see
/// [`Execution::lookahead`]).
///
/// An agent's transition reads only its own state, its inbox and the
/// round number, and [`Lookahead::output`] runs it on a copy of the
/// state with the inbox and round [`Execution::step`] would pass, so
/// for agent `i` under `in_mask` it equals, bit for bit, `outputs()[i]`
/// after `clone()` and `step(&g)` on any graph `g` with
/// `g.in_mask(i) == in_mask`. An adversary scoring
/// many candidate graphs against one configuration therefore gathers the
/// slate once and recomputes only the agents whose in-mask differs
/// between candidates.
pub struct Lookahead<'a, A: Algorithm<D>, const D: usize> {
    exec: &'a Execution<A, D>,
    slate: Vec<A::Msg>,
}

impl<A: Algorithm<D>, const D: usize> Lookahead<'_, A, D> {
    /// The number of agents.
    #[must_use]
    pub fn n(&self) -> usize {
        self.slate.len()
    }

    /// Agent `agent`'s output after the next round if it hears the
    /// agents in `in_mask`, which must contain `agent` itself
    /// (communication graphs have self-loops).
    ///
    /// # Panics
    ///
    /// Panics if `agent ≥ n`.
    #[must_use]
    pub fn output(&self, agent: usize, in_mask: AgentSet) -> Point<D> {
        debug_assert!(
            in_mask >> agent & 1 == 1,
            "in-masks include the agent itself"
        );
        let exec = self.exec;
        let mut state = exec.states[agent].clone();
        let inbox = Inbox::new(in_mask, &self.slate);
        exec.alg.step(agent, &mut state, inbox, exec.round + 1);
        exec.alg.output(&state)
    }
}

/// The result of [`Execution::limit_estimate`]: the centroid of the
/// final configuration plus whether the run actually converged.
///
/// The centroid is only a trustworthy "limit of this continuation" when
/// [`LimitEstimate::converged`] is `true`; otherwise the probe horizon
/// expired first and the point is the centre of a configuration that is
/// still `> tol` wide.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LimitEstimate<const D: usize> {
    /// Centroid of the final outputs.
    pub point: Point<D>,
    /// Whether the value spread reached the tolerance within the
    /// horizon. `false` means the estimate is truncated: the point is
    /// **not** a certified reachable limit.
    pub converged: bool,
    /// Rounds actually executed by the probe (`≤ max_rounds`; fewer on
    /// early convergence).
    pub rounds: u64,
}

impl<A: Algorithm<D> + std::fmt::Debug, const D: usize, P> std::fmt::Debug for Execution<A, D, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Execution")
            .field("alg", &self.alg)
            .field("round", &self.round)
            .field("outputs", &self.outs)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{ConstantPattern, PeriodicPattern};
    use crate::Scenario;
    use consensus_algorithms::{MeanValue, Midpoint, TwoAgentThirds};
    use consensus_digraph::{families, Digraph};

    fn pts(vals: &[f64]) -> Vec<Point<1>> {
        vals.iter().map(|&v| Point([v])).collect()
    }

    #[test]
    fn clique_midpoint_one_round() {
        let mut e = Execution::new(Midpoint, &pts(&[0.0, 1.0, 0.3]));
        e.step(&Digraph::complete(3));
        let outs = e.outputs();
        for o in outs {
            assert!((o[0] - 0.5).abs() < 1e-15);
        }
        assert_eq!(e.round(), 1);
    }

    #[test]
    fn deaf_adversary_halves_midpoint_diameter() {
        // Constant F_0 (agent 0 deaf in K_3): spread halves every round.
        let f0 = Digraph::complete(3).make_deaf(0);
        let mut e = Execution::new(Midpoint, &pts(&[0.0, 1.0, 1.0]));
        let mut d = e.value_diameter();
        for _ in 0..20 {
            e.step(&f0);
            let nd = e.value_diameter();
            assert!((nd - d / 2.0).abs() < 1e-12, "exact halving expected");
            d = nd;
        }
    }

    #[test]
    fn two_agent_thirds_under_h1() {
        let [_, h1, _] = families::two_agent();
        let trace = Scenario::new(TwoAgentThirds, &pts(&[0.0, 1.0]))
            .pattern(ConstantPattern::new(h1))
            .run(12);
        let rate = trace.rates().t_root;
        assert!((rate - 1.0 / 3.0).abs() < 1e-9, "rate = {rate}");
    }

    #[test]
    fn until_converged_stops_early() {
        let mut sc = Scenario::new(Midpoint, &pts(&[0.0, 8.0]))
            .pattern(ConstantPattern::new(Digraph::complete(2)))
            .until_converged(1e-9);
        let trace = sc.run(1_000);
        assert!(trace.rounds() <= 2, "clique agreement is immediate");
        assert!(sc.execution().value_diameter() <= 1e-9);
    }

    #[test]
    fn periodic_pattern_cycles() {
        let [h0, h1, h2] = families::two_agent();
        let trace = Scenario::new(MeanValue, &pts(&[0.0, 1.0]))
            .pattern(PeriodicPattern::new(vec![h0, h1, h2]))
            .run(6);
        assert_eq!(trace.rounds(), 6);
        assert!(trace.final_diameter() < trace.initial_diameter());
    }

    #[test]
    fn fork_preserves_determinism() {
        let mut a = Execution::new(Midpoint, &pts(&[0.0, 1.0, 0.5, 0.7]));
        a.step(&families::star_out(4, 2));
        let mut b = a.clone();
        let g = families::cycle(4);
        a.step(&g);
        b.step(&g);
        assert_eq!(a.outputs(), b.outputs(), "forked executions must agree");
    }

    #[test]
    fn limit_estimate_on_clique_is_midrange() {
        let mut e = Execution::new(Midpoint, &pts(&[0.0, 1.0]));
        let mut p = ConstantPattern::new(Digraph::complete(2));
        let lim = e.limit_estimate(&mut p, 1e-12, 100);
        assert!((lim.point[0] - 0.5).abs() < 1e-9);
        assert!(lim.converged);
        assert!(lim.rounds < 100, "clique converges early");
    }

    #[test]
    fn limit_estimate_reports_truncation() {
        // The empty graph never contracts: the horizon expires with the
        // spread intact, and the estimate must say so instead of
        // passing its centroid off as a reachable limit.
        let mut e = Execution::new(Midpoint, &pts(&[0.0, 1.0]));
        let mut p = ConstantPattern::new(Digraph::empty(2));
        let lim = e.limit_estimate(&mut p, 1e-12, 50);
        assert!(!lim.converged, "deaf-everywhere pattern cannot converge");
        assert_eq!(lim.rounds, 50, "the whole horizon must be spent");
        assert!((lim.point[0] - 0.5).abs() < 1e-9, "centroid still reported");
    }

    #[test]
    fn outputs_slice_matches_outputs() {
        let mut e = Execution::new(Midpoint, &pts(&[0.0, 1.0, 0.4]));
        assert_eq!(e.outputs_slice(), e.outputs().as_slice());
        e.step(&Digraph::complete(3));
        assert_eq!(e.outputs_slice(), e.outputs().as_slice());
        assert_eq!(e.outputs_slice().len(), 3);
    }

    #[test]
    #[should_panic(expected = "graph size")]
    fn size_mismatch_panics() {
        let mut e = Execution::new(Midpoint, &pts(&[0.0, 1.0]));
        e.step(&Digraph::complete(3));
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use consensus_algorithms::{MeanValue, Midpoint};
    use consensus_digraph::Digraph;

    #[test]
    fn single_agent_execution_is_trivial() {
        let mut e = Execution::new(Midpoint, &[Point([0.7])]);
        e.step(&Digraph::complete(1));
        assert_eq!(e.outputs(), vec![Point([0.7])]);
        assert_eq!(e.value_diameter(), 0.0);
    }

    #[test]
    fn sixty_four_agents_supported() {
        let inits: Vec<Point<1>> = (0..64).map(|i| Point([i as f64])).collect();
        let mut e = Execution::new(MeanValue, &inits);
        e.step(&Digraph::complete(64));
        assert!(
            e.value_diameter() < 1e-9,
            "complete graph averages in one round"
        );
    }

    /// Executions of any size run on a `CsrDigraph`, but a lookahead
    /// takes `u64` in-masks and refuses agents they cannot hold.
    #[test]
    #[should_panic(expected = "1..=64")]
    fn sixty_five_agents_rejected() {
        let inits: Vec<Point<1>> = (0..65).map(|i| Point([i as f64])).collect();
        let _ = Execution::new(MeanValue, &inits).lookahead();
    }
}
