//! Approximate consensus on top of asymptotic consensus (paper §9).
//!
//! In the approximate consensus problem each agent must **irrevocably
//! decide** a value; decisions must be within `ε` of each other
//! (ε-Agreement) and inside the convex hull of the initial values
//! (Validity). The paper derives decision-time lower bounds from its
//! contraction-rate bounds:
//!
//! | Theorem | Model | Lower bound on decision time |
//! |---|---|---|
//! | 8 | `{H0,H1,H2}`, n = 2 | `log_3 (Δ/ε)` |
//! | 9 | `deaf(G)`, n ≥ 3 | `log_2 (Δ/ε)` |
//! | 10 | Ψ graphs, n ≥ 4 | `(n−2)·log_2 (Δ/ε)` |
//! | 11 | exact consensus unsolvable | `log_{D+1} (Δ/(εn))` |
//!
//! The deciding versions of the algorithms of \[9\] match these bounds
//! (up to the stated factors), which this crate makes executable:
//!
//! * [`Decider`] — wraps any asymptotic algorithm with a decision round
//!   `T(Δ, ε)`; the wrapper is itself an [`Algorithm`], so it runs under
//!   any pattern/adversary;
//! * [`rules`] — the decision rounds of the paper's matching algorithms
//!   and the lower-bound formulas of Theorems 8–11.
//!
//! The empirical minimal decision time against an adversary (the first
//! round at which the adversarial execution's spread is ≤ ε) is a
//! [`Scenario`](consensus_dynamics::Scenario) with `.decide(ε)`.
//!
//! # Example
//!
//! ```
//! use consensus_approx::rules;
//! use consensus_algorithms::{Midpoint, Point};
//! use consensus_digraph::Digraph;
//! use consensus_dynamics::Scenario;
//! use consensus_valency::adversary;
//!
//! // Midpoint + Theorem 2 adversary: deciding earlier than
//! // ⌈log2(Δ/ε)⌉ rounds would violate ε-agreement.
//! let adv = adversary::theorem2(&Digraph::complete(3));
//! let t = Scenario::new(Midpoint, &[Point([0.0]), Point([1.0]), Point([0.5])])
//!     .adversary(adv.driver())
//!     .decide(1e-3)
//!     .decision_round(64);
//! assert_eq!(t, Some(rules::midpoint_decision_round(1.0, 1e-3)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rules;

use consensus_algorithms::{Agent, Algorithm, Inbox, Point};

/// A deciding wrapper: runs the base algorithm and irrevocably decides
/// the base output at round `decision_round` (paper §9: `d_i` is written
/// once). After deciding, the wrapped agent keeps relaying base messages
/// (harmless) but its output is frozen to the decision.
///
/// The decision round itself comes from a spread measurement: either a
/// closed-form rule ([`rules`]) or an empirical minimal decision round
/// (a [`Scenario`](consensus_dynamics::Scenario) with `.decide(ε)`),
/// which is parameterised by the
/// [`Metric`](consensus_dynamics::Metric) abstraction — hull-diameter
/// ε-agreement by default, so multidimensional deciders are safe
/// without projecting to a scalar.
#[derive(Debug, Clone)]
pub struct Decider<A> {
    base: A,
    decision_round: u64,
}

/// State of [`Decider`].
#[derive(Debug, Clone)]
pub struct DeciderState<S, const D: usize> {
    base: S,
    decision: Option<Point<D>>,
}

impl<A> Decider<A> {
    /// Wraps `base`, deciding after `decision_round ≥ 1` rounds.
    #[must_use]
    pub fn new(base: A, decision_round: u64) -> Self {
        Decider {
            base,
            decision_round,
        }
    }

    /// The wrapped algorithm.
    #[must_use]
    pub fn base(&self) -> &A {
        &self.base
    }

    /// The configured decision round.
    #[must_use]
    pub fn decision_round(&self) -> u64 {
        self.decision_round
    }
}

impl<A: Algorithm<D>, const D: usize> Algorithm<D> for Decider<A> {
    type State = DeciderState<A::State, D>;
    type Msg = A::Msg;

    fn name(&self) -> std::borrow::Cow<'static, str> {
        std::borrow::Cow::Owned(format!(
            "decide@{}({})",
            self.decision_round,
            self.base.name()
        ))
    }

    fn init(&self, agent: Agent, y0: Point<D>) -> Self::State {
        DeciderState {
            base: self.base.init(agent, y0),
            decision: None,
        }
    }

    fn message(&self, state: &Self::State) -> A::Msg {
        self.base.message(&state.base)
    }

    fn step(&self, agent: Agent, state: &mut Self::State, inbox: Inbox<'_, A::Msg>, round: u64) {
        self.base.step(agent, &mut state.base, inbox, round);
        if state.decision.is_none() && round >= self.decision_round {
            state.decision = Some(self.base.output(&state.base));
        }
    }

    fn output(&self, state: &Self::State) -> Point<D> {
        state
            .decision
            .unwrap_or_else(|| self.base.output(&state.base))
    }

    fn is_convex_combination(&self) -> bool {
        self.base.is_convex_combination()
    }
}

/// Whether a set of decisions satisfies **ε-Agreement** (§9).
#[must_use]
pub fn epsilon_agreement<const D: usize>(decisions: &[Point<D>], eps: f64) -> bool {
    consensus_algorithms::diameter(decisions) <= eps
}

/// Whether the decisions satisfy **Validity**: each lies in the convex
/// hull of the initial values (exact for `D ∈ {1, 2, 3}` via
/// [`consensus_algorithms::in_convex_hull`], bounding-box for `D ≥ 4`).
#[must_use]
pub fn validity<const D: usize>(decisions: &[Point<D>], inits: &[Point<D>], tol: f64) -> bool {
    decisions
        .iter()
        .all(|d| consensus_algorithms::in_convex_hull(d, inits, tol))
}

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_algorithms::Midpoint;
    use consensus_digraph::Digraph;
    use consensus_dynamics::{pattern::ConstantPattern, Execution, Scenario};

    #[test]
    fn decider_freezes_output() {
        let alg = Decider::new(Midpoint, 2);
        let inits = [Point([0.0]), Point([1.0])];
        let mut exec = Execution::new(alg, &inits);
        let k2 = Digraph::complete(2);
        exec.step(&k2);
        // Round 1: not yet decided; output follows base (0.5, 0.5).
        assert_eq!(exec.outputs(), vec![Point([0.5]), Point([0.5])]);
        exec.step(&k2);
        let decided = exec.outputs();
        // Decisions at round 2.
        exec.step(&k2.make_deaf(0));
        exec.step(&k2.make_deaf(1));
        assert_eq!(exec.outputs(), decided, "decisions are irrevocable");
    }

    #[test]
    fn decided_values_satisfy_contract() {
        let inits = [Point([0.0]), Point([0.6]), Point([1.0])];
        let alg = Decider::new(Midpoint, 12);
        let mut sc = Scenario::new(alg, &inits).pattern(ConstantPattern::new(Digraph::complete(3)));
        sc.advance(14);
        let ds = sc.execution().outputs();
        assert!(epsilon_agreement(&ds, 1e-3));
        assert!(validity(&ds, &inits, 1e-12));
    }

    #[test]
    fn early_decision_breaks_epsilon_agreement() {
        // Decide at round 1 under the deaf adversary: spread is still
        // 1/2 > ε — exactly the phenomenon behind Theorem 9.
        let inits = [Point([0.0]), Point([1.0]), Point([1.0])];
        let alg = Decider::new(Midpoint, 1);
        let mut exec = Execution::new(alg, &inits);
        exec.step(&Digraph::complete(3).make_deaf(0));
        let ds = exec.outputs();
        assert!(!epsilon_agreement(&ds, 1e-3));
        assert!(validity(&ds, &inits, 1e-12));
    }
}
