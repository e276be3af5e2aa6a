//! The registry grids of the `sweep` bin (see [`crate::orchestrate`]):
//! the paper's measured artefacts ([`PaperSpec`]), the averaging
//! ensemble, the multidimensional decision times and the dynamic-network
//! rates. The adversary-search grid lives in [`crate::advsearch`].

use std::collections::BTreeMap;
use std::ops::ControlFlow;

use consensus_obs::{lane, TraceHandle};
use tight_bounds_consensus::algorithms::diameter;
use tight_bounds_consensus::approx::rules;
use tight_bounds_consensus::asyncsim::engine::{ConstantDelay, Simulation};
use tight_bounds_consensus::asyncsim::min_relay::{cascade_crashes, MinRelay};
use tight_bounds_consensus::asyncsim::na_adversary;
use tight_bounds_consensus::prelude::*;
use tight_bounds_consensus::sweep::{fingerprint, EnsembleCell};
use tight_bounds_consensus::valency::adversary::{AdversaryTrace, GreedyValencyAdversary};

use crate::obswire;
use crate::orchestrate::{run_grid, Grid};
use crate::tablefmt::{interval, mark, rate, section, Table};

/// Evenly spread initial values on `\[0, 1\]` for `n` agents.
#[must_use]
pub fn spread_inits(n: usize) -> Vec<Point<1>> {
    (0..n)
        .map(|i| Point([i as f64 / (n - 1).max(1) as f64]))
        .collect()
}

/// A scalar algorithm of the paper rows.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Alg {
    TwoAgentThirds,
    Midpoint,
    MeanValue,
    Amortized,
    Overshoot(f64),
    Windowed(usize),
    SelfWeighted(f64),
}

impl Alg {
    fn name(self) -> String {
        match self {
            Alg::TwoAgentThirds => "two-agent-thirds".into(),
            Alg::Midpoint => "midpoint".into(),
            Alg::MeanValue => "mean-value".into(),
            Alg::Amortized => "amortized-midpoint".into(),
            Alg::Overshoot(k) => format!("overshoot({k})"),
            Alg::Windowed(w) => format!("windowed-midpoint({w})"),
            Alg::SelfWeighted(w) => format!("self-weighted({w})"),
        }
    }
}

/// A network model of the paper rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Model {
    /// `{H0, H1, H2}` (Figure 1).
    TwoAgent,
    Deaf(usize),
    /// The Ψ graphs (Figure 2).
    Psi(usize),
    /// `{K_n}`: exact consensus is solvable.
    Singleton(usize),
    Rooted(usize),
    Nonsplit(usize),
    /// `N_A(n, f)`: asynchronous rounds with `f` crashes.
    AsyncCrash(usize, usize),
}

impl Model {
    fn build(self) -> NetworkModel {
        match self {
            Model::TwoAgent => NetworkModel::two_agent(),
            Model::Deaf(n) => NetworkModel::deaf(&Digraph::complete(n)),
            Model::Psi(n) => NetworkModel::psi(n),
            Model::Singleton(n) => NetworkModel::singleton(Digraph::complete(n)),
            Model::Rooted(n) => NetworkModel::all_rooted(n),
            Model::Nonsplit(n) => NetworkModel::all_nonsplit(n),
            Model::AsyncCrash(n, f) => NetworkModel::async_crash(n, f),
        }
    }

    fn n(self) -> usize {
        match self {
            Model::TwoAgent => 2,
            Model::Deaf(n) | Model::Psi(n) | Model::Singleton(n) => n,
            Model::Rooted(n) | Model::Nonsplit(n) | Model::AsyncCrash(n, _) => n,
        }
    }

    /// The model's name and size, e.g. `deaf(K_4) n=4`.
    fn name(self) -> String {
        let name = match self {
            Model::TwoAgent => "{H0,H1,H2}".into(),
            Model::Deaf(n) => format!("deaf(K_{n})"),
            Model::Psi(n) => format!("Ψ({n})"),
            Model::Singleton(n) => format!("{{K_{n}}}"),
            Model::Rooted(n) => format!("rooted({n})"),
            Model::Nonsplit(n) => format!("nonsplit({n})"),
            Model::AsyncCrash(n, f) => format!("N_A({n},{f})"),
        };
        format!("{name} n={}", self.n())
    }

    /// The α-diameter the paper states for the model (§7: 2 for
    /// `{H0,H1,H2}`, 1 for `deaf(G)`).
    fn paper_diameter(self) -> Option<usize> {
        match self {
            Model::TwoAgent | Model::Rooted(2) => Some(2),
            Model::Deaf(_) => Some(1),
            _ => None,
        }
    }
}

/// A solvability quantity of a model (Theorems 4 and 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Quantity {
    /// `|N|`, the number of graphs.
    Size,
    /// 1 when every graph is rooted.
    Rooted,
    /// 1 when exact consensus is solvable.
    ExactSolvable,
    BetaClasses,
    /// `D`; infinite when the α-graph is disconnected.
    AlphaDiameter,
}

/// What one paper row measures. Every measurement is deterministic and
/// seed-free, so a row is a pure function of its `Measure`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Measure {
    /// `(thm, model, alg, steps)`: `δ̂` per round of Theorem `thm`'s
    /// greedy valency adversary on `model` against `alg`, from spread
    /// values, over `steps` adversary steps (σ-blocks for Theorem 3).
    Valency(usize, Model, Alg, usize),
    /// `(n, steps)`: the amortized midpoint's value spread per round under
    /// Theorem 3's σ-adversary on Ψ(n), `(Δ_t/Δ_0)^{1/t}` at the last block
    /// end `t` that is a whole number of its `n − 1`-round macro-rounds.
    PsiValues(usize, usize),
    /// `(n)`: the midpoint's spread after one round of `K_n`.
    OneRound(usize),
    /// `(mean, n, f, rounds)`: the steady-state rate of averaging under
    /// split omission (`mean`), or of the midpoint with an isolated
    /// minority.
    Async(bool, usize, usize, usize),
    /// `(n, f, half)`: MinRelay's spread under cascading crashes at time
    /// `f + 1/2` (`half`) or `f + 1`.
    Relay(usize, usize, bool),
    /// `(thm, ratio)`: the first round with spread ≤ `1/ratio` under the
    /// adversary of decision-time Theorem `thm` (8–11).
    Decision(usize, f64),
    Solvability(Model, Quantity),
    /// `(n, f)`: the length of Lemma 24's certified α-chain in `N_A(n, f)`.
    Chain(usize, usize),
    /// `(n)`: Lemma 14 for the midpoint on Ψ(n): 1 when, for every prefix
    /// `k ∈ [n−2]`, `σ^k_1.C` and `σ^k_2.C` look alike to agent 3 and to
    /// agents `k+3..n`.
    Lemma14(usize),
    /// `(n)`: §1, the value mass splitting converges to on the fixed
    /// `n`-cycle.
    MassSplitting(usize),
}

/// The valency theorem, model, algorithm and round budget of
/// decision-time Theorem `thm` (8–11).
fn decision_setup(thm: usize) -> (usize, Model, Alg, usize) {
    match thm {
        8 => (1, Model::TwoAgent, Alg::TwoAgentThirds, 80),
        9 => (2, Model::Deaf(3), Alg::Midpoint, 80),
        10 => (3, Model::Psi(5), Alg::Amortized, 400),
        _ => (5, Model::TwoAgent, Alg::TwoAgentThirds, 80),
    }
}

/// Theorem `thm`'s greedy valency adversary on `model`.
fn adversary_of(thm: usize, model: Model) -> GreedyValencyAdversary {
    match thm {
        1 => adversary::theorem1(),
        2 => adversary::theorem2(&Digraph::complete(model.n())),
        3 => adversary::theorem3(model.n()),
        _ => adversary::theorem5(&model.build()),
    }
}

/// Drives `alg` from spread values against `adv` for `steps` adversary
/// steps: the adversary's record, and the row of its `δ̂` rate.
fn valency<A: Algorithm<1> + Clone>(
    alg: A,
    adv: &GreedyValencyAdversary,
    n: usize,
    steps: usize,
) -> (AdversaryTrace, CellOutcome) {
    let mut exec = Execution::new(alg, &spread_inits(n));
    let rec = adv.drive(&mut exec, steps);
    let o = CellOutcome {
        rate: rec.per_round_rate(),
        converged: rec.converged,
        ..executed(&exec)
    };
    (rec, o)
}

/// The first round with spread ≤ `eps` when `alg` runs from spread
/// values against `adv` within `budget` rounds: the row of a decision
/// time.
fn decide<A: Algorithm<1> + Clone>(
    alg: A,
    adv: &GreedyValencyAdversary,
    n: usize,
    eps: f64,
    budget: usize,
) -> CellOutcome {
    let mut sc = Scenario::new(alg, &spread_inits(n))
        .adversary(adv.driver())
        .decide(eps);
    let t = sc.decision_round(budget);
    CellOutcome {
        decision_round: t,
        converged: t.is_some(),
        ..executed(sc.execution())
    }
}

/// The row of a finished execution: its rounds and fingerprint, no
/// number yet.
fn executed<A: Algorithm<1>>(exec: &Execution<A, 1>) -> CellOutcome {
    CellOutcome {
        rate: f64::NAN,
        decision_round: None,
        rounds: exec.round(),
        converged: true,
        fingerprint: fingerprint(exec.outputs_slice()),
    }
}

/// Runs `sc` for `rounds` rounds: the row of its steady-state rate.
fn steady_rate<A: Algorithm<1>, Dr: scenario::Driver<A, 1>>(
    mut sc: Scenario<A, Dr, 1>,
    rounds: usize,
) -> CellOutcome {
    let rate = sc.run(rounds).rates().steady_state;
    CellOutcome {
        rate,
        ..executed(sc.execution())
    }
}

/// The number a paper row holds: the decision round of a decision-time
/// row, else its `rate` field.
fn row_value(o: &CellOutcome) -> f64 {
    o.decision_round.map_or(o.rate, |t| t as f64)
}

/// A row's number as the tables print it: whole numbers (counts, rounds,
/// diameters, 0/1 verdicts) as they are, others to four decimals.
fn show(v: f64) -> String {
    if v.fract() == 0.0 {
        format!("{v}")
    } else {
        rate(v)
    }
}

/// A tolerance and why the measurement needs it.
type Tol = (f64, &'static str);

const EXACT: Tol = (0.0, "exact");
pub(crate) const PROBE: Tol = (5e-3, "δ̂ comes from probe limits, which are estimates");
const SIGMA: Tol = (1e-2, "δ̂ over a few σ-blocks of probe estimates");
const RATE: Tol = (1e-6, "float round-off in the rate");
const MASS: Tol = (1e-6, "the drive stops once the spread is ≤ 1e-9");
const ROUNDOFF: Tol = (1e-9, "float round-off");

/// What a row's number must satisfy, `lo ≤ value ≤ hi`: its relation to
/// the paper's closed form with the tolerance (`rel`, the tables' `paper`
/// column), and why the tolerance is needed.
#[derive(Debug, Clone, PartialEq)]
struct Claim {
    lo: f64,
    hi: f64,
    rel: String,
    why: String,
}

impl Claim {
    /// `value op paper`, where `op` is `=` (within `tol`), `≥` or `≤`
    /// (below or above by at most `tol`).
    fn new(op: char, target: f64, paper: &str, (tol, why): Tol) -> Claim {
        let (lo, hi, sign) = match op {
            '=' => (target - tol, target + tol, '±'),
            '≥' => (target - tol, f64::INFINITY, '−'),
            _ => (f64::NEG_INFINITY, target + tol, '+'),
        };
        let rel = match tol {
            0.0 => format!("{op} {paper}"),
            _ => format!("{op} {paper} {sign} {tol:e}"),
        };
        let why = why.into();
        Claim { lo, hi, rel, why }
    }

    /// Whether `value` satisfies the claim (`NaN` never does).
    fn holds(&self, value: f64) -> bool {
        self.lo <= value && value <= self.hi
    }
}

impl Measure {
    /// The row label: the [`bounds::theorems`] key (or `lemma14`,
    /// `lemma24`, `§1`), the algorithm, the model and its size, the run
    /// length, and the quantity the row holds.
    fn label(&self) -> String {
        let key = |t: usize| bounds::theorems()[t - 1].key;
        match *self {
            Measure::Valency(thm, model, alg, steps) => {
                let (alg, model) = (alg.name(), model.name());
                format!("{} {alg} {model} steps={steps} valency-rate", key(thm))
            }
            Measure::PsiValues(n, steps) => {
                format!(
                    "{} amortized-midpoint Ψ({n}) n={n} steps={steps} value-rate",
                    key(3)
                )
            }
            Measure::OneRound(n) => {
                format!("{} midpoint {{K_{n}}} n={n} rounds=1 spread", key(4))
            }
            Measure::Async(mean, n, f, rounds) => {
                let run = if mean {
                    "mean-value split-omission"
                } else {
                    "midpoint isolate-minority"
                };
                format!("{} {run} n={n} f={f} rounds={rounds} rate", key(6))
            }
            Measure::Relay(n, f, half) => {
                let t = if half { "f+1/2" } else { "f+1" };
                format!(
                    "{} min-relay cascading-crashes n={n} f={f} spread@{t}",
                    key(7)
                )
            }
            Measure::Decision(thm, ratio) => {
                let (_, model, alg, _) = decision_setup(thm);
                let (alg, model) = (alg.name(), model.name());
                format!("{} {alg} {model} Δ/ε={ratio} decision-round", key(thm))
            }
            Measure::Solvability(model, q) => {
                let (thm, what) = match q {
                    Quantity::Size => (4, "size"),
                    Quantity::Rooted => (4, "rooted"),
                    Quantity::ExactSolvable => (4, "exact-solvable"),
                    Quantity::BetaClasses => (4, "beta-classes"),
                    Quantity::AlphaDiameter => (5, "alpha-diameter"),
                };
                format!("{} {} {what}", key(thm), model.name())
            }
            Measure::Chain(n, f) => format!("lemma24 N_A({n},{f}) n={n} chain-length"),
            Measure::Lemma14(n) => format!("lemma14 midpoint Ψ({n}) n={n} indistinguishable"),
            Measure::MassSplitting(n) => format!("§1 mass-splitting cycle({n}) n={n} limit"),
        }
    }

    /// Runs the measurement. The number lands in `rate`, or in
    /// `decision_round` for a decision time ([`row_value`]).
    fn run(&self) -> CellOutcome {
        match *self {
            Measure::Valency(thm, model, alg, steps) => {
                let (adv, n) = (adversary_of(thm, model), model.n());
                match alg {
                    Alg::TwoAgentThirds => valency(TwoAgentThirds, &adv, n, steps).1,
                    Alg::Midpoint => valency(Midpoint, &adv, n, steps).1,
                    Alg::MeanValue => valency(MeanValue, &adv, n, steps).1,
                    Alg::Amortized => valency(AmortizedMidpoint::for_agents(n), &adv, n, steps).1,
                    Alg::Overshoot(k) => valency(Overshoot::new(k), &adv, n, steps).1,
                    Alg::Windowed(w) => valency(WindowedMidpoint::new(w), &adv, n, steps).1,
                    Alg::SelfWeighted(w) => valency(SelfWeightedAverage::new(w), &adv, n, steps).1,
                }
            }
            Measure::PsiValues(n, steps) => {
                let alg = AmortizedMidpoint::for_agents(n);
                let (tr, o) = valency(alg, &adversary::theorem3(n), n, steps);
                let (t, d) = (1..tr.value_diameters.len())
                    .rev()
                    .map(|k| (k * (n - 2), tr.value_diameters[k]))
                    .find(|(t, _)| t % (n - 1) == 0)
                    .expect("some block end aligns with a macro-round");
                let rate = (d / tr.value_diameters[0]).powf(1.0 / t as f64);
                CellOutcome { rate, ..o }
            }
            Measure::OneRound(n) => {
                let mut exec = Execution::new(Midpoint, &spread_inits(n));
                exec.step(&Digraph::complete(n));
                CellOutcome {
                    rate: exec.value_diameter(),
                    ..executed(&exec)
                }
            }
            Measure::Async(true, n, f, rounds) => steady_rate(
                Scenario::new(MeanValue, &na_adversary::bipolar_inits(n))
                    .adversary(na_adversary::SplitOmission::new(f)),
                rounds,
            ),
            Measure::Async(false, n, f, rounds) => steady_rate(
                Scenario::new(Midpoint, &na_adversary::minority_inits(n, f))
                    .adversary(na_adversary::IsolateMinority::new(f)),
                rounds,
            ),
            Measure::Relay(n, f, half) => {
                let inits: Vec<f64> = (0..n).map(|i| f64::from(u8::from(i > 0))).collect();
                let delay = Box::new(ConstantDelay::new(1.0));
                let mut sim = Simulation::new(MinRelay, &inits, f, delay, cascade_crashes(n, f));
                sim.run_until(f as f64 + if half { 0.5 } else { 1.0 + 1e-9 });
                CellOutcome::of_rate(sim.correct_diameter(), 0)
            }
            Measure::Decision(thm, ratio) => {
                let (valency_thm, model, alg, budget) = decision_setup(thm);
                let (adv, n, eps) = (adversary_of(valency_thm, model), model.n(), 1.0 / ratio);
                // `decision_setup` names only these three algorithms.
                match alg {
                    Alg::TwoAgentThirds => decide(TwoAgentThirds, &adv, n, eps, budget),
                    Alg::Midpoint => decide(Midpoint, &adv, n, eps, budget),
                    _ => decide(AmortizedMidpoint::for_agents(n), &adv, n, eps, budget),
                }
            }
            Measure::Solvability(model, q) => {
                let m = model.build();
                let v = match q {
                    Quantity::Size => m.len() as f64,
                    Quantity::Rooted => f64::from(u8::from(beta::analyze(&m).asymptotic_solvable)),
                    Quantity::ExactSolvable => {
                        f64::from(u8::from(beta::analyze(&m).exact_solvable))
                    }
                    Quantity::BetaClasses => beta::analyze(&m).beta_class_sizes.len() as f64,
                    Quantity::AlphaDiameter => alpha::alpha_diameter(&m)
                        .finite()
                        .map_or(f64::INFINITY, |d| d as f64),
                };
                CellOutcome::of_rate(v, 0)
            }
            Measure::Chain(n, f) => {
                let g = Digraph::complete(n);
                let mut h = Digraph::complete(n);
                for i in 0..n {
                    h.remove_edge((i + 1) % n, i); // one non-self edge per agent
                }
                let q = alpha::lemma24_chain_check(&g, &h, f);
                CellOutcome {
                    converged: q.is_ok(),
                    ..CellOutcome::of_rate(q.map_or(f64::NAN, |q| q as f64), 0)
                }
            }
            Measure::Lemma14(n) => {
                // Midpoint states are its outputs: equal outputs are
                // indistinguishable configurations.
                let prefix = |i: usize, k: usize| {
                    let mut e = Execution::new(Midpoint, &spread_inits(n));
                    for _ in 0..k {
                        e.step(&families::psi(n, i));
                    }
                    e.outputs()
                };
                let alike = (1..=n - 2).all(|k| {
                    let (s1, s2) = (prefix(0, k), prefix(1, k));
                    // Agent 3 and agents k+3..n, 0-based.
                    s1[2] == s2[2] && (k + 2..n).all(|m| s1[m] == s2[m])
                });
                CellOutcome::of_rate(f64::from(u8::from(alike)), 0)
            }
            Measure::MassSplitting(n) => {
                const BUDGET: usize = 2000;
                let g = families::cycle(n);
                let mut sc = Scenario::new(MassSplitting::new(&g), &spread_inits(n))
                    .pattern(pattern::ConstantPattern::new(g))
                    .until_converged(1e-9);
                let rounds = sc.run(BUDGET).rounds();
                let exec = sc.execution();
                CellOutcome {
                    rate: exec.outputs_slice()[0][0],
                    converged: rounds < BUDGET,
                    ..executed(exec)
                }
            }
        }
    }

    /// The paper's claim about the row's number, if it makes one.
    fn claim(&self) -> Option<Claim> {
        let (third, half) = (bounds::theorem1_lower(), bounds::theorem2_lower());
        Some(match *self {
            Measure::Valency(1, _, Alg::TwoAgentThirds, _) => {
                Claim::new('=', third, "1/3 (tight)", PROBE)
            }
            Measure::Valency(1, ..) => Claim::new('≥', third, "1/3", PROBE),
            Measure::Valency(2, _, Alg::Midpoint, _) => Claim::new('=', half, "1/2 (tight)", PROBE),
            Measure::Valency(2, ..) => Claim::new('≥', half, "1/2", PROBE),
            Measure::Valency(3, model, ..) => {
                let lo = bounds::theorem3_lower(model.n());
                Claim::new('≥', lo, &format!("(1/2)^(1/(n−2)) = {}", rate(lo)), SIGMA)
            }
            Measure::Valency(_, model, ..) => {
                let d = model.paper_diameter()?;
                let lo = bounds::theorem5_lower(d);
                Claim::new('≥', lo, &format!("1/(D+1) = {} at D={d}", rate(lo)), PROBE)
            }
            Measure::PsiValues(n, _) => {
                let hi = bounds::amortized_midpoint_upper(n);
                Claim::new('≤', hi, &format!("(1/2)^(1/(n−1)) = {}", rate(hi)), RATE)
            }
            Measure::OneRound(_) => Claim::new('=', 0.0, "0 (exactly solvable)", EXACT),
            Measure::Async(true, n, f, _) => {
                let (lo, hi) = bounds::table1_async_interval(n, f);
                let mut c = Claim::new('≥', lo, &format!("1/(⌈n/f⌉+1) = {}", rate(lo)), ROUNDOFF);
                c.why += &format!(
                    "; only Theorem 6's floor is claimed: the mean rule's worst case f/(n−f) \
                     passes the interval's upper end {} when f ∤ n",
                    rate(hi)
                );
                c
            }
            Measure::Async(..) => Claim::new('=', half, "1/2", RATE),
            Measure::Relay(_, _, true) => Claim::new(
                '≥',
                f64::MIN_POSITIVE,
                "the least normal float, so > 0",
                EXACT,
            ),
            Measure::Relay(..) => Claim::new('=', 0.0, "0 (agreed by time f+1)", EXACT),
            Measure::Decision(thm, ratio) => {
                use rules::*;
                let (e, ceil) = (1.0 / ratio, |t: u64, log| format!("⌈{log}(Δ/ε)⌉ = {t}"));
                match thm {
                    8 => {
                        let t = two_agent_decision_round(1.0, e);
                        Claim::new('=', t as f64, &ceil(t, "log3"), EXACT)
                    }
                    9 => {
                        let t = midpoint_decision_round(1.0, e);
                        Claim::new('=', t as f64, &ceil(t, "log2"), EXACT)
                    }
                    10 => {
                        let (lo, t) = (
                            thm10_lower_bound(5, 1.0, e),
                            amortized_decision_round(5, 1.0, e),
                        );
                        Claim {
                            lo: lo - 3.0,
                            hi: t as f64 + 3.0,
                            rel: format!(
                                "∈ [(n−2)·log2(Δ/ε), {t}] ± (n−2) = [{:.2}, {}]",
                                lo - 3.0,
                                t + 3
                            ),
                            why: "T is read at σ-blocks of n−2 rounds".into(),
                        }
                    }
                    _ => {
                        let lo = thm11_lower_bound(2, 2, 1.0, e);
                        Claim::new('≥', lo, &format!("log3(Δ/(εn)) = {lo:.2}"), ROUNDOFF)
                    }
                }
            }
            Measure::Solvability(model, Quantity::ExactSolvable) => match model {
                Model::Singleton(_) => Claim::new('=', 1.0, "1 (one graph)", EXACT),
                Model::TwoAgent | Model::Deaf(_) | Model::Psi(_) => {
                    Claim::new('=', 0.0, "0 (Theorems 1–3 bound its rate > 0)", EXACT)
                }
                _ => return None,
            },
            Measure::Solvability(Model::AsyncCrash(n, f), Quantity::AlphaDiameter) => {
                let q = n.div_ceil(f);
                Claim::new('≤', q as f64, &format!("⌈n/f⌉ = {q} (Lemma 24)"), EXACT)
            }
            Measure::Solvability(model, Quantity::AlphaDiameter) => {
                let d = model.paper_diameter()?;
                Claim::new('=', d as f64, &format!("{d} (§7)"), EXACT)
            }
            Measure::Solvability(..) => return None,
            Measure::Chain(n, f) => {
                let q = n.div_ceil(f);
                Claim::new('=', q as f64, &format!("⌈n/f⌉ = {q}"), EXACT)
            }
            Measure::Lemma14(_) => Claim::new('=', 1.0, "1 (alike after every prefix)", EXACT),
            Measure::MassSplitting(_) => Claim::new('=', 0.5, "1/2, the initial average", MASS),
        })
    }
}

/// One table of the paper report: its title, the column heads (the text
/// columns, then the measured ones; an `ok` column follows), the rows and
/// a closing note.
struct Section {
    title: &'static str,
    /// The heads, comma-separated.
    head: &'static str,
    rows: Vec<(Vec<String>, Vec<Measure>)>,
    note: &'static str,
}

impl Section {
    /// A table of one row per measurement: its label, its claim's
    /// relation to the paper, and the number.
    fn list(title: &'static str, cells: Vec<Measure>, note: &'static str) -> Section {
        let row = |m: Measure| {
            (
                vec![m.label(), m.claim().map_or("-".into(), |c| c.rel)],
                vec![m],
            )
        };
        let rows = cells.into_iter().map(row).collect();
        let head = "row,paper,measured";
        Section {
            title,
            head,
            rows,
            note,
        }
    }
}

/// One cell of the `paper` grid: one measured number of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperCell(Measure);

/// Configuration of the **`paper`** grid: every measured artefact of the
/// paper (Table 1, Theorems 1–11, Lemmas 14 and 24, the §1 ablations),
/// one row per number, each with the claim the paper makes about it.
#[derive(Debug, Clone)]
pub struct PaperSpec {
    /// Report name (embedded in the JSON).
    pub name: String,
    /// Base seed (cells are seed-free; recorded for the report header).
    pub base_seed: u64,
    /// Short drives and three `Δ/ε` ratios (`quick`), or longer drives
    /// and five ratios (`full`).
    pub quick: bool,
}

impl PaperSpec {
    /// The report's tables, in paper order. A measurement two tables
    /// print is one cell.
    fn layout(&self) -> Vec<Section> {
        use Alg::*;
        use Model::{AsyncCrash, Deaf, Nonsplit, Psi, Singleton, TwoAgent};
        use Quantity::*;
        let q = |quick: usize, full| if self.quick { quick } else { full };
        let s = q(8, 12);
        let (v, relay) = (Measure::Valency, Measure::Relay);
        let mut table1 = vec![
            v(1, TwoAgent, TwoAgentThirds, s),
            v(5, TwoAgent, TwoAgentThirds, s),
        ];
        table1.extend([3, 4, 6].map(|n| v(2, Deaf(n), Midpoint, s)));
        table1.extend([Measure::OneRound(4), v(5, Deaf(4), Midpoint, s)]);
        for n in [4, 6] {
            let steps = q(6, 10);
            table1.extend([v(3, Psi(n), Amortized, steps), Measure::PsiValues(n, steps)]);
        }
        table1.extend([(4, 1), (6, 2), (8, 3)].map(|(n, f)| Measure::Async(true, n, f, 20)));
        table1.extend([(4, 1), (6, 2)].map(|(n, f)| relay(n, f, false)));

        let mut by_alg = [TwoAgentThirds, Midpoint, MeanValue, Overshoot(0.4)]
            .map(|a| v(1, TwoAgent, a, s))
            .to_vec();
        let thm2 = [MeanValue, Windowed(3), Overshoot(0.6), SelfWeighted(0.5)];
        by_alg.extend(
            [Midpoint]
                .into_iter()
                .chain(thm2)
                .map(|a| v(2, Deaf(4), a, s)),
        );
        for n in [4, 5, 6] {
            by_alg.extend([Amortized, Midpoint].map(|a| v(3, Psi(n), a, q(5, 8))));
        }
        by_alg.push(Measure::Lemma14(6));

        let models = [
            TwoAgent,
            Deaf(3),
            Deaf(4),
            Deaf(6),
            Psi(5),
            Psi(6),
            Singleton(4),
        ];
        let more = [
            Model::Rooted(2),
            Model::Rooted(3),
            Nonsplit(3),
            AsyncCrash(3, 1),
        ];
        let quantities = [Size, Rooted, ExactSolvable, BetaClasses, AlphaDiameter];
        let models = (models.into_iter().chain(more).chain([AsyncCrash(4, 1)]))
            .map(|m| {
                (
                    vec![m.name()],
                    quantities.map(|q| Measure::Solvability(m, q)).to_vec(),
                )
            })
            .collect();
        let chains = [(6, 2), (8, 3), (12, 4), (16, 5)].map(|(n, f)| Measure::Chain(n, f));
        let decisions = ([1e1, 1e2, 1e3, 1e4, 1e5][..q(3, 5)].iter())
            .flat_map(|&ratio| [8, 9, 10, 11].map(|thm| Measure::Decision(thm, ratio)))
            .collect();
        let asynchronous = [(4, 1), (6, 1), (6, 2), (8, 2), (8, 3)].map(|(n, f)| {
            let (lo, hi) = bounds::table1_async_interval(n, f);
            let rounds = q(16, 24);
            let cells = [true, false].map(|mean| Measure::Async(mean, n, f, rounds));
            (
                vec![n.to_string(), f.to_string(), interval(lo, hi)],
                cells.to_vec(),
            )
        });
        let relays = [(4, 1), (6, 2), (8, 3)].map(|(n, f)| {
            let cells = [true, false].map(|half| relay(n, f, half));
            let texts = vec![n.to_string(), f.to_string(), "0 at f+1 (tight)".into()];
            (texts, cells.to_vec())
        });
        let a = q(6, 10);
        let mut ablations = [0.0, 0.2, 0.4, 0.6, 0.8]
            .map(|k| v(2, Deaf(4), Overshoot(k), a))
            .to_vec();
        ablations.extend([1, 2, 4, 8].map(|w| v(2, Deaf(4), Windowed(w), a)));
        ablations.push(Measure::MassSplitting(5));

        vec![
            Section::list(
                "Table 1 — lower/upper bounds on contraction rates (paper vs measured)",
                table1,
                "",
            ),
            Section::list(
                "Theorems 1–3 — adversarial contraction rates by algorithm",
                by_alg,
                "\nnote: the optimal algorithm meets its bound exactly; averaging is strictly\n\
                 slower (its worst case is 1 − 1/n, see [7]); memory (windowed) and\n\
                 non-convexity (overshoot) do not beat the bounds — the paper's headline.\n",
            ),
            Section {
                title: "Theorems 4/5 & §7 — solvability, β-classes and α-diameter",
                head: "model,|N|,rooted,exact-solvable,β-classes,α-diam D",
                rows: models,
                note: "",
            },
            Section::list(
                "Lemma 24 — certified α-chains in N_A(n,f), checked step by step",
                chains.to_vec(),
                "",
            ),
            Section::list(
                "Theorems 8–11 — decision times for approximate consensus",
                decisions,
                "\nmeasured T = first adversarial round with spread ≤ ε (deciding earlier\n\
                 would violate ε-agreement); Thm-10 rows are at σ-block granularity.\n",
            ),
            Section {
                title: "Theorems 6–7 — asynchronous systems with crashes",
                head: "n,f,paper interval (round-based),mean (worst),midpoint (worst)",
                rows: asynchronous.to_vec(),
                note: "\nround-based: the mean rule's worst case is f/(n−f), which equals the\n\
                       paper's upper end 1/(⌈n/f⌉−1) exactly when f divides n (rows 4/1, 6/1,\n\
                       6/2, 8/2); for f ∤ n (row 8/3) plain averaging is slightly slower and\n\
                       the exact upper end needs Fekete's full construction [18]. No schedule\n\
                       can beat the Theorem 6 floor 1/(⌈n/f⌉+1), the only bound claimed for\n\
                       the mean rule; midpoint is pinned at 1/2 — averaging wins, matching\n\
                       Table 1's shape.\n",
            },
            Section {
                title: "Theorem 7 — general algorithms (MinRelay)",
                head: "n,f,paper,spread @ t=f+1/2,spread @ t=f+1",
                rows: relays.to_vec(),
                note: "",
            },
            Section::list(
                "Ablations — the bounds hold for arbitrary algorithms (§1)",
                ablations,
                "\nmass splitting is not a convex-combination algorithm, yet it solves\n\
                 asymptotic consensus on a fixed graph, as §1 describes; its validity\n\
                 violations are demonstrated in the unit tests.\n",
            ),
        ]
    }
}

impl Grid for PaperSpec {
    const NAME: &'static str = "paper";
    const ABOUT: &'static str = "the paper's measured artefacts: Table 1, Theorems 1–11, Lemmas 14 and 24, the §1 ablations; one row per number, with its claim (presets: quick/golden | full)";
    type Cell = PaperCell;
    type Rows = [CellOutcome; 1];

    /// The named paper presets:
    ///
    /// * `quick` (alias `golden`) — the preset the golden test and the CI
    ///   `sweep-regression` job pin (`ci/golden_paper.json`). Its report
    ///   is named after the grid.
    /// * `full` — longer adversarial drives and two more `Δ/ε` ratios.
    fn preset(name: &str) -> Result<Self, SpecError> {
        let quick = match name {
            "quick" | "golden" => true,
            "full" => false,
            other => {
                return Err(SpecError::UnknownPreset {
                    grid: Self::NAME,
                    got: other.into(),
                    valid: "quick|golden|full",
                })
            }
        };
        let name = format!("{}{}", Self::NAME, if quick { "" } else { "_full" });
        let base_seed = if quick {
            42
        } else {
            consensus_sweep_default_seed()
        };
        Ok(PaperSpec {
            name,
            base_seed,
            quick,
        })
    }

    fn report_name(&self) -> &str {
        &self.name
    }

    fn base_seed(&self) -> u64 {
        self.base_seed
    }

    fn set_base_seed(&mut self, seed: u64) {
        self.base_seed = seed;
    }

    /// Every measurement of the layout once, in order of first appearance.
    fn cells(&self) -> Vec<PaperCell> {
        let mut cells: Vec<PaperCell> = Vec::new();
        let measures = self.layout().into_iter().flat_map(|s| s.rows);
        for m in measures.flat_map(|r| r.1) {
            if !cells.contains(&PaperCell(m)) {
                cells.push(PaperCell(m));
            }
        }
        cells
    }

    fn row_label(&self, cell: &PaperCell, _row: usize) -> String {
        cell.0.label()
    }

    /// Runs the cell's measurement. Cells are seed-free and record no
    /// events.
    fn run_cell(&self, cell: &PaperCell, _: CellCtx, _: &TraceHandle) -> [CellOutcome; 1] {
        [cell.0.run()]
    }

    /// The paper's tables. A row's `ok` is ✓ when the claims of all its
    /// cells hold, ✗ when one fails, and `-` when none is claimed.
    fn table(&self, report: &SweepReport) -> String {
        let labels = report.labels.iter().map(String::as_str);
        let at: BTreeMap<&str, &CellOutcome> = labels.zip(&report.outcomes).collect();
        let mut out = section(&format!(
            "Paper `{}` — {} measured rows, one number each",
            report.name,
            report.outcomes.len()
        ));
        for s in self.layout() {
            out.push_str(&section(s.title));
            let mut t = Table::new(&s.head.split(',').chain(["ok"]).collect::<Vec<_>>());
            for (mut cols, cells) in s.rows {
                let mut oks = Vec::new();
                for m in &cells {
                    let o = at[m.label().as_str()];
                    oks.extend(m.claim().map(|c| c.holds(row_value(o))));
                    cols.push(show(row_value(o)));
                }
                let ok = if oks.is_empty() {
                    "-"
                } else {
                    mark(!oks.contains(&false))
                };
                cols.push(ok.into());
                t.row(&cols);
            }
            out.push_str(&t.render());
            out.push_str(s.note);
        }
        out
    }

    /// One claim per claimed row: its label, the relation to the paper's
    /// closed form with the tolerance, and why that tolerance.
    fn claims(&self, report: &SweepReport) -> Vec<(String, bool)> {
        let cells = self.cells();
        assert_eq!(cells.len(), report.outcomes.len(), "one row per cell");
        cells
            .iter()
            .zip(&report.outcomes)
            .filter_map(|(PaperCell(m), o)| {
                let c = m.claim()?;
                let what = format!("{} {} ({})", m.label(), c.rel, c.why);
                Some((what, c.holds(row_value(o))))
            })
            .collect()
    }
}

/// Configuration of an **E-SWEEP ensemble sweep** (the `sweep` bin's
/// workload): a grid, a base seed, and the per-cell convergence target.
#[derive(Debug, Clone)]
pub struct EnsembleSpec {
    /// Report name (embedded in the JSON, so golden files are
    /// self-describing).
    pub name: String,
    /// The cartesian grid of cells.
    pub grid: EnsembleGrid,
    /// Base seed all per-cell seeds derive from.
    pub base_seed: u64,
    /// Convergence/decision threshold ε.
    pub tol: f64,
    /// Per-cell round budget (total horizon).
    pub max_rounds: usize,
}

/// A rejected preset or dimension lookup: carries the rejected value
/// and the valid set, so CLI layers ([`crate::experiments`] callers
/// like the `sweep` bin) can print it and exit cleanly instead of
/// unwinding with a backtrace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The preset name is not registered for the selected grid.
    UnknownPreset {
        /// The [`Grid::NAME`] of the grid whose preset table rejected
        /// the name.
        grid: &'static str,
        /// The rejected preset name.
        got: String,
        /// The accepted names, rendered `a|b|c`.
        valid: &'static str,
    },
    /// The cell's dimension is outside the monomorphised dispatch set.
    UnsupportedDimension {
        /// The rejected dimension.
        got: usize,
    },
    /// The grid name is not registered (see
    /// [`AnySpec::registry`](crate::orchestrate::AnySpec::registry)).
    UnknownGrid {
        /// The rejected grid name.
        got: String,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::UnknownPreset { grid, got, valid } => {
                write!(f, "unknown {grid} preset `{got}` (use {valid})")
            }
            SpecError::UnsupportedDimension { got } => {
                write!(
                    f,
                    "dimension {got} is not in the dispatch set {{1, 2, 3, 4, 8}}"
                )
            }
            SpecError::UnknownGrid { got } => {
                write!(
                    f,
                    "unknown grid `{got}` — run with --list to see the registry"
                )
            }
        }
    }
}

impl std::error::Error for SpecError {}

impl Grid for EnsembleSpec {
    const NAME: &'static str = "ensemble";
    const ABOUT: &'static str =
        "scalar averaging ensemble over random graph classes (presets: golden | quick | full)";
    type Cell = EnsembleCell;
    type Rows = [CellOutcome; 1];

    /// The named ensemble presets:
    ///
    /// * `golden` — the small fixed grid the CI `sweep-regression` job runs
    ///   and diffs against `ci/golden_sweep.json` (16 cells, seed 42).
    /// * `quick` — a fast smoke ensemble (36 cells).
    /// * `full` — the real ensemble (960 cells over 5 graph classes).
    fn preset(name: &str) -> Result<Self, SpecError> {
        Ok(match name {
            "golden" => EnsembleSpec {
                name: "golden".into(),
                grid: EnsembleGrid::new()
                    .agents(&[4, 6])
                    .topologies(&[Topology::Complete, Topology::Rooted { density: 0.25 }])
                    .inits(&[InitDist::Spread, InitDist::Bipolar])
                    .params(&[0.3])
                    .replicates(2),
                base_seed: 42,
                tol: 1e-6,
                max_rounds: 300,
            },
            "quick" => EnsembleSpec {
                name: "quick".into(),
                grid: EnsembleGrid::new()
                    .agents(&[4, 8])
                    .topologies(&[
                        Topology::Complete,
                        Topology::Rooted { density: 0.2 },
                        Topology::AsyncCrash { f: 1 },
                    ])
                    .inits(&[InitDist::Spread, InitDist::Uniform])
                    .params(&[0.3])
                    .replicates(3),
                base_seed: consensus_sweep_default_seed(),
                tol: 1e-6,
                max_rounds: 400,
            },
            "full" => EnsembleSpec {
                name: "full".into(),
                grid: EnsembleGrid::new()
                    .agents(&[4, 8, 16])
                    .topologies(&[
                        Topology::Complete,
                        Topology::Cycle,
                        Topology::Rooted { density: 0.15 },
                        Topology::Nonsplit { density: 0.2 },
                        Topology::AsyncCrash { f: 1 },
                    ])
                    .inits(&[
                        InitDist::Spread,
                        InitDist::Uniform,
                        InitDist::Bipolar,
                        InitDist::Outlier,
                    ])
                    .params(&[0.2, 0.5])
                    .replicates(8),
                base_seed: consensus_sweep_default_seed(),
                tol: 1e-6,
                max_rounds: 600,
            },
            other => {
                return Err(SpecError::UnknownPreset {
                    grid: Self::NAME,
                    got: other.into(),
                    valid: "golden|quick|full",
                })
            }
        })
    }

    fn report_name(&self) -> &str {
        &self.name
    }

    fn base_seed(&self) -> u64 {
        self.base_seed
    }

    fn set_base_seed(&mut self, seed: u64) {
        self.base_seed = seed;
    }

    fn cells(&self) -> Vec<EnsembleCell> {
        self.grid.cells()
    }

    fn row_label(&self, cell: &EnsembleCell, _row: usize) -> String {
        cell.label()
    }

    /// One ensemble cell: self-weighted averaging (`param` = self-weight)
    /// from the cell's initial distribution under its random dynamic-graph
    /// class, measured to the decision round (Theorems 8–11 semantics) with
    /// the per-round contraction rate as the ensemble statistic. With an
    /// enabled `trace`, every round it runs is recorded on
    /// `(ctx.index, lane::EXECUTOR)` ([`obswire::record_round`]).
    fn run_cell(&self, cell: &EnsembleCell, ctx: CellCtx, trace: &TraceHandle) -> [CellOutcome; 1] {
        let inits = cell.inits(&mut ctx.rng());
        let d0 = diameter(&inits);
        let mut sc = Scenario::new(SelfWeightedAverage::new(cell.param), &inits)
            .pattern(cell.pattern(ctx.subseed(1)))
            .decide(self.tol);
        let mut rec = trace.recorder(ctx.index as u64, lane::EXECUTOR);
        let mut prev = d0;
        sc.drive(self.max_rounds, |_, exec| {
            if let Some(rec) = &mut rec {
                let d = exec.value_diameter();
                obswire::record_round(rec, exec.round(), prev, d);
                prev = d;
            }
            ControlFlow::Continue(())
        });
        if let Some(rec) = rec {
            trace.commit(rec);
        }
        let exec = sc.execution();
        let rounds = exec.round();
        let d = exec.value_diameter();
        // The drive stopped at the first spread ≤ tol or at the horizon.
        let decision = (d <= self.tol).then_some(rounds);
        [CellOutcome {
            rate: measured_rate(d0, d, rounds),
            decision_round: decision,
            rounds,
            converged: decision.is_some(),
            fingerprint: fingerprint(exec.outputs_slice()),
        }]
    }

    /// The aggregate table in the repo's table style (the human side of
    /// the `sweep` bin; the JSON side is [`SweepReport::to_json`]).
    fn table(&self, report: &SweepReport) -> String {
        let s = &report.summary;
        let mut out = section(&format!(
            "Ensemble sweep `{}` — {} cells, base seed {}",
            report.name, s.cells, report.base_seed
        ));
        out.push_str(&format!(
            "converged {}/{} (failures: {}), decided: {}\n\n",
            s.converged, s.cells, s.failures, s.decided
        ));
        let mut t = Table::new(&[
            "metric", "count", "min", "max", "mean", "std", "median", "p90",
        ]);
        for (name, stats) in [
            ("contraction rate", s.rate.as_ref()),
            ("decision round", s.decision_round.as_ref()),
            ("rounds executed", s.rounds.as_ref()),
        ] {
            match stats {
                Some(v) => t.row(&[
                    name.into(),
                    v.count.to_string(),
                    rate(v.min),
                    rate(v.max),
                    rate(v.mean),
                    rate(v.std_dev),
                    rate(v.median),
                    rate(v.p90),
                ]),
                None => t.row(&[
                    name.into(),
                    "0".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]),
            };
        }
        out.push_str(&t.render());
        out
    }
}

/// [`Grid::preset`] of the ensemble grid, under the name `perfbench/`
/// imports.
pub fn try_ensemble_spec(preset: &str) -> Result<EnsembleSpec, SpecError> {
    EnsembleSpec::preset(preset)
}

/// [`run_grid`] of an ensemble spec, untraced, under the name
/// `perfbench/` imports.
#[must_use]
pub fn run_ensemble(spec: &EnsembleSpec, threads: Option<usize>) -> SweepReport {
    run_grid(spec, threads, TraceHandle::disabled())
}

/// [`run_grid`] of an ensemble spec, under the name `perfbench/`
/// imports.
#[must_use]
pub fn run_ensemble_traced(
    spec: &EnsembleSpec,
    threads: Option<usize>,
    trace: TraceHandle,
) -> SweepReport {
    run_grid(spec, threads, trace)
}

fn consensus_sweep_default_seed() -> u64 {
    tight_bounds_consensus::sweep::DEFAULT_BASE_SEED
}

/// The per-round contraction rate measured over an executed run:
/// `(Δ_T / Δ_0)^{1/T}`, with a `0.0` sentinel when nothing was measured
/// (no rounds, or exact agreement at either end). Shared by the scalar
/// and multidimensional cell runners so the sweep reports agree on the
/// convention.
#[must_use]
pub fn measured_rate(d0: f64, d: f64, rounds: u64) -> f64 {
    if rounds == 0 || d0 <= 0.0 || d <= 0.0 {
        0.0
    } else {
        (d / d0).powf(1.0 / rounds as f64)
    }
}

/// Configuration of the **E-MULTIDIM `multidim_decision_times`**
/// experiment grid (arXiv:1805.04923): the `R^d` decision-time sweep
/// comparing the coordinate-wise and simplex midpoints on identical
/// cells.
#[derive(Debug, Clone)]
pub struct MultidimSpec {
    /// Report name (embedded in the JSON, so golden files are
    /// self-describing).
    pub name: String,
    /// The cartesian grid of cells (dimension is an axis).
    pub grid: MultidimGrid,
    /// Base seed all per-cell seeds derive from.
    pub base_seed: u64,
    /// Hull-diameter decision threshold ε.
    pub tol: f64,
    /// Per-cell round budget (total horizon).
    pub max_rounds: usize,
}

impl Grid for MultidimSpec {
    const NAME: &'static str = "multidim";
    const ABOUT: &'static str =
        "R^d decision times, coordinate-wise vs simplex midpoint (presets: quick/golden | full)";
    const ROWS_PER_CELL: usize = 2;
    type Cell = MultidimCell;
    type Rows = [CellOutcome; 2];

    /// The named multidimensional presets:
    ///
    /// * `quick` (alias `golden`) — the figure-shaped preset the golden test
    ///   and the CI `sweep-regression` job pin (`ci/golden_multidim.json`):
    ///   `d ∈ {1, 2, 3, 8}` × unit-cube/unit-simplex/correlated-Gaussian
    ///   inits × random rooted graphs, fixed seed.
    /// * `full` — the larger ensemble (adds `d = 4`, `n = 12`, non-split
    ///   graphs, more replicates).
    fn preset(name: &str) -> Result<Self, SpecError> {
        Ok(match name {
            "quick" | "golden" => MultidimSpec {
                name: "multidim_decision_times".into(),
                grid: MultidimGrid::new()
                    .dims(&[1, 2, 3, 8])
                    .agents(&[8])
                    .topologies(&[Topology::Rooted { density: 0.5 }])
                    .inits(&[
                        MultidimInitDist::UnitCube,
                        MultidimInitDist::UnitSimplex,
                        MultidimInitDist::CorrelatedGaussian,
                    ])
                    .replicates(3),
                base_seed: 42,
                tol: 1e-6,
                max_rounds: 400,
            },
            "full" => MultidimSpec {
                name: "multidim_decision_times_full".into(),
                grid: MultidimGrid::new()
                    .dims(&[1, 2, 3, 4, 8])
                    .agents(&[8, 12])
                    .topologies(&[
                        Topology::Rooted { density: 0.5 },
                        Topology::Nonsplit { density: 0.4 },
                    ])
                    .inits(&[
                        MultidimInitDist::UnitCube,
                        MultidimInitDist::UnitSimplex,
                        MultidimInitDist::CorrelatedGaussian,
                    ])
                    .replicates(6),
                base_seed: consensus_sweep_default_seed(),
                tol: 1e-6,
                max_rounds: 600,
            },
            other => {
                return Err(SpecError::UnknownPreset {
                    grid: Self::NAME,
                    got: other.into(),
                    valid: "quick|golden|full",
                })
            }
        })
    }

    fn report_name(&self) -> &str {
        &self.name
    }

    fn base_seed(&self) -> u64 {
        self.base_seed
    }

    fn set_base_seed(&mut self, seed: u64) {
        self.base_seed = seed;
    }

    fn cells(&self) -> Vec<MultidimCell> {
        self.grid.cells()
    }

    /// Each cell's two adjacent rows (`… alg=coordinatewise`,
    /// `… alg=simplex`) share one cell seed, so the report stays
    /// byte-stable and pairwise comparable.
    fn row_label(&self, cell: &MultidimCell, row: usize) -> String {
        format!(
            "{} alg={}",
            cell.label(),
            ["coordinatewise", "simplex"][row]
        )
    }

    /// The `(coordinate-wise, simplex)` pair of
    /// [`try_run_multidim_cell`].
    ///
    /// # Panics
    ///
    /// Panics if the cell's dimension is not one of `{1, 2, 3, 4, 8}`
    /// (the monomorphised dispatch set).
    fn run_cell(&self, cell: &MultidimCell, ctx: CellCtx, _: &TraceHandle) -> [CellOutcome; 2] {
        let (cw, sx) = try_run_multidim_cell(cell, ctx, self.tol, self.max_rounds)
            .unwrap_or_else(|e| panic!("{e}"));
        [cw, sx]
    }

    /// The aggregate block plus the per-dimension coordinate-wise vs.
    /// simplex separation table (the headline claim — simplex decides in
    /// strictly fewer rounds for `d ≥ 2`, and the two rules coincide at
    /// `d = 1`).
    fn table(&self, report: &SweepReport) -> String {
        let s = &report.summary;
        let mut out = section(&format!(
            "Multidimensional decision times `{}` — {} paired cells, base seed {}, ε = {:e}",
            report.name,
            report.outcomes.len() / 2,
            report.base_seed,
            self.tol
        ));
        out.push_str(&format!(
            "rows converged {}/{} (failures: {}); decision rounds are hull-diameter\n(Euclidean) ε-agreement per arXiv:1805.04923\n\n",
            s.converged, s.cells, s.failures
        ));
        let mut t = Table::new(&[
            "d",
            "pairs",
            "coordinatewise mean T",
            "simplex mean T",
            "gap",
            "separation",
        ]);
        let claims = separation_claims(self, report);
        for ((d, cw, sx), (_, ok)) in multidim_separation(self, report).into_iter().zip(claims) {
            let means = match (cw, sx) {
                (Some(cw), Some(sx)) => vec![
                    cw.count.to_string(),
                    format!("{:.3}", cw.mean),
                    format!("{:.3}", sx.mean),
                    format!("{:+.3}", sx.mean - cw.mean),
                ],
                _ => vec!["0".into(), "-".into(), "-".into(), "-".into()],
            };
            t.row(&[vec![d.to_string()], means, vec![mark(ok).into()]].concat());
        }
        out.push_str(&t.render());
        out.push_str(
            "\nmeans are over matched pairs only (cells where BOTH rules decided), so the\n\
             two columns always cover the same executions. d = 1: both rules degenerate\n\
             to the scalar midpoint and the paired runs are bit-identical. d ≥ 2: the\n\
             coordinate-wise box centre pays the √d detour (and leaves the hull for\n\
             d ≥ 3 — validity!), so the simplex/MidExtremes rule decides strictly\n\
             earlier on the same executions.\n",
        );
        out
    }

    /// Every row decided, and the per-dimension separation
    /// ([`separation_claims`]).
    fn claims(&self, report: &SweepReport) -> Vec<(String, bool)> {
        let mut claims = vec![no_failures(report)];
        claims.extend(separation_claims(self, report));
        claims
    }
}

/// The claim that no row of `report` failed: every cell reached its
/// target within its round budget.
#[must_use]
pub fn no_failures(report: &SweepReport) -> (String, bool) {
    let what = format!(
        "every row of `{}` converged: failures = 0 exactly",
        report.name
    );
    (what, report.summary.failures == 0)
}

/// One separation claim per dimension, in [`multidim_separation`]
/// order: at `d = 1` every coordinate-wise/simplex pair is bit-identical
/// (both rules are the scalar midpoint); at `d ≥ 2` the simplex rule's
/// mean decision round over matched pairs is strictly below the
/// coordinate-wise rule's (arXiv:1805.04923).
#[must_use]
pub fn separation_claims(spec: &MultidimSpec, report: &SweepReport) -> Vec<(String, bool)> {
    let cells = spec.grid.cells();
    let pair = |i: usize| (report.outcomes[2 * i], report.outcomes[2 * i + 1]);
    multidim_separation(spec, report)
        .into_iter()
        .map(|(d, cw, sx)| match (d, cw, sx) {
            (1, ..) => (
                "d=1: every coordinatewise/simplex pair is bit-identical".into(),
                (0..cells.len()).all(|i| cells[i].dim != 1 || pair(i).0 == pair(i).1),
            ),
            (d, cw, sx) => (
                format!(
                    "d={d}: simplex mean T < coordinatewise mean T over matched pairs (strict)"
                ),
                matches!((cw, sx), (Some(cw), Some(sx)) if sx.mean < cw.mean),
            ),
        })
        .collect()
}

/// [`Grid::preset`] of the multidimensional grid, under the name
/// `perfbench/` imports.
pub fn try_multidim_spec(preset: &str) -> Result<MultidimSpec, SpecError> {
    MultidimSpec::preset(preset)
}

/// One multidimensional cell: **both** midpoint rules run on the *same*
/// initial values and the *same* graph sequence (identical sub-seeds),
/// measured to the hull-diameter decision round. Returns
/// `(coordinate-wise, simplex)` outcomes — a matched pair, so at
/// `d = 1` the two are bit-identical (both rules degenerate to the
/// scalar midpoint) and at `d ≥ 2` their decision-round gap is the
/// paper's separation. Cells that exhaust the budget report
/// [`CellOutcome::failed`] (`NaN`-free aggregation). A dimension outside
/// the monomorphised dispatch set `{1, 2, 3, 4, 8}` is a
/// [`SpecError::UnsupportedDimension`].
pub fn try_run_multidim_cell(
    cell: &MultidimCell,
    ctx: CellCtx,
    tol: f64,
    max_rounds: usize,
) -> Result<(CellOutcome, CellOutcome), SpecError> {
    fn drive<A, const D: usize>(
        alg: A,
        cell: &MultidimCell,
        inits: &[Point<D>],
        pattern_seed: u64,
        tol: f64,
        max_rounds: usize,
    ) -> CellOutcome
    where
        A: Algorithm<D>,
    {
        let d0 = diameter(inits);
        let mut sc = Scenario::new(alg, inits)
            .pattern(cell.pattern(pattern_seed))
            .metric(HullDiameter)
            .decide(tol);
        let decision = sc.decision_round(max_rounds);
        let exec = sc.execution();
        let rounds = exec.round();
        let fp = fingerprint(exec.outputs_slice());
        let Some(_) = decision else {
            return CellOutcome::failed(rounds, fp);
        };
        let d = exec.value_diameter();
        CellOutcome {
            rate: measured_rate(d0, d, rounds),
            decision_round: decision,
            rounds,
            converged: true,
            fingerprint: fp,
        }
    }

    fn go<const D: usize>(
        cell: &MultidimCell,
        ctx: CellCtx,
        tol: f64,
        max_rounds: usize,
    ) -> (CellOutcome, CellOutcome) {
        let inits: Vec<Point<D>> = cell.inits(&mut ctx.rng());
        let pattern_seed = ctx.subseed(1);
        (
            drive(
                MidpointCoordinatewise,
                cell,
                &inits,
                pattern_seed,
                tol,
                max_rounds,
            ),
            drive(MidpointSimplex, cell, &inits, pattern_seed, tol, max_rounds),
        )
    }

    Ok(match cell.dim {
        1 => go::<1>(cell, ctx, tol, max_rounds),
        2 => go::<2>(cell, ctx, tol, max_rounds),
        3 => go::<3>(cell, ctx, tol, max_rounds),
        4 => go::<4>(cell, ctx, tol, max_rounds),
        8 => go::<8>(cell, ctx, tol, max_rounds),
        other => return Err(SpecError::UnsupportedDimension { got: other }),
    })
}

/// [`run_grid`] of a multidimensional spec, untraced, under the name
/// `perfbench/` imports.
#[must_use]
pub fn run_multidim(spec: &MultidimSpec, threads: Option<usize>) -> SweepReport {
    run_grid(spec, threads, TraceHandle::disabled())
}

/// [`run_grid`] of a multidimensional spec, under the name `perfbench/`
/// imports.
#[must_use]
pub fn run_multidim_traced(
    spec: &MultidimSpec,
    threads: Option<usize>,
    trace: TraceHandle,
) -> SweepReport {
    run_grid(spec, threads, trace)
}

/// Per-dimension decision-round statistics of a multidimensional
/// report: `(d, coordinate-wise, simplex)`, computed **only over
/// matched pairs where both rules decided** — dropping a timed-out
/// cell removes its partner too, so the two means always cover the
/// same executions (no survivorship bias if one rule times out where
/// the other decides). `None` when no pair of that dimension fully
/// decided — the guarded empty-successful-sample case, never a `NaN`.
/// Both `Stats::count` fields equal the matched-pair count.
#[must_use]
pub fn multidim_separation(
    spec: &MultidimSpec,
    report: &SweepReport,
) -> Vec<(usize, Option<Stats>, Option<Stats>)> {
    let cells = spec.grid.cells();
    assert_eq!(2 * cells.len(), report.outcomes.len(), "paired rows");
    let mut dims: Vec<usize> = cells.iter().map(|c| c.dim).collect();
    dims.sort_unstable();
    dims.dedup();
    dims.into_iter()
        .map(|d| {
            let (mut cw_rounds, mut sx_rounds) = (Vec::new(), Vec::new());
            for (i, _) in cells.iter().enumerate().filter(|(_, c)| c.dim == d) {
                let cw = report.outcomes[2 * i].decision_round;
                let sx = report.outcomes[2 * i + 1].decision_round;
                if let (Some(a), Some(b)) = (cw, sx) {
                    cw_rounds.push(a as f64);
                    sx_rounds.push(b as f64);
                }
            }
            (
                d,
                Stats::from_values(&cw_rounds),
                Stats::from_values(&sx_rounds),
            )
        })
        .collect()
}

/// Configuration of the **E-DYNET `dynamic_rates`** experiment grid
/// (arXiv:1408.0620): averaging-rate ensembles under structured
/// dynamic-network adversaries — T-interval connectivity,
/// eventually-rooted schedules, bounded churn, and the adaptive
/// diameter maximiser.
#[derive(Debug, Clone)]
pub struct DynamicSpec {
    /// Report name (embedded in the JSON, so golden files are
    /// self-describing).
    pub name: String,
    /// The cartesian grid of cells (adversary kind — carrying `T` and
    /// the churn budget — is an axis).
    pub grid: DynamicGrid,
    /// Base seed all per-cell seeds derive from.
    pub base_seed: u64,
    /// Decision threshold ε.
    pub tol: f64,
    /// Per-cell round budget (total horizon).
    pub max_rounds: usize,
}

impl Grid for DynamicSpec {
    const NAME: &'static str = "dynamic_rates";
    const ABOUT: &'static str = "averaging rates under dynamic-network adversaries: T-interval, eventually-rooted, bounded churn, diameter-max (presets: quick/golden | full)";
    type Cell = DynamicCell;
    type Rows = [CellOutcome; 1];

    /// The named dynamic-network presets:
    ///
    /// * `quick` (alias `golden`) — the preset the golden test and the CI
    ///   `sweep-regression` job pin (`ci/golden_dynamic.json`): `n = 8`,
    ///   T-interval `T ∈ {1, 2, 4}`, an eventually-rooted schedule, bounded
    ///   churn `k ∈ {1, 4}`, and the adaptive diameter maximiser, over
    ///   spread/uniform inits, fixed seed. Its report is named after the
    ///   grid.
    /// * `full` — the larger ensemble (adds `n = 16`, `T = 8`, `k = 8` and
    ///   bipolar inits, more replicates).
    fn preset(name: &str) -> Result<Self, SpecError> {
        let quick_kinds = [
            AdversaryKind::TInterval { t: 1 },
            AdversaryKind::TInterval { t: 2 },
            AdversaryKind::TInterval { t: 4 },
            AdversaryKind::EventuallyRooted { chaos: 6 },
            AdversaryKind::BoundedChurn { churn: 1 },
            AdversaryKind::BoundedChurn { churn: 4 },
            AdversaryKind::DiameterMax,
        ];
        Ok(match name {
            "quick" | "golden" => DynamicSpec {
                name: Self::NAME.into(),
                grid: DynamicGrid::new()
                    .agents(&[8])
                    .kinds(&quick_kinds)
                    .inits(&[InitDist::Spread, InitDist::Uniform])
                    .replicates(3),
                base_seed: 42,
                tol: 1e-6,
                max_rounds: 800,
            },
            "full" => DynamicSpec {
                name: format!("{}_full", Self::NAME),
                grid: DynamicGrid::new()
                    .agents(&[8, 16])
                    .kinds(
                        &[
                            quick_kinds.as_slice(),
                            &[
                                AdversaryKind::TInterval { t: 8 },
                                AdversaryKind::BoundedChurn { churn: 8 },
                            ],
                        ]
                        .concat(),
                    )
                    .inits(&[InitDist::Spread, InitDist::Uniform, InitDist::Bipolar])
                    .replicates(6),
                base_seed: consensus_sweep_default_seed(),
                tol: 1e-6,
                max_rounds: 2000,
            },
            other => {
                return Err(SpecError::UnknownPreset {
                    grid: Self::NAME,
                    got: other.into(),
                    valid: "quick|golden|full",
                })
            }
        })
    }

    fn report_name(&self) -> &str {
        &self.name
    }

    fn base_seed(&self) -> u64 {
        self.base_seed
    }

    fn set_base_seed(&mut self, seed: u64) {
        self.base_seed = seed;
    }

    fn cells(&self) -> Vec<DynamicCell> {
        self.grid.cells()
    }

    fn row_label(&self, cell: &DynamicCell, _row: usize) -> String {
        cell.label()
    }

    /// One dynamic-network cell: midpoint from the cell's initial
    /// distribution under its seeded adversary, driven **round by round**
    /// so the per-round contraction ratios `Δ(y(t+1)) / Δ(y(t))` can be
    /// aggregated via [`Stats`]; the reported `rate` is their mean (the
    /// averaging-rate measurement of arXiv:1408.0620), and
    /// `decision_round` is the first round with spread ≤ ε (Theorems 8–11
    /// semantics). Cells that exhaust the budget report
    /// [`CellOutcome::failed`]. The adversaries are pure functions of
    /// their cell seeds.
    fn run_cell(&self, cell: &DynamicCell, ctx: CellCtx, _: &TraceHandle) -> [CellOutcome; 1] {
        const FLOOR: f64 = 1e-300;
        let inits = cell.inits(&mut ctx.rng());
        let mut sc = Scenario::new(Midpoint, &inits).adversary(cell.driver(ctx.subseed(1)));
        let mut ratios = Vec::new();
        let mut prev = sc.execution().value_diameter();
        let mut decision = (prev <= self.tol).then_some(0);
        if decision.is_none() {
            // The adversaries move one round per block, so a break stops
            // the drive at the round that decided.
            sc.drive(self.max_rounds, |_, exec| {
                let d = exec.value_diameter();
                if prev > FLOOR && d > FLOOR {
                    ratios.push(d / prev);
                }
                prev = d;
                if d <= self.tol {
                    decision = Some(exec.round());
                    return ControlFlow::Break(());
                }
                ControlFlow::Continue(())
            });
        }
        let exec = sc.execution();
        let rounds = exec.round();
        let fp = fingerprint(exec.outputs_slice());
        let Some(decided_at) = decision else {
            return [CellOutcome::failed(rounds, fp)];
        };
        [CellOutcome {
            rate: Stats::from_values(&ratios).map_or(0.0, |s| s.mean),
            decision_round: Some(decided_at),
            rounds,
            converged: true,
            fingerprint: fp,
        }]
    }

    /// The per-kind aggregate block plus the T-interval decision-time
    /// separation line.
    fn table(&self, report: &SweepReport) -> String {
        let s = &report.summary;
        let mut out = section(&format!(
            "Dynamic-network averaging rates `{}` — {} cells, base seed {}, ε = {:e}",
            report.name,
            report.outcomes.len(),
            report.base_seed,
            self.tol
        ));
        out.push_str(&format!(
            "converged {}/{} (failures: {}); rate = mean per-round contraction ratio\nΔ(y(t+1))/Δ(y(t)), decision T = first round with spread ≤ ε\n\n",
            s.converged, s.cells, s.failures
        ));
        let mut t = Table::new(&["adversary", "cells", "mean rate", "mean T", "max T"]);
        for (kind, decisions, rates) in dynamic_by_kind(self, report) {
            match (decisions, rates) {
                (Some(d), Some(r)) => t.row(&[
                    kind.label(),
                    d.count.to_string(),
                    rate(r.mean),
                    format!("{:.2}", d.mean),
                    format!("{:.0}", d.max),
                ]),
                _ => t.row(&[kind.label(), "0".into(), "-".into(), "-".into(), "-".into()]),
            };
        }
        out.push_str(&t.render());

        let sep = dynamic_separation(self, report);
        let monotone = t_order_claims(&sep).iter().all(|(_, ok)| *ok);
        out.push_str(&format!(
            "\nT-interval separation: mean decision times {} — spreading the rooted\nunion over T rounds must slow the decision down strictly {}\n",
            sep.iter()
                .map(|(t, d)| format!(
                    "T={t}: {}",
                    d.as_ref().map_or("-".into(), |s| format!("{:.2}", s.mean))
                ))
                .collect::<Vec<_>>()
                .join(", "),
            mark(monotone)
        ));
        out
    }

    /// Every cell decided; no mean contraction ratio above 1; the
    /// diameter maximiser's ratio exactly 1/2; and mean decision times
    /// strictly increasing in `T` ([`t_order_claims`]).
    fn claims(&self, report: &SweepReport) -> Vec<(String, bool)> {
        let cells = self.grid.cells();
        let rates = || cells.iter().zip(&report.outcomes);
        let mut claims = vec![
            no_failures(report),
            (
                "every mean contraction ratio ≤ 1 + 1e-12 (the midpoint never re-expands the \
                 spread; the ratios of computed spreads carry float round-off)"
                    .into(),
                rates().all(|(_, o)| o.rate.is_nan() || o.rate <= 1.0 + 1e-12),
            ),
            (
                "diameter-max: every mean contraction ratio = 1/2 ± 1e-9 (each greedy deaf \
                 round halves the midpoint's spread; halving the spread of non-dyadic \
                 uniform values rounds)"
                    .into(),
                rates()
                    .filter(|(c, _)| c.kind == AdversaryKind::DiameterMax)
                    .all(|(_, o)| (o.rate - 0.5).abs() < 1e-9),
            ),
        ];
        claims.extend(t_order_claims(&dynamic_separation(self, report)));
        claims
    }
}

/// The T-interval claims of arXiv:1408.0620: along the series of
/// [`dynamic_separation`], each mean decision time is strictly below the
/// next `T`'s.
#[must_use]
pub fn t_order_claims(sep: &[(usize, Option<Stats>)]) -> Vec<(String, bool)> {
    sep.windows(2)
        .map(|w| {
            let what = format!(
                "t-interval: mean decision time at T={} < at T={} (strict)",
                w[0].0, w[1].0
            );
            let ok = matches!((&w[0].1, &w[1].1), (Some(a), Some(b)) if a.mean < b.mean);
            (what, ok)
        })
        .collect()
}

/// [`Grid::preset`] of the dynamic-network grid, under the name
/// `perfbench/` imports.
pub fn try_dynamic_spec(preset: &str) -> Result<DynamicSpec, SpecError> {
    DynamicSpec::preset(preset)
}

/// [`run_grid`] of a dynamic-network spec, untraced, under the name
/// `perfbench/` imports.
#[must_use]
pub fn run_dynamic(spec: &DynamicSpec, threads: Option<usize>) -> SweepReport {
    run_grid(spec, threads, TraceHandle::disabled())
}

/// [`run_grid`] of a dynamic-network spec, under the name `perfbench/`
/// imports.
#[must_use]
pub fn run_dynamic_traced(
    spec: &DynamicSpec,
    threads: Option<usize>,
    trace: TraceHandle,
) -> SweepReport {
    run_grid(spec, threads, trace)
}

/// Per-kind statistics of a dynamic-network report: for every adversary
/// kind in grid order, the decision-round and per-round-rate [`Stats`]
/// over the cells that decided (`None` when none did — the guarded
/// empty-sample case, never a `NaN`).
#[must_use]
pub fn dynamic_by_kind(
    spec: &DynamicSpec,
    report: &SweepReport,
) -> Vec<(AdversaryKind, Option<Stats>, Option<Stats>)> {
    let cells = spec.grid.cells();
    assert_eq!(cells.len(), report.outcomes.len(), "one row per cell");
    let mut kinds: Vec<AdversaryKind> = Vec::new();
    for c in &cells {
        if !kinds.contains(&c.kind) {
            kinds.push(c.kind);
        }
    }
    kinds
        .into_iter()
        .map(|kind| {
            let (mut decisions, mut rates) = (Vec::new(), Vec::new());
            for (i, _) in cells.iter().enumerate().filter(|(_, c)| c.kind == kind) {
                if let Some(t) = report.outcomes[i].decision_round {
                    decisions.push(t as f64);
                    rates.push(report.outcomes[i].rate);
                }
            }
            (
                kind,
                Stats::from_values(&decisions),
                Stats::from_values(&rates),
            )
        })
        .collect()
}

/// The T-interval decision-time series of a dynamic-network report:
/// `(T, decision-round stats)` for every `TInterval` kind in the grid,
/// ascending in `T` — the separation the golden gate pins (decision
/// times must degrade strictly with `T`, the arXiv:1408.0620 headline).
#[must_use]
pub fn dynamic_separation(spec: &DynamicSpec, report: &SweepReport) -> Vec<(usize, Option<Stats>)> {
    let mut rows: Vec<(usize, Option<Stats>)> = dynamic_by_kind(spec, report)
        .into_iter()
        .filter_map(|(kind, decisions, _)| match kind {
            AdversaryKind::TInterval { t } => Some((t, decisions)),
            _ => None,
        })
        .collect();
    rows.sort_by_key(|&(t, _)| t);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the `paper` quick preset and asserts the claim of every row
    /// in each section whose title starts with one of `titles`; returns
    /// the labels of those rows.
    fn assert_section_claims_hold(titles: &[&str]) -> Vec<String> {
        let spec = PaperSpec::preset("quick").expect("preset");
        let report = run_grid(&spec, None, TraceHandle::disabled());
        let labels = report.labels.iter().map(String::as_str);
        let at: BTreeMap<&str, &CellOutcome> = labels.zip(&report.outcomes).collect();
        let (mut labels, mut claimed) = (Vec::new(), 0);
        for s in spec.layout() {
            if !titles.iter().any(|t| s.title.starts_with(t)) {
                continue;
            }
            for m in s.rows.iter().flat_map(|r| &r.1) {
                if let Some(c) = m.claim() {
                    let v = row_value(at[m.label().as_str()]);
                    assert!(c.holds(v), "{} {} ({}): read {v}", m.label(), c.rel, c.why);
                    claimed += 1;
                }
                labels.push(m.label());
            }
        }
        assert!(claimed > 0, "{titles:?} state claims");
        labels
    }

    #[test]
    fn table1_has_no_mismatches() {
        assert_section_claims_hold(&["Table 1"]);
    }

    #[test]
    fn alpha_report_consistent() {
        let labels = assert_section_claims_hold(&["Theorems 4/5", "Lemma 24"]);
        assert!(labels.contains(&"thm5 N_A(3,1) n=3 alpha-diameter".to_owned()));
        assert!(labels.contains(&"lemma24 N_A(16,5) n=16 chain-length".to_owned()));
    }

    #[test]
    fn ablation_never_beats_bound() {
        assert_section_claims_hold(&["Ablations"]);
    }

    #[test]
    fn swept_contraction_rates_have_no_mismatches() {
        let labels = assert_section_claims_hold(&["Theorems 1–3"]);
        assert!(labels.contains(&"thm3 midpoint Ψ(6) n=6 steps=5 valency-rate".to_owned()));
        assert!(labels.contains(&"lemma14 midpoint Ψ(6) n=6 indistinguishable".to_owned()));
    }

    #[test]
    fn swept_decision_times_have_no_mismatches() {
        assert_section_claims_hold(&["Theorems 8–11"]);
    }

    #[test]
    fn paper_cells_are_unique_and_keyed_by_theorem() {
        for preset in ["quick", "full"] {
            let spec = PaperSpec::preset(preset).expect("preset");
            let labels: Vec<String> = spec.cells().iter().map(|c| c.0.label()).collect();
            let unique: std::collections::BTreeSet<&String> = labels.iter().collect();
            assert_eq!(unique.len(), labels.len(), "{preset}: one label per cell");
            let keys: Vec<&str> = bounds::theorems().iter().map(|t| t.key).collect();
            for l in &labels {
                let first = l.split(' ').next().expect("non-empty");
                assert!(
                    keys.contains(&first) || ["lemma14", "lemma24", "§1"].contains(&first),
                    "{l}"
                );
            }
        }
    }

    #[test]
    fn a_claim_fails_on_a_value_outside_its_tolerance() {
        let spec = PaperSpec::preset("quick").expect("preset");
        let mut report = run_grid(&spec, Some(1), TraceHandle::disabled());
        // The Theorem 2 midpoint row on deaf(K_4): its rate is pinned at
        // 1/2 ± 5e-3; 0.49 is outside.
        let label = "thm2 midpoint deaf(K_4) n=4 steps=8 valency-rate";
        let i = report.labels.iter().position(|l| l == label).expect("row");
        report.outcomes[i].rate = 0.49;
        let failed: Vec<String> = (spec.claims(&report).into_iter())
            .filter(|(_, ok)| !ok)
            .map(|(what, _)| what)
            .collect();
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert!(failed[0].starts_with(label), "{failed:?}");
        assert!(failed[0].contains("± 5e-3"), "{failed:?}");
    }

    #[test]
    fn multidim_quick_grid_separates_and_is_clean() {
        let spec = MultidimSpec::preset("quick").expect("preset");
        let report = run_grid(&spec, None, TraceHandle::disabled());
        let claims = spec.claims(&report);
        assert_eq!(
            claims.len(),
            5,
            "no failures, then d ∈ {{1, 2, 3, 8}}: {claims:?}"
        );
        for (what, ok) in claims {
            assert!(ok, "claim failed: {what}");
        }
    }

    #[test]
    fn multidim_report_is_thread_count_invariant() {
        let spec = MultidimSpec::preset("quick").expect("preset");
        let a = run_grid(&spec, Some(1), TraceHandle::disabled());
        let b = run_grid(&spec, Some(3), TraceHandle::disabled());
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "bit-identical at any thread count"
        );
        assert_eq!(a.summary.cells, 72, "36 paired cells, two rows each");
        assert_eq!(a.summary.failures, 0, "quick grid must fully converge");
    }

    #[test]
    #[should_panic(expected = "dispatch set")]
    fn multidim_rejects_unsupported_dimensions() {
        let cell = MultidimCell {
            dim: 5,
            n: 4,
            topology: Topology::Complete,
            init: MultidimInitDist::UnitCube,
            replicate: 0,
        };
        let ctx = CellCtx { index: 0, seed: 1 };
        let spec = MultidimSpec::preset("quick").expect("preset");
        let _ = spec.run_cell(&cell, ctx, &TraceHandle::disabled());
    }

    #[test]
    fn dynamic_quick_grid_is_thread_count_invariant_and_separates() {
        let spec = DynamicSpec::preset("quick").expect("preset");
        let a = run_grid(&spec, Some(1), TraceHandle::disabled());
        let b = run_grid(&spec, Some(3), TraceHandle::disabled());
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "bit-identical at any thread count"
        );
        assert_eq!(a.summary.cells, 42, "7 kinds × 2 inits × 3 replicates");
        let sep = dynamic_separation(&spec, &a);
        assert_eq!(
            sep.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            vec![1, 2, 4],
            "the quick preset sweeps T ∈ {{1, 2, 4}}"
        );
        let claims = spec.claims(&a);
        assert_eq!(
            claims.len(),
            5,
            "3 invariants and 2 T-orderings: {claims:?}"
        );
        for (what, ok) in claims {
            assert!(ok, "claim failed: {what}");
        }
    }

    #[test]
    fn try_specs_name_the_rejected_value_and_the_valid_set() {
        let e = EnsembleSpec::preset("warp").unwrap_err();
        assert_eq!(
            e.to_string(),
            "unknown ensemble preset `warp` (use golden|quick|full)"
        );
        let e = MultidimSpec::preset("warp").unwrap_err();
        assert_eq!(
            e.to_string(),
            "unknown multidim preset `warp` (use quick|golden|full)"
        );
        let e = DynamicSpec::preset("warp").unwrap_err();
        assert_eq!(
            e.to_string(),
            "unknown dynamic_rates preset `warp` (use quick|golden|full)"
        );
        let e = crate::advsearch::AdversarySpec::preset("warp").unwrap_err();
        assert_eq!(
            e.to_string(),
            "unknown adversary_search preset `warp` (use quick|golden|full)"
        );
        let e = PaperSpec::preset("warp").unwrap_err();
        assert_eq!(
            e.to_string(),
            "unknown paper preset `warp` (use quick|golden|full)"
        );
        for ok in ["golden", "quick", "full"] {
            assert!(EnsembleSpec::preset(ok).is_ok(), "{ok}");
            assert!(MultidimSpec::preset(ok).is_ok(), "{ok}");
            assert!(DynamicSpec::preset(ok).is_ok(), "{ok}");
            assert!(crate::advsearch::AdversarySpec::preset(ok).is_ok(), "{ok}");
            assert!(PaperSpec::preset(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn try_run_multidim_cell_reports_bad_dimension() {
        let cell = MultidimCell {
            dim: 7,
            n: 4,
            topology: Topology::Complete,
            init: MultidimInitDist::UnitCube,
            replicate: 0,
        };
        let ctx = CellCtx { index: 0, seed: 1 };
        let e = try_run_multidim_cell(&cell, ctx, 1e-6, 10).unwrap_err();
        assert_eq!(e, SpecError::UnsupportedDimension { got: 7 });
        assert_eq!(
            e.to_string(),
            "dimension 7 is not in the dispatch set {1, 2, 3, 4, 8}"
        );
    }

    #[test]
    fn grid_registry_names_are_unique_and_documented() {
        let registry: Vec<_> = crate::orchestrate::AnySpec::registry().collect();
        let names: Vec<&str> = registry.iter().map(|(n, _)| *n).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "registry names must be unique");
        for grid in [
            "ensemble",
            "multidim",
            "dynamic_rates",
            "adversary_search",
            "paper",
        ] {
            assert!(names.contains(&grid), "{grid}");
        }
        assert!(registry.iter().all(|(_, d)| !d.is_empty()));
    }

    #[test]
    fn golden_ensemble_is_thread_count_invariant_and_clean() {
        let spec = EnsembleSpec::preset("golden").expect("preset");
        let a = run_grid(&spec, Some(1), TraceHandle::disabled());
        let b = run_grid(&spec, Some(4), TraceHandle::disabled());
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "bit-identical at any thread count"
        );
        assert_eq!(a.summary.cells, 16);
        assert_eq!(a.summary.failures, 0, "golden grid must fully converge");
    }
}
