//! The lower-bound adversaries of Theorems 1, 2, 3 and 5.
//!
//! Each proof in the paper constructs, round by (macro-)round, the
//! execution that keeps the valency diameter large: among the available
//! successor configurations, at least one keeps `δ ≥ δ_prev / c` (by the
//! intersection lemmas 7/12/20 plus the triangle inequality). The
//! [`GreedyValencyAdversary`] evaluates `δ̂` on every candidate successor
//! and picks the best one — exactly the existential step of the proofs,
//! made constructive by measurement.

use consensus_algorithms::float::{det_argmax, det_min};
use consensus_algorithms::Algorithm;
use consensus_digraph::{families, Digraph};
use consensus_dynamics::scenario::Driver;
use consensus_dynamics::Execution;
use consensus_netmodel::alpha::AlphaAnalysis;
use consensus_netmodel::NetworkModel;

use crate::probe::ProbeSet;

/// A move available to the adversary: a finite block of rounds applied
/// atomically (length 1 for Theorems 1/2/5; `n − 2` for Theorem 3's σ
/// macro-rounds).
#[derive(Debug, Clone)]
pub struct CandidateMove {
    /// Human-readable label (used in bench output).
    pub label: String,
    /// The graphs applied, in order.
    pub graphs: Vec<Digraph>,
}

/// The greedy valency-maximising adversary.
///
/// Drives an [`Execution`]: each step it forks the execution once per
/// [`CandidateMove`], estimates the valency diameter `δ̂` of each
/// successor with its [`ProbeSet`], applies the best move for real, and
/// records the chosen `δ̂`. The per-step ratio of recorded `δ̂` values is
/// the measured contraction of the *valency* — the quantity the paper's
/// lower bounds constrain.
#[derive(Debug, Clone)]
pub struct GreedyValencyAdversary {
    candidates: Vec<CandidateMove>,
    probes: ProbeSet,
    /// Rounds per adversary step (all candidates must have this length).
    block_len: usize,
    /// Pool workers for the per-step candidate forks (1 = serial).
    fork_threads: usize,
    trace: consensus_obs::TraceHandle,
    trace_shard: u64,
}

impl GreedyValencyAdversary {
    /// Builds an adversary from explicit candidate moves and probes.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty or the moves have unequal lengths.
    #[must_use]
    pub fn new(candidates: Vec<CandidateMove>, probes: ProbeSet) -> Self {
        assert!(!candidates.is_empty(), "adversary needs candidates");
        let block_len = candidates[0].graphs.len();
        assert!(
            candidates.iter().all(|c| c.graphs.len() == block_len),
            "all candidate moves must have the same length"
        );
        assert!(block_len >= 1, "moves must contain at least one round");
        GreedyValencyAdversary {
            candidates,
            probes,
            block_len,
            fork_threads: 1,
            trace: consensus_obs::TraceHandle::disabled(),
            trace_shard: 0,
        }
    }

    /// Attaches a [`consensus_obs::TraceHandle`]: each driver the
    /// adversary hands out records one `probe_step` span per adversary
    /// step on `(shard, lane::PROBE)`, with the chosen candidate, the
    /// recorded `δ̂`, and the candidate count. The events are
    /// content-class: the greedy argmax reduces candidate scores in
    /// index order, so the stream is bit-identical at every
    /// [`GreedyValencyAdversary::threads`] setting.
    ///
    /// The step events are committed by [`ValencyDriver::into_record`];
    /// a driver dropped without it loses its (observation-only) trace.
    #[must_use]
    pub fn trace(mut self, trace: consensus_obs::TraceHandle, shard: u64) -> Self {
        self.trace = trace;
        self.trace_shard = shard;
        self
    }

    /// Dispatches the per-step candidate forks onto `threads` pool
    /// workers (`0` means [`consensus_pool::default_threads`]; the
    /// default `1` evaluates candidates serially). Candidate scores are
    /// reduced back **in index order** with a strictly-greater-wins
    /// argmax, so the chosen move — and hence the whole drive — is
    /// bit-for-bit identical at every thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.fork_threads = if threads == 0 {
            consensus_pool::default_threads()
        } else {
            threads
        };
        self
    }

    /// Puts the underlying probe set into strict mode: a truncated probe
    /// aborts the drive (panics with the [`crate::ProbeTruncation`]
    /// message) instead of silently under-approximating `δ̂`.
    #[must_use]
    pub fn strict(mut self) -> Self {
        self.probes = self.probes.strict();
        self
    }

    /// The number of rounds each adversary step applies.
    #[must_use]
    pub fn block_len(&self) -> usize {
        self.block_len
    }

    /// The candidate moves.
    #[must_use]
    pub fn candidates(&self) -> &[CandidateMove] {
        &self.candidates
    }

    /// The probe set used for valency estimation.
    #[must_use]
    pub fn probes(&self) -> &ProbeSet {
        &self.probes
    }

    /// A fresh [`Driver`] for this adversary, to plug into
    /// [`consensus_dynamics::Scenario::adversary`]. The driver records
    /// an [`AdversaryTrace`] (`δ̂` per step) as it chooses; read it back
    /// with [`ValencyDriver::record`] after the run.
    #[must_use]
    pub fn driver(&self) -> ValencyDriver<'_> {
        ValencyDriver {
            adv: self,
            rec: self
                .trace
                .recorder(self.trace_shard, consensus_obs::lane::PROBE),
            record: AdversaryTrace {
                block_len: self.block_len,
                deltas: Vec::new(),
                value_diameters: Vec::new(),
                chosen: Vec::new(),
                converged: true,
            },
        }
    }

    /// Drives `exec` for `steps` adversary steps (`steps · block_len`
    /// rounds), returning the recorded valency diameters. Low-level
    /// form of `Scenario::new(..).adversary(adv.driver())` for callers
    /// that already hold an [`Execution`].
    pub fn drive<A, const D: usize>(
        &self,
        exec: &mut Execution<A, D>,
        steps: usize,
    ) -> AdversaryTrace
    where
        A: Algorithm<D> + Clone,
    {
        let mut driver = self.driver();
        driver.sample_initial(exec);
        let mut block = Vec::new();
        for _ in 0..steps {
            block.clear();
            Driver::next_block(&mut driver, exec, &mut block);
            for g in block.drain(..) {
                exec.step(&g);
            }
            Driver::observe(&mut driver, exec);
        }
        driver.into_record()
    }
}

/// The [`Driver`] view of a [`GreedyValencyAdversary`]: each block it
/// forks the execution once per candidate move, estimates the valency
/// diameter `δ̂` of each successor, commits the best one, and records
/// the chosen `δ̂` into an [`AdversaryTrace`].
#[derive(Debug, Clone)]
pub struct ValencyDriver<'a> {
    adv: &'a GreedyValencyAdversary,
    record: AdversaryTrace,
    rec: Option<consensus_obs::Recorder>,
}

impl ValencyDriver<'_> {
    /// The `δ̂`/`Δ` record accumulated so far (index 0 is the initial
    /// configuration once the first block has been chosen).
    #[must_use]
    pub fn record(&self) -> &AdversaryTrace {
        &self.record
    }

    /// Consumes the driver, returning the accumulated record, and
    /// commits the driver's step recorder (if the adversary was traced)
    /// into the shared trace store.
    #[must_use]
    pub fn into_record(mut self) -> AdversaryTrace {
        if let Some(rec) = self.rec.take() {
            self.adv.trace.commit(rec);
        }
        self.record
    }

    fn sample_initial<A, const D: usize>(&mut self, exec: &Execution<A, D>)
    where
        A: Algorithm<D> + Clone,
    {
        if self.record.deltas.is_empty() {
            let est = self.adv.probes.estimate(exec);
            self.record.deltas.push(est.diameter());
            self.record.converged &= est.converged;
            self.record.value_diameters.push(exec.value_diameter());
        }
    }

    /// Scores every candidate successor: forks the execution, applies
    /// the move, probes the fork. Pool-parallel when the adversary was
    /// built with [`GreedyValencyAdversary::threads`] > 1; the scores
    /// come back in candidate index order either way.
    fn score_candidates<A, const D: usize>(&self, exec: &Execution<A, D>) -> Vec<(f64, bool)>
    where
        A: Algorithm<D> + Clone,
    {
        let score = |ci: usize| {
            let cand = &self.adv.candidates[ci];
            let mut fork = exec.clone();
            for g in &cand.graphs {
                fork.step(g);
            }
            let est = self.adv.probes.estimate(&fork);
            (est.diameter(), est.converged)
        };
        if self.adv.fork_threads > 1 {
            consensus_pool::run_indexed(self.adv.candidates.len(), self.adv.fork_threads, score)
        } else {
            (0..self.adv.candidates.len()).map(score).collect()
        }
    }
}

impl<A, const D: usize> Driver<A, D> for ValencyDriver<'_>
where
    A: Algorithm<D> + Clone,
{
    fn block_len(&self) -> usize {
        self.adv.block_len
    }

    fn next_block(&mut self, exec: &Execution<A, D>, out: &mut Vec<Digraph>) {
        self.sample_initial(exec);
        let step = self.record.chosen.len() as u64;
        if let Some(rec) = &mut self.rec {
            rec.span_begin("probe_step", step);
        }
        let scores = self.score_candidates(exec);
        let (ci, d) = det_argmax(scores.iter().map(|&(d, _)| d)).expect("at least one candidate");
        assert!(
            !d.is_nan(),
            "candidate {ci} produced a NaN valency diameter"
        );
        if let Some(rec) = &mut self.rec {
            rec.counter("probe_candidates", step, scores.len() as u64);
            rec.counter("probe_chosen", step, ci as u64);
            rec.gauge("delta", step, d);
            rec.counter("probe_converged", step, u64::from(scores[ci].1));
            rec.span_end("probe_step", step);
        }
        self.record.deltas.push(d);
        self.record.chosen.push(ci);
        self.record.converged &= scores[ci].1;
        out.extend(self.adv.candidates[ci].graphs.iter().cloned());
    }

    fn observe(&mut self, exec: &Execution<A, D>) {
        self.record.value_diameters.push(exec.value_diameter());
    }
}

/// The record of an adversarial drive: valency-diameter estimates `δ̂`
/// per adversary step (index 0 = initial configuration).
#[derive(Debug, Clone)]
pub struct AdversaryTrace {
    /// Rounds per step.
    pub block_len: usize,
    /// `δ̂` after each step (`deltas\[0\]` is the initial estimate).
    pub deltas: Vec<f64>,
    /// Value spread `Δ(y)` after each step.
    pub value_diameters: Vec<f64>,
    /// Index of the chosen candidate at each step.
    pub chosen: Vec<usize>,
    /// `true` iff every probe of every *chosen* configuration (initial
    /// sample and committed candidates) converged within the probe
    /// horizon. When `false`, the recorded `δ̂` values may
    /// under-approximate and rate claims should be treated as lower
    /// bounds on the estimate only — or re-run in strict mode.
    pub converged: bool,
}

impl AdversaryTrace {
    /// The number of adversary steps.
    #[must_use]
    pub fn steps(&self) -> usize {
        self.deltas.len() - 1
    }

    /// Geometric-mean contraction of `δ̂` **per round**
    /// (`(δ_T/δ_0)^{1/(T·block_len)}`) — compare against the paper's
    /// per-round lower bounds.
    #[must_use]
    pub fn per_round_rate(&self) -> f64 {
        let t = self.steps() * self.block_len;
        let d0 = self.deltas[0];
        let dt = *self.deltas.last().expect("non-empty");
        if t == 0 || d0 <= 0.0 || dt <= 0.0 {
            return 0.0;
        }
        (dt / d0).powf(1.0 / t as f64)
    }

    /// Geometric-mean contraction of `δ̂` per adversary **step**.
    #[must_use]
    pub fn per_step_rate(&self) -> f64 {
        self.per_round_rate().powi(self.block_len as i32)
    }

    /// The worst single-step ratio `δ̂_{k+1}/δ̂_k` (the proofs guarantee a
    /// per-step floor; this is the measured floor).
    #[must_use]
    pub fn min_step_ratio(&self) -> f64 {
        self.deltas
            .windows(2)
            .filter(|w| w[0] > 1e-300)
            .map(|w| w[1] / w[0])
            .fold(f64::INFINITY, det_min)
    }

    /// Checks the proofs' invariant `δ̂_k ≥ δ̂_0 · rate^{k·block_len} ·
    /// (1 − slack)` for every step `k`.
    #[must_use]
    pub fn satisfies_lower_bound(&self, per_round_rate: f64, slack: f64) -> bool {
        let d0 = self.deltas[0];
        self.deltas.iter().enumerate().all(|(k, &d)| {
            let want = d0 * per_round_rate.powi((k * self.block_len) as i32);
            d >= want * (1.0 - slack)
        })
    }
}

/// The **Theorem 1** adversary (`n = 2`, model `{H0, H1, H2}`):
/// candidates are the three Figure-1 graphs; probes are the two
/// eventually-deaf continuations `H1^ω`, `H2^ω` used in the proof.
///
/// Guarantees `δ(C_t) ≥ δ(C_0)/3^t` against *any* algorithm; together
/// with Algorithm 1 ([`consensus_algorithms::TwoAgentThirds`], rate 1/3)
/// the bound is tight.
#[must_use]
pub fn theorem1() -> GreedyValencyAdversary {
    let [h0, h1, h2] = families::two_agent();
    let candidates = vec![
        CandidateMove {
            label: "H0".into(),
            graphs: vec![h0],
        },
        CandidateMove {
            label: "H1".into(),
            graphs: vec![h1.clone()],
        },
        CandidateMove {
            label: "H2".into(),
            graphs: vec![h2.clone()],
        },
    ];
    let probes = ProbeSet::new(vec![
        crate::probe::ProbePattern::Constant(h1),
        crate::probe::ProbePattern::Constant(h2),
    ]);
    GreedyValencyAdversary::new(candidates, probes)
}

/// The **Theorem 2** adversary (`n ≥ 3`, model `deaf(G)`): candidates
/// are the `F_i` (agent `i` made deaf in `G`); probes are the constant
/// continuations `F_i^ω` — precisely the executions the proof's
/// Lemma 7 intersects.
///
/// Guarantees `δ(C_t) ≥ δ(C_0)/2^t`; tight for non-split models by the
/// midpoint algorithm.
///
/// # Panics
///
/// Panics if `g.n() < 3` (the proof needs a third agent).
#[must_use]
pub fn theorem2(g: &Digraph) -> GreedyValencyAdversary {
    assert!(g.n() >= 3, "Theorem 2 needs n ≥ 3");
    let fam = families::deaf_family(g);
    let candidates = fam
        .iter()
        .enumerate()
        .map(|(i, f)| CandidateMove {
            label: format!("F{}", i + 1),
            graphs: vec![f.clone()],
        })
        .collect();
    let probes = ProbeSet::new(
        fam.into_iter()
            .map(crate::probe::ProbePattern::Constant)
            .collect(),
    );
    GreedyValencyAdversary::new(candidates, probes)
}

/// The **Theorem 3** adversary (`n ≥ 4`, Ψ model): candidates are the
/// three macro-moves `σ_i = Ψ_i^{n−2}`; probes are the periodic
/// continuations `σ_i^ω` (Lemma 12/14 of §6).
///
/// Guarantees `δ(S_t) ≥ δ(S_0)/2^{⌈t/(n−2)⌉}`, i.e. a per-round rate of
/// `(1/2)^{1/(n−2)}`; the amortized midpoint algorithm achieves
/// `(1/2)^{1/(n−1)}`, so the bound is asymptotically tight.
///
/// # Panics
///
/// Panics if `n < 4`.
#[must_use]
pub fn theorem3(n: usize) -> GreedyValencyAdversary {
    assert!(n >= 4, "Theorem 3 needs n ≥ 4");
    let candidates = (0..3)
        .map(|i| CandidateMove {
            label: format!("σ{}", i + 1),
            graphs: vec![families::psi(n, i); n - 2],
        })
        .collect();
    GreedyValencyAdversary::new(candidates, ProbeSet::sigma_psi(n))
}

/// The **Theorem 5** adversary for an arbitrary finite model `N` in
/// which exact consensus is unsolvable: per round it considers every
/// graph of `N` (these cover all chain graphs `H_r` of every α-chain),
/// probing with the constant continuations `K^ω`, `K ∈ N` — the
/// continuations Lemma 20 uses to intersect valencies along the chain.
///
/// Guarantees `δ(C_t) ≥ δ(C_0)/(D+1)^t` where `D` is the α-diameter.
#[must_use]
pub fn theorem5(model: &NetworkModel) -> GreedyValencyAdversary {
    let candidates = model
        .graphs()
        .iter()
        .enumerate()
        .map(|(i, g)| CandidateMove {
            label: format!("G{i}"),
            graphs: vec![g.clone()],
        })
        .collect();
    GreedyValencyAdversary::new(candidates, ProbeSet::constants(model))
}

/// Theorem 5's chain structure, exposed for inspection: for the two
/// extreme successor graphs `G, H` of a configuration, returns the
/// α-chain `G = H_0, …, H_q = H` (graph indices with witnesses) whose
/// intermediate valencies the proof intersects. `None` if disconnected.
#[must_use]
pub fn theorem5_chain(
    model: &NetworkModel,
    g: &Digraph,
    h: &Digraph,
) -> Option<Vec<consensus_netmodel::alpha::AlphaStep>> {
    let analysis = AlphaAnalysis::new(model);
    let gi = model.index_of(g)?;
    let hi = model.index_of(h)?;
    analysis.chain(gi, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_algorithms::{
        MeanValue, Midpoint, Overshoot, Point, SelfWeightedAverage, TwoAgentThirds,
    };

    fn pts(vals: &[f64]) -> Vec<Point<1>> {
        vals.iter().map(|&v| Point([v])).collect()
    }

    #[test]
    fn theorem1_vs_optimal_algorithm_rate_is_one_third() {
        let adv = theorem1();
        let mut exec = Execution::new(TwoAgentThirds, &pts(&[0.0, 1.0]));
        let trace = adv.drive(&mut exec, 10);
        let rate = trace.per_round_rate();
        assert!(
            (rate - 1.0 / 3.0).abs() < 1e-6,
            "Algorithm 1 is exactly 1/3-contracting under the Thm 1 adversary; got {rate}"
        );
        assert!(trace.satisfies_lower_bound(1.0 / 3.0, 1e-5));
    }

    #[test]
    fn traced_drive_is_bit_identical_and_thread_invariant() {
        let trace1 = consensus_obs::TraceHandle::enabled();
        let adv1 = theorem1().trace(trace1.clone(), 0);
        let mut e1 = Execution::new(TwoAgentThirds, &pts(&[0.0, 1.0]));
        let r1 = adv1.drive(&mut e1, 6);

        let plain = theorem1();
        let mut e0 = Execution::new(TwoAgentThirds, &pts(&[0.0, 1.0]));
        let r0 = plain.drive(&mut e0, 6);
        assert_eq!(r1.deltas, r0.deltas, "tracing must not perturb the drive");
        assert_eq!(r1.chosen, r0.chosen);

        let s1 = trace1.merged();
        assert_eq!(s1.events_for_span("probe_step").len(), 2 * 6);
        assert_eq!(s1.gauge_values("delta").len(), 6);
        assert_eq!(
            s1.gauge_values("delta")[0].to_bits(),
            r0.deltas[1].to_bits()
        );
        assert_eq!(s1.counter_total("probe_candidates") % 6, 0);

        // Parallel candidate scoring: same content stream.
        let trace4 = consensus_obs::TraceHandle::enabled();
        let adv4 = theorem1().threads(4).trace(trace4.clone(), 0);
        let mut e4 = Execution::new(TwoAgentThirds, &pts(&[0.0, 1.0]));
        let r4 = adv4.drive(&mut e4, 6);
        assert_eq!(r4.deltas, r0.deltas);
        assert_eq!(trace4.merged().content(), s1.content());
    }

    #[test]
    fn traced_probe_set_emits_per_probe_counters() {
        use consensus_netmodel::NetworkModel;
        let model = NetworkModel::deaf(&consensus_digraph::Digraph::complete(3));
        let trace = consensus_obs::TraceHandle::enabled();
        let probes = ProbeSet::deaf_continuations(&model).trace(trace.clone(), 7);
        let exec = Execution::new(Midpoint, &pts(&[0.0, 0.25, 1.0]));
        let est = probes.estimate(&exec);
        assert!(est.converged);
        let s = trace.merged();
        let n_probes = probes.patterns().len();
        assert_eq!(s.events_for_span("probe").len(), 2 * n_probes);
        assert_eq!(s.counter_total("probe_converged"), n_probes as u64);
        assert!(s.counter_total("probe_rounds") > 0, "probes ran rounds");
        assert!(s.events.iter().all(|e| e.shard == 7));
    }

    #[test]
    fn scenario_driver_matches_drive() {
        // The Scenario-facing driver and the legacy drive() entry point
        // are the same greedy logic: identical δ̂ records and outputs.
        use consensus_dynamics::Scenario;
        let adv = theorem1();
        let mut exec = Execution::new(TwoAgentThirds, &pts(&[0.0, 1.0]));
        let legacy = adv.drive(&mut exec, 8);
        let mut sc = Scenario::new(TwoAgentThirds, &pts(&[0.0, 1.0])).adversary(adv.driver());
        let trace = sc.run(8);
        let record = sc.driver().record();
        assert_eq!(record.deltas, legacy.deltas);
        assert_eq!(record.chosen, legacy.chosen);
        assert_eq!(record.value_diameters, legacy.value_diameters);
        assert_eq!(trace.rounds(), 8);
        assert_eq!(sc.execution().outputs_slice(), exec.outputs_slice());
    }

    #[test]
    fn theorem1_vs_midpoint_still_at_least_one_third() {
        // Midpoint on two agents is a different algorithm; the adversary
        // must still hold δ ≥ δ0/3^t.
        let adv = theorem1();
        let mut exec = Execution::new(Midpoint, &pts(&[0.0, 1.0]));
        let trace = adv.drive(&mut exec, 12);
        assert!(
            trace.per_round_rate() >= 1.0 / 3.0 - 1e-6,
            "rate {} below 1/3",
            trace.per_round_rate()
        );
    }

    #[test]
    fn theorem2_vs_midpoint_rate_is_half() {
        let adv = theorem2(&Digraph::complete(3));
        let mut exec = Execution::new(Midpoint, &pts(&[0.0, 1.0, 0.5]));
        let trace = adv.drive(&mut exec, 12);
        let rate = trace.per_round_rate();
        assert!(
            (rate - 0.5).abs() < 1e-6,
            "midpoint is exactly 1/2-contracting; got {rate}"
        );
        assert!(trace.satisfies_lower_bound(0.5, 1e-5));
        assert!(trace.min_step_ratio() >= 0.5 - 1e-6);
    }

    #[test]
    fn theorem2_vs_mean_is_worse_than_half() {
        // Plain averaging contracts *slower* than midpoint under the
        // deaf adversary (its worst-case rate is 1 − 1/n), so δ̂ must
        // shrink by a factor ≥ 1/2 — and indeed strictly more slowly.
        let n = 4;
        let adv = theorem2(&Digraph::complete(n));
        let mut exec = Execution::new(MeanValue, &pts(&[0.0, 1.0, 1.0, 1.0]));
        let trace = adv.drive(&mut exec, 10);
        let rate = trace.per_round_rate();
        assert!(rate >= 0.5 - 1e-9, "lower bound holds: {rate}");
        assert!(
            rate > 0.6,
            "averaging should be visibly slower than midpoint: {rate}"
        );
    }

    #[test]
    fn theorem2_vs_overshoot_cannot_beat_half() {
        // §1's point: non-convex (overshooting) updates don't help.
        for kappa in [0.1, 0.3, 0.6] {
            let adv = theorem2(&Digraph::complete(3));
            let mut exec = Execution::new(Overshoot::new(kappa), &pts(&[0.0, 1.0, 0.5]));
            let trace = adv.drive(&mut exec, 10);
            assert!(
                trace.per_round_rate() >= 0.5 - 1e-6,
                "κ={kappa}: rate {} beat the bound",
                trace.per_round_rate()
            );
        }
    }

    #[test]
    fn theorem2_on_noncomplete_base_graph() {
        // deaf(G) for a non-complete rooted G: bound still holds.
        let g = consensus_digraph::Digraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
            .unwrap();
        let adv = theorem2(&g);
        let mut exec = Execution::new(SelfWeightedAverage::new(0.5), &pts(&[0.0, 1.0, 0.2, 0.9]));
        let trace = adv.drive(&mut exec, 8);
        assert!(trace.per_round_rate() >= 0.5 - 1e-6);
    }

    #[test]
    fn theorem3_macro_rate_at_least_half() {
        let n = 5;
        let adv = theorem3(n);
        assert_eq!(adv.block_len(), n - 2);
        let alg = consensus_algorithms::AmortizedMidpoint::for_agents(n);
        let mut exec = Execution::new(alg, &pts(&[0.0, 1.0, 0.4, 0.7, 0.2]));
        let trace = adv.drive(&mut exec, 8);
        // Per macro-round (n−2 rounds) the valency shrinks by ≥ 1/2.
        assert!(
            trace.per_step_rate() >= 0.5 - 1e-6,
            "per-σ rate {} below 1/2",
            trace.per_step_rate()
        );
        // Per-round form: ≥ (1/2)^{1/(n−2)}.
        let bound = 0.5f64.powf(1.0 / (n as f64 - 2.0));
        assert!(trace.per_round_rate() >= bound - 1e-6);
    }

    #[test]
    fn theorem5_on_two_agent_model_matches_theorem1() {
        // The α-diameter of {H0,H1,H2} is 2, so Theorem 5 gives 1/3 —
        // the same as Theorem 1.
        let model = NetworkModel::two_agent();
        let adv = theorem5(&model);
        let mut exec = Execution::new(TwoAgentThirds, &pts(&[0.0, 1.0]));
        let trace = adv.drive(&mut exec, 12);
        assert!(trace.per_round_rate() >= 1.0 / 3.0 - 1e-6);
    }

    #[test]
    fn theorem5_chain_for_two_agent_extremes() {
        let model = NetworkModel::two_agent();
        let [_, h1, h2] = families::two_agent();
        let chain = theorem5_chain(&model, &h1, &h2).expect("connected");
        assert_eq!(chain.len(), 2, "H1 → H0 → H2");
    }

    #[test]
    fn adversary_trace_bookkeeping() {
        let adv = theorem1();
        let mut exec = Execution::new(TwoAgentThirds, &pts(&[0.0, 1.0]));
        let trace = adv.drive(&mut exec, 5);
        assert_eq!(trace.steps(), 5);
        assert_eq!(trace.deltas.len(), 6);
        assert_eq!(trace.chosen.len(), 5);
        assert_eq!(exec.round(), 5);
    }
}
