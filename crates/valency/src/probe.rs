//! Sound inner approximation of valencies by probe continuations.

use consensus_algorithms::{diameter, Algorithm, Point};
use consensus_digraph::Digraph;
use consensus_dynamics::pattern::PatternSource;
use consensus_dynamics::{Execution, LimitEstimate};
use consensus_netmodel::NetworkModel;

/// A cyclic pattern over **borrowed** graphs: the probe loop hands out
/// refcount-bump clones of the probe set's own storage instead of
/// cloning the graph vector per probe run (the per-round adversary loop
/// stays allocation-free, matching the executor's inbox contract).
struct SliceCycle<'a> {
    graphs: &'a [Digraph],
    pos: usize,
}

impl PatternSource for SliceCycle<'_> {
    fn next_graph(&mut self, _round: u64) -> Digraph {
        let g = self.graphs[self.pos].clone();
        self.pos = (self.pos + 1) % self.graphs.len();
        g
    }
}

/// Which constructor produced a [`ProbeSet`] — emitted in bench labels
/// so golden rows are self-describing, and carried by truncation errors.
///
/// The interesting variant is [`ProbeFamily::DeafFallbackConstants`]:
/// [`ProbeSet::deaf_continuations`] on a model without any deaf graph
/// *silently* degrades to the generic constant family, which probes a
/// different (Theorem-5-style) quantity than the Lemma 7/8 arguments
/// expect. The fallback is still sound (`δ̂ ≤ δ`), but reports must say
/// it happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeFamily {
    /// Explicit patterns via [`ProbeSet::new`].
    Explicit,
    /// `G^ω` for every graph of the model ([`ProbeSet::constants`]).
    Constants,
    /// Constant continuations of the model's deaf graphs
    /// ([`ProbeSet::deaf_continuations`], deaf graphs present).
    Deaf,
    /// [`ProbeSet::deaf_continuations`] found **no** deaf graph and fell
    /// back to the constant family.
    DeafFallbackConstants,
    /// The periodic `σ_i^ω` probes of §6 ([`ProbeSet::sigma_psi`]).
    SigmaPsi,
}

impl ProbeFamily {
    /// A short stable label for bench/golden rows.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ProbeFamily::Explicit => "explicit",
            ProbeFamily::Constants => "constants",
            ProbeFamily::Deaf => "deaf",
            ProbeFamily::DeafFallbackConstants => "constants(deaf-fallback)",
            ProbeFamily::SigmaPsi => "sigma-psi",
        }
    }
}

/// A strict-mode probe failure: some probe pattern's spread never
/// reached the tolerance within the horizon, so its centroid is not a
/// certified reachable limit and the valency estimate would silently
/// under-approximate.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeTruncation {
    /// Index of the first truncated pattern (in [`ProbeSet::patterns`]
    /// order).
    pub pattern: usize,
    /// The family the probe set was built from.
    pub family: ProbeFamily,
    /// The probe horizon that expired.
    pub max_rounds: usize,
    /// The convergence tolerance that was not reached.
    pub tol: f64,
}

impl std::fmt::Display for ProbeTruncation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "probe {} of the {} family did not converge to tol {:e} within {} rounds: \
             its centroid is not a certified limit (raise max_rounds or drop strict mode)",
            self.pattern,
            self.family.label(),
            self.tol,
            self.max_rounds
        )
    }
}

impl std::error::Error for ProbeTruncation {}

/// One probe continuation: an eventually-periodic communication pattern
/// from the model, used to realise one reachable limit from a
/// configuration.
#[derive(Debug, Clone)]
pub enum ProbePattern {
    /// `G^ω` — the constant continuation.
    Constant(Digraph),
    /// `(G_1 … G_k)^ω` — a periodic continuation (e.g. `σ_i^ω` in §6).
    Periodic(Vec<Digraph>),
}

impl ProbePattern {
    fn limit<A, const D: usize>(
        &self,
        exec: &Execution<A, D>,
        tol: f64,
        max_rounds: usize,
    ) -> LimitEstimate<D>
    where
        A: Algorithm<D> + Clone,
    {
        let mut fork = exec.clone();
        let graphs: &[Digraph] = match self {
            ProbePattern::Constant(g) => std::slice::from_ref(g),
            ProbePattern::Periodic(gs) => gs,
        };
        let mut p = SliceCycle { graphs, pos: 0 };
        fork.limit_estimate(&mut p, tol, max_rounds)
    }
}

/// A finite family of probe continuations; the estimated valency of a
/// configuration is the set of their limits.
///
/// Soundness: every probe pattern is a legal continuation inside the
/// network model, so each limit is a true member of `Y*(C)` and the
/// estimated diameter `δ̂(C)` **never exceeds** the true `δ(C)`. The
/// per-theorem constructors choose exactly the continuations the paper's
/// proofs use, which is why `δ̂` tracks the proofs' quantities tightly.
///
/// # Convergence and strict mode
///
/// Each probe runs for at most `max_rounds` rounds. A probe whose
/// spread never falls below `tol` is *truncated*: its centroid is only
/// an approximation of the true reachable limit, and `δ̂` may
/// under-approximate what the probe family was meant to witness. By
/// default [`ProbeSet::estimate`] records this in
/// [`ValencyEstimate::converged`]; with [`ProbeSet::strict`] set,
/// truncation becomes a hard error ([`ProbeSet::try_estimate`] returns
/// [`ProbeTruncation`], and `estimate` panics with its message).
///
/// # Parallelism
///
/// With [`ProbeSet::threads`] > 1 the probe forks are dispatched onto
/// the shared `consensus-pool` executor. Limits are collected back **in
/// pattern index order**, so the resulting estimate is bit-for-bit
/// identical to the serial one at every thread count.
#[derive(Debug, Clone)]
pub struct ProbeSet {
    patterns: Vec<ProbePattern>,
    family: ProbeFamily,
    strict: bool,
    threads: usize,
    trace: consensus_obs::TraceHandle,
    trace_shard: u64,
    /// Convergence tolerance for probe runs.
    pub tol: f64,
    /// Probe horizon (rounds) — probes stop early on convergence.
    pub max_rounds: usize,
}

impl ProbeSet {
    /// Builds a probe set from explicit patterns.
    ///
    /// # Panics
    ///
    /// Panics if `patterns` is empty.
    #[must_use]
    pub fn new(patterns: Vec<ProbePattern>) -> Self {
        Self::with_family(patterns, ProbeFamily::Explicit)
    }

    fn with_family(patterns: Vec<ProbePattern>, family: ProbeFamily) -> Self {
        assert!(!patterns.is_empty(), "need at least one probe");
        ProbeSet {
            patterns,
            family,
            strict: false,
            threads: 1,
            trace: consensus_obs::TraceHandle::disabled(),
            trace_shard: 0,
            tol: 1e-12,
            max_rounds: 600,
        }
    }

    /// Attaches a [`consensus_obs::TraceHandle`]: every estimate
    /// commits per-probe `probe` spans plus `probe_rounds` /
    /// `probe_converged` counters on `(shard, lane::PROBE)`.
    ///
    /// Probe events are content-class — a pure function of the probed
    /// configuration — so a traced estimate is bit-identical at every
    /// [`ProbeSet::threads`] setting. Callers tracing **concurrent**
    /// estimates must give each call site its own `shard` (serial
    /// repeated estimates on one shard merge deterministically in call
    /// order).
    #[must_use]
    pub fn trace(mut self, trace: consensus_obs::TraceHandle, shard: u64) -> Self {
        self.trace = trace;
        self.trace_shard = shard;
        self
    }

    /// One constant probe `G^ω` per graph of the model — the generic
    /// family used with Theorem 5's adversary.
    #[must_use]
    pub fn constants(model: &NetworkModel) -> Self {
        Self::with_family(
            model
                .graphs()
                .iter()
                .cloned()
                .map(ProbePattern::Constant)
                .collect(),
            ProbeFamily::Constants,
        )
    }

    /// Constant probes for the graphs in which some agent is deaf — the
    /// family behind Lemma 7/Lemma 8 and Theorems 1 and 2. Falls back to
    /// all constants if no graph has a deaf agent; the fallback is
    /// recorded as [`ProbeFamily::DeafFallbackConstants`] in
    /// [`ProbeSet::family`] so reports can surface it.
    #[must_use]
    pub fn deaf_continuations(model: &NetworkModel) -> Self {
        let deaf: Vec<ProbePattern> = model
            .graphs()
            .iter()
            .filter(|g| (0..g.n()).any(|i| g.is_deaf(i)))
            .cloned()
            .map(ProbePattern::Constant)
            .collect();
        if deaf.is_empty() {
            let mut set = Self::constants(model);
            set.family = ProbeFamily::DeafFallbackConstants;
            set
        } else {
            Self::with_family(deaf, ProbeFamily::Deaf)
        }
    }

    /// The periodic probes `σ_i^ω = (Ψ_i^{n−2})^ω` of §6 for `n ≥ 4`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4`.
    #[must_use]
    pub fn sigma_psi(n: usize) -> Self {
        let probes = (0..3)
            .map(|i| {
                let psi = consensus_digraph::families::psi(n, i);
                ProbePattern::Periodic(vec![psi; n - 2])
            })
            .collect();
        Self::with_family(probes, ProbeFamily::SigmaPsi)
    }

    /// Makes truncated probes a hard error instead of a flag.
    #[must_use]
    pub fn strict(mut self) -> Self {
        self.strict = true;
        self
    }

    /// Dispatches probe forks onto `threads` pool workers (`0` means
    /// [`consensus_pool::default_threads`]; the default `1` runs
    /// serially in the caller's thread). Results are identical at every
    /// thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 {
            consensus_pool::default_threads()
        } else {
            threads
        };
        self
    }

    /// Whether truncated probes are a hard error.
    #[must_use]
    pub fn is_strict(&self) -> bool {
        self.strict
    }

    /// The constructor family this set was built from.
    #[must_use]
    pub fn family(&self) -> ProbeFamily {
        self.family
    }

    /// The probes in this set.
    #[must_use]
    pub fn patterns(&self) -> &[ProbePattern] {
        &self.patterns
    }

    /// Estimates the valency of the configuration held by `exec`
    /// (which is **not** advanced — probes run on forks).
    ///
    /// # Panics
    ///
    /// In strict mode ([`ProbeSet::strict`]), panics if any probe is
    /// truncated; use [`ProbeSet::try_estimate`] to handle the error.
    #[must_use]
    pub fn estimate<A, const D: usize>(&self, exec: &Execution<A, D>) -> ValencyEstimate<D>
    where
        A: Algorithm<D> + Clone,
    {
        match self.try_estimate(exec) {
            Ok(est) => est,
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`ProbeSet::estimate`], but returns [`ProbeTruncation`]
    /// instead of panicking when strict mode rejects a truncated probe.
    /// Outside strict mode this never fails: truncation is reported via
    /// [`ValencyEstimate::converged`].
    pub fn try_estimate<A, const D: usize>(
        &self,
        exec: &Execution<A, D>,
    ) -> Result<ValencyEstimate<D>, ProbeTruncation>
    where
        A: Algorithm<D> + Clone,
    {
        let runs: Vec<LimitEstimate<D>> = if self.threads > 1 {
            consensus_pool::run_indexed(self.patterns.len(), self.threads, |i| {
                self.patterns[i].limit(exec, self.tol, self.max_rounds)
            })
        } else {
            self.patterns
                .iter()
                .map(|p| p.limit(exec, self.tol, self.max_rounds))
                .collect()
        };
        if let Some(mut rec) = self
            .trace
            .recorder(self.trace_shard, consensus_obs::lane::PROBE)
        {
            for (i, r) in runs.iter().enumerate() {
                let i = i as u64;
                rec.span_begin("probe", i);
                rec.counter("probe_rounds", i, r.rounds);
                rec.counter("probe_converged", i, u64::from(r.converged));
                rec.span_end("probe", i);
            }
            self.trace.commit(rec);
        }
        let truncated = runs.iter().position(|r| !r.converged);
        if self.strict {
            if let Some(pattern) = truncated {
                return Err(ProbeTruncation {
                    pattern,
                    family: self.family,
                    max_rounds: self.max_rounds,
                    tol: self.tol,
                });
            }
        }
        Ok(ValencyEstimate {
            limits: runs.iter().map(|r| r.point).collect(),
            converged: truncated.is_none(),
        })
    }
}

/// The estimated valency `Ŷ*(C)`: the limits realised by the probes.
#[derive(Debug, Clone)]
pub struct ValencyEstimate<const D: usize> {
    /// One reachable limit per probe pattern (same order).
    pub limits: Vec<Point<D>>,
    /// `true` iff **every** probe reached its tolerance within the
    /// horizon. When `false`, some entries of `limits` are truncated
    /// centroids and `δ̂` may under-approximate the family's witness.
    pub converged: bool,
}

impl<const D: usize> ValencyEstimate<D> {
    /// `δ̂(C) = diam(Ŷ*(C)) ≤ δ(C)`.
    #[must_use]
    pub fn diameter(&self) -> f64 {
        diameter(&self.limits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_algorithms::{MeanValue, Midpoint, TwoAgentThirds};

    fn pts(vals: &[f64]) -> Vec<Point<1>> {
        vals.iter().map(|&v| Point([v])).collect()
    }

    #[test]
    fn two_agent_initial_valency_is_full_spread() {
        // Lemma 8: with H1 (agent 0 deaf) and H2 (agent 1 deaf) in the
        // model, δ(C_0) = Δ(y(0)).
        let model = NetworkModel::two_agent();
        let probes = ProbeSet::deaf_continuations(&model);
        let exec = Execution::new(TwoAgentThirds, &pts(&[0.0, 1.0]));
        let est = probes.estimate(&exec);
        assert!((est.diameter() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deaf_probes_recover_agent_values_for_midpoint() {
        let model = NetworkModel::deaf(&Digraph::complete(3));
        let probes = ProbeSet::deaf_continuations(&model);
        let exec = Execution::new(Midpoint, &pts(&[0.0, 0.25, 1.0]));
        let est = probes.estimate(&exec);
        // Under F_i^ω the midpoint system converges to y_i(0).
        let mut limits: Vec<f64> = est.limits.iter().map(|p| p[0]).collect();
        limits.sort_by(f64::total_cmp);
        assert!((limits[0] - 0.0).abs() < 1e-9);
        assert!((limits[1] - 0.25).abs() < 1e-9);
        assert!((limits[2] - 1.0).abs() < 1e-9);
        assert!((est.diameter() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn probe_does_not_advance_the_execution() {
        let model = NetworkModel::two_agent();
        let probes = ProbeSet::constants(&model);
        let exec = Execution::new(Midpoint, &pts(&[0.0, 1.0]));
        let before = exec.outputs();
        let _ = probes.estimate(&exec);
        assert_eq!(exec.outputs(), before);
        assert_eq!(exec.round(), 0);
    }

    #[test]
    fn probe_loop_hands_out_refcount_clones_not_deep_copies() {
        // The allocation contract of the per-round adversary loop: the
        // probe pattern source must emit copy-on-write clones of the
        // probe set's own graph storage, never fresh mask vectors.
        let graphs = vec![Digraph::complete(5), Digraph::complete(5).make_deaf(0)];
        let mut cyc = SliceCycle {
            graphs: &graphs,
            pos: 0,
        };
        for round in 0..6u64 {
            let emitted = cyc.next_graph(round);
            assert!(
                emitted.shares_storage(&graphs[(round as usize) % graphs.len()]),
                "round {round}: probe graph must share storage with the probe set"
            );
        }
    }

    #[test]
    fn estimates_shrink_along_contraction() {
        // δ̂ is monotone along midpoint rounds on the clique.
        let model = NetworkModel::deaf(&Digraph::complete(3));
        let probes = ProbeSet::deaf_continuations(&model);
        let mut exec = Execution::new(MeanValue, &pts(&[0.0, 1.0, 0.5]));
        let d0 = probes.estimate(&exec).diameter();
        exec.step(&Digraph::complete(3));
        let d1 = probes.estimate(&exec).diameter();
        assert!(d1 <= d0 + 1e-12);
    }

    #[test]
    fn sigma_probes_exist_and_converge() {
        let n = 5;
        let probes = ProbeSet::sigma_psi(n);
        assert_eq!(probes.patterns().len(), 3);
        assert_eq!(probes.family(), ProbeFamily::SigmaPsi);
        let alg = consensus_algorithms::AmortizedMidpoint::for_agents(n);
        let exec = Execution::new(alg, &pts(&[0.0, 1.0, 0.3, 0.8, 0.5]));
        let est = probes.estimate(&exec);
        assert!(est.converged, "σ-probes converge within the horizon");
        assert!(est.diameter() > 0.0, "distinct σ-limits witness valency");
        assert!(
            est.diameter() <= 1.0 + 1e-9,
            "validity keeps limits in hull"
        );
    }

    #[test]
    fn deaf_fallback_is_recorded_not_silent() {
        // A model with no deaf graph: the deaf family silently degraded
        // to constants before; now the degradation is labelled.
        let model = NetworkModel::singleton(Digraph::complete(3));
        let probes = ProbeSet::deaf_continuations(&model);
        assert_eq!(probes.family(), ProbeFamily::DeafFallbackConstants);
        assert_eq!(probes.family().label(), "constants(deaf-fallback)");
        // And a model *with* deaf graphs keeps the honest label.
        let deaf_model = NetworkModel::deaf(&Digraph::complete(3));
        assert_eq!(
            ProbeSet::deaf_continuations(&deaf_model).family(),
            ProbeFamily::Deaf
        );
    }

    #[test]
    fn strict_mode_errors_on_truncation() {
        // An empty graph (self-loops only) keeps both agents frozen at
        // their initial values: spread 1.0 forever, never below tol.
        let frozen = Digraph::try_empty(2).unwrap();
        let mut probes = ProbeSet::new(vec![ProbePattern::Constant(frozen)]).strict();
        probes.max_rounds = 25;
        let exec = Execution::new(Midpoint, &pts(&[0.0, 1.0]));
        let err = probes.try_estimate(&exec).unwrap_err();
        assert_eq!(err.pattern, 0);
        assert_eq!(err.family, ProbeFamily::Explicit);
        assert_eq!(err.max_rounds, 25);
        let msg = err.to_string();
        assert!(msg.contains("did not converge"), "got: {msg}");
        // Non-strict: same probes, flag instead of error.
        let mut lax = ProbeSet::new(probes.patterns().to_vec());
        lax.max_rounds = 25;
        let est = lax.estimate(&exec);
        assert!(!est.converged);
        assert!((est.diameter() - 0.0).abs() < 1e-12, "single probe: δ̂ = 0");
    }

    #[test]
    #[should_panic(expected = "did not converge")]
    fn strict_estimate_panics_on_truncation() {
        let frozen = Digraph::try_empty(2).unwrap();
        let mut probes = ProbeSet::new(vec![ProbePattern::Constant(frozen)]).strict();
        probes.max_rounds = 25;
        let exec = Execution::new(Midpoint, &pts(&[0.0, 1.0]));
        let _ = probes.estimate(&exec);
    }

    #[test]
    fn pooled_probes_match_serial_bit_for_bit() {
        let model = NetworkModel::deaf(&Digraph::complete(4));
        let serial = ProbeSet::deaf_continuations(&model);
        let exec = Execution::new(Midpoint, &pts(&[0.0, 0.4, 0.7, 1.0]));
        let want = serial.estimate(&exec);
        for threads in [2, 4, 8] {
            let pooled = ProbeSet::deaf_continuations(&model).threads(threads);
            let got = pooled.estimate(&exec);
            assert_eq!(got.converged, want.converged);
            assert_eq!(got.limits.len(), want.limits.len());
            for (a, b) in got.limits.iter().zip(want.limits.iter()) {
                for d in 0..1 {
                    assert_eq!(a[d].to_bits(), b[d].to_bits(), "threads={threads}");
                }
            }
        }
    }
}
