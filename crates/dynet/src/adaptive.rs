//! The adaptive diameter-maximising driver: a greedy value-aware
//! adversary over a fixed candidate graph set.

use consensus_algorithms::float::det_argmax;
use consensus_algorithms::Algorithm;
use consensus_digraph::{enumerate, families, Digraph};
use consensus_dynamics::scenario::Driver;
use consensus_dynamics::Execution;

use crate::score::score_graphs;

/// An **adaptive** [`Driver`]: each round it scores every candidate
/// graph by the value diameter one round under it would produce (through
/// one shared [`Execution::lookahead`]) and commits the candidate whose
/// successor configuration has the **largest** value diameter — a
/// greedy one-step-lookahead adversary in the spirit of the valency
/// probes (but measuring `Δ(y)` instead of valencies).
///
/// Unlike the seeded schedule adversaries, this driver is *value-aware*:
/// its choices depend on the execution it is attacking, so different
/// algorithms see different worst-case graph sequences from the same
/// candidate set. It is still fully deterministic (no randomness; ties
/// break towards the first candidate in the list), which keeps sweep
/// cells replayable.
///
/// Against the midpoint rule with the deaf family
/// ([`DiameterMaximiser::deaf_complete`]) the greedy choice reproduces
/// the Theorem-2 behaviour: the diameter contracts by exactly 1/2 per
/// round and no faster.
#[derive(Debug, Clone)]
pub struct DiameterMaximiser {
    candidates: Vec<Digraph>,
    threads: usize,
}

impl DiameterMaximiser {
    /// Creates the driver over an explicit candidate set.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty or the graphs disagree in size.
    #[must_use]
    pub fn from_candidates(candidates: Vec<Digraph>) -> Self {
        assert!(!candidates.is_empty(), "need at least one candidate graph");
        let n = candidates[0].n();
        assert!(
            candidates.iter().all(|g| g.n() == n),
            "mixed candidate graph sizes"
        );
        DiameterMaximiser {
            candidates,
            threads: 1,
        }
    }

    /// Scores the candidates on up to `threads` pool workers, in
    /// contiguous chunks of candidates (`0` means
    /// [`consensus_pool::default_threads`]; the default `1` scores them
    /// serially in the caller's thread). `threads` is an upper bound: a
    /// round forks only into chunks that carry at least
    /// [`FORK_GRAIN`](crate::FORK_GRAIN) message receptions, and a
    /// candidate costs the in-degrees of the agents whose in-mask differs
    /// from the previous candidate's, plus `n`. Consecutive candidates of
    /// [`DiameterMaximiser::deaf_complete`] differ in two agents, so its
    /// rounds (about `3n²` receptions) score inline at every `n ≤ 64`,
    /// as does a round of a drive that itself runs on a pool worker. The
    /// knob stays for [`from_candidates`](Self::from_candidates) lists
    /// whose neighbours differ widely, and because the adversary-search
    /// cell labels the goldens pin carry it; revisit it when the goldens
    /// are next regenerated. Scores are reduced back **in candidate
    /// index order** with a strictly-greater-wins argmax, so the
    /// committed graph — and hence the entire adversarial schedule — is
    /// bit-for-bit identical at every thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 {
            consensus_pool::default_threads()
        } else {
            threads
        };
        self
    }

    /// The candidate set `deaf(K_n) = {F_1, …, F_n}` (§5 of the source
    /// paper): every candidate is rooted, and the greedy choice against
    /// midpoint attains the tight 1/2 contraction rate.
    ///
    /// # Panics
    ///
    /// Panics if `n ∉ 1..=64`.
    #[must_use]
    pub fn deaf_complete(n: usize) -> Self {
        Self::from_candidates(families::deaf_family(&Digraph::complete(n)))
    }

    /// The candidate set of **all** rooted digraphs on `n` agents, via
    /// [`enumerate::rooted_graphs`] — the largest model in which
    /// asymptotic consensus is solvable.
    ///
    /// # Panics
    ///
    /// Panics if `n ∉ 1..=4` (the class has `2^{n(n−1)}` members; the
    /// cap keeps the per-round probe cost sane). For larger `n` use the
    /// seeded [`crate::BeamSearch`] driver, which explores the rooted
    /// class incrementally instead of enumerating it.
    #[must_use]
    pub fn all_rooted(n: usize) -> Self {
        assert!(
            (1..=4).contains(&n),
            "rooted enumeration is capped at n ≤ 4 (got n = {n}); \
             use BeamSearch for larger n"
        );
        Self::from_candidates(enumerate::rooted_graphs(n).collect())
    }

    /// The candidate graphs, in tie-break (preference) order.
    #[must_use]
    pub fn candidates(&self) -> &[Digraph] {
        &self.candidates
    }
}

impl<A, const D: usize> Driver<A, D> for DiameterMaximiser
where
    A: Algorithm<D> + Clone,
{
    fn next_block(&mut self, exec: &Execution<A, D>, out: &mut Vec<Digraph>) {
        let diameters = score_graphs(exec, &self.candidates, self.threads);
        let (best, d) = det_argmax(diameters).expect("at least one candidate");
        assert!(
            !d.is_nan(),
            "candidate {best} produced a NaN value diameter"
        );
        out.push(self.candidates[best].clone());
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::score::changed_agents;
    use crate::FORK_GRAIN;
    use consensus_algorithms::{MeanValue, Midpoint, Point};
    use consensus_digraph::full_mask;
    use consensus_dynamics::Scenario;

    fn spread(n: usize) -> Vec<Point<1>> {
        (0..n).map(|i| Point([i as f64 / (n - 1) as f64])).collect()
    }

    #[test]
    fn greedy_deaf_choice_halves_midpoint_exactly() {
        // Against midpoint, the best deaf graph keeps the contraction at
        // exactly 1/2 per round — the Theorem-2 tight rate.
        let n = 4;
        let mut sc =
            Scenario::new(Midpoint, &spread(n)).adversary(DiameterMaximiser::deaf_complete(n));
        let mut d = sc.execution().value_diameter();
        for _ in 0..10 {
            sc.advance(1);
            let next = sc.execution().value_diameter();
            assert!((next - d / 2.0).abs() < 1e-12, "exact halving expected");
            d = next;
        }
    }

    #[test]
    fn adaptive_choice_is_at_least_as_slow_as_any_fixed_candidate() {
        let n = 5;
        let rounds = 8;
        let mut greedy =
            Scenario::new(MeanValue, &spread(n)).adversary(DiameterMaximiser::deaf_complete(n));
        greedy.advance(rounds);
        let worst = greedy.execution().value_diameter();
        for g in families::deaf_family(&Digraph::complete(n)) {
            let mut fixed = Scenario::new(MeanValue, &spread(n))
                .pattern(consensus_dynamics::pattern::ConstantPattern::new(g));
            fixed.advance(rounds);
            assert!(
                worst >= fixed.execution().value_diameter() - 1e-12,
                "greedy must not contract faster than a constant candidate"
            );
        }
    }

    #[test]
    fn rooted_enumeration_candidates_are_all_rooted() {
        let adv = DiameterMaximiser::all_rooted(3);
        assert!(adv.candidates().iter().all(Digraph::is_rooted));
        assert!(adv.candidates().len() > 3, "the class is non-trivial");
    }

    #[test]
    fn determinism_without_randomness() {
        let n = 4;
        let run = || {
            let mut sc =
                Scenario::new(Midpoint, &spread(n)).adversary(DiameterMaximiser::deaf_complete(n));
            sc.run(6)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.outputs_at(6), b.outputs_at(6));
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_candidate_set_rejected() {
        let _ = DiameterMaximiser::from_candidates(vec![]);
    }

    #[test]
    fn pooled_forks_match_serial_bit_for_bit() {
        // The deaf family of K_64 interleaved with the 64-cycle: every
        // two consecutive candidates differ in every agent, so each one
        // rescores all 64 outputs, the 128 candidates carry two grains,
        // and a round forks into two or three chunks whose starts fall
        // mid-list.
        let n = 64;
        let candidates: Vec<Digraph> = families::deaf_family(&Digraph::complete(n))
            .into_iter()
            .flat_map(|g| [g, families::cycle(n)])
            .collect();
        let (changed, receptions) = changed_agents(&candidates);
        assert!(changed.iter().all(|&c| c == full_mask(n)));
        assert!(receptions >= 2 * FORK_GRAIN, "a round carries two grains");
        let run = |threads: usize| {
            let adv = DiameterMaximiser::from_candidates(candidates.clone()).threads(threads);
            let mut sc = Scenario::new(MeanValue, &spread(n)).adversary(adv);
            sc.advance(1);
            let scores = score_graphs(sc.execution(), &candidates, threads);
            sc.advance(1);
            let outputs = sc.execution().outputs_slice().iter().map(|p| p[0]);
            scores
                .into_iter()
                .chain(outputs)
                .map(f64::to_bits)
                .collect::<Vec<_>>()
        };
        let serial = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), serial, "threads={threads}");
        }
    }

    /// An algorithm whose outputs turn NaN after the first step — the
    /// poisoned candidate the old `d > best_diameter` argmax silently
    /// skipped (NaN fails every `>`, so the corrupted fork could never
    /// win and the corruption went unnoticed).
    #[derive(Clone, Debug)]
    pub(crate) struct Poisoned;

    impl Algorithm<1> for Poisoned {
        type State = Point<1>;
        type Msg = Point<1>;
        fn name(&self) -> std::borrow::Cow<'static, str> {
            "poisoned".into()
        }
        fn init(&self, _agent: usize, y0: Point<1>) -> Self::State {
            y0
        }
        fn message(&self, state: &Self::State) -> Self::Msg {
            *state
        }
        fn step(
            &self,
            _agent: usize,
            state: &mut Self::State,
            _inbox: consensus_algorithms::Inbox<'_, Self::Msg>,
            _round: u64,
        ) {
            *state = Point([f64::NAN]);
        }
        fn output(&self, state: &Self::State) -> Point<1> {
            *state
        }
    }

    #[test]
    #[should_panic(expected = "NaN value diameter")]
    fn poisoned_candidate_is_surfaced_not_skipped() {
        let mut adv = DiameterMaximiser::deaf_complete(3);
        let exec = Execution::new(Poisoned, &spread(3));
        let mut out = Vec::new();
        Driver::next_block(&mut adv, &exec, &mut out);
    }
}
