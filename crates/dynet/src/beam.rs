//! Seeded beam search over rooted digraphs: the scalable replacement
//! for the exhaustive all-rooted enumeration.
//!
//! [`DiameterMaximiser::all_rooted`](crate::DiameterMaximiser::all_rooted)
//! scores all `2^{n(n−1)}`-ish rooted graphs per round, which caps it at
//! `n ≤ 4`. [`BeamSearch`] explores the same space incrementally: each
//! round it grows a candidate frontier from a deterministic seed set
//! (the deaf family, the clique, and the previously committed graph) by
//! single-edge toggles plus splitmix64-seeded multi-edge mutations,
//! keeps the `width` best candidates for `depth` expansion waves, and
//! commits the overall best. Everything is a pure function of
//! `(parameters, seed, execution state)`, so runs replay bit-for-bit.
//!
//! # Exactness at small `n`
//!
//! The rooted class is connected under single-edge toggles *through the
//! clique*: every supergraph of a rooted graph is rooted, so deleting
//! the edges of `K_n \ G` one at a time walks from `K_n` down to any
//! rooted `G` without ever leaving the class. A beam wide enough to
//! never prune (`width ≥ |class|`) with `depth ≥ n(n−1)` therefore
//! visits **every** rooted graph, and its argmax — under the canonical
//! comparator (score descending by `total_cmp`, then smaller
//! [`Digraph`]) — coincides exactly with the [`ExhaustiveRooted`]
//! reference driver's. The `ci/golden_adversary.json` gate and the
//! `beam_props` suite pin this equivalence at `n ∈ {2, 3, 4}`.

use std::cmp::Ordering;
use std::collections::BTreeSet;

use consensus_algorithms::Algorithm;
use consensus_digraph::{enumerate, families, in_masks_are_rooted, AgentSet, Digraph, MAX_AGENTS};
use consensus_dynamics::scenario::Driver;
use consensus_dynamics::Execution;

/// splitmix64 step — the same mixer `consensus_sweep::cell_seed` uses,
/// kept local so the beam's mutation stream needs no extra dependency
/// surface.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `true` iff `(a_score, a)` ranks strictly better than `(b_score, b)`
/// under the canonical beam comparator: larger score first
/// (`total_cmp`, so NaN ranks above every real and surfaces loudly),
/// ties broken towards the smaller graph in [`Digraph`]'s derived
/// order. Both [`BeamSearch`] and [`ExhaustiveRooted`] commit with this
/// comparator, which is what makes their argmaxes comparable.
fn ranks_better(a_score: f64, a: &Digraph, b_score: f64, b: &Digraph) -> bool {
    match a_score.total_cmp(&b_score) {
        Ordering::Greater => true,
        Ordering::Less => false,
        Ordering::Equal => a < b,
    }
}

/// Scores `candidates` by one-step lookahead: fork the execution, apply
/// the candidate for one round, measure the value diameter. Pooled when
/// `threads > 1`; scores come back in candidate index order either way,
/// so the downstream argmax is thread-count invariant.
fn score_candidates<A, const D: usize>(
    candidates: &[Digraph],
    exec: &Execution<A, D>,
    threads: usize,
) -> Vec<f64>
where
    A: Algorithm<D> + Clone + Sync,
    A::State: Sync,
    A::Msg: Sync,
{
    let score = |i: usize| {
        let mut fork = exec.clone();
        fork.step(&candidates[i]);
        fork.value_diameter()
    };
    if threads > 1 {
        consensus_pool::run_indexed(candidates.len(), threads, score)
    } else {
        (0..candidates.len()).map(score).collect()
    }
}

/// The graphs one round of [`BeamSearch`] has generated so far, keyed by
/// in-mask table so that a duplicate is dropped before any [`Digraph`]
/// is built for it.
type Visited = BTreeSet<Vec<AgentSet>>;

/// Appends the graph with in-masks `masks` to `fresh` and marks it
/// visited, unless the round has generated it before or `check_rooted`
/// is set and it is not rooted.
fn admit(masks: &[AgentSet], check_rooted: bool, visited: &mut Visited, fresh: &mut Vec<Digraph>) {
    if visited.contains(masks) || (check_rooted && !in_masks_are_rooted(masks)) {
        return;
    }
    visited.insert(masks.to_vec());
    fresh.push(Digraph::from_in_masks(masks).expect("beam graphs have 2 ≤ n ≤ 64 agents"));
}

/// A value-aware adaptive adversary over the rooted-graph class, driven
/// by seeded beam search — scales the [`DiameterMaximiser`]-style greedy
/// one-step lookahead to `n ≥ 16`.
///
/// Per round the driver:
///
/// 1. seeds the frontier with the deaf family `deaf(K_n)`, the clique
///    `K_n`, and the graph committed in the previous round;
/// 2. runs `depth` expansion waves: every frontier graph spawns
///    `mutations` splitmix64-seeded multi-edge mutants on every wave,
///    plus all of its rooted single-edge toggles on the first wave it
///    is expanded in (later waves would only regenerate them), fresh
///    candidates are scored (pool-parallel with
///    [`BeamSearch::threads`] > 1), and the `width` best scored graphs
///    survive as the next frontier;
/// 3. commits the best graph seen overall (canonical comparator:
///    score descending, then smaller graph).
///
/// The mutation stream is a pure function of `(seed, round)` and the
/// deterministic frontier order, so the driver is replayable and
/// bit-identical at every thread count.
///
/// [`DiameterMaximiser`]: crate::DiameterMaximiser
#[derive(Debug, Clone)]
pub struct BeamSearch {
    n: usize,
    width: usize,
    depth: usize,
    mutations: usize,
    seed: u64,
    fork_threads: usize,
    committed: Option<Digraph>,
    round: u64,
    trace: consensus_obs::TraceHandle,
    trace_shard: u64,
}

impl BeamSearch {
    /// A beam adversary for `n` agents with the default knobs
    /// (width 6, depth 2, 4 mutations per frontier graph).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `n > 64`.
    #[must_use]
    pub fn new(n: usize, seed: u64) -> Self {
        assert!((2..=64).contains(&n), "beam search needs 2 ≤ n ≤ 64");
        BeamSearch {
            n,
            width: 6,
            depth: 2,
            mutations: 4,
            seed,
            fork_threads: 1,
            committed: None,
            round: 0,
            trace: consensus_obs::TraceHandle::disabled(),
            trace_shard: 0,
        }
    }

    /// Attaches a [`consensus_obs::TraceHandle`]: each committed round
    /// records a `beam_generation` span on `(shard, lane::BEAM)` with a
    /// `beam_candidates` counter (graphs scored that round) and a
    /// `beam_best` gauge (the committed one-step score). The events are
    /// content-class — the search is a pure function of
    /// `(parameters, seed, execution state)` — so the stream is
    /// bit-identical at every thread count.
    #[must_use]
    pub fn trace(mut self, trace: consensus_obs::TraceHandle, shard: u64) -> Self {
        self.trace = trace;
        self.trace_shard = shard;
        self
    }

    /// Sets the beam width (frontier size kept between waves).
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    #[must_use]
    pub fn width(mut self, width: usize) -> Self {
        assert!(width >= 1, "beam width must be at least 1");
        self.width = width;
        self
    }

    /// Sets the number of expansion waves per round.
    #[must_use]
    pub fn depth(mut self, depth: usize) -> Self {
        self.depth = depth;
        self
    }

    /// Sets the number of random multi-edge mutants spawned per frontier
    /// graph per wave (`0` makes the expansion purely the deterministic
    /// single-edge toggles — the exhaustive-equivalence configuration).
    #[must_use]
    pub fn mutations(mut self, mutations: usize) -> Self {
        self.mutations = mutations;
        self
    }

    /// Dispatches candidate scoring onto `threads` pool workers (`0`
    /// means [`consensus_pool::default_threads`]; the default `1` scores
    /// serially). The committed schedule is bit-for-bit identical at
    /// every thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.fork_threads = if threads == 0 {
            consensus_pool::default_threads()
        } else {
            threads
        };
        self
    }

    /// The agent count this adversary attacks.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Admits every rooted single-edge toggle of the rooted graph `g`, in
    /// deterministic `(from, to)` order, editing one stack copy of its
    /// masks. Only removals are checked for rootedness: every supergraph
    /// of a rooted graph is rooted.
    fn toggle_neighbours(g: &Digraph, visited: &mut Visited, fresh: &mut Vec<Digraph>) {
        let n = g.n();
        let mut buf = [0; MAX_AGENTS];
        let masks = &mut buf[..n];
        masks.copy_from_slice(g.in_masks());
        for from in 0..n {
            let bit = 1u64 << from;
            for to in 0..n {
                if from == to {
                    continue;
                }
                masks[to] ^= bit;
                let removed = masks[to] & bit == 0;
                admit(masks, removed, visited, fresh);
                masks[to] ^= bit;
            }
        }
    }

    /// Admits the rooted ones among `count` random multi-edge mutants of
    /// `g` drawn from the splitmix64 stream.
    fn mutate(
        g: &Digraph,
        count: usize,
        rng: &mut u64,
        visited: &mut Visited,
        fresh: &mut Vec<Digraph>,
    ) {
        let n = g.n();
        for _ in 0..count {
            let mut buf = [0; MAX_AGENTS];
            let masks = &mut buf[..n];
            masks.copy_from_slice(g.in_masks());
            // 2–3 toggles per mutant: enough to escape the single-toggle
            // neighbourhood without losing locality.
            let toggles = 2 + (splitmix64(rng) % 2) as usize;
            for _ in 0..toggles {
                let from = (splitmix64(rng) % n as u64) as usize;
                let mut to = (splitmix64(rng) % n as u64) as usize;
                if from == to {
                    to = (to + 1) % n;
                }
                masks[to] ^= 1u64 << from;
            }
            admit(masks, true, visited, fresh);
        }
    }

    /// One full beam search against the configuration in `exec`: the
    /// committed graph, its one-step score, and the number of candidate
    /// graphs scored (for telemetry).
    fn search<A, const D: usize>(&self, exec: &Execution<A, D>) -> (Digraph, f64, u64)
    where
        A: Algorithm<D> + Clone + Sync,
        A::State: Sync,
        A::Msg: Sync,
    {
        // Deterministic seed frontier: the Theorem-2 deaf family, the
        // clique, and the previous round's committed graph (warm start).
        let mut fresh: Vec<Digraph> = families::deaf_family(&Digraph::complete(self.n));
        fresh.push(Digraph::complete(self.n));
        if let Some(g) = &self.committed {
            fresh.push(g.clone());
        }
        let mut visited = Visited::new();
        fresh.retain(|g| visited.insert(g.in_masks().to_vec()));

        // The mutation stream depends only on (seed, round): replays and
        // thread counts cannot perturb it.
        let mut rng = self.seed ^ self.round.wrapping_mul(0xA076_1D64_78BD_642F);

        // Each entry: graph, score, and whether its toggles are generated.
        let mut frontier: Vec<(Digraph, f64, bool)> = Vec::new();
        let mut best: Option<(Digraph, f64)> = None;
        let mut scored_count = 0;
        for wave in 0..=self.depth {
            if wave > 0 {
                frontier.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                frontier.truncate(self.width);
                for (g, _, expanded) in &mut frontier {
                    // A graph's toggles all enter `visited` the first time
                    // it is expanded; a later wave would only regenerate
                    // duplicates.
                    if !*expanded {
                        Self::toggle_neighbours(g, &mut visited, &mut fresh);
                        *expanded = true;
                    }
                    // Mutants are drawn on every wave: skipping them would
                    // shift the splitmix64 stream, and with it the search.
                    Self::mutate(g, self.mutations, &mut rng, &mut visited, &mut fresh);
                }
                if fresh.is_empty() {
                    break;
                }
            }

            let scores = score_candidates(&fresh, exec, self.fork_threads);
            scored_count += fresh.len() as u64;
            for (g, s) in fresh.drain(..).zip(scores) {
                if best
                    .as_ref()
                    .is_none_or(|(b, bs)| ranks_better(s, &g, *bs, b))
                {
                    best = Some((g.clone(), s));
                }
                frontier.push((g, s, false));
            }
        }
        let (g, s) = best.expect("seed frontier is non-empty");
        (g, s, scored_count)
    }
}

impl<A, const D: usize> Driver<A, D> for BeamSearch
where
    A: Algorithm<D> + Clone + Sync,
    A::State: Sync,
    A::Msg: Sync,
{
    fn next_block(&mut self, exec: &Execution<A, D>, out: &mut Vec<Digraph>) {
        let mut rec = self
            .trace
            .recorder(self.trace_shard, consensus_obs::lane::BEAM);
        if let Some(r) = &mut rec {
            r.span_begin("beam_generation", self.round);
        }
        let (g, d, scored) = self.search(exec);
        assert!(!d.is_nan(), "beam candidate produced a NaN value diameter");
        if let Some(mut r) = rec {
            r.counter("beam_candidates", self.round, scored);
            r.gauge("beam_best", self.round, d);
            r.span_end("beam_generation", self.round);
            self.trace.commit(r);
        }
        self.committed = Some(g.clone());
        self.round += 1;
        out.push(g);
    }
}

/// The exhaustive reference for [`BeamSearch`]: scores **every** rooted
/// graph each round and commits with the same canonical comparator.
/// Only feasible at `n ≤ 4`; exists so the beam's exact-equivalence
/// claim is testable against an independent argmax over the full class.
///
/// (This is *not* [`DiameterMaximiser`](crate::DiameterMaximiser) with
/// [`all_rooted`](crate::DiameterMaximiser::all_rooted) candidates: that
/// driver tie-breaks by enumeration order, the beam by graph order —
/// the comparator must match for equivalence to be exact.)
#[derive(Debug, Clone)]
pub struct ExhaustiveRooted {
    candidates: Vec<Digraph>,
    fork_threads: usize,
}

impl ExhaustiveRooted {
    /// Enumerates all rooted graphs on `n` agents.
    ///
    /// # Panics
    ///
    /// Panics if `n ∉ 1..=4` (class size is exponential in `n²`).
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(
            (1..=4).contains(&n),
            "exhaustive rooted enumeration is capped at n ≤ 4 (got n = {n})"
        );
        ExhaustiveRooted {
            candidates: enumerate::rooted_graphs(n).collect(),
            fork_threads: 1,
        }
    }

    /// Dispatches scoring onto `threads` pool workers (`0` means
    /// [`consensus_pool::default_threads`]); results are thread-count
    /// invariant.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.fork_threads = if threads == 0 {
            consensus_pool::default_threads()
        } else {
            threads
        };
        self
    }

    /// The enumerated rooted class.
    #[must_use]
    pub fn candidates(&self) -> &[Digraph] {
        &self.candidates
    }
}

impl<A, const D: usize> Driver<A, D> for ExhaustiveRooted
where
    A: Algorithm<D> + Clone + Sync,
    A::State: Sync,
    A::Msg: Sync,
{
    fn next_block(&mut self, exec: &Execution<A, D>, out: &mut Vec<Digraph>) {
        let scores = score_candidates(&self.candidates, exec, self.fork_threads);
        let mut best: Option<(usize, f64)> = None;
        for (i, &s) in scores.iter().enumerate() {
            let better = match best {
                None => true,
                Some((bi, bs)) => ranks_better(s, &self.candidates[i], bs, &self.candidates[bi]),
            };
            if better {
                best = Some((i, s));
            }
        }
        let (i, d) = best.expect("rooted class is non-empty");
        assert!(!d.is_nan(), "candidate {i} produced a NaN value diameter");
        out.push(self.candidates[i].clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::tests::Poisoned;
    use consensus_algorithms::{MeanValue, Midpoint, Point};
    use consensus_dynamics::Scenario;

    fn spread(n: usize) -> Vec<Point<1>> {
        (0..n).map(|i| Point([i as f64 / (n - 1) as f64])).collect()
    }

    /// Width that can never prune at n ≤ 4 (≥ the full digraph count).
    fn full_width(n: usize) -> usize {
        1 << (n * (n - 1))
    }

    #[test]
    fn full_width_beam_matches_exhaustive_argmax() {
        for n in [2, 3, 4] {
            let rounds = 4;
            let mut beam_sc = Scenario::new(Midpoint, &spread(n)).adversary(
                BeamSearch::new(n, 7)
                    .width(full_width(n))
                    .depth(n * (n - 1))
                    .mutations(0),
            );
            let mut ex_sc = Scenario::new(Midpoint, &spread(n)).adversary(ExhaustiveRooted::new(n));
            let beam_trace = beam_sc.run(rounds);
            let ex_trace = ex_sc.run(rounds);
            assert_eq!(
                beam_trace.outputs_at(rounds),
                ex_trace.outputs_at(rounds),
                "n={n}: full-width beam must equal the exhaustive argmax"
            );
        }
    }

    #[test]
    fn beam_is_seed_deterministic_and_thread_invariant() {
        let n = 8;
        let run = |threads: usize| {
            let mut sc = Scenario::new(MeanValue, &spread(n))
                .adversary(BeamSearch::new(n, 42).threads(threads));
            sc.advance(6);
            sc.execution().outputs()
        };
        let serial = run(1);
        for threads in [2, 4] {
            let got = run(threads);
            for (a, b) in got.iter().zip(serial.iter()) {
                assert_eq!(a[0].to_bits(), b[0].to_bits(), "threads={threads}");
            }
        }
        assert_eq!(run(1), serial, "same seed, same schedule");
    }

    #[test]
    fn beam_at_n16_beats_the_deaf_family_rate() {
        // The point of searching beyond deaf(K_n): against plain
        // averaging there are rooted graphs (path-like chains) that
        // contract far slower than any deaf clique variant.
        let n = 16;
        let rounds = 12;
        let mut beam = Scenario::new(MeanValue, &spread(n))
            .adversary(BeamSearch::new(n, 3).width(4).depth(2).mutations(2));
        beam.advance(rounds);
        let beam_diam = beam.execution().value_diameter();
        let mut deaf = Scenario::new(MeanValue, &spread(n))
            .adversary(crate::DiameterMaximiser::deaf_complete(n));
        deaf.advance(rounds);
        let deaf_diam = deaf.execution().value_diameter();
        assert!(
            beam_diam >= deaf_diam - 1e-12,
            "beam ({beam_diam:e}) must be at least as adversarial as deaf ({deaf_diam:e})"
        );
    }

    #[test]
    fn traced_beam_is_bit_identical_and_thread_invariant() {
        let n = 6;
        let rounds = 4;
        let run = |threads: usize, trace: Option<consensus_obs::TraceHandle>| {
            let mut adv = BeamSearch::new(n, 19)
                .width(3)
                .depth(2)
                .mutations(2)
                .threads(threads);
            if let Some(t) = trace {
                adv = adv.trace(t, 0);
            }
            let mut sc = Scenario::new(MeanValue, &spread(n)).adversary(adv);
            sc.advance(rounds);
            sc.execution().outputs()
        };
        let plain = run(1, None);
        let t1 = consensus_obs::TraceHandle::enabled();
        let traced = run(1, Some(t1.clone()));
        assert_eq!(plain, traced, "tracing must not perturb the schedule");
        let s1 = t1.merged();
        assert_eq!(s1.events_for_span("beam_generation").len(), 2 * rounds);
        assert_eq!(s1.gauge_values("beam_best").len(), rounds);
        assert!(s1.counter_total("beam_candidates") > 0);
        let t4 = consensus_obs::TraceHandle::enabled();
        let traced4 = run(4, Some(t4.clone()));
        assert_eq!(plain, traced4);
        assert_eq!(t4.merged().content(), s1.content());
    }

    #[test]
    fn committed_graphs_are_always_rooted() {
        let n = 6;
        let mut adv = BeamSearch::new(n, 11).width(3).depth(2).mutations(3);
        let exec = Execution::new(Midpoint, &spread(n));
        for _ in 0..5 {
            let mut out = Vec::new();
            Driver::next_block(&mut adv, &exec, &mut out);
            assert!(out.iter().all(Digraph::is_rooted));
        }
    }

    #[test]
    #[should_panic(expected = "2 ≤ n ≤ 64")]
    fn beam_rejects_degenerate_n() {
        let _ = BeamSearch::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "NaN value diameter")]
    fn beam_surfaces_a_poisoned_candidate() {
        let mut adv = BeamSearch::new(3, 5);
        let exec = Execution::new(Poisoned, &spread(3));
        Driver::next_block(&mut adv, &exec, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "NaN value diameter")]
    fn exhaustive_surfaces_a_poisoned_candidate() {
        let mut adv = ExhaustiveRooted::new(3);
        let exec = Execution::new(Poisoned, &spread(3));
        Driver::next_block(&mut adv, &exec, &mut Vec::new());
    }
}
