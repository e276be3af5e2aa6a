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
//! # Scoring
//!
//! A candidate's score is the value diameter one round under it would
//! produce. All candidates of a round are scored against one
//! [`Execution::lookahead`], which gathers the message slate once. The
//! search keeps the output row of every frontier graph it expands, and
//! a toggle or mutant of that graph differs from it in one to three
//! agents' in-masks, so scoring it recomputes only those agents'
//! outputs. At `D = 1` the diameter of a finite row is the O(n)
//! `dist(max, min)` path of [`consensus_algorithms::diameter`], which is
//! bit-exact with the pairwise maximum because correctly rounded
//! subtraction, squaring and `sqrt` are monotone. So each expanded graph
//! also records its row's largest and smallest value, the agent holding
//! each and the runner-up of each over the other agents, and a
//! single-edge toggle costs its one changed agent's output plus O(1):
//! `dist` of the larger of the new value and the other agents' maximum,
//! and the smaller of it and their minimum. Every other case — a seed, a
//! 2–3-agent mutant, a row or a new value that is not finite, `D > 1` —
//! copies the parent's row, recomputes the changed agents and measures
//! the row.
//!
//! Candidates live as flat in-mask rows in an arena; a [`Digraph`] is
//! built only for the committed graph. An edit is checked for rootedness
//! only when it removes an edge of its parent's spanning tree, and then
//! first by asking whether the tree's root still reaches each agent that
//! lost its tree in-edge. Each wave is scored in contiguous chunks of
//! candidates, at most one per pool worker, and forks only chunks of at
//! least [`FORK_GRAIN`](crate::FORK_GRAIN) message receptions. The chunk
//! estimate takes a candidate to cost `2n` receptions. That is an upper
//! bound on a wave of toggles, which now cost at most `n` plus O(1)
//! each: every wave at `n ≤ 24` scores inline and the waves of
//! `n = 48`–`64` beams fork.
//!
//! A [`BeamSearch`] keeps its search buffers — the arena, the candidate
//! lists and the per-expansion rows, trees and extremes — for its whole
//! drive and clears them at the start of each round.
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
use std::fmt;

use consensus_algorithms::{Algorithm, Point};
use consensus_digraph::{
    agents_in, enumerate, full_mask, in_masks_are_rooted, spanning_tree, AgentSet, Digraph,
    MAX_AGENTS,
};
use consensus_dynamics::scenario::Driver;
use consensus_dynamics::{Execution, Lookahead};

use crate::score::{rescore, score_chunks, score_graphs};

/// splitmix64 step — the same mixer `consensus_sweep::cell_seed` uses,
/// kept local so the beam's mutation stream needs no extra dependency
/// surface.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    mix(*state)
}

/// The splitmix64 output function.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The canonical beam comparator, best first: larger score first
/// (`total_cmp`, so NaN ranks above every real and surfaces loudly),
/// ties broken towards the lexicographically smaller in-mask table,
/// which is [`Digraph`]'s derived order on graphs of one size. Both
/// [`BeamSearch`] and [`ExhaustiveRooted`] commit with this comparator,
/// which is what makes their argmaxes comparable. It is a strict total
/// order on distinct tables.
fn rank(a_score: f64, a: &[AgentSet], b_score: f64, b: &[AgentSet]) -> Ordering {
    b_score.total_cmp(&a_score).then_with(|| a.cmp(b))
}

/// Marks "none": a seed's parent, a frontier graph not yet expanded, or
/// an empty index slot.
const NONE: u32 = u32::MAX;

/// One candidate of a search.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    /// Its in-mask row in the [`Arena`].
    row: u32,
    /// The expanded graph it was generated from (`NONE` for a seed).
    parent: u32,
    /// The agents whose in-mask differs from the parent's (all agents
    /// for a seed).
    changed: AgentSet,
    score: f64,
    /// Its slot among the expanded graphs, once expanded.
    expanded: u32,
}

/// A search's candidates as flat in-mask rows, with a membership index
/// that drops a duplicate before it is stored. The index is open
/// addressing (linear probing) on [`row_hash`]; it is only probed, never
/// iterated, so its layout cannot reach the search's result.
///
/// Rows are stored in blocks of [`BLOCK_ROWS`] rather than one growing
/// buffer, so adding a row never copies the table. The arena lives as
/// long as its [`BeamSearch`]: [`Arena::clear`] forgets the rows at the
/// start of a round and keeps the blocks, hashes and slot index
/// allocated. When each round freed its arena instead, glibc trimmed
/// the freed heap and the next round faulted it back in, page by page.
struct Arena {
    n: usize,
    blocks: Vec<Vec<AgentSet>>,
    /// Each row's [`row_hash`], by row number.
    hashes: Vec<u64>,
    /// Row numbers (`NONE` = empty); a power of two, at least twice the
    /// row count.
    slots: Vec<u32>,
}

/// Rows per [`Arena`] block.
const BLOCK_ROWS: usize = 128;

/// Agent `agent`'s share of the hash of a row whose in-mask for it is
/// `mask`.
fn hash_term(agent: usize, mask: AgentSet) -> u64 {
    mix(mask ^ (agent as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A row's hash: the wrapping sum of its agents' [`hash_term`]s, so an
/// edit at one agent rehashes the row in O(1) ([`rehash`]).
fn row_hash(masks: &[AgentSet]) -> u64 {
    masks
        .iter()
        .enumerate()
        .fold(0, |h, (agent, &m)| h.wrapping_add(hash_term(agent, m)))
}

/// The [`row_hash`] of a row hashing to `hash` once agent `agent`'s
/// in-mask changes from `old` to `new`.
fn rehash(hash: u64, agent: usize, old: AgentSet, new: AgentSet) -> u64 {
    hash.wrapping_sub(hash_term(agent, old))
        .wrapping_add(hash_term(agent, new))
}

impl Arena {
    fn new(n: usize) -> Self {
        Arena {
            n,
            blocks: Vec::new(),
            hashes: Vec::new(),
            slots: vec![NONE; 64],
        }
    }

    /// Forgets every row, keeping the buffers: the next row stored is
    /// row 0.
    fn clear(&mut self) {
        self.blocks.iter_mut().for_each(Vec::clear);
        self.hashes.clear();
        self.slots.fill(NONE);
    }

    fn row(&self, k: u32) -> &[AgentSet] {
        let k = k as usize;
        let start = k % BLOCK_ROWS * self.n;
        &self.blocks[k / BLOCK_ROWS][start..start + self.n]
    }

    /// Stores `masks`, whose [`row_hash`] is `hash`, as a new row and
    /// returns its number, unless an equal row is stored already or
    /// `keep` (asked only for a new row) rejects it.
    fn admit(&mut self, masks: &[AgentSet], hash: u64, keep: impl FnOnce() -> bool) -> Option<u32> {
        let wrap = self.slots.len() - 1;
        let mut slot = hash as usize & wrap;
        loop {
            let k = self.slots[slot];
            if k == NONE {
                break;
            }
            if self.hashes[k as usize] == hash && self.row(k) == masks {
                return None;
            }
            slot = (slot + 1) & wrap;
        }
        if !keep() {
            return None;
        }
        let rows = self.hashes.len();
        let k = u32::try_from(rows).expect("fewer than 2^32 candidates per round");
        let block = rows / BLOCK_ROWS;
        if block == self.blocks.len() {
            self.blocks.push(Vec::with_capacity(BLOCK_ROWS * self.n));
        }
        self.blocks[block].extend_from_slice(masks);
        self.hashes.push(hash);
        self.slots[slot] = k;
        if 2 * self.hashes.len() > self.slots.len() {
            self.slots = vec![NONE; 2 * self.slots.len()];
            let wrap = self.slots.len() - 1;
            for (k, &h) in (0..).zip(&self.hashes) {
                let mut slot = h as usize & wrap;
                while self.slots[slot] != NONE {
                    slot = (slot + 1) & wrap;
                }
                self.slots[slot] = k;
            }
        }
        Some(k)
    }
}

/// Whether agent `from` reaches agent `to` in the graph with in-masks
/// `masks`: a walk backward from `to` over the in-masks that stops as
/// soon as it meets `from`.
fn reaches(masks: &[AgentSet], from: usize, to: usize) -> bool {
    let (mut seen, mut wave) = (1 << to, 1 << to);
    while seen >> from & 1 == 0 {
        if wave == 0 {
            return false;
        }
        let next = agents_in(wave).fold(0, |set, k| set | masks[k]);
        wave = next & !seen;
        seen |= next;
    }
    true
}

/// Whether a rooted graph with spanning tree `tree` rooted at `root`,
/// edited at the agents in `changed` into the in-masks `masks`, is still
/// rooted. An edit that keeps every tree edge keeps the tree. Otherwise,
/// if `root` still reaches every changed agent that lost its tree
/// in-edge, it reaches every agent: the tree path down from the nearest
/// such agent is intact. Only when it does not can another agent be the
/// root, and only then is the whole graph checked.
fn keeps_rooted(tree: &[AgentSet], root: usize, masks: &[AgentSet], changed: AgentSet) -> bool {
    agents_in(changed)
        .filter(|&v| masks[v] & tree[v] != tree[v])
        .all(|v| reaches(masks, root, v))
        || in_masks_are_rooted(masks)
}

/// Marks an [`Expansion`] whose row has no recorded extremes.
const UNMEASURED: u8 = u8::MAX;

/// An expanded graph's spanning-tree root and, at `D = 1` with a finite
/// output row, that row's extremes: what scoring a one-agent edit of the
/// graph in O(1) needs. Agents are `u8`s, so a record is 40 bytes.
#[derive(Debug, Clone, Copy)]
struct Expansion {
    /// The spanning tree's root.
    root: u8,
    /// The agent holding the row's largest value, and the one holding
    /// its smallest; both [`UNMEASURED`] when `D > 1` or the row holds a
    /// non-finite value.
    hi_at: u8,
    lo_at: u8,
    /// The row's largest value, and the largest over the agents other
    /// than `hi_at`.
    hi: f64,
    hi_next: f64,
    /// The row's smallest value, and the smallest over the agents other
    /// than `lo_at`.
    lo: f64,
    lo_next: f64,
}

/// An agent index as an [`Expansion`] stores it.
fn agent_u8(agent: usize) -> u8 {
    u8::try_from(agent).expect("beam graphs have at most 64 agents")
}

impl Expansion {
    /// The record of a graph whose spanning tree is rooted at `root` and
    /// whose output row is `values` at `D = 1` (at least two values), or
    /// unmeasured (`None`) at `D > 1`. The extremes are found with `>`
    /// and `<`, as [`consensus_algorithms::diameter`] finds them.
    fn new(root: usize, values: Option<&[f64]>) -> Self {
        let root = agent_u8(root);
        let Some(values) = values.filter(|v| v.iter().all(|x| x.is_finite())) else {
            return Expansion {
                root,
                hi_at: UNMEASURED,
                lo_at: UNMEASURED,
                hi: 0.0,
                hi_next: 0.0,
                lo: 0.0,
                lo_next: 0.0,
            };
        };
        let (mut hi_at, mut lo_at) = (0, 0);
        let (mut hi, mut lo) = (values[0], values[0]);
        let (mut hi_next, mut lo_next) = (f64::NEG_INFINITY, f64::INFINITY);
        for (i, &v) in values.iter().enumerate().skip(1) {
            if v > hi {
                (hi_next, hi, hi_at) = (hi, v, i);
            } else if v > hi_next {
                hi_next = v;
            }
            if v < lo {
                (lo_next, lo, lo_at) = (lo, v, i);
            } else if v < lo_next {
                lo_next = v;
            }
        }
        Expansion {
            root,
            hi_at: agent_u8(hi_at),
            lo_at: agent_u8(lo_at),
            hi,
            hi_next,
            lo,
            lo_next,
        }
    }

    fn is_measured(&self) -> bool {
        self.hi_at != UNMEASURED
    }

    /// The value diameter of the row once agent `agent`'s value becomes
    /// `v`, in O(1), or `None` unless the row is measured and `v` is
    /// finite. It is `dist` of the edited row's largest and smallest
    /// value, which is what [`consensus_algorithms::diameter`] measures
    /// for a finite row at `D = 1`: a tie between `0.0` and `-0.0` picks
    /// either sign, and `dist` squares the difference, so the bits agree.
    fn edited(&self, agent: usize, v: f64) -> Option<f64> {
        if !self.is_measured() || !v.is_finite() {
            return None;
        }
        let hi = if agent == usize::from(self.hi_at) {
            self.hi_next
        } else {
            self.hi
        };
        let lo = if agent == usize::from(self.lo_at) {
            self.lo_next
        } else {
            self.lo
        };
        let hi = if v > hi { v } else { hi };
        let lo = if v < lo { v } else { lo };
        Some(Point([hi]).dist(&Point([lo])))
    }
}

/// A beam search's state: the candidates generated in the current round
/// and what scoring and expanding them needs. A [`BeamSearch`] keeps one
/// for its whole drive and [clears](Search::clear) it at the start of
/// each round, so its buffers stay allocated from round to round.
struct Search {
    n: usize,
    arena: Arena,
    /// Candidates generated this wave, not scored yet.
    fresh: Vec<Candidate>,
    /// Scored candidates; after [`Search::select`], the best `width` of
    /// them in rank order.
    frontier: Vec<Candidate>,
    /// The best candidate scored so far.
    best: Option<Candidate>,
    /// The output row after the round of each expanded graph: `n` points
    /// of `D` coordinates per expansion slot.
    rows: Vec<f64>,
    /// A spanning tree of each expanded graph, `n` masks per slot.
    trees: Vec<AgentSet>,
    /// The rest of each expanded graph's bookkeeping, one per slot.
    expansions: Vec<Expansion>,
}

/// A clone starts empty: a search carries nothing from one round into
/// the next.
impl Clone for Search {
    fn clone(&self) -> Self {
        Search::new(self.n)
    }
}

/// Prints none of the buffers.
impl fmt::Debug for Search {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Search").finish_non_exhaustive()
    }
}

/// Copies the flat coordinates `flat`, `D` per point, into `row`.
fn load_row<const D: usize>(flat: &[f64], row: &mut [Point<D>]) {
    for (j, p) in row.iter_mut().enumerate() {
        p.0.copy_from_slice(&flat[j * D..(j + 1) * D]);
    }
}

impl Search {
    fn new(n: usize) -> Self {
        Search {
            n,
            arena: Arena::new(n),
            fresh: Vec::new(),
            frontier: Vec::new(),
            best: None,
            rows: Vec::new(),
            trees: Vec::new(),
            expansions: Vec::new(),
        }
    }

    /// Starts a round: forgets every candidate and expansion, keeping
    /// the buffers.
    fn clear(&mut self) {
        self.arena.clear();
        self.fresh.clear();
        self.frontier.clear();
        self.best = None;
        self.rows.clear();
        self.trees.clear();
        self.expansions.clear();
    }

    /// Generates the deterministic seeds: the Theorem-2 deaf family
    /// (`K_n` with agent `i` deaf, for each `i`), the clique, and the
    /// graph committed in the previous round (warm start).
    fn seed(&mut self, committed: Option<&Digraph>) {
        let all = full_mask(self.n);
        let mut buf = [all; MAX_AGENTS];
        let clique = &mut buf[..self.n];
        for i in 0..self.n {
            clique[i] = 1 << i;
            self.admit(clique, row_hash(clique), NONE, all, || true);
            clique[i] = all;
        }
        self.admit(clique, row_hash(clique), NONE, all, || true);
        if let Some(g) = committed {
            let masks = g.in_masks();
            self.admit(masks, row_hash(masks), NONE, all, || true);
        }
    }

    /// Adds the graph with in-masks `masks` (hash `hash`), generated from
    /// expanded graph `parent` by editing the agents in `changed`, to the
    /// fresh candidates, unless the round has generated it before or
    /// `keep` rejects it.
    fn admit(
        &mut self,
        masks: &[AgentSet],
        hash: u64,
        parent: u32,
        changed: AgentSet,
        keep: impl FnOnce() -> bool,
    ) {
        if let Some(row) = self.arena.admit(masks, hash, keep) {
            self.fresh.push(Candidate {
                row,
                parent,
                changed,
                score: 0.0,
                expanded: NONE,
            });
        }
    }

    fn rank(&self, a: &Candidate, b: &Candidate) -> Ordering {
        rank(
            a.score,
            self.arena.row(a.row),
            b.score,
            self.arena.row(b.row),
        )
    }

    /// Keeps the `width` best frontier graphs, in rank order. The
    /// comparator is a strict total order on distinct rows, so selecting
    /// before sorting keeps the same graphs in the same order as sorting
    /// everything; the stable sort also finds the sorted prefix a wave
    /// that pruned nothing leaves behind.
    fn select(&mut self, width: usize) {
        let mut frontier = std::mem::take(&mut self.frontier);
        if frontier.len() > width {
            frontier.select_nth_unstable_by(width - 1, |a, b| self.rank(a, b));
            frontier.truncate(width);
        }
        frontier.sort_by(|a, b| self.rank(a, b));
        self.frontier = frontier;
    }

    /// Expands frontier graph `k`: stores its output row (its parent's
    /// row with the changed agents recomputed), a spanning tree and the
    /// row's [`Expansion`] record, and generates all of its rooted
    /// single-edge toggles, in deterministic `(from, to)` order. Only a
    /// toggle that removes a tree edge is checked for rootedness.
    fn expand<A: Algorithm<D>, const D: usize>(&mut self, la: &Lookahead<'_, A, D>, k: usize) {
        let n = self.n;
        let f = self.frontier[k];
        let slot = u32::try_from(self.expansions.len()).expect("fewer than 2^32 expanded graphs");
        self.frontier[k].expanded = slot;
        let mut buf = [0; MAX_AGENTS];
        let masks = &mut buf[..n];
        masks.copy_from_slice(self.arena.row(f.row));

        let (e, len) = (self.rows.len(), n * D);
        if f.parent == NONE {
            self.rows.resize(e + len, 0.0);
        } else {
            let p = f.parent as usize * len;
            self.rows.extend_from_within(p..p + len);
        }
        for i in agents_in(f.changed) {
            let at = e + i * D;
            self.rows[at..at + D].copy_from_slice(&la.output(i, masks[i]).0);
        }
        let tree = spanning_tree(masks).expect("frontier graphs are rooted");
        self.trees.extend_from_slice(&tree[..n]);
        let root = tree[..n]
            .iter()
            .position(|&m| m == 0)
            .expect("a tree has a root");
        let values = (D == 1).then(|| &self.rows[e..]);
        self.expansions.push(Expansion::new(root, values));

        let base = row_hash(masks);
        for from in 0..n {
            let bit = 1u64 << from;
            for to in (0..n).filter(|&to| to != from) {
                let hash = rehash(base, to, masks[to], masks[to] ^ bit);
                masks[to] ^= bit;
                let changed = 1 << to;
                self.admit(masks, hash, slot, changed, || {
                    keeps_rooted(&tree, root, masks, changed)
                });
                masks[to] ^= bit;
            }
        }
    }

    /// Generates the rooted ones among `count` random multi-edge mutants
    /// of expanded frontier graph `k`, drawn from the splitmix64 stream.
    fn mutate(&mut self, k: usize, count: usize, rng: &mut u64) {
        if count == 0 {
            return;
        }
        let n = self.n;
        let slot = self.frontier[k].expanded;
        let (mut masks, mut tree) = ([0; MAX_AGENTS], [0; MAX_AGENTS]);
        masks[..n].copy_from_slice(self.arena.row(self.frontier[k].row));
        let e = slot as usize * n;
        tree[..n].copy_from_slice(&self.trees[e..e + n]);
        let root = usize::from(self.expansions[slot as usize].root);
        for _ in 0..count {
            let mut mutant = masks;
            // 2–3 toggles per mutant: enough to escape the single-toggle
            // neighbourhood without losing locality.
            let toggles = 2 + (splitmix64(rng) % 2) as usize;
            for _ in 0..toggles {
                let from = (splitmix64(rng) % n as u64) as usize;
                let mut to = (splitmix64(rng) % n as u64) as usize;
                if from == to {
                    to = (to + 1) % n;
                }
                mutant[to] ^= 1u64 << from;
            }
            let mutant = &mutant[..n];
            let changed = (0..n)
                .filter(|&v| mutant[v] != masks[v])
                .fold(0, |set, v| set | 1 << v);
            let keep = || keeps_rooted(&tree, root, mutant, changed);
            self.admit(mutant, row_hash(mutant), slot, changed, keep);
        }
    }

    /// The score of fresh candidate `k`. A one-agent edit of a measured
    /// expansion costs that agent's output plus O(1)
    /// ([`Expansion::edited`]); any other candidate fills `row` with its
    /// parent's row (a seed with nothing), recomputes its changed agents
    /// and measures the row.
    fn score<A: Algorithm<D>, const D: usize>(
        &self,
        la: &Lookahead<'_, A, D>,
        k: usize,
        row: &mut [Point<D>],
    ) -> f64 {
        let n = self.n;
        let c = &self.fresh[k];
        let masks = self.arena.row(c.row);
        if c.parent != NONE {
            let parent = &self.expansions[c.parent as usize];
            if parent.is_measured() && c.changed.is_power_of_two() {
                let i = c.changed.trailing_zeros() as usize;
                if let Some(d) = parent.edited(i, la.output(i, masks[i]).0[0]) {
                    return d;
                }
            }
            let p = c.parent as usize * n * D;
            load_row(&self.rows[p..p + n * D], row);
        }
        rescore(la, masks, c.changed, row)
    }

    /// Scores the fresh candidates on up to `threads` pool workers and
    /// moves them to the frontier. The chunk estimate takes a candidate
    /// to cost `2n` receptions: a toggle, nearly every candidate of a
    /// wave, costs its agent's in-degree (at most `n`) plus O(1), and a
    /// mutant or seed its changed agents' in-degrees plus the O(n)
    /// diameter.
    fn score_fresh<A: Algorithm<D>, const D: usize>(
        &mut self,
        la: &Lookahead<'_, A, D>,
        threads: usize,
    ) {
        let n = self.n;
        let scores = score_chunks(self.fresh.len(), 2 * n, threads, n, |k, row, _| {
            self.score(la, k, row)
        });
        let mut fresh = std::mem::take(&mut self.fresh);
        for (mut c, s) in fresh.drain(..).zip(scores) {
            c.score = s;
            if self
                .best
                .is_none_or(|b| self.rank(&c, &b) == Ordering::Less)
            {
                self.best = Some(c);
            }
            self.frontier.push(c);
        }
        self.fresh = fresh;
    }
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
///    candidates are scored (in contiguous chunks on up to
///    [`BeamSearch::threads`] pool workers), and the `width` best scored
///    graphs survive as the next frontier;
/// 3. commits the best graph seen overall (canonical comparator:
///    score descending, then smaller graph).
///
/// The mutation stream is a pure function of `(seed, round)` and the
/// deterministic frontier order, so the driver is replayable and
/// bit-identical at every thread count. The search buffers live as long
/// as the driver and are cleared at the start of each round; a clone
/// starts with empty buffers, and `Debug` does not print them.
///
/// [`DiameterMaximiser`]: crate::DiameterMaximiser
#[derive(Debug, Clone)]
pub struct BeamSearch {
    n: usize,
    width: usize,
    depth: usize,
    mutations: usize,
    seed: u64,
    threads: usize,
    committed: Option<Digraph>,
    round: u64,
    trace: consensus_obs::TraceHandle,
    trace_shard: u64,
    /// Boxed, so the driver stays small to move and to hold in an enum.
    search: Box<Search>,
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
            threads: 1,
            committed: None,
            round: 0,
            trace: consensus_obs::TraceHandle::disabled(),
            trace_shard: 0,
            search: Box::new(Search::new(n)),
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

    /// Scores each wave's candidates on up to `threads` pool workers, in
    /// contiguous chunks of candidates (`0` means
    /// [`consensus_pool::default_threads`]; the default `1` scores
    /// serially). `threads` is an upper bound: a wave forks only into
    /// chunks that carry at least [`FORK_GRAIN`](crate::FORK_GRAIN)
    /// message receptions, estimated at `2n` per candidate, so a smaller wave
    /// scores inline on the calling thread, as does a wave of a search
    /// that itself runs on a pool worker. The committed schedule is
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

    /// The agent count this adversary attacks.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// One full beam search against the configuration in `exec`: the
    /// committed graph, its one-step score, and the number of candidate
    /// graphs scored (for telemetry).
    fn search<A, const D: usize>(&mut self, exec: &Execution<A, D>) -> (Digraph, f64, u64)
    where
        A: Algorithm<D>,
    {
        assert_eq!(exec.n(), self.n, "graph size must match agent count");
        let la = exec.lookahead();
        let s = &mut self.search;
        s.clear();
        s.seed(self.committed.as_ref());
        // The mutation stream depends only on (seed, round): replays and
        // thread counts cannot perturb it.
        let mut rng = self.seed ^ self.round.wrapping_mul(0xA076_1D64_78BD_642F);
        let mut scored_count = 0;
        for wave in 0..=self.depth {
            if wave > 0 {
                s.select(self.width);
                for k in 0..s.frontier.len() {
                    // A graph's toggles all enter the arena the first time
                    // it is expanded; a later wave would only regenerate
                    // duplicates.
                    if s.frontier[k].expanded == NONE {
                        s.expand(&la, k);
                    }
                    // Mutants are drawn on every wave: skipping them would
                    // shift the splitmix64 stream, and with it the search.
                    s.mutate(k, self.mutations, &mut rng);
                }
                if s.fresh.is_empty() {
                    break;
                }
            }
            scored_count += s.fresh.len() as u64;
            s.score_fresh(&la, self.threads);
        }
        let best = s.best.expect("seed frontier is non-empty");
        let g = Digraph::from_in_masks(s.arena.row(best.row))
            .expect("beam graphs have 2 ≤ n ≤ 64 agents");
        (g, best.score, scored_count)
    }
}

impl<A, const D: usize> Driver<A, D> for BeamSearch
where
    A: Algorithm<D> + Clone,
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
/// It scores on the calling thread, rescoring only the agents whose
/// in-mask differs from the previous candidate's: a round's at most 4096
/// candidates cost those agents' in-degrees plus `n`, at most
/// `n(n+1) ≤ 20` receptions each, and stay under one
/// [`FORK_GRAIN`](crate::FORK_GRAIN).
///
/// (This is *not* [`DiameterMaximiser`](crate::DiameterMaximiser) with
/// [`all_rooted`](crate::DiameterMaximiser::all_rooted) candidates: that
/// driver tie-breaks by enumeration order, the beam by graph order —
/// the comparator must match for equivalence to be exact.)
#[derive(Debug, Clone)]
pub struct ExhaustiveRooted {
    candidates: Vec<Digraph>,
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
        }
    }

    /// The enumerated rooted class.
    #[must_use]
    pub fn candidates(&self) -> &[Digraph] {
        &self.candidates
    }
}

impl<A, const D: usize> Driver<A, D> for ExhaustiveRooted
where
    A: Algorithm<D> + Clone,
{
    fn next_block(&mut self, exec: &Execution<A, D>, out: &mut Vec<Digraph>) {
        let scores = score_graphs(exec, &self.candidates, 1);
        let mut best: Option<(usize, f64)> = None;
        for (i, &s) in scores.iter().enumerate() {
            let better = best.is_none_or(|(bi, bs)| {
                let (a, b) = (&self.candidates[i], &self.candidates[bi]);
                rank(s, a.in_masks(), bs, b.in_masks()) == Ordering::Less
            });
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
    use consensus_algorithms::{MeanValue, Midpoint};
    use consensus_dynamics::Scenario;
    use proptest::prelude::*;

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

    /// Every candidate of a pruning, mutating search against `alg` from
    /// `inits` (9 agents) scores exactly what replaying the execution
    /// and stepping the candidate gives, and every expanded graph's
    /// stored row is that step's output row: the changed-agents
    /// bookkeeping never leaves a stale output behind.
    fn check_replayed_steps<A: Algorithm<D> + Clone, const D: usize>(alg: A, inits: &[Point<D>]) {
        let n = 9;
        let mut warm = Digraph::complete(n).make_deaf(2);
        warm.remove_edge(4, 7);
        let warm = [warm, Digraph::complete(n).make_deaf(5)];
        // The warm-up rounds, then optionally one round under `masks`.
        let replay = |masks: Option<&[AgentSet]>| {
            let mut exec = Execution::new(alg.clone(), inits);
            let last = masks.map(|m| Digraph::from_in_masks(m).expect("2 ≤ n ≤ 64"));
            for g in warm.iter().chain(&last) {
                exec.step(g);
            }
            exec
        };

        let exec = replay(None);
        let la = exec.lookahead();
        let mut s = Search::new(n);
        s.seed(None);
        let mut rng = 11;
        for wave in 0..=3 {
            if wave > 0 {
                s.select(4);
                for k in 0..s.frontier.len() {
                    if s.frontier[k].expanded == NONE {
                        s.expand(&la, k);
                        let slot = s.frontier[k].expanded as usize;
                        let stepped = replay(Some(s.arena.row(s.frontier[k].row)));
                        let want: Vec<f64> =
                            stepped.outputs_slice().iter().flat_map(|p| p.0).collect();
                        assert_eq!(s.rows[slot * n * D..(slot + 1) * n * D], want);
                    }
                    s.mutate(k, 3, &mut rng);
                }
            }
            let fresh = s.fresh.len();
            assert!(fresh > 0, "wave {wave} generates candidates");
            s.score_fresh(&la, 1);
            for c in &s.frontier[s.frontier.len() - fresh..] {
                let want = replay(Some(s.arena.row(c.row))).value_diameter();
                assert_eq!(c.score.to_bits(), want.to_bits(), "wave {wave}");
            }
        }
    }

    #[test]
    fn every_candidate_scores_as_a_replayed_step() {
        // Mean-value rows are spread out; midpoint rows tie at their
        // largest and at their smallest value. In the plane every
        // candidate measures its row.
        check_replayed_steps(MeanValue, &spread(9));
        check_replayed_steps(Midpoint, &spread(9));
        let plane: Vec<Point<2>> = (0..9)
            .map(|i| Point([i as f64 / 8.0, ((i * 5) % 9) as f64 / 8.0]))
            .collect();
        check_replayed_steps(Midpoint, &plane);
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
    #[should_panic(expected = "graph size must match agent count")]
    fn beam_rejects_an_execution_of_another_size() {
        let exec = Execution::new(Midpoint, &spread(4));
        Driver::next_block(&mut BeamSearch::new(3, 0), &exec, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "graph size must match agent count")]
    fn exhaustive_rejects_an_execution_of_another_size() {
        let exec = Execution::new(Midpoint, &spread(4));
        Driver::next_block(&mut ExhaustiveRooted::new(3), &exec, &mut Vec::new());
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

    /// A rooted graph on `n` agents: a spanning tree (each agent, in a
    /// random order, hears a random earlier one) plus every other edge
    /// with probability `density / 4`.
    fn rooted_masks(n: usize, density: u64, rng: &mut u64) -> Vec<AgentSet> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, (splitmix64(rng) % (i as u64 + 1)) as usize);
        }
        let mut masks: Vec<AgentSet> = (0..n).map(|v| 1 << v).collect();
        for k in 1..n {
            let parent = order[(splitmix64(rng) % k as u64) as usize];
            masks[order[k]] |= 1 << parent;
        }
        for mask in &mut masks {
            for from in 0..n {
                if splitmix64(rng) % 4 < density {
                    *mask |= 1 << from;
                }
            }
        }
        masks
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The spanning-tree shortcut admits exactly the edits a
        /// brute-force rootedness filter admits: every single-edge
        /// toggle, and random 2–3-toggle mutants, of random rooted graphs
        /// from trees (where most tree-edge removals unroot) to cliques.
        /// Among the rooted edits are ones where the old root no longer
        /// reaches a changed agent but another agent is a root, as when
        /// `r → v` is removed from the 2-cycle `r ⇄ v`: the shortcut must
        /// fall back to the full check there.
        #[test]
        fn tree_shortcut_admits_exactly_the_rooted_edits(seed in any::<u64>()) {
            let mut rng = seed;
            let (mut kept, mut dropped, mut rerooted) = (0, 0, 0);
            let mut check = |tree: &[AgentSet], root, edited: &[AgentSet], changed| {
                let rooted = in_masks_are_rooted(edited);
                prop_assert_eq!(keeps_rooted(tree, root, edited, changed), rooted);
                if rooted { kept += 1 } else { dropped += 1 }
                if rooted && agents_in(changed).any(|v| !reaches(edited, root, v)) {
                    rerooted += 1;
                }
                Ok(())
            };
            for n in 2..=16 {
                for density in 0..=4 {
                    let masks = rooted_masks(n, density, &mut rng);
                    let tree = spanning_tree(&masks).expect("a planted tree is rooted");
                    let root = tree[..n].iter().position(|&m| m == 0).expect("a root");
                    let mut edited = masks.clone();
                    for from in 0..n {
                        for to in (0..n).filter(|&to| to != from) {
                            edited[to] ^= 1 << from;
                            check(&tree, root, &edited, 1 << to)?;
                            edited[to] ^= 1 << from;
                        }
                    }
                    for _ in 0..16 {
                        let mut mutant = masks.clone();
                        for _ in 0..2 + splitmix64(&mut rng) % 2 {
                            let from = (splitmix64(&mut rng) % n as u64) as usize;
                            let to = (from + 1 + (splitmix64(&mut rng) % (n as u64 - 1)) as usize) % n;
                            mutant[to] ^= 1 << from;
                        }
                        let changed = (0..n)
                            .filter(|&v| mutant[v] != masks[v])
                            .fold(0, |set, v| set | 1 << v);
                        check(&tree, root, &mutant, changed)?;
                    }
                }
            }
            prop_assert!(kept > 0 && dropped > 0, "both outcomes occur");
            prop_assert!(rerooted > 0, "another agent roots some edit");
        }

        /// [`Expansion::edited`] is [`consensus_algorithms::diameter`] of
        /// the edited row, bit for bit, whenever the row and the new value
        /// are finite, and declines (leaving the full path) otherwise.
        /// Rows draw from a few values, so the largest and the smallest
        /// are often held by several agents and `0.0` and `-0.0` often
        /// tie; half the rows get a lone largest value, half a lone
        /// smallest, and every eighth row holds a non-finite value. Every
        /// agent is edited to every value of the row, the extremes nudged
        /// by one ulp, `±0.0`, `±∞` and NaN.
        #[test]
        fn one_agent_edits_score_as_the_measured_row(seed in any::<u64>(), n in 2usize..65) {
            const BASE: [f64; 9] = [0.0, -0.0, 0.5, -1.25, 3.0, 1e300, -5e-324, 2.0, -2.0];
            const SPECIAL: [f64; 3] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
            let mut rng = seed;
            let mut pick = |len: usize| (splitmix64(&mut rng) % len as u64) as usize;
            let palette: Vec<f64> = (0..1 + pick(4)).map(|_| BASE[pick(BASE.len())]).collect();
            let mut values: Vec<f64> = (0..n).map(|_| palette[pick(palette.len())]).collect();
            for lone in [1e301, -1e301] {
                if pick(2) == 0 {
                    values[pick(n)] = lone;
                }
            }
            if pick(8) == 0 {
                values[pick(n)] = SPECIAL[pick(SPECIAL.len())];
            }
            let finite = values.iter().all(|v| v.is_finite());
            let rec = Expansion::new(0, Some(&values));
            prop_assert_eq!(rec.is_measured(), finite);

            let (hi, lo) = values.iter().fold((values[0], values[0]), |(hi, lo), &v| {
                (if v > hi { v } else { hi }, if v < lo { v } else { lo })
            });
            let mut edits = values.clone();
            for x in [hi, lo] {
                edits.extend([x.next_up(), x.next_down()]);
            }
            edits.extend([0.0, -0.0]);
            edits.extend(SPECIAL);
            let mut row: Vec<Point<1>> = values.iter().map(|&v| Point([v])).collect();
            for agent in 0..n {
                for &v in &edits {
                    row[agent] = Point([v]);
                    let want = consensus_algorithms::diameter(&row);
                    let got = rec.edited(agent, v);
                    if finite && v.is_finite() {
                        prop_assert_eq!(got.map(f64::to_bits), Some(want.to_bits()));
                    } else {
                        prop_assert_eq!(got, None);
                    }
                }
                row[agent] = Point([values[agent]]);
            }
        }
    }

    /// One [`BeamSearch`] driven for several rounds, its buffers reused
    /// from round to round, commits the graphs a fresh clone (empty
    /// buffers) commits in each round, at 1 and 2 threads.
    #[test]
    fn reused_buffers_commit_what_fresh_ones_commit() {
        let n = 7;
        for threads in [1, 2] {
            let mut adv = BeamSearch::new(n, 5)
                .width(3)
                .depth(3)
                .mutations(2)
                .threads(threads);
            let mut exec = Execution::new(MeanValue, &spread(n));
            for round in 0..8 {
                let (mut fresh, mut reused) = (Vec::new(), Vec::new());
                Driver::next_block(&mut adv.clone(), &exec, &mut fresh);
                Driver::next_block(&mut adv, &exec, &mut reused);
                assert_eq!(reused, fresh, "threads {threads}, round {round}");
                exec.step(&reused[0]);
            }
        }
    }

    #[test]
    fn arena_drops_duplicates_and_rejected_rows_across_growth() {
        let n = 3;
        let mut arena = Arena::new(n);
        let row = |k: u64| [k, k.rotate_left(21), !k];
        // Enough rows to grow the slot table several times.
        for k in 0..1000 {
            let masks = row(k);
            if k % 7 == 0 {
                assert_eq!(arena.admit(&masks, row_hash(&masks), || false), None);
            }
            let stored = arena.admit(&masks, row_hash(&masks), || true);
            assert!(stored.is_some(), "row {k} is new");
        }
        for k in 0..1000 {
            let masks = row(k);
            let again = arena.admit(&masks, row_hash(&masks), || panic!("asked for a duplicate"));
            assert_eq!(again, None, "row {k} is stored");
            assert_eq!(
                arena.row(k as u32),
                masks,
                "row numbers follow admission order"
            );
        }
        // After a reset every row is new again, numbered from 0, both when
        // the arena refills past its old size and when it stays small.
        for rows in [1000, 10] {
            arena.clear();
            for (i, k) in (0..rows).rev().enumerate() {
                let masks = row(k);
                let stored = arena.admit(&masks, row_hash(&masks), || true);
                assert_eq!(stored, Some(i as u32), "row {k} is new after a reset");
                assert_eq!(arena.row(i as u32), masks);
            }
        }
        let masks = row(999);
        let stale = arena.admit(&masks, row_hash(&masks), || true);
        assert_eq!(stale, Some(10), "a row stored before the reset is new");
    }

    #[test]
    fn rehash_is_the_row_hash_of_the_edited_row() {
        let mut masks = vec![0b011, 0b111, 0b100];
        let base = row_hash(&masks);
        let edited = rehash(base, 2, masks[2], masks[2] ^ 1);
        masks[2] ^= 1;
        assert_eq!(edited, row_hash(&masks));
    }
}
