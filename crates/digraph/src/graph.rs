//! The core [`Digraph`] type and its operations.

use std::fmt;
use std::sync::Arc;

use crate::{Agent, MAX_AGENTS};

/// A set of agents represented as a bitmask (bit `i` ⇔ agent `i`).
///
/// Only the low `n` bits are meaningful for a graph on `n` agents.
pub type AgentSet = u64;

/// Returns the full agent set `{0, …, n-1}` as a bitmask, `1 ≤ n ≤ 64`.
#[inline]
#[must_use]
pub fn full_mask(n: usize) -> AgentSet {
    debug_assert!((1..=MAX_AGENTS).contains(&n));
    if n == MAX_AGENTS {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Error type for fallible [`Digraph`] constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DigraphError {
    /// The requested number of agents is zero or exceeds [`MAX_AGENTS`].
    BadSize(usize),
    /// An edge endpoint is out of range.
    BadAgent {
        /// The offending agent id.
        agent: Agent,
        /// The number of agents in the graph.
        n: usize,
    },
}

impl fmt::Display for DigraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DigraphError::BadSize(n) => {
                write!(f, "graph size {n} not in 1..={MAX_AGENTS}")
            }
            DigraphError::BadAgent { agent, n } => {
                write!(f, "agent {agent} out of range for graph on {n} agents")
            }
        }
    }
}

impl std::error::Error for DigraphError {}

/// A directed communication graph on `n ≤ 64` agents with self-loops.
///
/// Each agent `i` stores its in-neighborhood `In_i(G)` as a bitmask; the
/// self-loop bit `i` is enforced by every constructor and mutator, matching
/// the paper’s standing assumption (§2: *“every communication graph contains
/// a self-loop at each node”*).
///
/// Structural equality, ordering and hashing are derived, so graphs can be
/// used as set/map keys when building network models.
///
/// The mask table lives behind an [`Arc`] with copy-on-write mutation:
/// cloning a graph is a refcount bump (no heap allocation), which is what
/// keeps the per-round loops of the adaptive adversaries — which commit a
/// clone of the chosen candidate every round — allocation-free. Mutators
/// ([`Digraph::add_edge`], [`Digraph::remove_edge`]) detach the storage
/// on first write, so shared clones never observe each other's edits.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digraph {
    n: usize,
    /// `in_masks[i]` has bit `j` set iff `(j, i)` is an edge (`i` hears `j`).
    in_masks: Arc<Vec<AgentSet>>,
}

impl Digraph {
    /// Creates the graph on `n` agents with **only** self-loops
    /// (every agent is deaf and mute except towards itself).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 64`. Use [`Digraph::try_empty`] for a
    /// fallible variant.
    #[must_use]
    pub fn empty(n: usize) -> Self {
        Self::try_empty(n).expect("graph size must be in 1..=64")
    }

    /// Fallible variant of [`Digraph::empty`].
    ///
    /// # Errors
    ///
    /// Returns [`DigraphError::BadSize`] if `n == 0` or `n > 64`.
    pub fn try_empty(n: usize) -> Result<Self, DigraphError> {
        if n == 0 || n > MAX_AGENTS {
            return Err(DigraphError::BadSize(n));
        }
        let in_masks = Arc::new((0..n).map(|i| 1u64 << i).collect());
        Ok(Digraph { n, in_masks })
    }

    /// Copy-on-write access to the mask table: detaches the storage from
    /// any sharing clones before handing out mutable access.
    #[inline]
    fn masks_mut(&mut self) -> &mut Vec<AgentSet> {
        Arc::make_mut(&mut self.in_masks)
    }

    /// Whether two graphs share the same physical mask storage (i.e. one
    /// is an unmutated clone of the other). This is the observable form
    /// of the allocation-free-clone contract: `g.clone()` shares storage
    /// until the first mutation detaches it.
    #[must_use]
    pub fn shares_storage(&self, other: &Digraph) -> bool {
        Arc::ptr_eq(&self.in_masks, &other.in_masks)
    }

    /// Creates the complete graph `K_n` (every agent hears every agent).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 64`.
    #[must_use]
    pub fn complete(n: usize) -> Self {
        let mut g = Digraph::empty(n);
        let all = full_mask(n);
        for m in g.masks_mut() {
            *m = all;
        }
        g
    }

    /// Builds a graph from a list of directed edges `(from, to)`.
    ///
    /// Self-loops are added automatically; listing them is allowed.
    ///
    /// # Errors
    ///
    /// Returns [`DigraphError`] if `n` is out of range or an endpoint is
    /// `≥ n`.
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (Agent, Agent)>,
    ) -> Result<Self, DigraphError> {
        let mut g = Digraph::try_empty(n)?;
        let masks = g.masks_mut();
        for (from, to) in edges {
            if from >= n {
                return Err(DigraphError::BadAgent { agent: from, n });
            }
            if to >= n {
                return Err(DigraphError::BadAgent { agent: to, n });
            }
            masks[to] |= 1u64 << from;
        }
        Ok(g)
    }

    /// Builds a graph directly from in-neighborhood bitmasks.
    ///
    /// Self-loop bits are OR-ed in automatically. Bits `≥ n` are cleared.
    ///
    /// # Errors
    ///
    /// Returns [`DigraphError::BadSize`] if `masks.is_empty()` or
    /// `masks.len() > 64`.
    pub fn from_in_masks(masks: &[AgentSet]) -> Result<Self, DigraphError> {
        let n = masks.len();
        if n == 0 || n > MAX_AGENTS {
            return Err(DigraphError::BadSize(n));
        }
        let all = full_mask(n);
        let in_masks = Arc::new(
            masks
                .iter()
                .enumerate()
                .map(|(i, &m)| (m | (1u64 << i)) & all)
                .collect(),
        );
        Ok(Digraph { n, in_masks })
    }

    /// The number of agents `n`.
    #[inline]
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The in-neighborhood `In_i(G)` of agent `i` as a bitmask
    /// (always contains `i` itself).
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ n`.
    #[inline]
    #[must_use]
    pub fn in_mask(&self, i: Agent) -> AgentSet {
        self.in_masks[i]
    }

    /// Iterates over the in-neighbors of agent `i` in increasing order.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ n`.
    pub fn in_neighbors(&self, i: Agent) -> impl Iterator<Item = Agent> + '_ {
        BitIter(self.in_masks[i])
    }

    /// The in-neighborhood of agent `i` as a [`crate::SenderSet`] on the
    /// inline-mask fast path — the view the executor hands to inboxes.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ n`.
    #[inline]
    #[must_use]
    pub fn sender_set(&self, i: Agent) -> crate::SenderSet<'_> {
        crate::SenderSet::Mask(self.in_masks[i])
    }

    /// The out-neighborhood `Out_i(G)` of agent `i` as a bitmask
    /// (always contains `i` itself).
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ n`.
    #[must_use]
    pub fn out_mask(&self, i: Agent) -> AgentSet {
        assert!(i < self.n, "agent {i} out of range");
        let bit = 1u64 << i;
        let mut out = 0u64;
        for (j, &m) in self.in_masks.iter().enumerate() {
            if m & bit != 0 {
                out |= 1u64 << j;
            }
        }
        out
    }

    /// Iterates over the out-neighbors of agent `i` in increasing order.
    pub fn out_neighbors(&self, i: Agent) -> impl Iterator<Item = Agent> + '_ {
        BitIter(self.out_mask(i))
    }

    /// The in-degree of agent `i` (including the self-loop).
    #[inline]
    #[must_use]
    pub fn in_degree(&self, i: Agent) -> usize {
        self.in_masks[i].count_ones() as usize
    }

    /// The out-degree of agent `i` (including the self-loop).
    #[inline]
    #[must_use]
    pub fn out_degree(&self, i: Agent) -> usize {
        self.out_mask(i).count_ones() as usize
    }

    /// Whether `(from, to)` is an edge (`to` hears `from`).
    #[inline]
    #[must_use]
    pub fn has_edge(&self, from: Agent, to: Agent) -> bool {
        self.in_masks[to] & (1u64 << from) != 0
    }

    /// Adds the edge `(from, to)`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn add_edge(&mut self, from: Agent, to: Agent) {
        assert!(from < self.n && to < self.n, "edge endpoint out of range");
        self.masks_mut()[to] |= 1u64 << from;
    }

    /// Removes the edge `(from, to)`. Self-loops cannot be removed; asking
    /// to remove one is a no-op (the paper’s model mandates them).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn remove_edge(&mut self, from: Agent, to: Agent) {
        assert!(from < self.n && to < self.n, "edge endpoint out of range");
        if from != to {
            self.masks_mut()[to] &= !(1u64 << from);
        }
    }

    /// Iterates over all edges `(from, to)` including self-loops,
    /// in lexicographic `(to, from)` order.
    #[must_use]
    pub fn edges(&self) -> Edges<'_> {
        Edges {
            graph: self,
            to: 0,
            rem: self.in_masks[0],
        }
    }

    /// The number of edges, including the `n` self-loops.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.in_masks.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// The union `In_S(G) = ⋃_{j∈S} In_j(G)` of in-neighborhoods over an
    /// agent set `S` (Definition 15 in the paper uses this with `S = R(K)`).
    #[must_use]
    pub fn in_union(&self, s: AgentSet) -> AgentSet {
        let mut acc = 0u64;
        for j in BitIter(s & full_mask(self.n)) {
            acc |= self.in_masks[j];
        }
        acc
    }

    /// The product `G ∘ H` (paper §2): edge `(i, j)` in `G ∘ H` iff there is
    /// a `k` with `(i, k) ∈ G` and `(k, j) ∈ H`.
    ///
    /// Equivalently `In_{G∘H}(j) = ⋃_{k ∈ In_H(j)} In_G(k)`. The product of
    /// two graphs with self-loops has self-loops, so this is total.
    ///
    /// # Panics
    ///
    /// Panics if the two graphs have different sizes.
    #[must_use]
    pub fn product(&self, other: &Digraph) -> Digraph {
        assert_eq!(self.n, other.n, "product of graphs of different sizes");
        let in_masks = Arc::new(
            (0..self.n)
                .map(|j| self.in_union(other.in_masks[j]))
                .collect(),
        );
        Digraph {
            n: self.n,
            in_masks,
        }
    }

    /// The number of edges present in exactly one of the two graphs
    /// (the size of the symmetric difference of the edge sets).
    /// Self-loops are in every graph, so they never contribute. Used by
    /// the bounded-churn adversaries to certify their per-round
    /// mutation budget.
    ///
    /// # Panics
    ///
    /// Panics if the two graphs have different sizes.
    #[must_use]
    pub fn edge_difference(&self, other: &Digraph) -> usize {
        assert_eq!(self.n, other.n, "difference of graphs of different sizes");
        self.in_masks
            .iter()
            .zip(other.in_masks.iter())
            .map(|(&a, &b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// The edge-union of two graphs on the same agent set.
    ///
    /// # Panics
    ///
    /// Panics if the two graphs have different sizes.
    #[must_use]
    pub fn union(&self, other: &Digraph) -> Digraph {
        assert_eq!(self.n, other.n, "union of graphs of different sizes");
        let in_masks = Arc::new(
            self.in_masks
                .iter()
                .zip(other.in_masks.iter())
                .map(|(&a, &b)| a | b)
                .collect(),
        );
        Digraph {
            n: self.n,
            in_masks,
        }
    }

    /// The in-neighborhood masks of all agents, indexed by agent: the
    /// table [`Digraph::from_in_masks`] builds a graph from.
    #[inline]
    #[must_use]
    pub fn in_masks(&self) -> &[AgentSet] {
        &self.in_masks
    }

    /// The set of agents reachable from `i` by a directed path (including
    /// `i`), as a bitmask.
    #[must_use]
    pub fn reachable_from(&self, i: Agent) -> AgentSet {
        assert!(i < self.n, "agent {i} out of range");
        closure(&out_table(&self.in_masks), 1u64 << i)
    }

    /// The root set `R(G)`: agents that have a directed path to **all**
    /// agents (paper §7). A graph is *rooted* iff `R(G) ≠ ∅`.
    #[must_use]
    pub fn roots(&self) -> AgentSet {
        // Every root reaches every agent, so the roots are exactly the
        // agents that reach one root.
        find_root(&self.in_masks).map_or(0, |r| closure(&self.in_masks, 1u64 << r))
    }

    /// Whether the graph contains a rooted spanning tree, i.e. `R(G) ≠ ∅`.
    ///
    /// Theorem 1 of the paper (due to Charron-Bost et al. \[8\]): asymptotic
    /// consensus is solvable in a network model iff every graph is rooted.
    #[must_use]
    pub fn is_rooted(&self) -> bool {
        find_root(&self.in_masks).is_some()
    }

    /// Whether the graph is *non-split*: any two agents have a common
    /// in-neighbor (§1). Non-split graphs are rooted, and products of
    /// `n - 1` rooted graphs are non-split (\[8\], tested in this crate).
    #[must_use]
    pub fn is_nonsplit(&self) -> bool {
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if self.in_masks[i] & self.in_masks[j] == 0 {
                    return false;
                }
            }
        }
        true
    }

    /// Whether the graph is strongly connected (`R(G)` is everything).
    #[must_use]
    pub fn is_strongly_connected(&self) -> bool {
        self.roots() == full_mask(self.n)
    }

    /// Whether agent `i` is *deaf*: its unique in-neighbor is itself (§3).
    #[must_use]
    pub fn is_deaf(&self, i: Agent) -> bool {
        self.in_masks[i] == 1u64 << i
    }

    /// The graph `F_i` obtained by making agent `i` deaf: all incoming
    /// edges of `i` except the self-loop are removed (§5).
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ n`.
    #[must_use]
    pub fn make_deaf(&self, i: Agent) -> Digraph {
        assert!(i < self.n, "agent {i} out of range");
        let mut g = self.clone();
        g.masks_mut()[i] = 1u64 << i;
        g
    }

    /// Whether the graph equals the complete graph `K_n`.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        let all = full_mask(self.n);
        self.in_masks.iter().all(|&m| m == all)
    }

    /// A compact canonical string like `"3:{0,1}{1,2}{0,2}"` listing each
    /// agent’s in-neighborhood. Stable across runs; used in renders & tests.
    #[must_use]
    pub fn signature(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!("{}:", self.n);
        for i in 0..self.n {
            s.push('{');
            let mut first = true;
            for j in BitIter(self.in_masks[i]) {
                if !first {
                    s.push(',');
                }
                let _ = write!(s, "{j}");
                first = false;
            }
            s.push('}');
        }
        s
    }
}

impl fmt::Debug for Digraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digraph({})", self.signature())
    }
}

impl fmt::Display for Digraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.signature())
    }
}

/// Iterator over the edges of a [`Digraph`]; see [`Digraph::edges`].
pub struct Edges<'a> {
    graph: &'a Digraph,
    to: usize,
    rem: AgentSet,
}

impl Iterator for Edges<'_> {
    type Item = (Agent, Agent);

    fn next(&mut self) -> Option<(Agent, Agent)> {
        loop {
            if self.rem != 0 {
                let from = self.rem.trailing_zeros() as usize;
                self.rem &= self.rem - 1;
                return Some((from, self.to));
            }
            self.to += 1;
            if self.to >= self.graph.n {
                return None;
            }
            self.rem = self.graph.in_masks[self.to];
        }
    }
}

/// Iterator over the set bits of a mask, ascending.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BitIter(pub(crate) u64);

impl Iterator for BitIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            let i = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(i)
        }
    }
}

/// Iterates over the agents in a bitmask set, ascending.
pub fn agents_in(set: AgentSet) -> impl Iterator<Item = Agent> {
    BitIter(set)
}

/// Whether the graph with in-neighborhood table `in_masks` (one mask per
/// agent, as [`Digraph::in_masks`] returns it) is rooted: the
/// [`Digraph::is_rooted`] check for callers that edit mask tables in
/// place and build a [`Digraph`] only for the tables they keep.
///
/// # Panics
///
/// Panics if `in_masks.len() ∉ 1..=64` or a mask has a bit at or above
/// `in_masks.len()` (an agent that does not exist).
#[must_use]
pub fn in_masks_are_rooted(in_masks: &[AgentSet]) -> bool {
    check_table(in_masks);
    find_root(in_masks).is_some()
}

/// A rooted spanning tree of the graph with in-neighborhood table
/// `in_masks`, or `None` if the graph is not rooted. The tree is given
/// as one in-edge per agent: `tree[v]` is the one-bit mask of `v`'s
/// parent, and `0` for the root and for every index at or past
/// `in_masks.len()`.
///
/// Removing any edge outside the tree leaves the tree, and so
/// rootedness, intact: callers that edit a rooted graph need the full
/// [`in_masks_are_rooted`] check only when an edit removes a tree edge.
///
/// # Panics
///
/// As [`in_masks_are_rooted`].
#[must_use]
pub fn spanning_tree(in_masks: &[AgentSet]) -> Option<[AgentSet; MAX_AGENTS]> {
    check_table(in_masks);
    let root = find_root(in_masks)?;
    let all = full_mask(in_masks.len());
    let mut tree = [0; MAX_AGENTS];
    // Breadth-first from the root: each agent takes its lowest in-neighbor
    // in the previous layer as its parent.
    let mut reached = 1u64 << root;
    let mut layer = reached;
    while layer != 0 {
        let mut next = 0;
        for v in BitIter(all & !reached) {
            let parents = in_masks[v] & layer;
            if parents != 0 {
                tree[v] = parents & parents.wrapping_neg();
                next |= 1u64 << v;
            }
        }
        reached |= next;
        layer = next;
    }
    Some(tree)
}

/// Panics unless `in_masks` is the in-mask table of a graph on
/// `1..=64` agents.
fn check_table(in_masks: &[AgentSet]) {
    assert!(
        (1..=MAX_AGENTS).contains(&in_masks.len()),
        "graph size must be in 1..=64"
    );
    let all = full_mask(in_masks.len());
    assert!(
        in_masks.iter().all(|&m| m & !all == 0),
        "in-mask names an agent out of range"
    );
}

/// Everything reachable from `start` (included) along `step`, where
/// `step[k]` is the set one edge away from agent `k`: the in-masks walk
/// edges backwards, an [`out_table`] walks them forwards. Each agent is
/// expanded once.
fn closure(step: &[AgentSet], start: AgentSet) -> AgentSet {
    let mut reach = start;
    let mut wave = start;
    while wave != 0 {
        let mut next = 0;
        for k in BitIter(wave) {
            next |= step[k];
        }
        wave = next & !reach;
        reach |= next;
    }
    reach
}

/// The out-mask table of the graph with in-masks `in_masks`, built on the
/// stack so reachability queries never allocate.
fn out_table(in_masks: &[AgentSet]) -> [AgentSet; MAX_AGENTS] {
    let mut outs = [0; MAX_AGENTS];
    for (to, &m) in in_masks.iter().enumerate() {
        for from in BitIter(m) {
            outs[from] |= 1u64 << to;
        }
    }
    outs
}

/// Some root of the graph with in-masks `in_masks`, or `None` if it is
/// not rooted. A root reaches agent 0, so only agents in the backward
/// closure of agent 0 are candidates; a candidate that does not reach
/// everyone also rules out every agent it reaches, since none of those
/// reaches more than it does.
fn find_root(in_masks: &[AgentSet]) -> Option<Agent> {
    let all = full_mask(in_masks.len());
    let outs = out_table(in_masks);
    let mut candidates = closure(in_masks, 1);
    while candidates != 0 {
        let c = candidates.trailing_zeros() as usize;
        let reach = closure(&outs, 1u64 << c);
        if reach == all {
            return Some(c);
        }
        candidates &= !reach;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_self_loops_only() {
        let g = Digraph::empty(4);
        for i in 0..4 {
            assert!(g.has_edge(i, i));
            assert_eq!(g.in_degree(i), 1);
            assert!(g.is_deaf(i));
        }
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn try_empty_rejects_bad_sizes() {
        assert_eq!(Digraph::try_empty(0), Err(DigraphError::BadSize(0)));
        assert_eq!(Digraph::try_empty(65), Err(DigraphError::BadSize(65)));
        assert!(Digraph::try_empty(64).is_ok());
    }

    #[test]
    fn from_edges_validates_endpoints() {
        let err = Digraph::from_edges(3, [(0, 5)]).unwrap_err();
        assert_eq!(err, DigraphError::BadAgent { agent: 5, n: 3 });
        let err = Digraph::from_edges(3, [(7, 0)]).unwrap_err();
        assert_eq!(err, DigraphError::BadAgent { agent: 7, n: 3 });
    }

    #[test]
    fn complete_graph_properties() {
        let g = Digraph::complete(5);
        assert!(g.is_complete());
        assert!(g.is_nonsplit());
        assert!(g.is_rooted());
        assert!(g.is_strongly_connected());
        assert_eq!(g.roots(), 0b11111);
        assert_eq!(g.edge_count(), 25);
    }

    #[test]
    fn self_loop_cannot_be_removed() {
        let mut g = Digraph::complete(3);
        g.remove_edge(1, 1);
        assert!(g.has_edge(1, 1));
        g.remove_edge(0, 1);
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn out_masks_mirror_in_masks() {
        let g = Digraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert_eq!(g.out_mask(0), 0b0011); // self + 0→1
        assert_eq!(g.out_mask(3), 0b1001); // self + 3→0
        assert_eq!(g.out_degree(0), 2);
        let outs: Vec<_> = g.out_neighbors(1).collect();
        assert_eq!(outs, vec![1, 2]);
    }

    #[test]
    fn product_definition_matches_paper() {
        // G: 0→1; H: 1→2. In G∘H there must be an edge 0→2
        // (k = 1: (0,1) ∈ G and (1,2) ∈ H).
        let g = Digraph::from_edges(3, [(0, 1)]).unwrap();
        let h = Digraph::from_edges(3, [(1, 2)]).unwrap();
        let p = g.product(&h);
        assert!(p.has_edge(0, 2));
        assert!(p.has_edge(0, 1)); // (0,1)∈G, (1,1)∈H self-loop
        assert!(p.has_edge(1, 2)); // (1,1)∈G self-loop, (1,2)∈H
        assert!(!p.has_edge(2, 0));
    }

    #[test]
    fn product_with_identity_is_identity() {
        let g = Digraph::from_edges(4, [(0, 1), (2, 3), (1, 0)]).unwrap();
        let id = Digraph::empty(4);
        assert_eq!(g.product(&id), g);
        assert_eq!(id.product(&g), g);
    }

    #[test]
    fn cycle_is_strongly_connected() {
        let g = Digraph::from_edges(5, (0..5).map(|i| (i, (i + 1) % 5))).unwrap();
        assert!(g.is_strongly_connected());
        assert!(g.is_rooted());
        // A 5-cycle is not non-split: agents 1 and 3 share no in-neighbor.
        assert!(!g.is_nonsplit());
    }

    #[test]
    fn star_graph_roots() {
        // 0 → everyone; nobody else sends.
        let g = Digraph::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(g.roots(), 0b0001);
        assert!(g.is_rooted());
        assert!(!g.is_strongly_connected());
        // Star is non-split: everyone hears 0.
        assert!(g.is_nonsplit());
    }

    #[test]
    fn make_deaf_removes_incoming_only() {
        let g = Digraph::complete(3);
        let f1 = g.make_deaf(1);
        assert!(f1.is_deaf(1));
        assert_eq!(f1.in_mask(0), 0b111);
        assert_eq!(f1.in_mask(2), 0b111);
        assert_eq!(f1.out_mask(1), 0b111); // outgoing edges kept
        assert_eq!(f1.roots(), 0b010); // only the deaf agent is a root
    }

    #[test]
    fn edge_difference_counts_the_symmetric_difference() {
        let g = Digraph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let mut h = g.clone();
        assert_eq!(g.edge_difference(&h), 0);
        h.add_edge(1, 2);
        assert_eq!(g.edge_difference(&h), 1);
        h.remove_edge(0, 1);
        assert_eq!(g.edge_difference(&h), 2);
        assert_eq!(h.edge_difference(&g), 2, "symmetric");
    }

    #[test]
    fn in_union_over_sets() {
        let g = Digraph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(g.in_union(0b0010), g.in_mask(1));
        assert_eq!(g.in_union(0b1010), g.in_mask(1) | g.in_mask(3));
        assert_eq!(g.in_union(0), 0);
    }

    #[test]
    fn edges_iterator_complete() {
        let g = Digraph::complete(3);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 9);
        assert_eq!(edges[0], (0, 0));
        assert_eq!(edges[8], (2, 2));
    }

    #[test]
    fn signature_is_stable() {
        let g = Digraph::from_edges(3, [(0, 1), (2, 1)]).unwrap();
        assert_eq!(g.signature(), "3:{0}{0,1,2}{2}");
        assert_eq!(format!("{g}"), g.signature());
        assert_eq!(format!("{g:?}"), format!("Digraph({})", g.signature()));
    }

    #[test]
    fn nonsplit_implies_rooted_spot_checks() {
        // A few handmade non-split graphs must be rooted.
        let gs = [
            Digraph::complete(4),
            Digraph::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap(),
            Digraph::from_edges(3, [(1, 0), (1, 2)]).unwrap(),
        ];
        for g in gs {
            assert!(g.is_nonsplit());
            assert!(g.is_rooted(), "non-split graph must be rooted: {g}");
        }
    }

    #[test]
    fn reachability() {
        let g = Digraph::from_edges(4, [(0, 1), (1, 2)]).unwrap();
        assert_eq!(g.reachable_from(0), 0b0111);
        assert_eq!(g.reachable_from(3), 0b1000);
    }

    #[test]
    fn agents_in_iterates_ascending() {
        let v: Vec<_> = agents_in(0b10110).collect();
        assert_eq!(v, vec![1, 2, 4]);
    }

    #[test]
    fn clone_shares_storage_until_mutation() {
        // The allocation-free-clone contract the adaptive adversary
        // loops rely on: a clone is a refcount bump, and the first
        // mutation detaches it without touching the original.
        let g = Digraph::complete(5);
        let mut h = g.clone();
        assert!(g.shares_storage(&h), "unmutated clone must share storage");
        h.remove_edge(0, 1);
        assert!(!g.shares_storage(&h), "mutation must detach the clone");
        assert!(g.has_edge(0, 1), "original must be unaffected");
        assert!(!h.has_edge(0, 1));
        // A clone of the mutated graph shares the *new* storage.
        let h2 = h.clone();
        assert!(h2.shares_storage(&h));
        assert!(!h2.shares_storage(&g));
    }

    #[test]
    fn make_deaf_detaches_storage() {
        let g = Digraph::complete(4);
        let f = g.make_deaf(2);
        assert!(!f.shares_storage(&g));
        assert!(f.is_deaf(2));
        assert!(!g.is_deaf(2));
    }
}
