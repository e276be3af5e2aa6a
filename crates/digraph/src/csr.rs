//! Compressed-sparse-row communication graphs for large `n`.
//!
//! [`Digraph`] stores one `u64` in-neighborhood bitmask per agent —
//! perfect for the paper-scale experiments (`n ≤ 64`) but structurally
//! incapable of representing agent 64. [`CsrDigraph`] is the scale-out
//! representation behind large-`n` executions: per-agent in-neighbor
//! rows stored back-to-back in one flat array, ascending within each
//! row, with mandatory self-loops exactly like the dense type.
//!
//! Row slices are handed out as [`SenderSet::Sorted`] views, so the
//! round-stepping hot path reads neighbors directly out of the CSR
//! arrays with **no per-round allocation** and no `n ≤ 64` assumption.
//!
//! Conversions to and from [`Digraph`] (for `n ≤ 64`) are exact and
//! round-trip, which is what the bit-identity suite uses to prove the
//! sparse path reproduces the dense semantics.

use std::fmt;

use crate::senders::SenderSet;
use crate::{Agent, Digraph, DigraphError};

/// A directed communication graph in compressed-sparse-row form:
/// `rows[offsets[i]..offsets[i+1]]` is agent `i`'s in-neighborhood,
/// strictly ascending, always containing `i` itself (self-loops are
/// mandatory, as in the paper's §2 and in [`Digraph`]).
///
/// Unlike [`Digraph`] there is **no upper bound on `n`** (agent ids are
/// stored as `u32`, so `n ≤ u32::MAX` in practice). Equality is
/// structural.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct CsrDigraph {
    n: usize,
    /// `offsets[i]..offsets[i+1]` indexes `neighbors`; `len() == n + 1`.
    offsets: Vec<usize>,
    /// Concatenated in-neighbor rows, strictly ascending per row.
    neighbors: Vec<u32>,
}

/// Checked agent-id narrowing (detlint rule R6): a `usize` id only ever
/// reaches the `u32` CSR cells after proving it fits, so an `n` beyond
/// `u32::MAX` panics loudly instead of silently aliasing agent ids.
#[inline]
fn agent_u32(i: usize) -> u32 {
    u32::try_from(i).expect("agent id exceeds u32::MAX")
}

impl CsrDigraph {
    /// Builds a graph from per-agent in-neighbor lists. Self-loops are
    /// inserted automatically; duplicates are merged; rows are sorted.
    ///
    /// # Errors
    ///
    /// Returns [`DigraphError::BadSize`] if `rows` is empty and
    /// [`DigraphError::BadAgent`] if a neighbor id is `≥ n`.
    pub fn from_rows(rows: &[Vec<Agent>]) -> Result<Self, DigraphError> {
        let n = rows.len();
        if n == 0 {
            return Err(DigraphError::BadSize(0));
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::new();
        offsets.push(0);
        let mut row: Vec<u32> = Vec::new();
        for (i, ins) in rows.iter().enumerate() {
            row.clear();
            for &j in ins {
                if j >= n {
                    return Err(DigraphError::BadAgent { agent: j, n });
                }
                row.push(agent_u32(j));
            }
            row.push(agent_u32(i));
            row.sort_unstable();
            row.dedup();
            neighbors.extend_from_slice(&row);
            offsets.push(neighbors.len());
        }
        Ok(CsrDigraph {
            n,
            offsets,
            neighbors,
        })
    }

    /// Builds a graph from directed edges `(from, to)` (self-loops are
    /// implicit, listing them is allowed).
    ///
    /// # Errors
    ///
    /// Returns [`DigraphError`] as in [`CsrDigraph::from_rows`].
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (Agent, Agent)>,
    ) -> Result<Self, DigraphError> {
        if n == 0 {
            return Err(DigraphError::BadSize(0));
        }
        let mut rows: Vec<Vec<Agent>> = vec![Vec::new(); n];
        for (from, to) in edges {
            if from >= n {
                return Err(DigraphError::BadAgent { agent: from, n });
            }
            if to >= n {
                return Err(DigraphError::BadAgent { agent: to, n });
            }
            rows[to].push(from);
        }
        Self::from_rows(&rows)
    }

    /// The exact CSR image of a dense [`Digraph`] — same agents, same
    /// edges, row order matching the dense mask's ascending bit order.
    #[must_use]
    pub fn from_dense(g: &Digraph) -> Self {
        let n = g.n();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut neighbors = Vec::with_capacity(g.edge_count());
        for i in 0..n {
            neighbors.extend(g.in_neighbors(i).map(agent_u32));
            offsets.push(neighbors.len());
        }
        CsrDigraph {
            n,
            offsets,
            neighbors,
        }
    }

    /// The dense image of this graph, for `n ≤ 64`.
    ///
    /// # Errors
    ///
    /// Returns [`DigraphError::BadSize`] if `n > 64`.
    pub fn to_dense(&self) -> Result<Digraph, DigraphError> {
        if self.n > crate::MAX_AGENTS {
            return Err(DigraphError::BadSize(self.n));
        }
        let masks: Vec<u64> = (0..self.n)
            .map(|i| self.in_neighbors(i).fold(0u64, |m, j| m | (1u64 << j)))
            .collect();
        Digraph::from_in_masks(&masks)
    }

    /// The ring lattice on `n` agents where agent `i` hears its `k`
    /// predecessors `i−1, …, i−k` (mod `n`) plus itself — the standard
    /// bounded-degree benchmark topology (strongly connected for
    /// `k ≥ 1`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn ring_lattice(n: usize, k: usize) -> Self {
        assert!(n > 0, "need at least one agent");
        let k = k.min(n - 1);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut neighbors = Vec::with_capacity(n * (k + 1));
        let mut row: Vec<u32> = Vec::with_capacity(k + 1);
        for i in 0..n {
            row.clear();
            row.push(agent_u32(i));
            for d in 1..=k {
                row.push(agent_u32((i + n - d) % n));
            }
            row.sort_unstable();
            neighbors.extend_from_slice(&row);
            offsets.push(neighbors.len());
        }
        CsrDigraph {
            n,
            offsets,
            neighbors,
        }
    }

    /// The complete graph `K_n`. **O(n²) storage** — meant for
    /// small-`n` equivalence tests, not the large-`n` hot path.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn complete(n: usize) -> Self {
        assert!(n > 0, "need at least one agent");
        let offsets = (0..=n).map(|i| i * n).collect();
        let mut neighbors = Vec::with_capacity(n * n);
        for _ in 0..n {
            neighbors.extend(0..agent_u32(n));
        }
        CsrDigraph {
            n,
            offsets,
            neighbors,
        }
    }

    /// The number of agents `n`.
    #[inline]
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The number of edges, including the `n` self-loops.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.neighbors.len()
    }

    /// Agent `i`'s in-neighbor row, strictly ascending, self included.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ n`.
    #[inline]
    #[must_use]
    pub fn in_row(&self, i: Agent) -> &[u32] {
        &self.neighbors[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Agent `i`'s in-neighborhood as a borrowed [`SenderSet`] — the
    /// zero-allocation view the executor hands to inboxes.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ n`.
    #[inline]
    #[must_use]
    pub fn sender_set(&self, i: Agent) -> SenderSet<'_> {
        SenderSet::Sorted(self.in_row(i))
    }

    /// Iterates over the in-neighbors of agent `i` in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ n`.
    pub fn in_neighbors(&self, i: Agent) -> impl Iterator<Item = Agent> + '_ {
        self.in_row(i).iter().map(|&j| j as Agent)
    }

    /// The in-degree of agent `i` (including the self-loop).
    #[inline]
    #[must_use]
    pub fn in_degree(&self, i: Agent) -> usize {
        self.in_row(i).len()
    }

    /// Whether `(from, to)` is an edge (`to` hears `from`).
    #[must_use]
    pub fn has_edge(&self, from: Agent, to: Agent) -> bool {
        u32::try_from(from).is_ok_and(|f| self.in_row(to).binary_search(&f).is_ok())
    }

    /// Whether the graph is strongly connected (every agent reaches
    /// every agent). O(n + m) per BFS, two passes (forward from 0 on
    /// the reverse edges encoded by the rows, backward via an out-list
    /// built on the fly) — used by tests and scenario validation, not
    /// the hot path.
    #[must_use]
    pub fn is_strongly_connected(&self) -> bool {
        // Rows are *in*-neighbors: reaching along rows from agent 0
        // explores "who can reach 0" (backward reachability).
        if !self.bfs_all(|i, f| self.in_row(i).iter().for_each(|&j| f(j as usize))) {
            return false;
        }
        // Forward reachability needs out-neighbors; build them once.
        let mut out_deg = vec![0usize; self.n];
        for &j in &self.neighbors {
            out_deg[j as usize] += 1;
        }
        let mut out_off = Vec::with_capacity(self.n + 1);
        out_off.push(0usize);
        for i in 0..self.n {
            out_off.push(out_off[i] + out_deg[i]);
        }
        let mut fill = out_off.clone();
        let mut outs = vec![0u32; self.neighbors.len()];
        for to in 0..self.n {
            for &from in self.in_row(to) {
                outs[fill[from as usize]] = agent_u32(to);
                fill[from as usize] += 1;
            }
        }
        self.bfs_all(|i, f| {
            outs[out_off[i]..out_off[i + 1]]
                .iter()
                .for_each(|&j| f(j as usize));
        })
    }

    /// BFS from agent 0 over `neigh`; whether every agent was visited.
    fn bfs_all(&self, neigh: impl Fn(usize, &mut dyn FnMut(usize))) -> bool {
        let mut seen = vec![false; self.n];
        let mut queue = std::collections::VecDeque::from([0usize]);
        seen[0] = true;
        let mut count = 1usize;
        while let Some(i) = queue.pop_front() {
            neigh(i, &mut |j| {
                if !seen[j] {
                    seen[j] = true;
                    count += 1;
                    queue.push_back(j);
                }
            });
        }
        count == self.n
    }
}

impl From<&Digraph> for CsrDigraph {
    fn from(g: &Digraph) -> Self {
        CsrDigraph::from_dense(g)
    }
}

impl fmt::Debug for CsrDigraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CsrDigraph(n={}, edges={})", self.n, self.edge_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families;

    #[test]
    fn dense_round_trip_is_exact() {
        let dense = [
            Digraph::complete(5),
            Digraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap(),
            families::star_out(6, 2),
            Digraph::empty(3),
            Digraph::complete(64),
        ];
        for g in dense {
            let csr = CsrDigraph::from_dense(&g);
            assert_eq!(csr.n(), g.n());
            assert_eq!(csr.edge_count(), g.edge_count());
            for i in 0..g.n() {
                assert_eq!(
                    csr.in_neighbors(i).collect::<Vec<_>>(),
                    g.in_neighbors(i).collect::<Vec<_>>(),
                    "row {i} of {g}"
                );
            }
            assert_eq!(csr.to_dense().unwrap(), g, "round trip of {g}");
        }
    }

    #[test]
    fn sixty_five_agents_are_representable() {
        // The whole point: a graph the u64 representation cannot hold.
        let g = CsrDigraph::from_edges(65, [(64, 0), (0, 64)]).unwrap();
        assert_eq!(g.n(), 65);
        assert!(g.has_edge(64, 0));
        assert!(g.has_edge(0, 64));
        assert!(g.has_edge(64, 64), "self-loop enforced");
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.to_dense().unwrap_err(), DigraphError::BadSize(65));
        assert!(g.sender_set(0).contains(64), "agent 64 must be visible");
    }

    #[test]
    fn from_rows_sorts_dedups_and_self_loops() {
        let g = CsrDigraph::from_rows(&[vec![2, 1, 1], vec![], vec![0, 2]]).unwrap();
        assert_eq!(g.in_row(0), &[0, 1, 2]);
        assert_eq!(g.in_row(1), &[1]);
        assert_eq!(g.in_row(2), &[0, 2]);
        assert_eq!(g.edge_count(), 6);
    }

    #[test]
    fn constructors_validate() {
        assert_eq!(
            CsrDigraph::from_rows(&[]).unwrap_err(),
            DigraphError::BadSize(0)
        );
        assert_eq!(
            CsrDigraph::from_edges(3, [(0, 7)]).unwrap_err(),
            DigraphError::BadAgent { agent: 7, n: 3 }
        );
        assert_eq!(
            CsrDigraph::from_rows(&[vec![5]]).unwrap_err(),
            DigraphError::BadAgent { agent: 5, n: 1 }
        );
    }

    #[test]
    fn ring_lattice_shape() {
        let g = CsrDigraph::ring_lattice(100, 3);
        assert_eq!(g.n(), 100);
        assert_eq!(g.edge_count(), 400);
        assert!(g.has_edge(99, 0) && g.has_edge(97, 0));
        assert!(!g.has_edge(96, 0));
        assert!(g.is_strongly_connected());
        // k clamps at n − 1 (everyone hears everyone).
        let small = CsrDigraph::ring_lattice(3, 10);
        assert_eq!(small.edge_count(), 9);
    }

    #[test]
    fn complete_matches_dense_complete() {
        let csr = CsrDigraph::complete(7);
        assert_eq!(csr, CsrDigraph::from_dense(&Digraph::complete(7)));
        assert!(csr.is_strongly_connected());
    }

    #[test]
    fn disconnected_is_detected() {
        let g = CsrDigraph::from_edges(4, [(0, 1), (1, 0)]).unwrap();
        assert!(!g.is_strongly_connected());
    }

    #[test]
    fn large_ring_is_cheap_and_connected() {
        let g = CsrDigraph::ring_lattice(10_000, 2);
        assert_eq!(g.edge_count(), 30_000);
        assert!(g.is_strongly_connected());
    }
}
