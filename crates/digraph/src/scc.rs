//! Strongly connected components and the condensation DAG.
//!
//! The root set `R(G)` (§7) has a classical characterisation through the
//! condensation: `G` is rooted iff its condensation has a **unique
//! source** component, and then `R(G)` is exactly that component. This
//! module provides the SCC decomposition (Tarjan), the condensation,
//! and the derived root computation, cross-checked against the direct
//! reachability definition in the unit and property tests.

use crate::graph::full_mask;
use crate::{Agent, AgentSet, Digraph};

/// The strongly connected components of the graph, as bitmasks, in
/// **reverse topological order** of the condensation (every edge of the
/// condensation goes from a later component to an earlier one in this
/// list — the standard Tarjan output order).
#[must_use]
pub fn sccs(g: &Digraph) -> Vec<AgentSet> {
    // Iterative Tarjan over out-neighbors.
    let n = g.n();
    let outs: Vec<Vec<Agent>> = (0..n).map(|i| g.out_neighbors(i).collect()).collect();
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<Agent> = Vec::new();
    let mut next_index = 0usize;
    let mut comps: Vec<AgentSet> = Vec::new();

    // Explicit DFS stack: (node, next out-neighbor position).
    for start in 0..n {
        if index[start] != UNSET {
            continue;
        }
        let mut dfs: Vec<(usize, usize)> = vec![(start, 0)];
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;

        while let Some(&mut (v, ref mut pos)) = dfs.last_mut() {
            if *pos < outs[v].len() {
                let w = outs[v][*pos];
                *pos += 1;
                if index[w] == UNSET {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    dfs.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                dfs.pop();
                if let Some(&mut (u, _)) = dfs.last_mut() {
                    low[u] = low[u].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = 0u64;
                    loop {
                        let w = stack.pop().expect("tarjan stack invariant");
                        on_stack[w] = false;
                        comp |= 1u64 << w;
                        if w == v {
                            break;
                        }
                    }
                    comps.push(comp);
                }
            }
        }
    }
    comps
}

/// The condensation: the SCC list plus, for each component, the bitmask
/// of component indices it has edges **into** (excluding itself).
#[must_use]
pub fn condensation(g: &Digraph) -> (Vec<AgentSet>, Vec<u64>) {
    let comps = sccs(g);
    let m = comps.len();
    assert!(m <= 64, "condensation bitmask capacity");
    let mut comp_of = vec![0usize; g.n()];
    for (ci, &c) in comps.iter().enumerate() {
        for a in crate::agents_in(c) {
            comp_of[a] = ci;
        }
    }
    let mut out_edges = vec![0u64; m];
    for (from, to) in g.edges() {
        let (cf, ct) = (comp_of[from], comp_of[to]);
        if cf != ct {
            out_edges[cf] |= 1u64 << ct;
        }
    }
    (comps, out_edges)
}

/// The root set computed via the condensation: the unique source
/// component if there is exactly one, else `∅`.
///
/// Agrees with [`Digraph::roots`], which the property tests check
/// against this independent derivation.
#[must_use]
pub fn roots_via_condensation(g: &Digraph) -> AgentSet {
    let (comps, out_edges) = condensation(g);
    let m = comps.len();
    // A source component has no incoming condensation edges.
    let mut has_incoming = vec![false; m];
    for (cf, &outs) in out_edges.iter().enumerate() {
        for ct in crate::agents_in(outs) {
            let _ = cf;
            has_incoming[ct] = true;
        }
    }
    let sources: Vec<usize> = (0..m).filter(|&c| !has_incoming[c]).collect();
    if sources.len() == 1 {
        comps[sources[0]]
    } else {
        0
    }
}

/// Whether the graph is rooted, via the condensation.
#[must_use]
pub fn is_rooted_via_condensation(g: &Digraph) -> bool {
    roots_via_condensation(g) != 0
}

/// The number of strongly connected components.
#[must_use]
pub fn scc_count(g: &Digraph) -> usize {
    sccs(g).len()
}

/// Whether the SCC partition covers all agents exactly once (invariant
/// helper used in tests).
#[must_use]
pub fn sccs_partition(g: &Digraph) -> bool {
    let mut acc = 0u64;
    for c in sccs(g) {
        if acc & c != 0 {
            return false;
        }
        acc |= c;
    }
    acc == full_mask(g.n())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families;

    #[test]
    fn complete_graph_single_scc() {
        let g = Digraph::complete(5);
        assert_eq!(scc_count(&g), 1);
        assert_eq!(sccs(&g)[0], 0b11111);
        assert_eq!(roots_via_condensation(&g), 0b11111);
    }

    #[test]
    fn path_has_n_sccs() {
        let g = families::path(4);
        assert_eq!(scc_count(&g), 4);
        assert_eq!(roots_via_condensation(&g), 0b0001);
    }

    #[test]
    fn cycle_single_scc() {
        let g = families::cycle(6);
        assert_eq!(scc_count(&g), 1);
        assert!(is_rooted_via_condensation(&g));
    }

    #[test]
    fn two_cliques_no_root() {
        let mut g = Digraph::empty(4);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(2, 3);
        g.add_edge(3, 2);
        assert_eq!(scc_count(&g), 2);
        assert_eq!(roots_via_condensation(&g), 0);
        assert!(!is_rooted_via_condensation(&g));
    }

    #[test]
    fn condensation_edges_acyclic_orientation() {
        // In Tarjan's output (reverse topological), component edges point
        // to earlier components.
        let g = families::path(5);
        let (comps, outs) = condensation(&g);
        for (cf, &mask) in outs.iter().enumerate() {
            for ct in crate::agents_in(mask) {
                assert!(ct < cf, "edge {cf} → {ct} must point backwards");
            }
        }
        assert_eq!(comps.len(), 5);
    }

    #[test]
    fn agrees_with_direct_roots_exhaustively_n3() {
        for g in crate::enumerate::all_graphs(3) {
            assert_eq!(roots_via_condensation(&g), g.roots(), "mismatch on {g}");
            assert!(sccs_partition(&g));
        }
    }

    #[test]
    fn agrees_with_direct_roots_exhaustively_n4_rooted() {
        for g in crate::enumerate::rooted_graphs(4) {
            assert_eq!(roots_via_condensation(&g), g.roots(), "mismatch on {g}");
        }
    }

    #[test]
    fn psi_condensation() {
        let g = families::psi(6, 1);
        assert_eq!(roots_via_condensation(&g), 0b000010);
        assert!(sccs_partition(&g));
    }
}
