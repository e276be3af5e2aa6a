//! Property-based tests for the digraph substrate.
//!
//! The central property is Charron-Bost et al.'s product lemma (paper §1,
//! \[8\]): **any product of n−1 rooted graphs on n agents is non-split** —
//! the structural fact behind the amortized midpoint algorithm and the
//! paper's Theorem 3 tightness discussion.

use consensus_digraph::{families, scc, Digraph};
use proptest::prelude::*;

/// Strategy: an arbitrary digraph with self-loops on `n ≤ 64` agents
/// (`from_in_masks` clears the bits of agents `≥ n`).
fn arb_digraph(n: usize) -> impl Strategy<Value = Digraph> {
    prop::collection::vec(any::<u64>(), n)
        .prop_map(move |masks| Digraph::from_in_masks(&masks).expect("n validated"))
}

/// A sparse graph on `n` agents: a random spanning tree, rooted at a
/// random agent, with one random edge added — or, on an odd `edit.0`
/// and `n ≥ 2`, one tree edge removed, which leaves it unrooted.
fn near_tree(n: usize, keys: &[u64], parents: &[u64], edit: (u64, u64, u64)) -> Digraph {
    // Sorting by random keys relabels the agents, so the tree's root is
    // not always agent 0.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| keys[i]);
    let parent = |k: usize| order[(parents[k] % k as u64) as usize];
    let mut g = Digraph::empty(n);
    for (k, &child) in order.iter().enumerate().skip(1) {
        g.add_edge(parent(k), child);
    }
    let (op, a, b) = edit;
    if n >= 2 && op % 2 == 1 {
        let k = 1 + (a % (n as u64 - 1)) as usize;
        g.remove_edge(parent(k), order[k]);
    } else {
        g.add_edge((a % n as u64) as usize, (b % n as u64) as usize);
    }
    g
}

/// `roots`, `is_rooted`, `is_strongly_connected` and the mask-table
/// rootedness check agree with the condensation reference, and the
/// first root reaches everyone while the first non-root does not.
fn roots_match_condensation(g: &Digraph) -> Result<(), String> {
    let n = g.n();
    let all = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    let roots = scc::roots_via_condensation(g);
    prop_assert_eq!(g.roots(), roots, "roots of {}", g);
    prop_assert_eq!(g.is_rooted(), roots != 0, "is_rooted of {}", g);
    prop_assert_eq!(
        consensus_digraph::in_masks_are_rooted(g.in_masks()),
        roots != 0,
        "in_masks_are_rooted of {}",
        g
    );
    prop_assert_eq!(g.is_strongly_connected(), roots == all, "{}", g);
    if roots != 0 {
        prop_assert_eq!(g.reachable_from(roots.trailing_zeros() as usize), all);
    }
    if roots != all {
        let i = (!roots & all).trailing_zeros() as usize;
        prop_assert!(g.reachable_from(i) != all, "non-root {} of {}", i, g);
    }
    Ok(())
}

/// Strategy: an arbitrary **rooted** digraph on `n` agents, built by
/// planting a random rooted spanning tree and adding random edges on top.
fn arb_rooted(n: usize) -> impl Strategy<Value = Digraph> {
    let tree = prop::collection::vec(0..n, n); // parent[i] candidate
    (tree, arb_digraph(n), 0..n).prop_map(move |(parents, extra, root)| {
        let mut g = extra;
        // Wire a spanning tree rooted at `root`: visit agents in BFS-ish
        // order, attaching each non-root to an already-attached agent.
        let mut attached = vec![false; n];
        attached[root] = true;
        let mut order: Vec<usize> = (0..n).filter(|&i| i != root).collect();
        // parents[i] % (#attached) indexes into attached agents.
        for &i in &order.clone() {
            let att: Vec<usize> = (0..n).filter(|&j| attached[j]).collect();
            let p = att[parents[i] % att.len()];
            g.add_edge(p, i);
            attached[i] = true;
        }
        order.clear();
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Graph product is associative (it is relation composition).
    #[test]
    fn product_associative(a in arb_digraph(5), b in arb_digraph(5), c in arb_digraph(5)) {
        prop_assert_eq!(a.product(&b).product(&c), a.product(&b.product(&c)));
    }

    /// The identity graph (self-loops only) is a two-sided unit.
    #[test]
    fn product_identity(g in arb_digraph(6)) {
        let id = Digraph::empty(6);
        prop_assert_eq!(g.product(&id), g.clone());
        prop_assert_eq!(id.product(&g), g);
    }

    /// Products only gain edges when composed with supergraphs:
    /// G ⊆ G∘H and H ⊆ G∘H (both factors have self-loops).
    #[test]
    fn product_contains_factors(g in arb_digraph(5), h in arb_digraph(5)) {
        let p = g.product(&h);
        for (from, to) in g.edges() {
            prop_assert!(p.has_edge(from, to), "lost G-edge ({from},{to})");
        }
        for (from, to) in h.edges() {
            prop_assert!(p.has_edge(from, to), "lost H-edge ({from},{to})");
        }
    }

    /// **Charron-Bost et al. \[8\]**: any product of n−1 rooted graphs with
    /// n nodes is non-split. This is the paper's bridge between rooted and
    /// non-split models (§1) and the reason the amortized midpoint
    /// algorithm contracts per macro-round.
    #[test]
    fn product_of_rooted_is_nonsplit(
        gs in prop::collection::vec(arb_rooted(5), 4)
    ) {
        let mut p = gs[0].clone();
        for g in &gs[1..] {
            p = p.product(g);
        }
        prop_assert!(p.is_nonsplit(), "product of 4 rooted graphs on 5 agents must be non-split: {p}");
    }

    /// Rooted graphs stay rooted under products.
    #[test]
    fn product_of_rooted_is_rooted(a in arb_rooted(5), b in arb_rooted(5)) {
        prop_assert!(a.product(&b).is_rooted());
    }

    /// Non-split implies rooted (paper §1: non-split is a special case).
    #[test]
    fn nonsplit_implies_rooted(g in arb_digraph(5)) {
        if g.is_nonsplit() {
            prop_assert!(g.is_rooted());
        }
    }

    /// The root predicates agree with the condensation reference at every
    /// size `1..=64` (at 64 the full agent set is `u64::MAX`), on dense
    /// random graphs and on sparse near-trees: dense graphs at large `n`
    /// are almost all strongly connected, while the near-trees come out
    /// rooted and unrooted about equally often.
    #[test]
    fn roots_are_sound(
        masks in prop::collection::vec(any::<u64>(), 64),
        keys in prop::collection::vec(any::<u64>(), 64),
        parents in prop::collection::vec(any::<u64>(), 64),
        edit in (any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        for n in 1..=64 {
            let dense = Digraph::from_in_masks(&masks[..n]).expect("1 ≤ n ≤ 64");
            roots_match_condensation(&dense)?;
            roots_match_condensation(&near_tree(n, &keys, &parents, edit))?;
        }
    }

    /// make_deaf(i) removes exactly the non-self incoming edges of i.
    #[test]
    fn make_deaf_is_minimal(g in arb_digraph(5), i in 0usize..5) {
        let f = g.make_deaf(i);
        prop_assert!(f.is_deaf(i));
        for j in 0..5 {
            if j != i {
                prop_assert_eq!(f.in_mask(j), g.in_mask(j));
            }
        }
    }

    /// In a rooted graph where agent i is deaf, i is a root.
    #[test]
    fn deaf_agent_in_rooted_graph_is_root(g in arb_rooted(5), i in 0usize..5) {
        let f = g.make_deaf(i);
        if f.is_rooted() {
            prop_assert!(f.roots() & (1 << i) != 0,
                "a deaf agent cannot be reached, so it must be the root");
        }
    }

    /// Signature round-trips structural equality.
    #[test]
    fn signature_injective(a in arb_digraph(4), b in arb_digraph(4)) {
        prop_assert_eq!(a == b, a.signature() == b.signature());
    }

    /// Union is commutative, idempotent, and monotone w.r.t. edges.
    #[test]
    fn union_laws(a in arb_digraph(5), b in arb_digraph(5)) {
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.union(&a), a.clone());
        let u = a.union(&b);
        for (f, t) in a.edges() {
            prop_assert!(u.has_edge(f, t));
        }
    }

    /// Ψ graphs: deaf agent is the unique root; σ_i = Ψ_i^{n-2} is rooted.
    /// (The full non-split claim about σ products across *different* i is
    /// exercised in the unit tests of `families`.)
    #[test]
    fn psi_products(n in 4usize..9, i in 0usize..3) {
        let g = families::psi(n, i);
        prop_assert_eq!(g.roots(), 1u64 << i);
        let mut p = g.clone();
        for _ in 1..(n - 2) {
            p = p.product(&g);
        }
        prop_assert!(p.is_rooted());
    }

    /// Lemma 24 chain: H_{r-1} and H_r agree outside block r, K_r's roots
    /// avoid block r — the α-step precondition of the paper's proof.
    #[test]
    fn lemma24_alpha_step_structure(
        gmasks in prop::collection::vec(0u64..32, 5),
        hmasks in prop::collection::vec(0u64..32, 5),
        f in 1usize..3,
    ) {
        let n = 5;
        // Force both graphs into N_A(n, f): in-degree ≥ n − f.
        let boost = |masks: &[u64]| -> Digraph {
            let mut g = Digraph::from_in_masks(masks).expect("validated");
            for i in 0..n {
                let mut j = 0;
                while g.in_degree(i) < n - f {
                    g.add_edge(j % n, i);
                    j += 1;
                }
            }
            g
        };
        let g = boost(&gmasks);
        let h = boost(&hmasks);
        let q = n.div_ceil(f);
        for r in 1..=q {
            let hr_prev = families::lemma24_h(&g, &h, f, r - 1);
            let hr = families::lemma24_h(&g, &h, f, r);
            let k = families::lemma24_k(n, f, r);
            let block = families::lemma24_block(n, f, r);
            prop_assert_eq!(k.roots(), ((1u64 << n) - 1) & !block);
            for a in consensus_digraph::agents_in(k.roots()) {
                prop_assert_eq!(hr_prev.in_mask(a), hr.in_mask(a),
                    "rows outside block {} must agree", r);
            }
        }
    }
}
