//! Random communication-graph generators for predicate-defined models.
//!
//! The paper's largest models (`rooted(n)`, `nonsplit(n)`, `N_A(n,f)`)
//! have `2^{Θ(n²)}` members, so for `n > 4` the dynamics layer samples
//! graphs instead of enumerating them. Samplers draw from the *class*
//! (every output provably satisfies the predicate) but not uniformly;
//! this is fine for the reproduction because the paper's bounds are
//! worst-case over the adversary, and worst-case patterns are generated
//! by the explicit proof adversaries, not by sampling. Random patterns
//! only provide typical-case context in benches and examples.
//!
//! Which words a sampler draws, and in what order, is part of every
//! golden that samples graphs: a seeded pattern replays only while each
//! sampler keeps its draw stream. `tests/sampler_streams.rs` pins the
//! streams of the constructive samplers. A sampler takes any [`RngCore`]
//! as a generic, so a concrete generator such as `StdRng` inlines into
//! the draw loops, and the constructive samplers fill a stack table of
//! in-masks and build the graph once.

use consensus_digraph::{families, full_mask, AgentSet, Digraph, MAX_AGENTS};
use rand::prelude::IndexedRandom;
use rand::{Rng, RngCore};

/// A source of communication graphs on `n` agents.
///
/// Implemented both by exhaustive models (uniform choice) and by the
/// constructive random generators below.
pub trait GraphSampler {
    /// The number of agents of every sampled graph.
    fn n(&self) -> usize;

    /// Samples one communication graph. The words drawn from `rng`, and
    /// their order, are part of the sampler's contract (see the module
    /// docs).
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> Digraph;
}

/// ORs into `masks` each edge `(from, to)` with `from ≠ to`
/// independently with probability `p`: one draw per ordered pair, in
/// from-major order.
fn bernoulli_edges<R: RngCore + ?Sized>(masks: &mut [AgentSet], p: f64, rng: &mut R) {
    for from in 0..masks.len() {
        for (to, mask) in masks.iter_mut().enumerate() {
            if to != from {
                *mask |= AgentSet::from(rng.random_bool(p)) << from;
            }
        }
    }
}

impl GraphSampler for crate::NetworkModel {
    fn n(&self) -> usize {
        self.n()
    }

    /// Uniform choice among the model's graphs.
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> Digraph {
        self.graphs()
            .choose(rng)
            .expect("models are non-empty")
            .clone()
    }
}

/// Samples a **rooted** digraph: a random spanning tree from a random
/// root, plus independent extra edges with probability `density`.
#[derive(Debug, Clone)]
pub struct RootedSampler {
    n: usize,
    density: f64,
}

impl RootedSampler {
    /// Creates a sampler for rooted graphs on `n` agents; `density` is the
    /// probability of each non-tree edge (0 ⇒ bare trees, 1 ⇒ complete).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `n > 64`, or `density ∉ \[0, 1\]`.
    #[must_use]
    pub fn new(n: usize, density: f64) -> Self {
        assert!((1..=64).contains(&n));
        assert!((0.0..=1.0).contains(&density), "density must be in [0,1]");
        RootedSampler { n, density }
    }
}

impl GraphSampler for RootedSampler {
    fn n(&self) -> usize {
        self.n
    }

    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> Digraph {
        let n = self.n;
        let mut masks = [0; MAX_AGENTS];
        // Random spanning tree: random insertion order, attach each agent
        // to a uniformly random already-attached agent.
        let mut order: [usize; MAX_AGENTS] = std::array::from_fn(|i| i);
        let order = &mut order[..n];
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        for pos in 1..n {
            let p = order[rng.random_range(0..pos)];
            masks[order[pos]] |= 1 << p;
        }
        bernoulli_edges(&mut masks[..n], self.density, rng);
        let g = Digraph::from_in_masks(&masks[..n]).expect("1 ≤ n ≤ 64");
        debug_assert!(g.is_rooted());
        g
    }
}

/// Samples a **non-split** digraph: a random graph repaired by giving any
/// in-disjoint pair a fresh common in-neighbor.
///
/// The repair loop terminates because each fix strictly grows two in-sets.
#[derive(Debug, Clone)]
pub struct NonsplitSampler {
    n: usize,
    density: f64,
}

impl NonsplitSampler {
    /// Creates a sampler for non-split graphs on `n` agents with base
    /// edge probability `density`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `n > 64`, or `density ∉ \[0, 1\]`.
    #[must_use]
    pub fn new(n: usize, density: f64) -> Self {
        assert!((1..=64).contains(&n));
        assert!((0.0..=1.0).contains(&density), "density must be in [0,1]");
        NonsplitSampler { n, density }
    }
}

impl GraphSampler for NonsplitSampler {
    fn n(&self) -> usize {
        self.n
    }

    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> Digraph {
        let n = self.n;
        let mut masks: [AgentSet; MAX_AGENTS] = std::array::from_fn(|i| 1 << i);
        let masks = &mut masks[..n];
        bernoulli_edges(masks, self.density, rng);
        // Repair: every pair of agents needs a common in-neighbor (the
        // self-loops count).
        for i in 0..n {
            for j in (i + 1)..n {
                if masks[i] & masks[j] == 0 {
                    let k = rng.random_range(0..n);
                    masks[i] |= 1 << k;
                    masks[j] |= 1 << k;
                }
            }
        }
        let g = Digraph::from_in_masks(masks).expect("1 ≤ n ≤ 64");
        debug_assert!(g.is_nonsplit());
        g
    }
}

/// Samples from the asynchronous-crash class `N_A(n, f)`: each agent
/// independently "misses" up to `f` uniformly chosen senders.
#[derive(Debug, Clone)]
pub struct AsyncCrashSampler {
    n: usize,
    f: usize,
}

impl AsyncCrashSampler {
    /// Creates a sampler for `N_A(n, f)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `n > 64`, `f == 0` or `f ≥ n`.
    #[must_use]
    pub fn new(n: usize, f: usize) -> Self {
        assert!((1..=64).contains(&n), "need 1 ≤ n ≤ 64");
        assert!(f >= 1 && f < n, "need 0 < f < n");
        AsyncCrashSampler { n, f }
    }
}

impl GraphSampler for AsyncCrashSampler {
    fn n(&self) -> usize {
        self.n
    }

    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> Digraph {
        let n = self.n;
        let mut masks = [full_mask(n); MAX_AGENTS];
        for mask in &mut masks[..n] {
            // Drop up to f incoming edges; `from_in_masks` restores a
            // dropped self-loop.
            let drops = rng.random_range(0..=self.f);
            for _ in 0..drops {
                *mask &= !(1 << rng.random_range(0..n));
            }
        }
        let g = Digraph::from_in_masks(&masks[..n]).expect("1 ≤ n ≤ 64");
        debug_assert!((0..n).all(|i| g.in_degree(i) >= n - self.f));
        g
    }
}

/// Samples uniformly from a fixed slice of graphs (e.g. a hand-picked
/// sub-model); panics if empty.
#[derive(Debug, Clone)]
pub struct ChoiceSampler {
    graphs: Vec<Digraph>,
}

impl ChoiceSampler {
    /// Creates a sampler over an explicit set of graphs.
    ///
    /// # Panics
    ///
    /// Panics if `graphs` is empty or sizes are mixed.
    #[must_use]
    pub fn new(graphs: Vec<Digraph>) -> Self {
        assert!(!graphs.is_empty(), "ChoiceSampler needs at least one graph");
        let n = graphs[0].n();
        assert!(graphs.iter().all(|g| g.n() == n), "mixed graph sizes");
        ChoiceSampler { graphs }
    }

    /// The Ψ-model sampler for `n ≥ 4` agents.
    #[must_use]
    pub fn psi(n: usize) -> Self {
        Self::new(families::psi_family(n).to_vec())
    }
}

impl GraphSampler for ChoiceSampler {
    fn n(&self) -> usize {
        self.graphs[0].n()
    }

    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> Digraph {
        self.graphs.choose(rng).expect("non-empty").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rooted_sampler_always_rooted() {
        let mut rng = StdRng::seed_from_u64(7);
        for density in [0.0, 0.2, 0.8] {
            let s = RootedSampler::new(6, density);
            for _ in 0..200 {
                assert!(s.sample(&mut rng).is_rooted());
            }
        }
    }

    #[test]
    fn nonsplit_sampler_always_nonsplit() {
        let mut rng = StdRng::seed_from_u64(8);
        for density in [0.0, 0.3, 0.9] {
            let s = NonsplitSampler::new(5, density);
            for _ in 0..200 {
                assert!(s.sample(&mut rng).is_nonsplit());
            }
        }
    }

    #[test]
    fn async_sampler_respects_indegree() {
        let mut rng = StdRng::seed_from_u64(9);
        let s = AsyncCrashSampler::new(7, 3);
        for _ in 0..200 {
            let g = s.sample(&mut rng);
            for i in 0..7 {
                assert!(g.in_degree(i) >= 4);
            }
        }
    }

    #[test]
    #[should_panic(expected = "need 1 ≤ n ≤ 64")]
    fn async_sampler_rejects_more_than_64_agents() {
        let _ = AsyncCrashSampler::new(65, 1);
    }

    #[test]
    fn model_sampler_uniform_support() {
        let m = crate::NetworkModel::two_agent();
        let mut rng = StdRng::seed_from_u64(10);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(m.sample(&mut rng));
        }
        assert_eq!(seen.len(), 3, "all three graphs should appear");
    }

    #[test]
    fn choice_sampler_psi() {
        let s = ChoiceSampler::psi(6);
        assert_eq!(s.n(), 6);
        let mut rng = StdRng::seed_from_u64(11);
        let g = s.sample(&mut rng);
        assert!(g.is_rooted());
    }
}
