//! Cartesian experiment grids: the named axes a consensus ensemble
//! sweeps over.
//!
//! [`EnsembleGrid`] expands the paper-shaped axes — replicate seeds,
//! agent counts, initial-value distributions, graph samplers, and a free
//! algorithm parameter — into a flat, deterministically ordered cell
//! list for [`crate::Sweep`]. Cells carry everything needed to rebuild
//! their [`consensus_dynamics::Scenario`] inputs from a
//! [`crate::CellCtx`] alone, which is what makes single-cell replay
//! possible.

use consensus_algorithms::Point;
use consensus_digraph::{families, Digraph};
use consensus_dynamics::pattern::RandomPattern;
use consensus_netmodel::sampler::{
    AsyncCrashSampler, ChoiceSampler, GraphSampler, NonsplitSampler, RootedSampler,
};
use rand::{Rng, RngCore};

/// How a cell draws its initial values on `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InitDist {
    /// Deterministic even spread, `y_i(0) = i / (n − 1)`.
    Spread,
    /// I.i.d. uniform draws from `[0, 1]`.
    Uniform,
    /// Half the agents at 0, half at 1 (the worst-case split the
    /// lower-bound adversaries start from).
    Bipolar,
    /// One outlier at 1, everyone else at 0 (single dissenting sensor).
    Outlier,
}

impl InitDist {
    /// Samples an `n`-agent initial configuration. Deterministic
    /// distributions ignore `rng`.
    #[must_use]
    pub fn sample(self, n: usize, rng: &mut dyn RngCore) -> Vec<Point<1>> {
        match self {
            InitDist::Spread => (0..n)
                .map(|i| Point([i as f64 / (n - 1).max(1) as f64]))
                .collect(),
            InitDist::Uniform => (0..n)
                .map(|_| Point([rng.random_range(0.0..=1.0)]))
                .collect(),
            InitDist::Bipolar => (0..n)
                .map(|i| Point([if i < n / 2 { 0.0 } else { 1.0 }]))
                .collect(),
            InitDist::Outlier => (0..n)
                .map(|i| Point([if i == n - 1 { 1.0 } else { 0.0 }]))
                .collect(),
        }
    }

    /// A short stable label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            InitDist::Spread => "spread",
            InitDist::Uniform => "uniform",
            InitDist::Bipolar => "bipolar",
            InitDist::Outlier => "outlier",
        }
    }
}

/// The graph axis: which communication-graph source drives a cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Topology {
    /// The complete graph every round.
    Complete,
    /// The directed cycle every round.
    Cycle,
    /// Random rooted graphs with the given extra-edge density
    /// ([`RootedSampler`]).
    Rooted {
        /// Probability of each non-tree edge.
        density: f64,
    },
    /// Random non-split graphs with the given base density
    /// ([`NonsplitSampler`]).
    Nonsplit {
        /// Base edge probability before the non-split repair.
        density: f64,
    },
    /// The asynchronous-crash class `N_A(n, f)` ([`AsyncCrashSampler`]).
    AsyncCrash {
        /// Per-agent bound on missed senders (`0 < f < n`).
        f: usize,
    },
    /// Uniform choice among the Ψ-family of Theorem 3 (needs `n ≥ 4`).
    Psi,
}

impl Topology {
    /// The concrete sampler for `n` agents.
    ///
    /// # Panics
    ///
    /// Panics if the variant's preconditions are violated (e.g. `Psi`
    /// with `n < 4`, `AsyncCrash` with `f ≥ n`).
    #[must_use]
    pub fn sampler(self, n: usize) -> TopologySampler {
        match self {
            Topology::Complete => {
                TopologySampler::Fixed(ChoiceSampler::new(vec![Digraph::complete(n)]))
            }
            Topology::Cycle => TopologySampler::Fixed(ChoiceSampler::new(vec![families::cycle(n)])),
            Topology::Rooted { density } => TopologySampler::Rooted(RootedSampler::new(n, density)),
            Topology::Nonsplit { density } => {
                TopologySampler::Nonsplit(NonsplitSampler::new(n, density))
            }
            Topology::AsyncCrash { f } => TopologySampler::Crash(AsyncCrashSampler::new(n, f)),
            Topology::Psi => TopologySampler::Fixed(ChoiceSampler::psi(n)),
        }
    }

    /// A short stable label for reports.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            Topology::Complete => "complete".to_owned(),
            Topology::Cycle => "cycle".to_owned(),
            Topology::Rooted { density } => format!("rooted(d={density})"),
            Topology::Nonsplit { density } => format!("nonsplit(d={density})"),
            Topology::AsyncCrash { f } => format!("async-crash(f={f})"),
            Topology::Psi => "psi".to_owned(),
        }
    }
}

/// Enum-dispatched sampler so a whole [`Topology`] axis shares one
/// concrete [`GraphSampler`] type (and thus one `RandomPattern` type).
#[derive(Debug, Clone)]
pub enum TopologySampler {
    /// Uniform choice over an explicit graph list.
    Fixed(ChoiceSampler),
    /// Random rooted graphs.
    Rooted(RootedSampler),
    /// Random non-split graphs.
    Nonsplit(NonsplitSampler),
    /// Random `N_A(n, f)` graphs.
    Crash(AsyncCrashSampler),
}

impl GraphSampler for TopologySampler {
    fn n(&self) -> usize {
        match self {
            TopologySampler::Fixed(s) => s.n(),
            TopologySampler::Rooted(s) => s.n(),
            TopologySampler::Nonsplit(s) => s.n(),
            TopologySampler::Crash(s) => s.n(),
        }
    }

    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> Digraph {
        match self {
            TopologySampler::Fixed(s) => s.sample(rng),
            TopologySampler::Rooted(s) => s.sample(rng),
            TopologySampler::Nonsplit(s) => s.sample(rng),
            TopologySampler::Crash(s) => s.sample(rng),
        }
    }
}

/// One point of an [`EnsembleGrid`]: everything a runner needs to
/// rebuild its scenario inputs from the cell seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnsembleCell {
    /// Number of agents.
    pub n: usize,
    /// Graph source.
    pub topology: Topology,
    /// Initial-value distribution.
    pub init: InitDist,
    /// Free algorithm parameter (interpretation is the runner's —
    /// self-weight, overshoot κ, trim count, …).
    pub param: f64,
    /// Replicate number within this configuration (0-based; the cell
    /// seed already distinguishes replicates, this is for labeling).
    pub replicate: u64,
}

impl EnsembleCell {
    /// Draws this cell's initial configuration from `rng`.
    #[must_use]
    pub fn inits(&self, rng: &mut dyn RngCore) -> Vec<Point<1>> {
        self.init.sample(self.n, rng)
    }

    /// This cell's graph pattern, seeded deterministically.
    #[must_use]
    pub fn pattern(&self, seed: u64) -> RandomPattern<TopologySampler> {
        RandomPattern::new(self.topology.sampler(self.n), seed)
    }

    /// A stable human/JSON label, e.g. `n=8 rooted(d=0.25) uniform p=0.5 r=3`.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "n={} {} {} p={} r={}",
            self.n,
            self.topology.label(),
            self.init.label(),
            self.param,
            self.replicate
        )
    }
}

/// The named-axes grid builder. Expansion order is fixed (agents ▸
/// topologies ▸ inits ▸ params ▸ replicates), so cell indices — and
/// therefore per-cell seeds — are stable for a given grid.
#[derive(Debug, Clone)]
pub struct EnsembleGrid {
    agents: Vec<usize>,
    topologies: Vec<Topology>,
    inits: Vec<InitDist>,
    params: Vec<f64>,
    replicates: u64,
}

impl Default for EnsembleGrid {
    fn default() -> Self {
        EnsembleGrid {
            agents: vec![4],
            topologies: vec![Topology::Complete],
            inits: vec![InitDist::Spread],
            params: vec![0.0],
            replicates: 1,
        }
    }
}

impl EnsembleGrid {
    /// A grid with single-valued default axes (n=4, complete graph,
    /// spread inits, param 0, one replicate).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the agent-count axis.
    ///
    /// # Panics
    ///
    /// Panics if `agents` is empty.
    #[must_use]
    pub fn agents(mut self, agents: &[usize]) -> Self {
        assert!(!agents.is_empty(), "agent axis must be non-empty");
        self.agents = agents.to_vec();
        self
    }

    /// Sets the topology axis.
    ///
    /// # Panics
    ///
    /// Panics if `topologies` is empty.
    #[must_use]
    pub fn topologies(mut self, topologies: &[Topology]) -> Self {
        assert!(!topologies.is_empty(), "topology axis must be non-empty");
        self.topologies = topologies.to_vec();
        self
    }

    /// Sets the initial-value-distribution axis.
    ///
    /// # Panics
    ///
    /// Panics if `inits` is empty.
    #[must_use]
    pub fn inits(mut self, inits: &[InitDist]) -> Self {
        assert!(!inits.is_empty(), "init axis must be non-empty");
        self.inits = inits.to_vec();
        self
    }

    /// Sets the free algorithm-parameter axis.
    ///
    /// # Panics
    ///
    /// Panics if `params` is empty.
    #[must_use]
    pub fn params(mut self, params: &[f64]) -> Self {
        assert!(!params.is_empty(), "param axis must be non-empty");
        self.params = params.to_vec();
        self
    }

    /// Sets the number of seed replicates per configuration.
    ///
    /// # Panics
    ///
    /// Panics if `replicates == 0`.
    #[must_use]
    pub fn replicates(mut self, replicates: u64) -> Self {
        assert!(replicates >= 1, "need at least one replicate");
        self.replicates = replicates;
        self
    }

    /// The number of cells the grid expands to.
    #[must_use]
    pub fn len(&self) -> usize {
        self.agents.len()
            * self.topologies.len()
            * self.inits.len()
            * self.params.len()
            * self.replicates as usize
    }

    /// Whether the grid is empty (never true for a built grid; axes are
    /// validated non-empty).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the cartesian product into the flat, deterministically
    /// ordered cell list.
    #[must_use]
    pub fn cells(&self) -> Vec<EnsembleCell> {
        let mut out = Vec::with_capacity(self.len());
        for &n in &self.agents {
            for &topology in &self.topologies {
                for &init in &self.inits {
                    for &param in &self.params {
                        for replicate in 0..self.replicates {
                            out.push(EnsembleCell {
                                n,
                                topology,
                                init,
                                param,
                                replicate,
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn grid_expansion_is_the_full_product_in_fixed_order() {
        let grid = EnsembleGrid::new()
            .agents(&[3, 5])
            .topologies(&[Topology::Complete, Topology::Cycle])
            .inits(&[InitDist::Spread, InitDist::Bipolar])
            .params(&[0.1])
            .replicates(2);
        let cells = grid.cells();
        assert_eq!(cells.len(), grid.len());
        assert_eq!(cells.len(), 2 * 2 * 2 * 2);
        assert_eq!(cells[0].n, 3);
        assert_eq!(cells[0].replicate, 0);
        assert_eq!(cells[1].replicate, 1);
        assert_eq!(cells.last().expect("non-empty").n, 5);
        assert_eq!(cells, grid.cells(), "expansion is deterministic");
    }

    #[test]
    fn init_dists_have_right_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        for dist in [
            InitDist::Spread,
            InitDist::Uniform,
            InitDist::Bipolar,
            InitDist::Outlier,
        ] {
            let v = dist.sample(6, &mut rng);
            assert_eq!(v.len(), 6);
            assert!(v.iter().all(|p| (0.0..=1.0).contains(&p[0])), "{dist:?}");
        }
        let spread = InitDist::Spread.sample(3, &mut rng);
        assert_eq!(spread, vec![Point([0.0]), Point([0.5]), Point([1.0])]);
        let bi = InitDist::Bipolar.sample(4, &mut rng);
        assert_eq!(
            bi,
            vec![Point([0.0]), Point([0.0]), Point([1.0]), Point([1.0])]
        );
    }

    #[test]
    fn topology_samplers_satisfy_their_predicates() {
        let mut rng = StdRng::seed_from_u64(2);
        for (topo, n) in [
            (Topology::Complete, 5),
            (Topology::Cycle, 5),
            (Topology::Rooted { density: 0.2 }, 6),
            (Topology::Nonsplit { density: 0.3 }, 5),
            (Topology::AsyncCrash { f: 2 }, 6),
            (Topology::Psi, 5),
        ] {
            let s = topo.sampler(n);
            assert_eq!(s.n(), n, "{topo:?}");
            for _ in 0..20 {
                let g = s.sample(&mut rng);
                assert_eq!(g.n(), n);
            }
        }
        let complete = Topology::Complete.sampler(4).sample(&mut rng);
        assert!(complete.is_complete());
    }

    #[test]
    fn cell_pattern_is_seed_deterministic() {
        use consensus_dynamics::pattern::PatternSource;
        let cell = EnsembleCell {
            n: 6,
            topology: Topology::Rooted { density: 0.3 },
            init: InitDist::Uniform,
            param: 0.0,
            replicate: 0,
        };
        let mut a = cell.pattern(9);
        let mut b = cell.pattern(9);
        for round in 1..=10 {
            assert_eq!(a.next_graph(round), b.next_graph(round));
        }
    }

    #[test]
    fn labels_are_stable() {
        let cell = EnsembleCell {
            n: 8,
            topology: Topology::Rooted { density: 0.25 },
            init: InitDist::Uniform,
            param: 0.5,
            replicate: 3,
        };
        assert_eq!(cell.label(), "n=8 rooted(d=0.25) uniform p=0.5 r=3");
    }
}
