//! Averaging-rate ensemble axes for dynamic-network adversaries: the
//! `consensus-sweep` counterpart of [`crate`]'s drivers.
//!
//! The averaging-rate experiments of arXiv:1408.0620 measure how fast
//! averaging contracts under *structured* dynamic graph sequences —
//! T-interval connectivity, eventually-rooted schedules, bounded churn —
//! rather than i.i.d. samples. [`DynamicGrid`] expands `agents ×
//! adversary kinds × initial distributions × replicates` into a flat,
//! deterministically ordered [`DynamicCell`] list for
//! [`consensus_sweep::Sweep`]; the window length `T` and the churn rate
//! `k` ride on the [`AdversaryKind`] axis.
//!
//! Cells build their adversary from the cell seed alone
//! ([`DynamicCell::driver`]), so every cell is replayable solo and the
//! aggregate is bit-identical at any thread count — the same contract as
//! the scalar and multidimensional grids.

use consensus_algorithms::{Algorithm, Point};
use consensus_digraph::Digraph;
use consensus_dynamics::scenario::Driver;
use consensus_dynamics::Execution;
use consensus_sweep::InitDist;
use rand::RngCore;

use crate::{
    BeamSearch, BoundedChurnAdversary, DiameterMaximiser, RotatingTreeSchedule, TIntervalAdversary,
};

/// The adversary-kind axis of a [`DynamicGrid`]. The structural
/// parameters — window length `T`, chaotic-prefix length, churn budget
/// `k` — are part of the axis value, so a grid can sweep `T ∈ {1, 2, 4}`
/// as three kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryKind {
    /// [`TIntervalAdversary`] with window length `t`.
    TInterval {
        /// The connectivity window length `T ≥ 1`.
        t: usize,
    },
    /// [`RotatingTreeSchedule`] with a `chaos`-round non-rooted prefix.
    EventuallyRooted {
        /// Rounds of non-rooted prefix before the rotating trees.
        chaos: u64,
    },
    /// [`BoundedChurnAdversary`] toggling ≤ `churn` edges per round.
    BoundedChurn {
        /// The per-round edge-mutation budget `k`.
        churn: usize,
    },
    /// [`DiameterMaximiser`] over the deaf family `deaf(K_n)`.
    DiameterMax,
    /// [`BeamSearch`] over the rooted class with the given beam knobs.
    BeamRooted {
        /// Beam width (frontier size kept between expansion waves).
        width: usize,
        /// Expansion waves per round.
        depth: usize,
    },
}

impl AdversaryKind {
    /// A short stable label for reports,
    /// e.g. `t-interval(T=2)` or `bounded-churn(k=4)`.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            AdversaryKind::TInterval { t } => format!("t-interval(T={t})"),
            AdversaryKind::EventuallyRooted { chaos } => {
                format!("eventually-rooted(chaos={chaos})")
            }
            AdversaryKind::BoundedChurn { churn } => format!("bounded-churn(k={churn})"),
            AdversaryKind::DiameterMax => "diameter-max".to_owned(),
            AdversaryKind::BeamRooted { width, depth } => {
                format!("beam-rooted(w={width},d={depth})")
            }
        }
    }

    /// Builds the concrete driver for `n` agents from a cell seed.
    /// ([`AdversaryKind::DiameterMax`] is adaptive and ignores the
    /// seed — its choices derive from the execution it attacks.)
    #[must_use]
    pub fn driver(self, n: usize, seed: u64) -> DynAdversary {
        match self {
            AdversaryKind::TInterval { t } => {
                DynAdversary::TInterval(TIntervalAdversary::new(n, t, seed))
            }
            AdversaryKind::EventuallyRooted { chaos } => {
                DynAdversary::Rotating(RotatingTreeSchedule::new(n, chaos, seed))
            }
            AdversaryKind::BoundedChurn { churn } => {
                DynAdversary::Churn(BoundedChurnAdversary::new(n, churn, seed))
            }
            AdversaryKind::DiameterMax => {
                DynAdversary::DiameterMax(DiameterMaximiser::deaf_complete(n))
            }
            AdversaryKind::BeamRooted { width, depth } => {
                DynAdversary::Beam(BeamSearch::new(n, seed).width(width).depth(depth))
            }
        }
    }
}

/// Enum-dispatched dynamic-network adversary, so a whole
/// [`AdversaryKind`] axis shares one concrete [`Driver`] type (and thus
/// one `Scenario` type) in a sweep cell runner.
#[derive(Debug, Clone)]
pub enum DynAdversary {
    /// T-interval connectivity.
    TInterval(TIntervalAdversary),
    /// Eventually-rooted rotating trees.
    Rotating(RotatingTreeSchedule),
    /// Bounded churn around a rooted core.
    Churn(BoundedChurnAdversary),
    /// Greedy adaptive diameter maximisation.
    DiameterMax(DiameterMaximiser),
    /// Seeded beam search over the rooted class.
    Beam(BeamSearch),
}

impl<A, const D: usize> Driver<A, D> for DynAdversary
where
    A: Algorithm<D> + Clone,
{
    fn next_block(&mut self, exec: &Execution<A, D>, out: &mut Vec<Digraph>) {
        match self {
            DynAdversary::TInterval(a) => Driver::<A, D>::next_block(a, exec, out),
            DynAdversary::Rotating(a) => Driver::<A, D>::next_block(a, exec, out),
            DynAdversary::Churn(a) => Driver::<A, D>::next_block(a, exec, out),
            DynAdversary::DiameterMax(a) => Driver::<A, D>::next_block(a, exec, out),
            DynAdversary::Beam(a) => Driver::<A, D>::next_block(a, exec, out),
        }
    }
}

/// One point of a [`DynamicGrid`]: everything a runner needs to rebuild
/// its scenario inputs from the cell seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicCell {
    /// Number of agents.
    pub n: usize,
    /// Which dynamic-network adversary drives the cell (with its
    /// structural parameters).
    pub kind: AdversaryKind,
    /// Initial-value distribution on `[0, 1]`.
    pub init: InitDist,
    /// Replicate number within this configuration (0-based; for
    /// labeling — the cell seed already distinguishes replicates).
    pub replicate: u64,
}

impl DynamicCell {
    /// Draws this cell's initial configuration from `rng`.
    #[must_use]
    pub fn inits(&self, rng: &mut dyn RngCore) -> Vec<Point<1>> {
        self.init.sample(self.n, rng)
    }

    /// This cell's adversary, seeded deterministically.
    #[must_use]
    pub fn driver(&self, seed: u64) -> DynAdversary {
        self.kind.driver(self.n, seed)
    }

    /// A stable human/JSON label, e.g. `n=8 t-interval(T=2) spread r=1`.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "n={} {} {} r={}",
            self.n,
            self.kind.label(),
            self.init.label(),
            self.replicate
        )
    }
}

/// The dynamic-network named-axes grid builder. Expansion order is fixed
/// (agents ▸ kinds ▸ inits ▸ replicates), so cell indices — and
/// therefore per-cell seeds — are stable for a given grid, mirroring
/// [`consensus_sweep::EnsembleGrid`].
#[derive(Debug, Clone)]
pub struct DynamicGrid {
    agents: Vec<usize>,
    kinds: Vec<AdversaryKind>,
    inits: Vec<InitDist>,
    replicates: u64,
}

impl Default for DynamicGrid {
    fn default() -> Self {
        DynamicGrid {
            agents: vec![8],
            kinds: vec![AdversaryKind::TInterval { t: 2 }],
            inits: vec![InitDist::Spread],
            replicates: 1,
        }
    }
}

impl DynamicGrid {
    /// A grid with single-valued default axes (n=8, T-interval T=2,
    /// spread inits, one replicate).
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

    /// Sets the adversary-kind axis (window lengths, churn budgets and
    /// chaotic prefixes ride on the kind values).
    ///
    /// # Panics
    ///
    /// Panics if `kinds` is empty.
    #[must_use]
    pub fn kinds(mut self, kinds: &[AdversaryKind]) -> Self {
        assert!(!kinds.is_empty(), "kind axis must be non-empty");
        self.kinds = kinds.to_vec();
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
        self.agents.len() * self.kinds.len() * self.inits.len() * self.replicates as usize
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
    pub fn cells(&self) -> Vec<DynamicCell> {
        let mut out = Vec::with_capacity(self.len());
        for &n in &self.agents {
            for &kind in &self.kinds {
                for &init in &self.inits {
                    for replicate in 0..self.replicates {
                        out.push(DynamicCell {
                            n,
                            kind,
                            init,
                            replicate,
                        });
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
    use consensus_algorithms::Midpoint;
    use consensus_dynamics::Scenario;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn grid_expansion_is_the_full_product_in_fixed_order() {
        let grid = DynamicGrid::new()
            .agents(&[6])
            .kinds(&[
                AdversaryKind::TInterval { t: 1 },
                AdversaryKind::TInterval { t: 4 },
                AdversaryKind::DiameterMax,
            ])
            .inits(&[InitDist::Spread, InitDist::Bipolar])
            .replicates(2);
        let cells = grid.cells();
        assert_eq!(cells.len(), grid.len());
        assert_eq!(cells.len(), 3 * 2 * 2);
        assert_eq!(cells[0].kind, AdversaryKind::TInterval { t: 1 });
        assert_eq!(cells[0].replicate, 0);
        assert_eq!(cells[1].replicate, 1);
        assert_eq!(
            cells.last().expect("non-empty").kind,
            AdversaryKind::DiameterMax
        );
        assert_eq!(cells, grid.cells(), "expansion is deterministic");
        assert!(!grid.is_empty());
    }

    #[test]
    fn labels_are_stable() {
        let cell = DynamicCell {
            n: 8,
            kind: AdversaryKind::TInterval { t: 2 },
            init: InitDist::Spread,
            replicate: 1,
        };
        assert_eq!(cell.label(), "n=8 t-interval(T=2) spread r=1");
        assert_eq!(
            AdversaryKind::BoundedChurn { churn: 4 }.label(),
            "bounded-churn(k=4)"
        );
        assert_eq!(
            AdversaryKind::EventuallyRooted { chaos: 6 }.label(),
            "eventually-rooted(chaos=6)"
        );
        assert_eq!(AdversaryKind::DiameterMax.label(), "diameter-max");
    }

    #[test]
    fn cell_drivers_are_seed_deterministic() {
        for kind in [
            AdversaryKind::TInterval { t: 3 },
            AdversaryKind::EventuallyRooted { chaos: 2 },
            AdversaryKind::BoundedChurn { churn: 2 },
            AdversaryKind::DiameterMax,
        ] {
            let cell = DynamicCell {
                n: 6,
                kind,
                init: InitDist::Spread,
                replicate: 0,
            };
            let mut rng = StdRng::seed_from_u64(1);
            let inits = cell.inits(&mut rng);
            let run = || {
                let mut sc = Scenario::new(Midpoint, &inits).adversary(cell.driver(99));
                sc.run(12)
            };
            let (a, b) = (run(), run());
            assert_eq!(a.outputs_at(12), b.outputs_at(12), "{kind:?}");
        }
    }
}
