//! The **E-ADV `adversary_search`** experiment grid: adaptive
//! worst-case adversary search, serial vs pooled, exhaustive vs beam.
//!
//! Every cell is a deterministic adversarial drive; together they pin
//! the three contracts the parallelised search must keep:
//!
//! 1. **Soundness of the theorem adversaries** — the Theorem 1/2/3
//!    greedy valency adversaries (strict probes: a truncated probe is an
//!    error, not a silent under-approximation) still measure their
//!    tight rates.
//! 2. **Thread-count invariance** — pool-backed candidate forks
//!    (`threads > 1`) produce byte-identical schedules and outputs to
//!    the serial scan; serial/pooled cell pairs must agree on
//!    `fingerprint` exactly.
//! 3. **Beam exactness and reach** — the seeded beam search equals the
//!    exhaustive rooted argmax at `n ≤ 4` when nothing is pruned, and
//!    at `n = 16` (far beyond enumeration) finds schedules at least as
//!    adversarial as the deaf family, while the deaf-family
//!    diameter-max cell keeps measuring the exact `1/2` midpoint rate.
//!
//! Labels embed the probe-family label ([`ProbeFamily::label`]), so a
//! golden row says *which* continuations produced its `δ̂` — including
//! the `constants(deaf-fallback)` degradation that used to be silent.

use std::ops::ControlFlow;

use consensus_obs::TraceHandle;
use tight_bounds_consensus::prelude::*;
use tight_bounds_consensus::sweep::fingerprint;
use tight_bounds_consensus::valency::adversary;

use crate::experiments::{spread_inits, SpecError};
use crate::orchestrate::{run_grid, Grid};
use crate::tablefmt::{check, rate, section, Table};

/// One cell of the adversary-search grid. Cells are plain parameter
/// records: everything a cell does is a pure function of these numbers,
/// so replays and thread counts cannot perturb the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdvCell {
    /// Theorem 1 greedy adversary (strict probes) vs `TwoAgentThirds`:
    /// per-round rate exactly 1/3.
    Theorem1 {
        /// Adversary steps (= rounds; blocks have length 1).
        steps: usize,
    },
    /// Theorem 2 greedy adversary on `deaf(K_n)` (strict probes) vs
    /// midpoint: per-round rate exactly 1/2. `threads` pools the
    /// candidate forks; every value must reproduce `threads = 1`
    /// bit-for-bit.
    Theorem2 {
        /// Number of agents (`≥ 3`).
        n: usize,
        /// Adversary steps.
        steps: usize,
        /// Candidate-fork pool workers (1 = serial).
        threads: usize,
    },
    /// A Theorem-2-style drive probing with
    /// [`ProbeSet::deaf_continuations`] of the deaf model, so the grid
    /// exercises (and labels) the `deaf` probe family.
    DeafValency {
        /// Number of agents (`≥ 3`).
        n: usize,
        /// Adversary steps.
        steps: usize,
    },
    /// Theorem 3 σ-macro adversary (strict probes) vs the amortized
    /// midpoint: per-macro-round rate ≥ 1/2.
    Theorem3 {
        /// Number of agents (`≥ 4`).
        n: usize,
        /// Macro steps (each `n − 2` rounds).
        steps: usize,
    },
    /// [`DiameterMaximiser`] over `deaf(K_n)` vs midpoint: the mean
    /// per-round contraction ratio is exactly 1/2 (the Theorem 2 tight
    /// rate, measured by value diameter instead of valency).
    DiameterMaxDeaf {
        /// Number of agents.
        n: usize,
        /// Rounds driven.
        rounds: usize,
        /// Candidate-scoring pool workers (1 = serial).
        threads: usize,
    },
    /// Full-width [`BeamSearch`] (width ≥ class size, depth `n(n−1)`,
    /// no random mutations) vs midpoint — must equal [`Exhaustive`]
    /// with the same `n`/`rounds` byte-for-byte.
    ///
    /// [`Exhaustive`]: AdvCell::Exhaustive
    BeamFullWidth {
        /// Number of agents (`≤ 4`).
        n: usize,
        /// Rounds driven.
        rounds: usize,
    },
    /// [`ExhaustiveRooted`] reference argmax vs midpoint.
    Exhaustive {
        /// Number of agents (`≤ 4`).
        n: usize,
        /// Rounds driven.
        rounds: usize,
    },
    /// Pruned [`BeamSearch`] at large `n` vs plain averaging: the
    /// regime exhaustive enumeration cannot reach. The found schedule
    /// must contract strictly slower than 1/2 per round.
    BeamLarge {
        /// Number of agents.
        n: usize,
        /// Rounds driven.
        rounds: usize,
        /// Beam width.
        width: usize,
        /// Expansion waves per round.
        depth: usize,
        /// Random mutants per frontier graph per wave.
        mutations: usize,
        /// Scoring pool workers (1 = serial).
        threads: usize,
    },
}

impl AdvCell {
    /// The probe family the cell's valency adversary is built with, or
    /// `None` for a cell without one. [`AdvCell::label`] names it
    /// without building the adversary, and [`AdvCell::run`] asserts that
    /// the adversary it builds reports it.
    #[must_use]
    pub fn probe_family(&self) -> Option<ProbeFamily> {
        match self {
            AdvCell::Theorem1 { .. } | AdvCell::Theorem2 { .. } => Some(ProbeFamily::Explicit),
            AdvCell::DeafValency { .. } => Some(ProbeFamily::Deaf),
            AdvCell::Theorem3 { .. } => Some(ProbeFamily::SigmaPsi),
            AdvCell::DiameterMaxDeaf { .. }
            | AdvCell::BeamFullWidth { .. }
            | AdvCell::Exhaustive { .. }
            | AdvCell::BeamLarge { .. } => None,
        }
    }

    /// The stable report/JSON label. Valency cells embed the probe
    /// family so golden rows are self-describing.
    #[must_use]
    pub fn label(&self) -> String {
        let fam = self.probe_family().map_or("", ProbeFamily::label);
        match *self {
            AdvCell::Theorem1 { steps } => format!("thm1 n=2 probes={fam} strict steps={steps}"),
            AdvCell::Theorem2 { n, steps, threads } => {
                format!("thm2 n={n} probes={fam} strict threads={threads} steps={steps}")
            }
            AdvCell::DeafValency { n, steps } => {
                format!("deaf-valency n={n} probes={fam} steps={steps}")
            }
            AdvCell::Theorem3 { n, steps } => {
                format!("thm3 n={n} probes={fam} strict steps={steps}")
            }
            AdvCell::DiameterMaxDeaf { n, rounds, threads } => {
                format!("diameter-max deaf n={n} threads={threads} rounds={rounds}")
            }
            AdvCell::BeamFullWidth { n, rounds } => {
                format!("beam full-width n={n} rounds={rounds}")
            }
            AdvCell::Exhaustive { n, rounds } => {
                format!("exhaustive rooted n={n} rounds={rounds}")
            }
            AdvCell::BeamLarge {
                n,
                rounds,
                width,
                depth,
                mutations,
                threads,
            } => format!(
                "beam n={n} w={width} d={depth} m={mutations} threads={threads} rounds={rounds}"
            ),
        }
    }

    /// The label with the `threads=…` token removed: serial/pooled cell
    /// pairs share this key, which is how the table (and the golden
    /// test) find the pairs whose fingerprints must agree.
    #[must_use]
    pub fn pair_key(&self) -> String {
        self.label()
            .split_whitespace()
            .filter(|tok| !tok.starts_with("threads="))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Runs the cell. Cells are seed-free (spread inits, deterministic
    /// adversaries), so `ctx` only names the trace shard. The
    /// greedy-valency drivers emit one `probe_step` span per adversary
    /// step and the beam searches one `beam_generation` span per
    /// committed round, all on `(ctx.index, lane::PROBE | lane::BEAM)`.
    /// Inner probe sets stay untraced: pooled candidate scoring would
    /// commit probe spans in scheduling order, and the step-level spans
    /// already carry the chosen `δ̂` per step. The outcome is
    /// byte-identical to the untraced run.
    #[must_use]
    pub fn run(&self, ctx: CellCtx, trace: &TraceHandle) -> CellOutcome {
        let shard = ctx.index as u64;
        match *self {
            AdvCell::Theorem1 { steps } => {
                let adv = adversary::theorem1().strict().trace(trace.clone(), shard);
                valency_outcome(
                    self,
                    &adv,
                    Execution::new(TwoAgentThirds, &spread_inits(2)),
                    steps,
                )
            }
            AdvCell::Theorem2 { n, steps, threads } => {
                let adv = adversary::theorem2(&Digraph::complete(n))
                    .strict()
                    .threads(threads)
                    .trace(trace.clone(), shard);
                valency_outcome(
                    self,
                    &adv,
                    Execution::new(Midpoint, &spread_inits(n)),
                    steps,
                )
            }
            AdvCell::DeafValency { n, steps } => {
                let model = NetworkModel::deaf(&Digraph::complete(n));
                let candidates = model
                    .graphs()
                    .iter()
                    .enumerate()
                    .map(|(i, g)| adversary::CandidateMove {
                        label: format!("F{}", i + 1),
                        graphs: vec![g.clone()],
                    })
                    .collect();
                let probes = ProbeSet::deaf_continuations(&model).strict();
                let adv = adversary::GreedyValencyAdversary::new(candidates, probes)
                    .trace(trace.clone(), shard);
                valency_outcome(
                    self,
                    &adv,
                    Execution::new(Midpoint, &spread_inits(n)),
                    steps,
                )
            }
            AdvCell::Theorem3 { n, steps } => {
                let adv = adversary::theorem3(n).strict().trace(trace.clone(), shard);
                valency_outcome(
                    self,
                    &adv,
                    Execution::new(AmortizedMidpoint::for_agents(n), &spread_inits(n)),
                    steps,
                )
            }
            AdvCell::DiameterMaxDeaf { n, rounds, threads } => outcome_of(
                Scenario::new(Midpoint, &spread_inits(n))
                    .adversary(DiameterMaximiser::deaf_complete(n).threads(threads)),
                rounds,
            ),
            AdvCell::BeamFullWidth { n, rounds } => outcome_of(
                Scenario::new(Midpoint, &spread_inits(n)).adversary(
                    BeamSearch::new(n, ADV_BEAM_SEED)
                        .width(1 << (n * (n - 1)))
                        .depth(n * (n - 1))
                        .mutations(0)
                        .trace(trace.clone(), shard),
                ),
                rounds,
            ),
            AdvCell::Exhaustive { n, rounds } => outcome_of(
                Scenario::new(Midpoint, &spread_inits(n)).adversary(ExhaustiveRooted::new(n)),
                rounds,
            ),
            AdvCell::BeamLarge {
                n,
                rounds,
                width,
                depth,
                mutations,
                threads,
            } => outcome_of(
                Scenario::new(MeanValue, &spread_inits(n)).adversary(
                    BeamSearch::new(n, ADV_BEAM_SEED)
                        .width(width)
                        .depth(depth)
                        .mutations(mutations)
                        .threads(threads)
                        .trace(trace.clone(), shard),
                ),
                rounds,
            ),
        }
    }
}

/// Drives a fresh [`Scenario`] for `rounds` rounds, collecting per-round
/// value contraction ratios, and packs the outcome. The reported `rate`
/// is the **mean per-round ratio**, which keeps exact halving exactly
/// `0.5` (no `powf` round-off) — the form the golden invariants pin.
fn outcome_of<A, Dr, const D: usize>(mut sc: Scenario<A, Dr, D>, rounds: usize) -> CellOutcome
where
    A: Algorithm<D> + Clone,
    Dr: scenario::Driver<A, D>,
{
    const FLOOR: f64 = 1e-300;
    let mut ratios = Vec::new();
    let mut prev = sc.execution().value_diameter();
    sc.drive(rounds, |_, exec| {
        let d = exec.value_diameter();
        if prev > FLOOR && d > FLOOR {
            ratios.push(d / prev);
        }
        prev = d;
        ControlFlow::Continue(())
    });
    let exec = sc.execution();
    CellOutcome {
        rate: Stats::from_values(&ratios).map_or(0.0, |s| s.mean),
        decision_round: None,
        rounds: exec.round(),
        converged: true,
        fingerprint: fingerprint(exec.outputs_slice()),
    }
}

/// Packs the greedy-valency drive of `cell`: rate from the δ̂ trace
/// (per round), convergence from the probes, fingerprint from the final
/// outputs.
///
/// # Panics
///
/// Panics if `adv` probes another family than [`AdvCell::probe_family`]
/// names, so a constructor change fails loudly instead of mislabelling
/// a golden row.
fn valency_outcome<A, const D: usize>(
    cell: &AdvCell,
    adv: &adversary::GreedyValencyAdversary,
    mut exec: Execution<A, D>,
    steps: usize,
) -> CellOutcome
where
    A: Algorithm<D> + Clone,
{
    assert_eq!(
        Some(adv.probes().family()),
        cell.probe_family(),
        "`{}` names another probe family than its adversary's",
        cell.label()
    );
    let trace = adv.drive(&mut exec, steps);
    CellOutcome {
        rate: trace.per_round_rate(),
        decision_round: None,
        rounds: exec.round(),
        converged: trace.converged,
        fingerprint: fingerprint(exec.outputs_slice()),
    }
}

/// The beam seed all grid cells share: pinned so the golden bytes are a
/// pure function of the spec.
pub const ADV_BEAM_SEED: u64 = 42;

/// Configuration of the adversary-search grid.
#[derive(Debug, Clone)]
pub struct AdversarySpec {
    /// Report name (embedded in the JSON).
    pub name: String,
    /// The cell list, in report order.
    pub cells: Vec<AdvCell>,
    /// Base seed (cells are seed-free; recorded for the report header).
    pub base_seed: u64,
}

impl Grid for AdversarySpec {
    const NAME: &'static str = "adversary_search";
    const ABOUT: &'static str = "adaptive adversary search: strict-probe theorem adversaries, pooled vs serial candidate forks, beam vs exhaustive rooted argmax (presets: quick/golden | full)";
    type Cell = AdvCell;
    type Rows = [CellOutcome; 1];

    /// The named adversary-search presets:
    ///
    /// * `quick` (alias `golden`) — the preset the golden test and the CI
    ///   `sweep-regression` job pin (`ci/golden_adversary.json`): the three
    ///   theorem adversaries in strict mode, serial/pooled Theorem-2 and
    ///   diameter-max pairs, the beam-vs-exhaustive equivalence pair at
    ///   `n = 4`, and the pruned beam at `n = 16`. Its report is named
    ///   after the grid.
    /// * `full` — longer drives and a wider, deeper beam (adds `n = 24`).
    fn preset(name: &str) -> Result<Self, SpecError> {
        Ok(match name {
            "quick" | "golden" => AdversarySpec {
                name: Self::NAME.into(),
                cells: vec![
                    AdvCell::Theorem1 { steps: 10 },
                    AdvCell::Theorem2 {
                        n: 4,
                        steps: 10,
                        threads: 1,
                    },
                    AdvCell::Theorem2 {
                        n: 4,
                        steps: 10,
                        threads: 4,
                    },
                    AdvCell::DeafValency { n: 4, steps: 10 },
                    AdvCell::Theorem3 { n: 5, steps: 6 },
                    AdvCell::DiameterMaxDeaf {
                        n: 16,
                        rounds: 20,
                        threads: 1,
                    },
                    AdvCell::DiameterMaxDeaf {
                        n: 16,
                        rounds: 20,
                        threads: 4,
                    },
                    AdvCell::BeamFullWidth { n: 4, rounds: 4 },
                    AdvCell::Exhaustive { n: 4, rounds: 4 },
                    AdvCell::BeamLarge {
                        n: 16,
                        rounds: 16,
                        width: 4,
                        depth: 2,
                        mutations: 2,
                        threads: 4,
                    },
                ],
                base_seed: ADV_BEAM_SEED,
            },
            "full" => AdversarySpec {
                name: format!("{}_full", Self::NAME),
                cells: vec![
                    AdvCell::Theorem1 { steps: 16 },
                    AdvCell::Theorem2 {
                        n: 4,
                        steps: 16,
                        threads: 1,
                    },
                    AdvCell::Theorem2 {
                        n: 4,
                        steps: 16,
                        threads: 8,
                    },
                    AdvCell::DeafValency { n: 4, steps: 16 },
                    AdvCell::Theorem3 { n: 6, steps: 8 },
                    AdvCell::DiameterMaxDeaf {
                        n: 16,
                        rounds: 40,
                        threads: 1,
                    },
                    AdvCell::DiameterMaxDeaf {
                        n: 16,
                        rounds: 40,
                        threads: 8,
                    },
                    AdvCell::BeamFullWidth { n: 3, rounds: 6 },
                    AdvCell::Exhaustive { n: 3, rounds: 6 },
                    AdvCell::BeamFullWidth { n: 4, rounds: 6 },
                    AdvCell::Exhaustive { n: 4, rounds: 6 },
                    AdvCell::BeamLarge {
                        n: 16,
                        rounds: 24,
                        width: 6,
                        depth: 3,
                        mutations: 4,
                        threads: 8,
                    },
                    AdvCell::BeamLarge {
                        n: 24,
                        rounds: 16,
                        width: 4,
                        depth: 2,
                        mutations: 2,
                        threads: 8,
                    },
                ],
                base_seed: ADV_BEAM_SEED,
            },
            other => {
                return Err(SpecError::UnknownPreset {
                    grid: Self::NAME,
                    got: other.into(),
                    valid: "quick|golden|full",
                })
            }
        })
    }

    fn report_name(&self) -> &str {
        &self.name
    }

    fn base_seed(&self) -> u64 {
        self.base_seed
    }

    fn set_base_seed(&mut self, seed: u64) {
        self.base_seed = seed;
    }

    fn cells(&self) -> Vec<AdvCell> {
        self.cells.clone()
    }

    fn row_label(&self, cell: &AdvCell, _row: usize) -> String {
        cell.label()
    }

    /// [`AdvCell::run`]. With one sweep thread, each cell's inner fork
    /// pool gets up to the cell's own `threads` workers: the greedy
    /// valency candidates always fork, while beam and diameter-max rounds
    /// fork only chunks over the scorer's fork grain, which no preset
    /// cell reaches. With more sweep threads, a cell runs on a pool
    /// worker and its inner pool calls run inline there. The report is
    /// identical at any thread count: outer sweep parallelism and inner
    /// fork pools are both index-ordered.
    fn run_cell(&self, cell: &AdvCell, ctx: CellCtx, trace: &TraceHandle) -> [CellOutcome; 1] {
        [cell.run(ctx, trace)]
    }

    /// One row per cell plus the cross-cell invariant block.
    fn table(&self, report: &SweepReport) -> String {
        let mut out = section(&format!(
            "Adversary search `{}` — {} cells, beam seed {}",
            report.name,
            report.outcomes.len(),
            report.base_seed
        ));
        out.push_str(
            "rate = mean per-round contraction (valency δ̂ for theorem rows, value\ndiameter for adaptive rows); probes run strict where labelled\n\n",
        );
        let mut t = Table::new(&["cell", "rate", "rounds", "probes ok", "fingerprint"]);
        for (i, cell) in self.cells.iter().enumerate() {
            let o = &report.outcomes[i];
            t.row(&[
                cell.label(),
                rate(o.rate),
                o.rounds.to_string(),
                check(o.converged),
                format!("{:016x}", o.fingerprint),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
        for (desc, ok) in adversary_checks(self, report) {
            out.push_str(&format!("{} {}\n", check(ok), desc));
        }
        out
    }
}

/// [`Grid::preset`] of the adversary-search grid, under the name
/// `perfbench/` imports.
pub fn try_adversary_spec(preset: &str) -> Result<AdversarySpec, SpecError> {
    AdversarySpec::preset(preset)
}

/// [`run_grid`] of an adversary-search spec, untraced, under the name
/// `perfbench/` imports.
#[must_use]
pub fn run_adversary(spec: &AdversarySpec, threads: Option<usize>) -> SweepReport {
    run_grid(spec, threads, TraceHandle::disabled())
}

/// [`AdvCell::run`], under the name `perfbench/` imports.
#[must_use]
pub fn run_adversary_cell_traced(cell: &AdvCell, ctx: CellCtx, trace: &TraceHandle) -> CellOutcome {
    cell.run(ctx, trace)
}

/// The grid's cross-cell invariants, as `(description, holds)` rows:
/// every serial/pooled (and beam/exhaustive) pair with the same
/// [`AdvCell::pair_key`] must have identical fingerprints, the
/// deaf-family diameter-max rate must be exactly 1/2, the large-`n`
/// beam must contract strictly slower than 1/2 per round, and the
/// Theorem 3 valency rate δ̂ must reach the paper's lower bound
/// `(1/2)^{1/(n−2)}`.
#[must_use]
pub fn adversary_checks(spec: &AdversarySpec, report: &SweepReport) -> Vec<(String, bool)> {
    assert_eq!(spec.cells.len(), report.outcomes.len(), "one row per cell");
    let mut checks = Vec::new();

    // Thread-count pairs: equal pair_key ⇒ equal fingerprint.
    for (i, a) in spec.cells.iter().enumerate() {
        for (j, b) in spec.cells.iter().enumerate().skip(i + 1) {
            if a.pair_key() == b.pair_key() {
                checks.push((
                    format!("replay-equal: {} ≡ {}", a.label(), b.label()),
                    report.outcomes[i].fingerprint == report.outcomes[j].fingerprint
                        && report.outcomes[i].rate.to_bits() == report.outcomes[j].rate.to_bits(),
                ));
            }
        }
    }

    // Beam ≡ exhaustive at matching (n, rounds).
    for (i, a) in spec.cells.iter().enumerate() {
        if let AdvCell::BeamFullWidth { n, rounds } = *a {
            for (j, b) in spec.cells.iter().enumerate() {
                if *b == (AdvCell::Exhaustive { n, rounds }) {
                    checks.push((
                        format!("beam ≡ exhaustive (n={n})"),
                        report.outcomes[i].fingerprint == report.outcomes[j].fingerprint,
                    ));
                }
            }
        }
    }

    for (i, cell) in spec.cells.iter().enumerate() {
        match *cell {
            AdvCell::DiameterMaxDeaf { n, .. } => checks.push((
                format!("diameter-max deaf n={n} rate = 1/2 exactly"),
                report.outcomes[i].rate == 0.5,
            )),
            AdvCell::BeamLarge { n, .. } => checks.push((
                format!("beam n={n} rate > 1/2 (slower than the deaf bound)"),
                report.outcomes[i].rate > 0.5,
            )),
            AdvCell::Theorem1 { .. } => checks.push((
                "thm1 rate = 1/3 (±1e-6)".into(),
                (report.outcomes[i].rate - 1.0 / 3.0).abs() < 1e-6,
            )),
            AdvCell::Theorem2 { .. } | AdvCell::DeafValency { .. } => checks.push((
                format!("{} rate = 1/2 (±1e-6)", cell.pair_key()),
                (report.outcomes[i].rate - 0.5).abs() < 1e-6,
            )),
            AdvCell::Theorem3 { n, .. } => checks.push((
                format!("thm3 n={n} δ̂ ≥ (1/2)^(1/(n−2))"),
                report.outcomes[i].rate >= bounds::theorem3_lower(n),
            )),
            _ => {}
        }
    }
    checks
}
