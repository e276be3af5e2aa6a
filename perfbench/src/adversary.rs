//! The `adversary_search` workload: full passes of the `full` adversary
//! grid (outer sweep of one thread, every cell's fork pool clamped to the
//! core count), each pass checked against `adversary_checks`.

use std::collections::BTreeMap;
use std::time::Instant;

use consensus_bench::advsearch::{
    adversary_checks, run_adversary, run_adversary_cell_traced, try_adversary_spec, AdvCell,
    AdversarySpec, ADV_BEAM_SEED,
};
use consensus_bench::experiments::spread_inits;
use tight_bounds_consensus::dynamics::scenario::NoDriver;
use tight_bounds_consensus::prelude::*;
use tight_bounds_consensus::sweep::fingerprint;

use crate::layers::Layers;
use crate::stats::{mix, ms_since};
use crate::{Checks, Ctx, Item, Workload};

/// The adversary grid at the core count.
pub struct Adversary {
    ctx: Ctx,
    spec: AdversarySpec,
    /// The report's row labels.
    labels: Vec<String>,
    /// `(fingerprint, rate bits)` per cell of the first pass; every later
    /// pass must repeat them.
    first: Option<Vec<(u64, u64)>>,
}

/// `cell` with its fork pool clamped to `threads`.
fn clamp(cell: AdvCell, threads: usize) -> AdvCell {
    match cell {
        AdvCell::Theorem2 {
            n,
            steps,
            threads: t,
        } => AdvCell::Theorem2 {
            n,
            steps,
            threads: t.min(threads),
        },
        AdvCell::DiameterMaxDeaf {
            n,
            rounds,
            threads: t,
        } => AdvCell::DiameterMaxDeaf {
            n,
            rounds,
            threads: t.min(threads),
        },
        AdvCell::BeamLarge {
            n,
            rounds,
            width,
            depth,
            mutations,
            threads: t,
        } => AdvCell::BeamLarge {
            n,
            rounds,
            width,
            depth,
            mutations,
            threads: t.min(threads),
        },
        other => other,
    }
}

/// The layer a cell's time is charged to, and its short kind name.
fn kind(cell: &AdvCell) -> (&'static str, &'static str) {
    match cell {
        AdvCell::Theorem1 { .. } => ("valency", "thm1"),
        AdvCell::Theorem2 { .. } => ("valency", "thm2"),
        AdvCell::DeafValency { .. } => ("valency", "deaf_valency"),
        AdvCell::Theorem3 { .. } => ("valency", "thm3"),
        AdvCell::DiameterMaxDeaf { .. } => ("dynet", "diameter_max"),
        AdvCell::BeamFullWidth { .. } => ("dynet", "beam_full_width"),
        AdvCell::Exhaustive { .. } => ("dynet", "exhaustive"),
        AdvCell::BeamLarge { .. } => ("dynet", "beam_large"),
    }
}

impl Adversary {
    /// The `full` adversary spec with fork pools clamped to the cores,
    /// and its row labels (each builds the cell's adversary to name its
    /// probe family).
    pub fn setup(ctx: &Ctx) -> Adversary {
        let mut spec = try_adversary_spec("full").expect("the full adversary preset exists");
        spec.cells = spec.cells.iter().map(|&c| clamp(c, ctx.nproc)).collect();
        Adversary {
            ctx: ctx.clone(),
            labels: spec.cells.iter().map(AdvCell::label).collect(),
            spec,
            first: None,
        }
    }

    /// Checks one pass's outcomes: the grid invariants, and equality with
    /// the first pass.
    fn check(&mut self, outcomes: Vec<CellOutcome>, checks: &mut Checks) {
        let report = SweepReport::new(
            self.spec.name.clone(),
            self.spec.base_seed,
            self.labels.clone(),
            vec![0; outcomes.len()],
            outcomes,
        );
        for (what, ok) in adversary_checks(&self.spec, &report) {
            checks.check(ok, &what);
        }
        let bits: Vec<(u64, u64)> = report
            .outcomes
            .iter()
            .map(|o| (o.fingerprint, o.rate.to_bits()))
            .collect();
        let first = self.first.get_or_insert_with(|| bits.clone());
        checks.check(*first == bits, "pass repeats the first pass bit for bit");
    }
}

impl Workload for Adversary {
    fn item(&mut self, k: u64) -> Item {
        // Cells are seed-free; the derived seed only names the report.
        self.spec.base_seed = mix(self.ctx.seed, k);
        let t = Instant::now();
        let report = run_adversary(&self.spec, Some(1));
        let mut item = Item {
            samples_ms: vec![ms_since(t)],
            work: self.spec.cells.len() as u64,
            ..Item::default()
        };
        self.check(report.outcomes, &mut item.checks);
        item
    }

    fn traced_item(&mut self, k: u64, layers: &mut Layers) -> Item {
        self.spec.base_seed = mix(self.ctx.seed, k);
        let sweep = Sweep::new(self.spec.cells.clone())
            .seed(self.spec.base_seed)
            .threads(1);
        let t = Instant::now();
        // Each cell runs with the program's own trace, for its
        // `beam_candidates` counter.
        let timed = sweep.run(|cell, ctx| {
            let trace = TraceHandle::enabled();
            let t = Instant::now();
            let o = run_adversary_cell_traced(cell, ctx, &trace);
            let ms = ms_since(t);
            (o, ms, trace.merged().counter_total("beam_candidates"))
        });
        let mut item = Item {
            samples_ms: vec![ms_since(t)],
            work: self.spec.cells.len() as u64,
            ..Item::default()
        };
        let candidates: u64 = timed.iter().map(|(_, _, c)| c).sum();
        layers.push("dynet.beam_candidates", candidates as f64);
        let mut per_kind: BTreeMap<String, f64> = BTreeMap::new();
        for ((cell, label), (_, ms, candidates)) in
            self.spec.cells.iter().zip(&self.labels).zip(&timed)
        {
            if let AdvCell::BeamLarge { n: 16, .. } = cell {
                layers.push("dynet.beam16_candidates", *candidates as f64);
            }
            layers.cell("adversary_search", label, *ms);
            let (layer, name) = kind(cell);
            *per_kind
                .entry(format!("{layer}.cell_ms.{name}"))
                .or_default() += ms;
            if let Some(steps) = valency_steps(cell) {
                layers.push("valency.ms", *ms);
                layers.push("valency.steps", steps as f64);
            }
        }
        for (key, ms) in per_kind {
            layers.push(key, ms);
        }
        let outcomes = timed.into_iter().map(|(o, _, _)| o).collect();
        self.check(outcomes, &mut item.checks);
        item
    }

    /// Serial replicas of the adaptive cells with a timer around every
    /// driver call; each must reproduce the first pass's outcome.
    fn probe(&mut self, layers: &mut Layers, checks: &mut Checks) {
        let first = self.first.clone().expect("probe follows a pass");
        for ((cell, label), (fp, rate)) in self.spec.cells.iter().zip(&self.labels).zip(first) {
            if let Some((replica_fp, replica_rate)) = replay_driver(cell, layers) {
                checks.check(
                    replica_fp == fp && replica_rate.to_bits() == rate,
                    &format!("timed serial replica of `{label}` matches the pass"),
                );
            }
        }
    }

    fn verify(&mut self, checks: &mut Checks) {
        // The golden preset, with its fork pools clamped too: outcomes are
        // thread-count invariant, so under the golden's own labels the
        // report must equal the golden bytes.
        let golden = try_adversary_spec("golden").expect("golden adversary preset");
        let mut clamped = golden.clone();
        clamped.cells = golden
            .cells
            .iter()
            .map(|&c| clamp(c, self.ctx.nproc))
            .collect();
        let report = run_adversary(&clamped, Some(1));
        let json = SweepReport::new(
            golden.name.clone(),
            golden.base_seed,
            golden.cells.iter().map(AdvCell::label).collect(),
            report.seeds.clone(),
            report.outcomes.clone(),
        )
        .to_json();
        let file = std::fs::read_to_string(self.ctx.repo.join("ci/golden_adversary.json")).ok();
        checks.check(
            file.as_deref() == Some(json.as_str()),
            "adversary_search golden report equals ci/golden_adversary.json",
        );
        for (what, ok) in adversary_checks(&clamped, &report) {
            checks.check(ok, &format!("golden: {what}"));
        }
    }
}

/// The steps of a valency cell (the unit of `valency.step_ms`).
fn valency_steps(cell: &AdvCell) -> Option<usize> {
    match *cell {
        AdvCell::Theorem1 { steps }
        | AdvCell::Theorem2 { steps, .. }
        | AdvCell::DeafValency { steps, .. }
        | AdvCell::Theorem3 { steps, .. } => Some(steps),
        _ => None,
    }
}

/// A benchmark-side [`scenario::Driver`] wrapper: times every
/// `next_block` call of the driver it wraps.
struct TimedDriver<Dr> {
    inner: Dr,
    calls: u64,
    ms: f64,
}

impl<A: Algorithm<D>, const D: usize, Dr: scenario::Driver<A, D>> scenario::Driver<A, D>
    for TimedDriver<Dr>
{
    fn block_len(&self) -> usize {
        self.inner.block_len()
    }

    fn next_block(&mut self, exec: &Execution<A, D>, out: &mut Vec<Digraph>) {
        let t = Instant::now();
        self.inner.next_block(exec, out);
        self.ms += ms_since(t);
        self.calls += 1;
    }

    fn observe(&mut self, exec: &Execution<A, D>) {
        self.inner.observe(exec);
    }
}

/// Drives `rounds` rounds and packs the outcome exactly as the adversary
/// grid does (mean per-round contraction ratio, final fingerprint).
fn drive<A, Dr, const D: usize>(sc: &mut Scenario<A, Dr, D>, rounds: usize) -> (u64, f64)
where
    A: Algorithm<D> + Clone,
    Dr: scenario::Driver<A, D>,
{
    const FLOOR: f64 = 1e-300;
    let mut ratios = Vec::new();
    let mut prev = sc.execution().value_diameter();
    while sc.execution().round() < rounds as u64 {
        sc.advance(1);
        let d = sc.execution().value_diameter();
        if prev > FLOOR && d > FLOOR {
            ratios.push(d / prev);
        }
        prev = d;
    }
    let rate = Stats::from_values(&ratios).map_or(0.0, |s| s.mean);
    (fingerprint(sc.execution().outputs_slice()), rate)
}

/// Re-runs an adaptive (`dynet`) cell serially with its driver wrapped in
/// a [`TimedDriver`]: the outcome's fingerprint and rate, or `None` for
/// the valency cells.
fn replay_driver(cell: &AdvCell, layers: &mut Layers) -> Option<(u64, f64)> {
    fn timed<A, Dr, const D: usize>(
        sc: Scenario<A, NoDriver, D>,
        driver: Dr,
        rounds: usize,
        layers: &mut Layers,
    ) -> ((u64, f64), f64)
    where
        A: Algorithm<D> + Clone,
        Dr: scenario::Driver<A, D>,
    {
        let mut sc = sc.adversary(TimedDriver {
            inner: driver,
            calls: 0,
            ms: 0.0,
        });
        let out = drive(&mut sc, rounds);
        let d = sc.driver();
        layers.push("dynet.next_block_ms_total", d.ms);
        layers.push("dynet.next_block_calls", d.calls as f64);
        (out, d.ms)
    }
    let (outcome, ms) = match *cell {
        AdvCell::DiameterMaxDeaf { n, rounds, .. } => timed(
            Scenario::new(Midpoint, &spread_inits(n)),
            DiameterMaximiser::deaf_complete(n),
            rounds,
            layers,
        ),
        AdvCell::Exhaustive { n, rounds } => timed(
            Scenario::new(Midpoint, &spread_inits(n)),
            ExhaustiveRooted::new(n),
            rounds,
            layers,
        ),
        AdvCell::BeamFullWidth { n, rounds } => timed(
            Scenario::new(Midpoint, &spread_inits(n)),
            BeamSearch::new(n, ADV_BEAM_SEED)
                .width(1 << (n * (n - 1)))
                .depth(n * (n - 1))
                .mutations(0),
            rounds,
            layers,
        ),
        AdvCell::BeamLarge {
            n,
            rounds,
            width,
            depth,
            mutations,
            ..
        } => timed(
            Scenario::new(MeanValue, &spread_inits(n)),
            BeamSearch::new(n, ADV_BEAM_SEED)
                .width(width)
                .depth(depth)
                .mutations(mutations),
            rounds,
            layers,
        ),
        _ => return None,
    };
    if let AdvCell::BeamLarge { n: 16, .. } = cell {
        // The large beam at the n the fork-step probe uses: the
        // per-candidate cost to split into fork, score and generation.
        layers.push("dynet.beam16_ns", ms * 1e6);
    }
    Some(outcome)
}
