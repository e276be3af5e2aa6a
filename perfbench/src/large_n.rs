//! The `large_n` workload: `ShardedExecution` midpoint on a ring lattice
//! of 10⁵ agents at the core count, in epochs of a fixed number of
//! rounds from the seed's initial values.
//!
//! It is not a `BENCHMARK.json` workload: its rounds are memory-bound,
//! and on a 2-vCPU shared host they ran up to 1.7× faster or slower from
//! run to run (at one thread or two) as other tenants loaded the shared
//! cores, so no bound a regression check could use held. It still runs
//! on the command line, and every traced run of the other workloads times
//! one of its epochs (`dynamics.sharded_round_us`) and its kernel.

use std::hint::black_box;
use std::time::Instant;

use tight_bounds_consensus::prelude::*;

use crate::layers::Layers;
use crate::stats::{mix, ms_since};
use crate::{Checks, Ctx, Item, Workload};

/// Agents.
const N: usize = 100_000;
/// Predecessors each agent hears (plus itself).
const K: usize = 6;
/// Rounds per epoch; every epoch restarts from the seed's values.
const EPOCH: usize = 400;
/// Rounds per latency sample. Round times are bimodal (whether both
/// threads run the round together), so one sample is the mean round of
/// a block: its median does not jump between the two modes.
const BLOCK: usize = 8;

/// The large-`n` executor workload.
pub struct LargeN {
    ctx: Ctx,
    graph: CsrDigraph,
    inits: Vec<f64>,
    /// The bits of every epoch's final diameter.
    finals: Vec<u64>,
}

impl LargeN {
    /// Builds the lattice and draws the initial values from the seed.
    pub fn setup(ctx: &Ctx) -> LargeN {
        let inits = (0..N as u64)
            .map(|i| (mix(ctx.seed, i) >> 11) as f64 / (1u64 << 53) as f64)
            .collect();
        LargeN {
            ctx: ctx.clone(),
            graph: CsrDigraph::ring_lattice(N, K),
            inits,
            finals: Vec::new(),
        }
    }

    /// One epoch at `threads`: the mean round time in ms of every block,
    /// and the final diameter.
    fn epoch(&self, threads: usize) -> (Vec<f64>, f64) {
        let mut exec = ShardedExecution::new(Midpoint, &self.inits).threads(threads);
        let blocks = (0..EPOCH / BLOCK)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..BLOCK {
                    exec.step(black_box(&self.graph));
                }
                ms_since(t) / BLOCK as f64
            })
            .collect();
        (blocks, exec.value_diameter())
    }

    fn run(&mut self) -> Item {
        let (samples_ms, diameter) = self.epoch(self.ctx.nproc);
        self.finals.push(diameter.to_bits());
        Item {
            samples_ms,
            work: (N * EPOCH) as u64,
            ..Item::default()
        }
    }
}

impl Workload for LargeN {
    fn item(&mut self, _k: u64) -> Item {
        self.run()
    }

    /// The per-round timers are the traced item's only layer timers.
    fn traced_item(&mut self, _k: u64, layers: &mut Layers) -> Item {
        let item = self.run();
        for ms in &item.samples_ms {
            layers.push("dynamics.sharded_round_us", ms * 1e3);
        }
        item
    }

    /// The kernel alone: one thread, no chunk dispatch, per reception.
    fn probe(&mut self, layers: &mut Layers, _checks: &mut Checks) {
        let mut exec = ShardedExecution::new(Midpoint, &self.inits).threads(1);
        let receptions = self.graph.edge_count() as f64;
        for _ in 0..20 {
            let t = Instant::now();
            exec.step(black_box(&self.graph));
            layers.push(
                "algorithms.ns_per_reception",
                ms_since(t) * 1e6 / receptions,
            );
        }
    }

    fn verify(&mut self, checks: &mut Checks) {
        let reference = self.epoch(1).1.to_bits();
        for (i, bits) in self.finals.iter().enumerate() {
            checks.check(
                *bits == reference,
                &format!("epoch {i} final diameter bits equal the 1-thread reference"),
            );
        }
    }
}
