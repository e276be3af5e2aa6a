//! One-step lookahead scoring, shared by the adaptive adversaries
//! ([`DiameterMaximiser`](crate::DiameterMaximiser),
//! [`BeamSearch`](crate::BeamSearch) and
//! [`ExhaustiveRooted`](crate::ExhaustiveRooted)).
//!
//! A candidate graph's score is the value diameter one round under it
//! would produce. Every candidate of a round is scored against the same
//! [`Lookahead`], which gathers the configuration's message slate once;
//! a candidate that differs from an already scored graph in a few
//! agents' in-masks recomputes only those agents' outputs.

use consensus_algorithms::{diameter, Algorithm, Point};
use consensus_digraph::{agents_in, full_mask, AgentSet, Digraph};
use consensus_dynamics::{Execution, Lookahead};

/// The value diameter one round under the in-masks `masks` produces,
/// given a `row` that already holds that round's output for every agent
/// outside `changed`: recomputes the outputs of the agents in `changed`
/// into `row`, then measures the row.
pub(crate) fn rescore<A: Algorithm<D>, const D: usize>(
    la: &Lookahead<'_, A, D>,
    masks: &[AgentSet],
    changed: AgentSet,
    row: &mut [Point<D>],
) -> f64 {
    for i in agents_in(changed) {
        row[i] = la.output(i, masks[i]);
    }
    diameter(row)
}

/// The message receptions one chunk of an adaptive adversary's candidate
/// scoring must carry before it is forked onto a pool worker. At 2–5 ns
/// per reception a grain is 0.26–0.66 ms of work, several times the
/// 35–64 µs a pool dispatch costs on a 2-vCPU host; the value follows
/// from those two costs and is not tuned. A batch under the grain scores
/// on the calling thread, whatever thread count its adversary was given.
pub const FORK_GRAIN: usize = 1 << 17;

/// `score(i, row, warm)` for every `i < len`, in index order, where one
/// call costs about `cost` message receptions on average. The indices
/// are split into contiguous chunks of at least [`FORK_GRAIN`]
/// receptions, at most one per pool worker of `threads`, so a batch
/// under the grain scores inline on the calling thread. Each chunk
/// reuses one scratch `row` of `n` points, as the previous call left
/// it, and `warm` says whether that call was the one for `i − 1`: it is
/// `false` at a chunk start, where the row is fresh. If each call's
/// score, and the row it leaves, depend only on its index and, when
/// `warm`, on the row the call for `i − 1` left, the result is
/// independent of `threads`.
pub(crate) fn score_chunks<const D: usize>(
    len: usize,
    cost: usize,
    threads: usize,
    n: usize,
    score: impl Fn(usize, &mut [Point<D>], bool) -> f64 + Sync,
) -> Vec<f64> {
    let mut scores = vec![0.0; len];
    let grain = FORK_GRAIN.div_ceil(cost.max(1));
    let chunk = len.div_ceil(threads.max(1)).max(grain);
    consensus_pool::for_each_chunk_mut(&mut scores, chunk, threads, |start, out| {
        let mut row = vec![Point::ZERO; n];
        for (k, s) in out.iter_mut().enumerate() {
            *s = score(start + k, &mut row, k > 0);
        }
    });
    scores
}

/// For each graph of `graphs`, the agents whose in-mask differs from
/// the previous graph's (every agent for the first), and the message
/// receptions scoring the list in order costs: the changed agents'
/// in-degrees, plus `n` per graph for measuring its row.
pub(crate) fn changed_agents(graphs: &[Digraph]) -> (Vec<AgentSet>, usize) {
    let mut changed = Vec::with_capacity(graphs.len());
    let mut receptions = 0;
    let mut prev: Option<&[AgentSet]> = None;
    for g in graphs {
        let masks = g.in_masks();
        let mut set = 0;
        for (i, &m) in masks.iter().enumerate() {
            if prev.is_none_or(|p| p[i] != m) {
                set |= 1 << i;
                receptions += m.count_ones() as usize;
            }
        }
        changed.push(set);
        receptions += masks.len();
        prev = Some(masks);
    }
    (changed, receptions)
}

/// The score of every graph of `graphs` against the configuration in
/// `exec`, in order, on up to `threads` pool workers. A graph's score
/// recomputes the outputs of the agents whose in-mask differs from the
/// previous graph's (of all `n` agents at a chunk start) and measures
/// the row, so a graph costs its changed agents' in-degrees plus `n`
/// receptions, and the fork grain sees the list's average
/// ([`changed_agents`]). Consecutive graphs of `deaf(K_n)` differ in two
/// agents, so its round costs about `3n²` receptions and scores inline
/// at every `n ≤ 64`.
///
/// # Panics
///
/// Panics if a graph's size is not the agent count.
pub(crate) fn score_graphs<A, const D: usize>(
    exec: &Execution<A, D>,
    graphs: &[Digraph],
    threads: usize,
) -> Vec<f64>
where
    A: Algorithm<D>,
{
    let n = exec.n();
    assert!(
        graphs.iter().all(|g| g.n() == n),
        "graph size must match agent count"
    );
    let (changed, receptions) = changed_agents(graphs);
    let la = exec.lookahead();
    let all = full_mask(n);
    let cost = receptions.div_ceil(graphs.len().max(1));
    score_chunks(graphs.len(), cost, threads, n, |i, row, warm| {
        let changed = if warm { changed[i] } else { all };
        rescore(&la, graphs[i].in_masks(), changed, row)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_algorithms::MeanValue;
    use consensus_digraph::{enumerate, families};
    use consensus_obs::NullClock;
    use consensus_pool::{CancelToken, PoolProfile};
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;
    use std::thread;

    /// The row the test `score` leaves for index `i`.
    fn row_of(i: usize, k: usize) -> Point<1> {
        Point([((i * 7 + k * 3) % 11) as f64 / 3.0])
    }

    /// Checks that a `warm` row holds what the call for `i − 1` left and
    /// any other row is fresh, overwrites the row from `i`, then reads
    /// it back.
    fn score(i: usize, row: &mut [Point<1>], warm: bool) -> f64 {
        for (k, p) in row.iter_mut().enumerate() {
            let want = if warm { row_of(i - 1, k) } else { Point::ZERO };
            assert_eq!(*p, want, "index {i}, warm {warm}");
            *p = row_of(i, k);
        }
        diameter(row) + i as f64
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Whether `score_graphs` scores `graphs` at `threads` exactly as
    /// stepping a clone of the execution on each graph measures it. The
    /// execution is a mean-value run on spread values, one round into a
    /// cycle so that no two agents agree.
    fn check_against_stepped_clones(graphs: &[Digraph], threads: usize) {
        let n = graphs[0].n();
        let inits: Vec<Point<1>> = (0..n).map(|i| Point([(i * i) as f64 / 7.0])).collect();
        let mut exec = Execution::new(MeanValue, &inits);
        exec.step(&families::cycle(n));
        let want: Vec<u64> = graphs
            .iter()
            .map(|g| {
                let mut fork = exec.clone();
                fork.step(g);
                fork.value_diameter().to_bits()
            })
            .collect();
        assert_eq!(bits(&score_graphs(&exec, graphs, threads)), want);
    }

    #[test]
    fn graph_scores_match_stepped_clones() {
        check_against_stepped_clones(&families::deaf_family(&Digraph::complete(8)), 1);
        let mut rooted: Vec<Digraph> = enumerate::rooted_graphs(3).collect();
        check_against_stepped_clones(&rooted, 1);
        let mut rng = StdRng::seed_from_u64(19);
        for i in (1..rooted.len()).rev() {
            rooted.swap(i, rng.random_range(0..=i));
        }
        check_against_stepped_clones(&rooted, 1);
    }

    #[test]
    fn chunk_starts_rescore_every_agent() {
        // A seeded walk on 64 agents that edits one agent's in-mask per
        // graph, long enough to fork into three chunks at 3 threads: a
        // chunk that started from the previous graph's row would score
        // its first graph from a fresh row at one agent only.
        let n = 64;
        let mut rng = StdRng::seed_from_u64(23);
        let mut masks = vec![full_mask(n); n];
        let walk: Vec<Digraph> = (0..3000)
            .map(|_| {
                masks[rng.random_range(0..n)] = rng.next_u64();
                Digraph::from_in_masks(&masks).expect("64 agents")
            })
            .collect();
        assert!(changed_agents(&walk).1 >= 2 * FORK_GRAIN, "the walk forks");
        check_against_stepped_clones(&walk, 3);
    }

    /// Whether this thread runs a worker's share of a forked pool call,
    /// as opposed to an inline one: a pool call made there runs on one
    /// worker.
    fn on_forked_worker() -> bool {
        let profile = PoolProfile::new();
        let cancel = CancelToken::new();
        consensus_pool::try_run_indexed(2, 2, &cancel, &NullClock, |_| (), |_, _| {}, &profile)
            .expect("no cell panics");
        profile.workers().len() == 1
    }

    #[test]
    fn work_under_the_grain_scores_on_the_caller() {
        let me = thread::current().id();
        let (off_caller, forked) = (AtomicBool::new(false), AtomicBool::new(false));
        let scores = score_chunks(64, FORK_GRAIN / 64 - 1, 3, 5, |i, row, warm| {
            off_caller.fetch_or(thread::current().id() != me, Ordering::SeqCst);
            if i == 0 {
                forked.store(on_forked_worker(), Ordering::SeqCst);
            }
            score(i, row, warm)
        });
        assert!(!off_caller.load(Ordering::SeqCst));
        assert!(!forked.load(Ordering::SeqCst));
        assert_eq!(scores, score_chunks(64, 1, 1, 5, score));
    }

    #[test]
    fn work_over_the_grain_forks_bit_identically() {
        // Three chunks of eight items, each item an eighth of the grain.
        // The first items of chunks 0 and 1 wait for each other, which
        // only two threads scoring at once can satisfy.
        let meet = Barrier::new(2);
        let pooled = score_chunks(24, FORK_GRAIN / 8, 3, 5, |i, row, warm| {
            if i == 0 || i == 8 {
                meet.wait();
            }
            score(i, row, warm)
        });
        let serial = score_chunks(24, FORK_GRAIN / 8, 1, 5, score);
        assert_eq!(bits(&pooled), bits(&serial));
    }
}
