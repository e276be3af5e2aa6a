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

/// `score(i, row)` for every `i < len`, in index order, where one call
/// costs about `cost` message receptions. The indices are split into
/// contiguous chunks of at least [`FORK_GRAIN`] receptions, at most one
/// per pool worker of `threads`, so a batch under the grain scores
/// inline on the calling thread. Each chunk reuses one scratch `row` of
/// `n` points, as the previous call left it; a `score` that writes every
/// row entry before reading it depends only on `i`, which makes the
/// result independent of `threads`.
pub(crate) fn score_chunks<const D: usize>(
    len: usize,
    cost: usize,
    threads: usize,
    n: usize,
    score: impl Fn(usize, &mut [Point<D>]) -> f64 + Sync,
) -> Vec<f64> {
    let mut scores = vec![0.0; len];
    let grain = FORK_GRAIN.div_ceil(cost.max(1));
    let chunk = len.div_ceil(threads.max(1)).max(grain);
    consensus_pool::for_each_chunk_mut(&mut scores, chunk, threads, |start, out| {
        let mut row = vec![Point::ZERO; n];
        for (k, s) in out.iter_mut().enumerate() {
            *s = score(start + k, &mut row);
        }
    });
    scores
}

/// The score of every graph of `graphs` against the configuration in
/// `exec`, in order, on up to `threads` pool workers. A graph's score
/// recomputes all `n` outputs (`n²` receptions) and measures the row.
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
    let la = exec.lookahead();
    let all = full_mask(n);
    score_chunks(graphs.len(), n * (n + 1), threads, n, |i, row| {
        rescore(&la, graphs[i].in_masks(), all, row)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_obs::NullClock;
    use consensus_pool::{CancelToken, PoolProfile};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;
    use std::thread;

    /// Overwrites the row from `i`, then reads it back.
    fn score(i: usize, row: &mut [Point<1>]) -> f64 {
        for (k, p) in row.iter_mut().enumerate() {
            *p = Point([((i * 7 + k * 3) % 11) as f64 / 3.0]);
        }
        diameter(row) + i as f64
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
        let scores = score_chunks(64, FORK_GRAIN / 64 - 1, 3, 5, |i, row| {
            off_caller.fetch_or(thread::current().id() != me, Ordering::SeqCst);
            if i == 0 {
                forked.store(on_forked_worker(), Ordering::SeqCst);
            }
            score(i, row)
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
        let pooled = score_chunks(24, FORK_GRAIN / 8, 3, 5, |i, row| {
            if i == 0 || i == 8 {
                meet.wait();
            }
            score(i, row)
        });
        let serial = score_chunks(24, FORK_GRAIN / 8, 1, 5, score);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&pooled), bits(&serial));
    }
}
