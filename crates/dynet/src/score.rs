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

/// `score(i, row)` for every `i < len`, in index order, on up to
/// `threads` pool workers that each take one contiguous chunk of
/// indices. Each chunk reuses one scratch `row` of `n` points, as the
/// previous call left it; a `score` that writes every row entry before
/// reading it depends only on `i`, which makes the result independent
/// of `threads`.
pub(crate) fn score_chunks<const D: usize>(
    len: usize,
    threads: usize,
    n: usize,
    score: impl Fn(usize, &mut [Point<D>]) -> f64 + Sync,
) -> Vec<f64> {
    let mut scores = vec![0.0; len];
    let chunk = len.div_ceil(threads.max(1));
    consensus_pool::for_each_chunk_mut(&mut scores, chunk, threads, |start, out| {
        let mut row = vec![Point::ZERO; n];
        for (k, s) in out.iter_mut().enumerate() {
            *s = score(start + k, &mut row);
        }
    });
    scores
}

/// The score of every graph of `graphs` against the configuration in
/// `exec`, in order, on up to `threads` pool workers.
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
    A: Algorithm<D> + Sync,
    A::State: Sync,
    A::Msg: Sync,
{
    let n = exec.n();
    assert!(
        graphs.iter().all(|g| g.n() == n),
        "graph size must match agent count"
    );
    let la = exec.lookahead();
    let all = full_mask(n);
    score_chunks(graphs.len(), threads, n, |i, row| {
        rescore(&la, graphs[i].in_masks(), all, row)
    })
}
