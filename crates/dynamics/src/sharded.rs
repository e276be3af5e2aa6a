//! [`ShardedExecution`]: an [`Execution`] built from plain `f64` values.

use consensus_algorithms::{Algorithm, Point};

use crate::Execution;

/// The constructor of a scalar [`Execution`] from plain `f64` initial
/// values, kept for call sites written against the former large-`n`
/// stepper. Large-`n` runs are an [`Execution`] stepped on a
/// [`CsrDigraph`](consensus_digraph::CsrDigraph), chunked across pool
/// workers by [`Execution::threads`].
pub enum ShardedExecution {}

impl ShardedExecution {
    /// `Execution::new(alg, inits)` with each `f64` as a `Point<1>`.
    ///
    /// # Panics
    ///
    /// Panics if `inits` is empty.
    #[allow(clippy::new_ret_no_self)] // a constructor for `Execution`, not for this namespace
    #[must_use]
    pub fn new<A: Algorithm<1>>(alg: A, inits: &[f64]) -> Execution<A, 1> {
        let inits: Vec<Point<1>> = inits.iter().map(|&v| Point([v])).collect();
        Execution::new(alg, &inits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_algorithms::{MeanValue, Midpoint};
    use consensus_digraph::{CsrDigraph, Digraph};

    fn inits(n: usize) -> Vec<f64> {
        // Deterministic, non-uniform, sign-mixed values.
        (0..n)
            .map(|i| ((i * 2_654_435_761 % 1_000_003) as f64) / 1_000_003.0 - 0.5)
            .collect()
    }

    fn bits<A: Algorithm<1>, P>(e: &Execution<A, 1, P>) -> Vec<u64> {
        e.outputs_slice().iter().map(|p| p[0].to_bits()).collect()
    }

    #[test]
    fn matches_dense_execution_bitwise_at_small_n() {
        let vals = inits(23);
        let g = Digraph::complete(23).make_deaf(4);
        let csr = CsrDigraph::from_dense(&g);
        for threads in [1, 2, 7] {
            let mut dense = ShardedExecution::new(Midpoint, &vals);
            let mut shard = ShardedExecution::new(Midpoint, &vals)
                .threads(threads)
                .chunk_size(5);
            let mut shard_csr = ShardedExecution::new(Midpoint, &vals).threads(threads);
            for _ in 0..17 {
                dense.step(&g);
                shard.step(&g);
                shard_csr.step(&csr);
            }
            assert_eq!(bits(&dense), bits(&shard), "dense graph, chunked");
            assert_eq!(bits(&dense), bits(&shard_csr), "CSR graph, chunked");
        }
    }

    #[test]
    fn thread_and_chunk_count_never_change_results() {
        let vals = inits(501);
        let csr = CsrDigraph::ring_lattice(501, 3);
        let mut reference = ShardedExecution::new(MeanValue, &vals);
        for _ in 0..9 {
            reference.step(&csr);
        }
        for (threads, chunk) in [(2, 64), (4, 7), (8, 1000)] {
            let mut e = ShardedExecution::new(MeanValue, &vals)
                .threads(threads)
                .chunk_size(chunk);
            for _ in 0..9 {
                e.step(&csr);
            }
            assert_eq!(
                bits(&reference),
                bits(&e),
                "threads={threads} chunk={chunk}"
            );
        }
    }

    #[test]
    fn runs_well_past_sixty_four_agents() {
        let n = 500;
        let vals = inits(n);
        let csr = CsrDigraph::ring_lattice(n, 2);
        let mut e = ShardedExecution::new(Midpoint, &vals).threads(4);
        let d0 = e.value_diameter();
        for _ in 0..200 {
            e.step(&csr);
        }
        assert_eq!(e.round(), 200);
        assert!(
            e.value_diameter() < d0 * 0.5,
            "spread must contract on a connected lattice"
        );
    }

    #[test]
    #[should_panic(expected = "graph size")]
    fn size_mismatch_panics() {
        let mut e = ShardedExecution::new(Midpoint, &[0.0, 1.0]).threads(2);
        e.step(&CsrDigraph::ring_lattice(3, 1));
    }
}
