//! The work-stealing pool, re-exported from [`consensus_pool`].
//!
//! The pool started life here; it moved to its own crate so the
//! executor in `consensus-dynamics` (which this crate depends on) can
//! chunk rounds across the same workers without a dependency cycle.
//! Every existing `consensus_sweep::pool::…` path keeps working.

pub use consensus_pool::*;
