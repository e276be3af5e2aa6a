//! Directed communication graphs for consensus in dynamic networks.
//!
//! This crate is the graph substrate of the reproduction of *“Tight Bounds
//! for Asymptotic and Approximate Consensus”* (Függer, Nowak, Schwarz;
//! PODC 2018). It provides:
//!
//! * [`Digraph`] — a directed graph on `n ≤ 64` agents with **mandatory
//!   self-loops** (the paper’s §2 assumes every agent hears itself), stored
//!   as one `u64` in-neighborhood bitmask per agent;
//! * graph operations used throughout the paper: the **product** `G ∘ H`
//!   (§2), the **root set** `R(G)` (§7), and the *rooted* / *non-split* /
//!   *strongly connected* predicates (§1, §5);
//! * [`families`] — the witness graphs of the paper: `H0, H1, H2`
//!   (Figure 1), `deaf(G) = {F_1, …, F_n}` (§5), the `Ψ_i` graphs
//!   (Figure 2, §6), and the Lemma 24 graphs `H_r`, `K_r` for the
//!   asynchronous crash model;
//! * [`enumerate`] — exhaustive enumeration of small graph classes (all
//!   digraphs with self-loops, all rooted, all non-split, all graphs with a
//!   minimum in-degree) used to *build* network models;
//! * [`render`] — DOT and ASCII rendering, used to regenerate Figures 1–2;
//! * [`CsrDigraph`] and [`SenderSet`] — sparse (CSR) storage and wide
//!   sender sets that lift the 64-agent bitmask cap for the large-`n`
//!   executor, while staying bit-identical to the dense path where both
//!   apply.
//!
//! # Conventions
//!
//! Agents are identified by `0..n` ([`Agent`] is a plain `usize`). The
//! paper uses 1-based agent names; every constructor that mirrors a paper
//! definition documents the translation.
//!
//! An edge `(j, i)` means *“`i` hears `j`”*, i.e. `j ∈ In_i(G)`. All
//! equality, hashing and ordering on [`Digraph`] is structural.
//!
//! # Example
//!
//! ```
//! use consensus_digraph::{Digraph, families};
//!
//! // Figure 1 of the paper: the three rooted two-agent graphs.
//! let [h0, h1, h2] = families::two_agent();
//! assert!(h0.is_rooted() && h1.is_rooted() && h2.is_rooted());
//! assert!(h0.is_nonsplit());
//! // In H1 agent 1 (paper: agent 1) is deaf: it only hears itself.
//! assert!(h1.is_deaf(0));
//! // The product of n-1 = 1 rooted graphs is non-split (trivially here).
//! let p = h1.product(&h2);
//! assert_eq!(p, Digraph::complete(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod csr;
mod graph;
mod senders;

pub mod enumerate;
pub mod families;
pub mod render;
pub mod scc;

pub use csr::CsrDigraph;
pub use graph::{
    agents_in, full_mask, in_masks_are_rooted, spanning_tree, AgentSet, Digraph, DigraphError,
    Edges,
};
pub use senders::{RoundTopology, SenderIter, SenderSet, WordSet};

/// An agent identifier, `0 ≤ agent < n`.
///
/// The paper names agents `1..n`; this crate is 0-based throughout.
pub type Agent = usize;

/// Maximum number of agents supported by [`Digraph`] (bitmask width).
pub const MAX_AGENTS: usize = 64;
