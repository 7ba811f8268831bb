//! # rtr-dictionary — the distributed dictionary of the TINN schemes
//!
//! Topology-independent node names carry no routing information, so the
//! paper's schemes pair every routing structure with a *distributed
//! dictionary*: the address space `{0, …, n−1}` is cut into **blocks**, blocks
//! are assigned to nodes in a balanced way, and every neighborhood is
//! guaranteed to contain a holder of every block type (Lemma 1 for the √n
//! scheme, Lemma 4 for the general prefix-matching schemes).
//!
//! This crate implements:
//!
//! * [`AddressSpace`] — base-`n^{1/k}` digit strings `⟨u⟩`, the prefix
//!   operators `σ^i` as integer codes (`σ^i(⟨u⟩)` is `⌊u / q^{k−i}⌋`), and
//!   the block decomposition `B_α` of §3.1;
//! * [`BlockDistribution`] — the randomized block assignment of Lemma 1 /
//!   Lemma 4 (probabilistic method plus a deterministic repair pass, so the
//!   coverage property always holds while the per-node block count stays
//!   `O(log n)` with high probability);
//! * [`naming`] — the §1.1.2 reduction from arbitrary (adversarially chosen
//!   but unique) node names to the `{0, …, n−1}` model via universal hashing,
//!   with collision buckets and the measured constant blow-up of experiment
//!   E11;
//! * [`NodeName`] — the topology-independent name type, kept deliberately
//!   distinct from `rtr_graph::NodeId` (the topological index) so that code
//!   cannot accidentally "cheat" by treating a name as topology information.
//!
//! In the end-to-end pipeline (see the architecture diagram in the top-level
//! `README.md`) this crate is a mid-pipeline substrate: its blocks give the
//! schemes name-independence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod blocks;
mod digits;
pub mod naming;

pub use blocks::{BlockDistribution, DistributionParams};
pub use digits::{AddressSpace, BlockId, NodeName};
