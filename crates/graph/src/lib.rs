//! # rtr-graph — weighted directed graph substrate
//!
//! This crate provides the graph model used throughout the
//! *compact roundtrip routing* reproduction (Arias, Cowen, Laing, PODC 2003):
//! strongly connected, positively weighted directed graphs in the **fixed-port
//! model** — every node names its outgoing edges with arbitrary, adversarially
//! chosen port numbers that carry no global meaning (paper §1.1.3).
//!
//! The crate contains:
//!
//! * [`DiGraph`] — a compact adjacency representation with per-edge ports and
//!   integer weights, plus [`DiGraphBuilder`] for incremental construction.
//! * [`algo`] — Dijkstra (forward and reverse), Tarjan strongly connected
//!   components, and a Floyd–Warshall oracle used by tests.
//! * [`generators`] — seeded generators for the graph families used in the
//!   experiments (strongly connected *G(n,p)*, bidirected grids and tori,
//!   rings, complete graphs, layered digraphs with back edges, preferential
//!   attachment, random geometric digraphs, and the bidirected graphs used by
//!   the §5 lower bound).
//! * [`json`] — the workspace's one JSON value, parser and writer.
//! * [`hash`] — the one deterministic hasher for tables keyed by the
//!   program's own ids ([`hash::FxHashMap`], [`hash::FxHashSet`]).
//!
//! Weights are unsigned integers (`u64`). The paper assumes positive real
//! weights; integer weights keep every distance computation exact, which lets
//! the test-suite assert the paper's stretch bounds as *hard* inequalities
//! instead of floating-point approximations. Arbitrary precision is recovered
//! by scaling.
//!
//! ```
//! use rtr_graph::{DiGraphBuilder, NodeId};
//!
//! # fn main() -> Result<(), rtr_graph::GraphError> {
//! let mut b = DiGraphBuilder::new(3);
//! b.add_edge(NodeId(0), NodeId(1), 2)?;
//! b.add_edge(NodeId(1), NodeId(2), 3)?;
//! b.add_edge(NodeId(2), NodeId(0), 4)?;
//! let g = b.build()?;
//! assert!(g.is_strongly_connected());
//! assert_eq!(g.edge_count(), 3);
//! # Ok(())
//! # }
//! ```
//!
//! In the end-to-end pipeline (see the architecture diagram in the top-level
//! `README.md`) this crate is the first stage: it feeds the roundtrip metric
//! in `rtr-metric`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod algo;
pub mod chaos;
mod error;
pub mod generators;
mod graph;
pub mod hash;
pub mod json;
pub mod par;
pub mod types;

pub use chaos::{EdgeFault, FaultApplication, FaultPlan, GraphDelta};
pub use error::GraphError;
pub use graph::{DiGraph, DiGraphBuilder, Edge, PortAssignment};
pub use types::{Distance, NodeId, Port, Weight, INFINITY};

/// Crate-wide result alias.
pub type Result<T, E = GraphError> = std::result::Result<T, E>;
