//! # rtr-core — compact roundtrip routing with topology-independent node names
//!
//! The primary contribution of Arias, Cowen and Laing (PODC 2003): the first
//! *name-independent* compact roundtrip routing schemes for strongly connected
//! directed graphs. Three schemes are implemented, each as a
//! [`rtr_sim::RoundtripRouting`] so that the distributed simulator can drive
//! them hop by hop using only local tables and writable packet headers:
//!
//! * [`StretchSix`] (§2, Fig. 3) — Õ(√n) tables, `O(log² n)` headers,
//!   stretch 6;
//! * [`ExStretch`] (§3, Figs. 4/6) — Õ(n^{1/k}) tables, prefix-matching
//!   waypoints, stretch `(2^k − 1) · β` where `β` is the roundtrip stretch of
//!   the underlying name-dependent substrate (the paper's `2k + ε`);
//! * [`PolynomialStretch`] (§4, Figs. 9/11) — hierarchical double-tree covers,
//!   Õ(k²n^{2/k} log RTDiam) tables, stretch `8k² + 4k − 4` relative to the
//!   cover's height guarantee.
//!
//! Supporting modules:
//!
//! * [`naming`] — the adversarial TINN name assignment (a seeded permutation
//!   of `{0, …, n−1}` plus worst-case-style permutations for tests);
//! * [`lowerbound`] — the §5 construction: bidirected networks on which any
//!   TINN roundtrip scheme with `o(n)` tables must have stretch ≥ 2;
//! * [`analysis`] — evaluation harness shared by the experiments: run
//!   all-pairs (or sampled) roundtrips, collect stretch distributions, table
//!   and header sizes.
//!
//! ```no_run
//! use rtr_core::{naming::NamingAssignment, StretchSix, Stretch6Params};
//! use rtr_graph::generators::strongly_connected_gnp;
//! use rtr_metric::DistanceMatrix;
//! use rtr_namedep::ExactOracleScheme;
//! use rtr_sim::Simulator;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = strongly_connected_gnp(256, 0.03, 7)?;
//! let m = DistanceMatrix::build(&g);
//! let names = NamingAssignment::random(g.node_count(), 42);
//! let substrate = ExactOracleScheme::build(&g);
//! let scheme = StretchSix::build(&g, &m, &names, substrate, Stretch6Params::default());
//! let sim = Simulator::new(&g);
//! let (s, t) = (rtr_graph::NodeId(3), rtr_graph::NodeId(200));
//! let report = sim.roundtrip_brief(&scheme, s, t, names.name_of(t))?;
//! assert!(report.within_stretch(&m, 6, 1));
//! # Ok(())
//! # }
//! ```
//!
//! In the end-to-end pipeline (see the architecture diagram in the top-level
//! `README.md`) this crate is the scheme layer: its built schemes are frozen
//! into `rtr-engine` planes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
mod exstretch;
pub mod lowerbound;
pub mod naming;
mod polystretch;
mod repair;
mod stretch6;
mod suite;

pub use exstretch::{ExStretch, ExStretchParams};
pub use polystretch::{PolyParams, PolynomialStretch};
pub use repair::{RepairStats, SparseRepairKit};
pub use stretch6::{Stretch6Params, StretchSix};
pub use suite::{SchemeSuite, SparseSchemeSuite, SparseSuiteParams};
