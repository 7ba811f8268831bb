//! # compact-roundtrip-routing
//!
//! A from-scratch Rust reproduction of
//! *"Compact roundtrip routing with topology-independent node names"*
//! (Arias, Cowen, Laing; PODC 2003 / JCSS 2008): the first name-independent
//! compact roundtrip routing schemes for strongly connected directed graphs,
//! together with every substrate they rely on.
//!
//! This facade crate re-exports the workspace members so that downstream users
//! (and the examples under `examples/`) can depend on a single crate:
//!
//! * [`graph`] — weighted digraphs, generators, shortest paths (`rtr-graph`);
//! * [`metric`] — the roundtrip metric behind the pluggable
//!   [`metric::DistanceOracle`] trait (dense `DistanceMatrix`, on-demand
//!   `LazyDijkstraOracle` with a bounded LRU row cache, memoising
//!   `CachedSubsetOracle`), plus `Init_v` orders (`rtr-metric`);
//! * [`trees`] — in/out/double trees and compact tree routing (`rtr-trees`);
//! * [`cover`] — sparse roundtrip covers and the Theorem 13 hierarchy
//!   (`rtr-cover`);
//! * [`dictionary`] — address blocks, the Lemma 1/4 distribution, name hashing
//!   (`rtr-dictionary`);
//! * [`namedep`] — name-dependent substrates (Lemma 2 / Lemma 5 stand-ins)
//!   (`rtr-namedep`);
//! * [`sim`] — the distributed forwarding simulator (`rtr-sim`);
//! * [`core`] — the paper's schemes: `StretchSix`, `ExStretch`,
//!   `PolynomialStretch`, the lower-bound construction and the evaluation
//!   harness (`rtr-core`);
//! * [`engine`] — the concurrent route-serving plane: frozen scheme
//!   snapshots, seeded workload generators, a shard-owning worker pool and
//!   latency/stretch accounting (`rtr-engine`).
//!
//! ```
//! use compact_roundtrip_routing::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::strongly_connected_gnp(64, 0.1, 7)?;
//! let m = DistanceMatrix::build(&g);
//! let names = NamingAssignment::random(g.node_count(), 1);
//! let scheme = StretchSix::build(&g, &m, &names, ExactOracleScheme::build(&g), Default::default());
//! let sim = Simulator::new(&g);
//! let report = sim.roundtrip_brief(&scheme, NodeId(0), NodeId(9), names.name_of(NodeId(9)))?;
//! assert!(report.within_stretch(&m, 6, 1));
//!
//! // The same pipeline on a large sparse graph: swap the dense matrix for a
//! // lazy oracle and nothing else changes — every consumer is generic over
//! // `DistanceOracle`.
//! let lazy = LazyDijkstraOracle::with_default_capacity(&g);
//! let scheme2 = StretchSix::build(&g, &lazy, &names, ExactOracleScheme::build(&g), Default::default());
//! let report2 = sim.roundtrip_brief(&scheme2, NodeId(0), NodeId(9), names.name_of(NodeId(9)))?;
//! assert_eq!(report2.total_weight(), report.total_weight());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rtr_core as core;
pub use rtr_cover as cover;
pub use rtr_dictionary as dictionary;
pub use rtr_engine as engine;
pub use rtr_graph as graph;
pub use rtr_metric as metric;
pub use rtr_namedep as namedep;
pub use rtr_sim as sim;
pub use rtr_trees as trees;

/// The most commonly used items, for `use compact_roundtrip_routing::prelude::*`.
pub mod prelude {
    pub use rtr_core::analysis::{PairSelection, SchemeEvaluation};
    pub use rtr_core::naming::NamingAssignment;
    pub use rtr_core::{
        ExStretch, ExStretchParams, PolyParams, PolynomialStretch, SchemeSuite, SparseSchemeSuite,
        SparseSuiteParams, Stretch6Params, StretchSix,
    };
    pub use rtr_dictionary::NodeName;
    pub use rtr_engine::{
        Engine, EngineConfig, FrozenPlane, Request, ServeSummary, ShardMap, ShardedPlane,
        StretchBound, VerifiedReport, VerifiedShardedServe, VerifyConfig, VerifyMode, Workload,
    };
    pub use rtr_graph::{generators, DiGraph, DiGraphBuilder, NodeId};
    pub use rtr_metric::{
        CachedSubsetOracle, DistanceMatrix, DistanceOracle, LazyDijkstraOracle, RoundtripOrder,
    };
    pub use rtr_namedep::{
        ExactOracleScheme, LandmarkBallScheme, NameDependentSubstrate, TreeCoverScheme,
    };
    pub use rtr_sim::{RoundtripRouting, SimError, Simulator};
}
