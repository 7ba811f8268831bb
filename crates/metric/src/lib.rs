//! # rtr-metric — the roundtrip distance metric and its derived structures
//!
//! Implements the metric machinery of paper §1.1 and §2:
//!
//! * the **roundtrip distance** `r(u, v) = d(u, v) + d(v, u)` — the minimum
//!   cost of a directed tour from `u` through `v` and back (symmetric by
//!   definition even though the underlying one-way distances are not);
//! * the [`DistanceOracle`] trait — pluggable access to the metric, with
//!   three implementations: the dense [`DistanceMatrix`] (`n²` memory, `O(1)`
//!   queries), the on-demand [`LazyDijkstraOracle`] (bounded LRU row cache
//!   for large sparse graphs), and the memoising [`CachedSubsetOracle`]
//!   (keeps exactly the rows a construction touches). Every consumer in the
//!   workspace — orders, covers, substrates, schemes — is generic over this
//!   trait;
//! * the **total order** `≺_v` on nodes (`Init_v`): `u ≺_v w` iff
//!   `r(v,u) < r(v,w)`, ties broken by `d(u,v)` and then by node id — this is
//!   the exact three-level comparison of §2;
//! * **neighborhood balls** `N_i(u)`: the first `n^{i/k}` nodes of `Init_u`,
//!   including prefix-truncated orders ([`RoundtripOrder::build_truncated`])
//!   so that schemes needing only `Õ(√n)`-sized neighborhoods never hold an
//!   `n²` structure;
//! * the **broadcast row sweep** ([`broadcast_rows`]): one prefetched pass
//!   over the oracle's forward/reverse rows of a list of sources, fanned out
//!   to any number of registered [`RowSweepConsumer`]s — how the scheme
//!   suite builds its orders, landmark balls and cover balls from a single
//!   pass instead of one sweep per structure, and how a post-fault repair
//!   recomputes only the dirty nodes' share of them;
//! * the roundtrip aggregates `RTDiam`, `RTRad`, `RTCenter` on clusters
//!   (induced subgraphs, [`ClusterMetric`]), needed by the §4 cover
//!   construction.
//!
//! ```
//! use rtr_graph::generators::strongly_connected_gnp;
//! use rtr_metric::{DistanceMatrix, DistanceOracle, LazyDijkstraOracle};
//!
//! # fn main() -> Result<(), rtr_graph::GraphError> {
//! let g = strongly_connected_gnp(32, 0.2, 7)?;
//! let dense = DistanceMatrix::build(&g);
//! let lazy = LazyDijkstraOracle::with_default_capacity(&g);
//! let (u, v) = (rtr_graph::NodeId(0), rtr_graph::NodeId(5));
//! assert_eq!(dense.roundtrip(u, v), dense.distance(u, v) + dense.distance(v, u));
//! assert_eq!(lazy.roundtrip(u, v), dense.roundtrip(u, v));
//! # Ok(())
//! # }
//! ```
//!
//! In the end-to-end pipeline (see the architecture diagram in the top-level
//! `README.md`) this crate is stage two: its oracle rows feed every
//! row-granular construction downstream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cluster;
mod invalidation;
mod matrix;
mod oracle;
mod order;
mod sweep;

pub use cluster::ClusterMetric;
pub use invalidation::RowInvalidation;
pub use matrix::DistanceMatrix;
pub use oracle::{
    roundtrip_rows_sharded, sweep_rows_prefetched, CachedSubsetOracle, DistanceOracle,
    LazyDijkstraOracle, OracleStats, RoundtripRow, PREFETCH_WINDOW,
};
pub use order::{roundtrip_closer, RoundtripOrder, TruncatedOrderSweep};
pub use sweep::{broadcast_rows, RowSweepConsumer, SweepRows, SweepSlots};
