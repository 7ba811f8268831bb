//! Graph algorithms: shortest paths, strong connectivity, oracles.

pub mod dijkstra;
pub mod floyd;
pub mod scc;

pub use dijkstra::{dijkstra, dijkstra_reverse, ShortestPathTree};
pub use floyd::floyd_warshall;
pub use scc::strongly_connected_components;
