//! The exact-oracle substrate: per-node next hops toward every destination.

use crate::substrate::{LabelBits, NameDependentSubstrate};
use rtr_graph::algo::dijkstra::dijkstra_reverse;
use rtr_graph::{DiGraph, NodeId, Port};
use rtr_sim::{id_bits, ForwardAction, RoutingError, TableStats};

/// The label of the exact-oracle substrate: just the destination node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleLabel {
    /// The destination node.
    pub target: NodeId,
    bits: usize,
}

impl LabelBits for OracleLabel {
    fn bits(&self) -> usize {
        self.bits
    }
}

/// A name-dependent substrate whose routes are exact shortest paths.
///
/// Every node stores, for every destination, the out-port of its first edge on
/// a shortest path to that destination — Θ(n) entries per node, so this is the
/// **non-compact reference substrate**. Its purpose is to satisfy the
/// inequality Lemma 2 requires, `p(u,v) ≤ r(u,v) + d(u,v)`, with exact
/// equality `p(u,v) = d(u,v)`, so the TINN layer's stretch bounds can be
/// verified as hard inequalities independently of any substrate slack.
#[derive(Debug)]
pub struct ExactOracleScheme {
    n: usize,
    /// `next_port[target][node]`: port at `node` toward `target`
    /// (`None` when `node == target`).
    next_port: Vec<Vec<Option<Port>>>,
}

impl ExactOracleScheme {
    /// Builds the oracle with one reverse Dijkstra per destination.
    ///
    /// # Panics
    ///
    /// Panics if the graph is not strongly connected.
    pub fn build(g: &DiGraph) -> Self {
        g.require_strongly_connected().unwrap_or_else(|e| panic!("ExactOracleScheme::build: {e}"));
        let n = g.node_count();
        let mut next_port = Vec::with_capacity(n);
        for t in g.nodes() {
            let tree = dijkstra_reverse(g, t);
            let ports: Vec<Option<Port>> = g.nodes().map(|v| tree.parent_port[v.index()]).collect();
            next_port.push(ports);
        }
        ExactOracleScheme { n, next_port }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }
}

impl NameDependentSubstrate for ExactOracleScheme {
    type Label = OracleLabel;

    fn substrate_name(&self) -> &'static str {
        "exact-oracle"
    }

    fn label_for(&self, v: NodeId) -> OracleLabel {
        OracleLabel { target: v, bits: id_bits(self.n) }
    }

    fn step(&self, at: NodeId, label: &mut OracleLabel) -> Result<ForwardAction, RoutingError> {
        if at == label.target {
            return Ok(ForwardAction::Deliver);
        }
        match self.next_port[label.target.index()][at.index()] {
            Some(port) => Ok(ForwardAction::Forward(port)),
            None => Err(RoutingError::new(at, format!("no next hop toward {}", label.target))),
        }
    }

    fn table_stats(&self, _v: NodeId) -> TableStats {
        // One port per destination.
        TableStats { entries: self.n - 1, bits: (self.n - 1) * 2 * id_bits(self.n) }
    }

    fn max_label_bits(&self) -> usize {
        id_bits(self.n)
    }

    fn guaranteed_roundtrip_stretch(&self) -> Option<f64> {
        Some(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::harness::drive;
    use rtr_graph::generators::{strongly_connected_gnp, Family};
    use rtr_metric::DistanceMatrix;

    #[test]
    fn routes_are_exact_shortest_paths() {
        let g = strongly_connected_gnp(40, 0.1, 3).unwrap();
        let m = DistanceMatrix::build(&g);
        let oracle = ExactOracleScheme::build(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                let (path, weight) = drive(&g, &oracle, u, oracle.label_for(v));
                assert_eq!(*path.last().unwrap(), v);
                assert_eq!(weight, m.distance(u, v), "oracle path ({u},{v}) not shortest");
            }
        }
    }

    #[test]
    fn roundtrip_equals_roundtrip_distance() {
        let g = strongly_connected_gnp(25, 0.15, 9).unwrap();
        let m = DistanceMatrix::build(&g);
        let oracle = ExactOracleScheme::build(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                if u == v {
                    continue;
                }
                let (_, out) = drive(&g, &oracle, u, oracle.pair_label(u, v));
                let (_, back) = drive(&g, &oracle, v, oracle.pair_label(v, u));
                assert_eq!(out + back, m.roundtrip(u, v));
            }
        }
    }

    #[test]
    fn works_across_families() {
        for family in Family::ALL {
            let g = family.generate(30, 5).unwrap();
            let m = DistanceMatrix::build(&g);
            let oracle = ExactOracleScheme::build(&g);
            let u = NodeId(0);
            for v in g.nodes() {
                let (_, w) = drive(&g, &oracle, u, oracle.label_for(v));
                assert_eq!(w, m.distance(u, v), "{}", family.name());
            }
        }
    }

    #[test]
    fn table_stats_reflect_theta_n_entries() {
        let g = strongly_connected_gnp(50, 0.1, 1).unwrap();
        let oracle = ExactOracleScheme::build(&g);
        let stats = oracle.table_stats(NodeId(0));
        assert_eq!(stats.entries, 49);
        assert!(oracle.guaranteed_roundtrip_stretch() == Some(1.0));
        assert!(oracle.max_label_bits() <= 16);
    }

    #[test]
    #[should_panic(expected = "not strongly connected")]
    fn rejects_disconnected_graphs() {
        let mut b = rtr_graph::DiGraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        b.add_edge(NodeId(1), NodeId(0), 1).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 1).unwrap();
        let g = b.build().unwrap();
        ExactOracleScheme::build(&g);
    }
}
