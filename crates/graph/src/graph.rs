//! The [`DiGraph`] structure and its builder.

use crate::error::GraphError;
use crate::types::{NodeId, Port, Weight};
use crate::Result;
use std::collections::HashSet;
use std::fmt;

/// A directed edge as stored in the graph's adjacency lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Head (target) of the edge.
    pub to: NodeId,
    /// Strictly positive weight.
    pub weight: Weight,
    /// Fixed-port label of this edge at its tail node (paper §1.1.3).
    pub port: Port,
}

/// How out-edge port numbers are assigned when the builder finalizes a graph.
///
/// In the fixed-port model the port labels are adversarial; the routing
/// schemes must work for *any* assignment. The builder therefore supports
/// several assignments so that tests can exercise more than the convenient
/// consecutive numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortAssignment {
    /// Ports `0, 1, 2, …` in insertion order (the "friendly" assignment).
    Consecutive,
    /// A seeded pseudo-random injection into `0..4n` — the adversarial
    /// assignment used by default in the experiments.
    Scrambled {
        /// Seed of the deterministic scramble.
        seed: u64,
    },
}

impl Default for PortAssignment {
    fn default() -> Self {
        PortAssignment::Scrambled { seed: 0x5eed_c0de }
    }
}

/// A strongly typed, positively weighted directed multigraph-free graph in the
/// fixed-port model.
///
/// The representation is a per-node `Vec<Edge>` (forward adjacency) plus a
/// per-node reverse adjacency of `(source, weight)` pairs used by reverse
/// Dijkstra. Nodes are `0..n`. The structure is immutable after construction;
/// use [`DiGraphBuilder`] to create one.
#[derive(Debug, Clone)]
pub struct DiGraph {
    out_edges: Vec<Vec<Edge>>,
    in_edges: Vec<Vec<(NodeId, Weight)>>,
    edge_count: usize,
    max_weight: Weight,
    min_weight: Weight,
}

impl DiGraph {
    /// Number of nodes `n`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.out_edges.len()
    }

    /// Number of directed edges `m`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Largest edge weight `W` (1 if the graph has no edges).
    #[inline]
    pub fn max_weight(&self) -> Weight {
        self.max_weight
    }

    /// Smallest edge weight (1 if the graph has no edges).
    #[inline]
    pub fn min_weight(&self) -> Weight {
        self.min_weight
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Out-edges of `v` in port order of insertion.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> &[Edge] {
        &self.out_edges[v.index()]
    }

    /// In-edges of `v` as `(source, weight)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> &[(NodeId, Weight)] {
        &self.in_edges[v.index()]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_edges[v.index()].len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_edges[v.index()].len()
    }

    /// The edge from `u` to `v`, if present.
    pub fn edge(&self, u: NodeId, v: NodeId) -> Option<&Edge> {
        self.out_edges[u.index()].iter().find(|e| e.to == v)
    }

    /// The weight of edge `(u, v)`, if present.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        self.edge(u, v).map(|e| e.weight)
    }

    /// Resolves an outgoing port at node `u` to the edge it labels.
    ///
    /// This is the only lookup a node may perform when *forwarding* a packet:
    /// routing tables store ports, and the simulator resolves them through
    /// this method.
    pub fn edge_by_port(&self, u: NodeId, port: Port) -> Option<&Edge> {
        self.out_edges[u.index()].iter().find(|e| e.port == port)
    }

    /// The port labelling edge `(u, v)`, if the edge exists.
    pub fn port_of_edge(&self, u: NodeId, v: NodeId) -> Option<Port> {
        self.edge(u, v).map(|e| e.port)
    }

    /// True when the graph is strongly connected (paper §1.1: all schemes
    /// require strong connectivity).
    pub fn is_strongly_connected(&self) -> bool {
        crate::algo::scc::strongly_connected_components(self).len() == 1
    }

    /// Returns an error unless the graph is strongly connected.
    ///
    /// # Errors
    ///
    /// [`GraphError::NotStronglyConnected`] with the number of components.
    pub fn require_strongly_connected(&self) -> Result<()> {
        let comps = crate::algo::scc::strongly_connected_components(self).len();
        if comps == 1 {
            Ok(())
        } else {
            Err(GraphError::NotStronglyConnected { components: comps })
        }
    }

    /// The transpose graph (every edge reversed, ports re-assigned
    /// consecutively on the reversed edges).
    pub fn transpose(&self) -> DiGraph {
        let n = self.node_count();
        let mut builder = DiGraphBuilder::new(n);
        builder.port_assignment(PortAssignment::Consecutive);
        for u in self.nodes() {
            for e in self.out_edges(u) {
                builder.add_edge(e.to, u, e.weight).expect("transposing a valid graph cannot fail");
            }
        }
        builder.build().expect("transposing a valid graph cannot fail")
    }

    /// Total weight of all edges (useful sanity statistic).
    pub fn total_weight(&self) -> u128 {
        self.out_edges.iter().flat_map(|es| es.iter()).map(|e| e.weight as u128).sum()
    }
}

impl fmt::Display for DiGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DiGraph(n={}, m={}, W=[{}, {}])",
            self.node_count(),
            self.edge_count(),
            self.min_weight(),
            self.max_weight()
        )
    }
}

/// Incremental builder for [`DiGraph`].
///
/// ```
/// use rtr_graph::{DiGraphBuilder, NodeId, PortAssignment};
/// # fn main() -> Result<(), rtr_graph::GraphError> {
/// let mut b = DiGraphBuilder::new(2);
/// b.port_assignment(PortAssignment::Consecutive);
/// b.add_edge(NodeId(0), NodeId(1), 1)?;
/// b.add_edge(NodeId(1), NodeId(0), 1)?;
/// let g = b.build()?;
/// assert_eq!(g.out_degree(NodeId(0)), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DiGraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId, Weight)>,
    /// Std SipHash, not [`crate::hash`]: the edges may come from a graph file.
    seen: HashSet<(u32, u32)>,
    ports: PortAssignment,
}

impl DiGraphBuilder {
    /// Creates a builder for a graph on `n` nodes (ids `0..n`).
    pub fn new(n: usize) -> Self {
        DiGraphBuilder {
            n,
            edges: Vec::new(),
            seen: HashSet::new(),
            ports: PortAssignment::default(),
        }
    }

    /// Chooses how ports are assigned when [`build`](Self::build) runs.
    pub fn port_assignment(&mut self, ports: PortAssignment) -> &mut Self {
        self.ports = ports;
        self
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether edge `(u, v)` has already been added.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.seen.contains(&(u.0, v.0))
    }

    /// Adds a directed edge `(from, to)` of the given weight.
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfRange`] if either endpoint is `>= n`.
    /// * [`GraphError::SelfLoop`] if `from == to`.
    /// * [`GraphError::ZeroWeight`] if `weight == 0`.
    /// * [`GraphError::DuplicateEdge`] if the directed pair was added before.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, weight: Weight) -> Result<&mut Self> {
        if from.index() >= self.n {
            return Err(GraphError::NodeOutOfRange { node: from, n: self.n });
        }
        if to.index() >= self.n {
            return Err(GraphError::NodeOutOfRange { node: to, n: self.n });
        }
        if from == to {
            return Err(GraphError::SelfLoop { node: from });
        }
        if weight == 0 {
            return Err(GraphError::ZeroWeight { from, to });
        }
        if !self.seen.insert((from.0, to.0)) {
            return Err(GraphError::DuplicateEdge { from, to });
        }
        self.edges.push((from, to, weight));
        Ok(self)
    }

    /// Adds the pair of edges `(u, v)` and `(v, u)` with the same weight,
    /// producing a "bidirected" connection (used by grids, rings and the §5
    /// lower-bound graphs where `d(u,v) = d(v,u)`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`add_edge`](Self::add_edge) for either direction.
    pub fn add_bidirected(&mut self, u: NodeId, v: NodeId, weight: Weight) -> Result<&mut Self> {
        self.add_edge(u, v, weight)?;
        self.add_edge(v, u, weight)?;
        Ok(self)
    }

    /// Finalizes the graph, assigning ports according to the configured
    /// [`PortAssignment`].
    ///
    /// # Errors
    ///
    /// [`GraphError::EmptyGraph`] if `n == 0`.
    pub fn build(&self) -> Result<DiGraph> {
        if self.n == 0 {
            return Err(GraphError::EmptyGraph);
        }
        let mut out_edges: Vec<Vec<Edge>> = vec![Vec::new(); self.n];
        let mut in_edges: Vec<Vec<(NodeId, Weight)>> = vec![Vec::new(); self.n];
        let mut max_weight: Weight = 1;
        let mut min_weight: Weight = Weight::MAX;

        for &(from, to, weight) in &self.edges {
            out_edges[from.index()].push(Edge { to, weight, port: Port(0) });
            in_edges[to.index()].push((from, weight));
            max_weight = max_weight.max(weight);
            min_weight = min_weight.min(weight);
        }
        if self.edges.is_empty() {
            min_weight = 1;
        }

        // Assign ports per node.
        for (u, edges) in out_edges.iter_mut().enumerate() {
            match self.ports {
                PortAssignment::Consecutive => {
                    for (i, e) in edges.iter_mut().enumerate() {
                        e.port = Port(i as u32);
                    }
                }
                PortAssignment::Scrambled { seed } => {
                    // Deterministic per-node injection into a range of size
                    // 4 * max(deg, 1) using a splitmix-style hash, with linear
                    // probing to resolve collisions. This stays within the
                    // paper's "port names from a set of size O(n)" model while
                    // being reproducible.
                    let deg = edges.len().max(1) as u64;
                    let space = 4 * deg.max(4);
                    // Std SipHash, not `crate::hash`: the edges may come from a graph file.
                    let mut used: HashSet<u32> = HashSet::with_capacity(edges.len());
                    for (i, e) in edges.iter_mut().enumerate() {
                        let mut h = seed
                            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u as u64 + 1))
                            .wrapping_add((i as u64 + 1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
                        h ^= h >> 30;
                        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
                        h ^= h >> 27;
                        let mut p = (h % space) as u32;
                        while !used.insert(p) {
                            p = (p + 1) % space as u32;
                        }
                        e.port = Port(p);
                    }
                }
            }
        }

        let g =
            DiGraph { out_edges, in_edges, edge_count: self.edges.len(), max_weight, min_weight };
        g.validate_ports()?;
        Ok(g)
    }
}

impl DiGraph {
    /// Removes the directed edge `(from, to)` in place, returning the removed
    /// edge record (including its port label) or `None` when no such edge
    /// exists.
    ///
    /// All surviving edges keep their port labels, so routing tables built
    /// before the removal still resolve — a table entry naming the removed
    /// port simply stops resolving, which is exactly how a link failure
    /// manifests in the fixed-port model. Weight bounds are recomputed, so
    /// this is `O(m)` per call; fault injection applies batches of a few
    /// hundred, where that is irrelevant.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn remove_edge(&mut self, from: NodeId, to: NodeId) -> Option<Edge> {
        let out = &mut self.out_edges[from.index()];
        let at = out.iter().position(|e| e.to == to)?;
        let removed = out.remove(at);
        let ins = &mut self.in_edges[to.index()];
        let in_at = ins
            .iter()
            .position(|&(s, _)| s == from)
            .expect("in-edge list out of sync with out-edge list");
        ins.remove(in_at);
        self.edge_count -= 1;
        self.recompute_weight_bounds();
        Some(removed)
    }

    /// Sets the weight of edge `(from, to)` in place, returning the previous
    /// weight, or `None` when the edge does not exist. The port label is
    /// preserved. Weight bounds are recomputed (`O(m)`).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range, or if `weight == 0`
    /// (weights are strictly positive by construction).
    pub fn set_edge_weight(&mut self, from: NodeId, to: NodeId, weight: Weight) -> Option<Weight> {
        assert!(weight > 0, "edge weights are strictly positive");
        let edge = self.out_edges[from.index()].iter_mut().find(|e| e.to == to)?;
        let old = edge.weight;
        edge.weight = weight;
        let entry = self.in_edges[to.index()]
            .iter_mut()
            .find(|&&mut (s, _)| s == from)
            .expect("in-edge list out of sync with out-edge list");
        entry.1 = weight;
        self.recompute_weight_bounds();
        Some(old)
    }

    /// Removes every edge incident to `node` (both directions), returning the
    /// removed `(from, to, weight)` records. The node itself remains (ids are
    /// dense), it just becomes isolated — which breaks strong connectivity,
    /// so callers modelling a node outage must treat the whole metric as
    /// invalidated.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn isolate_node(&mut self, node: NodeId) -> Vec<(NodeId, NodeId, Weight)> {
        let mut removed = Vec::new();
        let outs: Vec<NodeId> = self.out_edges[node.index()].iter().map(|e| e.to).collect();
        for to in outs {
            if let Some(e) = self.remove_edge(node, to) {
                removed.push((node, to, e.weight));
            }
        }
        let ins: Vec<NodeId> = self.in_edges[node.index()].iter().map(|&(s, _)| s).collect();
        for from in ins {
            if let Some(e) = self.remove_edge(from, node) {
                removed.push((from, node, e.weight));
            }
        }
        removed
    }

    /// Re-derives `max_weight` / `min_weight` after an in-place mutation.
    fn recompute_weight_bounds(&mut self) {
        let mut max_weight: Weight = 1;
        let mut min_weight: Weight = Weight::MAX;
        for es in &self.out_edges {
            for e in es {
                max_weight = max_weight.max(e.weight);
                min_weight = min_weight.min(e.weight);
            }
        }
        if self.edge_count == 0 {
            min_weight = 1;
        }
        self.max_weight = max_weight;
        self.min_weight = min_weight;
    }

    /// Verifies that port labels are unique per node.
    fn validate_ports(&self) -> Result<()> {
        for u in self.nodes() {
            let mut seen = HashSet::new();
            for e in self.out_edges(u) {
                if !seen.insert(e.port.0) {
                    return Err(GraphError::DuplicatePort { node: u, port: e.port.0 });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> DiGraph {
        let mut b = DiGraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 2).unwrap();
        b.add_edge(NodeId(2), NodeId(0), 3).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builds_triangle() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.max_weight(), 3);
        assert_eq!(g.min_weight(), 1);
        assert!(g.is_strongly_connected());
    }

    #[test]
    fn rejects_zero_weight() {
        let mut b = DiGraphBuilder::new(2);
        let err = b.add_edge(NodeId(0), NodeId(1), 0).unwrap_err();
        assert_eq!(err, GraphError::ZeroWeight { from: NodeId(0), to: NodeId(1) });
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = DiGraphBuilder::new(2);
        let err = b.add_edge(NodeId(1), NodeId(1), 1).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { node: NodeId(1) });
    }

    #[test]
    fn rejects_duplicate_edge() {
        let mut b = DiGraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        let err = b.add_edge(NodeId(0), NodeId(1), 5).unwrap_err();
        assert_eq!(err, GraphError::DuplicateEdge { from: NodeId(0), to: NodeId(1) });
    }

    #[test]
    fn rejects_out_of_range() {
        let mut b = DiGraphBuilder::new(2);
        let err = b.add_edge(NodeId(0), NodeId(7), 1).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { .. }));
    }

    #[test]
    fn rejects_empty_graph() {
        let b = DiGraphBuilder::new(0);
        assert_eq!(b.build().unwrap_err(), GraphError::EmptyGraph);
    }

    #[test]
    fn edge_lookup_and_ports() {
        let g = triangle();
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), Some(1));
        assert_eq!(g.edge_weight(NodeId(1), NodeId(0)), None);
        let p = g.port_of_edge(NodeId(0), NodeId(1)).unwrap();
        let e = g.edge_by_port(NodeId(0), p).unwrap();
        assert_eq!(e.to, NodeId(1));
    }

    #[test]
    fn ports_are_unique_per_node_with_scrambled_assignment() {
        let mut b = DiGraphBuilder::new(50);
        b.port_assignment(PortAssignment::Scrambled { seed: 7 });
        for i in 0..50u32 {
            for j in 0..50u32 {
                if i != j && (i + j) % 3 == 0 {
                    b.add_edge(NodeId(i), NodeId(j), 1 + (i + j) as u64).unwrap();
                }
            }
        }
        let g = b.build().unwrap();
        for u in g.nodes() {
            let mut ports: Vec<u32> = g.out_edges(u).iter().map(|e| e.port.0).collect();
            let len_before = ports.len();
            ports.sort_unstable();
            ports.dedup();
            assert_eq!(ports.len(), len_before, "duplicate port at {u}");
        }
    }

    #[test]
    fn scrambled_ports_are_not_consecutive_in_general() {
        let mut b = DiGraphBuilder::new(20);
        b.port_assignment(PortAssignment::Scrambled { seed: 99 });
        for i in 0..20u32 {
            for j in 0..20u32 {
                if i != j {
                    b.add_edge(NodeId(i), NodeId(j), 1).unwrap();
                }
            }
        }
        let g = b.build().unwrap();
        let consecutive_everywhere = g.nodes().all(|u| {
            let mut ports: Vec<u32> = g.out_edges(u).iter().map(|e| e.port.0).collect();
            ports.sort_unstable();
            ports.iter().enumerate().all(|(i, &p)| p == i as u32)
        });
        assert!(!consecutive_everywhere, "adversarial port assignment looks consecutive");
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = triangle();
        let t = g.transpose();
        assert_eq!(t.edge_weight(NodeId(1), NodeId(0)), Some(1));
        assert_eq!(t.edge_weight(NodeId(0), NodeId(2)), Some(3));
        assert_eq!(t.edge_count(), g.edge_count());
    }

    #[test]
    fn in_edges_mirror_out_edges() {
        let g = triangle();
        assert_eq!(g.in_degree(NodeId(0)), 1);
        assert_eq!(g.in_edges(NodeId(0))[0], (NodeId(2), 3));
        assert_eq!(g.out_degree(NodeId(0)), 1);
    }

    #[test]
    fn bidirected_helper_adds_both_directions() {
        let mut b = DiGraphBuilder::new(2);
        b.add_bidirected(NodeId(0), NodeId(1), 4).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), Some(4));
        assert_eq!(g.edge_weight(NodeId(1), NodeId(0)), Some(4));
    }

    #[test]
    fn display_shows_counts() {
        let g = triangle();
        let s = g.to_string();
        assert!(s.contains("n=3"));
        assert!(s.contains("m=3"));
    }

    #[test]
    fn remove_edge_preserves_surviving_ports() {
        let mut g = triangle();
        let kept_port = g.port_of_edge(NodeId(1), NodeId(2)).unwrap();
        let removed = g.remove_edge(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(removed.to, NodeId(1));
        assert_eq!(removed.weight, 1);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), None);
        assert_eq!(g.in_degree(NodeId(1)), 0);
        assert_eq!(g.port_of_edge(NodeId(1), NodeId(2)), Some(kept_port));
        assert_eq!(g.min_weight(), 2);
        assert!(g.remove_edge(NodeId(0), NodeId(1)).is_none());
    }

    #[test]
    fn set_edge_weight_updates_both_adjacencies() {
        let mut g = triangle();
        let port = g.port_of_edge(NodeId(2), NodeId(0)).unwrap();
        assert_eq!(g.set_edge_weight(NodeId(2), NodeId(0), 9), Some(3));
        assert_eq!(g.edge_weight(NodeId(2), NodeId(0)), Some(9));
        assert_eq!(g.in_edges(NodeId(0))[0], (NodeId(2), 9));
        assert_eq!(g.port_of_edge(NodeId(2), NodeId(0)), Some(port));
        assert_eq!(g.max_weight(), 9);
        assert_eq!(g.set_edge_weight(NodeId(0), NodeId(2), 5), None);
    }

    #[test]
    fn isolate_node_removes_all_incident_edges() {
        let mut g = triangle();
        let removed = g.isolate_node(NodeId(1));
        assert_eq!(removed.len(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.out_degree(NodeId(1)), 0);
        assert_eq!(g.in_degree(NodeId(1)), 0);
        assert!(!g.is_strongly_connected());
    }
}
