//! [`FrozenPlane`]: a read-only, shard-friendly snapshot of a built scheme.

use rtr_dictionary::NodeName;
use rtr_graph::{DiGraph, NodeId};
use rtr_sim::{RoundtripRouting, Simulator};
use std::sync::Arc;

/// A frozen serving plane: one built [`RoundtripRouting`] scheme, the graph
/// it routes on, and the TINN name of every node, all behind `Arc` snapshots.
///
/// Everything inside is immutable after construction, so a plane can be
/// handed to any number of worker threads (or cloned into shards — cloning
/// copies three `Arc`s, never the tables) and served without locks: the
/// scheme's forwarding function takes `&self`, the graph's port resolution
/// takes `&self`, and the names are a plain slice.  Per-query state lives
/// entirely in the packet header owned by the serving worker.
#[derive(Debug)]
pub struct FrozenPlane<S> {
    graph: Arc<DiGraph>,
    scheme: Arc<S>,
    names: Arc<Vec<NodeName>>,
}

impl<S> Clone for FrozenPlane<S> {
    fn clone(&self) -> Self {
        FrozenPlane {
            graph: Arc::clone(&self.graph),
            scheme: Arc::clone(&self.scheme),
            names: Arc::clone(&self.names),
        }
    }
}

impl<S: RoundtripRouting> FrozenPlane<S> {
    /// Freezes `scheme` over `graph` with the given per-node TINN names
    /// (`names[v.index()]` is the name of `v`;
    /// `rtr_core::naming::NamingAssignment::to_names` produces this vector).
    ///
    /// # Panics
    ///
    /// Panics if `names` does not assign exactly one name per node.
    pub fn freeze(graph: Arc<DiGraph>, scheme: S, names: Arc<Vec<NodeName>>) -> Self {
        assert_eq!(names.len(), graph.node_count(), "one TINN name per node required");
        FrozenPlane { graph, scheme: Arc::new(scheme), names }
    }

    /// Replaces the plane's graph with a mutated snapshot, keeping the
    /// frozen scheme and names — the chaos plane's **degraded serving**
    /// entry point: the pre-fault scheme keeps serving over the faulted
    /// graph, and every route that tries to cross a removed link surfaces as
    /// a routing error the tolerant epoch serve
    /// ([`crate::Engine::serve_epoch_sharded`]) counts per pair.
    ///
    /// # Panics
    ///
    /// Panics if the node count changed — faults mutate links and weights,
    /// never the node space.
    #[must_use]
    pub fn with_graph(mut self, graph: Arc<DiGraph>) -> Self {
        assert_eq!(
            graph.node_count(),
            self.graph.node_count(),
            "a degraded plane must keep the node space"
        );
        self.graph = graph;
        self
    }

    /// The underlying graph.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The frozen scheme.
    pub fn scheme(&self) -> &S {
        &self.scheme
    }

    /// The scheme's reported name.
    pub fn scheme_name(&self) -> &'static str {
        self.scheme.scheme_name()
    }

    /// Number of nodes of the plane.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// The TINN name of node `v`.
    pub fn name_of(&self, v: NodeId) -> NodeName {
        self.names[v.index()]
    }

    /// A simulator over this plane's graph.  Workers create one each; the
    /// simulator itself only borrows the graph.
    pub fn simulator(&self) -> Simulator<'_> {
        Simulator::new(&self.graph)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rtr_graph::generators::directed_ring;
    use rtr_sim::{ForwardAction, HeaderBits, RoutingError, TableStats};

    /// Minimal ring scheme used across the engine's unit tests.
    #[derive(Debug)]
    pub(crate) struct RingScheme {
        ports: Vec<rtr_graph::Port>,
        n: usize,
    }

    #[derive(Debug, Clone)]
    pub(crate) struct RingHeader {
        remaining: usize,
        origin: NodeId,
        target_index: usize,
    }

    impl HeaderBits for RingHeader {
        fn bits(&self) -> usize {
            64
        }
    }

    impl RingScheme {
        pub(crate) fn new(g: &DiGraph) -> Self {
            let ports = g.nodes().map(|v| g.out_edges(v)[0].port).collect();
            RingScheme { ports, n: g.node_count() }
        }
    }

    impl RoundtripRouting for RingScheme {
        type Header = RingHeader;

        fn scheme_name(&self) -> &'static str {
            "test-ring"
        }

        fn new_packet(&self, src: NodeId, dst: NodeName) -> Result<RingHeader, RoutingError> {
            let target_index = dst.index();
            let remaining = (target_index + self.n - src.index()) % self.n;
            Ok(RingHeader { remaining, origin: src, target_index })
        }

        fn make_return(&self, _at: NodeId, h: &RingHeader) -> Result<RingHeader, RoutingError> {
            let remaining = (h.origin.index() + self.n - h.target_index) % self.n;
            Ok(RingHeader { remaining, ..h.clone() })
        }

        fn forward(&self, at: NodeId, h: &mut RingHeader) -> Result<ForwardAction, RoutingError> {
            if h.remaining == 0 {
                Ok(ForwardAction::Deliver)
            } else {
                h.remaining -= 1;
                Ok(ForwardAction::Forward(self.ports[at.index()]))
            }
        }

        fn table_stats(&self, _v: NodeId) -> TableStats {
            TableStats { entries: 1, bits: 32 }
        }
    }

    pub(crate) fn ring_plane(n: usize) -> FrozenPlane<RingScheme> {
        let g = Arc::new(directed_ring(n, 1).unwrap());
        let scheme = RingScheme::new(&g);
        let names = Arc::new((0..n as u32).map(NodeName).collect::<Vec<_>>());
        FrozenPlane::freeze(g, scheme, names)
    }

    #[test]
    fn freeze_and_clone_share_tables() {
        let plane = ring_plane(8);
        let shard = plane.clone();
        assert_eq!(plane.node_count(), 8);
        assert_eq!(shard.name_of(NodeId(3)), NodeName(3));
        assert!(std::ptr::eq(plane.graph(), shard.graph()));
        assert!(std::ptr::eq(plane.scheme(), shard.scheme()));
    }

    #[test]
    fn simulator_serves_roundtrips() {
        let plane = ring_plane(6);
        let sim = plane.simulator();
        let brief =
            sim.roundtrip_brief(plane.scheme(), NodeId(1), NodeId(4), plane.name_of(NodeId(4)));
        let brief = brief.unwrap();
        assert_eq!(brief.outbound.delivered_at, NodeId(4));
        assert_eq!(brief.inbound.delivered_at, NodeId(1));
        assert_eq!(brief.total_hops(), 6);
    }

    #[test]
    #[should_panic(expected = "one TINN name per node")]
    fn freeze_rejects_name_count_mismatch() {
        let g = Arc::new(directed_ring(5, 1).unwrap());
        let scheme = RingScheme::new(&g);
        FrozenPlane::freeze(g, scheme, Arc::new(vec![NodeName(0)]));
    }
}
