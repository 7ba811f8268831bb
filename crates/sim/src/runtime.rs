//! The hop-by-hop packet simulator.

use crate::report::{BriefRoundtrip, BriefTrace, RoundtripReport, Trace};
use crate::traits::{ForwardAction, HeaderBits, RoundtripRouting, RoutingError};
use rtr_dictionary::NodeName;
use rtr_graph::{DiGraph, Distance, NodeId, Port};
use std::error::Error;
use std::fmt;

/// Errors the runtime can report for a single packet.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The forwarding function named a port that does not exist at the node.
    PortNotFound {
        /// Node whose table produced the bad port.
        at: NodeId,
        /// The port that failed to resolve.
        port: Port,
    },
    /// The hop budget was exhausted (the scheme looped or wandered).
    TtlExceeded {
        /// Hops taken before giving up.
        hops: usize,
    },
    /// The packet was delivered at a node other than the expected one.
    WrongDelivery {
        /// Where it was delivered.
        delivered_at: NodeId,
        /// Where it should have been delivered.
        expected: NodeId,
    },
    /// The scheme's forwarding function reported an internal error.
    Scheme(RoutingError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::PortNotFound { at, port } => {
                write!(f, "port {port} does not exist at node {at}")
            }
            SimError::TtlExceeded { hops } => {
                write!(f, "packet exceeded hop budget after {hops} hops")
            }
            SimError::WrongDelivery { delivered_at, expected } => {
                write!(f, "packet delivered at {delivered_at}, expected {expected}")
            }
            SimError::Scheme(e) => write!(f, "{e}"),
        }
    }
}

impl Error for SimError {}

impl From<RoutingError> for SimError {
    fn from(value: RoutingError) -> Self {
        SimError::Scheme(value)
    }
}

/// Drives packets through a graph under a [`RoundtripRouting`] scheme.
#[derive(Debug)]
pub struct Simulator<'g> {
    graph: &'g DiGraph,
    /// Maximum hops a single (one-way) trip may take before the run is
    /// declared non-terminating: `8·n + 64`, far beyond what any correct
    /// scheme needs.
    max_hops: usize,
}

impl<'g> Simulator<'g> {
    /// A simulator for `graph`.
    pub fn new(graph: &'g DiGraph) -> Self {
        Simulator { graph, max_hops: 8 * graph.node_count() + 64 }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &DiGraph {
        self.graph
    }

    /// The shared hop loop behind [`run_trip`](Self::run_trip) and
    /// [`run_trip_brief`](Self::run_trip_brief): forward hop by hop, resolve
    /// ports, enforce the TTL, and report each visited node
    /// to `on_hop`. Keeping both entry points on one loop guarantees the
    /// brief path is behaviorally identical to the tracing path.
    fn drive_trip<S: RoundtripRouting>(
        &self,
        scheme: &S,
        start: NodeId,
        header: &mut S::Header,
        mut on_hop: impl FnMut(NodeId),
    ) -> Result<BriefTrace, SimError> {
        let mut hops = 0usize;
        let mut weight = 0u64;
        let mut max_header_bits = header.bits();
        let mut at = start;
        for _ in 0..=self.max_hops {
            match scheme.forward(at, header)? {
                ForwardAction::Deliver => {
                    max_header_bits = max_header_bits.max(header.bits());
                    return Ok(BriefTrace { hops, weight, max_header_bits, delivered_at: at });
                }
                ForwardAction::Forward(port) => {
                    max_header_bits = max_header_bits.max(header.bits());
                    let edge = self
                        .graph
                        .edge_by_port(at, port)
                        .ok_or(SimError::PortNotFound { at, port })?;
                    weight += edge.weight;
                    at = edge.to;
                    hops += 1;
                    on_hop(at);
                }
            }
        }
        Err(SimError::TtlExceeded { hops: self.max_hops })
    }

    /// Runs a single one-way trip: inject `header` at `start` and forward hop
    /// by hop until the scheme delivers.
    ///
    /// # Errors
    ///
    /// Any [`SimError`] raised by the run (bad port, TTL, scheme error).
    pub fn run_trip<S: RoundtripRouting>(
        &self,
        scheme: &S,
        start: NodeId,
        mut header: S::Header,
    ) -> Result<(Trace, S::Header), SimError> {
        let mut nodes = vec![start];
        let brief = self.drive_trip(scheme, start, &mut header, |v| nodes.push(v))?;
        Ok((Trace { nodes, weight: brief.weight, max_header_bits: brief.max_header_bits }, header))
    }

    /// The allocation-free variant of [`run_trip`](Self::run_trip): same hop
    /// loop, same accounting, but no node sequence is recorded, so nothing is
    /// allocated per trip. The header is rewritten in place.
    ///
    /// This is the `&`-only forwarding entry point the concurrent serving
    /// plane (`rtr-engine`) drives from many worker threads at once: it takes
    /// `&self` and `&S`, touches no interior state, and is safe to call
    /// concurrently for any `S: Sync` scheme.
    ///
    /// # Errors
    ///
    /// Any [`SimError`] raised by the run.
    pub fn run_trip_brief<S: RoundtripRouting>(
        &self,
        scheme: &S,
        start: NodeId,
        header: &mut S::Header,
    ) -> Result<BriefTrace, SimError> {
        self.drive_trip(scheme, start, header, |_| {})
    }

    /// The allocation-free variant of [`roundtrip`](Self::roundtrip): runs
    /// both legs through [`run_trip_brief`](Self::run_trip_brief) with the
    /// same delivery verification, returning compact per-leg accounting
    /// instead of full traces.
    ///
    /// # Errors
    ///
    /// Any [`SimError`], including [`SimError::WrongDelivery`] when either leg
    /// ends at an unexpected node.
    pub fn roundtrip_brief<S: RoundtripRouting>(
        &self,
        scheme: &S,
        src: NodeId,
        dst: NodeId,
        dst_name: NodeName,
    ) -> Result<BriefRoundtrip, SimError> {
        let mut header = scheme.new_packet(src, dst_name)?;
        let outbound = self.run_trip_brief(scheme, src, &mut header)?;
        if outbound.delivered_at != dst {
            return Err(SimError::WrongDelivery {
                delivered_at: outbound.delivered_at,
                expected: dst,
            });
        }
        let mut return_header = scheme.make_return(dst, &header)?;
        let inbound = self.run_trip_brief(scheme, dst, &mut return_header)?;
        if inbound.delivered_at != src {
            return Err(SimError::WrongDelivery {
                delivered_at: inbound.delivered_at,
                expected: src,
            });
        }
        Ok(BriefRoundtrip { source: src, destination: dst, outbound, inbound })
    }

    /// The cost-only roundtrip entry point: runs both legs through the
    /// allocation-free brief path (same delivery verification) and returns
    /// just the total traversed weight.
    ///
    /// This is the trip-cost path the verification plane (`rtr-engine`'s
    /// full-stream verifier and its sequential replay reference) compares
    /// against exact roundtrip distances — kept here so the verifier measures
    /// through exactly the loop that serves.
    ///
    /// # Errors
    ///
    /// Any [`SimError`], including [`SimError::WrongDelivery`] when either leg
    /// ends at an unexpected node.
    pub fn roundtrip_cost<S: RoundtripRouting>(
        &self,
        scheme: &S,
        src: NodeId,
        dst: NodeId,
        dst_name: NodeName,
    ) -> Result<Distance, SimError> {
        Ok(self.roundtrip_brief(scheme, src, dst, dst_name)?.total_weight())
    }

    /// Runs a complete roundtrip request: a new packet from `src` addressed to
    /// the TINN name `dst_name`, followed by the acknowledgment back to `src`.
    ///
    /// `dst` is the topological node that `dst_name` refers to; the simulator
    /// uses it only to *verify* correct delivery — it is never given to the
    /// scheme.
    ///
    /// # Errors
    ///
    /// Any [`SimError`], including [`SimError::WrongDelivery`] when either leg
    /// ends at an unexpected node.
    pub fn roundtrip<S: RoundtripRouting>(
        &self,
        scheme: &S,
        src: NodeId,
        dst: NodeId,
        dst_name: NodeName,
    ) -> Result<RoundtripReport, SimError> {
        let header = scheme.new_packet(src, dst_name)?;
        let (outbound, delivered_header) = self.run_trip(scheme, src, header)?;
        if outbound.delivered_at() != dst {
            return Err(SimError::WrongDelivery {
                delivered_at: outbound.delivered_at(),
                expected: dst,
            });
        }
        let return_header = scheme.make_return(dst, &delivered_header)?;
        let (inbound, _) = self.run_trip(scheme, dst, return_header)?;
        if inbound.delivered_at() != src {
            return Err(SimError::WrongDelivery {
                delivered_at: inbound.delivered_at(),
                expected: src,
            });
        }
        Ok(RoundtripReport { source: src, destination: dst, outbound, inbound })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::TableStats;
    use rtr_graph::generators::directed_ring;

    /// A deliberately tiny scheme used to test the runtime itself: it routes
    /// around a directed ring by always taking the single outgoing edge, and
    /// counts down a hop budget written in the header.
    #[derive(Debug)]
    struct RingScheme {
        ports: Vec<Port>,
        n: usize,
    }

    #[derive(Debug, Clone)]
    struct RingHeader {
        remaining: usize,
        returning: bool,
        origin: NodeId,
        target_index: usize,
    }

    impl HeaderBits for RingHeader {
        fn bits(&self) -> usize {
            // Count the mode flag so headers grow on the return leg, giving
            // the max-header accounting something to observe.
            64 + usize::from(self.returning)
        }
    }

    impl RingScheme {
        fn new(g: &DiGraph) -> Self {
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
            // In this toy scheme names equal indices.
            let target_index = dst.index();
            let remaining = (target_index + self.n - src.index()) % self.n;
            Ok(RingHeader { remaining, returning: false, origin: src, target_index })
        }

        fn make_return(
            &self,
            _at: NodeId,
            header: &RingHeader,
        ) -> Result<RingHeader, RoutingError> {
            let remaining = (header.origin.index() + self.n - header.target_index) % self.n;
            Ok(RingHeader { remaining, returning: true, ..header.clone() })
        }

        fn forward(
            &self,
            at: NodeId,
            header: &mut RingHeader,
        ) -> Result<ForwardAction, RoutingError> {
            if header.remaining == 0 {
                Ok(ForwardAction::Deliver)
            } else {
                header.remaining -= 1;
                Ok(ForwardAction::Forward(self.ports[at.index()]))
            }
        }

        fn table_stats(&self, _v: NodeId) -> TableStats {
            TableStats { entries: 1, bits: 32 }
        }
    }

    #[test]
    fn roundtrip_on_ring_delivers_and_accounts_weight() {
        let g = directed_ring(8, 1).unwrap();
        let scheme = RingScheme::new(&g);
        let sim = Simulator::new(&g);
        let report = sim.roundtrip(&scheme, NodeId(2), NodeId(5), NodeName(5)).unwrap();
        assert_eq!(report.outbound.delivered_at(), NodeId(5));
        assert_eq!(report.inbound.delivered_at(), NodeId(2));
        assert_eq!(report.outbound.hops(), 3);
        assert_eq!(report.inbound.hops(), 5);
        let cycle: u64 = g.nodes().map(|u| g.out_edges(u)[0].weight).sum();
        assert_eq!(report.total_weight(), cycle);
    }

    #[test]
    fn brief_roundtrip_agrees_with_full_roundtrip() {
        let g = directed_ring(8, 1).unwrap();
        let scheme = RingScheme::new(&g);
        let sim = Simulator::new(&g);
        for s in g.nodes() {
            for t in g.nodes() {
                let full = sim.roundtrip(&scheme, s, t, NodeName(t.0)).unwrap();
                let brief = sim.roundtrip_brief(&scheme, s, t, NodeName(t.0)).unwrap();
                assert!(brief.agrees_with(&full), "({s},{t}) brief/full disagreement");
            }
        }
    }

    #[test]
    fn roundtrip_cost_matches_the_full_report() {
        let g = directed_ring(8, 1).unwrap();
        let scheme = RingScheme::new(&g);
        let sim = Simulator::new(&g);
        for s in g.nodes() {
            for t in g.nodes() {
                let full = sim.roundtrip(&scheme, s, t, NodeName(t.0)).unwrap();
                let cost = sim.roundtrip_cost(&scheme, s, t, NodeName(t.0)).unwrap();
                assert_eq!(cost, full.total_weight(), "({s},{t})");
            }
        }
        assert!(sim.roundtrip_cost(&scheme, NodeId(0), NodeId(4), NodeName(3)).is_err());
    }

    #[test]
    fn brief_roundtrip_detects_wrong_delivery() {
        let g = directed_ring(6, 2).unwrap();
        let scheme = RingScheme::new(&g);
        let sim = Simulator::new(&g);
        let err = sim.roundtrip_brief(&scheme, NodeId(0), NodeId(4), NodeName(3)).unwrap_err();
        assert!(matches!(err, SimError::WrongDelivery { delivered_at, expected }
            if delivered_at == NodeId(3) && expected == NodeId(4)));
    }

    #[test]
    fn wrong_delivery_is_detected() {
        let g = directed_ring(6, 2).unwrap();
        let scheme = RingScheme::new(&g);
        let sim = Simulator::new(&g);
        // Lie about which node the name refers to.
        let err = sim.roundtrip(&scheme, NodeId(0), NodeId(4), NodeName(3)).unwrap_err();
        assert!(matches!(err, SimError::WrongDelivery { delivered_at, expected }
            if delivered_at == NodeId(3) && expected == NodeId(4)));
    }

    #[test]
    fn ttl_catches_non_terminating_schemes() {
        #[derive(Debug)]
        struct LoopScheme {
            port: Port,
        }
        #[derive(Debug, Clone)]
        struct Nothing;
        impl HeaderBits for Nothing {
            fn bits(&self) -> usize {
                1
            }
        }
        impl RoundtripRouting for LoopScheme {
            type Header = Nothing;
            fn scheme_name(&self) -> &'static str {
                "loop"
            }
            fn new_packet(&self, _src: NodeId, _dst: NodeName) -> Result<Nothing, RoutingError> {
                Ok(Nothing)
            }
            fn make_return(&self, _at: NodeId, _h: &Nothing) -> Result<Nothing, RoutingError> {
                Ok(Nothing)
            }
            fn forward(
                &self,
                _at: NodeId,
                _h: &mut Nothing,
            ) -> Result<ForwardAction, RoutingError> {
                Ok(ForwardAction::Forward(self.port))
            }
            fn table_stats(&self, _v: NodeId) -> TableStats {
                TableStats::default()
            }
        }
        let g = directed_ring(4, 3).unwrap();
        let scheme = LoopScheme { port: g.out_edges(NodeId(0))[0].port };
        // All nodes in a ring generated with the same seed scramble have
        // different ports in general, so restrict the loop to consistent ports
        // by using a complete self-consistent config: just run on node 0's
        // port and expect either PortNotFound (at some node) or TtlExceeded.
        let sim = Simulator::new(&g);
        let err = sim.roundtrip(&scheme, NodeId(0), NodeId(2), NodeName(2)).unwrap_err();
        assert!(matches!(err, SimError::TtlExceeded { .. } | SimError::PortNotFound { .. }));
    }

    #[test]
    fn zero_hop_roundtrip_when_src_is_adjacent_name() {
        let g = directed_ring(4, 5).unwrap();
        let scheme = RingScheme::new(&g);
        let sim = Simulator::new(&g);
        // Destination equal to source: both legs deliver immediately.
        let report = sim.roundtrip(&scheme, NodeId(1), NodeId(1), NodeName(1)).unwrap();
        assert_eq!(report.total_hops(), 0);
        assert_eq!(report.total_weight(), 0);
    }

    #[test]
    fn error_messages_are_informative() {
        let e = SimError::PortNotFound { at: NodeId(3), port: Port(9) };
        assert!(e.to_string().contains("p9"));
        let e = SimError::TtlExceeded { hops: 77 };
        assert!(e.to_string().contains("77"));
    }
}
