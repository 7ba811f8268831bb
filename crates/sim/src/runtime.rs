//! The hop-by-hop packet simulator.

use crate::report::{BriefRoundtrip, BriefTrace};
use crate::traits::{ForwardAction, HeaderBits, RoundtripRouting, RoutingError};
use rtr_dictionary::NodeName;
use rtr_graph::{DiGraph, NodeId, Port};
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

    /// Runs a complete roundtrip request: a new packet from `src` addressed to
    /// the TINN name `dst_name`, followed by the acknowledgment back to `src`.
    ///
    /// `dst` is the topological node that `dst_name` refers to; the simulator
    /// uses it only to *verify* correct delivery — it is never given to the
    /// scheme.  No node sequence is recorded, so nothing is allocated per
    /// trip, and the call takes `&self` and `&S` and touches no interior
    /// state: the concurrent serving plane (`rtr-engine`) drives it from many
    /// worker threads at once for any `S: Sync` scheme.
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
        let outbound = self.leg(scheme, src, &mut header)?;
        if outbound.delivered_at != dst {
            return Err(SimError::WrongDelivery {
                delivered_at: outbound.delivered_at,
                expected: dst,
            });
        }
        let mut return_header = scheme.make_return(dst, &header)?;
        let inbound = self.leg(scheme, dst, &mut return_header)?;
        if inbound.delivered_at != src {
            return Err(SimError::WrongDelivery {
                delivered_at: inbound.delivered_at,
                expected: src,
            });
        }
        Ok(BriefRoundtrip { source: src, destination: dst, outbound, inbound })
    }

    /// One leg of a roundtrip: inject `header` at `start` and forward hop by
    /// hop, resolving ports and enforcing the TTL, until the scheme delivers.
    /// The header is rewritten in place.
    fn leg<S: RoundtripRouting>(
        &self,
        scheme: &S,
        start: NodeId,
        header: &mut S::Header,
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
                }
            }
        }
        Err(SimError::TtlExceeded { hops: self.max_hops })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::TableStats;
    use rtr_graph::generators::directed_ring;

    /// A deliberately tiny scheme used to test the runtime itself: it routes
    /// around a directed ring by always taking the single outgoing edge, and
    /// counts down a hop budget written in the header.  A nonzero
    /// `return_skew` lengthens the return leg by that many hops.
    #[derive(Debug)]
    struct RingScheme {
        ports: Vec<Port>,
        n: usize,
        return_skew: usize,
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
            RingScheme { ports, n: g.node_count(), return_skew: 0 }
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
            let remaining =
                (header.origin.index() + self.n - header.target_index + self.return_skew) % self.n;
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
        let report = sim.roundtrip_brief(&scheme, NodeId(2), NodeId(5), NodeName(5)).unwrap();
        assert_eq!(report.outbound.delivered_at, NodeId(5));
        assert_eq!(report.inbound.delivered_at, NodeId(2));
        assert_eq!(report.outbound.hops, 3);
        assert_eq!(report.inbound.hops, 5);
        assert_eq!(report.outbound.max_header_bits, 64);
        assert_eq!(report.max_header_bits(), 65);
        let cycle: u64 = g.nodes().map(|u| g.out_edges(u)[0].weight).sum();
        assert_eq!(report.total_weight(), cycle);
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
        // The outbound leg arrives, but the return leg overshoots its origin.
        let g = directed_ring(6, 2).unwrap();
        let scheme = RingScheme { return_skew: 1, ..RingScheme::new(&g) };
        let sim = Simulator::new(&g);
        let err = sim.roundtrip_brief(&scheme, NodeId(0), NodeId(4), NodeName(4)).unwrap_err();
        assert!(matches!(err, SimError::WrongDelivery { delivered_at, expected }
            if delivered_at == NodeId(1) && expected == NodeId(0)));
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
        let err = sim.roundtrip_brief(&scheme, NodeId(0), NodeId(2), NodeName(2)).unwrap_err();
        assert!(matches!(err, SimError::TtlExceeded { .. } | SimError::PortNotFound { .. }));
    }

    #[test]
    fn zero_hop_roundtrip_when_src_is_adjacent_name() {
        let g = directed_ring(4, 5).unwrap();
        let scheme = RingScheme::new(&g);
        let sim = Simulator::new(&g);
        // Destination equal to source: both legs deliver immediately.
        let report = sim.roundtrip_brief(&scheme, NodeId(1), NodeId(1), NodeName(1)).unwrap();
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
