//! Trip records with exact stretch accounting.

use rtr_graph::{Distance, NodeId};
use rtr_metric::DistanceOracle;

/// The record of one packet's one-way trip through the network.
///
/// The node sequence is not recorded: the concurrent route-serving plane
/// (`rtr-engine`) runs millions of roundtrips per second and must not
/// allocate a `Vec<NodeId>` per trip just to read its length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BriefTrace {
    /// Number of edges traversed.
    pub hops: usize,
    /// Total weight of the traversed edges.
    pub weight: Distance,
    /// The largest header size (in bits) observed at any point of the trip.
    pub max_header_bits: usize,
    /// The node that delivered the packet to its host.
    pub delivered_at: NodeId,
}

/// The two trips of one roundtrip request `(s → t, t → s)` plus derived
/// accounting, as [`crate::Simulator::roundtrip_brief`] returns them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BriefRoundtrip {
    /// Source node `s`.
    pub source: NodeId,
    /// Destination node `t`.
    pub destination: NodeId,
    /// The outbound trip `s → t`.
    pub outbound: BriefTrace,
    /// The return trip `t → s`.
    pub inbound: BriefTrace,
}

impl BriefRoundtrip {
    /// Total weight of the roundtrip route actually taken.
    pub fn total_weight(&self) -> Distance {
        self.outbound.weight + self.inbound.weight
    }

    /// Total number of hops of the roundtrip.
    pub fn total_hops(&self) -> usize {
        self.outbound.hops + self.inbound.hops
    }

    /// The largest header written at any point of either trip.
    pub fn max_header_bits(&self) -> usize {
        self.outbound.max_header_bits.max(self.inbound.max_header_bits)
    }

    /// The roundtrip stretch of this request: total weight divided by
    /// `r(s, t)`.
    ///
    /// # Panics
    ///
    /// Panics if `s == t` or the pair is unreachable in `m`.
    pub fn stretch<O: DistanceOracle + ?Sized>(&self, m: &O) -> f64 {
        m.roundtrip_stretch(self.source, self.destination, self.total_weight())
    }

    /// Exact integer check that the roundtrip is within `num/den · r(s, t)`.
    pub fn within_stretch<O: DistanceOracle + ?Sized>(&self, m: &O, num: u64, den: u64) -> bool {
        m.within_stretch(self.source, self.destination, self.total_weight(), num, den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(hops: usize, weight: Distance, bits: usize, delivered_at: u32) -> BriefTrace {
        BriefTrace { hops, weight, max_header_bits: bits, delivered_at: NodeId(delivered_at) }
    }

    #[test]
    fn report_totals() {
        let r = BriefRoundtrip {
            source: NodeId(0),
            destination: NodeId(5),
            outbound: trace(2, 9, 64, 5),
            inbound: trace(1, 4, 96, 0),
        };
        assert_eq!(r.total_weight(), 13);
        assert_eq!(r.total_hops(), 3);
        assert_eq!(r.max_header_bits(), 96);
    }

    #[test]
    fn stretch_against_matrix() {
        use rtr_graph::generators::directed_ring;
        use rtr_metric::DistanceMatrix;
        let g = directed_ring(4, 0).unwrap();
        let m = DistanceMatrix::build(&g);
        let r = m.roundtrip(NodeId(0), NodeId(1));
        let report = BriefRoundtrip {
            source: NodeId(0),
            destination: NodeId(1),
            outbound: trace(1, r / 2, 8, 1),
            inbound: trace(3, r - r / 2, 8, 0),
        };
        assert!((report.stretch(&m) - 1.0).abs() < 1e-12);
        assert!(report.within_stretch(&m, 1, 1));
        assert!(report.within_stretch(&m, 6, 1));
    }
}
