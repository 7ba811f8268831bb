//! The common interface of name-dependent routing substrates.

use rtr_graph::NodeId;
use rtr_sim::{ForwardAction, RoutingError, TableStats};
use std::fmt;

/// Labels must report their size in bits (same accounting convention as
/// packet headers).
pub trait LabelBits {
    /// Size of the label in bits.
    fn bits(&self) -> usize;
}

/// A name-dependent (topology-dependent) roundtrip routing substrate.
///
/// A substrate assigns every node a **label** (topology-dependent address) and
/// every node a **local table**; given a label, any node can make a purely
/// local forwarding decision that eventually delivers the packet to the
/// label's owner. The TINN schemes store these labels in their distributed
/// dictionary and copy them into packet headers — they never interpret them.
///
/// Two flavours of label exist, mirroring the paper:
///
/// * [`label_for`](Self::label_for) — a *globally valid* label (`R3(v)`
///   style): routes to `v` from any source.
/// * [`pair_label`](Self::pair_label) — a label optimized for one ordered
///   pair (`R2(u, v)` handshake style): valid when routing starts at `u`,
///   usually shorter/cheaper than the global label. The default forwards to
///   the global label.
///
/// A scheme dictionary entry stores both directions of one handshake;
/// [`pair_labels`](Self::pair_labels) mints the two together, so a
/// substrate whose handshake is symmetric can serve both from one search.
pub trait NameDependentSubstrate: fmt::Debug {
    /// The label type (also carries any per-leg working state the forwarding
    /// writes while the packet travels; labels live in packet headers, which
    /// are writable in the TINN model).
    type Label: Clone + fmt::Debug + LabelBits;

    /// Short stable name used in reports.
    fn substrate_name(&self) -> &'static str;

    /// A label sufficient to route to `v` from any node.
    fn label_for(&self, v: NodeId) -> Self::Label;

    /// A label sufficient to route from `from` to `to` (and typically cheaper
    /// than the global label). The default is the global label of `to`.
    fn pair_label(&self, from: NodeId, to: NodeId) -> Self::Label {
        let _ = from;
        self.label_for(to)
    }

    /// Both labels of one handshake: `(pair_label(u, v), pair_label(v, u))`,
    /// which is the default. A substrate overrides it when one computation
    /// yields both directions.
    fn pair_labels(&self, u: NodeId, v: NodeId) -> (Self::Label, Self::Label) {
        (self.pair_label(u, v), self.pair_label(v, u))
    }

    /// The local forwarding decision at node `at` for a packet carrying
    /// `label`. May rewrite the label's working state.
    ///
    /// # Errors
    ///
    /// Only on violated invariants (corrupted label or table); correct builds
    /// never fail.
    fn step(&self, at: NodeId, label: &mut Self::Label) -> Result<ForwardAction, RoutingError>;

    /// Table-size accounting for node `v`.
    fn table_stats(&self, v: NodeId) -> TableStats;

    /// Size in bits of the largest label the substrate ever hands out.
    fn max_label_bits(&self) -> usize;

    /// A proven upper bound on the roundtrip stretch of the substrate (route
    /// `u → v` with `pair_label(u, v)` plus `v → u` with `pair_label(v, u)`,
    /// divided by `r(u, v)`), or `None` when the substrate only offers a
    /// measured (not proven) guarantee.
    fn guaranteed_roundtrip_stretch(&self) -> Option<f64>;
}

#[cfg(test)]
pub(crate) mod harness {
    //! A tiny local-only driver used by the substrate tests: repeatedly calls
    //! `step` and resolves ports against the graph, mirroring what
    //! `rtr-sim` does for full schemes.

    use super::*;
    use rtr_graph::{DiGraph, Distance};

    /// Routes from `src` toward `label`, returning the traversed node sequence
    /// and its total weight.
    pub(crate) fn drive<S: NameDependentSubstrate>(
        g: &DiGraph,
        s: &S,
        src: NodeId,
        mut label: S::Label,
    ) -> (Vec<NodeId>, Distance) {
        let mut at = src;
        let mut nodes = vec![at];
        let mut weight = 0;
        for _ in 0..8 * g.node_count() + 16 {
            match s.step(at, &mut label).expect("substrate step failed") {
                ForwardAction::Deliver => return (nodes, weight),
                ForwardAction::Forward(port) => {
                    let e = g.edge_by_port(at, port).expect("port must resolve");
                    weight += e.weight;
                    at = e.to;
                    nodes.push(at);
                }
            }
        }
        panic!("substrate routing did not terminate from {src}");
    }
}
