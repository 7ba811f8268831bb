//! Conservative shortest-path row invalidation after graph faults.
//!
//! After a batch of edge removals / weight inflations, most Dijkstra rows of
//! the pre-fault metric are still exact on the mutated graph: a removed or
//! inflated edge can only change `d(s, ·)` if it was **tight** from `s` —
//! i.e. it lay on some shortest path out of `s` — and symmetrically for
//! reverse rows. [`RowInvalidation::analyze`] marks exactly those rows,
//! reading four *old*-metric rows per fault (the forward and reverse rows of
//! the two endpoints), so post-fault repair and verification recompute only
//! the touched slice of the metric instead of all `2n` rows.
//!
//! The tightness test is an over-approximation (a tight edge with an
//! equal-weight alternative path marks the row dirty even though the
//! distance survives), which is the safe direction: a clean row is
//! **guaranteed** bit-identical on the mutated graph. The analysis is only
//! sound for faults that never shrink a distance — edge removals and weight
//! increases. Node outages and weight decreases must use
//! [`RowInvalidation::all_dirty`]; [`RowInvalidation::for_application`]
//! dispatches automatically from a
//! [`FaultApplication`](rtr_graph::FaultApplication).

use crate::oracle::DistanceOracle;
use rtr_graph::{EdgeFault, FaultApplication, NodeId, INFINITY};

/// Which rows of a pre-fault metric are still exact on the mutated graph.
///
/// Forward row `s` holds `d(s, ·)`; reverse row `t` holds `d(·, t)`. A node
/// is *dirty* when either of its rows is — its roundtrip row (the sum of the
/// two) can no longer be trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowInvalidation {
    dirty_fwd: Vec<bool>,
    dirty_rev: Vec<bool>,
}

impl RowInvalidation {
    /// Marks the rows invalidated by `faults`, reading the **pre-fault**
    /// metric `m` (four endpoint rows per fault; repeated endpoints hit the
    /// oracle's cache).
    ///
    /// Each fault's [`weight`](EdgeFault::weight) must be the edge's
    /// pre-fault weight, and no fault may have decreased a weight — use
    /// [`all_dirty`](Self::all_dirty) for metric-shrinking mutations.
    ///
    /// # Panics
    ///
    /// Panics when a fault records a decreased weight (`new_weight <
    /// weight`), for which tightness analysis is unsound.
    pub fn analyze<O: DistanceOracle + ?Sized>(m: &O, faults: &[EdgeFault]) -> RowInvalidation {
        let n = m.node_count();
        let mut inv = RowInvalidation { dirty_fwd: vec![false; n], dirty_rev: vec![false; n] };
        for fault in faults {
            if let Some(new) = fault.new_weight {
                assert!(
                    new >= fault.weight,
                    "row invalidation is unsound for weight decreases; use all_dirty"
                );
                if new == fault.weight {
                    continue; // a no-op perturbation invalidates nothing
                }
            }
            let (a, b, w) = (fault.from, fault.to, fault.weight);
            // d(s, a) + w == d(s, b)  ⇔  (a, b) tight from s  ⇒  row Fwd(s)
            // may change.  d(s, a) is reverse row of a, indexed at s.
            let rev_a = m.rev_row(a);
            let rev_b = m.rev_row(b);
            for s in 0..n {
                let to_a = rev_a[s];
                if to_a < INFINITY && to_a.checked_add(w) == Some(rev_b[s]) {
                    inv.dirty_fwd[s] = true;
                }
            }
            // w + d(b, t) == d(a, t)  ⇔  (a, b) tight towards t  ⇒  row
            // Rev(t) may change.  d(b, t) is forward row of b, indexed at t.
            let fwd_a = m.row(a);
            let fwd_b = m.row(b);
            for t in 0..n {
                let from_b = fwd_b[t];
                if from_b < INFINITY && from_b.checked_add(w) == Some(fwd_a[t]) {
                    inv.dirty_rev[t] = true;
                }
            }
        }
        inv
    }

    /// Marks the rows invalidated by an applied fault plan: tightness
    /// analysis when every fault was a removal or increase, [`all_dirty`]
    /// (total invalidation) when the application flagged a node outage or a
    /// weight decrease.
    ///
    /// [`all_dirty`]: Self::all_dirty
    pub fn for_application<O: DistanceOracle + ?Sized>(
        m: &O,
        application: &FaultApplication,
    ) -> RowInvalidation {
        if application.all_rows_dirty {
            RowInvalidation::all_dirty(m.node_count())
        } else {
            RowInvalidation::analyze(m, &application.faults)
        }
    }

    /// Total invalidation: every row of an `n`-node metric is dirty.
    pub fn all_dirty(n: usize) -> RowInvalidation {
        RowInvalidation { dirty_fwd: vec![true; n], dirty_rev: vec![true; n] }
    }

    /// No invalidation at all (the identity fault plan).
    pub fn clean(n: usize) -> RowInvalidation {
        RowInvalidation { dirty_fwd: vec![false; n], dirty_rev: vec![false; n] }
    }

    /// Number of nodes of the underlying metric.
    pub fn node_count(&self) -> usize {
        self.dirty_fwd.len()
    }

    /// True when forward row `d(s, ·)` may differ on the mutated graph.
    pub fn is_fwd_dirty(&self, s: NodeId) -> bool {
        self.dirty_fwd[s.index()]
    }

    /// True when reverse row `d(·, t)` may differ on the mutated graph.
    pub fn is_rev_dirty(&self, t: NodeId) -> bool {
        self.dirty_rev[t.index()]
    }

    /// True when either row of `u` is dirty — `u`'s roundtrip row must be
    /// recomputed.
    pub fn is_node_dirty(&self, u: NodeId) -> bool {
        self.dirty_fwd[u.index()] || self.dirty_rev[u.index()]
    }

    /// The dirty nodes, ascending.
    pub fn dirty_nodes(&self) -> Vec<NodeId> {
        (0..self.node_count() as u32).map(NodeId).filter(|&u| self.is_node_dirty(u)).collect()
    }

    /// Number of dirty nodes (either row dirty).
    pub fn dirty_node_count(&self) -> usize {
        (0..self.node_count() as u32).filter(|&u| self.is_node_dirty(NodeId(u))).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CachedSubsetOracle, DistanceMatrix};
    use rtr_graph::generators::strongly_connected_gnp;
    use rtr_graph::{FaultPlan, GraphDelta};

    /// Clean rows really are bit-identical on the mutated graph, across many
    /// seeded removal/inflation plans.
    #[test]
    fn clean_rows_survive_faults_exactly() {
        for seed in 0..12u64 {
            let g0 = strongly_connected_gnp(26, 0.18, seed).unwrap();
            let candidates: Vec<(NodeId, NodeId)> =
                g0.nodes().flat_map(|u| g0.out_edges(u).iter().map(move |e| (u, e.to))).collect();
            let plan = FaultPlan::mixed_from_candidates(&candidates, 5, 3, 4, seed ^ 0xfa);
            let mut g1 = g0.clone();
            let applied = plan.apply(&mut g1);
            if !g1.is_strongly_connected() {
                continue; // removal disconnected the graph; skip this seed
            }
            let m0 = CachedSubsetOracle::new(&g0);
            let inv = RowInvalidation::for_application(&m0, &applied);
            let m1 = DistanceMatrix::build(&g1);
            for u in g0.nodes() {
                if !inv.is_fwd_dirty(u) {
                    assert_eq!(m0.row(u), DistanceOracle::row(&m1, u), "fwd {u} seed {seed}");
                }
                if !inv.is_rev_dirty(u) {
                    assert_eq!(
                        m0.rev_row(u),
                        DistanceOracle::rev_row(&m1, u),
                        "rev {u} seed {seed}"
                    );
                }
            }
        }
    }

    /// Removing a tight edge marks its tail's forward row and its head's
    /// reverse row (at minimum) dirty.
    #[test]
    fn tight_removal_marks_endpoint_rows() {
        let g0 = strongly_connected_gnp(20, 0.2, 3).unwrap();
        // Any edge is tight from its own tail (it is the shortest path
        // candidate d(a, b) <= w; tight iff d(a,b) == w).
        let m0 = CachedSubsetOracle::new(&g0);
        let (a, e) = g0
            .nodes()
            .find_map(|u| {
                g0.out_edges(u).iter().find(|e| m0.distance(u, e.to) == e.weight).map(|e| (u, *e))
            })
            .expect("some edge realises the distance between its endpoints");
        let mut g1 = g0.clone();
        let plan = FaultPlan::new(vec![GraphDelta::RemoveEdge { from: a, to: e.to }], 0);
        let applied = plan.apply(&mut g1);
        let inv = RowInvalidation::for_application(&m0, &applied);
        assert!(inv.is_fwd_dirty(a));
        assert!(inv.is_rev_dirty(e.to));
        assert!(inv.dirty_node_count() >= 2);
    }

    #[test]
    fn node_outage_dirties_everything() {
        let g0 = strongly_connected_gnp(16, 0.25, 9).unwrap();
        let mut g1 = g0.clone();
        let plan = FaultPlan::new(vec![GraphDelta::IsolateNode { node: NodeId(2) }], 0);
        let applied = plan.apply(&mut g1);
        let m0 = CachedSubsetOracle::new(&g0);
        let inv = RowInvalidation::for_application(&m0, &applied);
        assert_eq!(inv.dirty_node_count(), g0.node_count());
    }
}
