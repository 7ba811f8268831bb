//! The total order `≺_v` and the neighborhood balls `N_i(u)` of paper §2/§3.

use crate::oracle::DistanceOracle;
use crate::sweep::{broadcast_rows, RowSweepConsumer, SweepRows, SweepSlots};
use rtr_graph::{Distance, NodeId};
use std::cmp::Ordering;

/// Compares `a` and `b` from the point of view of `v` by the paper's
/// three-level rule (§2):
///
/// 1. smaller roundtrip distance `r(v, ·)` first,
/// 2. ties broken by smaller `d(·, v)` (distance *to* `v`),
/// 3. remaining ties broken by node id.
///
/// The result is a strict total order for every fixed `v`.
pub fn roundtrip_closer<O: DistanceOracle + ?Sized>(
    m: &O,
    v: NodeId,
    a: NodeId,
    b: NodeId,
) -> Ordering {
    let key = |x: NodeId| (m.roundtrip(v, x), m.distance(x, v), x.0);
    key(a).cmp(&key(b))
}

/// The order `Init_v` for every node `v`, plus prefix ("neighborhood ball")
/// queries.
///
/// `Init_v` starts with `v` itself (its roundtrip distance to itself is 0) and
/// lists all other nodes in `≺_v` order. The §2 scheme uses the first `√n`
/// entries as `N(v)`; the §3 scheme uses the first `n^{i/k}` entries as
/// `N_i(v)`.
///
/// Two build modes exist:
///
/// * [`build`](Self::build) stores the **full** order for every node —
///   `O(n²)` ids; right for moderate `n` and for consumers that need deep
///   prefixes. (The dense inverse-permutation rank table this mode used to
///   carry is gone: every remaining rank/membership query is answered from
///   the stored prefix itself.)
/// * [`build_truncated`](Self::build_truncated) stores only the first `cap`
///   entries per node — `O(n·cap)` memory. The stored prefix is *identical*
///   to the full order's prefix (same sort keys), so any consumer whose
///   neighborhood queries stay within `cap` gets bit-identical results. This
///   is what lets the schemes run at `n = 10⁴⁺` through a lazy oracle without
///   ever holding an `n²` structure.
///
/// Either way, construction consumes the oracle row-wise through the
/// [broadcast sweep](crate::broadcast_rows): [`TruncatedOrderSweep`] is the
/// row consumer, and several orders (or other row consumers) can share one
/// pass over the metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundtripOrder {
    n: usize,
    stored: usize,
    /// `orders[v][rank] = rank`-th closest node to `v` (rank 0 is `v`),
    /// truncated to `stored` entries.
    orders: Vec<Vec<NodeId>>,
}

/// Row consumer collecting the first `cap` entries of every `Init_v` — the
/// [`RoundtripOrder::build_truncated`] construction, exposed as a
/// [`RowSweepConsumer`] so several orders can ride one shared
/// [`broadcast_rows`] pass together with other row consumers.
#[derive(Debug)]
pub struct TruncatedOrderSweep {
    n: usize,
    cap: usize,
    slots: SweepSlots<Vec<NodeId>>,
}

impl TruncatedOrderSweep {
    /// Prepares a sweep over `n` sources storing the first `cap` entries per
    /// source (clamped exactly like [`RoundtripOrder::build_truncated`]).
    pub fn new(n: usize, cap: usize) -> Self {
        let cap = cap.min(n).max(1.min(n));
        TruncatedOrderSweep { n, cap, slots: SweepSlots::new(n) }
    }

    /// Assembles the collected prefixes into a [`RoundtripOrder`].
    ///
    /// # Panics
    ///
    /// Panics if the sweep has not visited every source yet.
    pub fn finish(self) -> RoundtripOrder {
        RoundtripOrder { n: self.n, stored: self.cap, orders: self.slots.into_vec() }
    }
}

impl RowSweepConsumer for TruncatedOrderSweep {
    fn consume(&mut self, source: NodeId, rows: &SweepRows<'_>) {
        self.slots.put(source.index(), prefix_from_rows(rows.roundtrip, rows.rev, self.cap));
    }
}

impl RoundtripOrder {
    /// Computes the full `Init_v` for every `v` from a distance oracle.
    pub fn build<O: DistanceOracle + ?Sized>(m: &O) -> Self {
        Self::build_truncated(m, m.node_count())
    }

    /// Computes only the first `cap` entries of `Init_v` for every `v`
    /// (clamped to `n`). Memory is `O(n · cap)`; neighborhood queries beyond
    /// `cap` panic — pick `cap` as the largest level size the consumer uses
    /// (`level_size(n, k−1, k)` covers every dictionary lookup of a
    /// parameter-`k` scheme).
    ///
    /// Runs a solo [`broadcast_rows`] pass over every node with a
    /// [`TruncatedOrderSweep`] consumer. Callers building several row
    /// structures should register the sweep on a shared broadcast instead.
    pub fn build_truncated<O: DistanceOracle + ?Sized>(m: &O, cap: usize) -> Self {
        let n = m.node_count();
        let mut sweep = TruncatedOrderSweep::new(n, cap);
        let sources: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
        broadcast_rows(m, &sources, &mut [&mut sweep]);
        sweep.finish()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// How many entries of each `Init_v` are stored (`n` for full builds).
    pub fn stored_prefix(&self) -> usize {
        self.stored
    }

    /// The stored prefix of `Init_v` (the full sequence for full builds).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn init(&self, v: NodeId) -> &[NodeId] {
        &self.orders[v.index()]
    }

    /// The neighborhood `N(v)` consisting of the first `size` nodes of
    /// `Init_v` (including `v` itself). `size` is clamped to `n`.
    ///
    /// # Panics
    ///
    /// Panics if the clamped `size` exceeds the stored prefix of a truncated
    /// build.
    pub fn neighborhood(&self, v: NodeId, size: usize) -> &[NodeId] {
        let k = size.min(self.n);
        assert!(
            k <= self.stored,
            "neighborhood size {k} exceeds the stored prefix {} of a truncated order",
            self.stored
        );
        &self.orders[v.index()][..k]
    }

    /// The rank of `u` in `Init_v` (0 for `u == v`), by scanning the stored
    /// prefix — the callers that needed `O(1)` ranks over a dense `n²`
    /// inverse permutation are gone, so the table is too.
    ///
    /// # Panics
    ///
    /// On a truncated build, panics if `u` lies beyond the stored prefix of
    /// `Init_v`.
    pub fn rank(&self, v: NodeId, u: NodeId) -> usize {
        self.orders[v.index()]
            .iter()
            .position(|&x| x == u)
            .expect("rank query beyond the stored prefix of a truncated order")
    }

    /// Whether `u` lies in the first `size` entries of `Init_v`.
    pub fn in_neighborhood(&self, v: NodeId, u: NodeId, size: usize) -> bool {
        let size = size.min(self.n);
        self.neighborhood(v, size).contains(&u)
    }

    /// The size of the `i`-th level neighborhood `N_i(v) = first ⌈n^{i/k}⌉`
    /// entries (paper §3.1). Level 0 has size 1 (just `v`), level `k` is all
    /// of `V`.
    pub fn level_size(n: usize, i: u32, k: u32) -> usize {
        assert!(k >= 1 && i <= k);
        if i == 0 {
            return 1;
        }
        if i == k {
            return n;
        }
        let size = (n as f64).powf(i as f64 / k as f64).ceil() as usize;
        size.clamp(1, n)
    }

    /// The order sweep of a post-fault repair: each stored prefix is a pure
    /// function of its node's roundtrip and reverse rows, so the prefixes of
    /// the nodes the [`RowInvalidation`](crate::RowInvalidation) leaves clean
    /// are carried over unchanged and only the dirty nodes' slots are left
    /// for a [`broadcast_rows`] pass over
    /// [`dirty_nodes`](crate::RowInvalidation::dirty_nodes) to fill.
    ///
    /// Swept against the mutated graph's metric (e.g. a
    /// [rebased](crate::LazyDijkstraOracle::rebased) oracle), the finished
    /// order is **bit-identical** to
    /// [`build_truncated`](Self::build_truncated) from scratch on the mutated
    /// graph — clean rows are unchanged by construction, so clean prefixes
    /// are too.
    ///
    /// # Panics
    ///
    /// Panics when `invalidation` sizes a different node count.
    pub fn repair_sweep(&self, invalidation: &crate::RowInvalidation) -> TruncatedOrderSweep {
        assert_eq!(invalidation.node_count(), self.n, "invalidation node count mismatch");
        let mut sweep = TruncatedOrderSweep::new(self.n, self.stored);
        for (vi, prefix) in self.orders.iter().enumerate() {
            if !invalidation.is_node_dirty(NodeId::from_index(vi)) {
                sweep.slots.put(vi, prefix.clone());
            }
        }
        sweep
    }
}

/// The first `cap` entries of `Init_v`, computed from the roundtrip and
/// reverse rows of `v` alone, in an allocation of exactly `cap` entries.
fn prefix_from_rows(roundtrip: &[Distance], rev: &[Distance], cap: usize) -> Vec<NodeId> {
    let key = |x: u32| {
        let xi = x as usize;
        (roundtrip[xi], rev[xi], x)
    };
    let mut nodes: Vec<u32> = (0..roundtrip.len() as u32).collect();
    if cap < nodes.len() {
        nodes.select_nth_unstable_by_key(cap, |&x| key(x));
        nodes.truncate(cap);
    }
    nodes.sort_unstable_by_key(|&x| key(x));
    // Collected from a slice, not the scratch vector: an owning iterator
    // would reuse its `n`-entry allocation for the stored prefix.
    nodes.iter().map(|&x| NodeId(x)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DistanceMatrix, LazyDijkstraOracle};
    use rtr_graph::generators::{directed_ring, strongly_connected_gnp};

    fn setup(n: usize, seed: u64) -> (rtr_graph::DiGraph, DistanceMatrix, RoundtripOrder) {
        let g = strongly_connected_gnp(n, 0.15, seed).unwrap();
        let m = DistanceMatrix::build(&g);
        let o = RoundtripOrder::build(&m);
        (g, m, o)
    }

    #[test]
    fn self_is_always_first() {
        let (g, _m, o) = setup(30, 1);
        for v in g.nodes() {
            assert_eq!(o.init(v)[0], v);
            assert_eq!(o.rank(v, v), 0);
        }
    }

    #[test]
    fn order_is_a_permutation() {
        let (g, _m, o) = setup(25, 2);
        for v in g.nodes() {
            let mut seq: Vec<NodeId> = o.init(v).to_vec();
            seq.sort_unstable();
            assert_eq!(seq, g.nodes().collect::<Vec<_>>());
        }
    }

    #[test]
    fn order_is_sorted_by_roundtrip_distance() {
        let (g, m, o) = setup(25, 3);
        for v in g.nodes() {
            let seq = o.init(v);
            for w in seq.windows(2) {
                let ra = m.roundtrip(v, w[0]);
                let rb = m.roundtrip(v, w[1]);
                assert!(ra <= rb, "Init_{v} not sorted by roundtrip distance");
                if ra == rb {
                    let da = m.distance(w[0], v);
                    let db = m.distance(w[1], v);
                    assert!(da <= db);
                    if da == db {
                        assert!(w[0].0 < w[1].0);
                    }
                }
            }
        }
    }

    #[test]
    fn rank_is_inverse_of_order() {
        let (g, _m, o) = setup(20, 4);
        for v in g.nodes() {
            for (rank, &u) in o.init(v).iter().enumerate() {
                assert_eq!(o.rank(v, u), rank);
            }
        }
    }

    #[test]
    fn neighborhood_prefix_and_membership_agree() {
        let (g, _m, o) = setup(36, 5);
        let size = 6;
        for v in g.nodes() {
            let nb = o.neighborhood(v, size);
            assert_eq!(nb.len(), size);
            for u in g.nodes() {
                assert_eq!(nb.contains(&u), o.in_neighborhood(v, u, size));
            }
        }
    }

    #[test]
    fn neighborhood_clamps_to_n() {
        let (_g, _m, o) = setup(10, 6);
        assert_eq!(o.neighborhood(NodeId(0), 999).len(), 10);
    }

    #[test]
    fn truncated_build_matches_full_prefix() {
        let (g, m, full) = setup(32, 11);
        for cap in [1usize, 5, 13, 32] {
            let truncated = RoundtripOrder::build_truncated(&m, cap);
            assert_eq!(truncated.stored_prefix(), cap.min(32));
            for v in g.nodes() {
                assert_eq!(truncated.init(v), &full.init(v)[..cap.min(32)]);
                assert_eq!(truncated.neighborhood(v, cap), full.neighborhood(v, cap));
            }
        }
    }

    #[test]
    fn truncated_build_through_lazy_oracle_matches_dense() {
        let g = strongly_connected_gnp(28, 0.15, 21).unwrap();
        let m = DistanceMatrix::build(&g);
        let lazy = LazyDijkstraOracle::new(&g, 4);
        let dense_order = RoundtripOrder::build_truncated(&m, 8);
        let lazy_order = RoundtripOrder::build_truncated(&lazy, 8);
        for v in g.nodes() {
            assert_eq!(dense_order.init(v), lazy_order.init(v));
        }
        // The order build swept rows source by source; the bounded cache must
        // never have held more than its capacity.
        assert!(lazy.stats().peak_resident_rows <= 5);
    }

    #[test]
    #[should_panic(expected = "stored prefix")]
    fn truncated_rejects_oversized_neighborhood_queries() {
        let (_g, m, _o) = setup(20, 8);
        let truncated = RoundtripOrder::build_truncated(&m, 4);
        truncated.neighborhood(NodeId(0), 10);
    }

    #[test]
    fn comparator_is_total_and_antisymmetric() {
        let (g, m, _o) = setup(15, 7);
        for v in g.nodes() {
            for a in g.nodes() {
                for b in g.nodes() {
                    let ab = roundtrip_closer(&m, v, a, b);
                    let ba = roundtrip_closer(&m, v, b, a);
                    if a == b {
                        assert_eq!(ab, Ordering::Equal);
                    } else {
                        assert_ne!(ab, Ordering::Equal);
                        assert_eq!(ab, ba.reverse());
                    }
                }
            }
        }
    }

    #[test]
    fn level_sizes_are_monotone_and_bounded() {
        let n = 4096;
        for k in 2..=6u32 {
            let mut prev = 0;
            for i in 0..=k {
                let s = RoundtripOrder::level_size(n, i, k);
                assert!(s >= prev);
                assert!(s <= n);
                prev = s;
            }
            assert_eq!(RoundtripOrder::level_size(n, 0, k), 1);
            assert_eq!(RoundtripOrder::level_size(n, k, k), n);
        }
    }

    #[test]
    fn level_size_matches_sqrt_for_k2() {
        assert_eq!(RoundtripOrder::level_size(1024, 1, 2), 32);
        assert_eq!(RoundtripOrder::level_size(100, 1, 2), 10);
    }

    #[test]
    fn repaired_order_matches_fresh_build_on_mutated_graph() {
        use crate::{CachedSubsetOracle, RowInvalidation};
        use rtr_graph::FaultPlan;
        for seed in 0..8u64 {
            let g0 = strongly_connected_gnp(30, 0.18, seed).unwrap();
            let m0 = CachedSubsetOracle::new(&g0);
            let order0 = RoundtripOrder::build_truncated(&m0, 9);
            let candidates: Vec<(NodeId, NodeId)> =
                g0.nodes().flat_map(|u| g0.out_edges(u).iter().map(move |e| (u, e.to))).collect();
            let plan = FaultPlan::mixed_from_candidates(&candidates, 4, 2, 3, seed ^ 0xc4a0);
            let mut g1 = g0.clone();
            let applied = plan.apply(&mut g1);
            if !g1.is_strongly_connected() {
                continue;
            }
            let inv = RowInvalidation::for_application(&m0, &applied);
            let rebased = CachedSubsetOracle::rebased(&m0, &g1, &inv);
            let mut sweep = order0.repair_sweep(&inv);
            broadcast_rows(&rebased, &inv.dirty_nodes(), &mut [&mut sweep]);
            let repaired = sweep.finish();
            let fresh = RoundtripOrder::build_truncated(&DistanceMatrix::build(&g1), 9);
            for v in g1.nodes() {
                assert_eq!(repaired.init(v), fresh.init(v), "node {v} seed {seed}");
            }
            // Repair only ever touched the dirty nodes' two rows.
            assert!(rebased.materialised_rows() <= 2 * inv.dirty_node_count());
        }
    }

    #[test]
    fn stored_prefixes_hold_no_spare_capacity() {
        use crate::{CachedSubsetOracle, RowInvalidation};
        use rtr_graph::FaultPlan;
        let assert_tight = |o: &RoundtripOrder, what: &str| {
            for prefix in &o.orders {
                assert_eq!(prefix.capacity(), prefix.len(), "{what}: a prefix keeps spare room");
            }
        };
        let g0 = strongly_connected_gnp(60, 0.1, 3).unwrap();
        let m0 = CachedSubsetOracle::new(&g0);
        let order0 = RoundtripOrder::build_truncated(&m0, 8);
        assert_tight(&order0, "build_truncated");
        let candidates: Vec<(NodeId, NodeId)> =
            g0.nodes().flat_map(|u| g0.out_edges(u).iter().map(move |e| (u, e.to))).collect();
        let plan = FaultPlan::mixed_from_candidates(&candidates, 4, 2, 3, 5);
        let mut g1 = g0.clone();
        let inv = RowInvalidation::for_application(&m0, &plan.apply(&mut g1));
        assert!(g1.is_strongly_connected() && inv.dirty_node_count() > 0);
        let rebased = CachedSubsetOracle::rebased(&m0, &g1, &inv);
        let mut sweep = order0.repair_sweep(&inv);
        broadcast_rows(&rebased, &inv.dirty_nodes(), &mut [&mut sweep]);
        assert_tight(&sweep.finish(), "repair_sweep");
    }

    #[test]
    fn ring_neighborhood_is_everything_at_equal_roundtrip() {
        // On a unit-weight directed ring every pair has the same roundtrip
        // distance n, so Init_v is sorted by the tie-breakers; v itself is
        // still first because r(v,v) = 0.
        let g = directed_ring(8, 3).unwrap();
        let m = DistanceMatrix::build(&g);
        let o = RoundtripOrder::build(&m);
        for v in g.nodes() {
            assert_eq!(o.init(v)[0], v);
        }
    }
}
