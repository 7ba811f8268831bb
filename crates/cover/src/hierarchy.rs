//! The hierarchical double-tree cover of Theorem 13 (one cover per scale).

use crate::nodeset::NodeSet;
use crate::partial::{cover_from_balls, BallCover};
use rtr_graph::par::par_blocks_mut;
use rtr_graph::{DiGraph, Distance, NodeId};
use rtr_metric::{broadcast_rows, DistanceOracle, RowSweepConsumer, SweepRows, SweepSlots};
use rtr_trees::{DoubleTree, TreeRouter};
use std::sync::Arc;

/// Peak transient ball bits held per level group during
/// [`DoubleTreeCover::build`] (≈ 8 GB of bitsets).  Small instances keep
/// every level in one group — one row sweep, exactly the PR 2 behavior —
/// while n = 10⁵ splits into ⌈levels / ⌊budget / n²⌋⌉ groups instead of
/// materialising `levels · n²` bits at once.
const BALL_GROUP_BUDGET_BITS: u128 = 1 << 36;

/// Globally unique identifier of a double-tree inside a [`DoubleTreeCover`]:
/// the level (scale index) and the tree's index within that level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TreeId {
    /// Level index (0 = smallest scale).
    pub level: u16,
    /// Index of the tree within its level.
    pub index: u32,
}

impl TreeId {
    /// Number of bits needed to write a tree id in a packet header or table,
    /// given the number of levels and the maximum number of trees per level.
    pub fn bits(levels: usize, max_trees: usize) -> usize {
        let lb = usize::BITS as usize - levels.max(2).leading_zeros() as usize;
        let tb = usize::BITS as usize - max_trees.max(2).leading_zeros() as usize;
        lb + tb
    }
}

/// One level of the hierarchy: the sparse cover at scale `2^i`, a double tree
/// per cluster (rooted at the cluster's seed node), and a compact tree router
/// per double tree.
///
/// The cover, trees and routers are shared behind [`Arc`]: a repaired or
/// re-treed hierarchy points at every part a fault did not touch instead of
/// copying it.  Equality compares contents, not pointers.
#[derive(Debug, PartialEq, Eq)]
pub struct LevelCover {
    /// The scale `2^i` this level covers.
    pub scale: Distance,
    /// The underlying ball cover (Theorem 10 at radius `scale`), shared with
    /// every hierarchy re-treed or repaired from this one.
    pub cover: Arc<BallCover>,
    /// One double tree per cluster, in cluster order; a repair shares each
    /// untouched cluster's tree with the hierarchy it repaired.
    pub trees: Vec<Arc<DoubleTree>>,
    /// Compact root-to-member routing for each tree's out-component, shared
    /// like the trees.
    pub routers: Vec<Arc<TreeRouter>>,
}

impl LevelCover {
    fn from_balls(g: &DiGraph, balls: Vec<NodeSet>, k: u32, scale: Distance) -> Self {
        Self::build_trees(g, scale, Arc::new(cover_from_balls(balls, k, scale)))
    }

    /// The level over `cover` with every cluster's double tree and compact
    /// router built on `g`.  Each cluster is one slot of [`par_blocks_mut`],
    /// so the construction is lock-free and bit-identical for any thread
    /// count.
    fn build_trees(g: &DiGraph, scale: Distance, cover: Arc<BallCover>) -> Self {
        let mut slots: Vec<Option<(Arc<DoubleTree>, Arc<TreeRouter>)>> =
            (0..cover.clusters.len()).map(|_| None).collect();
        par_blocks_mut(&mut slots, |start, block| {
            for (offset, slot) in block.iter_mut().enumerate() {
                *slot = Some(Self::cluster_tree(g, &cover, start + offset));
            }
        });
        let (trees, routers) =
            slots.into_iter().map(|s| s.expect("every cluster was built")).unzip();
        LevelCover { scale, cover, trees, routers }
    }

    /// The double tree of cluster `ci`, rooted at the cluster's seed and
    /// restricted to its members, and the compact router of its out-tree.
    fn cluster_tree(
        g: &DiGraph,
        cover: &BallCover,
        ci: usize,
    ) -> (Arc<DoubleTree>, Arc<TreeRouter>) {
        let dt = DoubleTree::build(g, cover.seeds[ci], Some(&cover.clusters[ci]));
        let router = TreeRouter::build(dt.out_tree());
        (Arc::new(dt), Arc::new(router))
    }

    /// The home double-tree index of `v` at this level (guaranteed to span
    /// `v`'s whole roundtrip ball of radius `scale`).
    pub fn home(&self, v: NodeId) -> usize {
        self.cover.home[v.index()]
    }

    /// The indices of every double tree containing `v` at this level.
    pub fn membership(&self, v: NodeId) -> &[usize] {
        &self.cover.membership[v.index()]
    }

    /// Largest per-node membership at this level.
    pub fn max_membership(&self) -> usize {
        self.cover.max_membership()
    }
}

/// The full hierarchy of Theorem 13: levels at scales `2, 4, 8, …` up to (and
/// including) the first power of two ≥ `RTDiam(G)`.
///
/// At the top level every node's ball is the whole vertex set, so each node's
/// home tree there spans all of `V` — which is what guarantees that the §4
/// routing scheme and the handshake substrate always terminate.
#[derive(Debug, PartialEq, Eq)]
pub struct DoubleTreeCover {
    k: u32,
    levels: Vec<LevelCover>,
}

/// The precomputed shape of a [`DoubleTreeCover`] build: the doubling scales
/// up to the oracle's diameter bound, chunked into sweep groups by the
/// transient-bit budget.
///
/// Splitting the plan off from the build lets a caller register the **first
/// group's** [`CoverBallSweep`] on a shared [`broadcast_rows`] pass together
/// with other row consumers (orders, landmark extraction) — the suite's
/// single-sweep construction — and leave the remaining groups to
/// [`finish`](Self::finish), which sweeps each on its own.
/// [`DoubleTreeCover::build`] is exactly that with no co-registered
/// consumers.
#[derive(Debug, Clone)]
pub struct CoverSweepPlan {
    k: u32,
    n: usize,
    scales: Vec<Distance>,
    group: usize,
}

impl CoverSweepPlan {
    /// Probes the oracle's diameter bound and lays out the scales and sweep
    /// groups for a sparseness-`k` hierarchy.
    ///
    /// The oracle's graph must be strongly connected; the caller decides that
    /// ([`DoubleTreeCover::build`], or the sparse suite's artifact sweep) and
    /// this plan does not check it again.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    pub fn new<O: DistanceOracle + ?Sized>(m: &O, k: u32) -> Self {
        assert!(k >= 2, "DoubleTreeCover requires k >= 2");
        let diam = m.roundtrip_diameter_bound().max(1);
        let mut scales: Vec<Distance> = vec![2];
        while *scales.last().expect("nonempty") < diam {
            scales.push(scales.last().expect("nonempty").saturating_mul(2));
        }
        // Every scale's ball of a node is a prefix of the same roundtrip row,
        // so one row sweep collects the balls of a whole *group* of levels at
        // once.  Levels are chunked into groups bounded by a transient-bit
        // budget: collecting all levels in one sweep held `levels · n²` ball
        // bits — tens of gigabytes at n = 10⁵ — while per-group collection
        // caps the peak at `group · n²` bits and pays one extra row sweep per
        // additional group.  Small instances keep every level in a single
        // group, and within a group the result is bit-identical to per-level
        // collection either way.
        let n = m.node_count();
        let group = if n == 0 {
            scales.len().max(1)
        } else {
            ((BALL_GROUP_BUDGET_BITS / (n as u128 * n as u128)).max(1) as usize)
                .min(scales.len().max(1))
        };
        CoverSweepPlan { k, n, scales, group }
    }

    /// The sparseness parameter the plan was laid out for.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The ball-collecting row consumer of the first scale group, to be
    /// swept over every node before it is handed to [`finish`](Self::finish).
    pub fn first_sweep(&self) -> CoverBallSweep {
        self.ball_sweep(&self.scales[..self.group])
    }

    /// Builds the hierarchy: the first group's levels from `first` (already
    /// swept over every node), then one [`broadcast_rows`] pass over `m` per
    /// remaining scale group.  Each group's level build is one
    /// `cover.scale_group` span.
    ///
    /// # Panics
    ///
    /// Panics if `first` has not visited every node.
    pub fn finish<O: DistanceOracle + ?Sized>(
        &self,
        g: &DiGraph,
        m: &O,
        first: CoverBallSweep,
    ) -> DoubleTreeCover {
        let mut levels = {
            let _span = rtr_telemetry::span!("cover.scale_group", 0);
            first.finish_levels(g, self.k)
        };
        let sources: Vec<NodeId> = g.nodes().collect();
        for (group_index, group_scales) in self.scales.chunks(self.group).enumerate().skip(1) {
            let _span = rtr_telemetry::span!("cover.scale_group", group_index);
            let mut sweep = self.ball_sweep(group_scales);
            broadcast_rows(m, &sources, &mut [&mut sweep]);
            levels.extend(sweep.finish_levels(g, self.k));
        }
        DoubleTreeCover { k: self.k, levels }
    }

    fn ball_sweep(&self, group_scales: &[Distance]) -> CoverBallSweep {
        CoverBallSweep { n: self.n, scales: group_scales.to_vec(), slots: SweepSlots::new(self.n) }
    }
}

/// Row consumer collecting, for one group of scales, every node's roundtrip
/// balls (`{w : r(v, w) ≤ scale}` as bitsets) from the node's roundtrip row.
///
/// Take the first group's from [`CoverSweepPlan::first_sweep`], register it
/// on a [`broadcast_rows`] pass (alone or together with other consumers),
/// then hand it to [`CoverSweepPlan::finish`].
#[derive(Debug)]
pub struct CoverBallSweep {
    n: usize,
    scales: Vec<Distance>,
    slots: SweepSlots<Vec<NodeSet>>,
}

impl CoverBallSweep {
    /// Builds the group's levels (cover, double trees, routers per scale)
    /// from the collected balls.
    ///
    /// # Panics
    ///
    /// Panics if the sweep has not visited every source yet.
    fn finish_levels(self, g: &DiGraph, k: u32) -> Vec<LevelCover> {
        let _span = rtr_telemetry::span!(
            "cover.finish_levels",
            format_args!("levels={}", self.scales.len())
        );
        let by_node = self.slots.into_vec();
        // Transpose node-major → level-major (moves only).
        let mut by_level: Vec<Vec<NodeSet>> =
            self.scales.iter().map(|_| Vec::with_capacity(self.n)).collect();
        for balls in by_node {
            for (gi, ball) in balls.into_iter().enumerate() {
                by_level[gi].push(ball);
            }
        }
        self.scales
            .iter()
            .zip(by_level)
            .map(|(&scale, balls)| LevelCover::from_balls(g, balls, k, scale))
            .collect()
    }
}

impl RowSweepConsumer for CoverBallSweep {
    fn consume(&mut self, source: NodeId, rows: &SweepRows<'_>) {
        let balls: Vec<NodeSet> = self
            .scales
            .iter()
            .map(|&d| {
                NodeSet::from_nodes(
                    self.n,
                    rows.roundtrip
                        .iter()
                        .enumerate()
                        .filter(|&(_, &r)| r <= d)
                        .map(|(w, _)| NodeId::from_index(w)),
                )
            })
            .collect();
        self.slots.put(source.index(), balls);
    }
}

impl DoubleTreeCover {
    /// Builds the hierarchy for sparseness parameter `k ≥ 2`.
    ///
    /// Generic over the distance oracle: a dense [`rtr_metric::DistanceMatrix`]
    /// yields exactly the paper's `⌈log₂ RTDiam⌉` levels, while a lazy oracle
    /// uses its (at most 2×) diameter bound, which can add one extra doubling
    /// level at the top — harmless, since a top level whose scale exceeds the
    /// diameter is the full cover either way.
    ///
    /// One [`broadcast_rows`] pass per [`CoverSweepPlan`] scale group
    /// collects the balls; callers sharing the first group's sweep with other
    /// consumers drive the same plan themselves.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or the graph is not strongly connected.
    pub fn build<O: DistanceOracle + ?Sized>(g: &DiGraph, m: &O, k: u32) -> Self {
        g.require_strongly_connected().unwrap_or_else(|e| panic!("DoubleTreeCover::build: {e}"));
        let plan = CoverSweepPlan::new(m, k);
        let mut first = plan.first_sweep();
        broadcast_rows(m, &g.nodes().collect::<Vec<_>>(), &mut [&mut first]);
        plan.finish(g, m, first)
    }

    /// The sparseness parameter.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The levels, smallest scale first.
    pub fn levels(&self) -> &[LevelCover] {
        &self.levels
    }

    /// Number of levels (`⌈log₂ RTDiam(G)⌉`).
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// The double tree identified by `id`.
    pub fn tree(&self, id: TreeId) -> &DoubleTree {
        &self.levels[id.level as usize].trees[id.index as usize]
    }

    /// The compact router of the out-component of tree `id`.
    pub fn router(&self, id: TreeId) -> &TreeRouter {
        &self.levels[id.level as usize].routers[id.index as usize]
    }

    /// The home tree of `v` at `level`.
    pub fn home_tree_id(&self, v: NodeId, level: usize) -> TreeId {
        TreeId { level: level as u16, index: self.levels[level].home(v) as u32 }
    }

    /// Total number of tree memberships of `v` across all levels — the
    /// quantity bounded by `2k·n^{1/k}·⌈log RTDiam⌉` in the paper's storage
    /// analysis.
    pub fn membership_count(&self, v: NodeId) -> usize {
        self.levels.iter().map(|l| l.membership(v).len()).sum()
    }

    /// The best (lowest-level, hence smallest-height) tree containing both `u`
    /// and `v`, together with the cost of routing `u → root → v` inside it.
    ///
    /// This is the "handshake" information `R2(u, v)` of §3.2: the name of the
    /// most convenient double tree for the pair plus the topology-dependent
    /// addresses inside it. Returns `None` only if no common tree exists,
    /// which cannot happen for a strongly connected graph because the top
    /// level's home tree of `u` spans every node.
    pub fn best_common_tree(&self, u: NodeId, v: NodeId) -> Option<(TreeId, Distance)> {
        let mut best: Option<(TreeId, Distance)> = None;
        for (li, level) in self.levels.iter().enumerate() {
            for &ti in level.membership(u) {
                let dt = &level.trees[ti];
                if dt.contains(v) && dt.contains(u) {
                    let cost = dt
                        .route_cost_through_root(u, v)
                        .saturating_add(dt.route_cost_through_root(v, u));
                    let id = TreeId { level: li as u16, index: ti as u32 };
                    if best.is_none_or(|(_, c)| cost < c) {
                        best = Some((id, cost));
                    }
                }
            }
            if best.is_some() {
                // Lower levels have smaller height bounds; once a common tree
                // is found at the smallest possible level, higher levels can
                // only be worse by the (2k-1)·2^i height guarantee, but we
                // still scan one extra level to smooth out seed-choice noise.
                if li + 1 < self.levels.len()
                    && best.is_some_and(|(id, _)| (id.level as usize) < li)
                {
                    break;
                }
            }
        }
        best
    }

    /// The maximum per-node membership over all levels and nodes.
    pub fn max_membership_per_level(&self) -> usize {
        self.levels.iter().map(LevelCover::max_membership).max().unwrap_or(0)
    }

    /// Rebuilds every level's double trees and compact routers on `g`,
    /// keeping the covers themselves — clusters, seeds, home and membership
    /// tables — **anchored** to the metric they were originally built from.
    ///
    /// This is the reference semantics of post-fault degraded serving (and
    /// of [`repair_clusters`](Self::repair_clusters), which must be
    /// bit-identical to it): under edge removals and weight increases every
    /// roundtrip ball can only shrink, so an anchored home cluster still
    /// contains its owner's ball and the covering property survives; what
    /// degrades is the per-tree `RTHeight` (restricted distances grow), which
    /// the verified serving plane measures rather than assumes.
    ///
    /// The result shares each level's [`BallCover`] with `self`.
    pub fn rebuild_all_trees(&self, g: &DiGraph) -> DoubleTreeCover {
        let levels = self
            .levels
            .iter()
            .map(|level| LevelCover::build_trees(g, level.scale, Arc::clone(&level.cover)))
            .collect();
        DoubleTreeCover { k: self.k, levels }
    }

    /// Incrementally re-anchors the hierarchy on a mutated graph: rebuilds,
    /// one after another, the double tree and router of exactly the clusters
    /// containing a node in `touched`, and shares every other cluster's tree
    /// and router, and each level's [`BallCover`], with `self` (an
    /// [`Arc::clone`], no copy).
    ///
    /// `touched` must include **both endpoints of every fault** applied to
    /// `g` (a superset is fine — extra nodes only cost extra rebuilds). A
    /// cluster containing no touched node induces the same subgraph before
    /// and after the faults, and tree construction is deterministic, so the
    /// result is bit-identical to the full
    /// [`rebuild_all_trees`](Self::rebuild_all_trees) on `g`.
    ///
    /// Returns the repaired hierarchy and the number of cluster trees that
    /// were actually rebuilt (summed over levels).
    pub fn repair_clusters(&self, g: &DiGraph, touched: &[NodeId]) -> (DoubleTreeCover, usize) {
        let _span = rtr_telemetry::span!("cover.repair", format_args!("touched={}", touched.len()));
        let mut reanchored = 0usize;
        let levels = self
            .levels
            .iter()
            .map(|level| {
                let mut hit = vec![false; level.cover.clusters.len()];
                for &v in touched {
                    for &ci in level.membership(v) {
                        hit[ci] = true;
                    }
                }
                let (trees, routers) = level
                    .trees
                    .iter()
                    .zip(&level.routers)
                    .enumerate()
                    .map(|(ci, (tree, router))| {
                        if hit[ci] {
                            reanchored += 1;
                            LevelCover::cluster_tree(g, &level.cover, ci)
                        } else {
                            (Arc::clone(tree), Arc::clone(router))
                        }
                    })
                    .unzip();
                LevelCover { scale: level.scale, cover: Arc::clone(&level.cover), trees, routers }
            })
            .collect();
        (DoubleTreeCover { k: self.k, levels }, reanchored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partial::roundtrip_ball;
    use rtr_graph::generators::{bidirected_grid, strongly_connected_gnp};
    use rtr_metric::DistanceMatrix;

    fn build(n: usize, seed: u64, k: u32) -> (DiGraph, DistanceMatrix, DoubleTreeCover) {
        let g = strongly_connected_gnp(n, 0.1, seed).unwrap();
        let m = DistanceMatrix::build(&g);
        let c = DoubleTreeCover::build(&g, &m, k);
        (g, m, c)
    }

    #[test]
    #[should_panic(expected = "not strongly connected")]
    fn build_rejects_a_graph_with_a_sink() {
        let mut g = rtr_graph::generators::directed_ring(8, 1).unwrap();
        g.remove_edge(NodeId(3), NodeId(4)).unwrap();
        DoubleTreeCover::build(&g, &DistanceMatrix::build(&g), 2);
    }

    #[test]
    fn top_level_home_tree_spans_everything() {
        let (g, _m, c) = build(40, 1, 2);
        let top = c.level_count() - 1;
        for v in g.nodes() {
            let id = c.home_tree_id(v, top);
            let tree = c.tree(id);
            assert_eq!(tree.len(), g.node_count(), "top home tree of {v} does not span V");
        }
    }

    #[test]
    fn theorem_13_property_1_home_tree_contains_ball() {
        let (g, m, c) = build(36, 2, 2);
        for (li, level) in c.levels().iter().enumerate() {
            for v in g.nodes() {
                let ball = roundtrip_ball(&m, v, level.scale);
                let id = c.home_tree_id(v, li);
                let tree = c.tree(id);
                for w in ball.iter() {
                    assert!(
                        tree.contains(w),
                        "level {li}: home tree of {v} misses {w} from its ball"
                    );
                }
            }
        }
    }

    #[test]
    fn theorem_13_property_2_rt_height_bound() {
        let (_g, _m, c) = build(36, 3, 2);
        let k = 2u64;
        for level in c.levels() {
            for tree in &level.trees {
                assert!(
                    tree.rt_height() <= (2 * k - 1) * level.scale,
                    "RTHeight {} exceeds (2k-1)*scale = {}",
                    tree.rt_height(),
                    (2 * k - 1) * level.scale
                );
            }
        }
    }

    #[test]
    fn theorem_13_property_3_membership_bound() {
        let (g, _m, c) = build(48, 4, 2);
        let n = g.node_count() as f64;
        let bound = (2.0 * 2.0 * n.powf(0.5)).ceil() as usize;
        for level in c.levels() {
            for v in g.nodes() {
                assert!(level.membership(v).len() <= bound);
            }
        }
    }

    #[test]
    fn home_tree_contains_owner_at_every_level() {
        let (g, _m, c) = build(30, 5, 3);
        for li in 0..c.level_count() {
            for v in g.nodes() {
                let id = c.home_tree_id(v, li);
                assert!(c.tree(id).contains(v));
            }
        }
    }

    #[test]
    fn best_common_tree_exists_and_cost_bounded_by_heights() {
        let (g, m, c) = build(32, 6, 2);
        for u in g.nodes() {
            for v in g.nodes() {
                if u == v {
                    continue;
                }
                let (id, cost) = c.best_common_tree(u, v).expect("common tree must exist");
                let tree = c.tree(id);
                assert!(tree.contains(u) && tree.contains(v));
                assert!(cost <= 4 * tree.rt_height());
                // The handshake cost bounds a real roundtrip, so it is at
                // least the true roundtrip distance.
                assert!(cost >= m.roundtrip(u, v));
            }
        }
    }

    #[test]
    fn scales_double_and_reach_the_diameter() {
        let (_g, m, c) = build(40, 7, 2);
        let scales: Vec<Distance> = c.levels().iter().map(|l| l.scale).collect();
        for w in scales.windows(2) {
            assert_eq!(w[1], w[0] * 2);
        }
        assert!(*scales.last().unwrap() >= m.roundtrip_diameter());
        assert_eq!(scales[0], 2);
    }

    #[test]
    fn storage_accounting_is_polylog_times_sqrt_n_for_k2() {
        // Experiment E7's headline: total memberships per node is
        // O(k n^{1/k} log RTDiam). Check the explicit bound.
        let (g, m, c) = build(64, 8, 2);
        let n = g.node_count() as f64;
        let levels = (m.roundtrip_diameter() as f64).log2().ceil() as usize + 1;
        let bound = (2.0 * 2.0 * n.sqrt()).ceil() as usize * levels;
        for v in g.nodes() {
            assert!(c.membership_count(v) <= bound);
        }
    }

    #[test]
    fn works_on_grid_graphs() {
        let g = bidirected_grid(5, 5, 9).unwrap();
        let m = DistanceMatrix::build(&g);
        let c = DoubleTreeCover::build(&g, &m, 2);
        assert!(c.level_count() >= 2);
        let top = c.level_count() - 1;
        for v in g.nodes() {
            assert_eq!(c.tree(c.home_tree_id(v, top)).len(), g.node_count());
        }
    }

    #[test]
    fn repair_clusters_is_bit_identical_to_anchored_rebuild() {
        use rtr_graph::FaultPlan;
        let mut exercised = 0usize;
        for seed in 0..6u64 {
            let (g0, _m, c0) = build(36, seed + 20, 2);
            let candidates: Vec<(NodeId, NodeId)> =
                g0.nodes().flat_map(|u| g0.out_edges(u).iter().map(move |e| (u, e.to))).collect();
            let plan = FaultPlan::mixed_from_candidates(&candidates, 4, 2, 3, seed ^ 0x51c3);
            let mut g1 = g0.clone();
            let applied = plan.apply(&mut g1);
            if !g1.is_strongly_connected() {
                continue;
            }
            let touched: Vec<NodeId> = applied.faults.iter().flat_map(|f| [f.from, f.to]).collect();
            let (repaired, reanchored) = c0.repair_clusters(&g1, &touched);
            let reference = c0.rebuild_all_trees(&g1);
            assert_eq!(repaired, reference, "seed {seed}: repair diverged from anchored rebuild");
            let total: usize = c0.levels().iter().map(|l| l.trees.len()).sum();
            assert!(reanchored <= total);
            assert!(
                reanchored > 0,
                "seed {seed}: no cluster was hit by {} faults",
                applied.faults.len()
            );
            // The repair shares every level's cover and every untouched
            // cluster's tree and router with `c0`; only the re-anchored
            // trees are new.
            let mut fresh = 0usize;
            for (li, (before, after)) in c0.levels().iter().zip(repaired.levels()).enumerate() {
                assert!(Arc::ptr_eq(&before.cover, &after.cover), "seed {seed}: level {li} cover");
                for (ci, cluster) in before.cover.clusters.iter().enumerate() {
                    let hit = touched.iter().any(|v| cluster.binary_search(v).is_ok());
                    let tree_shared = Arc::ptr_eq(&before.trees[ci], &after.trees[ci]);
                    let router_shared = Arc::ptr_eq(&before.routers[ci], &after.routers[ci]);
                    let what = format!("seed {seed}: level {li}, cluster {ci}");
                    assert_eq!(tree_shared, !hit, "{what}: tree shared iff untouched");
                    assert_eq!(router_shared, !hit, "{what}: router shared iff untouched");
                    fresh += usize::from(!tree_shared);
                }
            }
            assert_eq!(fresh, reanchored, "seed {seed}: new trees");
            exercised += 1;
        }
        assert!(exercised > 0, "every seeded plan disconnected the graph");
    }

    #[test]
    fn tree_id_bit_accounting() {
        assert!(TreeId::bits(16, 1024) <= 16);
        assert!(TreeId::bits(1, 1) >= 2);
    }
}
