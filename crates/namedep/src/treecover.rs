//! The hierarchical double-tree-cover substrate (`R2(u, v)` handshake labels).
//!
//! Wraps [`rtr_cover::DoubleTreeCover`] (Theorem 13) into a
//! [`NameDependentSubstrate`]: every node stores, for every double tree it
//! belongs to, its `O(1)`-word out-tree record, its in-tree port toward the
//! tree's center, and whether it *is* the center. The pair label `R2(u, v)`
//! names the cheapest double tree containing both endpoints together with
//! `v`'s compact tree-routing address inside it; routing climbs the in-tree
//! until the destination enters the current subtree, then descends the
//! out-tree.
//!
//! The pairwise roundtrip guarantee is `4(2k_c − 1)` where `k_c` is the
//! cover's sparseness parameter: this substrate stands in for the
//! `(2k + ε)`-spanner of Roditty–Thorup–Zwick that the paper's Lemma 5 uses,
//! with that bound proven.  Experiment E9 (the `namedep_substrate` binary)
//! reports the measured constants side by side.

use crate::substrate::{LabelBits, NameDependentSubstrate};
use rtr_cover::{DoubleTreeCover, TreeId};
use rtr_graph::hash::FxHashMap;
use rtr_graph::types::saturating_dist_add;
use rtr_graph::{DiGraph, Distance, NodeId, Port};
use rtr_metric::DistanceOracle;
use rtr_sim::{id_bits, ForwardAction, RoutingError, TableStats};
use rtr_trees::{TreeLabel, TreeNodeTable, TreeRouter, TreeStep};
use std::sync::Arc;

/// Per-node record for one double tree the node belongs to.
#[derive(Debug, Clone)]
struct TreeRecord {
    /// The node's `O(1)`-word record in the tree's out-component.
    out_table: TreeNodeTable,
    /// Out-port of the first edge toward the tree's center (`None` at the center).
    up_port: Option<Port>,
    /// Roundtrip distance through the tree's center, `d_T(v, c) + d_T(c, v)`.
    /// The handshake cost of a pair inside one tree is the sum of the two
    /// endpoints' values, which is what lets `pair_label` pick the cheapest
    /// common tree from per-node state alone.
    rt_cost: Distance,
}

/// The `R2`-style label: which double tree to use and the destination's
/// address inside it.
///
/// The tree address is shared behind an [`Arc`]: cloning a label (into a
/// scheme dictionary entry or a packet header) bumps a refcount instead of
/// copying the light-hop vector, so a popular destination's address is stored
/// once no matter how many tables reference it.
#[derive(Debug, Clone)]
pub struct TreeCoverLabel {
    /// The destination node.
    pub target: NodeId,
    /// The double tree the route stays inside.
    pub tree: TreeId,
    /// The destination's compact address in that tree's out-component.
    pub tree_label: Arc<TreeLabel>,
    bits: usize,
}

impl LabelBits for TreeCoverLabel {
    fn bits(&self) -> usize {
        self.bits
    }
}

/// The tree-cover substrate.
#[derive(Debug)]
pub struct TreeCoverScheme {
    n: usize,
    k: u32,
    level_count: usize,
    max_trees_per_level: usize,
    /// `records[v]`: tree id → this node's record for that tree.
    records: Vec<FxHashMap<TreeId, TreeRecord>>,
    /// `memberships[v]`: every tree containing `v`, sorted by `(level,
    /// index)` — the scan list of the on-demand handshake.
    memberships: Vec<Vec<TreeId>>,
    /// Per-tree routers, `routers[level][index]`, used only at build/label
    /// time to mint labels; shared with the cover, not copied.
    routers: Vec<Vec<Arc<TreeRouter>>>,
    /// Home tree per (node, level) — the tree guaranteed to span the node's
    /// scale-2^level roundtrip ball.
    home: Vec<Vec<TreeId>>,
    max_label_bits: usize,
}

impl TreeCoverScheme {
    /// Builds the substrate from a freshly constructed Theorem 13 hierarchy
    /// with sparseness parameter `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or the graph is not strongly connected.
    pub fn build<O: DistanceOracle + ?Sized>(g: &DiGraph, m: &O, k: u32) -> Self {
        let cover = DoubleTreeCover::build(g, m, k);
        Self::from_cover(g, &cover)
    }

    /// Builds the substrate from an existing hierarchy (lets callers share one
    /// [`DoubleTreeCover`] between the substrate and a §4 scheme).  The
    /// substrate shares the cover's routers rather than copying them.
    pub fn from_cover(g: &DiGraph, cover: &DoubleTreeCover) -> Self {
        let n = g.node_count();
        let mut records: Vec<FxHashMap<TreeId, TreeRecord>> = vec![FxHashMap::default(); n];
        let mut memberships: Vec<Vec<TreeId>> = vec![Vec::new(); n];
        let mut routers: Vec<Vec<Arc<TreeRouter>>> = Vec::with_capacity(cover.level_count());
        let mut max_trees_per_level = 0usize;

        for (li, level) in cover.levels().iter().enumerate() {
            max_trees_per_level = max_trees_per_level.max(level.trees.len());
            for (ti, tree) in level.trees.iter().enumerate() {
                let id = TreeId { level: li as u16, index: ti as u32 };
                let router = &level.routers[ti];
                for &v in tree.members() {
                    let out_table = *router
                        .table(v)
                        .expect("double-tree members are spanned by the out component");
                    let up_port = tree.in_tree().next_port(v);
                    let rt_cost = tree.roundtrip_through_root(v);
                    records[v.index()].insert(id, TreeRecord { out_table, up_port, rt_cost });
                    // Levels and tree indices are visited in ascending order,
                    // so the membership list comes out sorted.
                    memberships[v.index()].push(id);
                }
            }
            routers.push(level.routers.clone());
        }

        let home: Vec<Vec<TreeId>> = (0..n)
            .map(|vi| {
                (0..cover.level_count())
                    .map(|li| cover.home_tree_id(NodeId::from_index(vi), li))
                    .collect()
            })
            .collect();

        let word = id_bits(n);
        let max_tree_label_bits =
            routers.iter().flatten().map(|r| r.max_label_bits(n)).max().unwrap_or(0);
        let max_label_bits =
            word + TreeId::bits(cover.level_count(), max_trees_per_level) + max_tree_label_bits;

        TreeCoverScheme {
            n,
            k: cover.k(),
            level_count: cover.level_count(),
            max_trees_per_level,
            records,
            memberships,
            routers,
            home,
            max_label_bits,
        }
    }

    /// The cheapest common tree of a pair — the handshake of §3.2/Lemma 5,
    /// computed **on demand** from the two endpoints' compact per-node state
    /// instead of a precomputed Θ(n²) side table.
    ///
    /// Scans the smaller of the two membership lists (Õ(k·n^{1/k}·log RTDiam)
    /// entries) in `(level, index)` order, probing the other endpoint's record
    /// map per candidate; the selection rule — strict cost minimum, scan
    /// continued through one level past the current best — reproduces
    /// [`DoubleTreeCover::best_common_tree`] decision for decision, so the
    /// answers are bit-identical to the retired precomputed table (the
    /// substrate's property tests assert this against the cover).
    ///
    /// The answer is symmetric in `u` and `v`: a tree's cost is the sum of
    /// both endpoints' `rt_cost`, and ties and the early stop are decided in
    /// `(level, index)` order over the same intersection of the two lists,
    /// whichever list is scanned. One scan therefore serves both directions
    /// of a handshake ([`NameDependentSubstrate::pair_labels`]).
    fn cheapest_common_tree(&self, u: NodeId, v: NodeId) -> TreeId {
        let (scan, other) =
            if self.memberships[u.index()].len() <= self.memberships[v.index()].len() {
                (u, v)
            } else {
                (v, u)
            };
        let scan_records = &self.records[scan.index()];
        let other_records = &self.records[other.index()];
        let mut best: Option<(TreeId, Distance)> = None;
        for &id in &self.memberships[scan.index()] {
            if let Some((bid, _)) = best {
                // The level-ordered scan never needs to look more than one
                // level past the cheapest tree found so far (height bounds
                // grow with the scale; one extra level smooths out
                // seed-choice noise — same rule as the cover's own search).
                if (id.level as u32) >= (bid.level as u32) + 2 {
                    break;
                }
            }
            let Some(other_rec) = other_records.get(&id) else { continue };
            let cost = saturating_dist_add(scan_records[&id].rt_cost, other_rec.rt_cost);
            if best.is_none_or(|(_, c)| cost < c) {
                best = Some((id, cost));
            }
        }
        best.expect("top-level home tree always contains both endpoints").0
    }

    /// The cover's sparseness parameter `k_c`.
    pub fn cover_k(&self) -> u32 {
        self.k
    }

    /// Number of levels in the hierarchy.
    pub fn level_count(&self) -> usize {
        self.level_count
    }

    /// Builds a label that routes to `v` inside the specific tree `id`
    /// (used by the §4 scheme, which picks trees itself).
    ///
    /// Returns `None` if `v` is not a member of that tree.
    pub fn label_in_tree(&self, id: TreeId, v: NodeId) -> Option<TreeCoverLabel> {
        let router = self.routers.get(id.level as usize)?.get(id.index as usize)?;
        let tree_label = router.label(v)?.clone();
        Some(TreeCoverLabel { target: v, tree: id, tree_label, bits: self.max_label_bits })
    }

    /// The home tree of `v` at `level`.
    pub fn home_tree(&self, v: NodeId, level: usize) -> TreeId {
        self.home[v.index()][level]
    }

    /// Number of tree memberships of `v` (drives the Õ(n^{1/k}) table bound).
    pub fn membership_count(&self, v: NodeId) -> usize {
        self.records[v.index()].len()
    }
}

impl NameDependentSubstrate for TreeCoverScheme {
    type Label = TreeCoverLabel;

    fn substrate_name(&self) -> &'static str {
        "tree-cover"
    }

    fn label_for(&self, v: NodeId) -> TreeCoverLabel {
        // The top-level home tree of v spans every node, so its label is
        // globally valid (the analogue of RTZ's 4k+ε global labels).
        let top = self.level_count - 1;
        self.label_in_tree(self.home_tree(v, top), v).expect("v is a member of its own home tree")
    }

    fn pair_label(&self, from: NodeId, to: NodeId) -> TreeCoverLabel {
        if from == to {
            return self.label_for(to);
        }
        let id = self.cheapest_common_tree(from, to);
        self.label_in_tree(id, to).expect("handshake tree contains the destination")
    }

    fn pair_labels(&self, u: NodeId, v: NodeId) -> (TreeCoverLabel, TreeCoverLabel) {
        if u == v {
            let label = self.label_for(v);
            return (label.clone(), label);
        }
        let id = self.cheapest_common_tree(u, v);
        (
            self.label_in_tree(id, v).expect("handshake tree contains both endpoints"),
            self.label_in_tree(id, u).expect("handshake tree contains both endpoints"),
        )
    }

    fn step(&self, at: NodeId, label: &mut TreeCoverLabel) -> Result<ForwardAction, RoutingError> {
        if at == label.target {
            return Ok(ForwardAction::Deliver);
        }
        let record = self.records[at.index()].get(&label.tree).ok_or_else(|| {
            RoutingError::new(at, "node is not a member of the label's double tree")
        })?;
        match TreeRouter::step(&record.out_table, &label.tree_label) {
            TreeStep::Deliver => Ok(ForwardAction::Deliver),
            TreeStep::Forward(port) => Ok(ForwardAction::Forward(port)),
            TreeStep::NotInSubtree => {
                // The destination is not below us: climb toward the center.
                let port = record.up_port.ok_or_else(|| {
                    RoutingError::new(at, "center of the tree does not contain the destination")
                })?;
                Ok(ForwardAction::Forward(port))
            }
        }
    }

    fn table_stats(&self, v: NodeId) -> TableStats {
        let word = id_bits(self.n);
        let tree_id_bits = TreeId::bits(self.level_count, self.max_trees_per_level);
        let memberships = self.records[v.index()].len();
        // Per membership: tree id + 3-word out record + up port + handshake
        // cost word; plus one home tree id per level.
        let bits =
            memberships * (tree_id_bits + 3 * word + 2 * word) + self.level_count * tree_id_bits;
        TableStats { entries: memberships + self.level_count, bits }
    }

    fn max_label_bits(&self) -> usize {
        self.max_label_bits
    }

    fn guaranteed_roundtrip_stretch(&self) -> Option<f64> {
        Some(4.0 * (2.0 * self.k as f64 - 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::harness::drive;
    use rtr_graph::generators::{bidirected_grid, strongly_connected_gnp};
    use rtr_metric::DistanceMatrix;

    fn build(n: usize, seed: u64, k: u32) -> (DiGraph, DistanceMatrix, TreeCoverScheme) {
        let g = strongly_connected_gnp(n, 0.1, seed).unwrap();
        let m = DistanceMatrix::build(&g);
        let s = TreeCoverScheme::build(&g, &m, k);
        (g, m, s)
    }

    #[test]
    fn pair_labels_always_deliver() {
        let (g, _m, s) = build(40, 1, 2);
        for u in g.nodes() {
            for v in g.nodes() {
                if u == v {
                    continue;
                }
                let (path, _) = drive(&g, &s, u, s.pair_label(u, v));
                assert_eq!(*path.last().unwrap(), v);
            }
        }
    }

    #[test]
    fn global_labels_deliver_from_anywhere() {
        let (g, _m, s) = build(32, 2, 2);
        for u in g.nodes() {
            for v in g.nodes() {
                let (path, _) = drive(&g, &s, u, s.label_for(v));
                assert_eq!(*path.last().unwrap(), v);
            }
        }
    }

    #[test]
    fn roundtrip_respects_the_guaranteed_bound() {
        let (g, m, s) = build(40, 3, 2);
        let bound = s.guaranteed_roundtrip_stretch().unwrap();
        for u in g.nodes() {
            for v in g.nodes() {
                if u == v {
                    continue;
                }
                let (_, out) = drive(&g, &s, u, s.pair_label(u, v));
                let (_, back) = drive(&g, &s, v, s.pair_label(v, u));
                let measured = (out + back) as f64 / m.roundtrip(u, v) as f64;
                assert!(
                    measured <= bound + 1e-9,
                    "pair ({u},{v}): measured {measured} exceeds guaranteed {bound}"
                );
            }
        }
    }

    #[test]
    fn route_stays_inside_the_named_tree() {
        let (g, _m, s) = build(30, 4, 2);
        for u in g.nodes() {
            for v in g.nodes() {
                if u == v {
                    continue;
                }
                let label = s.pair_label(u, v);
                let tree = label.tree;
                let (path, _) = drive(&g, &s, u, label);
                for x in &path {
                    assert!(
                        s.records[x.index()].contains_key(&tree),
                        "route left tree {tree:?} at {x}"
                    );
                }
            }
        }
    }

    #[test]
    fn tables_are_sublinear_for_k2() {
        let (g, _m, s) = build(100, 5, 2);
        let n = g.node_count() as f64;
        let levels = s.level_count() as f64;
        let bound = (2.0 * 2.0 * n.sqrt() * levels).ceil() as usize + s.level_count();
        for v in g.nodes() {
            let stats = s.table_stats(v);
            assert!(stats.entries <= bound, "{v}: {} entries > {bound}", stats.entries);
        }
    }

    #[test]
    fn labels_are_polylogarithmic() {
        let (g, _m, s) = build(64, 6, 2);
        let word = id_bits(g.node_count());
        assert!(s.max_label_bits() <= 6 * word * word + 8 * word);
    }

    #[test]
    fn works_on_grids_with_k3() {
        let g = bidirected_grid(5, 5, 7).unwrap();
        let m = DistanceMatrix::build(&g);
        let s = TreeCoverScheme::build(&g, &m, 3);
        let bound = s.guaranteed_roundtrip_stretch().unwrap();
        for u in g.nodes() {
            for v in g.nodes() {
                if u == v {
                    continue;
                }
                let (_, out) = drive(&g, &s, u, s.pair_label(u, v));
                let (_, back) = drive(&g, &s, v, s.pair_label(v, u));
                assert!(((out + back) as f64 / m.roundtrip(u, v) as f64) <= bound + 1e-9);
            }
        }
    }

    #[test]
    fn on_demand_pair_labels_match_the_precomputed_handshake() {
        // PR 2 precomputed the cheapest common tree for every ordered pair
        // into a Θ(n²) side table filled from `cover.best_common_tree`; the
        // on-demand scan must reproduce that table entry for entry, and the
        // routed packets must traverse the same hop sequences.
        for (n, seed, k) in [(40usize, 21u64, 2u32), (36, 22, 3), (48, 23, 2)] {
            let g = strongly_connected_gnp(n, 0.1, seed).unwrap();
            let m = DistanceMatrix::build(&g);
            let cover = rtr_cover::DoubleTreeCover::build(&g, &m, k);
            let s = TreeCoverScheme::from_cover(&g, &cover);
            for u in g.nodes() {
                for v in g.nodes() {
                    // One scan serves both directions of the handshake.
                    let (forward, backward) = s.pair_labels(u, v);
                    for (got, want) in
                        [(forward, s.pair_label(u, v)), (backward, s.pair_label(v, u))]
                    {
                        assert_eq!(
                            (got.target, got.tree, &got.tree_label, got.bits()),
                            (want.target, want.tree, &want.tree_label, want.bits()),
                            "pair_labels({u},{v}) differs from two pair_label calls"
                        );
                    }
                    if u == v {
                        continue;
                    }
                    let (id, _) = cover.best_common_tree(u, v).expect("common tree exists");
                    let label = s.pair_label(u, v);
                    assert_eq!(label.tree, id, "pair ({u},{v}) picked a different tree");
                    assert_eq!(
                        &label.tree_label,
                        cover.router(id).label(v).expect("destination is a member"),
                        "pair ({u},{v}) minted a different tree address"
                    );
                    let reference = s.label_in_tree(id, v).expect("handshake tree contains v");
                    let (want_path, want_w) = drive(&g, &s, u, reference);
                    let (path, w) = drive(&g, &s, u, label);
                    assert_eq!(path, want_path, "pair ({u},{v}) routed differently");
                    assert_eq!(w, want_w);
                    assert_eq!(*path.last().unwrap(), v);
                }
            }
        }
    }

    #[test]
    fn label_in_tree_rejects_non_members() {
        let (g, _m, s) = build(30, 8, 2);
        // Find a level-0 tree that does not span everything, and a node
        // outside it.
        let mut found = false;
        'outer: for li in 0..1 {
            for v in g.nodes() {
                let id = s.home_tree(v, li);
                for w in g.nodes() {
                    if !s.records[w.index()].contains_key(&id) {
                        assert!(s.label_in_tree(id, w).is_none());
                        found = true;
                        break 'outer;
                    }
                }
            }
        }
        // On tiny diameters every level-0 tree may already span everything;
        // the assertion above only runs when a non-member exists.
        let _ = found;
        // Ids past the last level, or past a level's last tree, name no tree.
        let beyond_levels = TreeId { level: s.level_count() as u16, index: 0 };
        let beyond_trees = TreeId { level: 0, index: s.max_trees_per_level as u32 };
        for id in [beyond_levels, beyond_trees] {
            assert!(s.label_in_tree(id, NodeId(0)).is_none(), "{id:?} is not a tree");
        }
    }
}
