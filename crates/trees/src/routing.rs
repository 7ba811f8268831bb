//! Compact fixed-port tree routing (Lemma 14).
//!
//! Routes a packet from the **root** of an [`OutTree`] to any member along the
//! optimal tree path, in the fixed-port model, with
//!
//! * `O(1)` machine words stored at every tree node ([`TreeNodeTable`]), and
//! * an `O(log² n)`-bit address per destination ([`TreeLabel`]).
//!
//! The construction is the classic heavy-path + DFS-interval scheme of
//! Thorup–Zwick / Fraigniaud–Gavoille ("routing in trees"): every node stores
//! its own DFS interval, the port and interval of its *heavy* child (the child
//! with the largest subtree), and nothing else. The label of a destination `v`
//! records, for every **light** edge `(x → c)` on the root-to-`v` path, the
//! pair (DFS index of `x`, port of the edge at `x`). Any root-to-leaf path has
//! at most `⌊log₂ n⌋` light edges, so the label has `O(log n)` entries of
//! `O(log n)` bits.
//!
//! At an intermediate node `x`, forwarding needs only `x`'s table and the
//! label: if the destination's DFS index equals `x`'s, deliver; else if it
//! falls inside the heavy child's interval, take the heavy port; otherwise the
//! label must contain a light-edge entry keyed by `x`'s DFS index — take that
//! port.

use crate::sptree::OutTree;
use rtr_graph::hash::FxHashMap;
use rtr_graph::{NodeId, Port};
use std::sync::Arc;

/// Per-node routing state for one tree: a constant number of words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeNodeTable {
    /// DFS entry index of this node.
    pub dfs_start: u32,
    /// DFS interval `[dfs_start, dfs_end]` covering the node's subtree.
    pub dfs_end: u32,
    /// Port (at this node) toward the heavy child, if any.
    pub heavy_port: Option<Port>,
    /// DFS interval of the heavy child's subtree, if any.
    pub heavy_interval: Option<(u32, u32)>,
}

impl TreeNodeTable {
    /// Number of machine words this table occupies (for table-size accounting).
    pub fn words(&self) -> usize {
        // dfs interval (1 word packed) + heavy port + heavy interval.
        3
    }
}

/// The compact address of a destination in one tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeLabel {
    /// DFS index of the destination.
    pub target_dfs: u32,
    /// For every light edge `(x → c)` on the root-to-destination path, the
    /// pair `(dfs_start of x, port at x)`, ordered from the root downward.
    pub light_hops: Vec<(u32, Port)>,
}

impl TreeLabel {
    /// Size of the label in bits, assuming `⌈log₂ n⌉`-bit DFS indices and
    /// port numbers (the paper's accounting convention).
    pub fn bits(&self, n: usize) -> usize {
        let word = (usize::BITS - (n.max(2) - 1).leading_zeros()) as usize;
        word + self.light_hops.len() * 2 * word
    }
}

/// One forwarding decision of the tree-routing scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeStep {
    /// The current node is the destination.
    Deliver,
    /// Forward on this port.
    Forward(Port),
    /// The destination is not in the current node's subtree (routing started
    /// at a node other than the root, or the label belongs to another tree).
    NotInSubtree,
}

/// The tree-routing scheme for a single [`OutTree`]: per-node tables plus
/// per-destination labels (Lemma 14).
///
/// Labels are interned behind [`Arc`]: a member's address is minted once here
/// and every consumer (substrate records, scheme dictionary entries, packet
/// headers) shares the same allocation instead of cloning the light-hop
/// vector, so a label referenced from thousands of dictionary entries costs
/// one `TreeLabel` plus refcounts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeRouter {
    root: NodeId,
    tables: FxHashMap<NodeId, TreeNodeTable>,
    labels: FxHashMap<NodeId, Arc<TreeLabel>>,
    max_light_depth: usize,
}

impl TreeRouter {
    /// Builds tables and labels for every member of `tree`.
    pub fn build(tree: &OutTree) -> Self {
        let root = tree.root();
        // Iterative DFS computing subtree sizes first (post-order), then
        // intervals and heavy children, then labels via a top-down pass.
        let mut subtree_size: FxHashMap<NodeId, u32> = FxHashMap::default();
        // Post-order via two-phase stack.
        let mut stack = vec![(root, false)];
        while let Some((v, processed)) = stack.pop() {
            if processed {
                let size: u32 = 1 + tree.children(v).iter().map(|c| subtree_size[c]).sum::<u32>();
                subtree_size.insert(v, size);
            } else {
                stack.push((v, true));
                for &c in tree.children(v) {
                    stack.push((c, false));
                }
            }
        }

        // Heavy child of each node = child with max subtree size (ties: smaller id).
        let mut heavy_child: FxHashMap<NodeId, NodeId> = FxHashMap::default();
        for &v in tree.members() {
            let best = tree
                .children(v)
                .iter()
                .copied()
                .max_by_key(|c| (subtree_size[c], std::cmp::Reverse(c.0)));
            if let Some(h) = best {
                heavy_child.insert(v, h);
            }
        }

        // DFS numbering visiting the heavy child first so heavy paths get
        // contiguous intervals.
        let mut dfs_start: FxHashMap<NodeId, u32> = FxHashMap::default();
        let mut dfs_end: FxHashMap<NodeId, u32> = FxHashMap::default();
        let mut counter: u32 = 0;
        // (node, phase) where phase=false -> entering.
        let mut stack = vec![(root, false)];
        while let Some((v, processed)) = stack.pop() {
            if processed {
                // All descendants numbered: close the interval.
                let end = counter - 1;
                dfs_end.insert(v, end);
            } else {
                dfs_start.insert(v, counter);
                counter += 1;
                stack.push((v, true));
                // Push non-heavy children (reverse order), then heavy child last
                // so the heavy child is visited first.
                let heavy = heavy_child.get(&v).copied();
                let mut light: Vec<NodeId> =
                    tree.children(v).iter().copied().filter(|c| Some(*c) != heavy).collect();
                light.sort_unstable();
                for &c in light.iter().rev() {
                    stack.push((c, false));
                }
                if let Some(h) = heavy {
                    stack.push((h, false));
                }
            }
        }

        // Node tables.
        let mut tables = FxHashMap::default();
        for &v in tree.members() {
            let heavy = heavy_child.get(&v).copied();
            let (heavy_port, heavy_interval) = match heavy {
                Some(h) => (tree.parent_port(h), Some((dfs_start[&h], dfs_end[&h]))),
                None => (None, None),
            };
            tables.insert(
                v,
                TreeNodeTable {
                    dfs_start: dfs_start[&v],
                    dfs_end: dfs_end[&v],
                    heavy_port,
                    heavy_interval,
                },
            );
        }

        // Labels: walk from each member up to the root collecting light edges.
        let mut labels = FxHashMap::default();
        let mut max_light_depth = 0usize;
        for &v in tree.members() {
            let mut light_hops: Vec<(u32, Port)> = Vec::new();
            let mut cur = v;
            while let Some(p) = tree.parent(cur) {
                let is_heavy = heavy_child.get(&p) == Some(&cur);
                if !is_heavy {
                    let port = tree.parent_port(cur).expect("non-root member has parent port");
                    light_hops.push((dfs_start[&p], port));
                }
                cur = p;
            }
            light_hops.reverse();
            max_light_depth = max_light_depth.max(light_hops.len());
            labels.insert(v, Arc::new(TreeLabel { target_dfs: dfs_start[&v], light_hops }));
        }

        TreeRouter { root, tables, labels, max_light_depth }
    }

    /// The tree's root.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The per-node table of `v`, if `v` is a member.
    pub fn table(&self, v: NodeId) -> Option<&TreeNodeTable> {
        self.tables.get(&v)
    }

    /// The routing label (address) of member `v`, shared behind an [`Arc`]
    /// (clone it to store the address without copying the light-hop vector).
    pub fn label(&self, v: NodeId) -> Option<&Arc<TreeLabel>> {
        self.labels.get(&v)
    }

    /// The largest label (in bits, under the `⌈log₂ n⌉`-word convention) this
    /// router hands out — one pass over the minted labels, no per-node probing.
    pub fn max_label_bits(&self, n: usize) -> usize {
        self.labels.values().map(|l| l.bits(n)).max().unwrap_or(0)
    }

    /// Maximum number of light-edge entries in any label (≤ ⌊log₂ n⌋).
    pub fn max_light_depth(&self) -> usize {
        self.max_light_depth
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when the tree has at most its root.
    pub fn is_empty(&self) -> bool {
        self.tables.len() <= 1
    }

    /// The purely local forwarding decision at a node described by `table`,
    /// for a packet addressed by `label`.
    ///
    /// This is a free function of the *local* state only (no access to the
    /// global structure) so that it can be embedded verbatim into the
    /// distributed schemes' forwarding functions.
    pub fn step(table: &TreeNodeTable, label: &TreeLabel) -> TreeStep {
        let t = label.target_dfs;
        if t == table.dfs_start {
            return TreeStep::Deliver;
        }
        if t < table.dfs_start || t > table.dfs_end {
            return TreeStep::NotInSubtree;
        }
        if let (Some(port), Some((lo, hi))) = (table.heavy_port, table.heavy_interval) {
            if t >= lo && t <= hi {
                return TreeStep::Forward(port);
            }
        }
        // Must be reachable through a light edge out of this node; the label
        // carries its port keyed by our DFS index.
        for &(parent_dfs, port) in &label.light_hops {
            if parent_dfs == table.dfs_start {
                return TreeStep::Forward(port);
            }
        }
        TreeStep::NotInSubtree
    }

    /// Convenience: forwarding decision at node `v` (must be a member).
    pub fn step_at(&self, v: NodeId, label: &TreeLabel) -> TreeStep {
        match self.table(v) {
            Some(t) => Self::step(t, label),
            None => TreeStep::NotInSubtree,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sptree::OutTree;
    use rtr_graph::generators::{bidirected_grid, directed_ring, strongly_connected_gnp};
    use rtr_graph::DiGraph;

    /// Simulates routing from the tree root to `dest` using only local tables
    /// and the label, returning the traversed node sequence.
    fn route(g: &DiGraph, tree: &OutTree, router: &TreeRouter, dest: NodeId) -> Vec<NodeId> {
        let label = router.label(dest).expect("destination must be a member").clone();
        let mut cur = tree.root();
        let mut path = vec![cur];
        for _ in 0..g.node_count() + 1 {
            match router.step_at(cur, &label) {
                TreeStep::Deliver => return path,
                TreeStep::Forward(port) => {
                    let e = g.edge_by_port(cur, port).expect("port must resolve");
                    cur = e.to;
                    path.push(cur);
                }
                TreeStep::NotInSubtree => panic!("lost the subtree at {cur}"),
            }
        }
        panic!("routing did not terminate");
    }

    #[test]
    fn routes_along_optimal_tree_paths_random_graph() {
        let g = strongly_connected_gnp(60, 0.08, 31).unwrap();
        let tree = OutTree::shortest_paths(&g, NodeId(0));
        let router = TreeRouter::build(&tree);
        for v in g.nodes() {
            let path = route(&g, &tree, &router, v);
            assert_eq!(path, tree.path_from_root(v).unwrap(), "suboptimal tree route to {v}");
        }
    }

    #[test]
    fn routes_on_grid_tree() {
        let g = bidirected_grid(7, 7, 5).unwrap();
        let tree = OutTree::shortest_paths(&g, NodeId(24));
        let router = TreeRouter::build(&tree);
        for v in g.nodes() {
            let path = route(&g, &tree, &router, v);
            let w = rtr_graph::algo::dijkstra::path_weight(&g, &path).unwrap();
            assert_eq!(w, tree.distance(v));
        }
    }

    #[test]
    fn routes_on_degenerate_path_tree() {
        // A directed ring's out-tree from any root is a path: heavy-path
        // decomposition must produce labels with zero light hops.
        let g = directed_ring(40, 2).unwrap();
        let tree = OutTree::shortest_paths(&g, NodeId(0));
        let router = TreeRouter::build(&tree);
        assert_eq!(router.max_light_depth(), 0);
        for v in g.nodes() {
            let path = route(&g, &tree, &router, v);
            assert_eq!(path.len(), v.index() + 1);
        }
    }

    #[test]
    fn label_light_depth_is_logarithmic() {
        let g = strongly_connected_gnp(500, 0.01, 77).unwrap();
        let tree = OutTree::shortest_paths(&g, NodeId(0));
        let router = TreeRouter::build(&tree);
        let bound = (500f64).log2().floor() as usize;
        assert!(
            router.max_light_depth() <= bound,
            "light depth {} exceeds log2(n) = {}",
            router.max_light_depth(),
            bound
        );
    }

    #[test]
    fn label_bits_are_polylogarithmic() {
        let n = 1000;
        let g = strongly_connected_gnp(n, 0.008, 13).unwrap();
        let tree = OutTree::shortest_paths(&g, NodeId(0));
        let router = TreeRouter::build(&tree);
        let word = (n as f64).log2().ceil() as usize;
        let bound = word + word * 2 * (n as f64).log2().floor() as usize; // O(log^2 n)
        for v in g.nodes() {
            let bits = router.label(v).unwrap().bits(n);
            assert!(bits <= bound, "label of {v} has {bits} bits > bound {bound}");
        }
    }

    #[test]
    fn node_tables_are_constant_size() {
        let g = strongly_connected_gnp(200, 0.03, 9).unwrap();
        let tree = OutTree::shortest_paths(&g, NodeId(5));
        let router = TreeRouter::build(&tree);
        for v in g.nodes() {
            assert_eq!(router.table(v).unwrap().words(), 3);
        }
    }

    #[test]
    fn dfs_intervals_nest_properly() {
        let g = strongly_connected_gnp(80, 0.05, 3).unwrap();
        let tree = OutTree::shortest_paths(&g, NodeId(0));
        let router = TreeRouter::build(&tree);
        for &v in tree.members() {
            let tv = router.table(v).unwrap();
            assert!(tv.dfs_start <= tv.dfs_end);
            for &c in tree.children(v) {
                let tc = router.table(c).unwrap();
                assert!(tc.dfs_start > tv.dfs_start);
                assert!(tc.dfs_end <= tv.dfs_end);
            }
            if let Some((lo, hi)) = tv.heavy_interval {
                assert!(lo > tv.dfs_start && hi <= tv.dfs_end);
            }
        }
    }

    #[test]
    fn step_detects_foreign_labels() {
        let g = strongly_connected_gnp(30, 0.1, 41).unwrap();
        let tree_a = OutTree::shortest_paths(&g, NodeId(0));
        let router_a = TreeRouter::build(&tree_a);
        // A label whose DFS index is outside the root's interval must be
        // rejected rather than looping.
        let bogus = TreeLabel { target_dfs: u32::MAX, light_hops: vec![] };
        assert_eq!(router_a.step_at(NodeId(0), &bogus), TreeStep::NotInSubtree);
    }

    #[test]
    fn routing_from_non_root_member_works_within_its_subtree() {
        let g = bidirected_grid(6, 6, 11).unwrap();
        let tree = OutTree::shortest_paths(&g, NodeId(0));
        let router = TreeRouter::build(&tree);
        // Pick an internal node and one of its descendants.
        let internal = tree
            .members()
            .iter()
            .copied()
            .find(|&v| !tree.children(v).is_empty() && v != tree.root())
            .unwrap();
        let descendant = tree.children(internal)[0];
        let label = router.label(descendant).unwrap().clone();
        match router.step_at(internal, &label) {
            TreeStep::Forward(port) => {
                let e = g.edge_by_port(internal, port).unwrap();
                assert_eq!(e.to, descendant);
            }
            other => panic!("expected forward, got {other:?}"),
        }
    }

    #[test]
    fn rebuilding_from_the_same_tree_is_identical() {
        // Routers must be pure functions of the tree so that tables and labels
        // can be rebuilt on any replica and stay interchangeable.
        let g = strongly_connected_gnp(20, 0.2, 2).unwrap();
        let tree = OutTree::shortest_paths(&g, NodeId(0));
        let router = TreeRouter::build(&tree);
        let router2 = TreeRouter::build(&tree);
        assert_eq!(router.len(), router2.len());
        for v in g.nodes() {
            assert_eq!(router.label(v), router2.label(v));
            assert_eq!(router.table(v), router2.table(v));
        }
    }
}
