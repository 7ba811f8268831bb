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
//!
//! The numbering lives in one place, [`HeavyPathLayout`]: subtree sizes,
//! heavy children and DFS entry numbers over a tree's dense slots, with
//! [`table`](HeavyPathLayout::table) and [`label`](HeavyPathLayout::label)
//! computed on demand.  [`TreeRouter::build`] is that layout with every
//! member's table and label materialised; a caller that needs only a few of
//! them (the landmark substrate reads the descent paths to a handful of
//! destinations per landmark) keeps the layout and computes those.

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

/// "No slot" in the dense arrays of a [`HeavyPathLayout`].
const NO_SLOT: u32 = u32::MAX;

/// The heavy-path layout of Lemma 14 over a rooted tree on dense slots
/// `0..k`: subtree sizes, heavy children and DFS entry numbers, from which
/// [`table`](Self::table) and [`label`](Self::label) compute any slot's
/// routing state on demand.
///
/// A node's heavy child is its child with the largest subtree, ties going to
/// the smaller slot.  The DFS numbers the heavy child first, then the light
/// children in ascending slot order, so the subtree of `v` occupies
/// `[dfs_start, dfs_start + size − 1]`.  Slots follow ascending node ids (a
/// sorted member list, or the node indices themselves), so "smaller slot"
/// is "smaller id".
#[derive(Debug, Clone)]
pub struct HeavyPathLayout {
    /// Per slot: the parent's slot and the port at the parent of the tree
    /// edge down to this slot (`None` at the root and at unreached slots).
    up: Vec<Option<(u32, Port)>>,
    /// Subtree size (0 at unreached slots).
    size: Vec<u32>,
    /// Heavy child, or [`NO_SLOT`] at a leaf.
    heavy: Vec<u32>,
    /// DFS entry number.
    dfs_start: Vec<u32>,
}

impl HeavyPathLayout {
    /// Lays out the tree rooted at slot `root` in which `up[v]` holds slot
    /// `v`'s parent slot and the port at the parent of the tree edge down to
    /// `v` (`None` at the root).  Slots the parent links do not connect to
    /// `root` are left out of the numbering; do not ask for their table or
    /// label.
    ///
    /// # Panics
    ///
    /// Panics if `root` is out of range.
    pub fn new(root: usize, up: Vec<Option<(u32, Port)>>) -> Self {
        let k = up.len();
        // Children as one array in ascending slot order: `first[p]` counts
        // p's children, becomes the end of p's block, and filling the blocks
        // back to front moves it to the start.
        let mut first = vec![0u32; k + 1];
        for &(p, _) in up.iter().flatten() {
            first[p as usize] += 1;
        }
        let mut end = 0;
        for f in &mut first {
            end += *f;
            *f = end;
        }
        let mut children = vec![0u32; end as usize];
        for (c, link) in up.iter().enumerate().rev() {
            if let Some((p, _)) = *link {
                first[p as usize] -= 1;
                children[first[p as usize] as usize] = c as u32;
            }
        }
        let kids = |v: u32| &children[first[v as usize] as usize..first[v as usize + 1] as usize];

        // Breadth-first order: every parent before its children.
        let mut order = Vec::with_capacity(k);
        order.push(root as u32);
        let mut next = 0;
        while let Some(&v) = order.get(next) {
            order.extend_from_slice(kids(v));
            next += 1;
        }
        let mut size = vec![0u32; k];
        for &v in order.iter().rev() {
            size[v as usize] += 1;
            if let Some((p, _)) = up[v as usize] {
                size[p as usize] += size[v as usize];
            }
        }
        let mut heavy = vec![NO_SLOT; k];
        let mut dfs_start = vec![NO_SLOT; k];
        dfs_start[root] = 0;
        for &v in &order {
            let larger = |h: u32, c: u32| if size[c as usize] > size[h as usize] { c } else { h };
            let h = kids(v).iter().copied().reduce(larger).unwrap_or(NO_SLOT);
            heavy[v as usize] = h;
            let mut start = dfs_start[v as usize] + 1;
            let light = kids(v).iter().copied().filter(|&c| c != h);
            for c in std::iter::once(h).filter(|&h| h != NO_SLOT).chain(light) {
                dfs_start[c as usize] = start;
                start += size[c as usize];
            }
        }
        HeavyPathLayout { up, size, heavy, dfs_start }
    }

    /// The layout of `tree`, slot `i` being `tree.members()[i]`.
    pub fn of_tree(tree: &OutTree) -> Self {
        let members = tree.members();
        let slot = |v: NodeId| members.binary_search(&v).expect("tree nodes are members") as u32;
        let up = members
            .iter()
            .map(|&v| {
                let port = || tree.parent_port(v).expect("a tree edge has a port");
                tree.parent(v).map(|p| (slot(p), port()))
            })
            .collect();
        HeavyPathLayout::new(slot(tree.root()) as usize, up)
    }

    fn interval(&self, v: usize) -> (u32, u32) {
        (self.dfs_start[v], self.dfs_start[v] + self.size[v] - 1)
    }

    /// The `O(1)`-word table of slot `v`.
    pub fn table(&self, v: usize) -> TreeNodeTable {
        let (dfs_start, dfs_end) = self.interval(v);
        let heavy = Some(self.heavy[v] as usize).filter(|_| self.heavy[v] != NO_SLOT);
        TreeNodeTable {
            dfs_start,
            dfs_end,
            heavy_port: heavy.and_then(|h| self.up[h].map(|(_, port)| port)),
            heavy_interval: heavy.map(|h| self.interval(h)),
        }
    }

    /// The label of slot `v`: its DFS number and the light edges on the
    /// path down to it, from the root downward.
    pub fn label(&self, v: usize) -> TreeLabel {
        let mut light_hops = Vec::new();
        let mut cur = v;
        while let Some((p, port)) = self.up[cur] {
            if self.heavy[p as usize] != cur as u32 {
                light_hops.push((self.dfs_start[p as usize], port));
            }
            cur = p as usize;
        }
        light_hops.reverse();
        TreeLabel { target_dfs: self.dfs_start[v], light_hops }
    }
}

impl TreeRouter {
    /// Builds tables and labels for every member of `tree`: its
    /// [`HeavyPathLayout`], materialised.
    pub fn build(tree: &OutTree) -> Self {
        let layout = HeavyPathLayout::of_tree(tree);
        let members = tree.members();
        let mut tables = FxHashMap::default();
        let mut labels = FxHashMap::default();
        let mut max_light_depth = 0usize;
        for (i, &v) in members.iter().enumerate() {
            tables.insert(v, layout.table(i));
            let label = layout.label(i);
            max_light_depth = max_light_depth.max(label.light_hops.len());
            labels.insert(v, Arc::new(label));
        }
        TreeRouter { root: tree.root(), tables, labels, max_light_depth }
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
    use rtr_graph::generators::{bidirected_grid, directed_ring, strongly_connected_gnp, Family};
    use rtr_graph::{DiGraph, DiGraphBuilder};

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

    /// Lemma 14's layout written out from its definition, recursively:
    /// subtree sizes, the heavy child (largest subtree, ties to the smaller
    /// id), and heavy-first DFS numbering with light children ascending.
    struct Reference<'t> {
        tree: &'t OutTree,
        size: FxHashMap<NodeId, u32>,
        start: FxHashMap<NodeId, u32>,
    }

    impl<'t> Reference<'t> {
        fn new(tree: &'t OutTree) -> Self {
            let mut r = Reference { tree, size: FxHashMap::default(), start: FxHashMap::default() };
            r.measure(tree.root());
            let mut next = 0;
            r.number(tree.root(), &mut next);
            assert_eq!(next as usize, tree.len(), "the numbering is a permutation");
            r
        }

        fn measure(&mut self, v: NodeId) -> u32 {
            let size = 1 + self.tree.children(v).iter().map(|&c| self.measure(c)).sum::<u32>();
            self.size.insert(v, size);
            size
        }

        fn heavy(&self, v: NodeId) -> Option<NodeId> {
            let children = self.tree.children(v).iter().copied();
            children.max_by_key(|&c| (self.size[&c], std::cmp::Reverse(c)))
        }

        fn number(&mut self, v: NodeId, next: &mut u32) {
            self.start.insert(v, *next);
            *next += 1;
            let heavy = self.heavy(v);
            let mut light: Vec<NodeId> =
                self.tree.children(v).iter().copied().filter(|&c| Some(c) != heavy).collect();
            light.sort_unstable();
            for c in heavy.into_iter().chain(light) {
                self.number(c, next);
            }
        }

        fn interval(&self, v: NodeId) -> (u32, u32) {
            (self.start[&v], self.start[&v] + self.size[&v] - 1)
        }

        fn table(&self, v: NodeId) -> TreeNodeTable {
            let heavy = self.heavy(v);
            TreeNodeTable {
                dfs_start: self.interval(v).0,
                dfs_end: self.interval(v).1,
                heavy_port: heavy.map(|h| self.tree.parent_port(h).unwrap()),
                heavy_interval: heavy.map(|h| self.interval(h)),
            }
        }

        fn label(&self, v: NodeId) -> TreeLabel {
            let path = self.tree.path_from_root(v).unwrap();
            let light_hops = path
                .windows(2)
                .filter(|e| self.heavy(e[0]) != Some(e[1]))
                .map(|e| (self.start[&e[0]], self.tree.parent_port(e[1]).unwrap()))
                .collect();
            TreeLabel { target_dfs: self.start[&v], light_hops }
        }
    }

    /// The router and the layout's on-demand tables and labels against
    /// [`Reference`], on every member of `tree`.
    fn assert_layout_matches_definition(tree: &OutTree, what: &str) {
        let reference = Reference::new(tree);
        let router = TreeRouter::build(tree);
        let layout = HeavyPathLayout::of_tree(tree);
        let mut deepest = 0;
        for (i, &v) in tree.members().iter().enumerate() {
            let (table, label) = (reference.table(v), reference.label(v));
            assert_eq!(router.table(v), Some(&table), "{what}: router table of {v}");
            assert_eq!(layout.table(i), table, "{what}: layout table of {v}");
            assert_eq!(router.label(v).map(|l| &**l), Some(&label), "{what}: router label of {v}");
            assert_eq!(layout.label(i), label, "{what}: layout label of {v}");
            deepest = deepest.max(label.light_hops.len());
        }
        assert_eq!(router.max_light_depth(), deepest, "{what}");
    }

    /// A `rows × cols` bidirected grid with every weight 1: ties between
    /// equal-length paths decide most parents.
    fn unit_grid(rows: usize, cols: usize) -> DiGraph {
        let mut b = DiGraphBuilder::new(rows * cols);
        for v in 0..rows * cols {
            let v_id = NodeId::from_index(v);
            if (v + 1) % cols != 0 {
                b.add_bidirected(v_id, NodeId::from_index(v + 1), 1).unwrap();
            }
            if v + cols < rows * cols {
                b.add_bidirected(v_id, NodeId::from_index(v + cols), 1).unwrap();
            }
        }
        b.build().unwrap()
    }

    // A seeded sweep in the manner of a property test (rtr-trees takes no
    // proptest dependency): whole-graph and cluster-restricted out-trees of
    // every family, several roots each, and unit-weight grids.
    #[test]
    fn layout_matches_lemma_14_definition() {
        for seed in 0..6u64 {
            for family in Family::ALL {
                let g = family.generate(24 + 7 * seed as usize, seed).unwrap();
                let n = g.node_count();
                for i in 0..3 {
                    let root = NodeId::from_index((seed as usize * 5 + i * 17) % n);
                    let what = format!("{} seed {seed} root {root}", family.name());
                    assert_layout_matches_definition(&OutTree::shortest_paths(&g, root), &what);
                    let cluster: Vec<NodeId> = g
                        .nodes()
                        .filter(|&v| v == root || !(v.index() as u64 * 7 + seed).is_multiple_of(3))
                        .collect();
                    let restricted = OutTree::shortest_paths_within(&g, root, Some(&cluster));
                    assert_layout_matches_definition(&restricted, &format!("{what} cluster"));
                }
            }
        }
        for (rows, cols) in [(1, 9), (5, 5), (6, 9), (12, 12)] {
            let g = unit_grid(rows, cols);
            for root in [0, rows * cols / 2, rows * cols - 1] {
                let tree = OutTree::shortest_paths(&g, NodeId::from_index(root));
                assert_layout_matches_definition(&tree, &format!("unit grid {rows}x{cols}"));
            }
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
