//! Shortest-path out-trees, in-trees and double trees over clusters.

use rtr_graph::algo::dijkstra::{
    dijkstra, dijkstra_reverse, dijkstra_reverse_within, dijkstra_within,
};
use rtr_graph::hash::FxHashMap;
use rtr_graph::types::saturating_dist_add;
use rtr_graph::{DiGraph, Distance, NodeId, Port, INFINITY};
use std::borrow::Cow;

/// A shortest-paths tree rooted at a center node, oriented *away* from the
/// root (paper §3.2, `OutTree(C)`).
///
/// Only the members reachable from the root (within the optional cluster
/// restriction) appear in the tree. For each member `v ≠ root` the tree stores
/// its parent and the port *at the parent* labelling the tree edge
/// `parent → v`; this is exactly the information needed to forward packets
/// down the tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutTree {
    root: NodeId,
    /// Sorted members (includes the root).
    members: Vec<NodeId>,
    parent: FxHashMap<NodeId, NodeId>,
    /// Port at `parent[v]` for the edge `parent[v] → v`.
    parent_port: FxHashMap<NodeId, Port>,
    dist: FxHashMap<NodeId, Distance>,
    children: FxHashMap<NodeId, Vec<NodeId>>,
}

impl OutTree {
    /// Builds the shortest-paths out-tree from `root` over the whole graph.
    pub fn shortest_paths(g: &DiGraph, root: NodeId) -> Self {
        Self::shortest_paths_within(g, root, None)
    }

    /// Builds the shortest-paths out-tree from `root`, restricted to the
    /// induced subgraph on `members` when `Some` (paths may not leave the
    /// cluster). Unreachable members are omitted from the tree.
    ///
    /// # Panics
    ///
    /// Panics if `members` is `Some` and does not contain `root`.
    pub fn shortest_paths_within(g: &DiGraph, root: NodeId, members: Option<&[NodeId]>) -> Self {
        let mut tree = OutTree {
            root,
            members: Vec::new(),
            parent: FxHashMap::default(),
            parent_port: FxHashMap::default(),
            dist: FxHashMap::default(),
            children: FxHashMap::default(),
        };
        // Members arrive ascending, so every child list comes out sorted.
        visit_reached(g, root, members, false, |v, dist, link| {
            tree.members.push(v);
            tree.dist.insert(v, dist);
            if let Some((p, port)) = link {
                tree.parent.insert(v, p);
                tree.parent_port.insert(v, port);
                tree.children.entry(p).or_default().push(v);
            }
        });
        tree
    }

    /// The root of the tree.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Sorted list of members (root included).
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when only the root belongs to the tree.
    pub fn is_empty(&self) -> bool {
        self.members.len() <= 1
    }

    /// Whether `v` is spanned by the tree.
    pub fn contains(&self, v: NodeId) -> bool {
        self.dist.contains_key(&v)
    }

    /// Tree distance `d(root, v)`, or [`INFINITY`] if `v` is not in the tree.
    pub fn distance(&self, v: NodeId) -> Distance {
        self.dist.get(&v).copied().unwrap_or(INFINITY)
    }

    /// The parent of `v` in the tree (`None` for the root or non-members).
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent.get(&v).copied()
    }

    /// The port at `parent(v)` labelling the edge `parent(v) → v`.
    pub fn parent_port(&self, v: NodeId) -> Option<Port> {
        self.parent_port.get(&v).copied()
    }

    /// Children of `v` in the tree.
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        self.children.get(&v).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The tree path `root → … → v`, or `None` if `v` is not a member.
    pub fn path_from_root(&self, v: NodeId) -> Option<Vec<NodeId>> {
        if !self.contains(v) {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path)
    }
}

/// Shortest paths from every member *to* the root (`InTree(C)` of §3.2).
///
/// Each member stores its next hop toward the root and the out-port of the
/// first edge of that path — the only state a node needs in order to forward
/// packets "up" toward the center.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InTree {
    root: NodeId,
    members: Vec<NodeId>,
    next_hop: FxHashMap<NodeId, NodeId>,
    /// Port at the member itself for its first edge toward the root.
    next_port: FxHashMap<NodeId, Port>,
    dist: FxHashMap<NodeId, Distance>,
}

impl InTree {
    /// Builds the in-tree toward `root` over the whole graph.
    pub fn shortest_paths(g: &DiGraph, root: NodeId) -> Self {
        Self::shortest_paths_within(g, root, None)
    }

    /// Builds the in-tree toward `root`, restricted to the induced subgraph on
    /// `members` when `Some`. Members that cannot reach the root inside the
    /// cluster are omitted.
    ///
    /// # Panics
    ///
    /// Panics if `members` is `Some` and does not contain `root`.
    pub fn shortest_paths_within(g: &DiGraph, root: NodeId, members: Option<&[NodeId]>) -> Self {
        let mut tree = InTree {
            root,
            members: Vec::new(),
            next_hop: FxHashMap::default(),
            next_port: FxHashMap::default(),
            dist: FxHashMap::default(),
        };
        visit_reached(g, root, members, true, |v, dist, link| {
            tree.members.push(v);
            tree.dist.insert(v, dist);
            if let Some((next, port)) = link {
                tree.next_hop.insert(v, next);
                tree.next_port.insert(v, port);
            }
        });
        tree
    }

    /// The root (sink) of the in-tree.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Sorted members (root included).
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Whether `v` can reach the root within the tree.
    pub fn contains(&self, v: NodeId) -> bool {
        self.dist.contains_key(&v)
    }

    /// Tree distance `d(v, root)`, or [`INFINITY`] for non-members.
    pub fn distance(&self, v: NodeId) -> Distance {
        self.dist.get(&v).copied().unwrap_or(INFINITY)
    }

    /// Next node after `v` on its path to the root.
    pub fn next_hop(&self, v: NodeId) -> Option<NodeId> {
        self.next_hop.get(&v).copied()
    }

    /// Out-port at `v` of its first edge toward the root.
    pub fn next_port(&self, v: NodeId) -> Option<Port> {
        self.next_port.get(&v).copied()
    }

    /// The path `v → … → root`, or `None` if `v` is not a member.
    pub fn path_to_root(&self, v: NodeId) -> Option<Vec<NodeId>> {
        if !self.contains(v) {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while let Some(nh) = self.next_hop(cur) {
            path.push(nh);
            cur = nh;
        }
        Some(path)
    }
}

/// Runs the shortest-path tree from (`reverse`: toward) `root` over the
/// induced subgraph on `members` (the whole graph when `None`) and visits its
/// reached members in ascending order, each with its tree distance and,
/// below the root, its Dijkstra parent and that tree edge's port.  The one
/// member-extraction loop of [`OutTree`] and [`InTree`]; a cluster's run
/// costs the cluster, not the graph.
fn visit_reached(
    g: &DiGraph,
    root: NodeId,
    members: Option<&[NodeId]>,
    reverse: bool,
    mut visit: impl FnMut(NodeId, Distance, Option<(NodeId, Port)>),
) {
    let nodes: Cow<'_, [NodeId]> = match members {
        None => g.nodes().collect(),
        Some(m) if m.windows(2).all(|w| w[0] < w[1]) => Cow::Borrowed(m),
        Some(m) => {
            let mut sorted = m.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            Cow::Owned(sorted)
        }
    };
    let (dist, parent, port) = match (members, reverse) {
        (None, false) => {
            let t = dijkstra(g, root);
            (t.dist, t.parent, t.parent_port)
        }
        (None, true) => {
            let t = dijkstra_reverse(g, root);
            (t.dist, t.parent, t.parent_port)
        }
        (Some(_), false) => {
            let t = dijkstra_within(g, root, &nodes);
            (t.dist, t.parent, t.parent_port)
        }
        (Some(_), true) => {
            let t = dijkstra_reverse_within(g, root, &nodes);
            (t.dist, t.parent, t.parent_port)
        }
    };
    for (i, &v) in nodes.iter().enumerate().filter(|&(i, _)| dist[i] != INFINITY) {
        let link = parent[i].map(|p| (p, port[i].expect("a tree edge has a port")));
        visit(v, dist[i], link);
    }
}

/// `DoubleTree(C)` — the union of [`InTree`] and [`OutTree`] rooted at the
/// same center (paper §3.2), supporting the "route through the center"
/// primitive and the `RTHeight` measure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DoubleTree {
    out: OutTree,
    in_: InTree,
    /// Members present in *both* trees (the nodes the double tree serves).
    members: Vec<NodeId>,
}

impl DoubleTree {
    /// Builds `DoubleTree(C)` centered at `root`, optionally restricted to a
    /// cluster. Members kept are those that both reach and are reachable from
    /// the root inside the restriction.
    pub fn build(g: &DiGraph, root: NodeId, members: Option<&[NodeId]>) -> Self {
        let out = OutTree::shortest_paths_within(g, root, members);
        let in_ = InTree::shortest_paths_within(g, root, members);
        let members: Vec<NodeId> =
            out.members().iter().copied().filter(|&v| in_.contains(v)).collect();
        DoubleTree { out, in_, members }
    }

    /// The center node.
    pub fn root(&self) -> NodeId {
        self.out.root()
    }

    /// Members served by the double tree (sorted).
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Number of members served.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether only the root is served.
    pub fn is_empty(&self) -> bool {
        self.members.len() <= 1
    }

    /// Whether `v` is served (in both component trees).
    pub fn contains(&self, v: NodeId) -> bool {
        self.out.contains(v) && self.in_.contains(v)
    }

    /// The out-tree component.
    pub fn out_tree(&self) -> &OutTree {
        &self.out
    }

    /// The in-tree component.
    pub fn in_tree(&self) -> &InTree {
        &self.in_
    }

    /// Roundtrip distance through the root: `d_T(v, root) + d_T(root, v)`.
    pub fn roundtrip_through_root(&self, v: NodeId) -> Distance {
        saturating_dist_add(self.in_.distance(v), self.out.distance(v))
    }

    /// `RTHeight(T)`: the maximum roundtrip distance from the root to any
    /// member (paper §3.2).
    pub fn rt_height(&self) -> Distance {
        self.members.iter().map(|&v| self.roundtrip_through_root(v)).max().unwrap_or(0)
    }

    /// Cost of routing `u → root → v` inside the double tree, or
    /// [`INFINITY`] if either endpoint is not served.
    pub fn route_cost_through_root(&self, u: NodeId, v: NodeId) -> Distance {
        saturating_dist_add(self.in_.distance(u), self.out.distance(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_graph::generators::{bidirected_grid, strongly_connected_gnp};
    use rtr_metric::DistanceMatrix;

    #[test]
    fn out_tree_distances_match_dijkstra() {
        let g = strongly_connected_gnp(40, 0.1, 21).unwrap();
        let m = DistanceMatrix::build(&g);
        let root = NodeId(0);
        let t = OutTree::shortest_paths(&g, root);
        assert_eq!(t.len(), g.node_count());
        for v in g.nodes() {
            assert_eq!(t.distance(v), m.distance(root, v));
        }
    }

    #[test]
    fn out_tree_parent_ports_label_tree_edges() {
        let g = strongly_connected_gnp(30, 0.15, 5).unwrap();
        let t = OutTree::shortest_paths(&g, NodeId(3));
        for v in g.nodes() {
            if v == NodeId(3) {
                assert!(t.parent(v).is_none());
                continue;
            }
            let p = t.parent(v).unwrap();
            let port = t.parent_port(v).unwrap();
            let edge = g.edge_by_port(p, port).unwrap();
            assert_eq!(edge.to, v, "port at parent must lead to the child");
        }
    }

    #[test]
    fn out_tree_paths_have_tree_distance() {
        let g = strongly_connected_gnp(25, 0.2, 6).unwrap();
        let t = OutTree::shortest_paths(&g, NodeId(1));
        for v in g.nodes() {
            let path = t.path_from_root(v).unwrap();
            assert_eq!(path[0], NodeId(1));
            assert_eq!(*path.last().unwrap(), v);
            let w = rtr_graph::algo::dijkstra::path_weight(&g, &path).unwrap();
            assert_eq!(w, t.distance(v));
        }
    }

    #[test]
    fn out_tree_children_are_consistent_with_parents() {
        let g = bidirected_grid(5, 5, 2).unwrap();
        let t = OutTree::shortest_paths(&g, NodeId(12));
        let mut counted = 1; // root
        for v in g.nodes() {
            for &c in t.children(v) {
                assert_eq!(t.parent(c), Some(v));
                counted += 1;
            }
        }
        assert_eq!(counted, t.len());
    }

    #[test]
    fn in_tree_distances_match_reverse_dijkstra() {
        let g = strongly_connected_gnp(40, 0.1, 22).unwrap();
        let m = DistanceMatrix::build(&g);
        let root = NodeId(7);
        let t = InTree::shortest_paths(&g, root);
        for v in g.nodes() {
            assert_eq!(t.distance(v), m.distance(v, root));
        }
    }

    #[test]
    fn in_tree_next_ports_point_along_shortest_paths() {
        let g = strongly_connected_gnp(30, 0.15, 8).unwrap();
        let root = NodeId(2);
        let t = InTree::shortest_paths(&g, root);
        for v in g.nodes() {
            if v == root {
                continue;
            }
            let port = t.next_port(v).unwrap();
            let edge = g.edge_by_port(v, port).unwrap();
            assert_eq!(edge.to, t.next_hop(v).unwrap());
            // Following the edge must decrease distance-to-root by its weight.
            assert_eq!(t.distance(v), edge.weight + t.distance(edge.to));
        }
    }

    #[test]
    fn in_tree_path_reaches_root() {
        let g = strongly_connected_gnp(20, 0.2, 9).unwrap();
        let root = NodeId(5);
        let t = InTree::shortest_paths(&g, root);
        for v in g.nodes() {
            let path = t.path_to_root(v).unwrap();
            assert_eq!(*path.last().unwrap(), root);
            let w = rtr_graph::algo::dijkstra::path_weight(&g, &path).unwrap();
            assert_eq!(w, t.distance(v));
        }
    }

    #[test]
    fn restricted_trees_stay_in_cluster() {
        let g = bidirected_grid(6, 6, 4).unwrap();
        let cluster: Vec<NodeId> = (0..18).map(NodeId::from_index).collect();
        let t = OutTree::shortest_paths_within(&g, NodeId(0), Some(&cluster));
        for &v in t.members() {
            assert!(cluster.contains(&v));
            if let Some(path) = t.path_from_root(v) {
                for x in path {
                    assert!(cluster.contains(&x), "tree path leaves the cluster");
                }
            }
        }
    }

    #[test]
    fn double_tree_heights_and_membership() {
        let g = strongly_connected_gnp(35, 0.12, 13).unwrap();
        let m = DistanceMatrix::build(&g);
        let root = NodeId(4);
        let dt = DoubleTree::build(&g, root, None);
        assert_eq!(dt.len(), g.node_count());
        for v in g.nodes() {
            assert_eq!(dt.roundtrip_through_root(v), m.roundtrip(root, v));
        }
        let expected_height = g.nodes().map(|v| m.roundtrip(root, v)).max().unwrap();
        assert_eq!(dt.rt_height(), expected_height);
    }

    #[test]
    fn double_tree_route_cost_bound() {
        let g = strongly_connected_gnp(30, 0.15, 17).unwrap();
        let dt = DoubleTree::build(&g, NodeId(0), None);
        let h = dt.rt_height();
        for u in g.nodes() {
            for v in g.nodes() {
                assert!(dt.route_cost_through_root(u, v) <= 2 * h.max(1));
            }
        }
    }

    #[test]
    fn double_tree_on_cluster_serves_strongly_connected_part() {
        let g = bidirected_grid(4, 4, 1).unwrap();
        let cluster: Vec<NodeId> = vec![NodeId(0), NodeId(1), NodeId(4), NodeId(5), NodeId(15)];
        let dt = DoubleTree::build(&g, NodeId(0), Some(&cluster));
        // Node 15 is isolated within the cluster (no adjacent cluster nodes),
        // so it is not served.
        assert!(dt.contains(NodeId(5)));
        assert!(!dt.contains(NodeId(15)));
    }
}
