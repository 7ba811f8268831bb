//! Roundtrip metric restricted to a cluster (induced subgraph).
//!
//! The §4 cover construction measures radii, centers and diameters of
//! *clusters* — node subsets inducing strongly connected subgraphs — under the
//! roundtrip metric **of the induced subgraph** (paths must stay inside the
//! cluster). [`ClusterMetric`] materializes exactly that.

use rtr_graph::algo::dijkstra::{dijkstra_reverse_within, dijkstra_within};
use rtr_graph::types::saturating_dist_add;
use rtr_graph::{DiGraph, Distance, NodeId, INFINITY};

/// Dense distances between the members of one cluster, computed on the
/// subgraph induced by the cluster.
#[derive(Debug, Clone)]
pub struct ClusterMetric {
    /// Sorted, duplicate-free: a member's position is its row and column.
    members: Vec<NodeId>,
    /// `dist[i * k + j] = d_C(members[i], members[j])` within the cluster.
    dist: Vec<Distance>,
}

impl ClusterMetric {
    /// Computes all pairwise distances inside the subgraph induced by
    /// `members`, one member-restricted Dijkstra per member. Duplicates in
    /// `members` are ignored.
    pub fn build(g: &DiGraph, members: &[NodeId]) -> Self {
        let mut members: Vec<NodeId> = members.to_vec();
        members.sort_unstable();
        members.dedup();
        let dist = members.iter().flat_map(|&src| dijkstra_within(g, src, &members).dist).collect();
        ClusterMetric { members, dist }
    }

    fn index_of(&self, v: NodeId) -> Option<usize> {
        self.members.binary_search(&v).ok()
    }

    /// The cluster's members in sorted order.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the cluster is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether `v` belongs to the cluster.
    pub fn contains(&self, v: NodeId) -> bool {
        self.index_of(v).is_some()
    }

    /// One-way distance within the cluster, or [`INFINITY`] if either node is
    /// not a member or unreachable inside the cluster.
    pub fn distance(&self, u: NodeId, v: NodeId) -> Distance {
        match (self.index_of(u), self.index_of(v)) {
            (Some(i), Some(j)) => self.dist[i * self.members.len() + j],
            _ => INFINITY,
        }
    }

    /// Roundtrip distance within the cluster.
    pub fn roundtrip(&self, u: NodeId, v: NodeId) -> Distance {
        saturating_dist_add(self.distance(u, v), self.distance(v, u))
    }

    /// True when the induced subgraph is strongly connected.
    pub fn is_strongly_connected(&self) -> bool {
        self.dist.iter().all(|&d| d != INFINITY)
    }

    /// `RadDM(v, C)`: the maximum roundtrip distance from `v` to any member.
    pub fn rt_radius_of(&self, v: NodeId) -> Distance {
        let mut worst = 0;
        for &w in &self.members {
            let r = self.roundtrip(v, w);
            if r == INFINITY {
                return INFINITY;
            }
            worst = worst.max(r);
        }
        worst
    }

    /// `RTRad(C) = min_v RadDM(v, C)`.
    pub fn rt_radius(&self) -> Distance {
        self.members.iter().map(|&v| self.rt_radius_of(v)).min().unwrap_or(0)
    }

    /// `RTCenter(C)`: a member achieving [`rt_radius`](Self::rt_radius)
    /// (smallest id among minimizers, for determinism).
    pub fn rt_center(&self) -> Option<NodeId> {
        self.members.iter().copied().map(|v| (self.rt_radius_of(v), v)).min().map(|(_, v)| v)
    }

    /// `RTDiam(C) = max_{u,v} r_C(u, v)`.
    pub fn rt_diameter(&self) -> Distance {
        let mut worst = 0;
        for (i, &u) in self.members.iter().enumerate() {
            for &v in &self.members[i + 1..] {
                let r = self.roundtrip(u, v);
                if r == INFINITY {
                    return INFINITY;
                }
                worst = worst.max(r);
            }
        }
        worst
    }

    /// Shortest-path out-tree of the cluster rooted at `root` (paths restricted
    /// to the cluster). Returns per-member `(parent, distance)` pairs aligned
    /// with [`members`](Self::members), `None` parent for the root and
    /// unreachable members. Panics if `root` is not a member.
    pub fn out_tree_parents(&self, g: &DiGraph, root: NodeId) -> Vec<(Option<NodeId>, Distance)> {
        let tree = dijkstra_within(g, root, &self.members);
        tree.parent.into_iter().zip(tree.dist).collect()
    }

    /// Shortest-path in-tree of the cluster toward `root` (paths restricted to
    /// the cluster). Returns per-member `(next-hop, distance)` pairs aligned
    /// with [`members`](Self::members). Panics if `root` is not a member.
    pub fn in_tree_next_hops(&self, g: &DiGraph, root: NodeId) -> Vec<(Option<NodeId>, Distance)> {
        let tree = dijkstra_reverse_within(g, root, &self.members);
        tree.parent.into_iter().zip(tree.dist).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DistanceMatrix;
    use rtr_graph::generators::{bidirected_grid, strongly_connected_gnp};

    #[test]
    fn whole_graph_cluster_matches_global_metric() {
        let g = strongly_connected_gnp(24, 0.2, 8).unwrap();
        let all: Vec<NodeId> = g.nodes().collect();
        let c = ClusterMetric::build(&g, &all);
        let m = DistanceMatrix::build(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(c.distance(u, v), m.distance(u, v));
                assert_eq!(c.roundtrip(u, v), m.roundtrip(u, v));
            }
        }
        assert!(c.is_strongly_connected());
        assert_eq!(c.rt_diameter(), m.roundtrip_diameter());
    }

    #[test]
    fn restricted_cluster_distances_are_no_shorter() {
        let g = strongly_connected_gnp(30, 0.15, 4).unwrap();
        let m = DistanceMatrix::build(&g);
        let members: Vec<NodeId> = g.nodes().filter(|v| v.0 % 2 == 0).collect();
        let c = ClusterMetric::build(&g, &members);
        for &u in &members {
            for &v in &members {
                let within = c.distance(u, v);
                if within != INFINITY {
                    assert!(within >= m.distance(u, v));
                }
            }
        }
    }

    #[test]
    fn non_member_queries_are_infinite() {
        let g = strongly_connected_gnp(10, 0.3, 1).unwrap();
        let members = vec![NodeId(0), NodeId(1), NodeId(2)];
        let c = ClusterMetric::build(&g, &members);
        assert_eq!(c.distance(NodeId(0), NodeId(9)), INFINITY);
        assert!(!c.contains(NodeId(9)));
    }

    #[test]
    fn center_achieves_radius_and_radius_bounds_diameter() {
        let g = bidirected_grid(5, 5, 3).unwrap();
        let all: Vec<NodeId> = g.nodes().collect();
        let c = ClusterMetric::build(&g, &all);
        let center = c.rt_center().unwrap();
        assert_eq!(c.rt_radius_of(center), c.rt_radius());
        assert!(c.rt_radius() <= c.rt_diameter());
        assert!(c.rt_diameter() <= 2 * c.rt_radius());
    }

    #[test]
    fn disconnected_cluster_detected() {
        // Take two far-apart grid corners only: the induced subgraph on two
        // non-adjacent nodes has no edges.
        let g = bidirected_grid(4, 4, 0).unwrap();
        let c = ClusterMetric::build(&g, &[NodeId(0), NodeId(15)]);
        assert!(!c.is_strongly_connected());
        assert_eq!(c.rt_diameter(), INFINITY);
    }

    #[test]
    fn duplicate_members_are_deduplicated() {
        let g = strongly_connected_gnp(8, 0.4, 2).unwrap();
        let c = ClusterMetric::build(&g, &[NodeId(1), NodeId(1), NodeId(2)]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn tree_helpers_agree_with_cluster_distances() {
        let g = bidirected_grid(4, 4, 7).unwrap();
        let members: Vec<NodeId> = (0..8).map(NodeId::from_index).collect();
        let c = ClusterMetric::build(&g, &members);
        if let Some(root) = c.rt_center() {
            for (i, (parent, dist)) in c.out_tree_parents(&g, root).iter().enumerate() {
                let v = c.members()[i];
                assert_eq!(*dist, c.distance(root, v));
                if v == root {
                    assert!(parent.is_none());
                }
            }
            for (i, (_next, dist)) in c.in_tree_next_hops(&g, root).iter().enumerate() {
                let v = c.members()[i];
                assert_eq!(*dist, c.distance(v, root));
            }
        }
    }
}
