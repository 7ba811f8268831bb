//! Single-source shortest paths (Dijkstra) in forward and reverse direction.
//!
//! Both directions are needed throughout the reproduction: the roundtrip
//! distance `r(u,v) = d(u,v) + d(v,u)` (paper §1.1) combines a forward
//! single-source run from `u` with a *reverse* run from `u` on the transposed
//! adjacency (giving `d(·, u)` for all sources).
//!
//! Every entry point runs one relaxation loop, over out-edges (forward) or
//! in-edges (reverse), recording distances only ([`distances_from`] and
//! [`distances_to`], which back the metric oracles' rows) or tree parents
//! too.  Its queue is a monotone radix heap.  Each tree-edge port is looked
//! up once after the loop from the node's final parent (`parent → v`
//! forward, `v → parent` reverse); the edge is unique because the builder
//! rejects duplicates.  No output depends on the order in which equal keys
//! pop: distances are unique, and a node's parent is its smallest-id
//! predecessor on a shortest path.  Weights are positive, so every such
//! predecessor has a strictly smaller distance and relaxes the node before
//! it settles — also in a run that stops once its targets have settled
//! ([`dijkstra_to_targets`]).

use crate::graph::DiGraph;
use crate::types::{Distance, NodeId, Port, Weight, INFINITY};

/// The result of a single-source (or single-sink) shortest path computation.
///
/// For a *forward* run from root `r`, `dist[v] = d(r, v)` and `parent[v]` is
/// the predecessor of `v` on a shortest `r → v` path (so following parents
/// from `v` leads back to `r`). `parent_port[v]` is the fixed-port label of
/// the edge `parent[v] → v` at `parent[v]` — exactly what a routing table
/// needs to store to forward *away* from the root along the tree.
///
/// For a *reverse* run (single sink `r`), `dist[v] = d(v, r)` and `parent[v]`
/// is the successor of `v` on a shortest `v → r` path; `parent_port[v]` is the
/// port of the edge `v → parent[v]` at `v` — what `v` stores to forward
/// *toward* the root.
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    /// The root (forward) or sink (reverse) of the computation.
    pub root: NodeId,
    /// `dist[v]`: distance from the root to `v` (forward) or from `v` to the
    /// root (reverse). [`INFINITY`] when unreachable.
    pub dist: Vec<Distance>,
    /// Tree parent of each node (`None` for the root and unreachable nodes).
    pub parent: Vec<Option<NodeId>>,
    /// Port of the tree edge adjacent to the parent (forward) or to the node
    /// itself (reverse); see the struct docs.
    pub parent_port: Vec<Option<Port>>,
    /// True when this tree was produced by [`dijkstra_reverse`].
    pub reverse: bool,
}

impl ShortestPathTree {
    /// Distance to (or from) `v`.
    #[inline]
    pub fn distance(&self, v: NodeId) -> Distance {
        self.dist[v.index()]
    }

    /// Whether `v` is reachable from the root (forward) or reaches the root
    /// (reverse).
    #[inline]
    pub fn is_reachable(&self, v: NodeId) -> bool {
        self.dist[v.index()] != INFINITY
    }

    /// Reconstructs the node sequence of the tree path for `v`.
    ///
    /// Forward trees return the path `root → … → v`; reverse trees return the
    /// path `v → … → root`. Returns `None` if `v` is unreachable.
    pub fn path(&self, v: NodeId) -> Option<Vec<NodeId>> {
        if !self.is_reachable(v) {
            return None;
        }
        let mut seq = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent[cur.index()] {
            seq.push(p);
            cur = p;
        }
        debug_assert_eq!(cur, self.root);
        if !self.reverse {
            seq.reverse();
        }
        Some(seq)
    }

    /// Number of reachable nodes, including the root.
    pub fn reachable_count(&self) -> usize {
        self.dist.iter().filter(|&&d| d != INFINITY).count()
    }
}

/// Monotone radix heap of `(distance, node)` entries (Ahuja, Mehlhorn, Orlin
/// and Tarjan, 1990).
///
/// Dijkstra never pushes a key below the last key popped, so each key is
/// filed by the highest bit in which it differs from that key: bucket 0 holds
/// keys equal to it, bucket `i ≥ 1` keys whose highest differing bit is bit
/// `i − 1`.  A pop that finds bucket 0 empty takes the lowest non-empty
/// bucket's minimum as the new last key and refiles that bucket, every entry
/// landing strictly lower; so an entry moves at most 64 times, and pushes
/// are O(1).  Entries with equal keys pop in no particular order.
struct RadixHeap {
    last: Distance,
    buckets: [Vec<(Distance, NodeId)>; Distance::BITS as usize + 1],
}

impl RadixHeap {
    fn new() -> Self {
        RadixHeap { last: 0, buckets: std::array::from_fn(|_| Vec::new()) }
    }

    fn bucket(&self, key: Distance) -> usize {
        (Distance::BITS - (key ^ self.last).leading_zeros()) as usize
    }

    fn push(&mut self, key: Distance, node: NodeId) {
        debug_assert!(key >= self.last, "radix heap keys must not decrease");
        let b = self.bucket(key);
        self.buckets[b].push((key, node));
    }

    fn pop(&mut self) -> Option<(Distance, NodeId)> {
        if self.buckets[0].is_empty() {
            let i = self.buckets.iter().position(|b| !b.is_empty())?;
            let mut refile = std::mem::take(&mut self.buckets[i]);
            self.last = refile.iter().map(|&(key, _)| key).min().expect("bucket is non-empty");
            for &(key, node) in &refile {
                let b = self.bucket(key);
                self.buckets[b].push((key, node));
            }
            refile.clear();
            self.buckets[i] = refile; // keep the allocation
        }
        self.buckets[0].pop()
    }
}

/// The one relaxation loop behind every entry point of this module.
///
/// Fills `dist` (one slot per node) from `root`, along in-edges when
/// `reverse` and out-edges otherwise, relaxing only nodes that pass `filter`
/// (the root always settles).  With `parent` it also keeps each node's
/// smallest-id predecessor on a shortest path; with `targets` it stops once
/// every target has settled (see [`dijkstra_to_targets`]).
fn relax(
    g: &DiGraph,
    root: NodeId,
    reverse: bool,
    filter: Option<&dyn Fn(NodeId) -> bool>,
    targets: Option<&[NodeId]>,
    dist: &mut [Distance],
    mut parent: Option<&mut [Option<NodeId>]>,
) {
    let n = g.node_count();
    assert!(root.index() < n, "root out of range");
    assert_eq!(dist.len(), n, "one distance slot per node");
    // When a target set is given, count down distinct unsettled targets and
    // stop the loop at zero.
    let mut goal = targets.map(|ts| {
        let mut is_target = vec![false; n];
        for &t in ts {
            assert!(t.index() < n, "target out of range");
            is_target[t.index()] = true;
        }
        let remaining = is_target.iter().filter(|&&t| t).count();
        (is_target, remaining)
    });

    dist.fill(INFINITY);
    dist[root.index()] = 0;
    let mut heap = RadixHeap::new();
    heap.push(0, root);

    while goal.as_ref().is_none_or(|(_, remaining)| *remaining > 0) {
        let Some((d, u)) = heap.pop() else {
            break; // heap exhausted (or some targets unreachable)
        };
        // A node's keys are pushed strictly decreasing, so only the entry
        // equal to its distance is live.
        if d > dist[u.index()] {
            continue;
        }
        if let Some((is_target, remaining)) = goal.as_mut() {
            if is_target[u.index()] {
                *remaining -= 1;
            }
        }
        let mut relax_arc = |v: NodeId, weight: Weight| {
            if filter.is_some_and(|f| !f(v)) {
                return;
            }
            let (i, nd) = (v.index(), d.saturating_add(weight));
            let improved = nd < dist[i];
            if improved {
                dist[i] = nd;
                heap.push(nd, v);
            }
            // Ties go to the smaller parent id: repeated builds agree.
            if let Some(parent) = parent.as_deref_mut() {
                if improved || (nd == dist[i] && parent[i].is_some_and(|p| u < p)) {
                    parent[i] = Some(u);
                }
            }
        };
        if reverse {
            g.in_edges(u).iter().for_each(|&(v, weight)| relax_arc(v, weight));
        } else {
            g.out_edges(u).iter().for_each(|e| relax_arc(e.to, e.weight));
        }
    }
}

/// A [`relax`] run that records the tree.
fn shortest_path_tree(
    g: &DiGraph,
    root: NodeId,
    reverse: bool,
    filter: Option<&dyn Fn(NodeId) -> bool>,
    targets: Option<&[NodeId]>,
) -> ShortestPathTree {
    let n = g.node_count();
    let mut dist = vec![INFINITY; n];
    let mut parent = vec![None; n];
    relax(g, root, reverse, filter, targets, &mut dist, Some(&mut parent));
    let parent_port = g
        .nodes()
        .zip(&parent)
        .map(|(v, &p)| match p? {
            p if reverse => g.port_of_edge(v, p),
            p => g.port_of_edge(p, v),
        })
        .collect();
    ShortestPathTree { root, dist, parent, parent_port, reverse }
}

/// Forward Dijkstra from `source`, restricted to an optional node filter.
///
/// When `filter` is `Some(f)`, only nodes `v` with `f(v) == true` are relaxed
/// or settled (the source is always settled); this is used to build
/// shortest-path trees *inside a cluster* for the cover constructions of
/// paper §4, where paths must stay within the cluster's induced subgraph.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn dijkstra_filtered(
    g: &DiGraph,
    source: NodeId,
    filter: Option<&dyn Fn(NodeId) -> bool>,
) -> ShortestPathTree {
    shortest_path_tree(g, source, false, filter, None)
}

/// Forward Dijkstra from `source` over the whole graph.
pub fn dijkstra(g: &DiGraph, source: NodeId) -> ShortestPathTree {
    dijkstra_filtered(g, source, None)
}

/// Forward Dijkstra from `source` that terminates as soon as every node in
/// `targets` is settled, instead of running to completion.
///
/// For the targets themselves the result — `dist`, `parent` and
/// `parent_port` — is **bit-identical** to a full [`dijkstra`] run (see the
/// module docs). Entries of non-target nodes may be tentative (unreached
/// nodes stay at [`INFINITY`]); only read the targets.
///
/// This is the ball-port extraction fast path: a node's roundtrip ball holds
/// at most `O(√n)` members, so stopping at the last member skips most of the
/// graph on low-diameter instances.
///
/// # Panics
///
/// Panics if `source` or any target is out of range.
pub fn dijkstra_to_targets(g: &DiGraph, source: NodeId, targets: &[NodeId]) -> ShortestPathTree {
    shortest_path_tree(g, source, false, None, Some(targets))
}

/// Reverse (single-sink) Dijkstra: computes `d(v, sink)` for every `v`.
///
/// The relaxation walks the *in*-edges of the graph. For every node `v` the
/// resulting `parent[v]` is the next node after `v` on a shortest `v → sink`
/// path and `parent_port[v]` is the out-port of `v` leading to it — i.e. the
/// entry `v` stores to route toward the sink (the `InTree` of paper §3.2).
///
/// # Panics
///
/// Panics if `sink` is out of range.
pub fn dijkstra_reverse_filtered(
    g: &DiGraph,
    sink: NodeId,
    filter: Option<&dyn Fn(NodeId) -> bool>,
) -> ShortestPathTree {
    shortest_path_tree(g, sink, true, filter, None)
}

/// Reverse Dijkstra over the whole graph (see [`dijkstra_reverse_filtered`]).
pub fn dijkstra_reverse(g: &DiGraph, sink: NodeId) -> ShortestPathTree {
    dijkstra_reverse_filtered(g, sink, None)
}

/// `d(source, v)` for every `v` ([`INFINITY`] when unreachable): the `dist`
/// of [`dijkstra`], without recording a tree. Panics if `source` is out of
/// range.
pub fn distances_from(g: &DiGraph, source: NodeId) -> Vec<Distance> {
    let mut dist = vec![INFINITY; g.node_count()];
    distances_from_into(g, source, &mut dist);
    dist
}

/// [`distances_from`] written into `dist`, one caller-owned slot per node
/// (for example a row of a dense matrix). Panics if `source` is out of range
/// or `dist.len()` is not the node count.
pub fn distances_from_into(g: &DiGraph, source: NodeId, dist: &mut [Distance]) {
    relax(g, source, false, None, None, dist, None);
}

/// `d(v, sink)` for every `v` ([`INFINITY`] when `v` cannot reach `sink`):
/// the `dist` of [`dijkstra_reverse`], without recording a tree. Panics if
/// `sink` is out of range.
pub fn distances_to(g: &DiGraph, sink: NodeId) -> Vec<Distance> {
    let mut dist = vec![INFINITY; g.node_count()];
    relax(g, sink, true, None, None, &mut dist, None);
    dist
}

/// Computes the weight of the path described by the node sequence `path`.
///
/// Returns `None` if the sequence uses a missing edge or is empty.
pub fn path_weight(g: &DiGraph, path: &[NodeId]) -> Option<Weight> {
    if path.is_empty() {
        return None;
    }
    let mut total: Weight = 0;
    for w in path.windows(2) {
        total = total.checked_add(g.edge_weight(w[0], w[1])?)?;
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DiGraphBuilder;

    /// A small asymmetric strongly connected digraph used by several tests.
    ///
    /// Edges: 0→1 (1), 1→2 (2), 2→0 (4), 0→2 (10), 2→1 (1), 1→0 (7)
    fn asym() -> DiGraph {
        let mut b = DiGraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 2).unwrap();
        b.add_edge(NodeId(2), NodeId(0), 4).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 10).unwrap();
        b.add_edge(NodeId(2), NodeId(1), 1).unwrap();
        b.add_edge(NodeId(1), NodeId(0), 7).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn forward_distances() {
        let g = asym();
        let t = dijkstra(&g, NodeId(0));
        assert_eq!(t.distance(NodeId(0)), 0);
        assert_eq!(t.distance(NodeId(1)), 1);
        assert_eq!(t.distance(NodeId(2)), 3); // 0→1→2
    }

    #[test]
    fn reverse_distances() {
        let g = asym();
        let t = dijkstra_reverse(&g, NodeId(0));
        // d(1, 0): 1→2→0 = 6 vs 1→0 = 7 → 6
        assert_eq!(t.distance(NodeId(1)), 6);
        assert_eq!(t.distance(NodeId(2)), 4);
        assert_eq!(t.distance(NodeId(0)), 0);
    }

    #[test]
    fn forward_path_reconstruction() {
        let g = asym();
        let t = dijkstra(&g, NodeId(0));
        assert_eq!(t.path(NodeId(2)).unwrap(), vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(path_weight(&g, &t.path(NodeId(2)).unwrap()), Some(3));
    }

    #[test]
    fn reverse_path_reconstruction() {
        let g = asym();
        let t = dijkstra_reverse(&g, NodeId(0));
        // Path from 1 to 0 should be 1→2→0.
        assert_eq!(t.path(NodeId(1)).unwrap(), vec![NodeId(1), NodeId(2), NodeId(0)]);
        assert_eq!(path_weight(&g, &t.path(NodeId(1)).unwrap()), Some(6));
    }

    #[test]
    fn reverse_parent_ports_point_along_path() {
        let g = asym();
        let t = dijkstra_reverse(&g, NodeId(0));
        // Node 1's next hop toward 0 is node 2; the stored port must label
        // edge (1, 2) at node 1.
        let port = t.parent_port[1].unwrap();
        let e = g.edge_by_port(NodeId(1), port).unwrap();
        assert_eq!(e.to, NodeId(2));
    }

    #[test]
    fn forward_parent_ports_label_parent_edges() {
        let g = asym();
        let t = dijkstra(&g, NodeId(0));
        // Node 2's parent is 1; parent_port must label edge (1, 2) at node 1.
        assert_eq!(t.parent[2], Some(NodeId(1)));
        let e = g.edge_by_port(NodeId(1), t.parent_port[2].unwrap()).unwrap();
        assert_eq!(e.to, NodeId(2));
    }

    #[test]
    fn unreachable_nodes_get_infinity() {
        let mut b = DiGraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        // Node 2 unreachable from 0.
        b.add_edge(NodeId(2), NodeId(0), 1).unwrap();
        let g = b.build().unwrap();
        let t = dijkstra(&g, NodeId(0));
        assert!(!t.is_reachable(NodeId(2)));
        assert_eq!(t.path(NodeId(2)), None);
        assert_eq!(t.reachable_count(), 2);
    }

    #[test]
    fn filtered_dijkstra_respects_the_filter() {
        let g = asym();
        // Forbid node 1: distance 0→2 must use the direct edge of weight 10.
        let allowed = |v: NodeId| v != NodeId(1);
        let t = dijkstra_filtered(&g, NodeId(0), Some(&allowed));
        assert_eq!(t.distance(NodeId(2)), 10);
        assert_eq!(t.distance(NodeId(1)), INFINITY);
    }

    #[test]
    fn filtered_reverse_dijkstra_respects_the_filter() {
        let g = asym();
        let allowed = |v: NodeId| v != NodeId(2);
        let t = dijkstra_reverse_filtered(&g, NodeId(0), Some(&allowed));
        // d(1, 0) avoiding 2: direct edge weight 7.
        assert_eq!(t.distance(NodeId(1)), 7);
    }

    #[test]
    fn path_weight_rejects_non_paths() {
        let g = asym();
        assert_eq!(path_weight(&g, &[]), None);
        assert_eq!(path_weight(&g, &[NodeId(0), NodeId(0)]), None);
        assert_eq!(path_weight(&g, &[NodeId(0)]), Some(0));
    }

    #[test]
    fn bounded_run_handles_unreachable_targets() {
        let mut b = DiGraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        b.add_edge(NodeId(2), NodeId(0), 1).unwrap();
        let g = b.build().unwrap();
        let t = dijkstra_to_targets(&g, NodeId(0), &[NodeId(1), NodeId(2)]);
        assert_eq!(t.distance(NodeId(1)), 1);
        assert!(!t.is_reachable(NodeId(2)));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        // Property behind the ball-port fast path: for any graph family,
        // source and target set, the early-terminating run is bit-identical
        // to the full run on every target (distances, parents, ports).
        #[test]
        fn bounded_dijkstra_matches_full_run_on_targets(
            seed in 0u64..1000,
            n in 8usize..40,
            target_count in 1usize..12,
        ) {
            use crate::generators::Family;
            let family = Family::ALL[(seed % Family::ALL.len() as u64) as usize];
            let g = family.generate(n, seed).unwrap();
            let n = g.node_count();
            let source = NodeId::from_index(seed as usize % n);
            // A deterministic pseudo-random target set (duplicates allowed on
            // purpose: the bounded run must tolerate them).
            let targets: Vec<NodeId> = (0..target_count)
                .map(|i| NodeId::from_index((seed as usize * 31 + i * 17) % n))
                .collect();
            let full = dijkstra(&g, source);
            let bounded = dijkstra_to_targets(&g, source, &targets);
            for &t in &targets {
                proptest::prop_assert_eq!(bounded.distance(t), full.distance(t));
                proptest::prop_assert_eq!(bounded.parent[t.index()], full.parent[t.index()]);
                proptest::prop_assert_eq!(
                    bounded.parent_port[t.index()],
                    full.parent_port[t.index()]
                );
                proptest::prop_assert_eq!(bounded.path(t), full.path(t));
            }
        }
    }

    /// The binary-heap loops this module ran before its radix-heap core,
    /// kept as the reference every entry point must match bit for bit.
    mod reference {
        use crate::algo::dijkstra::ShortestPathTree;
        use crate::graph::DiGraph;
        use crate::types::{NodeId, Port, INFINITY};
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        pub fn forward(
            g: &DiGraph,
            source: NodeId,
            filter: Option<&dyn Fn(NodeId) -> bool>,
            targets: Option<&[NodeId]>,
        ) -> ShortestPathTree {
            let n = g.node_count();
            let mut goal = targets.map(|ts| {
                let mut is_target = vec![false; n];
                let mut remaining = 0usize;
                for &t in ts {
                    if !is_target[t.index()] {
                        is_target[t.index()] = true;
                        remaining += 1;
                    }
                }
                (is_target, remaining)
            });
            let mut dist = vec![INFINITY; n];
            let mut parent: Vec<Option<NodeId>> = vec![None; n];
            let mut parent_port: Vec<Option<Port>> = vec![None; n];
            let mut settled = vec![false; n];
            let mut heap = BinaryHeap::new();
            dist[source.index()] = 0;
            heap.push(Reverse((0, source.0)));
            while goal.as_ref().is_none_or(|(_, remaining)| *remaining > 0) {
                let Some(Reverse((d, u_raw))) = heap.pop() else {
                    break;
                };
                let u = NodeId(u_raw);
                if settled[u.index()] || d > dist[u.index()] {
                    continue;
                }
                settled[u.index()] = true;
                if let Some((is_target, remaining)) = goal.as_mut() {
                    if is_target[u.index()] {
                        *remaining -= 1;
                    }
                }
                for e in g.out_edges(u) {
                    let v = e.to;
                    if filter.is_some_and(|f| !f(v)) {
                        continue;
                    }
                    let nd = d.saturating_add(e.weight);
                    if nd < dist[v.index()] {
                        dist[v.index()] = nd;
                        parent[v.index()] = Some(u);
                        parent_port[v.index()] = Some(e.port);
                        heap.push(Reverse((nd, v.0)));
                    } else if nd == dist[v.index()] {
                        if let Some(p) = parent[v.index()] {
                            if u < p {
                                parent[v.index()] = Some(u);
                                parent_port[v.index()] = Some(e.port);
                            }
                        }
                    }
                }
            }
            ShortestPathTree { root: source, dist, parent, parent_port, reverse: false }
        }

        pub fn reverse(
            g: &DiGraph,
            sink: NodeId,
            filter: Option<&dyn Fn(NodeId) -> bool>,
        ) -> ShortestPathTree {
            let n = g.node_count();
            let mut dist = vec![INFINITY; n];
            let mut parent: Vec<Option<NodeId>> = vec![None; n];
            let mut parent_port: Vec<Option<Port>> = vec![None; n];
            let mut settled = vec![false; n];
            let mut heap = BinaryHeap::new();
            dist[sink.index()] = 0;
            heap.push(Reverse((0, sink.0)));
            while let Some(Reverse((d, u_raw))) = heap.pop() {
                let u = NodeId(u_raw);
                if settled[u.index()] || d > dist[u.index()] {
                    continue;
                }
                settled[u.index()] = true;
                for &(w, weight) in g.in_edges(u) {
                    if filter.is_some_and(|f| !f(w)) {
                        continue;
                    }
                    let nd = d.saturating_add(weight);
                    if nd < dist[w.index()] {
                        dist[w.index()] = nd;
                        parent[w.index()] = Some(u);
                        parent_port[w.index()] = g.port_of_edge(w, u);
                        heap.push(Reverse((nd, w.0)));
                    } else if nd == dist[w.index()] {
                        if let Some(p) = parent[w.index()] {
                            if u < p {
                                parent[w.index()] = Some(u);
                                parent_port[w.index()] = g.port_of_edge(w, u);
                            }
                        }
                    }
                }
            }
            ShortestPathTree { root: sink, dist, parent, parent_port, reverse: true }
        }
    }

    fn assert_same_tree(got: &ShortestPathTree, want: &ShortestPathTree, what: &str) {
        assert_eq!(got.root, want.root, "{what}: root");
        assert_eq!(got.reverse, want.reverse, "{what}: direction");
        assert_eq!(got.dist, want.dist, "{what}: dist");
        assert_eq!(got.parent, want.parent, "{what}: parent");
        assert_eq!(got.parent_port, want.parent_port, "{what}: parent_port");
    }

    /// Every public entry point from `root` against the reference loops:
    /// whole trees for the full runs (plain and filtered, both directions),
    /// whole rows for the distance-only runs, and every target of a bounded
    /// run.
    fn assert_matches_reference(g: &DiGraph, root: NodeId, salt: u64) {
        let n = g.node_count();
        let keep = |v: NodeId| !(v.index() as u64 * 7 + salt).is_multiple_of(5);
        assert_same_tree(&dijkstra(g, root), &reference::forward(g, root, None, None), "forward");
        assert_same_tree(&dijkstra_reverse(g, root), &reference::reverse(g, root, None), "reverse");
        assert_same_tree(
            &dijkstra_filtered(g, root, Some(&keep)),
            &reference::forward(g, root, Some(&keep), None),
            "filtered forward",
        );
        assert_same_tree(
            &dijkstra_reverse_filtered(g, root, Some(&keep)),
            &reference::reverse(g, root, Some(&keep)),
            "filtered reverse",
        );
        assert_eq!(distances_from(g, root), reference::forward(g, root, None, None).dist);
        assert_eq!(distances_to(g, root), reference::reverse(g, root, None).dist);
        let targets: Vec<NodeId> = (0..1 + salt as usize % 9)
            .map(|i| NodeId::from_index((salt as usize + i * 13) % n))
            .collect();
        let bounded = dijkstra_to_targets(g, root, &targets);
        let want = reference::forward(g, root, None, Some(&targets));
        for &t in &targets {
            assert_eq!(bounded.dist[t.index()], want.dist[t.index()], "bounded dist of {t}");
            assert_eq!(bounded.parent[t.index()], want.parent[t.index()], "bounded parent of {t}");
            assert_eq!(
                bounded.parent_port[t.index()],
                want.parent_port[t.index()],
                "bounded port of {t}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(12))]

        // The radix-heap core against the binary-heap reference: every
        // family, several roots per graph, and a weighted ring whose chords
        // weigh up to 2^40 so that distances reach the heap's high buckets.
        #[test]
        fn every_entry_point_matches_the_binary_heap_reference(
            seed in 0u64..1000,
            n in 8usize..60,
        ) {
            use crate::generators::{ring_with_chords_weighted, Family, WeightRange};
            let mut graphs: Vec<DiGraph> =
                Family::ALL.iter().map(|f| f.generate(n, seed).unwrap()).collect();
            graphs.push(
                ring_with_chords_weighted(
                    n,
                    n,
                    seed,
                    WeightRange::new(1, 1 << 20),
                    WeightRange::new(1, 1 << 40),
                )
                .unwrap(),
            );
            for g in &graphs {
                for i in 0..3 {
                    let root = NodeId::from_index((seed as usize + i * 11) % g.node_count());
                    assert_matches_reference(g, root, seed + i as u64);
                }
            }
        }
    }

    /// A small xorshift stream for the heap tests.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn radix_heap_empty_pops_none() {
        let mut heap = RadixHeap::new();
        assert_eq!(heap.pop(), None);
        heap.push(3, NodeId(1));
        assert_eq!(heap.pop(), Some((3, NodeId(1))));
        assert_eq!(heap.pop(), None);
    }

    #[test]
    fn radix_heap_interleaved_pops_are_the_minimum_and_never_decrease() {
        // Checked against a binary heap of the same keys; pushes stay at or
        // above the last key popped, as in Dijkstra, with gaps of every
        // width from 0 to 2^62.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut heap = RadixHeap::new();
        let mut keys = std::collections::BinaryHeap::new();
        let mut last = 0;
        for step in 0..20_000u32 {
            if !xorshift(&mut state).is_multiple_of(3) || keys.is_empty() {
                let gap = xorshift(&mut state) >> (2 + xorshift(&mut state) % 62);
                heap.push(last + gap, NodeId(step));
                keys.push(std::cmp::Reverse(last + gap));
            } else {
                let (key, _) = heap.pop().unwrap();
                assert_eq!(key, keys.pop().unwrap().0, "popped key is not the minimum");
                assert!(key >= last, "pops decreased: {key} < {last}");
                last = key;
            }
        }
        while let Some((key, _)) = heap.pop() {
            assert_eq!(key, keys.pop().unwrap().0);
            assert!(key >= last);
            last = key;
        }
        assert!(keys.is_empty());
    }

    #[test]
    fn radix_heap_returns_every_entry_of_many_equal_keys() {
        let mut heap = RadixHeap::new();
        heap.push(1, NodeId(0));
        for v in 1..1000 {
            heap.push(if v % 2 == 0 { 1 << 40 } else { u64::MAX - 1 }, NodeId(v));
        }
        let popped: Vec<(Distance, NodeId)> = std::iter::from_fn(|| heap.pop()).collect();
        assert_eq!(popped[0], (1, NodeId(0)));
        let (even, odd) = popped[1..].split_at(499);
        assert!(even.iter().all(|&(k, v)| k == 1 << 40 && v.0 % 2 == 0));
        assert!(odd.iter().all(|&(k, v)| k == u64::MAX - 1 && v.0 % 2 == 1));
        let mut nodes: Vec<u32> = popped.iter().map(|&(_, v)| v.0).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn forward_and_reverse_agree_on_pairs() {
        let g = asym();
        for u in g.nodes() {
            let fwd = dijkstra(&g, u);
            for v in g.nodes() {
                let rev = dijkstra_reverse(&g, v);
                assert_eq!(fwd.distance(v), rev.distance(u), "d({u},{v}) mismatch");
            }
        }
    }

    #[test]
    fn deterministic_under_repeated_runs() {
        let g = asym();
        let a = dijkstra(&g, NodeId(2));
        let b = dijkstra(&g, NodeId(2));
        assert_eq!(a.dist, b.dist);
        assert_eq!(a.parent, b.parent);
    }
}
