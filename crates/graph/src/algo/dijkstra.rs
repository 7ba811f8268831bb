//! Single-source shortest paths (Dijkstra) in forward and reverse direction.
//!
//! Both directions are needed throughout the reproduction: the roundtrip
//! distance `r(u,v) = d(u,v) + d(v,u)` (paper §1.1) combines a forward
//! single-source run from `u` with a *reverse* run from `u` on the transposed
//! adjacency (giving `d(·, u)` for all sources).
//!
//! Every entry point runs one relaxation loop, over out-edges (forward) or
//! in-edges (reverse).  It runs over the whole graph ([`dijkstra`],
//! [`dijkstra_reverse`], and the distance-only [`distances_from`] and
//! [`distances_to`] that back the metric oracles' rows), or inside the
//! subgraph induced by a sorted member list ([`dijkstra_within`],
//! [`dijkstra_reverse_within`]), whose arrays are sized by the member count
//! and indexed by each member's position in the list.  The loop stops once
//! every slot is settled, or when its queue runs dry.
//!
//! The queue follows the graph's weights.  When [`DiGraph::max_weight`] is
//! below the ring limit (`RING_LIMIT`, 4096) it is Dial's bucket ring: one
//! bucket of node ids per distance, a power of two of them covering
//! `max_weight + 1` consecutive distances, so every entry is filed once and
//! popped by walking the ring.  The walk may pass at most `2 · (n + m)` empty
//! buckets (`SCAN_BUDGET`); a run that needs more (a graph whose distances
//! are sparse against its size, such as a chordless ring of heavy edges)
//! hands its filed entries to a radix heap, which finishes the run, so no
//! graph pays a scan per distance value.  At or above the limit the queue is
//! a monotone radix heap from the start, which handles any weight.  The ring
//! and its radix heap live in per-thread scratch and are reused run after
//! run; a run that finds the ring holding entries (left by a run that
//! stopped once every slot settled, or panicked) empties it first.
//!
//! Each tree-edge port is looked up once after the loop from the node's final
//! parent (`parent → v` forward, `v → parent` reverse); the edge is unique
//! because the builder rejects duplicates.  No output depends on the queue
//! or on the order in which equal keys pop: distances are unique, and a
//! node's parent is its smallest-id predecessor on a shortest path.  Weights
//! are positive, so every such predecessor has a strictly smaller distance
//! and relaxes the node before it settles; for the same reason the last node
//! to settle relaxes nothing, which is why the loop may stop there.  That
//! rule also lets a caller holding a forward distance row recover any node's
//! parent without a run: it is the smallest-id in-neighbour `y` with
//! `d(y) + w(y, x) = d(x)`.

use crate::graph::DiGraph;
use crate::types::{Distance, NodeId, Port, Weight, INFINITY};
use std::cell::RefCell;

/// Graphs whose [`DiGraph::max_weight`] is below this run on the bucket
/// ring; the others on the radix heap.  A power of two: the per-thread ring
/// holds this many buckets.
const RING_LIMIT: Weight = 4096;

/// Empty buckets a ring run may pass, per node and per edge of the graph,
/// before it hands its entries to the radix heap.
const SCAN_BUDGET: usize = 2;

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

/// A [`ShortestPathTree`] inside the subgraph induced by a sorted member
/// list ([`dijkstra_within`], [`dijkstra_reverse_within`]): `dist[i]`,
/// `parent[i]` and `parent_port[i]` describe `members[i]`.
#[derive(Debug, Clone)]
pub struct MemberPathTree<'m> {
    /// The members, sorted: the run's node set and its array order.
    pub members: &'m [NodeId],
    /// Distance from the root (forward) or to the root (reverse) inside the
    /// member subgraph; [`INFINITY`] when unreachable there.
    pub dist: Vec<Distance>,
    /// Tree parent of each member (`None` for the root and unreachable
    /// members).
    pub parent: Vec<Option<NodeId>>,
    /// Port of each tree edge, as in [`ShortestPathTree::parent_port`].
    pub parent_port: Vec<Option<Port>>,
}

impl MemberPathTree<'_> {
    /// Distance to (or from) `v`; [`INFINITY`] for non-members.
    pub fn distance(&self, v: NodeId) -> Distance {
        self.members.binary_search(&v).map_or(INFINITY, |i| self.dist[i])
    }
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

/// A priority queue of `(distance, node)` entries for the relaxation loop.
/// Dijkstra never pushes a key below the last key popped.
trait MonotoneQueue {
    fn push(&mut self, key: Distance, node: NodeId);

    /// An entry with the smallest key, or `None` once the queue is empty.
    fn pop(&mut self) -> Option<(Distance, NodeId)>;
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
    const fn new() -> Self {
        RadixHeap { last: 0, buckets: [const { Vec::new() }; Distance::BITS as usize + 1] }
    }

    /// Empties the heap, keeping its allocations, for keys from `last` on.
    fn restart_at(&mut self, last: Distance) {
        self.buckets.iter_mut().for_each(Vec::clear);
        self.last = last;
    }

    fn bucket(&self, key: Distance) -> usize {
        (Distance::BITS - (key ^ self.last).leading_zeros()) as usize
    }
}

impl MonotoneQueue for RadixHeap {
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

/// Dial's bucket ring (see the module docs): bucket `key & mask` holds the
/// nodes filed at `key`, and every filed key lies in `cur ..= cur + mask`,
/// so a bucket's key is always known from the walk position `cur`.  When
/// the walk has spent its budget the ring spills every entry into its radix
/// heap (`overflow`), which serves the rest of the run.
struct BucketRing {
    /// [`RING_LIMIT`] buckets once the thread's first ring run allocates
    /// them; a run uses the first `mask + 1`.
    buckets: Vec<Vec<NodeId>>,
    mask: usize,
    cur: Distance,
    /// Entries filed in the buckets and not yet popped.
    len: usize,
    /// Empty buckets the walk may still pass.
    budget: usize,
    overflow: RadixHeap,
    spilled: bool,
}

thread_local! {
    static RING: RefCell<BucketRing> = const {
        RefCell::new(BucketRing {
            buckets: Vec::new(),
            mask: 0,
            cur: 0,
            len: 0,
            budget: 0,
            overflow: RadixHeap::new(),
            spilled: false,
        })
    };
}

impl BucketRing {
    /// Readies the ring for a run on `g`, whose largest weight is below
    /// [`RING_LIMIT`]: empties the buckets an earlier run left filled (one
    /// that stopped once every node settled, or panicked), then sizes the
    /// window to `max_weight + 1` keys and the walk to the scan budget.
    fn start(&mut self, g: &DiGraph) {
        // Every entry left behind lies within one lap of `cur`.
        let mut at = self.cur as usize;
        while self.len > 0 {
            let bucket = &mut self.buckets[at & self.mask];
            self.len -= bucket.len();
            bucket.clear();
            at += 1;
        }
        if self.buckets.is_empty() {
            self.buckets.resize_with(RING_LIMIT as usize, Vec::new);
        }
        self.mask = (g.max_weight() as usize + 1).next_power_of_two() - 1;
        self.cur = 0;
        self.budget = SCAN_BUDGET * (g.node_count() + g.edge_count());
        self.spilled = false;
    }

    /// Moves every filed entry, with its key, into the emptied radix heap.
    #[cold]
    #[inline(never)]
    fn spill(&mut self) {
        self.overflow.restart_at(self.cur);
        let mut key = self.cur;
        while self.len > 0 {
            let bucket = &mut self.buckets[key as usize & self.mask];
            self.len -= bucket.len();
            for node in bucket.drain(..) {
                self.overflow.push(key, node);
            }
            key += 1;
        }
        self.spilled = true;
    }

    // The spilled paths stay out of line, so that the ring's own push and
    // pop are small enough to inline into the relaxation loop.

    #[cold]
    #[inline(never)]
    fn push_spilled(&mut self, key: Distance, node: NodeId) {
        self.overflow.push(key, node);
    }

    #[cold]
    #[inline(never)]
    fn pop_spilled(&mut self) -> Option<(Distance, NodeId)> {
        self.overflow.pop()
    }
}

impl MonotoneQueue for BucketRing {
    fn push(&mut self, key: Distance, node: NodeId) {
        if self.spilled {
            return self.push_spilled(key, node);
        }
        debug_assert!(key >= self.cur && key - self.cur <= self.mask as Distance);
        self.buckets[key as usize & self.mask].push(node);
        self.len += 1;
    }

    fn pop(&mut self) -> Option<(Distance, NodeId)> {
        if self.spilled {
            return self.pop_spilled();
        }
        if self.len == 0 {
            return None;
        }
        loop {
            if let Some(node) = self.buckets[self.cur as usize & self.mask].pop() {
                self.len -= 1;
                return Some((self.cur, node));
            }
            if self.budget == 0 {
                self.spill();
                return self.pop_spilled();
            }
            self.budget -= 1;
            self.cur += 1;
        }
    }
}

/// Fills `dist` from `root`, along in-edges when `reverse` and out-edges
/// otherwise, on the queue the module docs name.  `slot` gives the entry of
/// `dist` (and `parent`) that a node occupies — its index, or its position
/// in a sorted member list — and `None` for nodes the run must not use; the
/// root must have one.  `dist` arrives all [`INFINITY`] and `parent`, when
/// given, all `None`; with `parent` the run also keeps each node's
/// smallest-id predecessor on a shortest path.
fn relax(
    g: &DiGraph,
    root: NodeId,
    reverse: bool,
    slot: impl Fn(NodeId) -> Option<usize>,
    dist: &mut [Distance],
    parent: Option<&mut [Option<NodeId>]>,
) {
    assert!(root.index() < g.node_count(), "root out of range");
    if g.max_weight() < RING_LIMIT {
        RING.with_borrow_mut(|ring| {
            ring.start(g);
            relax_on(ring, g, root, reverse, slot, dist, parent);
        });
    } else {
        relax_on(&mut RadixHeap::new(), g, root, reverse, slot, dist, parent);
    }
}

/// The one relaxation loop behind every entry point of this module, on
/// either queue (see [`relax`]).  It stops once every slot is settled, or
/// when the queue runs dry.
fn relax_on(
    queue: &mut impl MonotoneQueue,
    g: &DiGraph,
    root: NodeId,
    reverse: bool,
    slot: impl Fn(NodeId) -> Option<usize>,
    dist: &mut [Distance],
    mut parent: Option<&mut [Option<NodeId>]>,
) {
    queue.push(0, root);
    dist[slot(root).expect("the root is a member")] = 0;
    let mut unsettled = dist.len();
    while let Some((d, u)) = queue.pop() {
        // A node's keys are pushed strictly decreasing, so only the entry
        // equal to its distance is live.
        if d > dist[slot(u).expect("only nodes with a slot are pushed")] {
            continue;
        }
        unsettled -= 1;
        if unsettled == 0 {
            // Every other node settled no later, so `u`'s arcs can neither
            // shorten a distance nor tie one.
            return;
        }
        let mut relax_arc = |v: NodeId, weight: Weight| {
            let Some(i) = slot(v) else {
                return;
            };
            let nd = d.saturating_add(weight);
            let improved = nd < dist[i];
            if improved {
                dist[i] = nd;
                queue.push(nd, v);
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

/// A [`relax`] run over `nodes` (in slot order) that records the tree: per
/// slot, the distance, the parent and the tree edge's port, looked up once
/// from the final parent.
fn tree_arrays(
    g: &DiGraph,
    root: NodeId,
    reverse: bool,
    nodes: impl ExactSizeIterator<Item = NodeId>,
    slot: impl Fn(NodeId) -> Option<usize>,
) -> (Vec<Distance>, Vec<Option<NodeId>>, Vec<Option<Port>>) {
    let mut dist = vec![INFINITY; nodes.len()];
    let mut parent = vec![None; nodes.len()];
    relax(g, root, reverse, slot, &mut dist, Some(&mut parent));
    let parent_port = nodes
        .zip(&parent)
        .map(|(v, &p)| match p? {
            p if reverse => g.port_of_edge(v, p),
            p => g.port_of_edge(p, v),
        })
        .collect();
    (dist, parent, parent_port)
}

/// The slot of `v` in a whole-graph run: its index.
fn node_slot(v: NodeId) -> Option<usize> {
    Some(v.index())
}

fn shortest_path_tree(g: &DiGraph, root: NodeId, reverse: bool) -> ShortestPathTree {
    let (dist, parent, parent_port) = tree_arrays(g, root, reverse, g.nodes(), node_slot);
    ShortestPathTree { root, dist, parent, parent_port, reverse }
}

fn member_path_tree<'m>(
    g: &DiGraph,
    root: NodeId,
    reverse: bool,
    members: &'m [NodeId],
) -> MemberPathTree<'m> {
    assert!(members.windows(2).all(|w| w[0] < w[1]), "members must be sorted and distinct");
    let slot = |v| members.binary_search(&v).ok();
    let (dist, parent, parent_port) = tree_arrays(g, root, reverse, members.iter().copied(), slot);
    MemberPathTree { members, dist, parent, parent_port }
}

/// Forward Dijkstra from `source` over the whole graph.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn dijkstra(g: &DiGraph, source: NodeId) -> ShortestPathTree {
    shortest_path_tree(g, source, false)
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
pub fn dijkstra_reverse(g: &DiGraph, sink: NodeId) -> ShortestPathTree {
    shortest_path_tree(g, sink, true)
}

/// [`dijkstra`] inside the subgraph induced by `members`: paths may not
/// leave it, and the result's arrays hold one entry per member.  This builds
/// shortest-path trees *inside a cluster* for the cover constructions of
/// paper §4, at the cost of the cluster rather than of the graph.
///
/// # Panics
///
/// Panics if `members` is not sorted and free of duplicates, or does not
/// contain `source`.
pub fn dijkstra_within<'m>(
    g: &DiGraph,
    source: NodeId,
    members: &'m [NodeId],
) -> MemberPathTree<'m> {
    member_path_tree(g, source, false, members)
}

/// [`dijkstra_reverse`] inside the subgraph induced by `members` (see
/// [`dijkstra_within`]).
///
/// # Panics
///
/// Panics if `members` is not sorted and free of duplicates, or does not
/// contain `sink`.
pub fn dijkstra_reverse_within<'m>(
    g: &DiGraph,
    sink: NodeId,
    members: &'m [NodeId],
) -> MemberPathTree<'m> {
    member_path_tree(g, sink, true, members)
}

/// `d(source, v)` for every `v` ([`INFINITY`] when unreachable): the `dist`
/// of [`dijkstra`], without recording a tree. Panics if `source` is out of
/// range.
pub fn distances_from(g: &DiGraph, source: NodeId) -> Vec<Distance> {
    let mut dist = vec![INFINITY; g.node_count()];
    relax(g, source, false, node_slot, &mut dist, None);
    dist
}

/// [`distances_from`] written into `dist`, one caller-owned slot per node
/// (for example a row of a dense matrix). Panics if `source` is out of range
/// or `dist.len()` is not the node count.
pub fn distances_from_into(g: &DiGraph, source: NodeId, dist: &mut [Distance]) {
    assert_eq!(dist.len(), g.node_count(), "one distance slot per node");
    dist.fill(INFINITY);
    relax(g, source, false, node_slot, dist, None);
}

/// `d(v, sink)` for every `v` ([`INFINITY`] when `v` cannot reach `sink`):
/// the `dist` of [`dijkstra_reverse`], without recording a tree. Panics if
/// `sink` is out of range.
pub fn distances_to(g: &DiGraph, sink: NodeId) -> Vec<Distance> {
    let mut dist = vec![INFINITY; g.node_count()];
    relax(g, sink, true, node_slot, &mut dist, None);
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
        // Leave node 1 out: distance 0→2 must use the direct edge of weight 10.
        let members = [NodeId(0), NodeId(2)];
        let t = dijkstra_within(&g, NodeId(0), &members);
        assert_eq!(t.distance(NodeId(2)), 10);
        assert_eq!(t.distance(NodeId(1)), INFINITY);
    }

    #[test]
    fn filtered_reverse_dijkstra_respects_the_filter() {
        let g = asym();
        let members = [NodeId(0), NodeId(1)];
        let t = dijkstra_reverse_within(&g, NodeId(0), &members);
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

    /// The binary-heap loops this module ran before its monotone queues,
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
        ) -> ShortestPathTree {
            let n = g.node_count();
            let mut dist = vec![INFINITY; n];
            let mut parent: Vec<Option<NodeId>> = vec![None; n];
            let mut parent_port: Vec<Option<Port>> = vec![None; n];
            let mut settled = vec![false; n];
            let mut heap = BinaryHeap::new();
            dist[source.index()] = 0;
            heap.push(Reverse((0, source.0)));
            while let Some(Reverse((d, u_raw))) = heap.pop() {
                let u = NodeId(u_raw);
                if settled[u.index()] || d > dist[u.index()] {
                    continue;
                }
                settled[u.index()] = true;
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

    /// A member-restricted run against the reference run filtered to the
    /// same members, member by member.
    fn assert_same_member_tree(got: &MemberPathTree<'_>, want: &ShortestPathTree, what: &str) {
        assert_eq!(got.dist.len(), got.members.len(), "{what}: one entry per member");
        for (i, &v) in got.members.iter().enumerate() {
            assert_eq!(got.dist[i], want.dist[v.index()], "{what}: dist of {v}");
            assert_eq!(got.parent[i], want.parent[v.index()], "{what}: parent of {v}");
            assert_eq!(got.parent_port[i], want.parent_port[v.index()], "{what}: port of {v}");
        }
    }

    /// Every public entry point from `root` against the reference loops:
    /// whole trees for the full runs, every member of the member-restricted
    /// runs (both directions), and whole rows for the distance-only runs.
    fn assert_matches_reference(g: &DiGraph, root: NodeId, salt: u64) {
        let keep = |v: NodeId| v == root || !(v.index() as u64 * 7 + salt).is_multiple_of(5);
        let members: Vec<NodeId> = g.nodes().filter(|&v| keep(v)).collect();
        assert_same_tree(&dijkstra(g, root), &reference::forward(g, root, None), "forward");
        assert_same_tree(&dijkstra_reverse(g, root), &reference::reverse(g, root, None), "reverse");
        assert_same_member_tree(
            &dijkstra_within(g, root, &members),
            &reference::forward(g, root, Some(&keep)),
            "member forward",
        );
        assert_same_member_tree(
            &dijkstra_reverse_within(g, root, &members),
            &reference::reverse(g, root, Some(&keep)),
            "member reverse",
        );
        assert_eq!(distances_from(g, root), reference::forward(g, root, None).dist);
        assert_eq!(distances_to(g, root), reference::reverse(g, root, None).dist);
    }

    /// Whether the last ring run on this thread spent its scan budget and
    /// finished on the radix heap.
    fn ring_spilled() -> bool {
        RING.with_borrow(|ring| ring.spilled)
    }

    /// A ring of `n` nodes weighted 1–16 with `n` chords weighing from half
    /// the ring limit up to `top`, one of them exactly `top`: many shortest
    /// paths take a chord heavier than half the ring limit, yet distances
    /// stay dense enough for a ring run to finish within its scan budget.
    fn heavy_chord_ring(n: usize, seed: u64, top: Weight) -> DiGraph {
        use crate::generators::{ring_with_chords_weighted, WeightRange};
        let chords = WeightRange::new(RING_LIMIT / 2, top);
        let mut g = ring_with_chords_weighted(n, n, seed, WeightRange::new(1, 16), chords).unwrap();
        let (u, v) = g
            .nodes()
            .find_map(|u| g.out_edges(u).iter().find(|e| e.weight > 16).map(|e| (u, e.to)))
            .expect("the ring has chords");
        g.set_edge_weight(u, v, top);
        assert_eq!(g.max_weight(), top);
        g
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(12))]

        // Both queues against the binary-heap reference: every family,
        // several roots per graph, a weighted ring whose chords weigh up to
        // 2^40 so that distances reach the radix heap's high buckets, and
        // three rings at the switch between the queues: heavy chords one
        // below the ring limit (the ring, with its widest window), heavy
        // chords at the limit (the radix heap), and a chordless ring weighted
        // just below the limit, whose runs spend their scan budget and finish
        // on the radix heap.
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
            let below = heavy_chord_ring(600 + n, seed, RING_LIMIT - 1);
            let at = heavy_chord_ring(600 + n, seed, RING_LIMIT);
            let chordless = ring_with_chords_weighted(
                n,
                0,
                seed,
                WeightRange::new(RING_LIMIT - 96, RING_LIMIT - 1),
                WeightRange::unit(),
            )
            .unwrap();
            let root = NodeId::from_index(seed as usize % n);
            distances_from(&below, root);
            proptest::prop_assert!(!ring_spilled(), "the ring finishes below the limit");
            distances_from(&chordless, root);
            proptest::prop_assert!(ring_spilled(), "the chordless ring spends its budget");
            graphs.extend([below, at, chordless]);
            for g in &graphs {
                for i in 0..3 {
                    let root = NodeId::from_index((seed as usize + i * 11) % g.node_count());
                    assert_matches_reference(g, root, seed + i as u64);
                }
            }
        }
    }

    type EdgeTriple = (NodeId, NodeId, Weight);

    /// Every edge as `(tail, head, weight)`, read from the out-slices and
    /// from the in-slices.
    fn edge_triples(g: &DiGraph) -> (Vec<EdgeTriple>, Vec<EdgeTriple>) {
        let mut out: Vec<_> = g
            .nodes()
            .flat_map(|u| g.out_edges(u).iter().map(move |e| (u, e.to, e.weight)))
            .collect();
        let mut ins: Vec<_> =
            g.nodes().flat_map(|v| g.in_edges(v).iter().map(move |&(u, w)| (u, v, w))).collect();
        out.sort_unstable();
        ins.sort_unstable();
        (out, ins)
    }

    #[test]
    fn fault_plans_keep_the_adjacency_mirrored_and_every_run_exact() {
        use crate::chaos::{FaultPlan, GraphDelta};
        use crate::generators::{ring_with_chords_weighted, WeightRange};
        let mut g = ring_with_chords_weighted(
            150,
            450,
            9,
            WeightRange::new(1, 16),
            WeightRange::new(1, 256),
        )
        .unwrap();
        let edges: Vec<(NodeId, NodeId)> =
            g.nodes().flat_map(|u| g.out_edges(u).iter().map(move |e| (u, e.to))).collect();
        // Removals with ×4 inflations (the chaos plane's faults, which keep
        // the ring), then removals with ×64 inflations past the ring limit
        // and a node outage.
        let mild = FaultPlan::mixed_from_candidates(&edges, 60, 3, 4, 1);
        let mut harsh =
            FaultPlan::mixed_from_candidates(&edges[200..], 60, 2, 64, 2).deltas().to_vec();
        harsh.insert(30, GraphDelta::IsolateNode { node: NodeId(77) });
        let harsh = FaultPlan::new(harsh, 2);
        let mut expected_edges = g.edge_count();
        for (plan, on_ring) in [(mild, true), (harsh, false)] {
            let applied = plan.apply(&mut g);
            let removed = applied.faults.iter().filter(|f| f.new_weight.is_none()).count();
            expected_edges -= removed;
            assert_eq!(g.edge_count(), expected_edges, "edge count");
            let (out, ins) = edge_triples(&g);
            assert_eq!(out.len(), g.edge_count(), "out-slices hold every edge once");
            assert_eq!(out, ins, "in-slices mirror out-slices");
            assert_eq!(g.max_weight() < RING_LIMIT, on_ring, "queue after {plan:?}");
            for (i, root) in [0, 41, 77, 149].into_iter().enumerate() {
                assert_matches_reference(&g, NodeId(root), i as u64);
            }
        }
        assert_eq!(g.out_degree(NodeId(77)) + g.in_degree(NodeId(77)), 0);
    }

    #[test]
    fn a_run_that_panics_leaves_no_queue_state_behind() {
        let g = crate::generators::ring_with_chords(200, 600, 3).unwrap();
        assert!(g.max_weight() < RING_LIMIT);
        let outsider = NodeId(5);
        let members: Vec<NodeId> = g.nodes().filter(|&v| v != outsider).collect();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dijkstra_within(&g, outsider, &members)
        }));
        assert!(panicked.is_err(), "a root outside the members panics");
        // The same thread's next run starts from an empty queue.
        assert_matches_reference(&g, NodeId(9), 0);
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
