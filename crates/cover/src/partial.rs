//! Algorithms *PartialCover* (Fig. 7) and *Cover* (Fig. 8), generalized to the
//! roundtrip metric (Theorem 10).

use crate::nodeset::NodeSet;
use rtr_graph::hash::FxHashSet;
use rtr_graph::{Distance, NodeId};
use rtr_metric::DistanceOracle;

/// Output of one invocation of [`partial_cover`].
#[derive(Debug, Clone)]
pub struct PartialCoverOutput {
    /// The merged clusters `DT`. For each: the merged node set `Y̅`, the
    /// indices (into the input collection) of the clusters it subsumes
    /// (`𝒴`, which join `DR`), and the index of the *seed* cluster `S₀`
    /// whose center certifies the radius bound of Lemma 11(4).
    pub merged: Vec<MergedCluster>,
    /// Indices of all input clusters placed into `DR` (the union of the
    /// per-cluster `subsumed` lists).
    pub covered: Vec<usize>,
    /// Indices of all input clusters removed from `U` during this invocation
    /// (the union of the `𝒵` sets). A superset of `covered`: clusters in
    /// `removed \ covered` stay in `R` for the next *Cover* iteration.
    pub removed: Vec<usize>,
}

/// One merged cluster produced by [`partial_cover`].
#[derive(Debug, Clone)]
pub struct MergedCluster {
    /// The merged node set `Y̅ = ⋃_{S ∈ 𝒴} S`.
    pub nodes: NodeSet,
    /// Indices of the input clusters whose union forms this cluster (`𝒴`).
    pub subsumed: Vec<usize>,
    /// Index of the seed cluster `S₀` selected on line 3 of Fig. 7.
    pub seed: usize,
}

/// Algorithm *PartialCover(R, k)* of Fig. 7.
///
/// `r` is the current collection of clusters (bitsets over the node universe);
/// `total_r` is `|R|` as used in the termination condition of line 9 — the
/// size of the collection handed to *this* invocation (callers pass
/// `r.len()`; it is a parameter so tests can exercise the condition
/// explicitly). `k > 1` is the sparseness parameter.
///
/// The three properties of Lemma 11 hold for the output:
/// 1. every cluster placed in `DR` is contained in some merged cluster,
/// 2. merged clusters are pairwise disjoint,
/// 3. `|DR| ≥ |R|^{1−1/k}` (at least when `R` is nonempty), and
/// 4. the radius of each merged cluster, measured from the center of its seed
///    cluster, grows by at most a factor `2k − 1`.
///
/// # Panics
///
/// Panics if `k < 2`.
pub fn partial_cover(r: &[NodeSet], total_r: usize, k: u32) -> PartialCoverOutput {
    assert!(k >= 2, "PartialCover requires k >= 2");
    let threshold_base = (total_r.max(1) as f64).powf(1.0 / k as f64);

    // Inverted node → cluster index.  Each growth round below only touches
    // the clusters that actually intersect the nodes the seed set gained last
    // round, instead of re-scanning every alive cluster; and because removing
    // a merged set kills *every* cluster containing each of its nodes, each
    // node's cluster list is scanned at most once per invocation.  Total work
    // is linear in Σ|S| where the old scan was quadratic in |R| — the
    // difference between minutes and milliseconds on the small-scale levels
    // (mostly singleton balls) of a large hierarchy.
    let universe = r.first().map(NodeSet::universe).unwrap_or(0);
    let mut by_node: Vec<Vec<u32>> = vec![Vec::new(); universe];
    for (i, s) in r.iter().enumerate() {
        for v in s.iter() {
            by_node[v.index()].push(i as u32);
        }
    }

    let mut alive: Vec<bool> = vec![true; r.len()];
    let mut in_z: Vec<bool> = vec![false; r.len()];
    let mut merged = Vec::new();
    let mut covered = Vec::new();
    let mut removed = Vec::new();

    // Line 3 of each round selects an arbitrary cluster S0 ∈ U (smallest
    // alive index for determinism).  Seeds are consumed in ascending order —
    // everything below the cursor is dead — so the scan resumes at the
    // cursor instead of restarting from zero.
    let mut seed = 0usize;
    while seed < r.len() {
        if !alive[seed] {
            seed += 1;
            continue;
        }

        // Lines 4-9: grow Z until |Z| ≤ |R|^{1/k} |Y|.  Z is monotone round
        // over round (Y̅ only gains nodes and U is fixed during the growth),
        // so each round extends the previous Z by scanning only the cluster
        // lists of the nodes Y̅ gained last round; `z_list[..y_len]` is
        // always the previous round's Z.
        let mut z_list: Vec<usize> = vec![seed];
        in_z[seed] = true;
        let mut z_bar: NodeSet = r[seed].clone();
        let mut frontier: Vec<_> = r[seed].iter().collect();
        let (y_len, y_bar) = loop {
            let y_len = z_list.len();
            let y_bar = z_bar.clone();
            // Z ← {S ∈ U | S ∩ Y̅ ≠ ∅}: every new member contains one of the
            // frontier nodes.
            for v in std::mem::take(&mut frontier) {
                for &ci in &by_node[v.index()] {
                    let ci = ci as usize;
                    if alive[ci] && !in_z[ci] {
                        in_z[ci] = true;
                        z_list.push(ci);
                        for w in r[ci].iter() {
                            if z_bar.insert(w) {
                                frontier.push(w);
                            }
                        }
                    }
                }
            }
            if (z_list.len() as f64) <= threshold_base * (y_len as f64) {
                break (y_len, y_bar);
            }
        };

        // Lines 10-12: U ← U \ Z; DT ← DT ∪ {Y̅}; DR ← DR ∪ 𝒴.
        let mut y_script = z_list[..y_len].to_vec();
        y_script.sort_unstable();
        for &i in &z_list {
            alive[i] = false;
            in_z[i] = false;
            removed.push(i);
        }
        covered.extend(y_script.iter().copied());
        merged.push(MergedCluster { nodes: y_bar, subsumed: y_script, seed });
    }

    covered.sort_unstable();
    removed.sort_unstable();
    PartialCoverOutput { merged, covered, removed }
}

/// A sparse cover of all roundtrip balls of radius `d` (Theorem 10 with the
/// roundtrip metric), produced by [`cover_balls`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BallCover {
    /// Ball radius `d` the cover was built for.
    pub radius: Distance,
    /// Sparseness parameter `k`.
    pub k: u32,
    /// The output clusters (each a sorted node list).
    pub clusters: Vec<Vec<NodeId>>,
    /// For each cluster, the node whose seed ball certifies the radius bound;
    /// used as the cluster's double-tree root.
    pub seeds: Vec<NodeId>,
    /// `home[v]`: index of a cluster that contains the whole ball `N̂ᵈ(v)`.
    pub home: Vec<usize>,
    /// `membership[v]`: indices of every cluster containing `v`.
    pub membership: Vec<Vec<usize>>,
}

impl BallCover {
    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Largest number of clusters any single vertex belongs to.
    pub fn max_membership(&self) -> usize {
        self.membership.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The cluster that is `v`'s home.
    pub fn home_cluster(&self, v: NodeId) -> &[NodeId] {
        &self.clusters[self.home[v.index()]]
    }
}

/// The roundtrip ball `N̂ᵈ(v) = {w | r(v, w) ≤ d}`.
///
/// Consumes one roundtrip row of the oracle (two Dijkstras on a lazy oracle,
/// a slice read on the dense matrix).
pub fn roundtrip_ball<O: DistanceOracle + ?Sized>(m: &O, v: NodeId, d: Distance) -> NodeSet {
    let n = m.node_count();
    let row = m.roundtrip_row(v);
    NodeSet::from_nodes(n, (0..n).map(NodeId::from_index).filter(|&w| row[w.index()] <= d))
}

/// Algorithm *Cover(G, k, d)* of Fig. 8 instantiated with the roundtrip
/// metric: starts from `R = {N̂ᵈ(v) | v ∈ V}` and repeatedly applies
/// [`partial_cover`] until every ball is subsumed.
///
/// The output satisfies Theorem 10: every node's ball is contained in its
/// `home` cluster; the cluster radius (from the seed node, within the induced
/// subgraph) is at most `(2k − 1)·d`; and no vertex appears in more than
/// `2k·n^{1/k}` clusters.
///
/// # Panics
///
/// Panics if `k < 2` or the graph underlying `m` is not strongly connected
/// (some roundtrip distance is infinite).
pub fn cover_balls<O: DistanceOracle + ?Sized>(m: &O, k: u32, d: Distance) -> BallCover {
    assert!(k >= 2, "Cover requires k >= 2");
    assert!(m.is_strongly_connected(), "Cover requires a strongly connected graph");
    let n = m.node_count();

    // R ← {N̂ᵈ(v) | v ∈ V}. Each ball costs one roundtrip row — the dominant
    // cost on a lazy oracle — so the collection fans out over worker threads
    // owning disjoint node blocks (deterministic: every ball depends only on
    // its own row, and caching oracles are internally synchronised).
    let mut slots: Vec<Option<NodeSet>> = (0..n).map(|_| None).collect();
    rtr_graph::par::par_blocks_mut(&mut slots, |start, block| {
        for (offset, slot) in block.iter_mut().enumerate() {
            let v = NodeId::from_index(start + offset);
            *slot = Some(roundtrip_ball(m, v, d));
        }
    });
    let balls = slots.into_iter().map(|s| s.expect("every ball was collected")).collect();
    cover_from_balls(balls, k, d)
}

/// *Cover* from precomputed balls: `balls[i]` must be the roundtrip ball
/// `N̂ᵈ(vᵢ)` of node `i` at radius `d`.
///
/// This is the entry point `DoubleTreeCover` uses to build **every level from
/// one row sweep**: all scales' balls of a node derive from the same
/// roundtrip row, so fetching the row once and slicing it per scale replaces
/// one sweep per level — the difference between `O(levels · n)` and `O(n)`
/// Dijkstra pairs on a lazy oracle.
///
/// # Panics
///
/// Panics if `k < 2` or some ball does not contain its own node (which a
/// strongly connected roundtrip metric guarantees).
pub fn cover_from_balls(balls: Vec<NodeSet>, k: u32, d: Distance) -> BallCover {
    assert!(k >= 2, "Cover requires k >= 2");
    let n = balls.len();
    // Owners and ball sets kept as two parallel vectors so each *Cover*
    // iteration can hand `partial_cover` the alive sets directly — the old
    // tupled layout re-cloned every alive ball (up to n·n bits) per
    // iteration just to produce a borrowable slice.
    let mut alive_owners: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
    let mut alive_balls: Vec<NodeSet> = balls;
    for (v, b) in alive_owners.iter().zip(&alive_balls) {
        assert!(b.contains(*v), "ball of {v} does not contain its owner");
    }

    let mut clusters: Vec<Vec<NodeId>> = Vec::new();
    let mut seeds: Vec<NodeId> = Vec::new();
    let mut home: Vec<usize> = vec![usize::MAX; n];

    // while R ≠ ∅: (DR, DT) ← PartialCover(R, k); R ← R \ DR; T ← T ∪ DT.
    while !alive_balls.is_empty() {
        let out = partial_cover(&alive_balls, alive_balls.len(), k);
        debug_assert!(!out.covered.is_empty(), "PartialCover must make progress");

        for mc in &out.merged {
            let cluster_id = clusters.len();
            clusters.push(mc.nodes.to_vec());
            seeds.push(alive_owners[mc.seed]);
            for &li in &mc.subsumed {
                let owner = alive_owners[li];
                home[owner.index()] = cluster_id;
            }
        }

        let covered: FxHashSet<usize> = out.covered.iter().copied().collect();
        let mut next_owners = Vec::with_capacity(alive_owners.len() - covered.len());
        let mut next_balls = Vec::with_capacity(alive_owners.len() - covered.len());
        for (i, (owner, ball)) in alive_owners.into_iter().zip(alive_balls).enumerate() {
            if !covered.contains(&i) {
                next_owners.push(owner);
                next_balls.push(ball);
            }
        }
        alive_owners = next_owners;
        alive_balls = next_balls;
    }

    let mut membership: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (ci, cluster) in clusters.iter().enumerate() {
        for &v in cluster {
            membership[v.index()].push(ci);
        }
    }

    debug_assert!(home.iter().all(|&h| h != usize::MAX));
    BallCover { radius: d, k, clusters, seeds, home, membership }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_graph::generators::{bidirected_grid, directed_ring, strongly_connected_gnp, Family};
    use rtr_metric::ClusterMetric;
    use rtr_metric::DistanceMatrix;

    fn check_theorem_10(g: &rtr_graph::DiGraph, m: &DistanceMatrix, k: u32, d: Distance) {
        let cover = cover_balls(m, k, d);
        let n = m.node_count();

        // Property 1: the home cluster contains the whole ball.
        for v in g.nodes() {
            let ball = roundtrip_ball(m, v, d);
            let home = NodeSet::from_nodes(n, cover.home_cluster(v).iter().copied());
            assert!(ball.is_subset_of(&home), "ball of {v} not inside its home cluster");
        }

        // Property 2: cluster radius from the seed, in the induced subgraph,
        // is at most (2k-1) d.
        for (ci, cluster) in cover.clusters.iter().enumerate() {
            let cm = ClusterMetric::build(g, cluster);
            assert!(cm.is_strongly_connected(), "cluster {ci} not strongly connected");
            let seed = cover.seeds[ci];
            let rad = cm.rt_radius_of(seed);
            assert!(
                rad <= (2 * k as u64 - 1) * d,
                "cluster {ci}: radius {rad} exceeds (2k-1)d = {}",
                (2 * k as u64 - 1) * d
            );
        }

        // Property 3: membership bound 2k n^{1/k}.
        let bound = (2.0 * k as f64 * (n as f64).powf(1.0 / k as f64)).ceil() as usize;
        assert!(
            cover.max_membership() <= bound,
            "membership {} exceeds 2k n^(1/k) = {}",
            cover.max_membership(),
            bound
        );
    }

    #[test]
    fn theorem_10_on_random_digraphs() {
        for seed in 0..3 {
            let g = strongly_connected_gnp(48, 0.08, seed).unwrap();
            let m = DistanceMatrix::build(&g);
            let diam = m.roundtrip_diameter();
            for k in [2u32, 3] {
                for d in [1, diam / 4 + 1, diam / 2 + 1, diam] {
                    check_theorem_10(&g, &m, k, d);
                }
            }
        }
    }

    #[test]
    fn theorem_10_on_grid_and_ring() {
        let g = bidirected_grid(6, 6, 1).unwrap();
        let m = DistanceMatrix::build(&g);
        check_theorem_10(&g, &m, 2, m.roundtrip_diameter() / 3 + 1);

        let g = directed_ring(24, 5).unwrap();
        let m = DistanceMatrix::build(&g);
        // On a ring every ball of radius < cycle length is a singleton and the
        // full-diameter ball is everything.
        check_theorem_10(&g, &m, 2, 1);
        check_theorem_10(&g, &m, 2, m.roundtrip_diameter());
    }

    #[test]
    fn theorem_10_across_families() {
        for family in Family::ALL {
            let g = family.generate(36, 7).unwrap();
            let m = DistanceMatrix::build(&g);
            let d = m.roundtrip_diameter() / 4 + 1;
            check_theorem_10(&g, &m, 2, d);
        }
    }

    #[test]
    fn partial_cover_merged_clusters_are_disjoint() {
        let g = strongly_connected_gnp(40, 0.1, 3).unwrap();
        let m = DistanceMatrix::build(&g);
        let d = m.roundtrip_diameter() / 3 + 1;
        let balls: Vec<NodeSet> = g.nodes().map(|v| roundtrip_ball(&m, v, d)).collect();
        let out = partial_cover(&balls, balls.len(), 2);
        for (i, a) in out.merged.iter().enumerate() {
            for b in &out.merged[i + 1..] {
                assert!(!a.nodes.intersects(&b.nodes), "merged clusters overlap");
            }
        }
    }

    #[test]
    fn partial_cover_subsumed_clusters_are_contained() {
        let g = strongly_connected_gnp(30, 0.12, 9).unwrap();
        let m = DistanceMatrix::build(&g);
        let d = m.roundtrip_diameter() / 2;
        let balls: Vec<NodeSet> = g.nodes().map(|v| roundtrip_ball(&m, v, d)).collect();
        let out = partial_cover(&balls, balls.len(), 3);
        for mc in &out.merged {
            for &i in &mc.subsumed {
                assert!(balls[i].is_subset_of(&mc.nodes));
            }
            assert!(mc.subsumed.contains(&mc.seed));
        }
    }

    #[test]
    fn partial_cover_covers_enough_clusters() {
        // Lemma 11 property 3: |DR| ≥ |R|^{1 - 1/k}.
        let g = strongly_connected_gnp(50, 0.07, 4).unwrap();
        let m = DistanceMatrix::build(&g);
        let d = m.roundtrip_diameter() / 4 + 1;
        let balls: Vec<NodeSet> = g.nodes().map(|v| roundtrip_ball(&m, v, d)).collect();
        for k in [2u32, 3, 4] {
            let out = partial_cover(&balls, balls.len(), k);
            let lower = (balls.len() as f64).powf(1.0 - 1.0 / k as f64).floor() as usize;
            assert!(
                out.covered.len() >= lower,
                "covered {} < |R|^(1-1/k) = {lower}",
                out.covered.len()
            );
        }
    }

    #[test]
    fn cover_iteration_count_is_bounded() {
        // Theorem 10's proof bounds the number of Cover iterations by
        // 2k n^{1/k}; since each iteration produces at least one cluster per
        // node at most once, the per-node membership check in
        // `check_theorem_10` covers this; here we simply check the total
        // cluster count is sane (≤ n, since every cluster subsumes ≥ 1 ball
        // and each ball is subsumed exactly once... clusters ≤ n).
        let g = strongly_connected_gnp(40, 0.1, 5).unwrap();
        let m = DistanceMatrix::build(&g);
        let cover = cover_balls(&m, 2, m.roundtrip_diameter() / 2);
        assert!(cover.cluster_count() <= g.node_count());
    }

    #[test]
    fn roundtrip_ball_contains_owner_and_respects_radius() {
        let g = strongly_connected_gnp(25, 0.15, 6).unwrap();
        let m = DistanceMatrix::build(&g);
        for v in g.nodes() {
            let ball = roundtrip_ball(&m, v, 7);
            assert!(ball.contains(v));
            for w in ball.iter() {
                assert!(m.roundtrip(v, w) <= 7);
            }
            for w in g.nodes() {
                if m.roundtrip(v, w) <= 7 {
                    assert!(ball.contains(w));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "k >= 2")]
    fn cover_rejects_k1() {
        let g = strongly_connected_gnp(10, 0.3, 1).unwrap();
        let m = DistanceMatrix::build(&g);
        cover_balls(&m, 1, 5);
    }
}
