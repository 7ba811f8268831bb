//! All-pairs distance matrix and roundtrip distances.

use rtr_graph::algo::dijkstra::distances_from_into;
use rtr_graph::par::par_blocks_mut;
use rtr_graph::types::saturating_dist_add;
use rtr_graph::{DiGraph, Distance, NodeId, INFINITY};

/// Dense all-pairs shortest-path distances for a graph, with roundtrip
/// helpers.
///
/// Construction runs one forward Dijkstra per source, distributed over worker
/// threads by [`par_blocks_mut`]. Each worker owns a disjoint block of matrix
/// rows, so the build is lock-free: no worker ever touches another worker's
/// rows, and the result is identical for any thread count. For graph
/// sizes up to a few thousand nodes the dense `n²` representation is the
/// right trade-off: every later stage (orders, neighborhoods, covers, scheme
/// construction, stretch accounting) performs millions of random distance
/// lookups. Beyond that, use [`crate::LazyDijkstraOracle`] — every consumer
/// is generic over [`crate::DistanceOracle`].
#[derive(Debug, Clone)]
pub struct DistanceMatrix {
    n: usize,
    /// Row-major `n × n`: `dist[u * n + v] = d(u, v)`.
    dist: Vec<Distance>,
}

impl DistanceMatrix {
    /// Builds the matrix with one distance-only Dijkstra per source, in
    /// parallel.
    pub fn build(g: &DiGraph) -> Self {
        let n = g.node_count();
        let mut dist = vec![INFINITY; n * n];
        let mut rows: Vec<&mut [Distance]> = dist.chunks_mut(n.max(1)).collect();
        par_blocks_mut(&mut rows, |start, block| {
            for (offset, row) in block.iter_mut().enumerate() {
                distances_from_into(g, NodeId::from_index(start + offset), row);
            }
        });
        DistanceMatrix { n, dist }
    }

    /// The forward row `d(u, ·)` as a borrowed slice (the zero-copy
    /// counterpart of [`crate::DistanceOracle::row`]).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn row_slice(&self, u: NodeId) -> &[Distance] {
        &self.dist[u.index() * self.n..(u.index() + 1) * self.n]
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// One-way distance `d(u, v)`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    #[inline]
    pub fn distance(&self, u: NodeId, v: NodeId) -> Distance {
        self.dist[u.index() * self.n + v.index()]
    }

    /// Roundtrip distance `r(u, v) = d(u, v) + d(v, u)` (paper §1.1).
    #[inline]
    pub fn roundtrip(&self, u: NodeId, v: NodeId) -> Distance {
        saturating_dist_add(self.distance(u, v), self.distance(v, u))
    }

    /// True when every ordered pair is reachable (graph strongly connected).
    pub fn all_finite(&self) -> bool {
        self.dist.iter().all(|&d| d != INFINITY)
    }

    /// The roundtrip diameter `RTDiam(G) = max_{u,v} r(u, v)`.
    pub fn roundtrip_diameter(&self) -> Distance {
        let mut best = 0;
        for u in 0..self.n {
            for v in (u + 1)..self.n {
                let r = self.roundtrip(NodeId::from_index(u), NodeId::from_index(v));
                if r == INFINITY {
                    return INFINITY;
                }
                best = best.max(r);
            }
        }
        best
    }

    /// The (one-way) diameter `max_{u≠v} d(u, v)`.
    pub fn diameter(&self) -> Distance {
        let mut best = 0;
        for u in 0..self.n {
            for v in 0..self.n {
                if u != v {
                    let d = self.dist[u * self.n + v];
                    if d == INFINITY {
                        return INFINITY;
                    }
                    best = best.max(d);
                }
            }
        }
        best
    }

    /// Stretch of a measured roundtrip path length against `r(u, v)`, as an
    /// exact rational comparison helper: returns `measured as f64 / r(u,v)`.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` (roundtrip stretch is undefined for a node and
    /// itself) or the pair is unreachable.
    pub fn roundtrip_stretch(&self, u: NodeId, v: NodeId, measured: Distance) -> f64 {
        assert_ne!(u, v, "roundtrip stretch undefined for identical endpoints");
        let r = self.roundtrip(u, v);
        assert!(r != INFINITY && r > 0, "pair ({u},{v}) unreachable");
        measured as f64 / r as f64
    }

    /// Verifies `measured ≤ bound_num/bound_den · r(u,v)` using only integer
    /// arithmetic (no floating point), which is how the test-suite asserts the
    /// paper's hard stretch bounds.
    pub fn within_stretch(
        &self,
        u: NodeId,
        v: NodeId,
        measured: Distance,
        bound_num: u64,
        bound_den: u64,
    ) -> bool {
        let r = self.roundtrip(u, v);
        if r == INFINITY {
            return false;
        }
        (measured as u128) * (bound_den as u128) <= (bound_num as u128) * (r as u128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_graph::algo::floyd::floyd_warshall;
    use rtr_graph::generators::{directed_ring, strongly_connected_gnp};
    use rtr_graph::DiGraphBuilder;

    #[test]
    fn matches_floyd_warshall() {
        let g = strongly_connected_gnp(40, 0.1, 5).unwrap();
        let m = DistanceMatrix::build(&g);
        let fw = floyd_warshall(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(m.distance(u, v), fw[u.index()][v.index()]);
            }
        }
    }

    #[test]
    fn roundtrip_is_symmetric_and_zero_on_diagonal() {
        let g = strongly_connected_gnp(25, 0.2, 3).unwrap();
        let m = DistanceMatrix::build(&g);
        for u in g.nodes() {
            assert_eq!(m.roundtrip(u, u), 0);
            for v in g.nodes() {
                assert_eq!(m.roundtrip(u, v), m.roundtrip(v, u));
            }
        }
    }

    #[test]
    fn roundtrip_triangle_inequality() {
        // r is a metric: r(u,w) ≤ r(u,v) + r(v,w).
        let g = strongly_connected_gnp(20, 0.25, 12).unwrap();
        let m = DistanceMatrix::build(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                for w in g.nodes() {
                    assert!(m.roundtrip(u, w) <= m.roundtrip(u, v) + m.roundtrip(v, w));
                }
            }
        }
    }

    #[test]
    fn ring_roundtrip_is_cycle_length() {
        let g = directed_ring(10, 0).unwrap();
        let m = DistanceMatrix::build(&g);
        let total: u64 = g.nodes().map(|u| g.out_edges(u)[0].weight).sum();
        for u in g.nodes() {
            for v in g.nodes() {
                if u != v {
                    assert_eq!(m.roundtrip(u, v), total);
                }
            }
        }
        assert_eq!(m.roundtrip_diameter(), total);
    }

    #[test]
    fn all_finite_detects_strong_connectivity() {
        let g = strongly_connected_gnp(16, 0.1, 1).unwrap();
        assert!(DistanceMatrix::build(&g).all_finite());

        let mut b = DiGraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        b.add_edge(NodeId(1), NodeId(0), 1).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 1).unwrap();
        let g = b.build().unwrap();
        assert!(!DistanceMatrix::build(&g).all_finite());
    }

    #[test]
    fn diameters_relate() {
        let g = strongly_connected_gnp(30, 0.1, 7).unwrap();
        let m = DistanceMatrix::build(&g);
        assert!(m.roundtrip_diameter() >= m.diameter());
        assert!(m.roundtrip_diameter() <= 2 * m.diameter());
    }

    #[test]
    fn within_stretch_integer_check() {
        let g = directed_ring(6, 0).unwrap();
        let m = DistanceMatrix::build(&g);
        let (u, v) = (NodeId(0), NodeId(1));
        let r = m.roundtrip(u, v);
        assert!(m.within_stretch(u, v, r, 1, 1));
        assert!(m.within_stretch(u, v, 6 * r, 6, 1));
        assert!(!m.within_stretch(u, v, 6 * r + 1, 6, 1));
    }

    #[test]
    fn stretch_ratio_matches_division() {
        let g = strongly_connected_gnp(12, 0.3, 2).unwrap();
        let m = DistanceMatrix::build(&g);
        let (u, v) = (NodeId(0), NodeId(1));
        let r = m.roundtrip(u, v);
        let s = m.roundtrip_stretch(u, v, 3 * r);
        assert!((s - 3.0).abs() < 1e-12);
    }
}
