//! Measured cover statistics, reported by experiment E7 against the bounds of
//! Theorems 10 and 13.

use crate::hierarchy::DoubleTreeCover;
use rtr_graph::NodeId;

/// Aggregate measurements of a [`DoubleTreeCover`].
#[derive(Debug, Clone)]
pub struct CoverStats {
    /// Number of nodes of the underlying graph.
    pub n: usize,
    /// Sparseness parameter `k`.
    pub k: u32,
    /// Number of levels (scales).
    pub levels: usize,
    /// Largest per-node, per-level tree membership (bounded by `2k·n^{1/k}`).
    pub max_membership_per_level: usize,
    /// Average per-node, per-level membership.
    pub avg_membership_per_level: f64,
    /// Largest total membership per node across all levels.
    pub max_total_membership: usize,
    /// Largest ratio `RTHeight(tree) / scale` over all trees and levels
    /// (bounded by `2k − 1`).
    pub max_height_blowup: f64,
    /// Total number of trees over all levels.
    pub total_trees: usize,
}

impl CoverStats {
    /// Measures `cover` over a graph with `n` nodes.
    pub fn measure(cover: &DoubleTreeCover, n: usize) -> Self {
        let levels = cover.level_count();
        let mut max_membership_per_level = 0usize;
        let mut membership_sum = 0usize;
        let mut membership_samples = 0usize;
        let mut max_total = 0usize;
        let mut max_blowup = 0.0f64;
        let mut total_trees = 0usize;

        for level in cover.levels() {
            total_trees += level.trees.len();
            for vi in 0..n {
                let v = NodeId::from_index(vi);
                let m = level.membership(v).len();
                max_membership_per_level = max_membership_per_level.max(m);
                membership_sum += m;
                membership_samples += 1;
            }
            for tree in &level.trees {
                if level.scale > 0 {
                    let blowup = tree.rt_height() as f64 / level.scale as f64;
                    max_blowup = max_blowup.max(blowup);
                }
            }
        }
        for vi in 0..n {
            let v = NodeId::from_index(vi);
            max_total = max_total.max(cover.membership_count(v));
        }

        CoverStats {
            n,
            k: cover.k(),
            levels,
            max_membership_per_level,
            avg_membership_per_level: membership_sum as f64 / membership_samples.max(1) as f64,
            max_total_membership: max_total,
            max_height_blowup: max_blowup,
            total_trees,
        }
    }

    /// The theoretical per-level membership bound `2k·n^{1/k}`.
    pub fn membership_bound(&self) -> f64 {
        2.0 * self.k as f64 * (self.n as f64).powf(1.0 / self.k as f64)
    }

    /// The theoretical height blow-up bound `2k − 1`.
    pub fn height_blowup_bound(&self) -> f64 {
        2.0 * self.k as f64 - 1.0
    }

    /// True when every measured quantity respects its theoretical bound.
    pub fn within_bounds(&self) -> bool {
        (self.max_membership_per_level as f64) <= self.membership_bound().ceil()
            && self.max_height_blowup <= self.height_blowup_bound() + 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_graph::generators::strongly_connected_gnp;
    use rtr_metric::DistanceMatrix;

    #[test]
    fn stats_respect_theoretical_bounds() {
        for (n, k, seed) in [(32, 2u32, 1u64), (48, 3, 2), (40, 2, 3)] {
            let g = strongly_connected_gnp(n, 0.1, seed).unwrap();
            let m = DistanceMatrix::build(&g);
            let cover = DoubleTreeCover::build(&g, &m, k);
            let stats = CoverStats::measure(&cover, n);
            assert!(stats.within_bounds(), "bounds violated: {stats:?}");
            assert_eq!(stats.levels, cover.level_count());
            assert!(stats.avg_membership_per_level <= stats.max_membership_per_level as f64);
            assert!(stats.total_trees > 0);
        }
    }
}
