//! Experiment E7 — Theorems 10 and 13: measured cover properties (per-node
//! tree membership, radius blow-up) against the theoretical bounds
//! `2k·n^{1/k}` and `2k − 1`.

use rtr_bench::{banner, instance, reject_unread_env, ExperimentConfig};
use rtr_cover::{CoverStats, DoubleTreeCover};
use rtr_graph::generators::Family;

fn main() {
    let cfg = ExperimentConfig::from_env(&[64, 128, 256], Some(2), None);
    reject_unread_env(&cfg.env());

    banner("E7: double-tree covers (Theorem 13)");
    println!(
        "{:<12} {:>6} {:>4} {:>7} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "family", "n", "k", "levels", "max-member", "bound", "max-blowup", "bound", "trees"
    );
    for family in [Family::Gnp, Family::Grid, Family::ScaleFree] {
        for &n in &cfg.sizes {
            for k in [2u32, 3] {
                for seed in 0..cfg.seeds() {
                    let inst = instance(family, n, seed);
                    let cover = DoubleTreeCover::build(&inst.graph, &inst.metric, k);
                    let stats = CoverStats::measure(&cover, inst.graph.node_count());
                    assert!(stats.within_bounds(), "Theorem 13 bounds violated: {stats:?}");
                    println!(
                        "{:<12} {:>6} {:>4} {:>7} {:>12} {:>12.1} {:>12.2} {:>12} {:>10}",
                        inst.family,
                        inst.graph.node_count(),
                        k,
                        stats.levels,
                        stats.max_membership_per_level,
                        stats.membership_bound(),
                        stats.max_height_blowup,
                        stats.height_blowup_bound(),
                        stats.total_trees
                    );
                }
            }
        }
    }
}
