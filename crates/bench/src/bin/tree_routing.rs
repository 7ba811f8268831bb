//! Experiment E8 — Lemma 14: compact fixed-port tree routing. Reports label
//! sizes against O(log² n), light-edge depth against log₂ n, and verifies
//! that every root-to-node route is optimal on the tree.

use rtr_bench::{banner, instance, reject_unread_env, ExperimentConfig};
use rtr_graph::generators::Family;
use rtr_graph::NodeId;
use rtr_trees::{OutTree, TreeRouter, TreeStep};

fn main() {
    let cfg = ExperimentConfig::from_env(&[128, 256, 512, 1024], Some(2), None);
    reject_unread_env(&cfg.env());

    banner("E8: tree routing (Lemma 14)");
    println!(
        "{:<12} {:>6} {:>6} {:>12} {:>10} {:>12} {:>12} {:>10}",
        "family", "n", "seed", "max-lbl-bits", "log^2(n)", "light-depth", "log2(n)", "optimal"
    );
    for family in [Family::Gnp, Family::Grid, Family::ScaleFree] {
        for &n in &cfg.sizes {
            for seed in 0..cfg.seeds() {
                let inst = instance(family, n, seed);
                let g = &inst.graph;
                let root = NodeId(0);
                let tree = OutTree::shortest_paths(g, root);
                let router = TreeRouter::build(&tree);

                let nn = g.node_count();
                let max_label_bits =
                    g.nodes().filter_map(|v| router.label(v)).map(|l| l.bits(nn)).max().unwrap();
                let log2n = (nn as f64).log2();

                // Verify optimality by driving every label from the root.
                let mut optimal = true;
                for v in g.nodes() {
                    let label = router.label(v).unwrap().clone();
                    let mut at = root;
                    let mut weight = 0u64;
                    loop {
                        match router.step_at(at, &label) {
                            TreeStep::Deliver => break,
                            TreeStep::Forward(port) => {
                                let e = g.edge_by_port(at, port).unwrap();
                                weight += e.weight;
                                at = e.to;
                            }
                            TreeStep::NotInSubtree => panic!("lost the subtree"),
                        }
                    }
                    if weight != tree.distance(v) {
                        optimal = false;
                    }
                }

                println!(
                    "{:<12} {:>6} {:>6} {:>12} {:>10.0} {:>12} {:>12.1} {:>10}",
                    inst.family,
                    nn,
                    seed,
                    max_label_bits,
                    log2n * log2n,
                    router.max_light_depth(),
                    log2n,
                    optimal
                );
                assert!(optimal, "tree routing produced a suboptimal route");
                assert!(router.max_light_depth() as f64 <= log2n);
            }
        }
    }
}
