//! Experiment E3 — Lemma 1 / Lemma 4 and Fig. 2: the randomized block
//! distribution. Verifies coverage from scratch and reports blocks per node
//! against the O(log n) guarantee, plus the number of repair insertions.

use rtr_bench::{banner, instance, reject_unread_env, ExperimentConfig};
use rtr_dictionary::{AddressSpace, BlockDistribution, DistributionParams};
use rtr_graph::generators::Family;
use rtr_metric::RoundtripOrder;

fn main() {
    let cfg = ExperimentConfig::from_env(&[64, 144, 256, 400], Some(3), None);
    reject_unread_env(&cfg.env());

    banner("E3: block distribution (Lemma 1: k=2, Lemma 4: k=3,4)");
    println!(
        "{:<8} {:>6} {:>4} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "family", "n", "k", "seed", "max|S_v|", "avg|S_v|", "4ln(n)", "repairs", "covered"
    );
    for family in [Family::Gnp, Family::Grid] {
        for &n in &cfg.sizes {
            for k in [2u32, 3, 4] {
                for seed in 0..cfg.seeds() {
                    let inst = instance(family, n, seed);
                    let order = RoundtripOrder::build(&inst.metric);
                    let space = AddressSpace::new(inst.graph.node_count(), k);
                    let dist = BlockDistribution::build(
                        space,
                        &order,
                        DistributionParams { density: 4.0, seed },
                    );
                    let covered = dist.verify_coverage(&order);
                    assert!(covered, "Lemma 4 coverage violated");
                    println!(
                        "{:<8} {:>6} {:>4} {:>6} {:>9} {:>9.2} {:>9.1} {:>9} {:>9}",
                        inst.family,
                        inst.graph.node_count(),
                        k,
                        seed,
                        dist.max_set_size(),
                        dist.avg_set_size(),
                        4.0 * (inst.graph.node_count() as f64).ln(),
                        dist.repair_count(),
                        covered
                    );
                }
            }
        }
    }
}
