//! Experiment E5 — §4: the polynomial-tradeoff scheme. Sweeps `k`, reporting
//! measured stretch against the `8k² + 4k − 4` bound and table sizes against
//! `k²·n^{2/k}·log RTDiam`.

use rtr_bench::{banner, instance, reject_unread_env, ExperimentConfig};
use rtr_core::analysis::SchemeEvaluation;
use rtr_core::{PolyParams, PolynomialStretch};
use rtr_graph::generators::Family;

fn main() {
    let cfg = ExperimentConfig::from_env(&[64, 128, 256], None, Some(2000));
    reject_unread_env(&cfg.env());

    banner("E5: PolynomialStretch (bound 8k^2 + 4k - 4)");
    println!(
        "{:<8} {:>6} {:>4} {:>9} {:>9} {:>9} {:>8} {:>12} {:>10}",
        "family", "n", "k", "avg-str", "p95-str", "max-str", "bound", "max-entries", "levels"
    );
    for family in [Family::Gnp, Family::Grid] {
        for &n in &cfg.sizes {
            let inst = instance(family, n, 21);
            let (g, m, names) = (&inst.graph, &inst.metric, &inst.names);
            for k in [2u32, 3, 4] {
                let scheme = PolynomialStretch::build(g, m, names, PolyParams::with_k(k));
                let eval = SchemeEvaluation::measure(
                    g,
                    m,
                    names,
                    &scheme,
                    cfg.selection(g.node_count(), k as u64),
                )
                .unwrap();
                let bound = scheme.paper_stretch_bound();
                assert!(eval.max_stretch <= bound as f64 + 1e-9, "paper bound violated");
                println!(
                    "{:<8} {:>6} {:>4} {:>9.3} {:>9.3} {:>9.3} {:>8} {:>12} {:>10}",
                    inst.family,
                    g.node_count(),
                    k,
                    eval.avg_stretch,
                    eval.p95_stretch,
                    eval.max_stretch,
                    bound,
                    eval.max_table_entries,
                    scheme.level_count()
                );
            }
        }
    }
}
