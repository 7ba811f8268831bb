//! Experiment E4 — Theorem 9: the exponential-tradeoff scheme. Sweeps the
//! digit count `k`, reporting measured stretch against the `(2^k − 1)·β`
//! bound (β = 1 for the oracle substrate, β = 4(2k_c−1) for the tree-cover
//! substrate) and dictionary size against n^{1/k}.

use rtr_bench::{banner, instance, reject_unread_env, ExperimentConfig};
use rtr_core::analysis::SchemeEvaluation;
use rtr_core::{ExStretch, ExStretchParams};
use rtr_graph::generators::Family;
use rtr_namedep::{ExactOracleScheme, NameDependentSubstrate, TreeCoverScheme};

fn main() {
    let cfg = ExperimentConfig::from_env(&[128, 256], None, Some(2500));
    reject_unread_env(&cfg.env());

    banner("E4: ExStretch with the exact-oracle substrate (bound 2^k - 1)");
    println!(
        "{:<6} {:>4} {:>9} {:>9} {:>9} {:>8} {:>12} {:>10}",
        "n", "k", "avg-str", "p95-str", "max-str", "bound", "max-entries", "n^(1/k)"
    );
    for &n in &cfg.sizes {
        let inst = instance(Family::Gnp, n, 11);
        let (g, m, names) = (&inst.graph, &inst.metric, &inst.names);
        for k in [2u32, 3, 4, 5] {
            let scheme = ExStretch::build(
                g,
                m,
                names,
                ExactOracleScheme::build(g),
                ExStretchParams::with_k(k),
            );
            let eval = SchemeEvaluation::measure(g, m, names, &scheme, cfg.selection(n, k as u64))
                .unwrap();
            let bound = (1u64 << k) - 1;
            assert!(eval.max_stretch <= bound as f64 + 1e-9);
            let max_dict = g.nodes().map(|v| scheme.dictionary_stats(v).entries).max().unwrap();
            println!(
                "{:<6} {:>4} {:>9.3} {:>9.3} {:>9.3} {:>8} {:>12} {:>10.1}",
                n,
                k,
                eval.avg_stretch,
                eval.p95_stretch,
                eval.max_stretch,
                bound,
                max_dict,
                (n as f64).powf(1.0 / k as f64)
            );
        }
    }

    banner("E4b: ExStretch with the compact tree-cover substrate (bound (2^k-1)*beta)");
    println!(
        "{:<6} {:>4} {:>6} {:>9} {:>9} {:>10} {:>12}",
        "n", "k", "beta", "avg-str", "max-str", "bound", "max-entries"
    );
    for &n in &cfg.sizes {
        let inst = instance(Family::Gnp, n, 12);
        let (g, m, names) = (&inst.graph, &inst.metric, &inst.names);
        for k in [2u32, 3] {
            let substrate = TreeCoverScheme::build(g, m, 2);
            let beta = substrate.guaranteed_roundtrip_stretch().unwrap();
            let scheme = ExStretch::build(g, m, names, substrate, ExStretchParams::with_k(k));
            let eval = SchemeEvaluation::measure(g, m, names, &scheme, cfg.selection(n, k as u64))
                .unwrap();
            let bound = scheme.paper_stretch_bound().expect("tree-cover β is proven") as f64;
            assert!(eval.max_stretch <= bound + 1e-9);
            println!(
                "{:<6} {:>4} {:>6.1} {:>9.3} {:>9.3} {:>10.1} {:>12}",
                n, k, beta, eval.avg_stretch, eval.max_stretch, bound, eval.max_table_entries
            );
        }
    }
}
