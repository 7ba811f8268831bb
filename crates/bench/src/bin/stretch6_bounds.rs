//! Experiment E2 — the §2 theorem: the stretch-6 scheme on a size sweep over
//! several graph families. Reports the stretch distribution (must stay ≤ 6
//! with the oracle substrate) and table-size scaling against √n·log n.

use rtr_bench::{banner, instance, reject_unread_env, ExperimentConfig};
use rtr_core::analysis::SchemeEvaluation;
use rtr_core::{Stretch6Params, StretchSix};
use rtr_graph::generators::Family;
use rtr_namedep::{ExactOracleScheme, LandmarkBallScheme};

fn main() {
    let cfg = ExperimentConfig::from_env(&[64, 128, 256, 512], Some(2), Some(2500));
    reject_unread_env(&cfg.env());

    banner("E2: stretch-6 scheme, oracle substrate (hard bound: 6)");
    println!(
        "{:<12} {:>6} {:>8} {:>9} {:>9} {:>9} {:>12} {:>14}",
        "family", "n", "seed", "avg-str", "p95-str", "max-str", "max-entries", "sqrt(n)*log(n)"
    );
    for family in [Family::Gnp, Family::Grid, Family::RingChords, Family::ScaleFree] {
        for &n in &cfg.sizes {
            for seed in 0..cfg.seeds() {
                let inst = instance(family, n, seed);
                let (g, m, names) = (&inst.graph, &inst.metric, &inst.names);
                let scheme = StretchSix::build(
                    g,
                    m,
                    names,
                    ExactOracleScheme::build(g),
                    Stretch6Params::default(),
                );
                let eval = SchemeEvaluation::measure(
                    g,
                    m,
                    names,
                    &scheme,
                    cfg.selection(g.node_count(), seed),
                )
                .unwrap();
                let max_dict = g.nodes().map(|v| scheme.dictionary_stats(v).entries).max().unwrap();
                let reference =
                    ((g.node_count() as f64).sqrt() * (g.node_count() as f64).ln()).ceil() as usize;
                assert!(eval.max_stretch <= 6.0 + 1e-9, "stretch-6 bound violated");
                println!(
                    "{:<12} {:>6} {:>8} {:>9.3} {:>9.3} {:>9.3} {:>12} {:>14}",
                    inst.family,
                    g.node_count(),
                    seed,
                    eval.avg_stretch,
                    eval.p95_stretch,
                    eval.max_stretch,
                    max_dict,
                    reference
                );
            }
        }
    }

    banner("E2b: stretch-6 scheme, compact landmark substrate (measured end-to-end)");
    println!(
        "{:<12} {:>6} {:>9} {:>9} {:>9} {:>12} {:>12}",
        "family", "n", "avg-str", "p95-str", "max-str", "max-entries", "max-bits"
    );
    for &n in &cfg.sizes {
        let inst = instance(Family::Gnp, n, 7);
        let (g, m, names) = (&inst.graph, &inst.metric, &inst.names);
        let scheme = StretchSix::build(
            g,
            m,
            names,
            LandmarkBallScheme::build(g, m),
            Stretch6Params::default(),
        );
        let eval = SchemeEvaluation::measure(g, m, names, &scheme, cfg.selection(n, 3)).unwrap();
        println!(
            "{:<12} {:>6} {:>9.3} {:>9.3} {:>9.3} {:>12} {:>12}",
            inst.family,
            g.node_count(),
            eval.avg_stretch,
            eval.p95_stretch,
            eval.max_stretch,
            eval.max_table_entries,
            eval.max_table_bits
        );
    }
}
