//! Experiment E1 — regenerates Fig. 1 of the paper: the comparison table of
//! compact routing schemes (table size, roundtrip, name independence,
//! stretch), with the paper's stated bounds next to the measured behaviour of
//! this reproduction.

use rtr_bench::{banner, instance, reject_unread_env, ExperimentConfig};
use rtr_core::analysis::SchemeEvaluation;
use rtr_core::{
    ExStretch, ExStretchParams, PolyParams, PolynomialStretch, Stretch6Params, StretchSix,
};
use rtr_graph::generators::Family;
use rtr_namedep::{ExactOracleScheme, LandmarkBallScheme, TreeCoverScheme};

fn main() {
    let cfg = ExperimentConfig::from_env(&[64, 128, 256], None, Some(3000));
    reject_unread_env(&cfg.env());

    banner("Fig. 1 (paper, stated bounds)");
    println!(
        "{:<22} {:>12} {:>10} {:>17} {:>22}",
        "scheme", "table size", "roundtrip", "name-independent", "stretch"
    );
    for (scheme, table, rt, ni, stretch) in [
        ("TZ'01 [39]", "~O(n^1/2)", "no", "no", "3"),
        ("RTZ'02 [35]", "~O(n^1/2)", "yes", "no", "3"),
        ("AGMNT'04 [2]", "~O(n^1/2)", "no", "yes", "3"),
        ("This paper (k=2)", "~O(n^1/2)", "yes", "yes", "6"),
        ("ACLRT'03 [4]", "~O(n^2/k)", "no", "yes", "1+(k-1)(2^{k/2}-2)"),
        ("AGM'04 [1]", "~O(n^2/k)", "no", "yes", "O(k)"),
        ("This paper (general k)", "~O(n^2/k)", "yes", "yes", "min{(2^{k/2}-1)(k+e), 8k^2+4k-4}"),
    ] {
        println!("{scheme:<22} {table:>12} {rt:>10} {ni:>17} {stretch:>22}");
    }

    banner("Measured rows (this reproduction, strongly connected G(n,p))");
    println!("{}", SchemeEvaluation::table_header());
    for &n in &cfg.sizes {
        let inst = instance(Family::Gnp, n, 42);
        let (g, m, names) = (&inst.graph, &inst.metric, &inst.names);
        let selection = cfg.selection(g.node_count(), 1);

        let s6_oracle =
            StretchSix::build(g, m, names, ExactOracleScheme::build(g), Stretch6Params::default());
        let mut eval = SchemeEvaluation::measure(g, m, names, &s6_oracle, selection).unwrap();
        eval.scheme = "s6/oracle".into();
        println!("{}", eval.table_row());

        let s6_compact = StretchSix::build(
            g,
            m,
            names,
            LandmarkBallScheme::build(g, m),
            Stretch6Params::default(),
        );
        let mut eval = SchemeEvaluation::measure(g, m, names, &s6_compact, selection).unwrap();
        eval.scheme = "s6/landmark".into();
        println!("{}", eval.table_row());

        let ex_tree = ExStretch::build(
            g,
            m,
            names,
            TreeCoverScheme::build(g, m, 2),
            ExStretchParams::with_k(2),
        );
        let mut eval = SchemeEvaluation::measure(g, m, names, &ex_tree, selection).unwrap();
        eval.scheme = "ex-k2/cover".into();
        println!("{}", eval.table_row());

        let ex_oracle =
            ExStretch::build(g, m, names, ExactOracleScheme::build(g), ExStretchParams::with_k(3));
        let mut eval = SchemeEvaluation::measure(g, m, names, &ex_oracle, selection).unwrap();
        eval.scheme = "ex-k3/oracle".into();
        println!("{}", eval.table_row());

        let poly2 = PolynomialStretch::build(g, m, names, PolyParams::with_k(2));
        let mut eval = SchemeEvaluation::measure(g, m, names, &poly2, selection).unwrap();
        eval.scheme = "poly-k2".into();
        println!("{}", eval.table_row());

        let poly3 = PolynomialStretch::build(g, m, names, PolyParams::with_k(3));
        let mut eval = SchemeEvaluation::measure(g, m, names, &poly3, selection).unwrap();
        eval.scheme = "poly-k3".into();
        println!("{}", eval.table_row());

        println!(
            "{:<14} {:>6} {:>12}",
            "(reference)",
            n,
            format!("sqrt(n)={}", (n as f64).sqrt().ceil() as usize)
        );
        println!();
    }
}
