//! Experiment E12 — header sizes: the largest packet header each scheme ever
//! writes, against the paper's `O(log² n)` (stretch-6, polynomial) and
//! `o(k·log² n)` (exponential) accounting.

use rtr_bench::{banner, instance, reject_unread_env, ExperimentConfig};
use rtr_core::analysis::SchemeEvaluation;
use rtr_core::{
    ExStretch, ExStretchParams, PolyParams, PolynomialStretch, Stretch6Params, StretchSix,
};
use rtr_graph::generators::Family;
use rtr_namedep::{ExactOracleScheme, LandmarkBallScheme, LandmarkParams};
use rtr_sim::id_bits;

fn main() {
    let cfg = ExperimentConfig::from_env(&[64, 128, 256, 512], None, Some(1500));
    reject_unread_env(&cfg.env());

    banner("E12: maximum header bits per scheme");
    println!(
        "{:<16} {:>6} {:>14} {:>12} {:>14}",
        "scheme", "n", "max-hdr-bits", "log^2(n)", "k*log^2(n)"
    );
    for &n in &cfg.sizes {
        let inst = instance(Family::Gnp, n, 55);
        let (g, m, names) = (&inst.graph, &inst.metric, &inst.names);
        let selection = cfg.selection(g.node_count(), 9);
        let word = id_bits(g.node_count());
        let log2 = (word * word) as u64;

        let s6 = StretchSix::build(
            g,
            m,
            names,
            LandmarkBallScheme::build(g, m, LandmarkParams::default()),
            Stretch6Params::default(),
        );
        let eval = SchemeEvaluation::measure(g, m, names, &s6, selection).unwrap();
        println!(
            "{:<16} {:>6} {:>14} {:>12} {:>14}",
            "s6/landmark", n, eval.max_header_bits, log2, "-"
        );

        let k = 3u32;
        let ex =
            ExStretch::build(g, m, names, ExactOracleScheme::build(g), ExStretchParams::with_k(k));
        let eval = SchemeEvaluation::measure(g, m, names, &ex, selection).unwrap();
        println!(
            "{:<16} {:>6} {:>14} {:>12} {:>14}",
            "ex-k3/oracle",
            n,
            eval.max_header_bits,
            log2,
            k as u64 * log2
        );

        let poly = PolynomialStretch::build(g, m, names, PolyParams::with_k(2));
        let eval = SchemeEvaluation::measure(g, m, names, &poly, selection).unwrap();
        println!(
            "{:<16} {:>6} {:>14} {:>12} {:>14}",
            "poly-k2", n, eval.max_header_bits, log2, "-"
        );
        println!();
    }
}
