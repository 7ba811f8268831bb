//! Experiment E10 — Theorem 15: the lower bound. Builds the bidirected hard
//! instances, verifies the distance symmetry the reduction requires, and
//! places the implemented schemes' (table bits, measured stretch) points
//! against the `o(n) tables ⇒ stretch ≥ 2` frontier.

use rtr_bench::{banner, reject_unread_env, ExperimentConfig};
use rtr_core::analysis::SchemeEvaluation;
use rtr_core::lowerbound::{
    hard_bidirected_instance, is_distance_symmetric, linear_table_reference_bits,
    roundtrip_stretch_from_oneway,
};
use rtr_core::naming::NamingAssignment;
use rtr_core::{PolyParams, PolynomialStretch, Stretch6Params, StretchSix};
use rtr_metric::DistanceMatrix;
use rtr_namedep::{LandmarkBallScheme, LandmarkParams};

fn main() {
    let cfg = ExperimentConfig::from_env(&[32, 64, 128], None, Some(2500));
    reject_unread_env(&cfg.env());

    banner("E10: Theorem 15 — reduction premises and the stretch >= 2 frontier");
    println!(
        "reduction arithmetic: one-way (3,3) -> roundtrip {}",
        roundtrip_stretch_from_oneway(3.0, 3.0)
    );
    println!(
        "{:<8} {:>10} {:>12} {:>14} {:>12} {:>12} {:>12}",
        "n", "symmetric", "scheme", "max-tbl-bits", "omega(n)ref", "avg-str", "max-str"
    );
    for &n in &cfg.sizes {
        let m_side = n / 2;
        let g = hard_bidirected_instance(m_side, 5);
        let dm = DistanceMatrix::build(&g);
        let symmetric = is_distance_symmetric(&dm);
        assert!(symmetric, "reduction premise violated");
        let names = NamingAssignment::random(g.node_count(), 3);
        let reference = linear_table_reference_bits(g.node_count());

        let s6 = StretchSix::build(
            &g,
            &dm,
            &names,
            LandmarkBallScheme::build(&g, &dm, LandmarkParams::default()),
            Stretch6Params::default(),
        );
        let selection = cfg.selection(g.node_count(), 1);
        let eval = SchemeEvaluation::measure(&g, &dm, &names, &s6, selection).unwrap();
        println!(
            "{:<8} {:>10} {:>12} {:>14} {:>12} {:>12.3} {:>12.3}",
            g.node_count(),
            symmetric,
            "s6/landmark",
            eval.max_table_bits,
            reference,
            eval.avg_stretch,
            eval.max_stretch
        );

        let poly = PolynomialStretch::build(&g, &dm, &names, PolyParams::with_k(2));
        let eval = SchemeEvaluation::measure(&g, &dm, &names, &poly, selection).unwrap();
        println!(
            "{:<8} {:>10} {:>12} {:>14} {:>12} {:>12.3} {:>12.3}",
            g.node_count(),
            symmetric,
            "poly-k2",
            eval.max_table_bits,
            reference,
            eval.avg_stretch,
            eval.max_stretch
        );
    }
    println!(
        "\nTheorem 15 (not falsifiable by simulation, demonstrated by construction):\n\
         any TINN roundtrip scheme whose every table is o(n) bits has stretch >= 2 on\n\
         some bidirected instance; the rows above show our compact schemes operating\n\
         in exactly that sublinear-table regime, hence their worst-case stretch on\n\
         this family can approach but never undercut the frontier as n grows."
    );
}
