//! Scheme shootout: every scheme of the paper on the same graph, side by
//! side — the quickest way to see the space/stretch tradeoff of Fig. 1 in
//! action on a live instance.
//!
//! Run with: `cargo run --release --example scheme_shootout [n]`

use compact_roundtrip_routing::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(192);
    let g = generators::strongly_connected_gnp(n, (8.0 / n as f64).min(0.5), 2024)?;
    let m = DistanceMatrix::build(&g);
    let names = NamingAssignment::random(g.node_count(), 77);
    let traffic = PairSelection::Sampled { count: 4000, seed: 5 };
    println!("instance: {g}\n");
    println!("{}", SchemeEvaluation::table_header());

    // All three schemes built concurrently over the one shared oracle
    // (rtr_core::SchemeSuite fans construction out across worker threads).
    let suite = SchemeSuite::build(&g, &m, &names);
    for (label, eval) in [
        ("suite/s6", SchemeEvaluation::measure(&g, &m, &names, &suite.stretch6, traffic)?),
        ("suite/ex", SchemeEvaluation::measure(&g, &m, &names, &suite.exstretch, traffic)?),
        ("suite/poly", SchemeEvaluation::measure(&g, &m, &names, &suite.poly, traffic)?),
    ] {
        let mut eval = eval;
        eval.scheme = label.into();
        println!("{}", eval.table_row());
    }

    // Name-dependent reference substrates wrapped in the stretch-6 dictionary.
    let s6_oracle =
        StretchSix::build(&g, &m, &names, ExactOracleScheme::build(&g), Stretch6Params::default());
    let mut e = SchemeEvaluation::measure(&g, &m, &names, &s6_oracle, traffic)?;
    e.scheme = "s6 (oracle)".into();
    println!("{}", e.table_row());

    let s6_compact = StretchSix::build(
        &g,
        &m,
        &names,
        LandmarkBallScheme::build(&g, &m),
        Stretch6Params::default(),
    );
    let mut e = SchemeEvaluation::measure(&g, &m, &names, &s6_compact, traffic)?;
    e.scheme = "s6 (landmark)".into();
    println!("{}", e.table_row());

    for k in [2u32, 3, 4] {
        let ex = ExStretch::build(
            &g,
            &m,
            &names,
            ExactOracleScheme::build(&g),
            ExStretchParams::with_k(k),
        );
        let mut e = SchemeEvaluation::measure(&g, &m, &names, &ex, traffic)?;
        e.scheme = format!("ex k={k} (orc)");
        println!("{}", e.table_row());
    }

    for k in [2u32, 3] {
        let poly = PolynomialStretch::build(&g, &m, &names, PolyParams::with_k(k));
        let mut e = SchemeEvaluation::measure(&g, &m, &names, &poly, traffic)?;
        e.scheme = format!("poly k={k}");
        println!("{}", e.table_row());
    }

    println!("\npaper bounds: s6 <= 6; ex <= (2^k - 1)*beta; poly <= 8k^2 + 4k - 4");
    Ok(())
}
