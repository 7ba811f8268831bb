//! Quickstart: build a strongly connected digraph, construct the stretch-6
//! TINN scheme on it, and route a few packets through the distributed
//! simulator, printing the routes and their stretch.
//!
//! Run with: `cargo run --release --example quickstart`

use compact_roundtrip_routing::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A 256-node random strongly connected digraph with weights in [1, 16].
    let g = generators::strongly_connected_gnp(256, 0.03, 42)?;
    println!("graph: {g}");

    // 2. All-pairs distances (used for table construction and for measuring
    //    stretch — routing itself never consults them).
    let m = DistanceMatrix::build(&g);

    // 3. The adversary names the nodes with a random permutation of 0..n.
    let names = NamingAssignment::random(g.node_count(), 7);

    // 4. Build the stretch-6 scheme on the compact landmark substrate.
    let substrate = LandmarkBallScheme::build(&g, &m);
    let scheme = StretchSix::build(&g, &m, &names, substrate, Stretch6Params::default());
    let worst_table = scheme.table_stats(NodeId(0));
    println!(
        "tables built: neighborhood size {}, node 0 stores {} entries ({} bits)",
        scheme.neighborhood_size(),
        worst_table.entries,
        worst_table.bits
    );

    // 5. Route a handful of roundtrip requests.
    let sim = Simulator::new(&g);
    for (s, t) in [(0u32, 200u32), (17, 3), (101, 250), (255, 1)] {
        let (s, t) = (NodeId(s), NodeId(t));
        let report = sim.roundtrip_brief(&scheme, s, t, names.name_of(t))?;
        println!(
            "{s} -> name {:>4} (node {t}): {} hops out, {} hops back, weight {}, r(s,t) = {}, stretch {:.3}",
            names.name_of(t),
            report.outbound.hops,
            report.inbound.hops,
            report.total_weight(),
            m.roundtrip(s, t),
            report.stretch(&m)
        );
    }

    // 6. Aggregate over a sample of requests.
    let eval = SchemeEvaluation::measure(
        &g,
        &m,
        &names,
        &scheme,
        PairSelection::Sampled { count: 2000, seed: 1 },
    )?;
    println!("\n{}", SchemeEvaluation::table_header());
    println!("{}", eval.table_row());
    Ok(())
}
