//! Request/acknowledgment routing over an asymmetric wide-area network —
//! the scenario that motivates the *roundtrip* metric (§1, Cowen–Wagner): in
//! a directed network a packet and its acknowledgment cannot in general
//! retrace the same path, so cost must be accounted per round trip.
//!
//! The WAN is modelled as a layered digraph with one-way "express" links
//! (satellite/backbone links are frequently asymmetric), so `d(u,v)` and
//! `d(v,u)` differ wildly. The example compares the stretch-6 scheme and the
//! polynomial scheme on the same traffic matrix and prints how far each stays
//! from the optimal roundtrip.
//!
//! Run with: `cargo run --release --example ack_routing_wan`

use compact_roundtrip_routing::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 16 layers of 16 routers with asymmetric connectivity.
    let g = generators::layered_cycle(16, 16, 5)?;
    let m = DistanceMatrix::build(&g);
    let n = g.node_count();
    println!("WAN model: {g}");

    // How asymmetric is it? Compare d(u,v) with d(v,u) over a sample.
    let mut ratio_sum = 0.0;
    let mut samples = 0;
    for i in 0..200u32 {
        let u = NodeId(i % n as u32);
        let v = NodeId((i * 31 + 7) % n as u32);
        if u == v {
            continue;
        }
        let a = m.distance(u, v) as f64;
        let b = m.distance(v, u) as f64;
        ratio_sum += a.max(b) / a.min(b);
        samples += 1;
    }
    println!("asymmetry: average max(d(u,v),d(v,u))/min = {:.2}\n", ratio_sum / samples as f64);

    let names = NamingAssignment::random(n, 23);
    let traffic = PairSelection::Sampled { count: 3000, seed: 8 };

    // Scheme 1: stretch-6 on the compact landmark substrate.
    let s6 = StretchSix::build(
        &g,
        &m,
        &names,
        LandmarkBallScheme::build(&g, &m),
        Stretch6Params::default(),
    );
    let e6 = SchemeEvaluation::measure(&g, &m, &names, &s6, traffic)?;

    // Scheme 2: the polynomial scheme with k = 3.
    let poly = PolynomialStretch::build(&g, &m, &names, PolyParams::with_k(3));
    let ep = SchemeEvaluation::measure(&g, &m, &names, &poly, traffic)?;

    println!("{}", SchemeEvaluation::table_header());
    println!("{}", e6.table_row());
    println!("{}", ep.table_row());

    println!(
        "\nstretch-6: {:.0}% of request/ack pairs were routed at the optimal roundtrip cost",
        100.0 * e6.optimal_fraction
    );
    println!(
        "polynomial (k=3, bound {}): {:.0}% optimal, max header {} bits",
        poly.paper_stretch_bound(),
        100.0 * ep.optimal_fraction,
        ep.max_header_bits
    );
    Ok(())
}
