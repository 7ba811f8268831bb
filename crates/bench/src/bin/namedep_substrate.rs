//! Experiment E9 — the Lemma 2 / Lemma 5 substrates: measured roundtrip
//! stretch, the rate at which the Lemma 2 inequality
//! `p(u,v) ≤ r(u,v) + d(u,v)` is satisfied, and table sizes, for all three
//! name-dependent substrates.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rtr_bench::{banner, instance, reject_unread_env, ExperimentConfig};
use rtr_graph::generators::Family;
use rtr_graph::{DiGraph, NodeId};
use rtr_metric::DistanceMatrix;
use rtr_namedep::{ExactOracleScheme, LandmarkBallScheme, NameDependentSubstrate, TreeCoverScheme};
use rtr_sim::ForwardAction;

/// Drives a substrate leg locally (the same loop `rtr-sim` runs for schemes).
fn leg<S: NameDependentSubstrate>(g: &DiGraph, s: &S, src: NodeId, mut label: S::Label) -> u64 {
    let mut at = src;
    let mut weight = 0;
    for _ in 0..8 * g.node_count() + 16 {
        match s.step(at, &mut label).expect("substrate step failed") {
            ForwardAction::Deliver => return weight,
            ForwardAction::Forward(port) => {
                let e = g.edge_by_port(at, port).expect("port resolves");
                weight += e.weight;
                at = e.to;
            }
        }
    }
    panic!("substrate did not terminate");
}

fn measure<S: NameDependentSubstrate>(
    name: &str,
    g: &DiGraph,
    m: &DistanceMatrix,
    s: &S,
    pairs: &[(NodeId, NodeId)],
) {
    let mut sum = 0.0;
    let mut worst: f64 = 0.0;
    let mut lemma2_ok = 0usize;
    for &(u, v) in pairs {
        let out = leg(g, s, u, s.pair_label(u, v));
        let back = leg(g, s, v, s.pair_label(v, u));
        let stretch = (out + back) as f64 / m.roundtrip(u, v) as f64;
        sum += stretch;
        worst = worst.max(stretch);
        if out <= m.roundtrip(u, v) + m.distance(u, v) {
            lemma2_ok += 1;
        }
    }
    let max_entries = g.nodes().map(|v| s.table_stats(v).entries).max().unwrap();
    let max_bits = g.nodes().map(|v| s.table_stats(v).bits).max().unwrap();
    println!(
        "{:<14} {:>6} {:>10.3} {:>10.3} {:>12.1}% {:>12} {:>12} {:>10}",
        name,
        g.node_count(),
        sum / pairs.len() as f64,
        worst,
        100.0 * lemma2_ok as f64 / pairs.len() as f64,
        max_entries,
        max_bits,
        s.max_label_bits()
    );
}

fn main() {
    let cfg = ExperimentConfig::from_env(&[64, 128, 256], None, Some(3000));
    reject_unread_env(&cfg.env());

    banner("E9: name-dependent substrates (roundtrip stretch, Lemma 2 rate, tables)");
    println!(
        "{:<14} {:>6} {:>10} {:>10} {:>13} {:>12} {:>12} {:>10}",
        "substrate",
        "n",
        "avg-str",
        "max-str",
        "lemma2-rate",
        "max-entries",
        "max-bits",
        "lbl-bits"
    );
    for &n in &cfg.sizes {
        let inst = instance(Family::Gnp, n, 77);
        let (g, m) = (&inst.graph, &inst.metric);

        let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
        for u in g.nodes() {
            for v in g.nodes() {
                if u != v {
                    pairs.push((u, v));
                }
            }
        }
        pairs.shuffle(&mut StdRng::seed_from_u64(4));
        pairs.truncate(cfg.pairs());

        let oracle = ExactOracleScheme::build(g);
        measure("exact-oracle", g, m, &oracle, &pairs);

        let landmark = LandmarkBallScheme::build(g, m);
        measure("landmark-ball", g, m, &landmark, &pairs);

        let cover = TreeCoverScheme::build(g, m, 2);
        measure("tree-cover k2", g, m, &cover, &pairs);
        println!();
    }
}
