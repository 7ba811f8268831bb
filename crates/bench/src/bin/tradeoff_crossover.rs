//! Experiment E6 — the combined tradeoff of the abstract / last row of
//! Fig. 1: `min{(2^{k/2} − 1)(k + ε), 8k² + 4k − 4}` for tables of size
//! Õ(ε⁻¹ n^{2/k}). The exponential branch wins for k ≤ 12, the polynomial one
//! beyond — this binary prints the analytic crossover and backs the small-k
//! region with measured stretch from both implemented schemes at equal table
//! budget (the exponential scheme instantiated with k/2 digits so both use
//! Õ(n^{2/k}) space).

use rtr_bench::{banner, instance, reject_unread_env, ExperimentConfig};
use rtr_core::analysis::SchemeEvaluation;
use rtr_core::{ExStretch, ExStretchParams, PolyParams, PolynomialStretch};
use rtr_graph::generators::Family;
use rtr_namedep::ExactOracleScheme;

fn main() {
    let cfg = ExperimentConfig::from_env(&[128], None, Some(2000));
    reject_unread_env(&cfg.env());
    let epsilon = 1.0f64;

    banner("E6: analytic crossover of the two tradeoff branches");
    println!("{:>4} {:>22} {:>16} {:>10}", "k", "(2^(k/2)-1)(k+eps)", "8k^2+4k-4", "winner");
    for k in 2..=16u32 {
        let expo = ((2f64).powf(k as f64 / 2.0) - 1.0) * (k as f64 + epsilon);
        let poly = (8 * k * k + 4 * k - 4) as f64;
        let winner = if expo <= poly { "exponential" } else { "polynomial" };
        println!("{k:>4} {expo:>22.1} {poly:>16} {winner:>10}");
    }
    println!("(the exponential branch wins for k <= 12, as stated in §4)");

    banner("E6b: measured stretch of both schemes at equal table budget (oracle substrate)");
    println!(
        "{:>6} {:>4} {:>16} {:>16} {:>14} {:>14}",
        "n", "k", "ex(k/2) max-str", "poly(k) max-str", "ex entries", "poly entries"
    );
    for &n in &cfg.sizes {
        let inst = instance(Family::Gnp, n, 31);
        let (g, m, names) = (&inst.graph, &inst.metric, &inst.names);
        for k in [4u32, 6, 8] {
            let ex = ExStretch::build(
                g,
                m,
                names,
                ExactOracleScheme::build(g),
                ExStretchParams::with_k(k / 2),
            );
            let poly = PolynomialStretch::build(g, m, names, PolyParams::with_k(k));
            let ex_eval =
                SchemeEvaluation::measure(g, m, names, &ex, cfg.selection(n, k as u64)).unwrap();
            let poly_eval =
                SchemeEvaluation::measure(g, m, names, &poly, cfg.selection(n, k as u64)).unwrap();
            let ex_entries = g.nodes().map(|v| ex.dictionary_stats(v).entries).max().unwrap();
            println!(
                "{:>6} {:>4} {:>16.3} {:>16.3} {:>14} {:>14}",
                n,
                k,
                ex_eval.max_stretch,
                poly_eval.max_stretch,
                ex_entries,
                poly_eval.max_table_entries
            );
        }
    }
}
