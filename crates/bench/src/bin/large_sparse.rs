//! E12 — large-sparse scaling: build `StretchSix` at `n = 10 000` through the
//! on-demand [`LazyDijkstraOracle`] and record the peak-memory proxy.
//!
//! The dense `DistanceMatrix` at `n = 10 000` is `n² = 10⁸` distances
//! (~800 MB) before any scheme table exists — the wall that capped every seed
//! experiment at a few thousand nodes. This binary demonstrates the
//! `DistanceOracle` refactor's headline: the whole pipeline (truncated
//! `Init_v` orders, Lemma 1 block distribution, landmark substrate, the §2
//! scheme) runs against a bounded LRU row cache, and the run reports
//!
//! * `rows computed` — Dijkstra invocations over the oracle's lifetime,
//! * `peak resident rows` — the most rows ever held at once (each row is `n`
//!   distances), i.e. the peak-memory proxy, asserted `< 30%` of the `n`
//!   rows the dense matrix would materialise,
//! * construction wall-clock per phase and sampled roundtrip stretch, so the
//!   scaling numbers come with correctness evidence attached.
//!
//! Environment: `RTR_N` (default 10 000), `RTR_CACHE` (default
//! `max(n/50, 16)`), `RTR_PAIRS` (default 200 sampled roundtrips); any other
//! `RTR_*` variable ends the run.

use rtr_bench::{banner, env_or, reject_unread_env};
use rtr_core::naming::NamingAssignment;
use rtr_core::{Stretch6Params, StretchSix};
use rtr_graph::generators::ring_with_chords;
use rtr_graph::NodeId;
use rtr_metric::LazyDijkstraOracle;
use rtr_namedep::{LandmarkBallScheme, LandmarkParams};
use rtr_sim::{RoundtripRouting, Simulator};
use std::time::Instant;

fn main() {
    reject_unread_env(&["RTR_N", "RTR_CACHE", "RTR_PAIRS"]);
    let n = env_or("RTR_N", 10_000);
    let cache_rows = env_or("RTR_CACHE", (n / 50).max(16));
    let sample_pairs = env_or("RTR_PAIRS", 200usize);

    banner(&format!("E12: large sparse build, n = {n}, row cache = {cache_rows}"));
    let t0 = Instant::now();
    let g = ring_with_chords(n, 3 * n, 42).expect("generator failed");
    println!("graph: n = {}, m = {} ({:.1?})", g.node_count(), g.edge_count(), t0.elapsed());

    let oracle = LazyDijkstraOracle::new(&g, cache_rows);
    let names = NamingAssignment::random(n, 7);

    let t1 = Instant::now();
    let substrate = LandmarkBallScheme::build(&g, &oracle, LandmarkParams::default());
    println!(
        "landmark substrate: {} landmarks, max ball {} ({:.1?})",
        substrate.landmarks().len(),
        substrate.max_ball_size(),
        t1.elapsed()
    );

    let t2 = Instant::now();
    let scheme = StretchSix::build(&g, &oracle, &names, substrate, Stretch6Params::default());
    println!("stretch-6 tables ({:.1?})", t2.elapsed());

    let stats = oracle.stats();
    let dense_rows = n; // the dense matrix materialises one n-entry row per node
    let peak_fraction = stats.peak_resident_rows as f64 / dense_rows as f64;
    banner("peak-memory proxy");
    println!("rows computed (Dijkstras):   {}", stats.rows_computed);
    println!("row-cache hits:              {}", stats.cache_hits);
    println!(
        "peak resident rows:          {} of the {} rows a dense matrix holds ({:.1}% of n²)",
        stats.peak_resident_rows,
        dense_rows,
        100.0 * peak_fraction
    );
    // The 30% budget is the experiment's acceptance bar; it only makes sense
    // when the configured cache is itself below the bar (at toy n the default
    // 16-row floor already exceeds 30% of n).
    if cache_rows * 10 < 3 * dense_rows {
        assert!(
            peak_fraction < 0.30,
            "peak resident rows {} breach the 30% budget of n = {n}",
            stats.peak_resident_rows
        );
    } else {
        println!("(budget assertion skipped: cache {cache_rows} ≥ 30% of n = {n})");
    }

    banner("sampled correctness + stretch");
    let sim = Simulator::new(&g);
    let mut worst: f64 = 0.0;
    let mut sum = 0.0;
    let mut step = 0x9e37u64;
    let mut checked = 0usize;
    while checked < sample_pairs {
        step = step.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(1);
        let s = NodeId((step >> 16) as u32 % n as u32);
        let t = NodeId((step >> 40) as u32 % n as u32);
        if s == t {
            continue;
        }
        let report = sim
            .roundtrip_brief(&scheme, s, t, names.name_of(t))
            .unwrap_or_else(|e| panic!("roundtrip ({s},{t}) failed: {e}"));
        let stretch = report.stretch(&oracle);
        worst = worst.max(stretch);
        sum += stretch;
        checked += 1;
    }
    println!(
        "{checked} sampled roundtrips: avg stretch {:.3}, worst {:.3}",
        sum / checked as f64,
        worst
    );

    let max_entries = g.nodes().map(|v| scheme.table_stats(v).entries).max().unwrap_or(0);
    println!("largest table: {max_entries} entries (n = {n}; compact ⇔ entries ≪ n)");
    println!("total wall-clock: {:.1?}", t0.elapsed());
}
