//! Engine quickstart: freeze a built scheme into a sharded serving plane and
//! drive skewed workloads through the multi-threaded engine with strided
//! verification.
//!
//! ```text
//! cargo run --release -p compact-roundtrip-routing --example serving
//! ```

use compact_roundtrip_routing::prelude::*;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Build a scheme exactly as in the quickstart…
    let g = Arc::new(generators::strongly_connected_gnp(256, 0.04, 7)?);
    let m = DistanceMatrix::build(&g);
    let names = NamingAssignment::random(g.node_count(), 1);
    let scheme =
        StretchSix::build(&g, &m, &names, ExactOracleScheme::build(&g), Default::default());

    // …then freeze it into a read-only plane (Arc snapshots, no locks),
    // partition the destinations into four hash shards, and serve.  The same
    // requests always produce the same reports, whatever the shard or worker
    // count — the engine is observationally identical to the sequential
    // `Simulator`.
    let plane = FrozenPlane::freeze(Arc::clone(&g), scheme, Arc::new(names.to_names()));
    let sharded = ShardedPlane::new(plane, ShardMap::hashed(g.node_count(), 4, 42));
    let engine = Engine::new(EngineConfig::with_workers(4));
    // Verify a 1-in-16 strided sample of every stream against the exact
    // metric, enforcing the §2 scheme's proven stretch-6 ceiling.
    let verify = VerifyConfig::sampled(16).with_bound(StretchBound::at_most(6));

    println!("workload        queries/s   avg-hops   p50/p95/p99 hops   p99-stretch");
    for workload in Workload::ALL {
        let requests = workload.generate(g.node_count(), 50_000, 42);
        let outcome = engine.serve_verified_sharded(&sharded, &requests, &m, &verify)?;
        let (h50, h95, h99) = outcome.summary.hop_latency();
        println!(
            "{:<14} {:>10.0} {:>10.2} {:>18} {:>13.3}",
            workload.name(),
            outcome.summary.queries_per_sec(),
            outcome.summary.avg_hops(),
            format!("{h50}/{h95}/{h99}"),
            outcome.report.histogram.percentile(0.99),
        );
        // Strict verification already enforced the bound; spell it out.
        assert!(outcome.report.is_clean());
        assert!(outcome.report.max_stretch() <= 6.0 + 1e-9);
    }
    Ok(())
}
