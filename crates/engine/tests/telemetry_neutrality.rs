//! Telemetry neutrality: the observability plane must never change what the
//! engine computes.  [`rtr_engine::VerifiedReport`] and the deterministic
//! parts of the sharded outcome (per-shard query counts, summary aggregates)
//! are asserted **bit-identical** with the telemetry sink enabled vs. the
//! runtime no-op sink, for every scheme × worker count × shard layout.
//!
//! One `#[test]` function on purpose: `rtr_telemetry::set_enabled` flips a
//! process-global flag, so the toggling must stay sequential.  Integration
//! test binaries are separate processes, which keeps this isolated from every
//! other test.

use rtr_core::naming::NamingAssignment;
use rtr_core::{SchemeSuite, SuiteParams};
use rtr_engine::{
    Engine, EngineConfig, FrozenPlane, ShardMap, ShardedPlane, StretchBound, VerifiedShardedServe,
    VerifyConfig, Workload,
};
use rtr_graph::generators::strongly_connected_gnp;
use rtr_metric::{DistanceMatrix, LazyDijkstraOracle};
use rtr_sim::RoundtripRouting;
use std::sync::Arc;

/// Runs `f` once with the sink enabled and once with the runtime no-op sink,
/// returning both outcomes (sink restored to enabled afterwards).
fn with_and_without_telemetry<T>(mut f: impl FnMut() -> T) -> (T, T) {
    rtr_telemetry::set_enabled(true);
    let on = f();
    rtr_telemetry::set_enabled(false);
    let off = f();
    rtr_telemetry::set_enabled(true);
    (on, off)
}

/// The schedule-independent fields of a [`rtr_engine::ServeSummary`].
fn summary_key(s: &rtr_engine::ServeSummary) -> (usize, u64, u128, usize, (usize, usize, usize)) {
    (s.queries, s.total_hops, s.total_weight, s.max_header_bits, s.hop_latency())
}

fn check_plane<S: RoundtripRouting + Send + Sync>(
    plane: &FrozenPlane<S>,
    requests: &[rtr_engine::Request],
    oracle: &LazyDijkstraOracle<'_>,
    bound: StretchBound,
    label: &str,
) {
    let config = VerifyConfig::full().with_bound(bound);
    // Chunks of 16 spread each case over the pool's workers and handoffs;
    // the last case's default chunk serves the whole stream on the calling
    // thread.
    let default_chunk = EngineConfig::default().chunk_size;
    for (workers, chunk_size) in [(1usize, 16), (2, 16), (8, 16), (2, default_chunk)] {
        let engine =
            Engine::new(EngineConfig { chunk_size, ..EngineConfig::with_workers(workers) });
        let at = format!("{workers} workers, chunk {chunk_size}");

        // Report, per-shard query counts, and summary aggregates are all
        // telemetry-blind.  (Handoff counts and wall times are
        // schedule-dependent and excluded by design.)
        for shards in [1usize, 2, 4] {
            for map in [
                ShardMap::hashed(plane.node_count(), shards, 0xA11CE),
                ShardMap::range(plane.node_count(), shards),
            ] {
                let policy = map.policy().name();
                let sharded = ShardedPlane::new(plane.clone(), map);
                let (on, off): (VerifiedShardedServe, VerifiedShardedServe) =
                    with_and_without_telemetry(|| {
                        engine
                            .serve_verified_sharded(&sharded, requests, oracle, &config)
                            .unwrap_or_else(|e| panic!("{label}/{policy}×{shards}({at}): {e}"))
                    });
                assert_eq!(
                    on.report, off.report,
                    "{label}/{policy}×{shards}({at}): telemetry changed the sharded report"
                );
                let queries = |o: &VerifiedShardedServe| {
                    o.shards.iter().map(|s| (s.shard, s.queries)).collect::<Vec<_>>()
                };
                assert_eq!(
                    queries(&on),
                    queries(&off),
                    "{label}/{policy}×{shards}({at}): telemetry changed shard queries"
                );
                assert_eq!(
                    summary_key(&on.summary),
                    summary_key(&off.summary),
                    "{label}/{policy}×{shards}({at}): telemetry changed the aggregates"
                );
            }
        }
    }
}

#[test]
fn reports_are_bit_identical_with_telemetry_on_and_off() {
    let n = 26;
    let g = Arc::new(strongly_connected_gnp(n, 0.14, 42).unwrap());
    let dense = DistanceMatrix::build(&g);
    let lazy = LazyDijkstraOracle::new(&g, 6);
    let names = NamingAssignment::random(n, 0x7e57);
    let suite = SchemeSuite::build(&g, &dense, &names, SuiteParams::default());

    let ex_bound = suite.exstretch.paper_stretch_bound().unwrap();
    let poly_bound = suite.poly.paper_stretch_bound();
    let (stretch6, exstretch, poly) = suite.into_parts();
    let frozen_names = Arc::new(names.to_names());

    let plane6 = FrozenPlane::freeze(Arc::clone(&g), stretch6, Arc::clone(&frozen_names));
    let planex = FrozenPlane::freeze(Arc::clone(&g), exstretch, Arc::clone(&frozen_names));
    let planep = FrozenPlane::freeze(Arc::clone(&g), poly, Arc::clone(&frozen_names));

    let requests = Workload::Mix.generate(n, 160, 99);
    check_plane(&plane6, &requests, &lazy, StretchBound::at_most(6), "stretch6");
    check_plane(&planex, &requests, &lazy, StretchBound::at_most(ex_bound), "exstretch");
    check_plane(&planep, &requests, &lazy, StretchBound::at_most(poly_bound), "polystretch");
}
