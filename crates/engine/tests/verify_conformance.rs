//! The verification plane's core contract: for every scheme, workload, and
//! oracle flavor, [`Engine::serve_verified_sharded`] under
//! [`VerifyMode::Full`] produces a [`rtr_engine::VerifiedReport`]
//! **bit-identical** across 1, 2 and 8 workers (and across flush
//! thresholds) and equal to [`verify_sequential`], the sequential
//! oracle-checked replay — checking 100% of the stream, within each scheme's
//! proven stretch ceiling, in strict mode.  Any shard count × hash seed ×
//! worker count reproduces the same report, with per-shard query counts
//! that depend only on the destinations, never on the schedule.
//!
//! The streams here are shorter than the engine's default chunk, which
//! would serve each one on the calling thread; the engines pin chunks of
//! [`CHUNK`] so every case runs on the pool's workers, and one
//! default-chunk case per check keeps the calling thread covered.

use proptest::prelude::*;
use rtr_core::naming::NamingAssignment;
use rtr_core::{SchemeSuite, SparseRepairKit, SparseSuiteParams};
use rtr_engine::{
    chaos_report, verify_sequential, Engine, EngineConfig, EpochReport, FrozenPlane, ShardMap,
    ShardedPlane, StretchBound, VerifiedReport, VerifyConfig, VerifyMode, Workload,
};
use rtr_graph::generators::strongly_connected_gnp;
use rtr_graph::{FaultPlan, NodeId};
use rtr_metric::{
    CachedSubsetOracle, DistanceMatrix, DistanceOracle, LazyDijkstraOracle, RowInvalidation,
};
use rtr_sim::RoundtripRouting;
use std::sync::Arc;

/// The calling-thread threshold: small enough that every stream below runs
/// on the pool.
const CHUNK: usize = 16;

/// An engine of `workers` threads that serves any stream longer than
/// [`CHUNK`] on its pool.
fn pooled(workers: usize) -> Engine {
    Engine::new(EngineConfig { chunk_size: CHUNK, ..EngineConfig::with_workers(workers) })
}

/// Asserts that full verification of `requests` over `plane` is
/// schedule-independent: every worker count × oracle flavor × flush
/// threshold reproduces the sequential dense-oracle replay bit for bit.
fn check_conformance<S: RoundtripRouting + Send + Sync>(
    plane: &FrozenPlane<S>,
    requests: &[rtr_engine::Request],
    dense: &DistanceMatrix,
    lazy: &LazyDijkstraOracle<'_>,
    subset: &CachedSubsetOracle<'_>,
    bound: StretchBound,
    label: &str,
) {
    let config = VerifyConfig::full().with_bound(bound);
    let reference: VerifiedReport = verify_sequential(plane, requests, dense, &config)
        .unwrap_or_else(|e| panic!("{label}: sequential replay failed: {e}"));
    assert_eq!(reference.checked, requests.len(), "{label}: full mode must check 100%");
    assert!(reference.is_clean(), "{label}: proven bound violated: {:?}", reference.violations);

    let single = ShardedPlane::new(plane.clone(), ShardMap::single(plane.node_count()));
    for workers in [1usize, 2, 8] {
        let engine = pooled(workers);
        for (oracle, oracle_name) in
            [(dense as &dyn DistanceOracle, "dense"), (lazy, "lazy"), (subset, "subset")]
        {
            let outcome = engine
                .serve_verified_sharded(&single, requests, oracle, &config)
                .unwrap_or_else(|e| panic!("{label}/{oracle_name}({workers}): {e}"));
            assert_eq!(
                outcome.report, reference,
                "{label}/{oracle_name}: report diverged at {workers} workers"
            );
        }
        // A tiny flush threshold forces many mid-stream bucket flushes; the
        // report must not notice.
        let tight = VerifyConfig { flush_pending: 13, ..config };
        let outcome = engine
            .serve_verified_sharded(&single, requests, dense, &tight)
            .unwrap_or_else(|e| panic!("{label}/tight({workers}): {e}"));
        assert_eq!(outcome.report, reference, "{label}: flush threshold leaked into the report");
    }

    // The sharded plane must reproduce the same report bit for bit for any
    // shard count × hash seed × worker count, with per-shard query counts
    // that are destination-pure (identical whatever the worker count).
    for shards in [1usize, 2, 4] {
        for seed in [0xA11CE, 0xB0B] {
            let sharded = ShardedPlane::new(
                plane.clone(),
                ShardMap::hashed(plane.node_count(), shards, seed),
            );
            let mut shard_queries: Option<Vec<u64>> = None;
            for workers in [1usize, 2, 8] {
                let engine = pooled(workers);
                let outcome = engine
                    .serve_verified_sharded(&sharded, requests, lazy, &config)
                    .unwrap_or_else(|e| panic!("{label}/{seed:#x}×{shards}({workers}): {e}"));
                assert_eq!(
                    outcome.report, reference,
                    "{label}: sharded report diverged (seed {seed:#x}, {shards} shards, \
                     {workers} workers)"
                );
                let queries: Vec<u64> = outcome.shards.iter().map(|s| s.queries).collect();
                assert_eq!(queries.iter().sum::<u64>(), requests.len() as u64, "{label}");
                match &shard_queries {
                    None => shard_queries = Some(queries),
                    Some(first) => assert_eq!(
                        &queries, first,
                        "{label}: per-shard queries depend on the worker count"
                    ),
                }
            }
        }
    }

    // The default chunk serves the whole stream on the calling thread.
    let sharded = ShardedPlane::new(plane.clone(), ShardMap::hashed(plane.node_count(), 3, 7));
    let engine = Engine::new(EngineConfig::with_workers(3));
    assert!(requests.len() <= engine.config().chunk_size, "{label}: not one chunk");
    let outcome = engine.serve_verified_sharded(&sharded, requests, subset, &config).unwrap();
    assert_eq!(outcome.report, reference, "{label}: calling-thread report diverged");

    // Sampled mode checks exactly the strided subset, identically.
    let sampled = VerifyConfig { mode: VerifyMode::Sampled { stride: 5 }, ..config };
    let seq = verify_sequential(plane, requests, dense, &sampled).unwrap();
    assert_eq!(seq.checked, requests.len().div_ceil(5), "{label}: sampled stride");
    let outcome = pooled(3).serve_verified_sharded(&sharded, requests, lazy, &sampled).unwrap();
    assert_eq!(outcome.report, seq, "{label}: sampled mode diverged");
}

/// The chaos plane's determinism contract: one seed pins the entire run.
/// The fault plan generator must emit an identical delta sequence for the
/// same seed, and the three [`EpochReport`]s of a full chaos cycle —
/// pre-fault serve, degraded serve through the fault window, post-repair
/// serve off the incrementally repaired substrate — must be bit-identical
/// across 1, 2 and 8 workers under two shard hash seeds.
#[test]
fn chaos_epochs_are_bit_identical_across_workers_and_shard_policies() {
    let mut exercised = 0usize;
    for seed in 0..6u64 {
        let n = 28 + (seed as usize % 4);
        let g0 = Arc::new(strongly_connected_gnp(n, 0.15, seed).unwrap());
        let edges: Vec<(NodeId, NodeId)> =
            g0.nodes().flat_map(|u| g0.out_edges(u).iter().map(move |e| (u, e.to))).collect();

        // Same seed ⇒ identical delta sequence, twice over.
        let plan = FaultPlan::mixed_from_candidates(&edges, 4, 2, 3, seed ^ 0x5eed);
        let replay = FaultPlan::mixed_from_candidates(&edges, 4, 2, 3, seed ^ 0x5eed);
        assert_eq!(plan, replay, "seed {seed}: fault plan generation is not deterministic");

        let mut mutated = (*g0).clone();
        let applied = plan.apply(&mut mutated);
        assert_eq!(applied, plan.apply(&mut (*g0).clone()), "seed {seed}: application diverged");
        if !mutated.is_strongly_connected() {
            continue;
        }
        let g1 = Arc::new(mutated);

        // Build → fault → repair, once; the serving planes are frozen and
        // reused across every engine configuration below.
        let m0 = CachedSubsetOracle::new(&g0);
        let kit = SparseRepairKit::build(&g0, &m0, SparseSuiteParams::default());
        let inv = RowInvalidation::for_application(&m0, &applied);
        let m1 = CachedSubsetOracle::rebased(&m0, &g1, &inv);
        let (kit1, _) = kit.repair(&g1, &m1, &inv, &applied);
        let names = NamingAssignment::random(n, seed ^ 0x7e57);
        let (_, sx) = kit.schemes(&g0, &m0, &names);
        let (_, sxr) = kit1.schemes(&g1, &m1, &names);
        let bound = sx.paper_stretch_bound().unwrap();
        let frozen_names = Arc::new(names.to_names());
        let pre_plane = FrozenPlane::freeze(Arc::clone(&g0), sx, Arc::clone(&frozen_names));
        let degraded_plane = pre_plane.clone().with_graph(Arc::clone(&g1));
        let post_plane = FrozenPlane::freeze(Arc::clone(&g1), sxr, frozen_names);

        let pre_req = Workload::Mix.generate(n, 140, seed.wrapping_mul(31));
        let deg_req = Workload::Uniform.generate(n, 140, seed.wrapping_mul(37));
        let post_req = Workload::Mix.generate(n, 140, seed.wrapping_mul(41));
        let config = VerifyConfig::full().with_bound(StretchBound::at_most(bound));

        let mut reference: Option<[EpochReport; 3]> = None;
        // The last engine's default chunk serves each epoch on the calling
        // thread.
        let engines = [pooled(1), pooled(2), pooled(8), Engine::new(EngineConfig::with_workers(2))];
        for engine in &engines {
            let c = engine.config();
            let at = format!("{} workers, chunk {}", c.workers, c.chunk_size);
            for shard_seed in [0xA11CE, 0xB0B] {
                let map = ShardMap::hashed(n, 3, shard_seed);
                let pre = engine.serve_epoch_sharded(
                    &ShardedPlane::new(pre_plane.clone(), map),
                    &pre_req,
                    &m0,
                    &config,
                );
                let deg = engine.serve_epoch_sharded(
                    &ShardedPlane::new(degraded_plane.clone(), map),
                    &deg_req,
                    &m1,
                    &config,
                );
                let post = engine.serve_epoch_sharded(
                    &ShardedPlane::new(post_plane.clone(), map),
                    &post_req,
                    &m1,
                    &config,
                );
                let epochs = chaos_report(&pre, &deg, &post);
                assert!(
                    epochs[0].is_clean(),
                    "seed {seed}: pre-fault epoch violated the proven ceiling"
                );
                assert!(
                    epochs[2].is_clean(),
                    "seed {seed}: post-repair epoch still degraded: {:?} violations, {} failed",
                    epochs[2].report.violations,
                    epochs[2].failed(),
                );
                match &reference {
                    None => reference = Some(epochs),
                    Some(first) => assert_eq!(
                        &epochs, first,
                        "seed {seed}: chaos epochs diverged at {at} (shard seed {shard_seed:#x})"
                    ),
                }
            }
        }
        exercised += 1;
    }
    assert!(exercised >= 3, "only {exercised} seeded plans kept the graph strongly connected");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn full_verification_is_schedule_independent_for_every_scheme_and_workload(
        seed in 0u64..500,
    ) {
        let n = 22 + (seed as usize % 6);
        let g = Arc::new(strongly_connected_gnp(n, 0.14, seed).unwrap());
        let dense = DistanceMatrix::build(&g);
        let lazy = LazyDijkstraOracle::new(&g, 6);
        let subset = CachedSubsetOracle::new(&g);
        let names = NamingAssignment::random(n, seed ^ 0x7e57);
        let suite = SchemeSuite::build(&g, &dense, &names);

        // The three proven ceilings: 6 for §2 (exact-oracle substrate),
        // (2^k − 1)·β for §3 (tree-cover substrate), 8k² + 4k − 4 for §4.
        let ex_bound = suite.exstretch.paper_stretch_bound().unwrap();
        let poly_bound = suite.poly.paper_stretch_bound();
        let (stretch6, exstretch, poly) = suite.into_parts();
        let frozen_names = Arc::new(names.to_names());

        let plane6 = FrozenPlane::freeze(Arc::clone(&g), stretch6, Arc::clone(&frozen_names));
        let planex = FrozenPlane::freeze(Arc::clone(&g), exstretch, Arc::clone(&frozen_names));
        let planep = FrozenPlane::freeze(Arc::clone(&g), poly, Arc::clone(&frozen_names));

        for workload in Workload::ALL {
            let requests = workload.generate(n, 110, seed.wrapping_mul(17));
            let w = workload.name();
            check_conformance(
                &plane6, &requests, &dense, &lazy, &subset,
                StretchBound::at_most(6), &format!("stretch6/{w}"),
            );
            check_conformance(
                &planex, &requests, &dense, &lazy, &subset,
                StretchBound::at_most(ex_bound), &format!("exstretch/{w}"),
            );
            check_conformance(
                &planep, &requests, &dense, &lazy, &subset,
                StretchBound::at_most(poly_bound), &format!("polystretch/{w}"),
            );
        }
    }
}
