//! The sparse scheme suite — the configuration every baseline serves — on
//! every topology the generators offer: the six [`Family`] members plus the
//! weighted ring-with-chords the chaos plane and the ledger run on.
//!
//! Each graph (n ≈ 40, three seeds) builds the sparse suite through a
//! [`LazyDijkstraOracle`].  Each of the three planes serves every
//! [`Workload`] through a pooled engine (3 workers, chunk 16, 4 hash shards)
//! under full verification.  Every report must equal the sequential
//! dense-oracle replay [`verify_sequential`] and be clean: §3 and §4 under
//! their own `paper_stretch_bound()`, §2 without a ceiling, because its
//! landmark substrate's stretch is measured, not proven.

use rtr_core::naming::NamingAssignment;
use rtr_core::{SparseSchemeSuite, SparseSuiteParams};
use rtr_engine::{
    verify_sequential, Engine, EngineConfig, FrozenPlane, ShardMap, ShardedPlane, StretchBound,
    VerifyConfig, Workload,
};
use rtr_graph::generators::{ring_with_chords_weighted, Family, WeightRange};
use rtr_graph::DiGraph;
use rtr_metric::{DistanceMatrix, LazyDijkstraOracle};
use rtr_sim::RoundtripRouting;
use std::sync::Arc;

const N: usize = 40;
const SEEDS: [u64; 3] = [1, 2, 3];
const QUERIES: usize = 300;

/// Every family at every seed, plus the weighted ring-with-chords, each
/// with its label and seed.
fn graphs() -> Vec<(String, u64, DiGraph)> {
    let mut graphs = Vec::new();
    for seed in SEEDS {
        for family in Family::ALL {
            let g = family.generate(N, seed).unwrap();
            graphs.push((format!("{}/{seed}", family.name()), seed, g));
        }
        let chords = WeightRange::new(1, 256);
        let g = ring_with_chords_weighted(N, 3 * N, seed, WeightRange::default(), chords).unwrap();
        graphs.push((format!("weighted-ring/{seed}"), seed, g));
    }
    graphs
}

/// Serves every workload over `plane` and checks each report against the
/// sequential dense-oracle replay under `bound`.
fn check_plane<S: RoundtripRouting + Send + Sync>(
    plane: &FrozenPlane<S>,
    dense: &DistanceMatrix,
    bound: Option<u64>,
    seed: u64,
    label: &str,
) {
    let n = plane.node_count();
    let engine = Engine::new(EngineConfig { chunk_size: 16, ..EngineConfig::with_workers(3) });
    let sharded = ShardedPlane::new(plane.clone(), ShardMap::hashed(n, 4, seed));
    let config = VerifyConfig { bound: bound.map(StretchBound::at_most), ..VerifyConfig::full() };
    let oracle = LazyDijkstraOracle::new(plane.graph(), 8);
    for workload in Workload::ALL {
        let at = format!("{label}/{}", workload.name());
        let requests = workload.generate(n, QUERIES, seed);
        let reference = verify_sequential(plane, &requests, dense, &config)
            .unwrap_or_else(|e| panic!("{at}: sequential replay failed: {e}"));
        let outcome = engine
            .serve_verified_sharded(&sharded, &requests, &oracle, &config)
            .unwrap_or_else(|e| panic!("{at}: pooled serve failed: {e}"));
        assert_eq!(outcome.report, reference, "{at}: pooled report diverged");
        assert_eq!(reference.checked, QUERIES, "{at}: full mode must check every trip");
        assert!(reference.is_clean(), "{at}: violations {:?}", reference.violations);
    }
}

#[test]
fn the_sparse_suite_serves_clean_on_every_topology() {
    for (label, seed, g) in graphs() {
        let g = Arc::new(g);
        let n = g.node_count();
        let dense = DistanceMatrix::build(&g);
        let lazy = LazyDijkstraOracle::new(&g, 8);
        let names = NamingAssignment::random(n, seed ^ 0x5ba5e);
        let suite = SparseSchemeSuite::build(&g, &lazy, &names, SparseSuiteParams::default());
        let ex_bound = suite
            .exstretch
            .paper_stretch_bound()
            .unwrap_or_else(|| panic!("{label}: tree-cover substrate carries a proven stretch"));
        let poly_bound = suite.poly.paper_stretch_bound();
        let (stretch6, exstretch, poly) = suite.into_parts();
        let frozen_names = Arc::new(names.to_names());
        let plane6 = FrozenPlane::freeze(Arc::clone(&g), stretch6, Arc::clone(&frozen_names));
        let planex = FrozenPlane::freeze(Arc::clone(&g), exstretch, Arc::clone(&frozen_names));
        let planep = FrozenPlane::freeze(Arc::clone(&g), poly, frozen_names);
        check_plane(&plane6, &dense, None, seed, &format!("{label}/stretch6"));
        check_plane(&planex, &dense, Some(ex_bound), seed, &format!("{label}/exstretch"));
        check_plane(&planep, &dense, Some(poly_bound), seed, &format!("{label}/polystretch"));
    }
}
