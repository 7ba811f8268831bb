//! The engine's core contract: for every scheme and any seeded workload, a
//! serving session's per-request replies carry **exactly** the hops and
//! weight the sequential [`rtr_sim::Simulator`] measures — in request order
//! — for 1, 2 and 8 workers on both sides of the calling-thread / pool
//! split, and the session's aggregates are schedule-independent.

use proptest::prelude::*;
use rtr_core::naming::NamingAssignment;
use rtr_core::{SchemeSuite, SuiteParams};
use rtr_engine::{
    Engine, EngineConfig, FrozenPlane, ShardMap, ShardedPlane, VerifyConfig, Workload,
};
use rtr_graph::generators::strongly_connected_gnp;
use rtr_metric::DistanceMatrix;
use rtr_sim::{RoundtripRouting, Simulator};
use std::sync::Arc;

/// `(hops, weight)` of every request run sequentially — the reference the
/// engine must reproduce bit for bit.
fn sequential_reference<S: RoundtripRouting>(
    plane: &FrozenPlane<S>,
    requests: &[rtr_engine::Request],
) -> Vec<(usize, u64)> {
    let sim = Simulator::new(plane.graph());
    requests
        .iter()
        .map(|r| {
            let report = sim
                .roundtrip(plane.scheme(), r.src, r.dst, plane.name_of(r.dst))
                .expect("sequential reference run failed");
            (report.total_hops(), report.total_weight())
        })
        .collect()
}

fn check_plane<S: RoundtripRouting + Send + Sync>(
    plane: &FrozenPlane<S>,
    requests: &[rtr_engine::Request],
    oracle: &DistanceMatrix,
    label: &str,
) {
    let expected = sequential_reference(plane, requests);
    let expected_hops: u64 = expected.iter().map(|&(h, _)| h as u64).sum();
    let expected_weight: u128 = expected.iter().map(|&(_, w)| u128::from(w)).sum();
    let sharded = ShardedPlane::new(plane.clone(), ShardMap::hashed(plane.node_count(), 3, 0xd37));
    let mut reference_summary = None;
    // Chunks of 16 spread the stream over the pool; the default chunk holds
    // the whole stream, which is then served on the calling thread.
    for chunk_size in [16, EngineConfig::default().chunk_size] {
        for workers in [1usize, 2, 8] {
            let config = EngineConfig { chunk_size, ..EngineConfig::with_workers(workers) };
            let engine = Engine::new(config);
            let at = format!("{label}: engine({workers} workers, chunk {chunk_size})");
            let mut session = engine.open_stream(&sharded, oracle, &VerifyConfig::off());
            let replies = session.serve_batch(requests).unwrap();
            assert!(replies.iter().enumerate().all(|(i, t)| t.index == i), "{at}");
            let got: Vec<(usize, u64)> = replies.iter().map(|t| (t.hops, t.weight)).collect();
            assert_eq!(got, expected, "{at} diverged from the simulator");

            let summary = session.finish().unwrap().summary;
            assert_eq!(summary.queries, requests.len(), "{at}");
            assert_eq!(summary.total_hops, expected_hops, "{at}: hop accounting diverged");
            assert_eq!(summary.total_weight, expected_weight, "{at}: weight accounting diverged");
            match &reference_summary {
                None => reference_summary = Some(summary),
                Some(first) => {
                    assert_eq!(summary.hop_latency(), first.hop_latency(), "{at}");
                    assert_eq!(summary.max_header_bits, first.max_header_bits, "{at}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn engine_reproduces_the_sequential_simulator(seed in 0u64..1000) {
        let n = 24 + (seed as usize % 8);
        let g = Arc::new(strongly_connected_gnp(n, 0.12, seed).unwrap());
        let m = DistanceMatrix::build(&g);
        let names = NamingAssignment::random(n, seed ^ 0xabcd);
        let suite = SchemeSuite::build(&g, &m, &names, SuiteParams::default());
        let (stretch6, exstretch, poly) = suite.into_parts();
        let frozen_names = Arc::new(names.to_names());

        let plane6 = FrozenPlane::freeze(Arc::clone(&g), stretch6, Arc::clone(&frozen_names));
        let planex = FrozenPlane::freeze(Arc::clone(&g), exstretch, Arc::clone(&frozen_names));
        let planep = FrozenPlane::freeze(Arc::clone(&g), poly, Arc::clone(&frozen_names));

        for workload in Workload::ALL {
            let requests = workload.generate(n, 160, seed.wrapping_mul(31));
            check_plane(&plane6, &requests, &m, &format!("stretch6/{}", workload.name()));
            check_plane(&planex, &requests, &m, &format!("exstretch/{}", workload.name()));
            check_plane(&planep, &requests, &m, &format!("polystretch/{}", workload.name()));
        }
    }
}
