//! Shard-handoff edge cases: degenerate shard maps and hostile
//! configurations must neither lose requests nor perturb the verified
//! report.
//!
//! * one shard reproduces the sequential simulator's aggregates and the
//!   sequential oracle-checked replay;
//! * far more shards than workers (including empty shards) still covers
//!   every request exactly once;
//! * a hotspot stream lands entirely on the destination's owner shard;
//! * a capacity-1 handoff queue under full verification and tiny flush
//!   windows still reproduces the sequential oracle-checked replay.

use rtr_core::naming::NamingAssignment;
use rtr_core::{Stretch6Params, StretchSix};
use rtr_engine::{
    verify_sequential, Engine, EngineConfig, FrozenPlane, ShardMap, ShardedPlane, StretchBound,
    VerifyConfig, Workload,
};
use rtr_graph::generators::strongly_connected_gnp;
use rtr_metric::DistanceMatrix;
use rtr_namedep::ExactOracleScheme;
use std::sync::Arc;

const N: usize = 30;

fn plane() -> (DistanceMatrix, FrozenPlane<StretchSix<ExactOracleScheme>>) {
    let g = Arc::new(strongly_connected_gnp(N, 0.15, 11).unwrap());
    let m = DistanceMatrix::build(&g);
    let names = NamingAssignment::random(N, 0xbead);
    let scheme =
        StretchSix::build(&g, &m, &names, ExactOracleScheme::build(&g), Stretch6Params::default());
    let frozen = FrozenPlane::freeze(Arc::clone(&g), scheme, Arc::new(names.to_names()));
    (m, frozen)
}

#[test]
fn one_shard_reproduces_the_unsharded_engine_exactly() {
    let (m, plane) = plane();
    let single = ShardedPlane::new(plane.clone(), ShardMap::single(N));
    let requests = Workload::Mix.generate(N, 700, 3);
    let config = VerifyConfig::full().with_bound(StretchBound::at_most(6));
    let reference = verify_sequential(&plane, &requests, &m, &config).unwrap();
    let sim = plane.simulator();
    let (mut hops, mut weight, mut header_bits) = (0u64, 0u128, 0usize);
    for r in &requests {
        let brief =
            sim.roundtrip_brief(plane.scheme(), r.src, r.dst, plane.name_of(r.dst)).unwrap();
        hops += brief.total_hops() as u64;
        weight += u128::from(brief.total_weight());
        header_bits = header_bits.max(brief.max_header_bits());
    }
    let mut latency = None;
    for workers in [1usize, 3] {
        let engine = Engine::new(EngineConfig::with_workers(workers));
        let unverified = engine.serve_sharded(&single, &requests).unwrap();
        let verified = engine.serve_verified_sharded(&single, &requests, &m, &config).unwrap();
        for (outcome, label) in [(&unverified, "unverified"), (&verified, "verified")] {
            let summary = &outcome.summary;
            assert_eq!(summary.queries, requests.len(), "{label}");
            assert_eq!(summary.total_hops, hops, "{label}");
            assert_eq!(summary.total_weight, weight, "{label}");
            assert_eq!(summary.max_header_bits, header_bits, "{label}");
            assert_eq!(outcome.shards.len(), 1);
            assert_eq!(outcome.shards[0].queries, requests.len() as u64);
            let key = summary.hop_latency();
            assert_eq!(*latency.get_or_insert(key), key, "{label}");
        }
        assert_eq!(verified.report, reference, "one shard must not change the report");
    }
}

#[test]
fn more_shards_than_workers_with_empty_shards_covers_every_request() {
    let (m, plane) = plane();
    // 40 shards over 30 nodes: at least 10 shards own no destination at all,
    // and with 3 workers every worker owns over a dozen shards.
    let map = ShardMap::hashed(N, 40, 17);
    assert!(map.shard_sizes().contains(&0), "the fixture should exercise empty shards");
    let sharded = ShardedPlane::new(plane.clone(), map);
    let requests = Workload::Uniform.generate(N, 900, 5);
    let config = VerifyConfig::full().with_bound(StretchBound::at_most(6));
    let reference = verify_sequential(&plane, &requests, &m, &config).unwrap();

    let engine = Engine::new(EngineConfig::with_workers(3));
    let outcome = engine.serve_verified_sharded(&sharded, &requests, &m, &config).unwrap();
    assert_eq!(outcome.report, reference);
    assert_eq!(
        outcome.shards.iter().map(|s| s.queries).sum::<u64>(),
        requests.len() as u64,
        "every request must be served exactly once"
    );
    for stats in &outcome.shards {
        if map.destinations(stats.shard).is_empty() {
            assert_eq!(stats.queries, 0, "an empty shard cannot serve queries");
            assert_eq!(stats.handoffs, 0, "an empty shard cannot receive handoffs");
        }
    }
}

#[test]
fn a_hotspot_stream_lands_entirely_on_the_owner_shard() {
    let (m, plane) = plane();
    let map = ShardMap::hashed(N, 4, 7);
    let sharded = ShardedPlane::new(plane.clone(), map);
    let stream_seed = 21;
    let hot = Workload::hotspot_destination(N, stream_seed);
    let owner = map.shard_of(hot);
    let requests = Workload::Hotspot.generate(N, 500, stream_seed);
    assert!(requests.iter().all(|r| r.dst == hot), "hotspot stream fixture");

    let config = VerifyConfig::full().with_bound(StretchBound::at_most(6));
    let reference = verify_sequential(&plane, &requests, &m, &config).unwrap();
    let engine = Engine::new(EngineConfig::with_workers(4));
    let outcome = engine.serve_verified_sharded(&sharded, &requests, &m, &config).unwrap();
    assert_eq!(outcome.report, reference);
    for stats in &outcome.shards {
        let want = if stats.shard == owner { requests.len() as u64 } else { 0 };
        assert_eq!(stats.queries, want, "shard {} query count", stats.shard);
    }
}

#[test]
fn capacity_one_handoffs_with_tiny_flushes_match_the_sequential_replay() {
    let (m, plane) = plane();
    let sharded = ShardedPlane::new(plane.clone(), ShardMap::range(N, 6));
    let requests = Workload::Zipf { exponent: 1.1 }.generate(N, 800, 9);
    let config = VerifyConfig {
        flush_pending: 3,
        ..VerifyConfig::full().with_bound(StretchBound::at_most(6))
    };
    let reference = verify_sequential(&plane, &requests, &m, &config).unwrap();

    let engine = Engine::new(EngineConfig { workers: 5, chunk_size: 4, handoff_capacity: 1 });
    let outcome = engine.serve_verified_sharded(&sharded, &requests, &m, &config).unwrap();
    assert_eq!(outcome.report, reference, "backpressure must not leak into the report");
    assert_eq!(outcome.summary.queries, requests.len());
}
