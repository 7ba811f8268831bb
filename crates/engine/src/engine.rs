//! The engine and its four serving entry points, all sessions of the one
//! serving core in `stream.rs`.

use crate::shard::ShardedPlane;
use crate::stream::{Policy, VerifiedShardedServe, VerifiedStream};
use crate::verify::{VerifyConfig, VerifyServeError};
use crate::workload::Request;
use rtr_metric::{DistanceOracle, LazyDijkstraOracle};
use rtr_sim::RoundtripRouting;

/// Engine tunables.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads (default: available parallelism).  A batch runs on at
    /// most one worker per shard.
    pub workers: usize,
    /// The largest batch served on the calling thread (default 256): a
    /// batch no larger than this pays no thread spawn, a larger one runs on
    /// the pool.
    pub chunk_size: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
            chunk_size: 256,
        }
    }
}

impl EngineConfig {
    /// The default configuration with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        EngineConfig { workers, ..Default::default() }
    }
}

/// The concurrent route-serving engine.
///
/// Every entry point serves over a [`ShardedPlane`] through one
/// shard-owning pool of `min(workers, shards)` threads: each shard has one
/// owning worker ([`crate::ShardMap::owner_of`]), and each worker walks the
/// whole batch and serves exactly the requests whose destination shard it
/// owns.  No request crosses workers.  All statistics accumulate per
/// shard and merge after the join — the serving loop itself performs no
/// synchronised writes beyond the abort flag.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    config: EngineConfig,
}

impl Engine {
    /// An engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Serves every request over a [`ShardedPlane`] without verification:
    /// [`serve_verified_sharded`](Self::serve_verified_sharded) under
    /// [`VerifyConfig::off`].  The report counts the queries and checks
    /// none; per-shard query counts (deterministic) ride along in
    /// [`VerifiedShardedServe::shards`].
    ///
    /// # Errors
    ///
    /// [`VerifyServeError::BadNode`] when a request names a node outside the
    /// plane or routes a node to itself (nothing is served), and
    /// [`VerifyServeError::Sim`] on the first simulator error any worker
    /// encounters (the others stop at their next owned request).  Correct
    /// schemes never fail.
    pub fn serve_sharded<S: RoundtripRouting + Send + Sync>(
        &self,
        plane: &ShardedPlane<S>,
        requests: &[Request],
    ) -> Result<VerifiedShardedServe, VerifyServeError> {
        // Verification off never consults the oracle, and a lazy one does
        // no work until it is consulted.
        let oracle = LazyDijkstraOracle::new(plane.plane().graph(), 1);
        self.serve_verified_sharded(plane, requests, &oracle, &VerifyConfig::off())
    }

    /// Serves every request **and verifies it against the exact metric**:
    /// the oracle-backed serving regime.
    ///
    /// Depending on [`VerifyConfig::mode`], none, a strided sample, or the
    /// **full stream** of requests is checked.  Checked trips buffer in
    /// **per-shard** destination buckets, so no destination row is ever
    /// fetched by two workers — total verify rows stay
    /// `≤ 2 · distinct(stream destinations)` regardless of worker count.
    /// Each worker drains all its shards' remaining buckets through one
    /// [`rtr_metric::roundtrip_rows_sharded`] sweep after the stream ends,
    /// comparing each trip's measured cost against the exact roundtrip
    /// distance in integer arithmetic.
    ///
    /// The [`crate::VerifiedReport`] is bit-identical to the sequential
    /// [`crate::verify_sequential`] replay for any shard × worker count
    /// (asserted by the conformance suite): trip→shard assignment is a pure
    /// function of the destination, per-shard buckets hold
    /// destination-disjoint trip sets, and the merge is commutative.
    ///
    /// ```
    /// use rtr_core::naming::NamingAssignment;
    /// use rtr_core::{Stretch6Params, StretchSix};
    /// use rtr_engine::{Engine, EngineConfig, FrozenPlane, ShardMap, ShardedPlane};
    /// use rtr_engine::{StretchBound, VerifyConfig, Workload};
    /// use rtr_graph::generators::strongly_connected_gnp;
    /// use rtr_metric::DistanceMatrix;
    /// use rtr_namedep::ExactOracleScheme;
    /// use std::sync::Arc;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let g = Arc::new(strongly_connected_gnp(32, 0.15, 5)?);
    /// let m = DistanceMatrix::build(&g);
    /// let names = NamingAssignment::random(g.node_count(), 1);
    /// let scheme =
    ///     StretchSix::build(&g, &m, &names, ExactOracleScheme::build(&g), Stretch6Params::default());
    /// let plane = FrozenPlane::freeze(Arc::clone(&g), scheme, Arc::new(names.to_names()));
    /// let requests = Workload::Mix.generate(g.node_count(), 1_000, 3);
    /// let engine = Engine::new(EngineConfig::with_workers(2));
    /// let config = VerifyConfig::full().with_bound(StretchBound::at_most(6));
    ///
    /// // The report is bit-identical for any shard count — only the
    /// // per-shard accounting differs.
    /// let two = ShardedPlane::new(plane.clone(), ShardMap::hashed(32, 2, 9));
    /// let five = ShardedPlane::new(plane, ShardMap::hashed(32, 5, 9));
    /// let a = engine.serve_verified_sharded(&two, &requests, &m, &config)?;
    /// let b = engine.serve_verified_sharded(&five, &requests, &m, &config)?;
    /// assert_eq!(a.report, b.report);
    /// assert_eq!(a.report.checked, 1_000);
    /// assert_eq!(b.shards.len(), 5);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// [`VerifyServeError::BadNode`] when a request names a node outside the
    /// plane or routes a node to itself (nothing is served),
    /// [`VerifyServeError::Sim`] on the first simulator error any worker
    /// encounters, and — in strict mode with a configured bound —
    /// [`VerifyServeError::BoundExceeded`] when any checked trip exceeds the
    /// scheme's stretch ceiling.
    pub fn serve_verified_sharded<S, O>(
        &self,
        plane: &ShardedPlane<S>,
        requests: &[Request],
        oracle: &O,
        verify: &VerifyConfig,
    ) -> Result<VerifiedShardedServe, VerifyServeError>
    where
        S: RoundtripRouting + Send + Sync,
        O: DistanceOracle + ?Sized,
    {
        let policy = Policy { tolerant: false, replies: false };
        self.serve_once(plane, requests, oracle, *verify, policy)
    }

    /// [`serve_verified_sharded`](Self::serve_verified_sharded) that
    /// **keeps serving through delivery failures** — the chaos plane's
    /// degraded mode.
    ///
    /// Each request is served once; on a [`rtr_sim::SimError`] the request
    /// is recorded as a [`crate::FailedPair`] in
    /// [`VerifiedShardedServe::failed_pairs`] instead of aborting the pool,
    /// and on success it is verified against `oracle` exactly as the strict
    /// engine would, so the [`crate::VerifiedReport`] stays bit-identical
    /// for any shard × worker count.  [`VerifyConfig::strict`] is ignored:
    /// violations are *reported*, never turned into an error — gating is the
    /// caller's job ([`crate::chaos_report`] + the chaos baseline checker).
    ///
    /// The oracle must be consistent with the plane's graph: on a mutated
    /// graph pass the post-fault (rebased) oracle, and keep the graph
    /// strongly connected — verification asserts every checked pair has a
    /// finite exact roundtrip.
    ///
    /// # Panics
    ///
    /// Panics if a request names a node outside the plane or routes a node
    /// to itself ([`VerifyServeError::BadNode`]).
    pub fn serve_epoch_sharded<S, O>(
        &self,
        plane: &ShardedPlane<S>,
        requests: &[Request],
        oracle: &O,
        verify: &VerifyConfig,
    ) -> VerifiedShardedServe
    where
        S: RoundtripRouting + Send + Sync,
        O: DistanceOracle + ?Sized,
    {
        let config = VerifyConfig { strict: false, ..*verify };
        let policy = Policy { tolerant: true, replies: false };
        self.serve_once(plane, requests, oracle, config, policy).unwrap_or_else(|e| panic!("{e}"))
    }

    /// A one-batch session: open, serve the whole stream, finish.
    fn serve_once<S, O>(
        &self,
        plane: &ShardedPlane<S>,
        requests: &[Request],
        oracle: &O,
        verify: VerifyConfig,
        policy: Policy,
    ) -> Result<VerifiedShardedServe, VerifyServeError>
    where
        S: RoundtripRouting + Send + Sync,
        O: DistanceOracle + ?Sized,
    {
        let mut session = VerifiedStream::open(self, plane, oracle, verify, policy);
        session.serve_batch(requests)?;
        session.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::tests::ring_plane;
    use crate::workload::Workload;
    use crate::ShardMap;

    #[test]
    fn sharded_serve_matches_unsharded_aggregates_and_counts_shard_queries() {
        let plane = ring_plane(12);
        let requests = Workload::Mix.generate(12, 800, 13);
        let sim = plane.simulator();
        let (mut hops, mut weight) = (0u64, 0u128);
        for r in &requests {
            let brief =
                sim.roundtrip_brief(plane.scheme(), r.src, r.dst, plane.name_of(r.dst)).unwrap();
            hops += brief.total_hops() as u64;
            weight += u128::from(brief.total_weight());
        }
        let mut first = None;
        for shards in [1usize, 3, 5] {
            for workers in [1usize, 2, 7, 16] {
                let engine = Engine::new(EngineConfig::with_workers(workers));
                let map = ShardMap::hashed(12, shards, 5);
                let sharded = ShardedPlane::new(plane.clone(), map);
                let outcome = engine.serve_sharded(&sharded, &requests).unwrap();
                let summary = &outcome.summary;
                assert_eq!(summary.queries, 800);
                assert_eq!(summary.workers, workers);
                assert_eq!(summary.total_hops, hops);
                assert_eq!(summary.total_weight, weight);
                // Aggregates are schedule-independent.
                let key = (summary.hop_latency(), summary.max_header_bits);
                assert_eq!(*first.get_or_insert(key), key, "shards {shards} workers {workers}");
                assert_eq!(outcome.report.checked, 0);
                assert_eq!(outcome.shards.len(), shards);
                assert_eq!(outcome.shards.iter().map(|s| s.queries).sum::<u64>(), 800);
                // Per-shard query counts are a pure function of the stream.
                for s in &outcome.shards {
                    let expected =
                        requests.iter().filter(|r| map.shard_of(r.dst) == s.shard).count() as u64;
                    assert_eq!(s.queries, expected, "shard {} workers {workers}", s.shard);
                }
                assert!(outcome.shards.iter().all(|s| s.handoffs == 0), "workers {workers}");
            }
        }
    }

    #[test]
    fn empty_request_stream_is_fine() {
        let sharded = ShardedPlane::new(ring_plane(4), ShardMap::single(4));
        let outcome = Engine::default().serve_sharded(&sharded, &[]).unwrap();
        assert_eq!(outcome.summary.queries, 0);
        assert_eq!(outcome.shards[0].queries, 0);
    }

    #[test]
    fn tiny_chunks_and_excess_workers_still_cover_everything() {
        let sharded = ShardedPlane::new(ring_plane(5), ShardMap::hashed(5, 3, 1));
        let requests = Workload::Bidirectional.generate(5, 37, 1);
        let config = EngineConfig { workers: 13, chunk_size: 1 };
        let outcome = Engine::new(config).serve_sharded(&sharded, &requests).unwrap();
        assert_eq!(outcome.summary.queries, 37);
    }
}
