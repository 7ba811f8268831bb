//! The serving core: every engine entry point is a [`VerifiedStream`]
//! session over a [`ShardedPlane`].
//!
//! [`Engine::open_stream`] opens a long-lived session for callers — like the
//! TCP front door in `rtr-serve` — that receive requests over time.  The
//! one-shot entry points ([`Engine::serve_sharded`],
//! [`Engine::serve_verified_sharded`], [`Engine::serve_epoch_sharded`]) open
//! a session, serve their whole stream as one batch and finish it, so the
//! per-request body, the post-join merge, the telemetry fold and the
//! strict-bound check each exist once.  The session's [`VerifyConfig`]
//! decides which requests are verified; a private policy decides whether a
//! delivery failure aborts the batch or is recorded as a [`FailedPair`], and
//! whether per-request replies are collected.
//!
//! Each [`VerifiedStream::serve_batch`] call assigns every request a **global
//! stream index** in admission order and serves the batch on the
//! shard-owning pool; [`VerifiedStream::finish`] closes the session into a
//! [`VerifiedShardedServe`].  A batch no larger than
//! [`crate::EngineConfig::chunk_size`] runs on the calling thread, which
//! owns every shard, so a front door serving single requests pays no thread
//! spawn per request; a larger batch runs on `min(workers, shards)` scoped
//! threads, each serving exactly the requests whose destination shard it
//! owns.  On a warm lazy oracle a one-request batch costs its route plus two
//! cached row reads: the per-shard accumulators of shards it did not touch
//! allocate no histogram buckets, the flush sums the one entry it checks
//! instead of a whole row, and the verify telemetry writes go to handles
//! resolved once.
//!
//! The load-bearing property (asserted by the tests below): however the
//! stream is split into batches, the final [`crate::VerifiedReport`] is
//! **bit-identical** to one [`Engine::serve_verified_sharded`] call over the
//! concatenated stream.  This holds because the report is already
//! flush-schedule-independent — counts and totals merge commutatively, the
//! worst trip is a maximum under a total order, and violations sort by
//! global index — so cutting the stream into per-batch flushes changes only
//! the schedule-dependent [`crate::VerifyCost`], never the report.  The row
//! economy survives too: per-batch flushes re-touch destination rows, but a
//! verify oracle whose cache holds `2 · distinct(destinations)` rows turns
//! every repeat into a cache hit, so *computed* rows stay
//! `≈ 2 · distinct(stream destinations)` regardless of arrival order.

use crate::chaos::FailedPair;
use crate::engine::Engine;
use crate::shard::{ShardServeStats, ShardedPlane};
use crate::stats::{ServeSummary, WorkerStats};
use crate::verify::{
    VerifiedReport, VerifyAccumulator, VerifyConfig, VerifyCost, VerifyServeError,
};
use crate::workload::Request;
use rtr_graph::Distance;
use rtr_metric::DistanceOracle;
use rtr_sim::{RoundtripRouting, SimError, Simulator};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One served request of a [`VerifiedStream`] batch — the reply a network
/// front door sends back to the requesting client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServedTrip {
    /// Global index of the request in the stream, assigned in admission
    /// order by the session.
    pub index: usize,
    /// Total hops of the served roundtrip.
    pub hops: usize,
    /// Measured roundtrip weight of the served route.
    pub weight: Distance,
}

/// The outcome of every serving entry point: the merged summary, the
/// deterministic report, the schedule-dependent verification cost,
/// per-shard accounting, and the requests a tolerant serve failed to
/// deliver.
#[derive(Debug, Clone)]
pub struct VerifiedShardedServe {
    /// Aggregate throughput/latency accounting over the delivered requests,
    /// merged over all shards.
    pub summary: ServeSummary,
    /// The deterministic verification outcome — bit-identical to the
    /// sequential replay [`crate::verify_sequential`] for any shard × worker
    /// count.
    pub report: VerifiedReport,
    /// Flush/row cost counters, summed over all shards.
    pub cost: VerifyCost,
    /// Per-shard accounting, sorted by shard id.
    pub shards: Vec<ShardServeStats>,
    /// Requests the scheme failed to deliver, sorted by request index — a
    /// pure function of the stream and the plane, never of scheduling.
    /// Only [`Engine::serve_epoch_sharded`] records failures; every other
    /// entry point returns the first one as an error instead.
    pub failed_pairs: Vec<FailedPair>,
}

impl VerifiedShardedServe {
    /// Requests the scheme failed to deliver.
    pub fn failed(&self) -> usize {
        self.failed_pairs.len()
    }
}

/// What the per-request body does beyond serving, fixed when a session
/// opens.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Policy {
    /// Record a request the scheme fails to deliver as a [`FailedPair`] and
    /// keep serving, instead of aborting the batch with the error.
    pub(crate) tolerant: bool,
    /// Collect a [`ServedTrip`] reply for every delivered request.
    pub(crate) replies: bool,
}

/// One shard's share of a batch: serving stats, verification buckets,
/// replies and delivery failures.
struct ShardAcc {
    shard: usize,
    stats: WorkerStats,
    verify: VerifyAccumulator,
    served: Vec<ServedTrip>,
    failed: Vec<FailedPair>,
}

/// A long-lived verified serving session fed batch by batch.
///
/// Obtained from [`Engine::open_stream`]; the docs at the top of
/// `stream.rs` spell out the equivalence and row-economy contracts.
#[derive(Debug)]
pub struct VerifiedStream<'a, S, O: ?Sized> {
    engine: &'a Engine,
    plane: &'a ShardedPlane<S>,
    oracle: &'a O,
    config: VerifyConfig,
    policy: Policy,
    next_index: usize,
    merged: WorkerStats,
    report: VerifiedReport,
    cost: VerifyCost,
    shards: Vec<ShardServeStats>,
    failed_pairs: Vec<FailedPair>,
    serve_wall: Duration,
}

impl Engine {
    /// Opens a streaming verified session over `plane`: the incremental
    /// counterpart of [`Engine::serve_verified_sharded`] for callers that
    /// receive requests over time (the `rtr-serve` front door) instead of
    /// holding a pre-generated workload.
    ///
    /// The session's [`VerifyConfig::strict`] contract is enforced at
    /// [`VerifiedStream::finish`], not per batch, so a violation discovered
    /// mid-stream never aborts serving.
    ///
    /// ```
    /// use rtr_core::naming::NamingAssignment;
    /// use rtr_core::{Stretch6Params, StretchSix};
    /// use rtr_engine::{Engine, EngineConfig, FrozenPlane, ShardMap, ShardedPlane};
    /// use rtr_engine::{VerifyConfig, Workload};
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
    /// let sharded = ShardedPlane::new(plane, ShardMap::hashed(32, 3, 7));
    /// let requests = Workload::Mix.generate(32, 600, 11);
    /// let engine = Engine::new(EngineConfig::with_workers(2));
    /// let config = VerifyConfig::full();
    ///
    /// // Feed the stream in uneven batches: the final report is
    /// // bit-identical to one serve_verified_sharded call over the whole
    /// // stream.
    /// let mut session = engine.open_stream(&sharded, &m, &config);
    /// for chunk in requests.chunks(17) {
    ///     let replies = session.serve_batch(chunk)?;
    ///     assert_eq!(replies.len(), chunk.len());
    /// }
    /// let streamed = session.finish()?;
    /// let oneshot = engine.serve_verified_sharded(&sharded, &requests, &m, &config)?;
    /// assert_eq!(streamed.report, oneshot.report);
    /// # Ok(())
    /// # }
    /// ```
    pub fn open_stream<'a, S, O>(
        &'a self,
        plane: &'a ShardedPlane<S>,
        oracle: &'a O,
        verify: &VerifyConfig,
    ) -> VerifiedStream<'a, S, O>
    where
        S: RoundtripRouting + Send + Sync,
        O: DistanceOracle + ?Sized,
    {
        let policy = Policy { tolerant: false, replies: true };
        VerifiedStream::open(self, plane, oracle, *verify, policy)
    }
}

impl<'a, S, O> VerifiedStream<'a, S, O>
where
    S: RoundtripRouting + Send + Sync,
    O: DistanceOracle + ?Sized,
{
    pub(crate) fn open(
        engine: &'a Engine,
        plane: &'a ShardedPlane<S>,
        oracle: &'a O,
        config: VerifyConfig,
        policy: Policy,
    ) -> Self {
        VerifiedStream {
            engine,
            plane,
            oracle,
            config,
            policy,
            next_index: 0,
            merged: WorkerStats::new(),
            report: VerifiedReport::default(),
            cost: VerifyCost::default(),
            shards: (0..plane.map().shard_count())
                .map(|s| ShardServeStats { shard: s, queries: 0, handoffs: 0 })
                .collect(),
            failed_pairs: Vec::new(),
            serve_wall: Duration::ZERO,
        }
    }

    /// Serves one micro-batch, verifying it through the session's per-shard
    /// destination buckets, and returns the per-request replies sorted by
    /// their assigned global stream index (`replies[i]` answers
    /// `requests[i]`).
    ///
    /// A batch no larger than [`crate::EngineConfig::chunk_size`] is served
    /// on the calling thread; a larger one fans out over the engine's
    /// sharded worker pool.  Both produce identical reports and replies.
    ///
    /// # Errors
    ///
    /// [`VerifyServeError::BadNode`] when a request names a node outside the
    /// plane or routes a node to itself, checked before anything is served;
    /// otherwise the first simulator error, as [`VerifyServeError::Sim`].  A
    /// failed batch contributes nothing to the session: no indices are
    /// consumed and the report is unchanged (oracle cache warm-up from
    /// partial verification may have occurred).
    pub fn serve_batch(
        &mut self,
        requests: &[Request],
    ) -> Result<Vec<ServedTrip>, VerifyServeError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let n = self.plane.plane().node_count();
        if let Some(index) =
            requests.iter().position(|r| r.src.index() >= n || r.dst.index() >= n || r.src == r.dst)
        {
            let Request { src, dst } = requests[index];
            return Err(VerifyServeError::BadNode { index, src, dst });
        }
        let base = self.next_index;
        let started = Instant::now();
        let accs = self.run_batch(requests, base)?;
        self.serve_wall += started.elapsed();

        let mut replies = Vec::new();
        let mut verify = Vec::with_capacity(accs.len());
        let mut batch_queries = 0usize;
        let failed_before = self.failed_pairs.len();
        for acc in accs {
            let slot = &mut self.shards[acc.shard];
            slot.queries += acc.stats.queries as u64;
            batch_queries += acc.stats.queries;
            self.merged.merge(acc.stats);
            verify.push(acc.verify);
            replies.extend(acc.served);
            self.failed_pairs.extend(acc.failed);
        }
        debug_assert_eq!(
            batch_queries + self.failed_pairs.len() - failed_before,
            requests.len(),
            "a batch request went unserved"
        );
        let (report, cost) = VerifyAccumulator::merge_all(verify, batch_queries);
        self.report.merge(report);
        self.cost.merge(cost);
        self.next_index = base + requests.len();
        replies.sort_unstable_by_key(|t| t.index);
        Ok(replies)
    }

    /// The one per-request body: serve the roundtrip, record it, verify it
    /// if the mode checks this index, and collect its reply if the policy
    /// asks — or, on a delivery failure, record it (tolerant) or return it.
    fn serve_one(
        &self,
        sim: &Simulator<'_>,
        index: usize,
        req: &Request,
        acc: &mut ShardAcc,
    ) -> Result<(), SimError> {
        let plane = self.plane.plane();
        match sim.roundtrip_brief(plane.scheme(), req.src, req.dst, plane.name_of(req.dst)) {
            Ok(brief) => {
                acc.stats.record(&brief);
                if self.config.mode.checks(index) {
                    acc.verify.push(self.oracle, index, req, brief.total_weight());
                }
                if self.policy.replies {
                    let (hops, weight) = (brief.total_hops(), brief.total_weight());
                    acc.served.push(ServedTrip { index, hops, weight });
                }
                Ok(())
            }
            Err(_) if self.policy.tolerant => {
                acc.failed.push(FailedPair { index, source: req.src, destination: req.dst });
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Serves one batch and returns every shard's accumulator, unsorted.
    ///
    /// Worker `w` of `workers` owns the shards [`crate::ShardMap::owner_of`]
    /// assigns it.  It walks the whole batch, serves exactly the requests
    /// whose destination shard it owns, then flushes all its shards'
    /// verification buckets in one [`rtr_metric::roundtrip_rows_sharded`]
    /// sweep.  No request crosses workers, so no worker waits on another.
    /// A batch no larger than `chunk_size` is served by one worker on the
    /// calling thread, so single requests pay no thread spawn; a larger one
    /// runs on `min(workers, shards)` scoped threads.
    ///
    /// A failing worker trips the abort flag; the others stop at their next
    /// owned request, every accumulator is discarded, and the first error is
    /// returned (worker panics propagate with their payload).
    fn run_batch(&self, requests: &[Request], base: usize) -> Result<Vec<ShardAcc>, SimError> {
        let config = self.engine.config();
        let map = self.plane.map();
        let inline = requests.len() <= config.chunk_size.max(1);
        let workers = if inline { 1 } else { config.workers.clamp(1, map.shard_count()) };
        let failed = AtomicBool::new(false);
        let work = |w: usize| -> Result<Vec<ShardAcc>, SimError> {
            let sim = self.plane.plane().simulator();
            let mut accs = self.shard_accs(w, workers);
            for (off, req) in requests.iter().enumerate() {
                let shard = map.shard_of(req.dst);
                if map.owner_of(shard, workers) != w {
                    continue;
                }
                if failed.load(Ordering::Relaxed) {
                    return Ok(accs);
                }
                // Owned shards ascend in steps of `workers` from `w`, so
                // `accs[shard / workers]` is this shard's slot.
                let slot = &mut accs[shard / workers];
                debug_assert_eq!(slot.shard, shard, "request routed to a foreign slot");
                self.serve_one(&sim, base + off, req, slot)
                    .inspect_err(|_| failed.store(true, Ordering::Relaxed))?;
            }
            // After an abort every accumulator is discarded, so a final
            // flush would pay its oracle rows for nothing.
            if !failed.load(Ordering::Relaxed) {
                self.flush(&mut accs);
            }
            Ok(accs)
        };
        if inline {
            return work(0);
        }
        let work = &work;
        let result = crossbeam::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|w| scope.spawn(move |_| work(w))).collect();
            let mut accs = Vec::with_capacity(map.shard_count());
            let mut first_err = None;
            for h in handles {
                match h.join().expect("engine worker panicked") {
                    Ok(worker_accs) => accs.extend(worker_accs),
                    Err(e) => first_err = first_err.or(Some(e)),
                }
            }
            first_err.map_or(Ok(accs), Err)
        });
        result.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    }

    /// Empty accumulators for the shards worker `w` of `workers` owns,
    /// ascending.
    fn shard_accs(&self, w: usize, workers: usize) -> Vec<ShardAcc> {
        (w..self.plane.map().shard_count())
            .step_by(workers)
            .map(|shard| ShardAcc {
                shard,
                stats: WorkerStats::new(),
                verify: VerifyAccumulator::new(&self.config),
                served: Vec::new(),
                failed: Vec::new(),
            })
            .collect()
    }

    /// Drains the verification buckets of every shard in `accs` through one
    /// [`rtr_metric::roundtrip_rows_sharded`] sweep.
    fn flush(&self, accs: &mut [ShardAcc]) {
        let mut parts: Vec<&mut VerifyAccumulator> =
            accs.iter_mut().map(|a| &mut a.verify).collect();
        VerifyAccumulator::flush_sharded(&mut parts, self.oracle);
    }

    /// Requests served so far (the next global index to be assigned).
    pub fn served(&self) -> usize {
        self.next_index
    }

    /// The verification report accumulated so far.  Buckets drain at the end
    /// of every batch, so this is always complete up to the last
    /// [`serve_batch`](Self::serve_batch) — the `/report` endpoint of the
    /// front door serves a clone of exactly this.
    pub fn report(&self) -> &VerifiedReport {
        &self.report
    }

    /// The schedule-dependent flush/row cost counters so far.
    pub fn cost(&self) -> &VerifyCost {
        &self.cost
    }

    /// Closes the session: folds the merged serving stats into telemetry
    /// (once per session), and returns the same [`VerifiedShardedServe`] one
    /// [`Engine::serve_verified_sharded`] call would have produced for the
    /// concatenated stream — modulo the schedule-dependent cost counters.
    ///
    /// # Errors
    ///
    /// In strict mode, [`VerifyServeError::BoundExceeded`] when any checked
    /// trip exceeded the configured stretch bound; the full outcome rides
    /// along.
    pub fn finish(mut self) -> Result<VerifiedShardedServe, VerifyServeError> {
        let workers = self.engine.config().workers.max(1);
        self.report.violations.sort_by_key(|v| v.index);
        self.failed_pairs.sort_unstable_by_key(|f| f.index);
        let outcome = VerifiedShardedServe {
            summary: ServeSummary::from_stats(self.merged, workers, self.serve_wall),
            report: self.report,
            cost: self.cost,
            shards: self.shards,
            failed_pairs: self.failed_pairs,
        };
        if self.config.strict && !outcome.report.is_clean() {
            return Err(VerifyServeError::BoundExceeded(Box::new(outcome)));
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::tests::{ring_plane, RingScheme};
    use crate::plane::FrozenPlane;
    use crate::workload::Workload;
    use crate::{EngineConfig, ShardMap, StretchBound};
    use rtr_dictionary::NodeName;
    use rtr_graph::generators::directed_ring;
    use rtr_graph::NodeId;
    use rtr_metric::DistanceMatrix;
    use std::sync::Arc;

    /// A 16-node ring whose nodes 3 and 4 carry each other's names, so a
    /// request to node 3 is delivered at node 4.
    fn swapped_ring_plane() -> FrozenPlane<RingScheme> {
        let g = Arc::new(directed_ring(16, 1).unwrap());
        let scheme = RingScheme::new(&g);
        let mut names: Vec<NodeName> = (0..16).map(NodeName).collect();
        names.swap(3, 4);
        FrozenPlane::freeze(g, scheme, Arc::new(names))
    }

    /// `len` requests on [`swapped_ring_plane`] that never target node 3 or 4.
    fn clean_stream(len: usize, seed: u64) -> Vec<Request> {
        let mut requests = Workload::Uniform.generate(16, 2 * len, seed);
        requests.retain(|r| r.dst.index() != 3 && r.dst.index() != 4);
        requests.truncate(len);
        assert_eq!(requests.len(), len, "fixture too short");
        requests
    }

    /// `clean` with the request at `at` redirected to node 3.
    fn with_misdelivery(clean: &[Request], at: usize) -> Vec<Request> {
        let mut requests = clean.to_vec();
        requests[at].dst = NodeId(3);
        requests
    }

    fn is_wrong_delivery<T>(result: Result<T, VerifyServeError>) -> bool {
        matches!(result, Err(VerifyServeError::Sim(SimError::WrongDelivery { .. })))
    }

    #[test]
    fn a_failing_request_aborts_the_batch_and_leaves_the_session_intact() {
        let plane = swapped_ring_plane();
        let m = DistanceMatrix::build(plane.graph());
        let sharded = ShardedPlane::new(plane, ShardMap::hashed(16, 4, 9));
        let config = VerifyConfig::full();
        let clean = clean_stream(600, 31);
        for workers in [1usize, 2, 4, 8] {
            let engine =
                Engine::new(EngineConfig { chunk_size: 16, ..EngineConfig::with_workers(workers) });
            let failing = with_misdelivery(&clean, 437);
            let oneshot = engine.serve_verified_sharded(&sharded, &failing, &m, &config);
            assert!(is_wrong_delivery(oneshot), "{workers} workers: one-shot serve");

            let mut session = engine.open_stream(&sharded, &m, &config);
            session.serve_batch(&clean[..300]).unwrap();
            let before = session.report().clone();
            let bad = with_misdelivery(&clean[300..], 123);
            assert!(is_wrong_delivery(session.serve_batch(&bad)), "{workers} workers: batch");
            assert_eq!(session.served(), 300, "{workers} workers");
            assert_eq!(session.report(), &before, "{workers} workers");
            let replies = session.serve_batch(&clean[300..]).unwrap();
            assert_eq!(replies[0].index, 300, "{workers} workers");
            let streamed = session.finish().unwrap();
            let reference = engine.serve_verified_sharded(&sharded, &clean, &m, &config).unwrap();
            assert_eq!(streamed.report, reference.report, "{workers} workers");
            let queries = |o: &VerifiedShardedServe| -> Vec<u64> {
                o.shards.iter().map(|s| s.queries).collect()
            };
            assert_eq!(queries(&streamed), queries(&reference), "{workers} workers");
            assert_eq!(streamed.summary.queries, 600, "{workers} workers");
        }
    }

    #[test]
    fn an_unknown_node_rejects_the_batch_and_leaves_the_session_intact() {
        let plane = ring_plane(16);
        let m = DistanceMatrix::build(plane.graph());
        let sharded = ShardedPlane::new(plane, ShardMap::hashed(16, 4, 9));
        let config = VerifyConfig::full();
        let engine = Engine::new(EngineConfig::with_workers(2));
        let clean = Workload::Uniform.generate(16, 90, 13);
        let mut session = engine.open_stream(&sharded, &m, &config);
        session.serve_batch(&clean[..30]).unwrap();
        for (step, (src, dst)) in
            [(NodeId(16), NodeId(2)), (NodeId(5), NodeId(99))].into_iter().enumerate()
        {
            let before = session.report().clone();
            let mut bad = clean[30..40].to_vec();
            bad[7] = Request { src, dst };
            let err = session.serve_batch(&bad).unwrap_err();
            assert!(err.report().is_none());
            let VerifyServeError::BadNode { index, src: s, dst: d } = err else {
                panic!("expected BadNode, got {err}");
            };
            assert_eq!((index, s, d), (7, src, dst));
            assert_eq!(session.served(), 30 + 30 * step);
            assert_eq!(session.report(), &before);
            let good = &clean[30 + 30 * step..60 + 30 * step];
            let replies = session.serve_batch(good).unwrap();
            assert_eq!(replies[0].index, 30 + 30 * step);
        }
        let streamed = session.finish().unwrap();
        let reference = engine.serve_verified_sharded(&sharded, &clean, &m, &config).unwrap();
        assert_eq!(streamed.report, reference.report);
        let mut bad = clean.clone();
        bad[50].dst = NodeId(16);
        let oneshot = engine.serve_verified_sharded(&sharded, &bad, &m, &config);
        assert!(matches!(oneshot, Err(VerifyServeError::BadNode { index: 50, .. })));
    }

    #[test]
    fn a_self_route_rejects_the_batch_under_every_verify_mode() {
        let plane = ring_plane(16);
        let m = DistanceMatrix::build(plane.graph());
        let sharded = ShardedPlane::new(plane, ShardMap::hashed(16, 4, 9));
        let engine = Engine::new(EngineConfig::with_workers(2));
        let clean = Workload::Uniform.generate(16, 60, 13);
        for config in [VerifyConfig::full(), VerifyConfig::off()] {
            let mode = config.mode.name();
            let mut session = engine.open_stream(&sharded, &m, &config);
            session.serve_batch(&clean[..30]).unwrap();
            let before = session.report().clone();
            let mut bad = clean[30..40].to_vec();
            bad[4] = Request { src: NodeId(5), dst: NodeId(5) };
            let err = session.serve_batch(&bad).unwrap_err();
            assert!(err.to_string().contains("self-route"), "{mode}: {err}");
            let VerifyServeError::BadNode { index, src, dst } = err else {
                panic!("{mode}: expected BadNode, got {err}");
            };
            assert_eq!((index, src, dst), (4, NodeId(5), NodeId(5)), "{mode}");
            assert_eq!(session.served(), 30, "{mode}");
            assert_eq!(session.report(), &before, "{mode}");
            let replies = session.serve_batch(&clean[30..]).unwrap();
            assert_eq!(replies[0].index, 30, "{mode}");
            let streamed = session.finish().unwrap();
            let reference = engine.serve_verified_sharded(&sharded, &clean, &m, &config).unwrap();
            assert_eq!(streamed.report, reference.report, "{mode}");
        }
    }

    #[test]
    fn streaming_matches_one_shot_for_any_split() {
        let plane = ring_plane(16);
        let m = DistanceMatrix::build(plane.graph());
        let requests = Workload::Mix.generate(16, 900, 5);
        let engine = Engine::new(EngineConfig::with_workers(3));
        let sharded = ShardedPlane::new(plane, ShardMap::hashed(16, 4, 9));
        let config = VerifyConfig::full();
        let oneshot = engine.serve_verified_sharded(&sharded, &requests, &m, &config).unwrap();
        // Splits cover both sides of the calling-thread / pool split: 1/7
        // and the 256 boundary on the calling thread, 333/900 on the pool.
        for split in [1usize, 7, 256, 333, 900] {
            let mut session = engine.open_stream(&sharded, &m, &config);
            let mut replies = Vec::new();
            for chunk in requests.chunks(split) {
                replies.extend(session.serve_batch(chunk).unwrap());
            }
            assert_eq!(session.served(), 900);
            let streamed = session.finish().unwrap();
            assert_eq!(streamed.report, oneshot.report, "split {split}");
            assert_eq!(streamed.summary.queries, 900);
            let shard_queries: Vec<(usize, u64)> =
                streamed.shards.iter().map(|s| (s.shard, s.queries)).collect();
            let expected: Vec<(usize, u64)> =
                oneshot.shards.iter().map(|s| (s.shard, s.queries)).collect();
            assert_eq!(shard_queries, expected, "split {split}");
            assert_eq!(replies.len(), 900);
            assert!(replies.iter().enumerate().all(|(i, t)| t.index == i));
        }
    }

    #[test]
    fn replies_match_the_sequential_simulator() {
        let plane = ring_plane(11);
        let m = DistanceMatrix::build(plane.graph());
        let requests = Workload::Uniform.generate(11, 300, 17);
        let engine = Engine::new(EngineConfig::with_workers(2));
        let sharded = ShardedPlane::new(plane.clone(), ShardMap::hashed(11, 3, 5));
        let mut session = engine.open_stream(&sharded, &m, &VerifyConfig::full());
        let mut replies = Vec::new();
        for chunk in requests.chunks(100) {
            replies.extend(session.serve_batch(chunk).unwrap());
        }
        let sim = plane.simulator();
        for (req, trip) in requests.iter().zip(&replies) {
            let brief = sim
                .roundtrip_brief(plane.scheme(), req.src, req.dst, plane.name_of(req.dst))
                .unwrap();
            assert_eq!(trip.hops, brief.total_hops());
            assert_eq!(trip.weight, brief.total_weight());
        }
    }

    #[test]
    fn sampled_mode_strides_by_global_index_across_batches() {
        let plane = ring_plane(9);
        let m = DistanceMatrix::build(plane.graph());
        let requests = Workload::Zipf { exponent: 1.1 }.generate(9, 500, 23);
        let engine = Engine::new(EngineConfig::with_workers(2));
        let sharded = ShardedPlane::new(plane, ShardMap::hashed(9, 2, 3));
        let config = VerifyConfig::sampled(7);
        let oneshot = engine.serve_verified_sharded(&sharded, &requests, &m, &config).unwrap();
        let mut session = engine.open_stream(&sharded, &m, &config);
        for chunk in requests.chunks(13) {
            session.serve_batch(chunk).unwrap();
        }
        let streamed = session.finish().unwrap();
        assert_eq!(streamed.report, oneshot.report);
        assert_eq!(streamed.report.checked, 500usize.div_ceil(7));
    }

    #[test]
    fn strict_sessions_fail_at_finish_not_per_batch() {
        let plane = ring_plane(12);
        let m = DistanceMatrix::build(plane.graph());
        let requests = Workload::Uniform.generate(12, 120, 5);
        let engine = Engine::default();
        let sharded = ShardedPlane::new(plane, ShardMap::hashed(12, 2, 5));
        // An impossible ceiling (stretch < 1/2) flags every trip, but batches
        // keep serving; the strict contract fires when the session closes.
        let config = VerifyConfig::full().with_bound(StretchBound { num: 1, den: 2 });
        let mut session = engine.open_stream(&sharded, &m, &config);
        for chunk in requests.chunks(40) {
            session.serve_batch(chunk).unwrap();
        }
        let err = session.finish().unwrap_err();
        let VerifyServeError::BoundExceeded(outcome) = err else {
            panic!("expected BoundExceeded");
        };
        assert_eq!(outcome.report.violations.len(), 120);
        let indices: Vec<usize> = outcome.report.violations.iter().map(|v| v.index).collect();
        assert_eq!(indices, (0..120).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batches_are_free() {
        let plane = ring_plane(5);
        let m = DistanceMatrix::build(plane.graph());
        let engine = Engine::default();
        let sharded = ShardedPlane::new(plane, ShardMap::single(5));
        let mut session = engine.open_stream(&sharded, &m, &VerifyConfig::full());
        assert!(session.serve_batch(&[]).unwrap().is_empty());
        assert_eq!(session.served(), 0);
        let outcome = session.finish().unwrap();
        assert_eq!(outcome.report, VerifiedReport::default());
    }
}
