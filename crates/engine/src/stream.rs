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
//! spawn per request; a larger batch runs on
//! [`crate::EngineConfig::workers`] scoped threads.  On a warm lazy oracle a
//! one-request batch costs its route plus two cached row reads: the
//! per-shard accumulators of shards it did not touch allocate no histogram
//! buckets, the flush sums the one entry it checks instead of a whole row,
//! and the verify telemetry writes go to handles resolved once.
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
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use rtr_graph::Distance;
use rtr_metric::DistanceOracle;
use rtr_sim::{RoundtripRouting, SimError, Simulator};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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

/// A request crossing workers: its global index and the request.
type Handoff = (usize, Request);

/// One shard's share of a batch: serving stats, verification buckets,
/// replies, delivery failures, and the handoffs that reached it.
struct ShardAcc {
    shard: usize,
    handoffs: u64,
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
    /// The first simulator error, as [`VerifyServeError::Sim`].  A failed
    /// batch contributes nothing to the session: no indices are consumed and
    /// the report is unchanged (oracle cache warm-up from partial
    /// verification may have occurred).
    pub fn serve_batch(
        &mut self,
        requests: &[Request],
    ) -> Result<Vec<ServedTrip>, VerifyServeError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let base = self.next_index;
        let started = Instant::now();
        let accs = self.run_batch(requests, base)?;
        self.serve_wall += started.elapsed();

        let mut replies = Vec::new();
        let mut verify = Vec::with_capacity(accs.len());
        let mut batch_queries = 0usize;
        let mut batch_handoffs = 0u64;
        let failed_before = self.failed_pairs.len();
        for acc in accs {
            let slot = &mut self.shards[acc.shard];
            slot.queries += acc.stats.queries as u64;
            slot.handoffs += acc.handoffs;
            batch_queries += acc.stats.queries;
            batch_handoffs += acc.handoffs;
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
        if batch_handoffs > 0 {
            rtr_telemetry::counter("engine.handoffs").add(batch_handoffs);
        }
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
    /// A batch no larger than one chunk is served on the calling thread,
    /// which owns every shard: single requests pay no thread spawn and no
    /// handoff queue.  A larger batch runs on the shard-owning pool.
    /// Worker `w` owns shards `{s | s % workers == w}`.  Every worker
    /// ingests chunks of `chunk_size` requests from a shared counter; a
    /// request whose destination shard it owns is served inline, everything
    /// else is `try_send`-handed to the owner's bounded channel (capacity
    /// [`crate::EngineConfig::handoff_capacity`]).  On a full queue the
    /// sender drains its *own* channel before retrying — every blocked
    /// sender makes progress on the work only it can do, so the handoff
    /// graph cannot deadlock.  After the counter runs dry a worker drops its
    /// senders, block-drains its channel until every other worker has done
    /// the same, then flushes all its shards' verification buckets in one
    /// [`rtr_metric::roundtrip_rows_sharded`] sweep.
    ///
    /// A failing worker trips the abort flag; in-flight handoffs are then
    /// dropped, every accumulator is discarded, and the first error is
    /// returned (worker panics propagate with their payload).
    fn run_batch(&self, requests: &[Request], base: usize) -> Result<Vec<ShardAcc>, SimError> {
        let config = self.engine.config();
        let chunk = config.chunk_size.max(1);
        let map = self.plane.map();
        if requests.len() <= chunk {
            let sim = self.plane.plane().simulator();
            let mut accs = self.shard_accs(0, 1);
            for (off, req) in requests.iter().enumerate() {
                self.serve_one(&sim, base + off, req, &mut accs[map.shard_of(req.dst)])?;
            }
            self.flush(&mut accs);
            return Ok(accs);
        }
        let workers = config.workers.max(1);
        let next = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let work = |w, rx: Receiver<Handoff>, txs: Vec<Sender<Handoff>>| -> Result<_, SimError> {
            let sim = self.plane.plane().simulator();
            // Telemetry accumulates in worker-local scalars and publishes
            // once after the drain — the hot path pays one branch per
            // iteration when the sink is off, and one channel-lock `len()`
            // sample per chunk when on.
            let telemetry_on = rtr_telemetry::enabled();
            let mut stall_ns: u64 = 0;
            let mut queue_hw: usize = 0;
            let mut accs = self.shard_accs(w, workers);
            // Serves one request this worker owns; `accs[s / workers]` is
            // shard s's slot because owned shards ascend in steps of
            // `workers` from `w`.
            let serve = |index: usize, req: &Request, accs: &mut [ShardAcc], handoff: bool| {
                let slot = &mut accs[map.shard_of(req.dst) / workers];
                debug_assert_eq!(slot.shard % workers, w, "request routed to a foreign worker");
                slot.handoffs += u64::from(handoff);
                self.serve_one(&sim, index, req, slot)
                    .inspect_err(|_| failed.store(true, Ordering::Relaxed))
            };
            'ingest: while !failed.load(Ordering::Relaxed) {
                // Drain our backlog before grabbing more stream, so handoff
                // queues turn over even when the stream is long.
                if telemetry_on {
                    queue_hw = queue_hw.max(rx.len());
                }
                while let Ok((i, req)) = rx.try_recv() {
                    serve(i, &req, &mut accs, true)?;
                }
                let lo = next.fetch_add(chunk, Ordering::Relaxed);
                if lo >= requests.len() {
                    break;
                }
                let hi = (lo + chunk).min(requests.len());
                for (off, req) in requests[lo..hi].iter().enumerate() {
                    let index = base + lo + off;
                    let owner = map.shard_of(req.dst) % workers;
                    if owner == w {
                        serve(index, req, &mut accs, false)?;
                        continue;
                    }
                    let mut msg = (index, *req);
                    let mut stall_started: Option<Instant> = None;
                    loop {
                        if failed.load(Ordering::Relaxed) {
                            break 'ingest;
                        }
                        match txs[owner].try_send(msg) {
                            Ok(()) => {
                                if let Some(at) = stall_started {
                                    stall_ns += at.elapsed().as_nanos() as u64;
                                }
                                break;
                            }
                            Err(TrySendError::Full(m)) => {
                                msg = m;
                                if telemetry_on && stall_started.is_none() {
                                    stall_started = Some(Instant::now());
                                }
                                // Backpressure: serve our own backlog while
                                // the owner's queue is full.
                                let mut progressed = false;
                                while let Ok((j, q)) = rx.try_recv() {
                                    progressed = true;
                                    serve(j, &q, &mut accs, true)?;
                                }
                                if !progressed {
                                    std::thread::yield_now();
                                }
                            }
                            // The owner returned early — only possible on
                            // abort.
                            Err(TrySendError::Disconnected(_)) => break 'ingest,
                        }
                    }
                }
            }
            // No more stream input from us: release our senders so owners'
            // blocking drains can terminate.
            drop(txs);
            while !failed.load(Ordering::Relaxed) {
                match rx.recv() {
                    Ok((i, req)) => serve(i, &req, &mut accs, true)?,
                    Err(_) => break,
                }
            }
            if telemetry_on {
                rtr_telemetry::counter("engine.handoff.stall_ns").add(stall_ns);
                rtr_telemetry::gauge("engine.shard.queue_depth_hw").set_max(queue_hw as u64);
            }
            // After an abort every accumulator is discarded, so a final
            // flush would pay its oracle rows for nothing.
            if !failed.load(Ordering::Relaxed) {
                self.flush(&mut accs);
            }
            Ok(accs)
        };
        let capacity = config.handoff_capacity.max(1);
        let (txs, rxs): (Vec<_>, Vec<_>) =
            (0..workers).map(|_| channel::bounded::<Handoff>(capacity)).unzip();
        let work = &work;
        let result = crossbeam::scope(|scope| {
            let handles: Vec<_> = rxs
                .into_iter()
                .enumerate()
                .map(|(w, rx)| {
                    let txs = txs.clone();
                    scope.spawn(move |_| work(w, rx, txs))
                })
                .collect();
            // The workers hold their own sender clones; release the
            // originals so sender counts reach zero when the workers finish.
            drop(txs);
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
                handoffs: 0,
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
    /// concatenated stream — modulo the schedule-dependent cost and handoff
    /// counters.
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
    use crate::plane::tests::ring_plane;
    use crate::workload::Workload;
    use crate::{EngineConfig, ShardMap, StretchBound};
    use rtr_metric::DistanceMatrix;

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
        let sharded = ShardedPlane::new(plane.clone(), ShardMap::range(11, 3));
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
        let sharded = ShardedPlane::new(plane, ShardMap::range(12, 2));
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
