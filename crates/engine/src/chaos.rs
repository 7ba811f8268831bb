//! Degraded serving through a fault window: the chaos plane's epochs.
//!
//! A chaos run serves three request streams over the same node space —
//! **pre-fault** (the healthy substrate), **degraded** (the old scheme still
//! serving after a [`rtr_graph::FaultPlan`] mutated the graph), and
//! **post-repair** (schemes minted from the incrementally repaired
//! substrate).  The ordinary engine entry points abort on the first
//! [`rtr_sim::SimError`]; through a fault window that is exactly wrong — a
//! route crossing a removed link *is the measurement*.  So
//! [`crate::Engine::serve_epoch_sharded`] keeps [`crate::VerifyMode::Full`]
//! verification running while tolerating per-request failures: every failed
//! request is recorded as a [`FailedPair`] (deterministically, sorted by
//! global request index) and every delivered request is verified against the
//! post-fault oracle as usual.
//!
//! [`chaos_report`] then assembles the three epochs into one
//! [`VerifiedReport`] whose [`VerifiedReport::epochs`] breakdown lists, per
//! epoch, exactly which pairs exceeded the proven stretch ceiling or failed
//! outright — and, on the post-repair epoch, which of the degraded window's
//! offenders the repair restored.

use crate::stream::VerifiedShardedServe;
use crate::verify::VerifiedReport;
use rtr_graph::NodeId;

/// Which phase of a chaos run an [`EpochReport`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochKind {
    /// The healthy substrate, before any fault was injected.
    PreFault,
    /// The fault window: the pre-fault scheme serving over the mutated
    /// graph.  Routes crossing a removed link fail; surviving routes may
    /// exceed the proven ceiling.
    Degraded,
    /// After incremental repair: schemes minted from the repaired substrate
    /// serving over the mutated graph.
    PostRepair,
}

impl EpochKind {
    /// Short stable name used in the chaos baseline artifact
    /// (`pre_fault` | `degraded` | `post_repair`).
    pub fn name(self) -> &'static str {
        match self {
            EpochKind::PreFault => "pre_fault",
            EpochKind::Degraded => "degraded",
            EpochKind::PostRepair => "post_repair",
        }
    }
}

/// One request the scheme failed to deliver during an epoch (typically a
/// route that tried to cross a removed link).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailedPair {
    /// Global index of the request in the epoch's stream.
    pub index: usize,
    /// Source of the request.
    pub source: NodeId,
    /// Destination of the request.
    pub destination: NodeId,
}

/// One epoch of a chaos run: the verified outcome of its stream plus the
/// delivery failures the tolerant serve recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochReport {
    /// Which phase of the run this is.
    pub kind: EpochKind,
    /// The deterministic verified outcome of the epoch's delivered requests
    /// ([`VerifiedReport::violations`] lists the pairs that exceeded the
    /// proven ceiling).  Its own `epochs` field is always empty.
    pub report: VerifiedReport,
    /// Requests the scheme failed to deliver, sorted by request index.
    pub failed_pairs: Vec<FailedPair>,
    /// Only on [`EpochKind::PostRepair`]: the `(source, destination)` pairs
    /// that violated the ceiling or failed outright during the degraded
    /// window and are clean in this epoch — the pairs repair restored.
    /// Sorted, deduplicated.
    pub restored: Vec<(NodeId, NodeId)>,
}

impl EpochReport {
    /// Requests the scheme failed to deliver in this epoch.
    pub fn failed(&self) -> usize {
        self.failed_pairs.len()
    }

    /// Every `(source, destination)` pair that exceeded the proven ceiling
    /// or failed to deliver in this epoch — sorted, deduplicated.
    pub fn offending_pairs(&self) -> Vec<(NodeId, NodeId)> {
        let mut pairs: Vec<(NodeId, NodeId)> = self
            .report
            .violations
            .iter()
            .map(|t| (t.source, t.destination))
            .chain(self.failed_pairs.iter().map(|f| (f.source, f.destination)))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// True when every delivered request respected the ceiling and nothing
    /// failed to deliver.
    pub fn is_clean(&self) -> bool {
        self.report.is_clean() && self.failed_pairs.is_empty()
    }
}

/// Assembles a chaos run's three epochs into one [`VerifiedReport`].
///
/// The returned report is the merge of the three epoch reports (queries,
/// histogram, worst trip and violations accumulate; violations keep epoch
/// order, each epoch's slice sorted by its own request index), and its
/// [`VerifiedReport::epochs`] holds the per-epoch breakdown: the pairs that
/// exceeded the ceiling or failed per epoch, and — on the post-repair entry
/// — [`EpochReport::restored`], the degraded window's offenders that the
/// repair brought back under the ceiling.
pub fn chaos_report(
    pre: &VerifiedShardedServe,
    degraded: &VerifiedShardedServe,
    post: &VerifiedShardedServe,
) -> VerifiedReport {
    let make = |kind: EpochKind, serve: &VerifiedShardedServe| EpochReport {
        kind,
        report: serve.report.clone(),
        failed_pairs: serve.failed_pairs.clone(),
        restored: Vec::new(),
    };
    let pre_epoch = make(EpochKind::PreFault, pre);
    let degraded_epoch = make(EpochKind::Degraded, degraded);
    let mut post_epoch = make(EpochKind::PostRepair, post);
    let still_bad = post_epoch.offending_pairs();
    post_epoch.restored = degraded_epoch
        .offending_pairs()
        .into_iter()
        .filter(|p| still_bad.binary_search(p).is_err())
        .collect();

    let mut total = pre.report.clone();
    total.merge(degraded.report.clone());
    total.merge(post.report.clone());
    total.epochs = vec![pre_epoch, degraded_epoch, post_epoch];
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::tests::ring_plane;
    use crate::workload::Workload;
    use crate::{Engine, EngineConfig, ShardMap, ShardedPlane, StretchBound, VerifyConfig};
    use rtr_metric::CachedSubsetOracle;
    use std::sync::Arc;

    #[test]
    fn healthy_epoch_matches_the_strict_engine_bit_for_bit() {
        let plane = ring_plane(10);
        let oracle = CachedSubsetOracle::new(plane.graph());
        let requests = Workload::Mix.generate(10, 400, 5);
        let config = VerifyConfig::full().with_bound(StretchBound::at_most(6));
        let engine = Engine::new(EngineConfig::with_workers(2));
        let sharded = ShardedPlane::new(plane.clone(), ShardMap::hashed(10, 3, 7));
        let strict = engine.serve_verified_sharded(&sharded, &requests, &oracle, &config).unwrap();
        let tolerant = engine.serve_epoch_sharded(&sharded, &requests, &oracle, &config);
        assert_eq!(tolerant.report, strict.report);
        assert!(tolerant.failed_pairs.is_empty());
        assert_eq!(tolerant.shards.len(), 3);
    }

    #[test]
    fn failed_pairs_are_deterministic_across_workers_and_policies() {
        // Removing one ring edge makes *every* roundtrip fail (a directed
        // ring's roundtrip traverses the whole cycle), so the old scheme
        // over the mutated graph fails every request — deterministically.
        let plane = ring_plane(8);
        let mut g = plane.graph().clone();
        assert!(g.remove_edge(rtr_graph::NodeId(3), rtr_graph::NodeId(4)).is_some());
        let degraded = plane.clone().with_graph(Arc::new(g));
        let requests = Workload::Uniform.generate(8, 300, 11);
        let verify = VerifyConfig::full();
        let mut outcomes = Vec::new();
        // Chunks of 16 cross the pool; 512 serves the stream on the calling
        // thread.
        for chunk_size in [16usize, 512] {
            for workers in [1usize, 2, 8] {
                for map in [ShardMap::hashed(8, 4, 3), ShardMap::range(8, 4)] {
                    let config = EngineConfig { chunk_size, ..EngineConfig::with_workers(workers) };
                    let sharded = ShardedPlane::new(degraded.clone(), map);
                    // No row is ever fetched (nothing succeeds), so the
                    // pre-fault oracle is safe to pass here.
                    let oracle = CachedSubsetOracle::new(plane.graph());
                    let outcome = Engine::new(config)
                        .serve_epoch_sharded(&sharded, &requests, &oracle, &verify);
                    assert_eq!(outcome.failed(), 300);
                    assert_eq!(outcome.report.queries, 0);
                    outcomes.push(outcome.failed_pairs);
                }
            }
        }
        for pairs in &outcomes[1..] {
            assert_eq!(pairs, &outcomes[0]);
        }
    }

    #[test]
    fn chaos_report_restores_the_degraded_offenders() {
        let plane = ring_plane(6);
        let oracle = CachedSubsetOracle::new(plane.graph());
        let requests = Workload::Mix.generate(6, 120, 3);
        let config = VerifyConfig::full().with_bound(StretchBound::at_most(6));
        let engine = Engine::new(EngineConfig::with_workers(2));
        let healthy = ShardedPlane::new(plane.clone(), ShardMap::single(6));
        let pre = engine.serve_epoch_sharded(&healthy, &requests, &oracle, &config);

        let mut g = plane.graph().clone();
        g.remove_edge(rtr_graph::NodeId(0), rtr_graph::NodeId(1)).unwrap();
        let window = ShardedPlane::new(plane.clone().with_graph(Arc::new(g)), ShardMap::single(6));
        let mid = engine.serve_epoch_sharded(&window, &requests, &oracle, &config);
        // "Repair" here is the original plane serving again.
        let post = engine.serve_epoch_sharded(&healthy, &requests, &oracle, &config);

        let report = chaos_report(&pre, &mid, &post);
        assert_eq!(report.epochs.len(), 3);
        assert_eq!(report.epochs[0].kind, EpochKind::PreFault);
        assert!(report.epochs[0].is_clean());
        assert_eq!(report.epochs[1].kind, EpochKind::Degraded);
        assert_eq!(report.epochs[1].failed(), 120);
        assert_eq!(report.epochs[2].kind, EpochKind::PostRepair);
        assert!(report.epochs[2].is_clean());
        // Every offending pair of the window is restored post-repair.
        assert_eq!(report.epochs[2].restored, report.epochs[1].offending_pairs());
        assert_eq!(report.queries, pre.report.queries + post.report.queries);
    }
}
