//! Incremental substrate repair after seeded graph faults (the chaos plane).
//!
//! [`SparseRepairKit`] is the sparse suite's build pipeline with the
//! intermediate row artifacts — landmark substrate, Theorem 13 hierarchy,
//! both truncated orders — **retained** instead of consumed, so that after a
//! [`rtr_graph::FaultPlan`] mutates the graph the suite can be re-anchored by
//! recomputing only what the faults actually touched.
//!
//! The repair is the build's own row sweep, run over the dirty nodes: every
//! row artifact is a per-node function of that node's rows, so the landmark
//! and order consumers of the build start from the clean nodes' outputs
//! ([`LandmarkBallScheme::repair_sweep`], [`RoundtripOrder::repair_sweep`])
//! and one [`broadcast_rows`] pass over
//! [`RowInvalidation::dirty_nodes`] fills in the rest, two prefetched rows
//! per dirty node.  The landmark substrate's per-landmark columns follow the
//! same rule: only those of landmarks whose own row is dirty, or whose
//! assigned destinations changed, cost a Dijkstra.  The cover is the one
//! artifact that is not swept: the double trees of exactly the clusters
//! containing a fault endpoint are rebuilt
//! ([`DoubleTreeCover::repair_clusters`]) while the covers themselves stay
//! anchored, which is sound under removals and weight increases because
//! roundtrip balls only shrink.
//!
//! Every clean artifact is carried verbatim and every recomputed one goes
//! through the same consumer as a fresh build, so the repaired kit is
//! **bit-identical** to [`rebuild_reference`](SparseRepairKit::rebuild_reference)
//! on the mutated graph (property-tested in `tests/repair_equivalence.rs`).
//! On a rebased [`CachedSubsetOracle`] the whole repair reads at most two
//! rows per dirty node, versus `2n` for a from-scratch rebuild — the ratio
//! the chaos bench gates in CI.

use crate::naming::NamingAssignment;
use crate::suite::SparseSuiteParams;
use crate::{ExStretch, StretchSix};
use rtr_cover::{CoverSweepPlan, DoubleTreeCover};
use rtr_graph::{DiGraph, FaultApplication, NodeId};
use rtr_metric::{
    broadcast_rows, CachedSubsetOracle, DistanceOracle, RoundtripOrder, RowInvalidation,
    TruncatedOrderSweep,
};
use rtr_namedep::{LandmarkBallScheme, TreeCoverScheme};
use std::time::Instant;

/// What one [`SparseRepairKit::repair`] invocation recomputed — the
/// quantities the chaos bench reports and CI gates (repair must touch at
/// most a fixed fraction of a full rebuild's rows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Nodes with at least one dirty metric row.
    pub dirty_nodes: usize,
    /// Dijkstra rows the repair oracle computed (carried clean rows are
    /// cache hits and cost nothing).
    pub rows_recomputed: u64,
    /// Cover cluster trees rebuilt across all levels.
    pub clusters_reanchored: usize,
    /// Nodes whose landmark ball / nearest-landmark choice was recomputed.
    pub balls_repaired: usize,
    /// Kept landmarks whose forward column (forward Dijkstra, descent
    /// records, own labels) was recomputed rather than carried.
    pub landmark_fwd_columns: usize,
    /// Kept landmarks whose reverse column (reverse Dijkstra, up-ports) was
    /// recomputed rather than carried.
    pub landmark_rev_columns: usize,
    /// Wall-clock of the repair, in nanoseconds.
    pub epoch_ns: u64,
}

/// The sparse scheme suite's row artifacts, retained for incremental repair.
///
/// These are the artifacts [`crate::SparseSchemeSuite::build`] mints its
/// schemes from — one shared broadcast row sweep feeding the landmark
/// extraction, the first cover scale group and both truncated orders — kept
/// in the kit instead of consumed, so [`schemes`](Self::schemes) can mint
/// serving schemes from them at any time and [`repair`](Self::repair) can
/// patch them after faults.
///
/// The §4 polynomial scheme is deliberately absent: its dictionary pass
/// needs a second full row sweep over the *built* hierarchy, which would
/// break the dirty-rows-only repair budget. The chaos serving plane serves
/// the §3 scheme, whose proven stretch ceiling is what the verified epochs
/// are gated against; the §2 scheme is minted only when a caller asks for
/// it.
#[derive(Debug)]
pub struct SparseRepairKit {
    pub(crate) params: SparseSuiteParams,
    pub(crate) landmark: LandmarkBallScheme,
    pub(crate) cover: DoubleTreeCover,
    pub(crate) order6: RoundtripOrder,
    pub(crate) orderx: RoundtripOrder,
}

impl SparseRepairKit {
    /// Builds the kit's artifacts with one shared row sweep (plus any extra
    /// cover scale groups beyond the transient-bit budget) — the artifact
    /// build [`crate::SparseSchemeSuite::build`] mints its schemes from.
    ///
    /// # Panics
    ///
    /// Panics if the graph is not strongly connected or a parameter is out
    /// of range (`k < 2`).
    pub fn build<O: DistanceOracle + ?Sized>(
        g: &DiGraph,
        m: &O,
        params: SparseSuiteParams,
    ) -> Self {
        let _span = rtr_telemetry::span!("build.repair_kit", format_args!("n={}", g.node_count()));
        Self::sweep_artifacts(g, m, params)
    }

    /// The artifact build shared by [`build`](Self::build) and the sparse
    /// suite, each under its own span: every hierarchy-independent row
    /// consumer — landmark pass 1, the first cover scale group and both
    /// schemes' truncated orders — registered on **one** sweep over every
    /// node, then the remaining cover scale groups.  This is where a sparse
    /// build decides strong connectivity, once, on the graph; the consumers
    /// and the scheme constructors downstream do not check it again.
    pub(crate) fn sweep_artifacts<O: DistanceOracle + ?Sized>(
        g: &DiGraph,
        m: &O,
        params: SparseSuiteParams,
    ) -> Self {
        assert!(params.poly.cover_k >= 2, "cover parameter must be >= 2");
        g.require_strongly_connected().unwrap_or_else(|e| panic!("sparse suite: {e}"));
        let n = g.node_count();
        let mut landmark = LandmarkBallScheme::sweep(g, params.landmarks);
        let plan = CoverSweepPlan::new(m, params.poly.cover_k);
        let mut cover = plan.first_sweep();
        let mut order6 = TruncatedOrderSweep::new(n, RoundtripOrder::level_size(n, 1, 2));
        let k_x = params.exstretch.k;
        assert!(k_x >= 2, "ExStretch requires k >= 2");
        let mut orderx = TruncatedOrderSweep::new(n, RoundtripOrder::level_size(n, k_x - 1, k_x));
        {
            let _span = rtr_telemetry::span!("build.shared_sweep", "4 consumers");
            let sources: Vec<NodeId> = g.nodes().collect();
            broadcast_rows(m, &sources, &mut [&mut landmark, &mut cover, &mut order6, &mut orderx]);
        }
        let landmark = {
            let _span = rtr_telemetry::span!("build.landmark_finish");
            landmark.finish()
        };
        let (order6, orderx) = (order6.finish(), orderx.finish());
        let cover = plan.finish(g, m, cover);
        SparseRepairKit { params, landmark, cover, order6, orderx }
    }

    /// The parameters the kit was built with.
    pub fn params(&self) -> SparseSuiteParams {
        self.params
    }

    /// The retained landmark + ball substrate.
    pub fn landmark(&self) -> &LandmarkBallScheme {
        &self.landmark
    }

    /// The retained Theorem 13 hierarchy.
    pub fn cover(&self) -> &DoubleTreeCover {
        &self.cover
    }

    /// The retained §2 truncated order.
    pub fn order6(&self) -> &RoundtripOrder {
        &self.order6
    }

    /// The retained §3 truncated order.
    pub fn orderx(&self) -> &RoundtripOrder {
        &self.orderx
    }

    /// Mints the serving schemes from the retained artifacts: the §3 scheme
    /// over the tree-cover handshake substrate, minted now, and the §2
    /// scheme over the landmark substrate, minted when the returned closure
    /// is called.  A caller that serves only §3 drops the closure and pays
    /// neither the §2 mint nor the copy of the landmark substrate it owns.
    /// Scheme assembly reads no oracle rows, so minting from a repaired kit
    /// stays inside the repair row budget, and checks nothing: `g` must be
    /// the graph the kit was built or repaired on, whose strong connectivity
    /// [`build`](Self::build) or [`repair`](Self::repair) decided.
    pub fn schemes<'a, O: DistanceOracle + ?Sized>(
        &'a self,
        g: &'a DiGraph,
        // Unread since the mint reads no oracle; the ledger benchmark passes it.
        _m: &O,
        names: &'a NamingAssignment,
    ) -> (impl FnOnce() -> StretchSix<LandmarkBallScheme> + 'a, ExStretch<TreeCoverScheme>) {
        let stretch6 = move || {
            StretchSix::build_with_order(
                g,
                names,
                self.landmark.clone(),
                &self.order6,
                self.params.stretch6,
            )
        };
        let treecover = TreeCoverScheme::from_cover(g, &self.cover);
        let exstretch =
            ExStretch::build_with_order(g, names, treecover, &self.orderx, self.params.exstretch);
        (stretch6, exstretch)
    }

    /// Repairs the kit after `application` mutated the graph into `g`: one
    /// [`broadcast_rows`] pass over the dirty nodes feeds the build's
    /// landmark and order consumers, started from the clean nodes' outputs,
    /// and the cover re-anchors the clusters a fault touched.
    ///
    /// `m` must be the post-fault oracle — typically
    /// [`CachedSubsetOracle::rebased`] over the pre-fault oracle, so the
    /// clean rows are carried and only dirty rows cost a Dijkstra — and
    /// `invalidation` the same analysis the rebase used. Emits the
    /// `repair.rows_recomputed` / `repair.clusters_reanchored` counters and
    /// the `repair.epoch_ns` histogram.
    ///
    /// # Panics
    ///
    /// Panics if the mutated graph is no longer strongly connected or the
    /// node set changed.
    pub fn repair(
        &self,
        g: &DiGraph,
        m: &CachedSubsetOracle<'_>,
        invalidation: &RowInvalidation,
        application: &FaultApplication,
    ) -> (SparseRepairKit, RepairStats) {
        let start = Instant::now();
        let rows_before = m.stats().rows_computed;
        let dirty = invalidation.dirty_nodes();
        let _span = rtr_telemetry::span!("repair.kit", format_args!("dirty={}", dirty.len()));
        g.require_strongly_connected().unwrap_or_else(|e| panic!("SparseRepairKit::repair: {e}"));

        let mut landmark = self.landmark.repair_sweep(g, self.params.landmarks, invalidation);
        let mut order6 = self.order6.repair_sweep(invalidation);
        let mut orderx = self.orderx.repair_sweep(invalidation);
        broadcast_rows(m, &dirty, &mut [&mut landmark, &mut order6, &mut orderx]);
        let (landmark, columns) = landmark.finish_counted();
        let (order6, orderx) = (order6.finish(), orderx.finish());
        // Cluster hit detection needs the *fault endpoints*, not the dirty
        // nodes: a removed edge can leave both endpoint rows clean (some
        // other path was as short) while still changing its cluster's
        // induced subgraph.
        let mut touched: Vec<NodeId> =
            application.faults.iter().flat_map(|f| [f.from, f.to]).collect();
        touched.sort_unstable();
        touched.dedup();
        let (cover, clusters_reanchored) = self.cover.repair_clusters(g, &touched);

        let stats = RepairStats {
            dirty_nodes: dirty.len(),
            rows_recomputed: (m.stats().rows_computed - rows_before) as u64,
            clusters_reanchored,
            balls_repaired: dirty.len(),
            landmark_fwd_columns: columns.forward,
            landmark_rev_columns: columns.reverse,
            epoch_ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        };
        rtr_telemetry::counter("repair.rows_recomputed").add(stats.rows_recomputed);
        rtr_telemetry::counter("repair.clusters_reanchored").add(stats.clusters_reanchored as u64);
        rtr_telemetry::histogram("repair.epoch_ns").observe(start.elapsed());

        let kit = SparseRepairKit { params: self.params, landmark, cover, order6, orderx };
        (kit, stats)
    }

    /// The repair's reference semantics, built the expensive way: a fresh
    /// landmark substrate and fresh truncated orders from a from-scratch row
    /// sweep of `m`, plus the anchored
    /// [`DoubleTreeCover::rebuild_all_trees`] on `g`. [`repair`](Self::repair)
    /// must be bit-identical to this.
    pub fn rebuild_reference<O: DistanceOracle + ?Sized>(
        &self,
        g: &DiGraph,
        m: &O,
    ) -> SparseRepairKit {
        let n = g.node_count();
        let mut landmark = LandmarkBallScheme::sweep(g, self.params.landmarks);
        let mut order6 = TruncatedOrderSweep::new(n, RoundtripOrder::level_size(n, 1, 2));
        let k_x = self.params.exstretch.k;
        let mut orderx = TruncatedOrderSweep::new(n, RoundtripOrder::level_size(n, k_x - 1, k_x));
        let sources: Vec<NodeId> = g.nodes().collect();
        broadcast_rows(m, &sources, &mut [&mut landmark, &mut order6, &mut orderx]);
        SparseRepairKit {
            params: self.params,
            landmark: landmark.finish(),
            cover: self.cover.rebuild_all_trees(g),
            order6: order6.finish(),
            orderx: orderx.finish(),
        }
    }
}
