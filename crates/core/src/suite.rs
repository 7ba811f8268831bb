//! Parallel construction of the paper's full scheme suite over one shared
//! distance oracle.
//!
//! Before the [`rtr_metric::DistanceOracle`] refactor, benchmarking the three
//! schemes side by side meant three independent dense `DistanceMatrix` builds
//! (or one shared matrix pinned to `n²` memory). Both suites here read the
//! *same* oracle — dense or lazy — through one shared row sweep, then fan the
//! three scheme constructions out over scoped worker threads, so the metric
//! is computed (and cached) once and the §2 and §3 schemes read one roundtrip
//! order.

use crate::naming::NamingAssignment;
use crate::{
    ExStretch, ExStretchParams, PolyParams, PolynomialStretch, SparseRepairKit, Stretch6Params,
    StretchSix,
};
use rtr_cover::CoverSweepPlan;
use rtr_dictionary::DistributionParams;
use rtr_graph::DiGraph;
use rtr_metric::{broadcast_rows, DistanceOracle, RoundtripOrder, TruncatedOrderSweep};
use rtr_namedep::{ExactOracleScheme, LandmarkBallScheme, TreeCoverScheme};

/// All three TINN schemes of the paper, built together with their default
/// parameters (`k = 2` for §3 and §4).
///
/// The stretch-6 scheme rides on the exact-oracle substrate (the hard-bound
/// configuration used throughout the test-suite); the exponential scheme on
/// the Theorem 13 tree-cover substrate; the polynomial scheme shares that
/// substrate's hierarchy.
#[derive(Debug)]
pub struct SchemeSuite {
    /// The §2 scheme (stretch 6, exact-oracle substrate).
    pub stretch6: StretchSix<ExactOracleScheme>,
    /// The §3 scheme (tree-cover handshake substrate).
    pub exstretch: ExStretch<TreeCoverScheme>,
    /// The §4 scheme.
    pub poly: PolynomialStretch,
}

impl SchemeSuite {
    /// Builds the exact-oracle substrate (its per-destination columns in
    /// parallel), then one row sweep that collects the first scale group of
    /// a `k = 2` Theorem 13 hierarchy and **one** roundtrip order, then the
    /// three schemes concurrently: the §2 and §3 schemes read that order,
    /// and the hierarchy backs both the §3 substrate and the §4 scheme.
    ///
    /// The exact-oracle substrate reads only the graph, and its constructor
    /// is where the suite decides strong connectivity, once, before the
    /// sweep; the constructors downstream do not check it again.  Each
    /// scheme's construction runs on its own scoped worker thread; the §4
    /// dictionary pass borrows `m` there, which is why [`DistanceOracle`]
    /// requires `Sync`.  A worker panic propagates as a panic here,
    /// mirroring the single-threaded behavior.
    ///
    /// # Panics
    ///
    /// Panics if any scheme's preconditions fail (graph not strongly
    /// connected, naming size mismatch).
    pub fn build<O: DistanceOracle + ?Sized>(g: &DiGraph, m: &O, names: &NamingAssignment) -> Self {
        let substrate = ExactOracleScheme::build(g);
        let (ex_params, poly_params) = (ExStretchParams::default(), PolyParams::default());
        let plan = CoverSweepPlan::new(m, poly_params.cover_k);
        let mut cover = plan.first_sweep();
        let mut order = order_sweep(g.node_count(), ex_params.k);
        broadcast_rows(m, &g.nodes().collect::<Vec<_>>(), &mut [&mut cover, &mut order]);
        let (cover, order) = (plan.finish(g, m, cover), order.finish());
        let (stretch6, exstretch, poly) = build_concurrently(
            || StretchSix::build_with_order(g, names, substrate, &order, Default::default()),
            || {
                let substrate = TreeCoverScheme::from_cover(g, &cover);
                ExStretch::build_with_order(g, names, substrate, &order, ex_params)
            },
            || PolynomialStretch::build_with_cover(g, m, names, &cover, poly_params),
        );
        SchemeSuite { stretch6, exstretch, poly }
    }

    /// Decomposes the suite into its three schemes, the handoff the serving
    /// plane uses: each scheme moves into its own `rtr_engine::FrozenPlane`
    /// (one `Arc` snapshot per scheme, graph and naming shared).
    pub fn into_parts(
        self,
    ) -> (StretchSix<ExactOracleScheme>, ExStretch<TreeCoverScheme>, PolynomialStretch) {
        (self.stretch6, self.exstretch, self.poly)
    }
}

/// Block-distribution density of the sparse configuration.
///
/// The dense default (`density = 4`) makes the Lemma 1/4 random phase cover
/// almost everything by itself, at the price of ≈ `4·ln n` blocks — and hence
/// ≈ `4·ln n · q` dictionary entries — per node; at `n = 10⁵` that constant
/// alone is tens of gigabytes across the suite.  The deterministic repair
/// pass enforces the coverage property *exactly* at any density, so the
/// sparse configuration leans on it: a quarter of the random blocks, the same
/// guarantees, ~4× smaller dictionaries.
const SPARSE_BLOCK_DENSITY: f64 = 1.0;

/// Parameters of [`SparseSchemeSuite::build`].
#[derive(Debug, Clone, Copy)]
pub struct SparseSuiteParams {
    /// Parameters of the §2 stretch-6 scheme.
    pub stretch6: Stretch6Params,
    /// Parameters of the §3 exponential-tradeoff scheme.  Defaults to `k = 3`
    /// (the Õ(n^{1/3})-entry dictionary point, a better fit at large `n` than
    /// the dense default `k = 2`).
    pub exstretch: ExStretchParams,
    /// Parameters of the §4 polynomial-tradeoff scheme (default `k = 3`, same
    /// reasoning).  `poly.cover_k` also sets the sparseness of the **shared**
    /// Theorem 13 hierarchy that backs both the §4 scheme and the §3
    /// tree-cover substrate.
    pub poly: PolyParams,
}

impl Default for SparseSuiteParams {
    fn default() -> Self {
        let blocks =
            DistributionParams { density: SPARSE_BLOCK_DENSITY, ..DistributionParams::default() };
        SparseSuiteParams {
            stretch6: Stretch6Params { blocks },
            exstretch: ExStretchParams { blocks, ..ExStretchParams::with_k(3) },
            poly: PolyParams::with_k(3),
        }
    }
}

/// The three TINN schemes in their **scalable** configuration: the §2 scheme
/// rides the Õ(√n) landmark + ball substrate, the §3 scheme the Theorem 13
/// tree-cover substrate (with its on-demand pairwise handshake), and the §4
/// scheme shares the §3 substrate's hierarchy — instead of the Θ(n²)-memory
/// exact-oracle / all-pairs-handshake substrates of [`SchemeSuite`].
///
/// This is the configuration that reaches `n = 10⁴–10⁵` through a lazy
/// oracle: nothing in it materialises a table with `n²` entries, and the one
/// double-tree-cover build (the dominant preprocessing cost at large `n`) is
/// shared between `exstretch` and `poly`.  The landmark substrate stands in
/// for Lemma 2's Roditty–Thorup–Zwick scheme and its stretch is measured,
/// not proven (ROADMAP item 1); the tree-cover substrate stands in for
/// Lemma 5's spanner and gives `exstretch` a proven `(2^k − 1)·4(2k_c − 1)`
/// budget.
#[derive(Debug)]
pub struct SparseSchemeSuite {
    /// The §2 scheme over the landmark substrate.
    pub stretch6: StretchSix<LandmarkBallScheme>,
    /// The §3 scheme over the tree-cover handshake substrate.
    pub exstretch: ExStretch<TreeCoverScheme>,
    /// The §4 scheme (same hierarchy as the §3 substrate).
    pub poly: PolynomialStretch,
}

impl SparseSchemeSuite {
    /// Builds the three schemes from the [`SparseRepairKit`]'s artifacts,
    /// sharing `m`, one landmark substrate build, one Theorem 13 hierarchy —
    /// and **one broadcast row sweep** for every oracle-row consumer that
    /// does not depend on the built hierarchy.
    ///
    /// The row consumers of the whole suite are: landmark extraction, cover
    /// ball collection, the one truncated order the §2 and §3 schemes both
    /// read, and the §4 scheme's dictionary pass.  The first three need
    /// nothing but rows, so the kit registers them together on a single
    /// prefetch-windowed [`rtr_metric::broadcast_rows`] pass; only the §4
    /// dictionary pass — which needs the *built* cover — runs on a second
    /// pass inside [`PolynomialStretch::build_with_cover`].  A lazy oracle
    /// therefore computes ≈ `4n` rows for the full suite instead of the
    /// ≈ `10n` the five independent sweeps used to fetch, with bit-identical
    /// schemes (asserted by the `shared_sweep` property tests).  The order is
    /// stored to the §3 scheme's deepest neighborhood, which is at least the
    /// §2 scheme's `⌈√n⌉`.  Scale groups beyond the first of the cover's
    /// transient-bit budget, if any, keep their own sweeps exactly as in
    /// [`rtr_cover::DoubleTreeCover::build`].
    ///
    /// After the sweeps the landmark substrate moves into the §2 scheme,
    /// and the three scheme constructions run concurrently on scoped worker
    /// threads exactly like [`SchemeSuite::build`].
    ///
    /// # Panics
    ///
    /// Panics if any scheme's preconditions fail (graph not strongly
    /// connected, naming size mismatch, `k < 2`).
    pub fn build<O: DistanceOracle + ?Sized>(
        g: &DiGraph,
        m: &O,
        names: &NamingAssignment,
        params: SparseSuiteParams,
    ) -> Self {
        let _suite_span =
            rtr_telemetry::span!("build.sparse_suite", format_args!("n={}", g.node_count()));
        let SparseRepairKit { landmark, cover, order, .. } =
            SparseRepairKit::sweep_artifacts(g, m, params);
        let treecover = {
            let _span = rtr_telemetry::span!("build.treecover_substrate");
            TreeCoverScheme::from_cover(g, &cover)
        };
        let (stretch6, exstretch, poly) = build_concurrently(
            || {
                let _span = rtr_telemetry::span!("build.stretch6");
                StretchSix::build_with_order(g, names, landmark, &order, params.stretch6)
            },
            || {
                let _span = rtr_telemetry::span!("build.exstretch");
                ExStretch::build_with_order(g, names, treecover, &order, params.exstretch)
            },
            || {
                let _span = rtr_telemetry::span!("build.polystretch");
                PolynomialStretch::build_with_cover(g, m, names, &cover, params.poly)
            },
        );
        SparseSchemeSuite { stretch6, exstretch, poly }
    }

    /// Decomposes the suite into its three schemes for the serving-plane
    /// handoff (see [`SchemeSuite::into_parts`]).
    pub fn into_parts(
        self,
    ) -> (StretchSix<LandmarkBallScheme>, ExStretch<TreeCoverScheme>, PolynomialStretch) {
        (self.stretch6, self.exstretch, self.poly)
    }
}

/// The sweep of the one roundtrip order a suite's §2 and §3 schemes share.
/// Both read only prefixes of `Init_u`, so an order stored to the deeper of
/// §2's `⌈√n⌉` and the level-`(k−1)` neighborhood of a parameter-`k` §3
/// scheme gives each the tables an order of its own depth would.
///
/// # Panics
///
/// Panics if `k < 2`.
pub(crate) fn order_sweep(n: usize, k: u32) -> TruncatedOrderSweep {
    assert!(k >= 2, "ExStretch requires k >= 2");
    let depth = RoundtripOrder::level_size(n, 1, 2).max(RoundtripOrder::level_size(n, k - 1, k));
    TruncatedOrderSweep::new(n, depth)
}

/// Runs the three scheme constructions on their own scoped worker threads
/// (so each one's build span is a root span) and returns their results.  A
/// worker panic (for example a disconnected graph failing a scheme's
/// precondition) propagates as a panic here, mirroring the single-threaded
/// behavior.
fn build_concurrently<A: Send, B: Send, C: Send>(
    stretch6: impl FnOnce() -> A + Send,
    exstretch: impl FnOnce() -> B + Send,
    poly: impl FnOnce() -> C + Send,
) -> (A, B, C) {
    let result = crossbeam::scope(|scope| {
        let h6 = scope.spawn(|_| stretch6());
        let hx = scope.spawn(|_| exstretch());
        let hp = scope.spawn(|_| poly());
        (
            h6.join().expect("stretch-6 construction panicked"),
            hx.join().expect("exstretch construction panicked"),
            hp.join().expect("polystretch construction panicked"),
        )
    });
    match result {
        Ok(schemes) => schemes,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_cover::DoubleTreeCover;
    use rtr_graph::generators::{directed_ring, strongly_connected_gnp};
    use rtr_graph::NodeId;
    use rtr_metric::{CachedSubsetOracle, DistanceMatrix, LazyDijkstraOracle};
    use rtr_sim::{RoundtripRouting, Simulator};

    /// A directed ring whose node 3 lost its one out-edge: a sink.
    fn ring_with_sink() -> DiGraph {
        let mut g = directed_ring(8, 1).unwrap();
        g.remove_edge(NodeId(3), NodeId(4)).unwrap();
        g
    }

    #[test]
    #[should_panic(expected = "not strongly connected")]
    fn sparse_suite_rejects_a_graph_with_a_sink() {
        let g = ring_with_sink();
        let names = NamingAssignment::random(8, 1);
        SparseSchemeSuite::build(&g, &LazyDijkstraOracle::new(&g, 4), &names, Default::default());
    }

    #[test]
    #[should_panic(expected = "not strongly connected")]
    fn repair_kit_rejects_a_graph_with_a_sink() {
        let g = ring_with_sink();
        SparseRepairKit::build(&g, &CachedSubsetOracle::new(&g), SparseSuiteParams::default());
    }

    #[test]
    fn suite_builds_all_three_schemes_from_one_dense_oracle() {
        let g = strongly_connected_gnp(32, 0.12, 5).unwrap();
        let m = DistanceMatrix::build(&g);
        let names = NamingAssignment::random(32, 9);
        let suite = SchemeSuite::build(&g, &m, &names);
        let sim = Simulator::new(&g);
        for s in g.nodes() {
            for t in g.nodes() {
                if s == t {
                    continue;
                }
                let r6 = sim.roundtrip_brief(&suite.stretch6, s, t, names.name_of(t)).unwrap();
                assert!(r6.within_stretch(&m, 6, 1));
                let rx = sim.roundtrip_brief(&suite.exstretch, s, t, names.name_of(t)).unwrap();
                assert!(rx.total_weight() >= m.roundtrip(s, t));
                let rp = sim.roundtrip_brief(&suite.poly, s, t, names.name_of(t)).unwrap();
                assert!(rp.within_stretch(&m, suite.poly.paper_stretch_bound(), 1));
            }
        }
    }

    #[test]
    fn sparse_suite_serves_correct_roundtrips_through_a_lazy_oracle() {
        let g = strongly_connected_gnp(40, 0.1, 11).unwrap();
        let names = NamingAssignment::random(40, 2);
        let dense = DistanceMatrix::build(&g);
        let lazy = LazyDijkstraOracle::new(&g, 8);
        let suite = SparseSchemeSuite::build(&g, &lazy, &names, SparseSuiteParams::default());
        let sim = Simulator::new(&g);
        // The tree-cover substrate gives the sparse exstretch a *proven*
        // budget: (2^k − 1)·β with β = 4(2k_c − 1).
        let ex_bound = suite.exstretch.paper_stretch_bound().unwrap();
        for s in g.nodes() {
            for t in g.nodes() {
                if s == t {
                    continue;
                }
                // The landmark substrate stands in for Lemma 2's scheme and
                // its stretch is measured, not proven: delivery must be
                // exact, stretch merely sane.
                let r6 = sim.roundtrip_brief(&suite.stretch6, s, t, names.name_of(t)).unwrap();
                assert!(r6.total_weight() >= dense.roundtrip(s, t));
                let rx = sim.roundtrip_brief(&suite.exstretch, s, t, names.name_of(t)).unwrap();
                assert!(rx.within_stretch(&dense, ex_bound, 1));
                let rp = sim.roundtrip_brief(&suite.poly, s, t, names.name_of(t)).unwrap();
                assert!(rp.within_stretch(&dense, suite.poly.paper_stretch_bound(), 1));
            }
        }
        // (Sublinearity of the landmark tables is asserted at n = 100 in the
        // substrate's own tests; at n = 40 the √n-scale constants dominate.)
        let (s6, sx, sp) = suite.into_parts();
        assert_eq!(s6.scheme_name(), "stretch6");
        assert_eq!(sx.scheme_name(), "exstretch");
        assert_eq!(sp.scheme_name(), "polystretch");
    }

    #[test]
    fn dense_suite_matches_standalone_section_2_and_3_builds() {
        // The suite's §2 and §3 schemes read one order stored to the deeper
        // of their prefixes; each standalone build sweeps its own.
        for seed in [4u64, 13] {
            let g = strongly_connected_gnp(36, 0.12, seed).unwrap();
            let m = DistanceMatrix::build(&g);
            let names = NamingAssignment::random(36, seed ^ 0x5eed);
            let suite = SchemeSuite::build(&g, &m, &names);
            let stretch6 =
                StretchSix::build(&g, &m, &names, ExactOracleScheme::build(&g), Default::default());
            let cover = DoubleTreeCover::build(&g, &m, PolyParams::default().cover_k);
            let substrate = TreeCoverScheme::from_cover(&g, &cover);
            let exstretch = ExStretch::build(&g, &m, &names, substrate, ExStretchParams::default());
            let sim = Simulator::new(&g);
            for s in g.nodes() {
                assert_eq!(suite.stretch6.table_stats(s), stretch6.table_stats(s), "§2 at {s}");
                assert_eq!(suite.exstretch.table_stats(s), exstretch.table_stats(s), "§3 at {s}");
                for t in g.nodes().filter(|&t| t != s) {
                    let name = names.name_of(t);
                    for (a, b) in [
                        (
                            sim.roundtrip_brief(&suite.stretch6, s, t, name).unwrap(),
                            sim.roundtrip_brief(&stretch6, s, t, name).unwrap(),
                        ),
                        (
                            sim.roundtrip_brief(&suite.exstretch, s, t, name).unwrap(),
                            sim.roundtrip_brief(&exstretch, s, t, name).unwrap(),
                        ),
                    ] {
                        assert_eq!(
                            (a.total_hops(), a.total_weight()),
                            (b.total_hops(), b.total_weight()),
                            "seed {seed}: route ({s},{t})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn suite_through_lazy_oracle_matches_dense_construction() {
        // The shared sweep and the §4 dictionary pass read a lazy oracle
        // under eviction pressure; the result must be identical to the dense
        // build (same tables ⇒ same routes and table stats).
        let g = strongly_connected_gnp(28, 0.15, 7).unwrap();
        let names = NamingAssignment::random(28, 3);
        let dense = DistanceMatrix::build(&g);
        let via_dense = SchemeSuite::build(&g, &dense, &names);

        let lazy = LazyDijkstraOracle::new(&g, 8);
        let via_lazy = SchemeSuite::build(&g, &lazy, &names);

        let subset = CachedSubsetOracle::new(&g);
        let via_subset = SchemeSuite::build(&g, &subset, &names);

        let sim = Simulator::new(&g);
        for s in g.nodes() {
            for t in g.nodes() {
                if s == t {
                    continue;
                }
                // StretchSix construction is oracle-independent bit for bit
                // (orders and balls only), so routes must coincide exactly.
                let a = sim.roundtrip_brief(&via_dense.stretch6, s, t, names.name_of(t)).unwrap();
                let b = sim.roundtrip_brief(&via_lazy.stretch6, s, t, names.name_of(t)).unwrap();
                let c = sim.roundtrip_brief(&via_subset.stretch6, s, t, names.name_of(t)).unwrap();
                assert_eq!(a.total_weight(), b.total_weight(), "({s},{t}) dense vs lazy");
                assert_eq!(a.total_weight(), c.total_weight(), "({s},{t}) dense vs subset");
                // Cover-based schemes may gain one extra hierarchy level from
                // the lazy oracle's 2×-bounded diameter estimate; the paper
                // bound must hold either way.
                let rp = sim.roundtrip_brief(&via_lazy.poly, s, t, names.name_of(t)).unwrap();
                assert!(rp.within_stretch(&dense, via_lazy.poly.paper_stretch_bound(), 1));
            }
        }
        for v in g.nodes() {
            assert_eq!(via_dense.stretch6.table_stats(v), via_lazy.stretch6.table_stats(v));
        }
        assert!(lazy.stats().peak_resident_rows <= 8);
    }
}
