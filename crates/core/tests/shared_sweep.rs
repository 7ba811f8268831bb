//! Property tests for the broadcast row-sweep pipeline: the shared-sweep
//! suite build must be **bit-identical** to building every consumer from its
//! own private sweep, on dense, lazy and memoising oracles.
//!
//! "Bit-identical" is asserted through every observable surface the schemes
//! expose: per-node table stats (entry and bit counts), label sizes, and the
//! exact hop-by-hop roundtrip reports of the simulator for all pairs (hops,
//! weight, header bits — equal tables produce equal routes).

use rtr_core::naming::NamingAssignment;
use rtr_core::{ExStretch, PolynomialStretch, SparseSchemeSuite, SparseSuiteParams, StretchSix};
use rtr_cover::DoubleTreeCover;
use rtr_graph::generators::strongly_connected_gnp;
use rtr_graph::DiGraph;
use rtr_metric::{CachedSubsetOracle, DistanceMatrix, DistanceOracle, LazyDijkstraOracle};
use rtr_namedep::{LandmarkBallScheme, TreeCoverScheme};
use rtr_sim::{RoundtripRouting, Simulator};

/// The reference build: every row consumer runs its own private sweep, using
/// the standalone constructors exactly as the pre-shared-sweep suite did.
fn reference_suite<O: DistanceOracle + ?Sized>(
    g: &DiGraph,
    m: &O,
    names: &NamingAssignment,
    params: SparseSuiteParams,
) -> SparseSchemeSuite {
    let landmark = LandmarkBallScheme::build(g, m);
    let cover = DoubleTreeCover::build(g, m, params.poly.cover_k);
    let treecover = TreeCoverScheme::from_cover(g, &cover);
    SparseSchemeSuite {
        stretch6: StretchSix::build(g, m, names, landmark, params.stretch6),
        exstretch: ExStretch::build(g, m, names, treecover, params.exstretch),
        poly: PolynomialStretch::build_with_cover(g, m, names, &cover, params.poly),
    }
}

/// Asserts both suites produce identical tables and identical all-pairs
/// roundtrip behaviour for all three schemes.
fn assert_suites_identical(
    g: &DiGraph,
    names: &NamingAssignment,
    a: &SparseSchemeSuite,
    b: &SparseSchemeSuite,
    label: &str,
) {
    for v in g.nodes() {
        assert_eq!(
            a.stretch6.table_stats(v),
            b.stretch6.table_stats(v),
            "{label}: stretch6 table at {v} differs"
        );
        assert_eq!(
            a.exstretch.table_stats(v),
            b.exstretch.table_stats(v),
            "{label}: exstretch table at {v} differs"
        );
        assert_eq!(
            a.poly.table_stats(v),
            b.poly.table_stats(v),
            "{label}: polystretch table at {v} differs"
        );
    }
    let sim = Simulator::new(g);
    for s in g.nodes() {
        for t in g.nodes() {
            if s == t {
                continue;
            }
            let name = names.name_of(t);
            let ra = sim.roundtrip_brief(&a.stretch6, s, t, name).unwrap();
            let rb = sim.roundtrip_brief(&b.stretch6, s, t, name).unwrap();
            assert_eq!(
                (ra.total_weight(), ra.total_hops(), ra.max_header_bits()),
                (rb.total_weight(), rb.total_hops(), rb.max_header_bits()),
                "{label}: stretch6 route ({s},{t}) differs"
            );
            let ra = sim.roundtrip_brief(&a.exstretch, s, t, name).unwrap();
            let rb = sim.roundtrip_brief(&b.exstretch, s, t, name).unwrap();
            assert_eq!(
                (ra.total_weight(), ra.total_hops(), ra.max_header_bits()),
                (rb.total_weight(), rb.total_hops(), rb.max_header_bits()),
                "{label}: exstretch route ({s},{t}) differs"
            );
            let ra = sim.roundtrip_brief(&a.poly, s, t, name).unwrap();
            let rb = sim.roundtrip_brief(&b.poly, s, t, name).unwrap();
            assert_eq!(
                (ra.total_weight(), ra.total_hops(), ra.max_header_bits()),
                (rb.total_weight(), rb.total_hops(), rb.max_header_bits()),
                "{label}: polystretch route ({s},{t}) differs"
            );
        }
    }
}

#[test]
fn shared_sweep_suite_is_bit_identical_to_per_consumer_sweeps() {
    for seed in [11u64, 29] {
        let g = strongly_connected_gnp(40, 0.1, seed).unwrap();
        let names = NamingAssignment::random(40, seed ^ 0xbeef);
        let params = SparseSuiteParams::default();

        // Dense oracle: every row is already there and the prefetch is a
        // no-op.  (The reference must use the same oracle kind: a lazy
        // oracle's 2×-bounded diameter estimate can legitimately add one
        // cover level versus the dense exact diameter, so dense-vs-lazy
        // suites are equivalent but not bit-identical.)
        let dense = DistanceMatrix::build(&g);
        let reference = reference_suite(&g, &dense, &names, params);
        let shared = SparseSchemeSuite::build(&g, &dense, &names, params);
        assert_suites_identical(&g, &names, &reference, &shared, "dense");

        // Lazy oracle (tiny cache): every window's rows come from the
        // prefetch, under eviction pressure.
        let lazy_reference = LazyDijkstraOracle::new(&g, 8);
        let reference = reference_suite(&g, &lazy_reference, &names, params);
        let lazy = LazyDijkstraOracle::new(&g, 8);
        let via_lazy = SparseSchemeSuite::build(&g, &lazy, &names, params);
        assert_suites_identical(&g, &names, &reference, &via_lazy, "lazy");
        assert!(lazy.stats().peak_resident_rows <= 9, "cache bound violated");

        // Memoising subset oracle, unbounded cache.
        let subset_reference = CachedSubsetOracle::new(&g);
        let reference = reference_suite(&g, &subset_reference, &names, params);
        let subset = CachedSubsetOracle::new(&g);
        let via_subset = SparseSchemeSuite::build(&g, &subset, &names, params);
        assert_suites_identical(&g, &names, &reference, &via_subset, "subset");
    }
}

#[test]
fn shared_sweep_halves_the_lazy_oracle_rows() {
    // The acceptance criterion of the shared sweep, at test scale: the suite
    // build through a lazy oracle must compute at most half the rows the
    // per-consumer reference build fetches.
    let g = strongly_connected_gnp(60, 0.08, 5).unwrap();
    let names = NamingAssignment::random(60, 17);
    let params = SparseSuiteParams::default();

    let reference_oracle = LazyDijkstraOracle::new(&g, 8);
    let _ = reference_suite(&g, &reference_oracle, &names, params);
    let reference_rows = reference_oracle.stats().rows_computed;

    let shared_oracle = LazyDijkstraOracle::new(&g, 8);
    let _ = SparseSchemeSuite::build(&g, &shared_oracle, &names, params);
    let shared_rows = shared_oracle.stats().rows_computed;

    assert!(
        2 * shared_rows <= reference_rows,
        "shared sweep computed {shared_rows} rows, reference {reference_rows} — not halved"
    );
}
