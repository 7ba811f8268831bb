//! The verification plane must actually *enforce* the proven stretch
//! ceilings: a corrupted distance-table entry — injected through a test-only
//! oracle hook that deflates one pair's roundtrip row entries — makes every
//! request on that pair appear to exceed the scheme's bound, and the
//! verifier must report **exactly** those queries (and only those), for each
//! of the three schemes.

use proptest::prelude::*;
use rtr_core::naming::NamingAssignment;
use rtr_core::{SchemeSuite, SuiteParams};
use rtr_engine::{
    Engine, EngineConfig, FrozenPlane, Request, ShardMap, ShardedPlane, StretchBound, VerifyConfig,
    VerifyServeError, Workload,
};
use rtr_graph::generators::strongly_connected_gnp;
use rtr_graph::{DiGraph, DiGraphBuilder, Distance, NodeId};
use rtr_metric::{DistanceMatrix, DistanceOracle};
use rtr_sim::RoundtripRouting;
use std::sync::Arc;

/// Rebuilds `g` with every edge weight multiplied by `factor` (ports
/// preserved: edges are re-inserted in port order).  Large weights keep the
/// deflated corrupted entries well away from the `max(…, 1)` clamp, so a
/// corrupted query *always* reads as a bound violation.
fn scale_weights(g: &DiGraph, factor: u64) -> DiGraph {
    let mut b = DiGraphBuilder::new(g.node_count());
    for v in g.nodes() {
        for e in g.out_edges(v) {
            b.add_edge(v, e.to, e.weight * factor).unwrap();
        }
    }
    b.build().unwrap()
}

/// Test-only corruption hook: delegates every query to the inner dense
/// oracle but deflates the roundtrip distance of one unordered pair
/// (`r(u, v) = r(v, u)`, so both orientations are corrupted) far enough
/// below the scheme's ceiling that any real route over it must read as a
/// violation.  Only the roundtrip entries are touched — exactly "one
/// corrupted table entry", everything else bit-identical.
#[derive(Debug)]
struct CorruptedEntry<'a> {
    inner: &'a DistanceMatrix,
    a: NodeId,
    b: NodeId,
    /// Deflation divisor: `corrupt(r) = max(1, r / divisor)`.
    divisor: u64,
}

impl CorruptedEntry<'_> {
    fn is_victim(&self, u: NodeId, v: NodeId) -> bool {
        (u, v) == (self.a, self.b) || (u, v) == (self.b, self.a)
    }

    fn corrupt(&self, r: Distance) -> Distance {
        (r / self.divisor).max(1)
    }
}

impl DistanceOracle for CorruptedEntry<'_> {
    fn node_count(&self) -> usize {
        DistanceOracle::node_count(self.inner)
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Distance {
        DistanceOracle::distance(self.inner, u, v)
    }

    fn roundtrip(&self, u: NodeId, v: NodeId) -> Distance {
        let r = DistanceOracle::roundtrip(self.inner, u, v);
        if self.is_victim(u, v) {
            self.corrupt(r)
        } else {
            r
        }
    }

    fn row(&self, u: NodeId) -> Vec<Distance> {
        DistanceOracle::row(self.inner, u)
    }

    fn rev_row(&self, u: NodeId) -> Vec<Distance> {
        DistanceOracle::rev_row(self.inner, u)
    }

    fn roundtrip_row(&self, u: NodeId) -> Vec<Distance> {
        let mut row = DistanceOracle::roundtrip_row(self.inner, u);
        let other = if u == self.a {
            Some(self.b)
        } else if u == self.b {
            Some(self.a)
        } else {
            None
        };
        if let Some(v) = other {
            row[v.index()] = self.corrupt(row[v.index()]);
        }
        row
    }
}

/// Serves `requests` over `plane` with full verification against the
/// corrupted oracle and asserts the violation list is exactly the requests
/// on the victim pair.
fn check_detects_exactly_the_corrupted_queries<S: RoundtripRouting + Send + Sync>(
    plane: &FrozenPlane<S>,
    requests: &[Request],
    clean: &DistanceMatrix,
    corrupted: &CorruptedEntry<'_>,
    bound: u64,
    label: &str,
) {
    // Chunks of 16 spread the stream over the pool's three workers.
    let engine = Engine::new(EngineConfig { chunk_size: 16, ..EngineConfig::with_workers(3) });
    let sharded = ShardedPlane::new(plane.clone(), ShardMap::hashed(plane.node_count(), 3, 5));
    let strict = VerifyConfig::full().with_bound(StretchBound::at_most(bound));

    // Against the clean oracle the proven ceiling holds for the full stream.
    let outcome = engine
        .serve_verified_sharded(&sharded, requests, clean, &strict)
        .unwrap_or_else(|e| panic!("{label}: clean run failed: {e}"));
    assert!(outcome.report.is_clean());
    assert_eq!(outcome.report.checked, requests.len());

    // Strict mode hard-fails on the corrupted oracle…
    let err = engine.serve_verified_sharded(&sharded, requests, corrupted, &strict).unwrap_err();
    let VerifyServeError::BoundExceeded(outcome) = err else {
        panic!("{label}: expected BoundExceeded, got a sim error");
    };

    // …and the report names exactly the corrupted queries, in index order.
    let expected: Vec<usize> = requests
        .iter()
        .enumerate()
        .filter(|(_, r)| corrupted.is_victim(r.src, r.dst))
        .map(|(i, _)| i)
        .collect();
    assert!(!expected.is_empty(), "{label}: the victim pair never occurs in the stream");
    let flagged: Vec<usize> = outcome.report.violations.iter().map(|v| v.index).collect();
    assert_eq!(flagged, expected, "{label}: flagged set differs from the corrupted set");
    for v in &outcome.report.violations {
        assert!(corrupted.is_victim(v.source, v.destination), "{label}: non-victim flagged");
        assert_eq!(
            v.exact,
            corrupted.corrupt(clean.roundtrip(v.source, v.destination)),
            "{label}: violation carries the corrupted entry"
        );
        assert!(StretchBound::at_most(bound).exceeded_by(v.measured, v.exact), "{label}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn verifier_reports_exactly_the_corrupted_queries(seed in 0u64..500) {
        let n = 20 + (seed as usize % 5);
        // ×1000 weights keep deflated entries clear of the 1-clamp for every
        // bound below (roundtrips are ≥ 2000, ceilings are ≤ a few hundred).
        let g = Arc::new(scale_weights(&strongly_connected_gnp(n, 0.15, seed).unwrap(), 1000));
        let dense = DistanceMatrix::build(&g);
        let names = NamingAssignment::random(n, seed ^ 0xc0de);
        let suite = SchemeSuite::build(&g, &dense, &names, SuiteParams::default());

        let ex_bound = suite.exstretch.paper_stretch_bound().unwrap();
        let poly_bound = suite.poly.paper_stretch_bound();
        let (stretch6, exstretch, poly) = suite.into_parts();
        let frozen_names = Arc::new(names.to_names());

        let requests = Workload::Mix.generate(n, 160, seed.wrapping_mul(13));
        // The victim pair is drawn from the stream itself, so it occurs at
        // least once; deflation divides by 2·bound, leaving apparent stretch
        // ≥ 2·bound > bound on every corrupted query.
        let victim = requests[seed as usize % requests.len()];

        let corrupted_for = |bound: u64| CorruptedEntry {
            inner: &dense,
            a: victim.src,
            b: victim.dst,
            divisor: 2 * bound,
        };

        let plane6 = FrozenPlane::freeze(Arc::clone(&g), stretch6, Arc::clone(&frozen_names));
        check_detects_exactly_the_corrupted_queries(
            &plane6, &requests, &dense, &corrupted_for(6), 6, "stretch6",
        );
        let planex = FrozenPlane::freeze(Arc::clone(&g), exstretch, Arc::clone(&frozen_names));
        check_detects_exactly_the_corrupted_queries(
            &planex, &requests, &dense, &corrupted_for(ex_bound), ex_bound, "exstretch",
        );
        let planep = FrozenPlane::freeze(Arc::clone(&g), poly, Arc::clone(&frozen_names));
        check_detects_exactly_the_corrupted_queries(
            &planep, &requests, &dense, &corrupted_for(poly_bound), poly_bound, "polystretch",
        );
    }
}
