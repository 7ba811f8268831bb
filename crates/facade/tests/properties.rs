//! Workspace-level property-based tests: random strongly connected digraphs,
//! random namings, random pairs — delivery and the paper's stretch bounds
//! must hold for every generated instance.

use compact_roundtrip_routing::prelude::*;
use proptest::prelude::*;
use rtr_graph::DiGraphBuilder;

/// Builds a random strongly connected digraph from a proptest-generated edge
/// soup plus a guaranteed Hamiltonian cycle.
fn graph_strategy() -> impl Strategy<Value = rtr_graph::DiGraph> {
    (8usize..28, 0u64..1000).prop_map(|(n, seed)| {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = DiGraphBuilder::new(n);
        for i in 0..n {
            let u = NodeId(i as u32);
            let v = NodeId(((i + 1) % n) as u32);
            b.add_edge(u, v, rng.gen_range(1..20)).unwrap();
        }
        for _ in 0..3 * n {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u != v && !b.has_edge(NodeId(u), NodeId(v)) {
                b.add_edge(NodeId(u), NodeId(v), rng.gen_range(1..20)).unwrap();
            }
        }
        b.build().unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn oracles_agree_with_the_dense_matrix(g in graph_strategy()) {
        // LazyDijkstraOracle (tightly bounded cache, to force evictions) and
        // CachedSubsetOracle must agree with DistanceMatrix on every pair.
        let dense = DistanceMatrix::build(&g);
        let lazy = LazyDijkstraOracle::new(&g, 3);
        let subset = CachedSubsetOracle::new(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                prop_assert_eq!(lazy.distance(u, v), dense.distance(u, v));
                prop_assert_eq!(subset.distance(u, v), dense.distance(u, v));
                prop_assert_eq!(lazy.roundtrip(u, v), dense.roundtrip(u, v));
                prop_assert_eq!(subset.roundtrip(u, v), dense.roundtrip(u, v));
            }
        }
    }

    #[test]
    fn matrix_build_matches_floyd_warshall(g in graph_strategy()) {
        // The parallel Dijkstra rows must equal the O(n³) reference, whatever
        // block of rows each worker owned.
        let m = DistanceMatrix::build(&g);
        let reference = rtr_graph::algo::floyd_warshall(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                prop_assert_eq!(m.distance(u, v), reference[u.index()][v.index()]);
            }
        }
    }

    #[test]
    fn roundtrip_metric_axioms(g in graph_strategy()) {
        let m = DistanceMatrix::build(&g);
        prop_assert!(m.all_finite());
        for u in g.nodes() {
            prop_assert_eq!(m.roundtrip(u, u), 0);
            for v in g.nodes() {
                prop_assert_eq!(m.roundtrip(u, v), m.roundtrip(v, u));
                if u != v {
                    prop_assert!(m.roundtrip(u, v) >= 2);
                }
                for w in g.nodes() {
                    prop_assert!(m.roundtrip(u, w) <= m.roundtrip(u, v) + m.roundtrip(v, w));
                }
            }
        }
    }

    #[test]
    fn stretch6_bound_holds_on_random_instances(g in graph_strategy(), name_seed in 0u64..100) {
        let m = DistanceMatrix::build(&g);
        let names = NamingAssignment::random(g.node_count(), name_seed);
        let scheme = StretchSix::build(
            &g,
            &m,
            &names,
            ExactOracleScheme::build(&g),
            Stretch6Params::default(),
        );
        let sim = Simulator::new(&g);
        for s in g.nodes() {
            for t in g.nodes() {
                if s == t {
                    continue;
                }
                let report = sim.roundtrip_brief(&scheme, s, t, names.name_of(t)).unwrap();
                prop_assert!(report.within_stretch(&m, 6, 1));
            }
        }
    }

    #[test]
    fn exstretch_bound_holds_on_random_instances(g in graph_strategy(), k in 2u32..5) {
        let m = DistanceMatrix::build(&g);
        let names = NamingAssignment::random(g.node_count(), 3);
        let scheme = ExStretch::build(
            &g,
            &m,
            &names,
            ExactOracleScheme::build(&g),
            ExStretchParams::with_k(k),
        );
        let sim = Simulator::new(&g);
        let bound = (1u64 << k) - 1;
        for s in g.nodes() {
            for t in g.nodes() {
                if s == t {
                    continue;
                }
                let report = sim.roundtrip_brief(&scheme, s, t, names.name_of(t)).unwrap();
                prop_assert!(report.within_stretch(&m, bound, 1));
            }
        }
    }

    #[test]
    fn polystretch_bound_holds_on_random_instances(g in graph_strategy()) {
        let m = DistanceMatrix::build(&g);
        let names = NamingAssignment::random(g.node_count(), 5);
        let scheme = PolynomialStretch::build(&g, &m, &names, PolyParams::with_k(2));
        let sim = Simulator::new(&g);
        let bound = scheme.paper_stretch_bound();
        for s in g.nodes() {
            for t in g.nodes() {
                if s == t {
                    continue;
                }
                let report = sim.roundtrip_brief(&scheme, s, t, names.name_of(t)).unwrap();
                prop_assert!(report.within_stretch(&m, bound, 1));
            }
        }
    }

    #[test]
    fn compact_substrate_always_delivers(g in graph_strategy(), name_seed in 0u64..50) {
        let m = DistanceMatrix::build(&g);
        let names = NamingAssignment::random(g.node_count(), name_seed);
        let substrate = LandmarkBallScheme::build(&g, &m);
        let scheme = StretchSix::build(&g, &m, &names, substrate, Stretch6Params::default());
        let sim = Simulator::new(&g);
        for s in g.nodes() {
            for t in g.nodes() {
                if s == t {
                    continue;
                }
                let report = sim.roundtrip_brief(&scheme, s, t, names.name_of(t)).unwrap();
                prop_assert!(report.total_weight() >= m.roundtrip(s, t));
            }
        }
    }
}
