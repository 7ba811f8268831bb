//! Cross-crate integration tests: the full pipeline (graph → metric → covers
//! → dictionary → substrate → scheme → simulator) on every graph family, with
//! the paper's stretch bounds asserted as hard inequalities wherever a proven
//! substrate is used.

use compact_roundtrip_routing::prelude::*;
use rtr_graph::generators::Family;

fn all_pairs_check<S: RoundtripRouting>(
    g: &rtr_graph::DiGraph,
    m: &DistanceMatrix,
    names: &NamingAssignment,
    scheme: &S,
    bound: Option<(u64, u64)>,
) {
    let sim = Simulator::new(g);
    for s in g.nodes() {
        for t in g.nodes() {
            if s == t {
                continue;
            }
            let report = sim
                .roundtrip_brief(scheme, s, t, names.name_of(t))
                .unwrap_or_else(|e| panic!("{}: ({s},{t}): {e}", scheme.scheme_name()));
            if let Some((num, den)) = bound {
                assert!(
                    report.within_stretch(m, num, den),
                    "{}: pair ({s},{t}) exceeds {num}/{den}",
                    scheme.scheme_name()
                );
            }
        }
    }
}

#[test]
fn stretch6_all_families_all_pairs() {
    for family in Family::ALL {
        let g = family.generate(32, 2).unwrap();
        let m = DistanceMatrix::build(&g);
        let names = NamingAssignment::random(g.node_count(), 5);
        let scheme = StretchSix::build(
            &g,
            &m,
            &names,
            ExactOracleScheme::build(&g),
            Stretch6Params::default(),
        );
        all_pairs_check(&g, &m, &names, &scheme, Some((6, 1)));
    }
}

#[test]
fn exstretch_all_families_all_pairs() {
    for family in Family::ALL {
        let g = family.generate(30, 3).unwrap();
        let m = DistanceMatrix::build(&g);
        let names = NamingAssignment::random(g.node_count(), 7);
        let k = 3u32;
        let scheme = ExStretch::build(
            &g,
            &m,
            &names,
            ExactOracleScheme::build(&g),
            ExStretchParams::with_k(k),
        );
        all_pairs_check(&g, &m, &names, &scheme, Some(((1 << k) - 1, 1)));
    }
}

#[test]
fn polystretch_all_families_all_pairs() {
    for family in Family::ALL {
        let g = family.generate(28, 4).unwrap();
        let m = DistanceMatrix::build(&g);
        let names = NamingAssignment::random(g.node_count(), 9);
        let scheme = PolynomialStretch::build(&g, &m, &names, PolyParams::with_k(2));
        all_pairs_check(&g, &m, &names, &scheme, Some((scheme.paper_stretch_bound(), 1)));
    }
}

#[test]
fn compact_pipeline_is_correct_and_grows_sublinearly() {
    // The headline configuration of the paper's abstract: compact tables at
    // every node (no oracle anywhere) and guaranteed delivery. At laptop-test
    // sizes the Õ(√n) constants still dominate n, so sublinearity is checked
    // as a growth rate: quadrupling-ish n must grow the largest table by a
    // strictly smaller factor.
    let mut max_entries = Vec::new();
    for n in [64usize, 196] {
        let g = Family::Gnp.generate(n, 11).unwrap();
        let m = DistanceMatrix::build(&g);
        let names = NamingAssignment::random(g.node_count(), 13);
        let substrate = LandmarkBallScheme::build(&g, &m);
        let scheme = StretchSix::build(&g, &m, &names, substrate, Stretch6Params::default());
        if n == 64 {
            all_pairs_check(&g, &m, &names, &scheme, None);
        }
        max_entries.push((
            g.node_count() as f64,
            g.nodes().map(|v| scheme.table_stats(v).entries).max().unwrap() as f64,
        ));
    }
    let (n0, e0) = max_entries[0];
    let (n1, e1) = max_entries[1];
    assert!(
        e1 / e0 < n1 / n0,
        "tables grew linearly or worse: {e0} -> {e1} while n went {n0} -> {n1}"
    );
}

#[test]
fn naming_reduction_composes_with_routing() {
    // Arbitrary 64-bit self-chosen identifiers, hashed to {0..n-1}, then used
    // as the TINN names of a live scheme.
    use compact_roundtrip_routing::dictionary::naming::NameRegistry;
    let g = Family::Grid.generate(49, 3).unwrap();
    let n = g.node_count();
    let m = DistanceMatrix::build(&g);
    let ids: Vec<u64> =
        (0..n as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(17)).collect();
    let registry = NameRegistry::new(&ids, 4).unwrap();
    // The registry may hash two ids to the same slot; a real deployment keeps
    // the bucket indirection, which for naming purposes is equivalent to
    // assigning collided nodes the next free slot. Resolve collisions the same
    // way here to obtain the TINN permutation.
    let mut taken = vec![false; n];
    let mut slots = Vec::with_capacity(n);
    for &id in ids.iter().take(n) {
        let mut s = registry.slot(id).unwrap().index();
        while taken[s] {
            s = (s + 1) % n;
        }
        taken[s] = true;
        slots.push(compact_roundtrip_routing::dictionary::NodeName(s as u32));
    }
    let names = NamingAssignment::from_names(slots);
    let scheme =
        StretchSix::build(&g, &m, &names, ExactOracleScheme::build(&g), Stretch6Params::default());
    all_pairs_check(&g, &m, &names, &scheme, Some((6, 1)));
}

#[test]
fn evaluation_harness_reports_consistent_numbers() {
    let g = Family::Gnp.generate(40, 6).unwrap();
    let m = DistanceMatrix::build(&g);
    let names = NamingAssignment::random(g.node_count(), 2);
    let scheme = PolynomialStretch::build(&g, &m, &names, PolyParams::with_k(2));
    let eval = SchemeEvaluation::measure(&g, &m, &names, &scheme, PairSelection::AllPairs).unwrap();
    assert_eq!(eval.pairs, 40 * 39);
    assert!(eval.avg_stretch >= 1.0);
    assert!(eval.avg_stretch <= eval.max_stretch);
    assert!(eval.max_stretch <= scheme.paper_stretch_bound() as f64);
    assert!(eval.optimal_fraction >= 0.0 && eval.optimal_fraction <= 1.0);
    assert!(eval.max_table_bits >= eval.max_table_entries);
}

#[test]
fn schemes_reject_malformed_return_packets() {
    use compact_roundtrip_routing::sim::RoutingError;
    let g = Family::Gnp.generate(24, 8).unwrap();
    let m = DistanceMatrix::build(&g);
    let names = NamingAssignment::random(g.node_count(), 1);
    let scheme =
        StretchSix::build(&g, &m, &names, ExactOracleScheme::build(&g), Stretch6Params::default());
    // Creating a return packet anywhere other than the destination is a
    // protocol violation and must be reported, not silently accepted.
    let header = scheme.new_packet(NodeId(0), names.name_of(NodeId(5))).unwrap();
    let err: RoutingError = scheme.make_return(NodeId(7), &header).unwrap_err();
    assert!(err.to_string().contains("away from the destination"));
}
