//! Property test: incremental repair ≡ full rebuild, bit for bit.
//!
//! After a seeded fault plan mutates the graph, a [`SparseRepairKit::repair`]
//! — which recomputes only dirty rows, dirty prefixes, the landmark columns
//! of dirty or reassigned landmarks and hit clusters — must produce exactly
//! the kit that [`SparseRepairKit::rebuild_reference`] builds the expensive
//! way, and the schemes minted from both kits, §2 on demand, must agree on
//! every table stat and every all-pairs simulator report (including which
//! pairs *fail* on the degraded substrate). Small `n`, many seeds, plus the
//! chaos plane's weighted ring at `n = 150`, where a repair carries some
//! landmark columns and recomputes others.

use rtr_core::naming::NamingAssignment;
use rtr_core::{SparseRepairKit, SparseSuiteParams};
use rtr_graph::generators::{ring_with_chords_weighted, strongly_connected_gnp, WeightRange};
use rtr_graph::{DiGraph, FaultPlan, GraphDelta, NodeId};
use rtr_metric::{CachedSubsetOracle, RowInvalidation};
use rtr_sim::{RoundtripRouting, Simulator};

fn all_edges(g: &DiGraph) -> Vec<(NodeId, NodeId)> {
    g.nodes().flat_map(|u| g.out_edges(u).iter().map(move |e| (u, e.to))).collect()
}

/// What one repair did with the landmark columns.
struct ColumnUse {
    landmarks: usize,
    forward: usize,
    reverse: usize,
    /// Landmarks with a clean forward row whose forward column was still
    /// recomputed, because a node moved to or from them.
    reassigned: usize,
}

/// Applies `plan` to `g0`, repairs the kit and checks the repair against the
/// from-scratch reference: rows, every artifact bit for bit, the landmark
/// columns it recomputed, and both schemes, named by `seed`, on every pair.
/// `None` when the plan severed the graph (chaos serving needs strong
/// connectivity).
fn check_repair(what: &str, g0: &DiGraph, plan: &FaultPlan, seed: u64) -> Option<ColumnUse> {
    let m0 = CachedSubsetOracle::new(g0);
    let kit0 = SparseRepairKit::build(g0, &m0, SparseSuiteParams::default());
    let mut g1 = g0.clone();
    let applied = plan.apply(&mut g1);
    if !g1.is_strongly_connected() {
        return None;
    }
    let inv = RowInvalidation::for_application(&m0, &applied);
    let m1 = CachedSubsetOracle::rebased(&m0, &g1, &inv);
    let before = m1.stats();
    let (kit1, stats) = kit0.repair(&g1, &m1, &inv, &applied);
    let after = m1.stats();

    // The repair touched only the dirty nodes' rows…
    assert_eq!(stats.dirty_nodes, inv.dirty_node_count());
    assert!(
        stats.rows_recomputed <= 2 * inv.dirty_node_count() as u64,
        "{what}: repair computed {} rows for {} dirty nodes",
        stats.rows_recomputed,
        inv.dirty_node_count()
    );
    // …and read each of them once: one sweep over the dirty nodes reads
    // their two rows (the strong-connectivity check reads the graph).
    let hits = after.cache_hits - before.cache_hits;
    assert!(
        hits <= 2 * stats.dirty_nodes,
        "{what}: repair read {hits} cached rows for {} dirty nodes",
        stats.dirty_nodes
    );
    assert_eq!(
        (after.rows_computed - before.rows_computed) as u64,
        stats.rows_recomputed,
        "{what}: the oracle computed rows the repair did not report"
    );

    // …and still matches the from-scratch reference exactly.
    let m1_fresh = CachedSubsetOracle::new(&g1);
    let reference = kit0.rebuild_reference(&g1, &m1_fresh);
    assert_eq!(kit1.landmark(), reference.landmark(), "{what}: landmark diverged");
    assert_eq!(kit1.cover(), reference.cover(), "{what}: cover diverged");
    assert_eq!(kit1.order(), reference.order(), "{what}: order diverged");

    // The landmark set is the sample, which reads only n, so no fault plan
    // changes it, and the repair carries each landmark column under its
    // index.  A sampling that reads the metric (ROADMAP item 1) trips this
    // assertion and must bring a carry keyed by landmark node id.
    let (old, new) = (kit0.landmark(), kit1.landmark());
    assert_eq!(new.landmarks(), old.landmarks(), "{what}: the landmark set changed");
    // Only the landmarks whose own row is dirty, or that gained or lost an
    // assigned destination, had a column half recomputed.
    let mut moved = vec![false; g1.node_count()];
    for u in g1.nodes() {
        let (was, is) = (old.nearest_landmark(u), new.nearest_landmark(u));
        if was != is {
            moved[was.index()] = true;
            moved[is.index()] = true;
        }
    }
    let landmarks = new.landmarks();
    let forward = landmarks.iter().filter(|&&l| inv.is_fwd_dirty(l) || moved[l.index()]).count();
    let reverse = landmarks.iter().filter(|&&l| inv.is_rev_dirty(l)).count();
    let reassigned =
        landmarks.iter().filter(|&&l| !inv.is_fwd_dirty(l) && moved[l.index()]).count();
    assert_eq!(stats.landmark_fwd_columns, forward, "{what}: forward columns recomputed");
    assert_eq!(stats.landmark_rev_columns, reverse, "{what}: reverse columns recomputed");

    // Schemes minted from both kits — §2 on demand — agree on every table
    // stat and every all-pairs simulator verdict, successes and degraded
    // failures alike.
    let names = NamingAssignment::random(g1.node_count(), seed);
    let (s6a, sxa) = kit1.schemes(&g1, &m1, &names);
    let (s6b, sxb) = reference.schemes(&g1, &m1_fresh, &names);
    let (s6a, s6b) = (s6a(), s6b());
    let sim = Simulator::new(&g1);
    for u in g1.nodes() {
        assert_eq!(s6a.table_stats(u), s6b.table_stats(u));
        assert_eq!(sxa.table_stats(u), sxb.table_stats(u));
        for v in g1.nodes() {
            if u == v {
                continue;
            }
            let a = sim.roundtrip_brief(&s6a, u, v, names.name_of(v));
            let b = sim.roundtrip_brief(&s6b, u, v, names.name_of(v));
            assert_eq!(a, b, "{what}: stretch6 report ({u},{v}) diverged");
            let c = sim.roundtrip_brief(&sxa, u, v, names.name_of(v));
            let d = sim.roundtrip_brief(&sxb, u, v, names.name_of(v));
            assert_eq!(c, d, "{what}: exstretch report ({u},{v}) diverged");
        }
    }
    Some(ColumnUse { landmarks: landmarks.len(), forward, reverse, reassigned })
}

#[test]
fn repaired_kit_is_bit_identical_to_reference_rebuild() {
    let mut exercised = 0usize;
    for seed in 0..10u64 {
        let g0 = strongly_connected_gnp(34, 0.14, seed).unwrap();
        let plan = FaultPlan::mixed_from_candidates(&all_edges(&g0), 5, 2, 3, seed ^ 0xbeef);
        if check_repair(&format!("gnp seed {seed}"), &g0, &plan, seed).is_some() {
            exercised += 1;
        }
    }
    assert!(exercised >= 3, "only {exercised} seeded plans kept the graph strongly connected");
}

#[test]
fn weighted_ring_repair_carries_clean_landmark_columns() {
    // The chaos plane's topology: ring weights in the default range, chords
    // weighing 1..=256, so most chords are metrically redundant.  Faulting
    // chords only keeps the ring, and with it strong connectivity.
    let n = 150;
    let chord_weights = WeightRange::new(1, 256);
    let g0 =
        ring_with_chords_weighted(n, 3 * n, 42, WeightRange::default(), chord_weights).unwrap();
    let chords: Vec<(NodeId, NodeId)> =
        all_edges(&g0).into_iter().filter(|&(u, v)| (u.index() + 1) % n != v.index()).collect();
    let (mut mixed, mut reassigned) = (0usize, 0usize);
    for seed in 0..4u64 {
        // Six chord faults, every third a ×4 inflation: few enough that
        // each plan leaves some landmark rows clean at this size.
        let plan = FaultPlan::mixed_from_candidates(&chords, 6, 3, 4, seed);
        let what = format!("weighted ring seed {seed}");
        let used = check_repair(&what, &g0, &plan, seed).expect("chord faults keep the ring");
        let partial = |recomputed: usize| 0 < recomputed && recomputed < used.landmarks;
        mixed += usize::from(partial(used.forward) && partial(used.reverse));
        reassigned += used.reassigned;
    }
    assert!(mixed > 0, "no plan both carried and recomputed columns of each half");
    assert!(reassigned > 0, "no plan recomputed a clean column for a reassigned landmark");
}

#[test]
fn identity_repair_is_free_and_changes_nothing() {
    let g = strongly_connected_gnp(30, 0.15, 77).unwrap();
    let m = CachedSubsetOracle::new(&g);
    let kit = SparseRepairKit::build(&g, &m, SparseSuiteParams::default());
    let inv = RowInvalidation::clean(g.node_count());
    let rebased = CachedSubsetOracle::rebased(&m, &g, &inv);
    let (kit1, stats) = kit.repair(&g, &rebased, &inv, &Default::default());
    assert_eq!(stats.dirty_nodes, 0);
    assert_eq!(stats.rows_recomputed, 0);
    assert_eq!(stats.clusters_reanchored, 0);
    // No row is dirty, so every landmark column is carried.
    assert_eq!((stats.landmark_fwd_columns, stats.landmark_rev_columns), (0, 0));
    assert_eq!(kit1.landmark(), kit.landmark());
    assert_eq!(kit1.cover(), kit.cover());
    assert_eq!(kit1.order(), kit.order());
}

#[test]
#[should_panic(expected = "not strongly connected")]
fn repair_rejects_a_fault_that_breaks_strong_connectivity() {
    let g0 = strongly_connected_gnp(24, 0.14, 3).unwrap();
    let m0 = CachedSubsetOracle::new(&g0);
    let kit0 = SparseRepairKit::build(&g0, &m0, SparseSuiteParams::default());
    let plan = FaultPlan::new(vec![GraphDelta::IsolateNode { node: NodeId(5) }], 0);
    let mut g1 = g0.clone();
    let applied = plan.apply(&mut g1);
    let inv = RowInvalidation::for_application(&m0, &applied);
    let m1 = CachedSubsetOracle::rebased(&m0, &g1, &inv);
    kit0.repair(&g1, &m1, &inv, &applied);
}
