//! Property test: incremental repair ≡ full rebuild, bit for bit.
//!
//! After a seeded fault plan mutates the graph, a [`SparseRepairKit::repair`]
//! — which recomputes only dirty rows, dirty prefixes and hit clusters —
//! must produce exactly the kit that [`SparseRepairKit::rebuild_reference`]
//! builds the expensive way, and the schemes minted from both kits must
//! agree on every table stat and every all-pairs simulator report (including
//! which pairs *fail* on the degraded substrate). Small `n`, many seeds.

use rtr_core::naming::NamingAssignment;
use rtr_core::{SparseRepairKit, SparseSuiteParams};
use rtr_graph::generators::strongly_connected_gnp;
use rtr_graph::{FaultPlan, NodeId};
use rtr_metric::{CachedSubsetOracle, RowInvalidation};
use rtr_sim::{RoundtripRouting, Simulator};

fn all_edges(g: &rtr_graph::DiGraph) -> Vec<(NodeId, NodeId)> {
    g.nodes().flat_map(|u| g.out_edges(u).iter().map(move |e| (u, e.to))).collect()
}

#[test]
fn repaired_kit_is_bit_identical_to_reference_rebuild() {
    let mut exercised = 0usize;
    for seed in 0..10u64 {
        let g0 = strongly_connected_gnp(34, 0.14, seed).unwrap();
        let m0 = CachedSubsetOracle::new(&g0);
        let params = SparseSuiteParams::default();
        let kit0 = SparseRepairKit::build(&g0, &m0, params);

        let plan = FaultPlan::mixed_from_candidates(&all_edges(&g0), 5, 2, 3, seed ^ 0xbeef);
        let mut g1 = g0.clone();
        let applied = plan.apply(&mut g1);
        if !g1.is_strongly_connected() {
            continue; // this plan severed the graph; chaos serving needs SC
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
            "seed {seed}: repair computed {} rows for {} dirty nodes",
            stats.rows_recomputed,
            inv.dirty_node_count()
        );
        // …and read each of them once: one sweep over the dirty nodes reads
        // their two rows, plus the two rows of the strong-connectivity probe.
        let hits = after.cache_hits - before.cache_hits;
        assert!(
            hits <= 2 * stats.dirty_nodes + 2,
            "seed {seed}: repair read {hits} cached rows for {} dirty nodes",
            stats.dirty_nodes
        );
        assert_eq!(
            (after.rows_computed - before.rows_computed) as u64,
            stats.rows_recomputed,
            "seed {seed}: the oracle computed rows the repair did not report"
        );

        // …and still matches the from-scratch reference exactly.
        let m1_fresh = CachedSubsetOracle::new(&g1);
        let reference = kit0.rebuild_reference(&g1, &m1_fresh);
        assert_eq!(kit1.landmark(), reference.landmark(), "seed {seed}: landmark diverged");
        assert_eq!(kit1.cover(), reference.cover(), "seed {seed}: cover diverged");
        assert_eq!(kit1.order6(), reference.order6(), "seed {seed}: §2 order diverged");
        assert_eq!(kit1.orderx(), reference.orderx(), "seed {seed}: §3 order diverged");

        // Schemes minted from both kits agree on every table stat and every
        // all-pairs simulator verdict — successes and degraded failures
        // alike.
        let names = NamingAssignment::random(g1.node_count(), seed);
        let (s6a, sxa) = kit1.schemes(&g1, &m1, &names);
        let (s6b, sxb) = reference.schemes(&g1, &m1_fresh, &names);
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
                assert_eq!(a, b, "seed {seed}: stretch6 report ({u},{v}) diverged");
                let c = sim.roundtrip_brief(&sxa, u, v, names.name_of(v));
                let d = sim.roundtrip_brief(&sxb, u, v, names.name_of(v));
                assert_eq!(c, d, "seed {seed}: exstretch report ({u},{v}) diverged");
            }
        }
        exercised += 1;
    }
    assert!(exercised >= 3, "only {exercised} seeded plans kept the graph strongly connected");
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
    assert_eq!(stats.balls_repaired, 0);
    assert_eq!(stats.clusters_reanchored, 0);
    assert_eq!(kit1.landmark(), kit.landmark());
    assert_eq!(kit1.cover(), kit.cover());
    assert_eq!(kit1.order6(), kit.order6());
    assert_eq!(kit1.orderx(), kit.orderx());
}
