//! E14 — the chaos sweep: seeded fault injection, verified degraded
//! serving, and incremental substrate repair, gated as the fourth CI
//! baseline (`BENCH_chaos.json`).
//!
//! The run builds the sparse suite's artifacts once as a
//! [`SparseRepairKit`] over a `ring_with_chords` graph, then for each
//! **failure fraction** injects a seeded [`FaultPlan`] and serves three
//! fully-verified epochs of the §3 plane through the tolerant engine
//! ([`Engine::serve_epoch_sharded`]):
//!
//! 1. **pre-fault** — the healthy substrate; must be perfectly clean under
//!    the §3 proven ceiling ([`ExStretch::paper_stretch_bound`]);
//! 2. **degraded** — the *old* scheme serving over the mutated graph.
//!    Routes crossing a removed chord fail ([`FailedPair`]s), surviving
//!    routes may exceed the ceiling; both are the measurement, recorded per
//!    fraction as the success rate and worst verified stretch;
//! 3. **post-repair** — the §3 scheme minted from
//!    [`SparseRepairKit::repair`] on the rebased oracle; must be perfectly
//!    clean again, and [`chaos_report`] records which degraded-window
//!    offenders the repair restored.  The repair line on stdout also names
//!    how many landmark columns the repair recomputed rather than carried.
//!
//! **Topology.** The graph is `ring_with_chords_weighted`: ring weights in
//! the default range, chord weights widened to `1..=256`.  Chords heavier
//! than the typical graph distance are *metrically redundant* — never on any
//! shortest path — which is what lets a network absorb a real 5–10%
//! edge-failure fraction: redundant capacity fails silently, while the
//! handful of tight chords lost is what degrades service.
//!
//! **Fault selection.** Candidates are the chord edges only — the ring is
//! never faulted, so the mutated graph stays strongly connected by
//! construction.  Each candidate's solo dirty-row set under conservative row
//! invalidation ([`RowInvalidation::analyze`]) is precomputed once as a
//! bitset (identical for removal and inflation — tightness is a property of
//! the pre-fault edge).  Per fraction a seeded shuffle walks the candidates,
//! accepting each fault whose *incremental* dirty rows (vs. the union of
//! rows already dirtied) still fit the dirty-row budget: redundant chords
//! cost zero rows and always fit, tight chords are taken until the budget
//! binds.  Single-fault invalidations union exactly, so the projection is
//! the true multi-fault dirty-row count.  Every third accepted fault becomes
//! a ×4 weight inflation (the rest are removals), and requested vs. applied
//! counts are reported honestly in the artifact — nothing is silently
//! capped.
//!
//! **Repair economy.** Per fraction the run records the rows the
//! incremental repair recomputed on the rebased [`CachedSubsetOracle`]
//! against the rows a from-scratch [`SparseRepairKit::rebuild_reference`]
//! pays on a fresh oracle, and **hard-fails** (exit 1) if repair costs more
//! than [`REPAIR_ROW_BUDGET`] (25%) of the rebuild, if the repaired kit's
//! landmark substrate, cover or either truncated order differs from that
//! rebuild's (repair ≡ rebuild, checked at full size) — or if the
//! post-repair epoch is not clean.  The row budget and the post-repair
//! cleanliness are also rows of the [`CHAOS`] gate table, checked on the
//! current artifact whatever the baseline says, so CI enforces them even
//! against a stale baseline.
//!
//! The run's shape is fixed (see `main`).  Environment: `RTR_CHAOS_JSON`
//! (artifact path, default `BENCH_chaos.json`) and
//! `RTR_CHAOS_TELEMETRY_JSON` (registry export, default
//! `BENCH_chaos_telemetry.json`); any other `RTR_*` variable ends the run.
//! The baseline-regeneration recipe lives in `docs/OPERATIONS.md`.
//!
//! [`ExStretch::paper_stretch_bound`]: rtr_core::ExStretch::paper_stretch_bound
//! [`FailedPair`]: rtr_engine::FailedPair
//! [`Engine::serve_epoch_sharded`]: rtr_engine::Engine::serve_epoch_sharded
//! [`chaos_report`]: rtr_engine::chaos_report
//! [`SparseRepairKit`]: rtr_core::SparseRepairKit
//! [`SparseRepairKit::repair`]: rtr_core::SparseRepairKit::repair
//! [`SparseRepairKit::rebuild_reference`]: rtr_core::SparseRepairKit::rebuild_reference
//! [`RowInvalidation`]: rtr_metric::RowInvalidation
//! [`CachedSubsetOracle`]: rtr_metric::CachedSubsetOracle
//! [`FaultPlan`]: rtr_graph::FaultPlan
//! [`REPAIR_ROW_BUDGET`]: rtr_bench::baseline::REPAIR_ROW_BUDGET
//! [`CHAOS`]: rtr_bench::baseline::CHAOS

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rtr_bench::baseline::{require_telemetry_match, JsonValue, REPAIR_ROW_BUDGET};
use rtr_bench::{banner, fail, reject_unread_env};
use rtr_core::naming::NamingAssignment;
use rtr_core::{SparseRepairKit, SparseSuiteParams};
use rtr_engine::Workload;
use rtr_engine::{
    chaos_report, Engine, EngineConfig, FrozenPlane, ShardMap, ShardedPlane, StretchBound,
    VerifiedShardedServe, VerifyConfig,
};
use rtr_graph::generators::{ring_with_chords_weighted, WeightRange};
use rtr_graph::{EdgeFault, FaultPlan, GraphDelta, NodeId};
use rtr_metric::{CachedSubsetOracle, RowInvalidation};
use std::sync::Arc;
use std::time::Instant;

/// The seeded, impact-budgeted fault selection for one fraction.
struct Selection {
    plan: FaultPlan,
    requested: usize,
    removals: usize,
    inflations: usize,
    dirty_rows_projected: usize,
}

/// Bit-packed dirty-row set of a single candidate fault (forward rows at
/// bits `0..n`, reverse rows at `n..2n`), shared between removal and
/// inflation: tightness is a property of the pre-fault edge, so `new_weight`
/// does not change the set.
fn solo_impact(
    m0: &CachedSubsetOracle<'_>,
    from: NodeId,
    to: NodeId,
    weight: u64,
    n: usize,
    words: usize,
) -> Vec<u64> {
    let inc = RowInvalidation::analyze(m0, &[EdgeFault { from, to, weight, new_weight: None }]);
    let mut bits = vec![0u64; words];
    for i in 0..n {
        let u = NodeId(i as u32);
        if inc.is_fwd_dirty(u) {
            bits[i / 64] |= 1 << (i % 64);
        }
        if inc.is_rev_dirty(u) {
            let j = n + i;
            bits[j / 64] |= 1 << (j % 64);
        }
    }
    bits
}

/// Walks the seeded-shuffled candidates, accepting each fault whose
/// incremental dirty rows (vs. the union of rows already dirtied) still fit
/// `row_budget`, until `target` faults are selected or the pool is
/// exhausted.  Single-fault invalidations union exactly (each fault is
/// analyzed against the same pre-fault metric), so the projection is the
/// true multi-fault dirty-row count.
fn select_faults(
    candidates: &[(NodeId, NodeId)],
    impacts: &[Vec<u64>],
    target: usize,
    row_budget: usize,
    inflation_factor: u32,
    seed: u64,
) -> Selection {
    let words = impacts.first().map_or(0, Vec::len);
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut union = vec![0u64; words];
    let mut dirty_rows = 0usize;
    let mut deltas = Vec::with_capacity(target);
    let (mut removals, mut inflations) = (0usize, 0usize);
    for ci in order {
        if deltas.len() == target {
            break;
        }
        let cost: usize =
            impacts[ci].iter().zip(&union).map(|(w, u)| (w & !u).count_ones() as usize).sum();
        if dirty_rows + cost > row_budget {
            continue;
        }
        dirty_rows += cost;
        for (u, w) in union.iter_mut().zip(&impacts[ci]) {
            *u |= w;
        }
        let (from, to) = candidates[ci];
        if deltas.len() % 3 == 2 {
            inflations += 1;
            deltas.push(GraphDelta::InflateWeight { from, to, factor: inflation_factor });
        } else {
            removals += 1;
            deltas.push(GraphDelta::RemoveEdge { from, to });
        }
    }
    Selection {
        plan: FaultPlan::new(deltas, seed),
        requested: target,
        removals,
        inflations,
        dirty_rows_projected: dirty_rows,
    }
}

fn main() {
    reject_unread_env(&["RTR_CHAOS_JSON", "RTR_CHAOS_TELEMETRY_JSON"]);
    // The gated shape: 600 nodes, 4 000 queries per verified epoch, seed 42,
    // four workers over four hash shards (every gated number is
    // worker-independent), and three edge-failure fractions.
    let (n, queries, seed, workers, shards) = (600, 4_000, 42, 4, 4);
    let fractions = [0.02, 0.05, 0.10];
    // `3n` chords weighing `1..=256`: the redundancy dial, since chords
    // heavier than the typical distance are metrically silent.
    let (chords, chord_wmax) = (3 * n, 256);
    // The fault selection may dirty 22% of the `2n` metric rows, under the
    // 25% repair-row gate with headroom.
    let dirty_row_budget = (0.22 * 2.0 * n as f64).floor() as usize;
    let shard_map = ShardMap::hashed(n, shards, seed);

    banner(&format!(
        "E14: chaos sweep, n = {n}, {queries} queries/epoch, {workers} workers, {shards} shards, \
         dirty-row budget {dirty_row_budget} of {}",
        2 * n
    ));
    let t0 = Instant::now();
    let g0 = Arc::new(
        ring_with_chords_weighted(
            n,
            chords,
            seed,
            WeightRange::default(),
            WeightRange::new(1, chord_wmax),
        )
        .expect("generator failed"),
    );
    let edge_count = g0.edge_count();
    let candidates: Vec<(NodeId, NodeId)> = g0
        .nodes()
        .flat_map(|u| g0.out_edges(u).iter().map(move |e| (u, e.to)))
        .filter(|&(u, v)| (u.index() + 1) % n != v.index())
        .collect();
    println!(
        "graph: n = {n}, m = {edge_count} ({} chord fault candidates, ring excluded, \
         chord weights 1..={chord_wmax})",
        candidates.len()
    );

    // The pre-fault substrate, built once and shared by every fraction: the
    // subset oracle materialises all 2n rows during the kit build, so the
    // rebased per-fraction oracles carry every clean row for free.
    let m0 = CachedSubsetOracle::new(&g0);
    let kit = SparseRepairKit::build(&g0, &m0, SparseSuiteParams::default());
    let names = NamingAssignment::random(n, seed ^ 0x7e57);
    let (_, sx) = kit.schemes(&g0, &m0, &names);
    let bound = sx.paper_stretch_bound().expect("tree-cover substrate carries a proven stretch");
    let frozen_names = Arc::new(names.to_names());
    let pre_plane = FrozenPlane::freeze(Arc::clone(&g0), sx, Arc::clone(&frozen_names));
    println!(
        "substrate built in {:.1?} ({} rows), §3 proven ceiling {bound}",
        t0.elapsed(),
        m0.stats().rows_computed
    );

    // Solo dirty-row bitsets, one per candidate, shared by every fraction's
    // greedy selection (every metric row is already resident after the kit
    // build, so each analysis is four cached row reads).
    let words = (2 * n).div_ceil(64);
    let t_impact = Instant::now();
    let impacts: Vec<Vec<u64>> = candidates
        .iter()
        .map(|&(from, to)| {
            let w = g0.edge_weight(from, to).expect("candidates come from the live edge set");
            solo_impact(&m0, from, to, w, n, words)
        })
        .collect();
    let zero_impact = impacts.iter().filter(|b| b.iter().all(|&w| w == 0)).count();
    println!(
        "impact map: {} candidates analyzed in {:.1?} ({zero_impact} dirty no rows at all)",
        candidates.len(),
        t_impact.elapsed()
    );

    let engine = Engine::new(EngineConfig::with_workers(workers));
    let config = VerifyConfig::full().with_bound(StretchBound::at_most(bound));
    let mut records = Vec::with_capacity(fractions.len());

    for (fi, &fraction) in fractions.iter().enumerate() {
        banner(&format!("failure fraction {fraction:.3}"));
        let target = (fraction * edge_count as f64).round() as usize;
        let selection = select_faults(
            &candidates,
            &impacts,
            target,
            dirty_row_budget,
            4,
            seed ^ (0xC0A5 + fi as u64 * 0x9E37_79B9),
        );
        let applied_count = selection.plan.len();
        println!(
            "faults: {applied_count} applied of {} requested ({} removals, {} inflations, \
             {} projected dirty rows ≤ budget {dirty_row_budget}){}",
            selection.requested,
            selection.removals,
            selection.inflations,
            selection.dirty_rows_projected,
            if applied_count < selection.requested {
                " — impact budget capped the selection"
            } else {
                ""
            }
        );

        let mut mutated = (*g0).clone();
        let application = selection.plan.apply(&mut mutated);
        assert_eq!(application.skipped, 0, "chord candidates are distinct live edges");
        assert!(
            mutated.is_strongly_connected(),
            "chord-only faults must keep the ring-connected graph strongly connected"
        );
        let g1 = Arc::new(mutated);

        let invalidation = RowInvalidation::for_application(&m0, &application);
        let m1 = CachedSubsetOracle::rebased(&m0, &g1, &invalidation);
        let (kit1, rstats) = kit.repair(&g1, &m1, &invalidation, &application);

        // The repair economy: what a from-scratch rebuild of the same
        // substrate pays on a fresh oracle over the mutated graph.
        let m_fresh = CachedSubsetOracle::new(&g1);
        let reference = kit.rebuild_reference(&g1, &m_fresh);
        let full_rebuild_rows = m_fresh.stats().rows_computed as u64;
        // Repair ≡ rebuild: every retained artifact bit-identical.
        let diverged: Vec<&str> = [
            ("landmark", kit1.landmark() == reference.landmark()),
            ("cover", kit1.cover() == reference.cover()),
            ("order6", kit1.order6() == reference.order6()),
            ("orderx", kit1.orderx() == reference.orderx()),
        ]
        .into_iter()
        .filter_map(|(name, same)| (!same).then_some(name))
        .collect();
        if !diverged.is_empty() {
            fail(format!(
                "fraction {fraction:.3}: the repaired kit differs from a from-scratch rebuild \
                 in {}",
                diverged.join(", ")
            ));
        }
        println!(
            "repair: {} dirty nodes, {} rows recomputed vs {} full-rebuild rows \
             ({:.1}%), {} clusters re-anchored, {} balls repaired, landmark columns \
             recomputed {} forward / {} reverse of {}, {:.2} ms",
            rstats.dirty_nodes,
            rstats.rows_recomputed,
            full_rebuild_rows,
            100.0 * rstats.rows_recomputed as f64 / full_rebuild_rows as f64,
            rstats.clusters_reanchored,
            rstats.balls_repaired,
            rstats.landmark_fwd_columns,
            rstats.landmark_rev_columns,
            kit1.landmark().landmarks().len(),
            rstats.epoch_ns as f64 / 1e6
        );
        if rstats.rows_recomputed as f64 > REPAIR_ROW_BUDGET * full_rebuild_rows as f64 {
            fail(format!(
                "fraction {fraction:.3}: repair recomputed {} rows, over {:.0}% of the \
                 {full_rebuild_rows}-row full rebuild",
                rstats.rows_recomputed,
                100.0 * REPAIR_ROW_BUDGET
            ));
        }

        let (_, sxr) = kit1.schemes(&g1, &m1, &names);
        let degraded_plane = pre_plane.clone().with_graph(Arc::clone(&g1));
        let post_plane = FrozenPlane::freeze(Arc::clone(&g1), sxr, Arc::clone(&frozen_names));

        let epoch_seed = |salt: u64| seed.wrapping_mul(salt).wrapping_add(fi as u64);
        let serve = |plane: &FrozenPlane<_>,
                     oracle: &CachedSubsetOracle<'_>,
                     salt|
         -> VerifiedShardedServe {
            let requests = Workload::Mix.generate(n, queries, epoch_seed(salt));
            engine.serve_epoch_sharded(
                &ShardedPlane::new(plane.clone(), shard_map),
                &requests,
                oracle,
                &config,
            )
        };
        let pre = serve(&pre_plane, &m0, 31);
        let degraded = serve(&degraded_plane, &m1, 37);
        let post = serve(&post_plane, &m1, 41);
        let [pre_epoch, degraded_epoch, post_epoch] = chaos_report(&pre, &degraded, &post);

        if !pre_epoch.is_clean() {
            fail(format!(
                "fraction {fraction:.3}: pre-fault epoch violated the proven ceiling \
                 ({} violations, {} failures)",
                pre_epoch.report.violations.len(),
                pre_epoch.failed()
            ));
        }
        let delivered = degraded_epoch.report.queries as u64;
        let failed = degraded_epoch.failed() as u64;
        assert_eq!(delivered + failed, queries as u64, "every request delivers or fails");
        println!(
            "epochs: pre worst {:.3} | degraded {:.1}% delivered, {} violations, worst {:.3} | \
             post worst {:.3}, {} offender pairs restored",
            pre_epoch.report.max_stretch(),
            100.0 * delivered as f64 / queries as f64,
            degraded_epoch.report.violations.len(),
            degraded_epoch.report.max_stretch(),
            post_epoch.report.max_stretch(),
            post_epoch.restored.len()
        );
        if !post_epoch.is_clean() {
            fail(format!(
                "fraction {fraction:.3}: post-repair epoch is not clean ({} violations, \
                 {} delivery failures) — repair did not restore the proven ceiling",
                post_epoch.report.violations.len(),
                post_epoch.failed()
            ));
        }

        records.push(JsonValue::object([
            ("fraction", fraction.into()),
            ("faults_requested", selection.requested.into()),
            ("faults_applied", application.faults.len().into()),
            ("removals", selection.removals.into()),
            ("inflations", selection.inflations.into()),
            ("dirty_nodes", rstats.dirty_nodes.into()),
            ("repair_rows", rstats.rows_recomputed.into()),
            ("full_rebuild_rows", full_rebuild_rows.into()),
            ("clusters_reanchored", rstats.clusters_reanchored.into()),
            ("balls_repaired", rstats.balls_repaired.into()),
            ("repair_epoch_ns", rstats.epoch_ns.into()),
            ("pre_worst_stretch", pre_epoch.report.max_stretch().into()),
            ("degraded_delivered", delivered.into()),
            ("degraded_failed", failed.into()),
            ("degraded_violations", degraded_epoch.report.violations.len().into()),
            ("degraded_worst_stretch", degraded_epoch.report.max_stretch().into()),
            ("degraded_success_rate", (delivered as f64 / queries as f64).into()),
            ("restored_pairs", post_epoch.restored.len().into()),
            ("post_worst_stretch", post_epoch.report.max_stretch().into()),
            ("post_violations", post_epoch.report.violations.len().into()),
            ("post_failed", post_epoch.failed().into()),
        ]));
    }

    let artifact = JsonValue::object([
        ("kind", "chaos".into()),
        ("n", n.into()),
        ("queries_per_epoch", queries.into()),
        ("seed", seed.into()),
        ("workers", workers.into()),
        ("shards", shards.into()),
        ("chords", chords.into()),
        ("edge_count", edge_count.into()),
        ("dirty_row_budget", dirty_row_budget.into()),
        ("bound", bound.into()),
        ("fractions", records.into()),
    ]);
    let json_path =
        std::env::var("RTR_CHAOS_JSON").unwrap_or_else(|_| "BENCH_chaos.json".to_string());
    std::fs::write(&json_path, format!("{artifact}\n"))
        .unwrap_or_else(|e| panic!("writing {json_path}: {e}"));
    println!("\nchaos baseline artifact written to {json_path}");

    // Cross-check the repair telemetry against the artifact before
    // exporting, exactly as `check_telemetry` will in CI: the counters are
    // incremented by `SparseRepairKit::repair` itself, so disagreement means
    // the observability plane is lying about the repair economy.
    let export = rtr_telemetry::registry().to_json();
    require_telemetry_match(&export, &artifact);
    let telemetry_path = std::env::var("RTR_CHAOS_TELEMETRY_JSON")
        .unwrap_or_else(|_| "BENCH_chaos_telemetry.json".to_string());
    std::fs::write(&telemetry_path, export)
        .unwrap_or_else(|e| panic!("writing {telemetry_path}: {e}"));
    println!("telemetry artifact written to {telemetry_path}");
    println!("total wall-clock: {:.1?}", t0.elapsed());
}
