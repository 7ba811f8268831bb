//! chaos-repair: seeded edge-fault plans on the weighted n = 600 ring, each
//! repaired incrementally and served before and after repair.
//!
//! Set-up builds a [`SparseRepairKit`] on a [`CachedSubsetOracle`] and mints
//! the §3 plane.  Eight plans at 5% of the edges are then chosen by the
//! impact-budgeted selection of the `chaos_sweep` bench (dirty-row budget
//! 0.22·2n): plain random removal would dirty nearly every row.  The timed
//! loop cycles through the plans.  One fault cycle is a repair (apply →
//! invalidate → rebase → repair → mint → freeze), the first single-query
//! requests on the repaired plane, a degraded epoch (old plane on the
//! faulted graph) and a post-repair epoch; everything served on the
//! repaired plane must be clean under the §3 proven ceiling.  Each cycle is
//! one window of the windowed timings: `qps` is the verified queries it
//! delivered over its wall, repair included, and `p50_us`/`p90_us` are the
//! latencies of its single-query requests.

use crate::probes::{self, ms, EngineProbe, EngineSamples};
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;
use crate::{Outcome, RunConfig, SETUPS_SMALL, SHARDS, SYSTEM_SEED, WORKERS};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rtr_core::naming::NamingAssignment;
use rtr_core::{ExStretch, SparseRepairKit, SparseSuiteParams};
use rtr_engine::{
    Engine, EngineConfig, FrozenPlane, Request, ShardMap, ShardedPlane, StretchBound,
    VerifiedReport, VerifyConfig, Workload as Stream,
};
use rtr_graph::generators::{ring_with_chords_weighted, WeightRange};
use rtr_graph::{DiGraph, EdgeFault, FaultPlan, GraphDelta, NodeId};
use rtr_metric::{CachedSubsetOracle, RowInvalidation};
use rtr_namedep::TreeCoverScheme;
use std::sync::Arc;
use std::time::Instant;

const PLANS: usize = 8;
const FAULT_FRACTION: f64 = 0.05;
/// Share of the 2n metric rows a plan may dirty.
const DIRTY_BUDGET: f64 = 0.22;
const CHORD_WMAX: u64 = 256;
/// Every third accepted fault inflates its edge's weight by this factor
/// instead of removing it.
const INFLATION: u32 = 4;

type PlaneX = FrozenPlane<ExStretch<TreeCoverScheme>>;

struct Built<'g> {
    m0: CachedSubsetOracle<'g>,
    kit: SparseRepairKit,
    names: NamingAssignment,
    frozen_names: Arc<Vec<rtr_dictionary::NodeName>>,
    pre: PlaneX,
    bound: u64,
}

fn generate(n: usize, tracer: &Tracer) -> Arc<DiGraph> {
    let _l = tracer.layer("graph.ring_with_chords_weighted");
    let chords = WeightRange::new(1, CHORD_WMAX);
    Arc::new(
        ring_with_chords_weighted(n, 3 * n, SYSTEM_SEED, WeightRange::default(), chords)
            .expect("ring_with_chords_weighted accepts n >= 2"),
    )
}

fn build<'g>(g: &'g Arc<DiGraph>, tracer: &Tracer) -> Built<'g> {
    let n = g.node_count();
    let m0 = CachedSubsetOracle::new(g);
    let kit = {
        let _l = tracer.layer("core.repair_kit_build");
        SparseRepairKit::build(g, &m0, SparseSuiteParams::default())
    };
    let names = NamingAssignment::random(n, SYSTEM_SEED ^ 0x7e57);
    let (_, sx) = {
        let _l = tracer.layer("core.mint");
        kit.schemes(g, &m0, &names)
    };
    let bound = sx.paper_stretch_bound().expect("the tree-cover substrate has a proven bound");
    let frozen_names = Arc::new(names.to_names());
    let pre = FrozenPlane::freeze(Arc::clone(g), sx, Arc::clone(&frozen_names));
    Built { m0, kit, names, frozen_names, pre, bound }
}

/// Bit-packed dirty-row set of one candidate fault (forward rows at bits
/// `0..n`, reverse rows at `n..2n`).  Tightness is a property of the
/// pre-fault edge, so removal and inflation dirty the same rows.
fn solo_impact(m0: &CachedSubsetOracle<'_>, from: NodeId, to: NodeId, weight: u64) -> Vec<u64> {
    let n = m0.graph().node_count();
    let inc = RowInvalidation::analyze(m0, &[EdgeFault { from, to, weight, new_weight: None }]);
    let mut bits = vec![0u64; (2 * n).div_ceil(64)];
    for i in 0..n {
        let u = NodeId::from_index(i);
        for (dirty, j) in [(inc.is_fwd_dirty(u), i), (inc.is_rev_dirty(u), n + i)] {
            if dirty {
                bits[j / 64] |= 1 << (j % 64);
            }
        }
    }
    bits
}

/// Walks the chord candidates in seeded order, accepting each fault whose
/// dirty rows beyond those already dirtied still fit `row_budget`.  Single
/// fault invalidations union exactly, so the projection is the plan's true
/// dirty-row count.  The ring is never faulted, so every plan keeps the
/// graph strongly connected.
fn select_plan(
    candidates: &[(NodeId, NodeId)],
    impacts: &[Vec<u64>],
    target: usize,
    row_budget: usize,
    seed: u64,
) -> FaultPlan {
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut union = vec![0u64; impacts.first().map_or(0, Vec::len)];
    let mut dirty = 0usize;
    let mut deltas = Vec::with_capacity(target);
    for ci in order {
        if deltas.len() == target {
            break;
        }
        let cost: usize =
            impacts[ci].iter().zip(&union).map(|(w, u)| (w & !u).count_ones() as usize).sum();
        if dirty + cost > row_budget {
            continue;
        }
        dirty += cost;
        for (u, w) in union.iter_mut().zip(&impacts[ci]) {
            *u |= w;
        }
        let (from, to) = candidates[ci];
        deltas.push(if deltas.len() % 3 == 2 {
            GraphDelta::InflateWeight { from, to, factor: INFLATION }
        } else {
            GraphDelta::RemoveEdge { from, to }
        });
    }
    FaultPlan::new(deltas, seed)
}

fn plans(g: &DiGraph, m0: &CachedSubsetOracle<'_>, seed: u64) -> Vec<FaultPlan> {
    let n = g.node_count();
    let candidates: Vec<(NodeId, NodeId)> = g
        .nodes()
        .flat_map(|u| g.out_edges(u).iter().map(move |e| (u, e.to)))
        .filter(|&(u, v)| (u.index() + 1) % n != v.index())
        .collect();
    let impacts: Vec<Vec<u64>> = candidates
        .iter()
        .map(|&(from, to)| {
            let w = g.edge_weight(from, to).expect("candidates are live edges");
            solo_impact(m0, from, to, w)
        })
        .collect();
    let target = (FAULT_FRACTION * g.edge_count() as f64).round() as usize;
    let budget = (DIRTY_BUDGET * 2.0 * n as f64).floor() as usize;
    (0..PLANS as u64)
        .map(|p| select_plan(&candidates, &impacts, target, budget, seed ^ (0xC0A5 + p * 0x9E37)))
        .collect()
}

/// What the first repair of each plan produced; later repairs of the same
/// plan must reproduce it exactly.
struct First {
    rows: u64,
    clusters: usize,
    report: VerifiedReport,
    singles: VerifiedReport,
}

pub fn run(cfg: &RunConfig, tracer: &Tracer) -> Result<Outcome, String> {
    let n = if cfg.smoke { 64 } else { 600 };
    let queries = if cfg.smoke { 200 } else { 4_000 };
    // Enough for a supported p90 per cycle: 10 samples beyond it.
    let singles = if cfg.smoke { 32 } else { 128 };
    let mut out = Outcome::default();
    let mut clock = probes::SetupClock::start();
    out.host.tick(tracer);
    let setup_phase = tracer.phase("setup");
    let t = Instant::now();
    let g0 = generate(n, tracer);
    let gen = t.elapsed();
    let b = build(&g0, tracer);
    clock.record(t.elapsed(), gen);
    drop(setup_phase);
    out.exact("metric.build_rows", b.m0.stats().rows_computed as f64);

    let plans_phase = tracer.phase("plans");
    let plans = plans(&g0, &b.m0, cfg.seed);
    let stream = |salt: u64, p: usize| {
        Stream::Mix.generate(n, queries, cfg.seed.wrapping_mul(salt).wrapping_add(p as u64))
    };
    let degraded_reqs: Vec<Vec<Request>> = (0..PLANS).map(|p| stream(37, p)).collect();
    let post_reqs: Vec<Vec<Request>> = (0..PLANS).map(|p| stream(41, p)).collect();
    let single_reqs: Vec<Vec<Request>> =
        (0..PLANS).map(|p| stream(43, p)[..singles].to_vec()).collect();
    drop(plans_phase);
    let engine = Engine::new(EngineConfig::with_workers(WORKERS));
    let map = ShardMap::hashed(n, SHARDS, SYSTEM_SEED);
    let config = VerifyConfig::full().with_bound(StretchBound::at_most(b.bound));

    let mut first: Vec<Option<First>> = (0..PLANS).map(|_| None).collect();
    let mut cycle_p90 = Vec::new();
    let mut repair_ms = Vec::new();
    let (mut apply_ms, mut invalidate_ms, mut rebase_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut kit_ms, mut mint_ms, mut freeze_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut verify_rows, mut flush_ms, mut flushes, mut fetches) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut hits, mut misses) = (0usize, 0usize);
    let (mut ns_per_hop, mut hops_per_query) = (Vec::new(), 0.0);
    let mut engine_samples = EngineSamples::default();
    let (mut table_bytes, mut full_rebuild_rows) = (Vec::new(), None);
    let mut cycle_walls = [Vec::new(), Vec::new()];
    // Traced runs alternate layer spans per pass over all plans, so both
    // halves of the overhead ratio see every plan.
    let min_cycles = if tracer.enabled() { 2 * PLANS } else { PLANS };
    let deadline = Instant::now() + cfg.duration();
    let mut cycle = 0usize;
    while cycle < min_cycles || Instant::now() < deadline {
        let p = cycle % PLANS;
        let layers = (cycle / PLANS).is_multiple_of(2);
        tracer.set_layers(layers);
        let _c = tracer.phase(if layers { "cycle" } else { "cycle.untraced" });
        let speed = out.host.tick(tracer);
        let cycle_start = Instant::now();
        let timed = |samples: &mut Vec<f64>, since: Instant| samples.push(ms(since.elapsed()));

        let t = Instant::now();
        let (g1, application) = {
            let _l = tracer.layer("graph.fault_apply");
            let mut g1 = (*g0).clone();
            let application = plans[p].apply(&mut g1);
            (Arc::new(g1), application)
        };
        timed(&mut apply_ms, t);
        out.check(application.skipped == 0 && !application.all_rows_dirty, || {
            format!("plan {p}: {} faults skipped or a total invalidation", application.skipped)
        });
        let t = Instant::now();
        let invalidation = {
            let _l = tracer.layer("metric.invalidate");
            RowInvalidation::for_application(&b.m0, &application)
        };
        timed(&mut invalidate_ms, t);
        let t = Instant::now();
        let m1 = {
            let _l = tracer.layer("metric.rebase");
            CachedSubsetOracle::rebased(&b.m0, &g1, &invalidation)
        };
        timed(&mut rebase_ms, t);
        let t = Instant::now();
        let (kit1, rstats) = {
            let _l = tracer.layer("core.repair");
            b.kit.repair(&g1, &m1, &invalidation, &application)
        };
        timed(&mut kit_ms, t);
        let t = Instant::now();
        let (_, sx) = {
            let _l = tracer.layer("core.mint");
            kit1.schemes(&g1, &m1, &b.names)
        };
        timed(&mut mint_ms, t);
        let t = Instant::now();
        let post_plane = {
            let _l = tracer.layer("engine.freeze");
            let frozen = FrozenPlane::freeze(Arc::clone(&g1), sx, Arc::clone(&b.frozen_names));
            ShardedPlane::new(frozen, map)
        };
        timed(&mut freeze_ms, t);
        timed(&mut repair_ms, cycle_start);

        // The first requests on the repaired plane, one per batch; some
        // read rows the repair left dirty, which costs cold Dijkstras.
        let mut latency_us = Vec::with_capacity(singles);
        let single = {
            let _l = tracer.layer("engine.verified_stream_singles");
            probes::serve_singles(
                &engine,
                &post_plane,
                &m1,
                &config,
                &single_reqs[p],
                &mut latency_us,
            )
        };
        let single = match single {
            Ok(report) => Some(report),
            Err(e) => {
                let bad = e.report().map_or(singles - latency_us.len(), |r| r.violations.len());
                out.failed += bad as u64;
                out.problem(format!("plan {p}: single queries on the repaired plane: {e}"));
                None
            }
        };
        out.attempted += singles as u64;
        let latency = sorted(&latency_us);
        out.window("p50_us", percentile(&latency, 0.5), speed);
        cycle_p90.push(percentile(&latency, 0.9));

        let degraded_plane = ShardedPlane::new(b.pre.clone().with_graph(Arc::clone(&g1)), map);
        let degraded = {
            let _l = tracer.layer("engine.serve_epoch_sharded");
            engine.serve_epoch_sharded(&degraded_plane, &degraded_reqs[p], &m1, &config)
        };
        let before = m1.stats();
        let t = Instant::now();
        let post = {
            let _l = tracer.layer("engine.serve_epoch_sharded");
            engine.serve_epoch_sharded(&post_plane, &post_reqs[p], &m1, &config)
        };
        let post_wall = t.elapsed();
        let after = m1.stats();
        // Verified queries delivered across the fault window, on the
        // repaired plane and after repair, over the cycle's wall.
        let delivered = latency_us.len() + degraded.report.queries + post.report.queries;
        out.window("qps", delivered as f64 / cycle_start.elapsed().as_secs_f64(), speed);
        out.attempted += 1 + post_reqs[p].len() as u64;
        let bad = post.failed() + post.report.violations.len();
        out.failed += bad as u64;
        out.check(bad == 0, || {
            format!("plan {p}: post-repair epoch not clean ({bad} failed or over the bound)")
        });
        let rows = after.rows_computed - before.rows_computed;
        verify_rows.push(rows as f64);
        hits += after.cache_hits - before.cache_hits;
        misses += rows;
        flush_ms.push(ms(post.cost.flush_wall));
        flushes.push(post.cost.flushes as f64);
        fetches.push(post.cost.row_fetches as f64);

        match &first[p] {
            Some(f) => out.check(
                f.rows == rstats.rows_recomputed
                    && f.clusters == rstats.clusters_reanchored
                    && f.report == post.report
                    && single.is_none_or(|s| s == f.singles),
                || format!("plan {p}: repair or post-repair report changed between cycles"),
            ),
            None => {
                if let Some(singles) = single {
                    table_bytes.push(probes::table_bytes(post_plane.plane()) as f64);
                    first[p] = Some(First {
                        rows: rstats.rows_recomputed,
                        clusters: rstats.clusters_reanchored,
                        report: post.report.clone(),
                        singles,
                    });
                }
            }
        }

        if tracer.enabled() {
            if full_rebuild_rows.is_none() {
                let _l = tracer.layer("core.rebuild_reference");
                let fresh = CachedSubsetOracle::new(&g1);
                b.kit.rebuild_reference(&g1, &fresh);
                full_rebuild_rows = Some(fresh.stats().rows_computed);
            }
            match EngineProbe::measure(&post_plane, &post_reqs[p], post_wall, tracer) {
                Ok(probe) => {
                    ns_per_hop.push(probe.ns_per_hop());
                    hops_per_query = probe.hops_per_query();
                    engine_samples.push(&probe);
                }
                Err(e) => out.problem(format!("plan {p}: {e}")),
            }
        }
        cycle_walls[usize::from(layers)].push(cycle_start.elapsed().as_secs_f64());
        cycle += 1;
    }
    tracer.set_layers(true);

    let report_phase = tracer.phase("report");
    let firsts: Vec<&First> = first.iter().flatten().collect();
    let (measured, exact) = firsts
        .iter()
        .fold((0u128, 0u128), |(m, e), f| (m + f.report.total_measured, e + f.report.total_exact));
    out.exact("stretch_mean", measured as f64 / exact.max(1) as f64);
    out.exact("stretch_mean.exstretch", measured as f64 / exact.max(1) as f64);
    out.median("p90_us", cycle_p90);
    out.exact("table_bytes", median(&table_bytes));
    out.median("repair.total_ms", repair_ms);
    out.median("graph.fault_apply_ms", apply_ms);
    out.median("metric.invalidate_ms", invalidate_ms);
    out.median("metric.rebase_ms", rebase_ms);
    out.median("repair.kit_ms", kit_ms);
    out.median("repair.mint_ms", mint_ms);
    out.median("repair.freeze_ms", freeze_ms);
    let rows: Vec<f64> = firsts.iter().map(|f| f.rows as f64).collect();
    out.median("repair.clusters", firsts.iter().map(|f| f.clusters as f64).collect());
    out.median("metric.verify_rows", verify_rows);
    out.exact("metric.verify_hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
    out.median("verify.flush_ms", flush_ms);
    out.median("verify.flushes", flushes);
    out.median("verify.row_fetches", fetches);
    if let Some(full) = full_rebuild_rows {
        let share = rows.iter().map(|r| r / full as f64).collect();
        out.median("repair.row_share", share);
        out.median("sim.ns_per_hop.exstretch", ns_per_hop);
        out.exact("sim.hops_per_query.exstretch", hops_per_query);
        engine_samples.report(&mut out);
        out.trace_overhead(&cycle_walls);
        probes::row_probe(&g0, 32, &mut out);
    }
    out.median("repair.rows", rows);
    out.note(format!(
        "{cycle} fault cycles over {PLANS} plans of {} faults each; each cycle's p50/p90 over \
         {singles} single-query requests",
        plans.first().map_or(0, FaultPlan::len)
    ));
    out.exact("peak_rss_mib", probes::peak_rss_mib()?);
    drop(report_phase);
    drop(b);
    for _ in 1..SETUPS_SMALL {
        out.host.tick(tracer);
        let _p = tracer.phase("setup");
        let t = Instant::now();
        let g = generate(n, tracer);
        let gen = t.elapsed();
        drop(build(&g, tracer));
        clock.record(t.elapsed(), gen);
    }
    clock.finish(false, &mut out);
    Ok(out)
}
