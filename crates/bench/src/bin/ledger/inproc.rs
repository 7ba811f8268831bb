//! zipf-warm and uniform-cold: fully verified in-process serving of the
//! n = 2000 sparse suite, all three schemes round-robin.
//!
//! The two workloads run the same serving code and differ in what the
//! verify oracle holds: zipf-warm fills one shared oracle before timing, so
//! every timed row read is a cache hit; uniform-cold serves short sessions,
//! each on a fresh oracle, so each pays two cold Dijkstras per destination
//! it touches.
//!
//! The measured phase is a run of rounds.  A round serves, per scheme, one
//! verified pass and a burst of single-query requests; it is one window of
//! the windowed timings (`qps`, `p50_us`, `p90_us`).

use crate::catalogue::{per_scheme, Workload};
use crate::probes::{self, ms, EngineProbe, EngineSamples};
use crate::stats::{percentile, sorted};
use crate::trace::Tracer;
use crate::{Outcome, RunConfig, SETUPS, SHARDS, SYSTEM_SEED, WORKERS};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rtr_core::naming::NamingAssignment;
use rtr_core::{SparseSchemeSuite, SparseSuiteParams};
use rtr_dictionary::NodeName;
use rtr_engine::{
    Engine, EngineConfig, FrozenPlane, Request, ShardMap, ShardedPlane, StretchBound,
    VerifiedReport, VerifiedShardedServe, VerifyConfig, VerifyServeError, Workload as Stream,
};
use rtr_graph::generators::ring_with_chords;
use rtr_graph::{DiGraph, NodeId};
use rtr_metric::LazyDijkstraOracle;
use rtr_sim::RoundtripRouting;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The system the suite workloads and net-route measure: a ring with
/// chords and the sparse suite built over it under the adversary's names.
pub struct System {
    pub g: Arc<DiGraph>,
    pub suite: SparseSchemeSuite,
    pub names: Arc<Vec<NodeName>>,
    pub map: ShardMap,
    /// Rows the build oracle computed.
    pub build_rows: usize,
    /// How long generating the graph took.
    pub gen: Duration,
}

/// Graph → lazy build oracle → sparse suite.
pub fn build_system(n: usize, tracer: &Tracer) -> System {
    let t = Instant::now();
    let g = {
        let _l = tracer.layer("graph.ring_with_chords");
        Arc::new(ring_with_chords(n, 3 * n, SYSTEM_SEED).expect("ring_with_chords accepts n >= 2"))
    };
    let gen = t.elapsed();
    let oracle = LazyDijkstraOracle::new(&g, (n / 50).max(16));
    let names = NamingAssignment::random(n, SYSTEM_SEED ^ 0x517e);
    let suite = {
        let _l = tracer.layer("core.sparse_suite_build");
        SparseSchemeSuite::build(&g, &oracle, &names, SparseSuiteParams::default())
    };
    let build_rows = oracle.stats().rows_computed;
    drop(oracle);
    System {
        g,
        suite,
        names: Arc::new(names.to_names()),
        map: ShardMap::hashed(n, SHARDS, SYSTEM_SEED),
        build_rows,
        gen,
    }
}

struct Sizes {
    n: usize,
    /// Queries per verified pass.
    pass: usize,
    /// uniform-cold: the destinations a session spreads its requests over.
    /// Each costs two cold rows, which with `pass` queries makes the cold
    /// rows about half of a pass.
    dests: usize,
    /// zipf-warm: single-query requests per scheme and round (uniform-cold
    /// sends one per session destination).
    single: usize,
}

fn sizes(kind: Workload, cfg: &RunConfig) -> Sizes {
    match (cfg.smoke, kind) {
        (true, _) => Sizes { n: 64, pass: 400, dests: 16, single: 40 },
        (false, Workload::ZipfWarm) => Sizes { n: 2000, pass: 10_000, dests: 0, single: 50 },
        (false, _) => Sizes { n: 2000, pass: 6_000, dests: 100, single: 0 },
    }
}

/// One scheme's frozen, sharded plane and its proven stretch ceiling.
struct Lane<S> {
    plane: ShardedPlane<S>,
    config: VerifyConfig,
}

/// The calls the round loop makes on a lane, type-erased so the three
/// scheme types share one loop.  Dispatch is per pass, never per query.
trait Serve {
    fn scheme(&self) -> &'static str;
    fn verified(
        &self,
        engine: &Engine,
        oracle: &LazyDijkstraOracle<'_>,
        requests: &[Request],
    ) -> Result<VerifiedShardedServe, VerifyServeError>;
    /// Serves each request as its own one-request batch of a verified
    /// session, pushing each call's latency in microseconds.
    fn singles(
        &self,
        engine: &Engine,
        oracle: &LazyDijkstraOracle<'_>,
        requests: &[Request],
        latency_us: &mut Vec<f64>,
    ) -> Result<VerifiedReport, VerifyServeError>;
    fn probe(
        &self,
        requests: &[Request],
        verified: Duration,
        tracer: &Tracer,
    ) -> Result<EngineProbe, String>;
    fn table_bytes(&self) -> u64;
}

impl<S: RoundtripRouting + Send + Sync> Serve for Lane<S> {
    fn scheme(&self) -> &'static str {
        self.plane.plane().scheme_name()
    }

    fn verified(
        &self,
        engine: &Engine,
        oracle: &LazyDijkstraOracle<'_>,
        requests: &[Request],
    ) -> Result<VerifiedShardedServe, VerifyServeError> {
        engine.serve_verified_sharded(&self.plane, requests, oracle, &self.config)
    }

    fn singles(
        &self,
        engine: &Engine,
        oracle: &LazyDijkstraOracle<'_>,
        requests: &[Request],
        latency_us: &mut Vec<f64>,
    ) -> Result<VerifiedReport, VerifyServeError> {
        probes::serve_singles(engine, &self.plane, oracle, &self.config, requests, latency_us)
    }

    fn probe(
        &self,
        requests: &[Request],
        verified: Duration,
        tracer: &Tracer,
    ) -> Result<EngineProbe, String> {
        EngineProbe::measure(&self.plane, requests, verified, tracer)
    }

    fn table_bytes(&self) -> u64 {
        probes::table_bytes(self.plane.plane())
    }
}

struct Setup {
    g: Arc<DiGraph>,
    lanes: Vec<Box<dyn Serve>>,
    build_rows: usize,
    gen: Duration,
}

/// The system and its three frozen sharded planes.
fn setup(n: usize, tracer: &Tracer) -> Setup {
    let _p = tracer.phase("setup");
    let System { g, suite, names, map, build_rows, gen } = build_system(n, tracer);
    let ex_bound =
        suite.exstretch.paper_stretch_bound().expect("the tree-cover substrate has a proven bound");
    let poly_bound = suite.poly.paper_stretch_bound();
    let (s6, sx, sp) = suite.into_parts();
    fn lane<S: RoundtripRouting + Send + Sync + 'static>(
        g: &Arc<DiGraph>,
        scheme: S,
        names: &Arc<Vec<NodeName>>,
        map: ShardMap,
        bound: Option<u64>,
    ) -> Box<dyn Serve> {
        let plane = FrozenPlane::freeze(Arc::clone(g), scheme, Arc::clone(names));
        let config = match bound {
            Some(b) => VerifyConfig::full().with_bound(StretchBound::at_most(b)),
            // The landmark substrate's stretch is measured, not proven.
            None => VerifyConfig::full(),
        };
        Box::new(Lane { plane: ShardedPlane::new(plane, map), config })
    }
    let lanes = vec![
        lane(&g, s6, &names, map, None),
        lane(&g, sx, &names, map, Some(ex_bound)),
        lane(&g, sp, &names, map, Some(poly_bound)),
    ];
    Setup { g, lanes, build_rows, gen }
}

/// uniform-cold's session: `len` requests from uniform sources, each to a
/// destination drawn uniformly from `dests` nodes that are themselves drawn
/// uniformly, without repeats, from all `n`.
fn session(n: usize, len: usize, dests: usize, seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nodes: Vec<u32> = (0..n as u32).collect();
    nodes.shuffle(&mut rng);
    nodes.truncate(dests);
    (0..len)
        .map(|_| {
            let dst = nodes[rng.gen_range(0..dests)];
            let mut src = rng.gen_range(0..n as u32 - 1);
            if src >= dst {
                src += 1;
            }
            Request { src: NodeId(src), dst: NodeId(dst) }
        })
        .collect()
}

/// The first request to each destination, in stream order.
fn first_touches(requests: &[Request], n: usize) -> Vec<Request> {
    let mut seen = vec![false; n];
    requests
        .iter()
        .filter(|r| !std::mem::replace(&mut seen[r.dst.index()], true))
        .copied()
        .collect()
}

pub fn run(kind: Workload, cfg: &RunConfig, tracer: &Tracer) -> Result<Outcome, String> {
    let warm = match kind {
        Workload::ZipfWarm => true,
        Workload::UniformCold => false,
        other => unreachable!("{other} is not an in-process workload"),
    };
    let sz = sizes(kind, cfg);
    let n = sz.n;
    let mut out = Outcome::default();

    let mut clock = probes::SetupClock::start();
    out.host.tick(tracer);
    let Setup { g, lanes, build_rows, .. } = clock.time(|| setup(n, tracer), |s| s.gen);
    out.exact("metric.build_rows", build_rows as f64);

    let (streams, singles): (Vec<Vec<Request>>, Vec<Vec<Request>>) = {
        let _p = tracer.phase("streams");
        (0..lanes.len() as u64)
            .map(|i| {
                let seed = cfg.seed ^ (0x6001 + i);
                if warm {
                    let s = Stream::Zipf { exponent: 1.2 }.generate(n, sz.pass, seed);
                    let singles = s[..sz.single.min(s.len())].to_vec();
                    (s, singles)
                } else {
                    let s = session(n, sz.pass, sz.dests.min(n), seed);
                    let singles = first_touches(&s, n);
                    (s, singles)
                }
            })
            .unzip()
    };
    let distinct: Vec<usize> = streams.iter().map(|s| first_touches(s, n).len()).collect();
    let engine = Engine::new(EngineConfig::with_workers(WORKERS));
    // Cache 2n rows: every destination's forward and reverse row fits, so
    // no row is computed twice within one oracle's life.
    let shared = LazyDijkstraOracle::new(&g, 2 * n);
    let mut reference: Vec<Option<VerifiedReport>> = vec![None; lanes.len()];
    let mut single_reference: Vec<Option<VerifiedReport>> = vec![None; lanes.len()];

    if warm {
        let _p = tracer.phase("warmup");
        let t = Instant::now();
        for (lane, (requests, slot)) in lanes.iter().zip(streams.iter().zip(&mut reference)) {
            let _l = tracer.layer("engine.serve_verified_sharded");
            let pass = lane
                .verified(&engine, &shared, requests)
                .map_err(|e| format!("{} warm-up pass: {e}", lane.scheme()))?;
            *slot = Some(pass.report);
        }
        out.exact("verify.warmup_s", t.elapsed().as_secs_f64());
    }

    let min_rounds = if tracer.enabled() { 2 } else { 1 };
    let deadline = Instant::now() + cfg.duration();
    let mut pass_qps = vec![Vec::new(); lanes.len()];
    let mut round_p90 = Vec::new();
    let (mut flush_ms, mut flushes, mut fetches) = (Vec::new(), Vec::new(), Vec::new());
    let mut verify_rows = Vec::new();
    let (mut hits, mut misses) = (0usize, 0usize);
    let mut ns_per_hop = vec![Vec::new(); lanes.len()];
    let mut hops_per_query = vec![0.0; lanes.len()];
    let mut engine_samples = EngineSamples::default();
    let mut round_walls = [Vec::new(), Vec::new()];
    let mut round = 0usize;
    while round < min_rounds || Instant::now() < deadline {
        let layers = round.is_multiple_of(2);
        tracer.set_layers(layers);
        let _p = tracer.phase(if layers { "round" } else { "round.untraced" });
        let speed = out.host.tick(tracer);
        let round_start = Instant::now();
        let (mut served, mut serve_wall) = (0usize, Duration::ZERO);
        let mut latency_us = Vec::new();
        let mut round_probe = EngineProbe::default();
        for k in 0..lanes.len() {
            // Rotate the starting scheme so a slow host phase hits all alike.
            let i = (round + k) % lanes.len();
            let (lane, requests) = (&lanes[i], &streams[i]);
            let fresh;
            let oracle = if warm {
                &shared
            } else {
                fresh = LazyDijkstraOracle::new(&g, 2 * n);
                &fresh
            };
            let before = oracle.stats();
            out.attempted += requests.len() as u64;
            let t = Instant::now();
            let result = {
                let _l = tracer.layer("engine.serve_verified_sharded");
                lane.verified(&engine, oracle, requests)
            };
            let wall = t.elapsed();
            let pass = match result {
                Ok(pass) => pass,
                Err(e) => {
                    out.failed += e.report().map_or(requests.len(), |r| r.violations.len()) as u64;
                    out.problem(format!("{} pass: {e}", lane.scheme()));
                    continue;
                }
            };
            let after = oracle.stats();
            let rows = after.rows_computed - before.rows_computed;
            out.check(pass.report.checked == requests.len(), || {
                format!(
                    "{}: {} of {} queries verified",
                    lane.scheme(),
                    pass.report.checked,
                    requests.len()
                )
            });
            match &reference[i] {
                Some(r) => out.check(*r == pass.report, || {
                    format!("{}: verified report changed between passes", lane.scheme())
                }),
                None => reference[i] = Some(pass.report.clone()),
            }
            if !warm {
                let budget = 2 * distinct[i] + 2 * SHARDS;
                out.check(rows <= budget, || {
                    format!(
                        "{}: {rows} verify rows, budget 2·distinct + 2·shards = {budget}",
                        lane.scheme()
                    )
                });
            }
            served += requests.len();
            serve_wall += wall;
            pass_qps[i].push(requests.len() as f64 / wall.as_secs_f64());
            verify_rows.push(rows as f64);
            hits += after.cache_hits - before.cache_hits;
            misses += rows;
            flush_ms.push(ms(pass.cost.flush_wall));
            flushes.push(pass.cost.flushes as f64);
            fetches.push(pass.cost.row_fetches as f64);

            // zipf-warm's singles read the warm shared oracle; uniform-cold's
            // open their session's destinations on a fresh one, so each
            // pays its destination's cold rows.
            let single_fresh;
            let single_oracle = if warm {
                &shared
            } else {
                single_fresh = LazyDijkstraOracle::new(&g, 2 * n);
                &single_fresh
            };
            out.attempted += singles[i].len() as u64;
            let single = {
                let _l = tracer.layer("engine.verified_stream_singles");
                lane.singles(&engine, single_oracle, &singles[i], &mut latency_us)
            };
            match single {
                Ok(report) => match &single_reference[i] {
                    Some(r) => out.check(*r == report, || {
                        format!("{}: single-query report changed between rounds", lane.scheme())
                    }),
                    None => single_reference[i] = Some(report),
                },
                Err(e) => {
                    out.failed += singles[i].len() as u64;
                    out.problem(format!("{} single queries: {e}", lane.scheme()));
                }
            }

            if tracer.enabled() {
                match lane.probe(requests, wall, tracer) {
                    Ok(probe) => {
                        ns_per_hop[i].push(probe.ns_per_hop());
                        hops_per_query[i] = probe.hops_per_query();
                        round_probe.add(&probe);
                    }
                    Err(e) => out.problem(format!("{}: {e}", lane.scheme())),
                }
            }
        }
        if serve_wall > Duration::ZERO {
            out.window("qps", served as f64 / serve_wall.as_secs_f64(), speed);
        }
        if !latency_us.is_empty() {
            let latency = sorted(&latency_us);
            out.window("p50_us", percentile(&latency, 0.5), speed);
            round_p90.push(percentile(&latency, 0.9));
        }
        if tracer.enabled() {
            engine_samples.push(&round_probe);
        }
        round_walls[usize::from(layers)].push(round_start.elapsed().as_secs_f64());
        round += 1;
    }
    tracer.set_layers(true);

    let report_phase = tracer.phase("report");
    out.median("p90_us", round_p90);
    out.note(format!(
        "{round} rounds; each round's p50/p90 over {} single-query requests",
        singles.iter().map(Vec::len).sum::<usize>()
    ));
    let (mut measured, mut exact) = (0u128, 0u128);
    for (lane, report) in lanes.iter().zip(&reference) {
        let report = report.as_ref().ok_or("no verified pass completed")?;
        measured += report.total_measured;
        exact += report.total_exact;
        out.exact(per_scheme("stretch_mean", lane.scheme()), report.aggregate_stretch());
    }
    out.exact("stretch_mean", measured as f64 / exact.max(1) as f64);
    out.exact("table_bytes", lanes.iter().map(|l| l.table_bytes()).sum::<u64>() as f64);
    for (lane, samples) in lanes.iter().zip(pass_qps) {
        out.median(per_scheme("qps", lane.scheme()), samples);
    }
    out.median("metric.verify_rows", verify_rows);
    out.exact("metric.verify_hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
    out.median("verify.flush_ms", flush_ms);
    out.median("verify.flushes", flushes);
    out.median("verify.row_fetches", fetches);
    if tracer.enabled() {
        for ((lane, samples), hops) in lanes.iter().zip(ns_per_hop).zip(hops_per_query) {
            out.median(per_scheme("sim.ns_per_hop", lane.scheme()), samples);
            out.exact(per_scheme("sim.hops_per_query", lane.scheme()), hops);
        }
        engine_samples.report(&mut out);
        out.trace_overhead(&round_walls);
        probes::row_probe(&g, 32, &mut out);
    }
    out.exact("peak_rss_mib", probes::peak_rss_mib()?);
    drop(report_phase);
    drop(shared);
    drop((lanes, g));
    for _ in 1..SETUPS {
        out.host.tick(tracer);
        clock.time(|| setup(n, tracer), |s| s.gen);
    }
    clock.finish(true, &mut out);
    Ok(out)
}
