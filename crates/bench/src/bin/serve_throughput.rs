//! E13 — serving throughput: build the sparse scheme suite at large `n`
//! through the lazy oracle and serve every workload from the engine's
//! **sharded** worker pool, reporting queries/sec, hop latency and exact
//! tail stretch per scheme — all from a single verified serving pass.
//!
//! This is the tentpole experiment of the `rtr-engine` layer: the schemes
//! answer millions of roundtrip queries across threads, with per-shard
//! accounting and zero per-query allocation in the engine itself.  The suite
//! is the **sparse** configuration ([`rtr_core::SparseSchemeSuite`]): the §2
//! scheme rides the Õ(√n) landmark + ball substrate, the §3 scheme the
//! tree-cover substrate with its on-demand handshake, and the §4 scheme
//! shares the §3 hierarchy — nothing in the build path materialises an
//! `n·n`-capacity table, which is what takes the whole stack to `n = 10⁵`.
//!
//! Alongside throughput the run reports, per scheme, the total and per-node
//! routing-table footprint ([`rtr_sim::TableStats`] summed over nodes, with
//! its ratio to the `n²` distance-word baseline the compactness bounds are
//! measured against) and the lazy oracle's peak resident rows — the two
//! numbers that certify the o(n²) memory claim.
//!
//! **Single-pass serving.**  Every stream is served exactly once, through the
//! verification plane.  With `RTR_VERIFY=off` (the default) the engine still
//! runs a strided sample — `queries / RTR_SAMPLES` — purely to produce the
//! exact stretch columns (the role the retired `StretchSample` machinery
//! used to play), but the artifact records the run as unverified.  With
//! `sampled`/`full` the same pass also enforces the proven stretch ceilings
//! (`exstretch`, `polystretch` hard-fail on any violating query) and records
//! the verify columns.  The serve-only wall is *derived* from the verified
//! run via the recorded flush wall (`elapsed − flush_wall/workers`), so
//! `RTR_VERIFY_MAX_SLOWDOWN` (e.g. `2.0`) still fails the run when in-flight
//! verification costs more than that multiple of bare serving — without a
//! second, unverified pass to compare against.
//!
//! **Sharded plane.**  `RTR_SHARDS` (default 4, min 1) partitions
//! destinations under `RTR_SHARD_POLICY` (`hash` | `range`); cross-shard requests travel bounded handoff channels and
//! verification buckets live per shard, so the verify oracle computes at
//! most `2 · distinct(destinations)` rows no matter how many workers serve —
//! the run hard-fails under full verification if that bound (plus a
//! `2 · shards` flush slack) is exceeded.  `RTR_WORKER_SWEEP` (default
//! `1,2,4,8,16`; `none` disables) re-serves the mix workload fully verified
//! at each worker count on a fresh verify oracle, recording and gating that
//! verify rows stay flat as workers grow.
//!
//! The run's headline numbers are also written as a machine-readable
//! [`ServeBaseline`] artifact (`BENCH_serve.json`), which CI diffs against
//! the checked-in seed baseline `ci/BENCH_serve.json` — see the
//! `check_serve_baseline` binary and the README's baseline-workflow section.
//!
//! **Telemetry.**  The run prints the `rtr-telemetry` span-tree report
//! (build-stage and sweep spans with count/total/mean/max wall) and writes
//! the full registry — counters, gauges, histograms, spans, flight recorder
//! — to `RTR_TELEMETRY_JSON` (default `BENCH_telemetry.json`).  Before
//! exporting it hard-fails unless the exported `oracle.verify.rows_computed`
//! counter and `serve.distinct_destinations` gauge **exactly** equal the
//! `verify_rows_computed` / `distinct_destinations` values the baseline
//! artifact gates (counted at the same sources, so drift means the
//! observability plane lies).  `RTR_TELEMETRY_MAX_OVERHEAD` (e.g. `1.25`)
//! additionally re-serves the mix workload unverified with the sink enabled
//! vs. the runtime no-op sink and fails if the enabled wall exceeds that
//! factor.
//!
//! Environment: `RTR_N` (default 10 000 — CI smoke and local large-n runs
//! share this binary by overriding it), `RTR_QUERIES` per workload (default
//! 200 000), `RTR_WORKERS` (default: available parallelism), `RTR_CACHE`
//! lazy-oracle rows (default `n/50`), `RTR_SAMPLES` stretch samples per run
//! (default 2 000), `RTR_SEED` (default 42), `RTR_BENCH_JSON` artifact path
//! (default `BENCH_serve.json`), `RTR_MAX_BUILD_ROW_FACTOR` — when set, the
//! run **fails** if the suite build computed more than `factor · n` oracle
//! rows (the CI guard for the shared-sweep row budget) — plus `RTR_VERIFY`,
//! `RTR_VERIFY_CACHE` (default `2n`), `RTR_VERIFY_MAX_SLOWDOWN`,
//! `RTR_SHARDS`, `RTR_SHARD_POLICY`, `RTR_WORKER_SWEEP`,
//! `RTR_TELEMETRY_JSON` and `RTR_TELEMETRY_MAX_OVERHEAD` above.

use rtr_bench::banner;
use rtr_bench::baseline::{SchemeBaseline, ServeBaseline, SweepPoint};
use rtr_core::naming::NamingAssignment;
use rtr_core::{SparseSchemeSuite, SparseSuiteParams};
use rtr_engine::{
    Engine, EngineConfig, FrozenPlane, ShardMap, ShardedPlane, StretchBound, VerifiedShardedServe,
    VerifyConfig, VerifyMode, Workload,
};
use rtr_graph::generators::ring_with_chords;
use rtr_graph::NodeId;
use rtr_metric::LazyDijkstraOracle;
use rtr_sim::RoundtripRouting;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// Sums every node's [`rtr_sim::TableStats`] and prints the scheme's resident
/// footprint against the `n²` baseline — the 64-bit distance words a dense
/// all-pairs structure (the distance matrix, or the retired handshake side
/// table) would pin.  Returns `(total bytes, worst-node bits)` for the
/// baseline artifact.
fn report_tables<S: RoundtripRouting>(plane: &FrozenPlane<S>) -> (u64, u64) {
    let n = plane.node_count();
    let mut total_entries: u128 = 0;
    let mut total_bits: u128 = 0;
    let mut max_node_bits = 0usize;
    for v in (0..n).map(NodeId::from_index) {
        let stats = plane.scheme().table_stats(v);
        total_entries += stats.entries as u128;
        total_bits += stats.bits as u128;
        max_node_bits = max_node_bits.max(stats.bits);
    }
    let dense_bits = (n as u128) * (n as u128) * 64;
    println!(
        "  tables: {:.2} Mentries, {:.1} MiB total ({:.2}% of n² dense words), worst node {:.1} KiB",
        total_entries as f64 / 1e6,
        total_bits as f64 / (8.0 * 1024.0 * 1024.0),
        100.0 * total_bits as f64 / dense_bits as f64,
        max_node_bits as f64 / (8.0 * 1024.0),
    );
    ((total_bits / 8) as u64, max_node_bits as u64)
}

/// Serves one request stream through the verified engine, panicking with
/// `label` if serving or verification fails.
fn serve_stream<S>(
    engine: &Engine,
    sharded: &ShardedPlane<S>,
    requests: &[rtr_engine::Request],
    oracle: &LazyDijkstraOracle<'_>,
    config: &VerifyConfig,
    label: &str,
) -> VerifiedShardedServe
where
    S: RoundtripRouting + Send + Sync,
{
    engine
        .serve_verified_sharded(sharded, requests, oracle, config)
        .unwrap_or_else(|e| panic!("{label} failed verification: {e}"))
}

/// Serves every workload once through the verification plane, returning the
/// scheme's baseline row plus `(serving wall, flush wall)` — the engine's
/// clock for the verified pass and the portion spent inside bucket flushes,
/// from which the verify-slowdown gate derives the serve-only wall.
///
/// `record_verify` is false when the user asked for `RTR_VERIFY=off`: the
/// pass still samples (for the stretch columns) but the artifact's verify
/// fields stay zero, preserving `off` baseline semantics.
#[allow(clippy::too_many_arguments)] // a bench driver, not a library API
fn serve_all<S>(
    plane: &FrozenPlane<S>,
    shard_map: ShardMap,
    engine: &Engine,
    verify_oracle: &LazyDijkstraOracle<'_>,
    config: &VerifyConfig,
    record_verify: bool,
    queries: usize,
    seed: u64,
    destination_seen: &mut [bool],
) -> (SchemeBaseline, Duration, Duration)
where
    S: RoundtripRouting + Send + Sync,
{
    println!(
        "\n{:<14} {:>10} {:>9} {:>14} {:>22} {:>7} {:>7} {:>9}",
        plane.scheme_name(),
        "queries/s",
        "avg-hops",
        "hops p50/95/99",
        "stretch p50/p95/p99",
        "max-str",
        "viols",
        "handoffs"
    );
    let sharded = ShardedPlane::new(plane.clone(), shard_map);
    let mut base = SchemeBaseline {
        scheme: plane.scheme_name().to_string(),
        table_bytes: 0,
        worst_node_bits: 0,
        worst_sampled_stretch: 0.0,
        min_queries_per_sec: f64::INFINITY,
        verified_queries: 0,
        verify_violations: 0,
        worst_verified_stretch: 0.0,
    };
    let mut serving_wall = Duration::ZERO;
    let mut flush_wall = Duration::ZERO;
    for workload in Workload::ALL {
        let requests = workload.generate(plane.node_count(), queries, seed);
        for r in &requests {
            destination_seen[r.dst.index()] = true;
        }
        let label = format!("{} under {}", plane.scheme_name(), workload.name());
        let out = serve_stream(engine, &sharded, &requests, verify_oracle, config, &label);
        assert_eq!(out.summary.queries, queries);
        serving_wall += out.summary.elapsed;
        flush_wall += out.cost.flush_wall;
        let (h50, h95, h99) = out.summary.hop_latency();
        let report = &out.report;
        base.worst_sampled_stretch = base.worst_sampled_stretch.max(report.max_stretch());
        base.min_queries_per_sec = base.min_queries_per_sec.min(out.summary.queries_per_sec());
        if record_verify {
            base.verified_queries += report.checked as u64;
            base.verify_violations += report.violations.len() as u64;
            base.worst_verified_stretch = base.worst_verified_stretch.max(report.max_stretch());
        }
        println!(
            "  {:<12} {:>10.0} {:>9.2} {:>14} {:>22} {:>7.3} {:>7} {:>9}",
            workload.name(),
            out.summary.queries_per_sec(),
            out.summary.avg_hops(),
            format!("{h50}/{h95}/{h99}"),
            format!(
                "{:.3}/{:.3}/{:.3}",
                report.histogram.percentile(0.50),
                report.histogram.percentile(0.95),
                report.histogram.percentile(0.99)
            ),
            report.max_stretch(),
            report.violations.len(),
            out.shards.iter().map(|s| s.handoffs).sum::<u64>(),
        );
    }
    let (table_bytes, worst_node_bits) = report_tables(plane);
    base.table_bytes = table_bytes;
    base.worst_node_bits = worst_node_bits;
    (base, serving_wall, flush_wall)
}

fn main() {
    let n = env_usize("RTR_N", 10_000);
    let queries = env_usize("RTR_QUERIES", 200_000);
    let workers = env_usize(
        "RTR_WORKERS",
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
    );
    let cache_rows = env_usize("RTR_CACHE", (n / 50).max(16));
    let samples = env_usize("RTR_SAMPLES", 2_000).max(1);
    let seed = env_usize("RTR_SEED", 42) as u64;
    let verify_mode = match std::env::var("RTR_VERIFY").as_deref() {
        Err(_) | Ok("off") => VerifyMode::Off,
        Ok("full") => VerifyMode::Full,
        Ok("sampled") => VerifyMode::Sampled { stride: (queries / samples).max(1) },
        Ok(other) => panic!("RTR_VERIFY must be off|sampled|full, got {other}"),
    };
    let verify_cache = env_usize("RTR_VERIFY_CACHE", (2 * n).max(64));
    let shards = env_usize("RTR_SHARDS", 4);
    assert!(shards > 0, "RTR_SHARDS must be at least 1, got 0");
    let shard_map = match std::env::var("RTR_SHARD_POLICY").as_deref() {
        Err(_) | Ok("hash") => ShardMap::hashed(n, shards, seed),
        Ok("range") => ShardMap::range(n, shards),
        Ok(other) => panic!("RTR_SHARD_POLICY must be hash|range, got {other}"),
    };
    let shard_policy = shard_map.policy().name().to_string();
    let sweep: Vec<usize> = match std::env::var("RTR_WORKER_SWEEP") {
        Err(_) => vec![1, 2, 4, 8, 16],
        Ok(s) if s.is_empty() || s == "none" => Vec::new(),
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("RTR_WORKER_SWEEP: comma-separated worker counts"))
            .collect(),
    };

    banner(&format!(
        "E13: serving throughput, n = {n}, {queries} queries/workload, {workers} workers, \
         {shards} shards ({shard_policy})",
    ));
    let t0 = Instant::now();
    let g = Arc::new(ring_with_chords(n, 3 * n, seed).expect("generator failed"));
    println!("graph: n = {}, m = {} ({:.1?})", g.node_count(), g.edge_count(), t0.elapsed());

    let oracle = LazyDijkstraOracle::new(&g, cache_rows);
    let names = NamingAssignment::random(n, seed ^ 0x517e);

    let t1 = Instant::now();
    let suite = SparseSchemeSuite::build(&g, &oracle, &names, SparseSuiteParams::default());
    let build_stats = oracle.stats();
    println!(
        "sparse suite built in {:.1?} (rows computed {} = {:.2}·n, peak resident {} of {} = {:.1}% of n²)",
        t1.elapsed(),
        build_stats.rows_computed,
        build_stats.rows_computed as f64 / n as f64,
        build_stats.peak_resident_rows,
        n,
        100.0 * build_stats.peak_resident_rows as f64 / n as f64
    );
    if let Ok(factor) = std::env::var("RTR_MAX_BUILD_ROW_FACTOR") {
        let factor: f64 = factor.parse().expect("RTR_MAX_BUILD_ROW_FACTOR must be a number");
        let limit = (factor * n as f64).ceil() as usize;
        if build_stats.rows_computed > limit {
            eprintln!(
                "FAIL: suite build computed {} oracle rows, budget is {factor}·n = {limit} — \
                 the shared sweep is no longer shared",
                build_stats.rows_computed
            );
            std::process::exit(1);
        }
        println!("build row budget ok: {} <= {factor}·n = {limit}", build_stats.rows_computed);
    }

    // The proven stretch ceilings the verification plane enforces: the §3
    // scheme's (2^k − 1)·β over the tree-cover substrate and the §4 paper
    // bound.  The sparse §2 scheme rides the landmark substrate, whose
    // stretch is measured-not-proven (DESIGN.md substitution), so it
    // verifies without a hard ceiling.
    let ex_bound = suite
        .exstretch
        .paper_stretch_bound()
        .expect("tree-cover substrate carries a proven stretch");
    let poly_bound = suite.poly.paper_stretch_bound();

    let (stretch6, exstretch, poly) = suite.into_parts();
    let frozen_names = Arc::new(names.to_names());
    let plane6 = FrozenPlane::freeze(Arc::clone(&g), stretch6, Arc::clone(&frozen_names));
    let planex = FrozenPlane::freeze(Arc::clone(&g), exstretch, Arc::clone(&frozen_names));
    let planep = FrozenPlane::freeze(Arc::clone(&g), poly, Arc::clone(&frozen_names));

    let engine = Engine::new(EngineConfig::with_workers(workers));

    // The single serving pass: `off` still samples (for the stretch
    // columns) but records the run as unverified; `sampled`/`full` also
    // enforce the proven ceilings and fill the artifact's verify fields.
    let record_verify = verify_mode != VerifyMode::Off;
    let engine_mode = match verify_mode {
        VerifyMode::Off => VerifyMode::Sampled { stride: (queries / samples).max(1) },
        mode => mode,
    };
    let config = |bound: Option<StretchBound>| VerifyConfig {
        mode: engine_mode,
        bound: if record_verify { bound } else { None },
        ..VerifyConfig::default()
    };
    // The gated serve's oracle is the only one carrying the "verify"
    // telemetry scope, so `oracle.verify.rows_computed` counts exactly the
    // rows `verify_rows_computed` gates — the export cross-check below (and
    // the `check_telemetry` binary in CI) would catch any drift.
    let verify_oracle = LazyDijkstraOracle::new(&g, verify_cache).with_telemetry_scope("verify");
    let mut destination_seen = vec![false; n];

    banner(&format!("serving ({} verification in-pass)", engine_mode.name()));
    let mut serving_wall = Duration::ZERO;
    let mut flush_wall = Duration::ZERO;
    let mut schemes = Vec::with_capacity(3);
    // The planes carry distinct scheme types, so the three runs are spelled
    // out rather than looped.
    macro_rules! run_scheme {
        ($plane:expr, $bound:expr, $scheme_seed:expr) => {{
            let (base, wall, flush) = serve_all(
                $plane,
                shard_map,
                &engine,
                &verify_oracle,
                &config($bound),
                record_verify,
                queries,
                $scheme_seed,
                &mut destination_seen,
            );
            schemes.push(base);
            serving_wall += wall;
            flush_wall += flush;
        }};
    }
    run_scheme!(&plane6, None, seed ^ 0x6001);
    run_scheme!(&planex, Some(StretchBound::at_most(ex_bound)), seed ^ 0x6002);
    run_scheme!(&planep, Some(StretchBound::at_most(poly_bound)), seed ^ 0x6003);

    let distinct_destinations = destination_seen.iter().filter(|&&s| s).count();
    rtr_telemetry::gauge("serve.distinct_destinations").set(distinct_destinations as u64);
    let vstats = verify_oracle.stats();
    println!(
        "\nverification oracle: rows computed {}, cache hits {} ({:.1}% hit rate), \
         evictions {}, peak resident {} ({} distinct destinations over all streams)",
        vstats.rows_computed,
        vstats.cache_hits,
        100.0 * verify_oracle.hit_rate(),
        vstats.evictions,
        vstats.peak_resident_rows,
        distinct_destinations
    );
    if verify_mode == VerifyMode::Full {
        // The per-shard-bucket economics: full verification costs two
        // Dijkstras per *distinct destination*, never per worker, with up to
        // one duplicate window per shard at flush boundaries.
        let row_budget = 2 * distinct_destinations + 2 * shards;
        if vstats.rows_computed > row_budget {
            eprintln!(
                "FAIL: verification computed {} oracle rows, budget is \
                 2·distinct + 2·shards = {row_budget}",
                vstats.rows_computed
            );
            std::process::exit(1);
        }
        println!("verify row budget ok: {} <= {row_budget}", vstats.rows_computed);
    }
    if record_verify {
        // Derive the serve-only wall from the verified pass: flush_wall sums
        // over accumulators, so dividing by the worker count bounds the
        // wall-clock share verification can have added.
        let serve_only = (serving_wall.as_secs_f64()
            - flush_wall.as_secs_f64() / workers.max(1) as f64)
            .max(1e-9);
        let ratio = serving_wall.as_secs_f64() / serve_only;
        println!(
            "verified serving wall {serving_wall:.1?}, flush wall {flush_wall:.1?} over \
             {workers} workers ({ratio:.2}× derived slowdown)"
        );
        if let Ok(factor) = std::env::var("RTR_VERIFY_MAX_SLOWDOWN") {
            let factor: f64 = factor.parse().expect("RTR_VERIFY_MAX_SLOWDOWN must be a number");
            if ratio > factor {
                eprintln!(
                    "FAIL: in-flight verification inflated the serving wall {ratio:.2}×, \
                     budget {factor}×"
                );
                std::process::exit(1);
            }
            println!("verify slowdown budget ok: {ratio:.2}× <= {factor}×");
        }
    }

    // Worker sweep: the mix workload on the §2 plane, fully verified on a
    // fresh oracle per point — the artifact's record that throughput scales
    // with workers while verify rows stay flat (the per-shard-bucket claim).
    let mut worker_sweep = Vec::with_capacity(sweep.len());
    if !sweep.is_empty() {
        banner("worker sweep (mix workload, full verification)");
        let requests = Workload::Mix.generate(n, queries, seed ^ 0x6001);
        let mut mix_seen = vec![false; n];
        for r in &requests {
            mix_seen[r.dst.index()] = true;
        }
        let mix_distinct = mix_seen.iter().filter(|&&s| s).count();
        let sweep_config =
            VerifyConfig { mode: VerifyMode::Full, bound: None, ..VerifyConfig::default() };
        println!(
            "{:>9} {:>12} {:>12} {:>12} {:>9}",
            "workers", "queries/s", "verify-rows", "row-fetches", "handoffs"
        );
        for &w in &sweep {
            let sweep_engine = Engine::new(EngineConfig::with_workers(w));
            let sweep_oracle = LazyDijkstraOracle::new(&g, verify_cache);
            let out = serve_stream(
                &sweep_engine,
                &ShardedPlane::new(plane6.clone(), shard_map),
                &requests,
                &sweep_oracle,
                &sweep_config,
                &format!("sweep at {w} workers"),
            );
            let rows = sweep_oracle.stats().rows_computed;
            println!(
                "{:>9} {:>12.0} {:>12} {:>12} {:>9}",
                w,
                out.summary.queries_per_sec(),
                rows,
                out.cost.row_fetches,
                out.shards.iter().map(|s| s.handoffs).sum::<u64>()
            );
            let row_budget = 2 * mix_distinct + 2 * shards;
            if rows > row_budget {
                eprintln!(
                    "FAIL: verify rows grew with workers — {w} workers computed {rows} rows, \
                     budget 2·distinct + 2·shards = {row_budget}"
                );
                std::process::exit(1);
            }
            worker_sweep.push(SweepPoint {
                workers: w,
                queries_per_sec: out.summary.queries_per_sec(),
                verify_rows: rows as u64,
            });
        }
        println!("verify rows flat across the sweep (≤ 2·{mix_distinct} + 2·{shards})");
    }

    let stats = oracle.stats();
    banner("oracle");
    println!(
        "rows computed {}, cache hits {}, peak resident rows {} ({:.1}% of n²)",
        stats.rows_computed,
        stats.cache_hits,
        stats.peak_resident_rows,
        100.0 * stats.peak_resident_rows as f64 / n as f64
    );
    println!("total wall-clock: {:.1?}", t0.elapsed());

    let artifact = ServeBaseline {
        n,
        queries_per_workload: queries,
        seed,
        stretch_samples: samples,
        cache_rows,
        verify_mode: verify_mode.name().to_string(),
        shards,
        shard_policy,
        build_rows_computed: build_stats.rows_computed,
        peak_resident_rows: stats.peak_resident_rows,
        verify_rows_computed: vstats.rows_computed as u64,
        distinct_destinations: distinct_destinations as u64,
        worker_sweep,
        schemes,
    };
    let json_path =
        std::env::var("RTR_BENCH_JSON").unwrap_or_else(|_| "BENCH_serve.json".to_string());
    std::fs::write(&json_path, artifact.to_json())
        .unwrap_or_else(|e| panic!("writing {json_path}: {e}"));
    println!("baseline artifact written to {json_path}");

    // Telemetry overhead gate: re-serve the mix workload unverified with the
    // sink enabled vs. the runtime no-op sink (minimum of three interleaved
    // pairs after a warm-up) and fail if the enabled wall exceeds the budget
    // factor.  Runs before the export so the process-global counters are
    // final when the artifact is written; the cross-checked names
    // (`oracle.verify.*`, `serve.distinct_destinations`) are untouched here.
    if let Ok(factor) = std::env::var("RTR_TELEMETRY_MAX_OVERHEAD") {
        let factor: f64 = factor.parse().expect("RTR_TELEMETRY_MAX_OVERHEAD must be a number");
        banner("telemetry overhead gate (mix workload, unverified serve)");
        let requests = Workload::Mix.generate(n, queries, seed ^ 0x6001);
        let overhead_sharded = ShardedPlane::new(plane6.clone(), shard_map);
        let run = |enabled: bool| -> Duration {
            rtr_telemetry::set_enabled(enabled);
            let started = Instant::now();
            engine.serve_sharded(&overhead_sharded, &requests).expect("overhead serve failed");
            started.elapsed()
        };
        run(true);
        run(false);
        let (mut best_on, mut best_off) = (Duration::MAX, Duration::MAX);
        for _ in 0..3 {
            best_on = best_on.min(run(true));
            best_off = best_off.min(run(false));
        }
        rtr_telemetry::set_enabled(true);
        let ratio = best_on.as_secs_f64() / best_off.as_secs_f64().max(1e-9);
        println!("enabled {best_on:.1?} vs no-op sink {best_off:.1?} ({ratio:.3}×)");
        if ratio > factor {
            eprintln!("FAIL: telemetry overhead {ratio:.3}× exceeds budget {factor}×");
            std::process::exit(1);
        }
        println!("telemetry overhead budget ok: {ratio:.3}× <= {factor}×");
    }

    // Span-tree report, export cross-check, and the RTR_TELEMETRY_JSON
    // artifact.  The cross-check repeats in CI via `check_telemetry` on the
    // written files; failing here too keeps local runs honest.
    let registry = rtr_telemetry::registry();
    banner("telemetry");
    print!("{}", registry.span_report());
    let telemetry_rows = registry.counter_value("oracle.verify.rows_computed");
    if telemetry_rows != artifact.verify_rows_computed {
        eprintln!(
            "FAIL: telemetry counter oracle.verify.rows_computed = {telemetry_rows} disagrees \
             with the baseline-gated verify_rows_computed = {}",
            artifact.verify_rows_computed
        );
        std::process::exit(1);
    }
    let (telemetry_distinct, _) = registry.gauge_value("serve.distinct_destinations");
    if telemetry_distinct != artifact.distinct_destinations {
        eprintln!(
            "FAIL: telemetry gauge serve.distinct_destinations = {telemetry_distinct} disagrees \
             with the baseline-gated distinct_destinations = {}",
            artifact.distinct_destinations
        );
        std::process::exit(1);
    }
    println!(
        "telemetry cross-check ok: verify rows {telemetry_rows}, distinct destinations \
         {telemetry_distinct}"
    );
    let telemetry_path =
        std::env::var("RTR_TELEMETRY_JSON").unwrap_or_else(|_| "BENCH_telemetry.json".to_string());
    std::fs::write(&telemetry_path, registry.to_json())
        .unwrap_or_else(|e| panic!("writing {telemetry_path}: {e}"));
    println!("telemetry artifact written to {telemetry_path}");
}
