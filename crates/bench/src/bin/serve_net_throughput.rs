//! E14 — network serving throughput: put the §2 sparse plane behind the
//! `rtr-serve` TCP front door on loopback, drive it with a mixed
//! batch/single client fleet, and prove the **bit-identity** acceptance
//! property: the network session's [`VerifiedReport`] equals (a) the
//! `REPORT` frame fetched over the wire and (b) one in-process
//! `serve_verified_sharded` call over the exact request stream the server
//! admitted — byte for byte, regardless of network arrival order.
//!
//! The run also gates the verification plane's row economy end to end: the
//! server's verify oracle (telemetry scope `verify`, cache `2n`) must
//! compute at most `2·distinct(destinations) + 2·shards` rows even though
//! queries arrive interleaved over six client sockets.  The verify
//! cache keeps that true: every frame flushes its own per-shard destination
//! buckets, and with room for at least `2·distinct` rows a destination row
//! an earlier frame computed is a cache hit.  The
//! `/metrics` endpoint's JSON is captured **over the wire** and written as
//! the telemetry artifact, so `check_telemetry` cross-checks the network
//! capture exactly like an in-process export; the run runs the same
//! cross-check against its artifact before exiting.
//!
//! Headline numbers land in a serve artifact (`BENCH_serve_net.json`, the
//! fields and gates of [`rtr_bench::baseline::SERVE`], gated in CI against
//! `ci/BENCH_serve_net.json` by `check_serve_baseline`): throughput is
//! warn-only (loopback wall is a host property), while table footprint,
//! verified coverage, distinct destinations and verify rows gate hard.  Per-endpoint p50/p95/p99
//! latency comes from the `serve.net.*_ns` `DurationHistogram`s.
//!
//! The run's shape is fixed (see `main`).  The verify oracle caches `2n`
//! rows, so verify rows are exactly `2·distinct` and the baseline gate is
//! deterministic, and the server runs with `ServeConfig::default()`, whose
//! admission budget is high enough that the gated run rejects nothing (the
//! overload path is exercised by the `rtr-serve` tests).  Environment:
//! `RTR_BENCH_JSON` (default `BENCH_serve_net.json`) and
//! `RTR_TELEMETRY_JSON` (default `BENCH_telemetry_net.json`); any other
//! `RTR_*` variable ends the run.

use rtr_bench::baseline::{require_telemetry_match, JsonValue};
use rtr_bench::{banner, fail, reject_unread_env, table_footprint};
use rtr_core::naming::NamingAssignment;
use rtr_core::{SparseSchemeSuite, SparseSuiteParams};
use rtr_engine::{
    Engine, EngineConfig, FrozenPlane, Request, ShardMap, ShardedPlane, VerifiedReport,
    VerifyConfig, Workload,
};
use rtr_graph::generators::ring_with_chords;
use rtr_graph::NodeId;
use rtr_metric::LazyDijkstraOracle;
use rtr_serve::{Client, ServeConfig};
use std::net::TcpListener;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn main() {
    reject_unread_env(&["RTR_BENCH_JSON", "RTR_TELEMETRY_JSON"]);
    // The gated shape: 600 nodes; 30 000 queries in total over six clients,
    // even ids sending 64-query `BATCH` frames and odd ids single `ROUTE`
    // frames; four workers over four hash shards; seed 42.
    let (n, total, clients, batch, workers, shards, seed) = (600, 30_000, 6, 64, 4, 4, 42);
    let cache_rows = (n / 50).max(16);
    let verify_cache = 2 * n;
    let shard_map = ShardMap::hashed(n, shards, seed);

    banner(&format!(
        "E14: network serving, n = {n}, {total} queries over {clients} clients \
         (batch {batch}), {workers} workers, {shards} shards"
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
        "sparse suite built in {:.1?} (rows computed {} = {:.2}·n)",
        t1.elapsed(),
        build_stats.rows_computed,
        build_stats.rows_computed as f64 / n as f64
    );
    // Only the §2 plane goes behind the socket; the other suite members are
    // covered by E13.
    let (stretch6, _exstretch, _poly) = suite.into_parts();
    let plane6 = FrozenPlane::freeze(Arc::clone(&g), stretch6, Arc::new(names.to_names()));
    let tables = table_footprint(&plane6);
    let scheme_name = plane6.scheme_name().to_string();
    let sharded = ShardedPlane::new(plane6, shard_map);

    // Per-client request streams: deterministic, one workload flavour per
    // client, totalling exactly `total` queries.
    let per_client: Vec<Vec<Request>> = (0..clients)
        .map(|c| {
            let count = total / clients + usize::from(c < total % clients);
            Workload::ALL[c % Workload::ALL.len()].generate(n, count, seed ^ (0xc11e00 + c as u64))
        })
        .collect();
    let mut destination_seen = vec![false; n];
    for requests in &per_client {
        for r in requests {
            destination_seen[r.dst.index()] = true;
        }
    }
    let distinct_destinations = destination_seen.iter().filter(|&&s| s).count();
    // Published before the wire capture so the network `/metrics` artifact
    // carries it for `check_telemetry`.
    rtr_telemetry::gauge("serve.distinct_destinations").set(distinct_destinations as u64);

    let engine = Engine::new(EngineConfig::with_workers(workers));
    let verify_oracle = LazyDijkstraOracle::new(&g, verify_cache).with_telemetry_scope("verify");
    let serve_config = ServeConfig::default();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let shutdown = AtomicBool::new(false);

    banner("loopback serving (full verification in-pass)");
    let served_log: Mutex<Vec<(u64, u32, u32)>> = Mutex::new(Vec::with_capacity(total));
    let mut fleet_wall = Duration::ZERO;
    let (outcome, wire_report, wire_metrics) = std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            rtr_serve::serve(
                listener,
                &engine,
                &sharded,
                &verify_oracle,
                &VerifyConfig::full(),
                &serve_config,
                &shutdown,
            )
        });
        let fleet_started = Instant::now();
        std::thread::scope(|fleet| {
            for (c, requests) in per_client.iter().enumerate() {
                let served_log = &served_log;
                fleet.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connect");
                    let mut log = Vec::with_capacity(requests.len());
                    if c % 2 == 0 {
                        for chunk in requests.chunks(batch) {
                            let pairs: Vec<(u32, u32)> =
                                chunk.iter().map(|r| (r.src.0, r.dst.0)).collect();
                            let routes = client.batch(&pairs).expect("batch frame");
                            for (route, &(src, dst)) in routes.iter().zip(&pairs) {
                                log.push((route.index, src, dst));
                            }
                        }
                    } else {
                        for r in requests {
                            let route = client.route(r.src.0, r.dst.0).expect("route frame");
                            log.push((route.index, r.src.0, r.dst.0));
                        }
                    }
                    served_log.lock().unwrap().extend_from_slice(&log);
                });
            }
        });
        fleet_wall = fleet_started.elapsed();
        let mut control = Client::connect(addr).expect("control connect");
        let report = control.report().expect("REPORT frame");
        let metrics = control.metrics().expect("METRICS frame");
        control.shutdown().expect("SHUTDOWN frame");
        let outcome = server.join().expect("server panicked").expect("serve failed");
        (outcome, report, metrics)
    });
    println!(
        "fleet done in {fleet_wall:.1?}: {} queries/s over the wire ({} connections, {} frames, \
         {} served, {} rejected)",
        (total as f64 / fleet_wall.as_secs_f64()).round(),
        outcome.connections,
        outcome.frames,
        outcome.served,
        outcome.rejected
    );
    if outcome.served != total as u64 || outcome.rejected != 0 {
        fail(format!(
            "expected {total} served / 0 rejected, got {} / {} — raise the admission budget",
            outcome.served, outcome.rejected
        ));
    }

    // Reconstruct the exact admission-ordered stream from the returned
    // indices: every index in 0..total exactly once, or the front door
    // dropped or duplicated work.
    let log = served_log.into_inner().unwrap();
    let mut stream: Vec<Option<Request>> = vec![None; total];
    for &(index, src, dst) in &log {
        let slot = stream
            .get_mut(index as usize)
            .unwrap_or_else(|| fail(format!("returned index {index} out of range")));
        if slot.is_some() {
            fail(format!("index {index} returned twice"));
        }
        *slot = Some(Request { src: NodeId(src), dst: NodeId(dst) });
    }
    let stream: Vec<Request> = stream
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| fail(format!("no reply carried stream index {i}"))))
        .collect();

    // Row-economy gate: network arrival order must not break the per-shard
    // destination buckets.
    let vstats = verify_oracle.stats();
    let row_budget = 2 * distinct_destinations + 2 * shards;
    println!(
        "verify oracle over the wire: rows computed {}, cache hits {}, peak resident {} \
         ({distinct_destinations} distinct destinations, budget {row_budget})",
        vstats.rows_computed, vstats.cache_hits, vstats.peak_resident_rows
    );
    if vstats.rows_computed > row_budget {
        fail(format!(
            "verification computed {} oracle rows over the wire, budget \
             2·distinct + 2·shards = {row_budget}",
            vstats.rows_computed
        ));
    }

    // The acceptance property: serve the reconstructed stream in one
    // in-process call (fresh, unscoped verify oracle so the wire-captured
    // `oracle.verify.*` counters stay untouched) and demand bit-identity.
    banner("bit-identity cross-check");
    let cmp_oracle = LazyDijkstraOracle::new(&g, verify_cache);
    let in_process = engine
        .serve_verified_sharded(&sharded, &stream, &cmp_oracle, &VerifyConfig::full())
        .expect("in-process serve failed");
    let net_report: &VerifiedReport = &outcome.verified.report;
    if net_report != &in_process.report {
        fail("network session report differs from the in-process serve of the same stream");
    }
    if wire_report != in_process.report {
        fail("REPORT frame differs from the in-process serve of the same stream");
    }
    for (net, local) in outcome.verified.shards.iter().zip(&in_process.shards) {
        if net.queries != local.queries {
            fail(format!(
                "shard {} served {} queries over the wire but {} in-process",
                net.shard, net.queries, local.queries
            ));
        }
    }
    println!(
        "bit-identity ok: wire REPORT == session report == in-process report \
         ({} queries, {} checked, max stretch {:.3})",
        net_report.queries,
        net_report.checked,
        net_report.max_stretch()
    );

    banner("endpoint latency (p50/p95/p99, from serve.net.*_ns histograms)");
    for (label, name) in [
        ("route", "serve.net.route_ns"),
        ("batch", "serve.net.batch_ns"),
        ("report", "serve.net.report_ns"),
        ("metrics", "serve.net.metrics_ns"),
    ] {
        let h = rtr_telemetry::histogram(name);
        if h.count() == 0 {
            continue;
        }
        println!(
            "  {label:<8} {:>8.1}µs {:>8.1}µs {:>8.1}µs  ({} frames)",
            h.percentile_ns(0.50) as f64 / 1e3,
            h.percentile_ns(0.95) as f64 / 1e3,
            h.percentile_ns(0.99) as f64 / 1e3,
            h.count()
        );
    }

    let summary = &outcome.verified.summary;
    let scheme = JsonValue::object([
        ("scheme", scheme_name.into()),
        ("table_bytes", tables.bytes.into()),
        ("worst_node_bits", tables.worst_node_bits.into()),
        ("worst_sampled_stretch", net_report.max_stretch().into()),
        ("min_queries_per_sec", (total as f64 / fleet_wall.as_secs_f64()).into()),
        ("verified_queries", net_report.checked.into()),
        ("verify_violations", net_report.violations.len().into()),
        ("worst_verified_stretch", net_report.max_stretch().into()),
    ]);
    let artifact = JsonValue::object([
        ("n", n.into()),
        // The fleet total: one net stream, not per-workload.
        ("queries_per_workload", total.into()),
        ("seed", seed.into()),
        ("stretch_samples", 0u64.into()),
        ("cache_rows", cache_rows.into()),
        ("verify_mode", "full".into()),
        ("shards", shards.into()),
        ("build_rows_computed", build_stats.rows_computed.into()),
        ("peak_resident_rows", build_stats.peak_resident_rows.into()),
        ("verify_rows_computed", vstats.rows_computed.into()),
        ("distinct_destinations", distinct_destinations.into()),
        ("worker_sweep", JsonValue::Array(Vec::new())),
        ("schemes", vec![scheme].into()),
    ]);
    println!(
        "engine summary: {} queries at {:.0}/s inside the core, avg hops {:.2}",
        summary.queries,
        summary.queries_per_sec(),
        summary.avg_hops()
    );
    let json_path =
        std::env::var("RTR_BENCH_JSON").unwrap_or_else(|_| "BENCH_serve_net.json".to_string());
    std::fs::write(&json_path, format!("{artifact}\n"))
        .unwrap_or_else(|e| panic!("writing {json_path}: {e}"));
    println!("baseline artifact written to {json_path}");
    // The wire-captured `/metrics` JSON must agree with the artifact, as
    // `check_telemetry` will check it in CI.
    require_telemetry_match(&wire_metrics, &artifact);
    let telemetry_path = std::env::var("RTR_TELEMETRY_JSON")
        .unwrap_or_else(|_| "BENCH_telemetry_net.json".to_string());
    // The artifact is the *network capture*, byte for byte — not a local
    // re-export — so CI's check_telemetry gates what a client actually saw.
    std::fs::write(&telemetry_path, &wire_metrics)
        .unwrap_or_else(|e| panic!("writing {telemetry_path}: {e}"));
    println!("wire-captured telemetry artifact written to {telemetry_path}");
    println!("total wall-clock: {:.1?}", t0.elapsed());
}
