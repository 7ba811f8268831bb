//! The `BENCH_serve.json` and `BENCH_chaos.json` baseline artifacts.
//!
//! `serve_throughput` writes a [`ServeBaseline`] per run; CI regenerates it
//! at the n = 600 smoke configuration and diffs it against the checked-in
//! seed baseline (`ci/BENCH_serve.json`) with [`compare`].  Table bytes,
//! stretch and oracle-row counts are deterministic given the seeds, so
//! regressions there **hard-fail**; queries/sec depends on the host and only
//! warns.
//!
//! `chaos_sweep` writes a [`ChaosBaseline`] — the fourth CI-gated artifact:
//! per failure fraction, the degraded epoch's delivery/violation record and
//! the repair economy (rows an incremental repair recomputed vs. a
//! from-scratch rebuild).  [`compare_chaos`] diffs it against
//! `ci/BENCH_chaos.json`; the artifacts carry `"kind": "chaos"` so the
//! checker binaries can dispatch on file shape.
//!
//! Serialization is hand-rolled (the build environment vendors no serde),
//! mirroring `rtr_graph::io`.

use std::fmt::Write as _;

/// Build-time and per-scheme serving numbers of one `serve_throughput` run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBaseline {
    /// Node count of the run.
    pub n: usize,
    /// Requests served per workload.
    pub queries_per_workload: usize,
    /// RNG seed of the run (graph, naming, workloads).
    pub seed: u64,
    /// Stretch samples per serve run (`RTR_SAMPLES`) — changes the sampled
    /// pairs and hence the worst sampled stretch.
    pub stretch_samples: usize,
    /// Lazy-oracle row-cache capacity (`RTR_CACHE`) — changes both the row
    /// count (prefetch clamp) and the peak resident rows.
    pub cache_rows: usize,
    /// Verification mode of the run (`RTR_VERIFY`: `off` / `sampled` /
    /// `full`).  Baselines recorded with verification also gate the
    /// verify-mode scheme fields; `off` baselines ignore them.
    pub verify_mode: String,
    /// Destination shard count of the run (`RTR_SHARDS`, at least 1;
    /// artifacts of the since-removed unsharded engine record `0`).
    pub shards: usize,
    /// Shard policy (`hash` / `range`; `none` in artifacts of the
    /// since-removed unsharded engine) — changes which worker owns which
    /// destination, so it pins the configuration.
    pub shard_policy: String,
    /// Oracle rows (Dijkstras) computed by the **suite build** alone.
    pub build_rows_computed: usize,
    /// Peak resident oracle rows on the shared substrate oracle over the
    /// whole run.
    pub peak_resident_rows: usize,
    /// Rows the **dedicated verification oracle** computed across all
    /// streams.  With per-shard buckets this stays
    /// `≤ 2 · distinct destinations` regardless of worker count —
    /// verification's whole cost model — so growth is a hard failure.
    pub verify_rows_computed: u64,
    /// Distinct destinations over every served stream (all schemes ×
    /// workloads) — deterministic given the seeds, the denominator of the
    /// verify-row bound.
    pub distinct_destinations: u64,
    /// The worker-count sweep: the mix workload re-served fully verified at
    /// each worker count, recording that verify rows stay flat as workers
    /// grow while throughput scales.
    pub worker_sweep: Vec<SweepPoint>,
    /// Per-scheme aggregates, in serving order.
    pub schemes: Vec<SchemeBaseline>,
}

/// One worker count of the serving sweep (mix workload, full verification,
/// fresh verify oracle per point).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Worker threads serving this point.
    pub workers: usize,
    /// Throughput at this worker count (host-dependent; warn-only).
    pub queries_per_sec: f64,
    /// Rows the point's verify oracle computed — must not grow with
    /// `workers` (deterministic given the seeds; gated exactly with the
    /// usual rows slack).
    pub verify_rows: u64,
}

/// One scheme's aggregate numbers across all workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeBaseline {
    /// Scheme name (`stretch6` / `exstretch` / `polystretch`).
    pub scheme: String,
    /// Total routing-table footprint over all nodes, in bytes.
    pub table_bytes: u64,
    /// Largest single-node table, in bits.
    pub worst_node_bits: u64,
    /// Worst exact stretch over every workload's strided sample.
    pub worst_sampled_stretch: f64,
    /// Lowest queries/sec over the workloads (host-dependent; warn-only).
    pub min_queries_per_sec: f64,
    /// Queries checked by the verification plane across all workloads
    /// (0 when the run's verify mode is `off`; `queries · workloads` under
    /// full verification — deterministic, gated exactly).
    pub verified_queries: u64,
    /// Checked queries that exceeded the scheme's proven stretch ceiling.
    /// Any non-zero current value is a hard CI failure.
    pub verify_violations: u64,
    /// Worst verified stretch across all workloads (exact integer
    /// comparison rendered as a float; deterministic given the seeds).
    pub worst_verified_stretch: f64,
}

impl ServeBaseline {
    /// Renders the artifact as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"n\": {},", self.n);
        let _ = writeln!(out, "  \"queries_per_workload\": {},", self.queries_per_workload);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"stretch_samples\": {},", self.stretch_samples);
        let _ = writeln!(out, "  \"cache_rows\": {},", self.cache_rows);
        let _ = writeln!(out, "  \"verify_mode\": \"{}\",", self.verify_mode);
        let _ = writeln!(out, "  \"shards\": {},", self.shards);
        let _ = writeln!(out, "  \"shard_policy\": \"{}\",", self.shard_policy);
        let _ = writeln!(out, "  \"build_rows_computed\": {},", self.build_rows_computed);
        let _ = writeln!(out, "  \"peak_resident_rows\": {},", self.peak_resident_rows);
        let _ = writeln!(out, "  \"verify_rows_computed\": {},", self.verify_rows_computed);
        let _ = writeln!(out, "  \"distinct_destinations\": {},", self.distinct_destinations);
        out.push_str("  \"worker_sweep\": [\n");
        for (i, p) in self.worker_sweep.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"workers\": {}, \"queries_per_sec\": {:.1}, \"verify_rows\": {}}}",
                p.workers, p.queries_per_sec, p.verify_rows
            );
            out.push_str(if i + 1 < self.worker_sweep.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n");
        out.push_str("  \"schemes\": [\n");
        for (i, s) in self.schemes.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"scheme\": \"{}\", \"table_bytes\": {}, \"worst_node_bits\": {}, \
                 \"worst_sampled_stretch\": {:.6}, \"min_queries_per_sec\": {:.1}, \
                 \"verified_queries\": {}, \"verify_violations\": {}, \
                 \"worst_verified_stretch\": {:.6}}}",
                s.scheme,
                s.table_bytes,
                s.worst_node_bits,
                s.worst_sampled_stretch,
                s.min_queries_per_sec,
                s.verified_queries,
                s.verify_violations,
                s.worst_verified_stretch
            );
            out.push_str(if i + 1 < self.schemes.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses an artifact previously written by [`to_json`](Self::to_json).
    ///
    /// The verify-mode fields are optional with `off`/zero defaults, so
    /// baselines recorded before the verification plane still parse.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or schema problem.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = JsonValue::parse(text)?;
        let schemes = value
            .field("schemes")?
            .as_array()?
            .iter()
            .map(|s| {
                Ok(SchemeBaseline {
                    scheme: s.field("scheme")?.as_string()?,
                    table_bytes: s.field("table_bytes")?.as_u64()?,
                    worst_node_bits: s.field("worst_node_bits")?.as_u64()?,
                    worst_sampled_stretch: s.field("worst_sampled_stretch")?.as_f64()?,
                    min_queries_per_sec: s.field("min_queries_per_sec")?.as_f64()?,
                    verified_queries: match s.field_opt("verified_queries") {
                        Some(v) => v.as_u64()?,
                        None => 0,
                    },
                    verify_violations: match s.field_opt("verify_violations") {
                        Some(v) => v.as_u64()?,
                        None => 0,
                    },
                    worst_verified_stretch: match s.field_opt("worst_verified_stretch") {
                        Some(v) => v.as_f64()?,
                        None => 0.0,
                    },
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ServeBaseline {
            n: value.field("n")?.as_u64()? as usize,
            queries_per_workload: value.field("queries_per_workload")?.as_u64()? as usize,
            seed: value.field("seed")?.as_u64()?,
            stretch_samples: value.field("stretch_samples")?.as_u64()? as usize,
            cache_rows: value.field("cache_rows")?.as_u64()? as usize,
            verify_mode: match value.field_opt("verify_mode") {
                Some(v) => v.as_string()?,
                None => "off".to_string(),
            },
            shards: match value.field_opt("shards") {
                Some(v) => v.as_u64()? as usize,
                None => 0,
            },
            shard_policy: match value.field_opt("shard_policy") {
                Some(v) => v.as_string()?,
                None => "none".to_string(),
            },
            build_rows_computed: value.field("build_rows_computed")?.as_u64()? as usize,
            peak_resident_rows: value.field("peak_resident_rows")?.as_u64()? as usize,
            verify_rows_computed: match value.field_opt("verify_rows_computed") {
                Some(v) => v.as_u64()?,
                None => 0,
            },
            distinct_destinations: match value.field_opt("distinct_destinations") {
                Some(v) => v.as_u64()?,
                None => 0,
            },
            worker_sweep: match value.field_opt("worker_sweep") {
                Some(v) => v
                    .as_array()?
                    .iter()
                    .map(|p| {
                        Ok(SweepPoint {
                            workers: p.field("workers")?.as_u64()? as usize,
                            queries_per_sec: p.field("queries_per_sec")?.as_f64()?,
                            verify_rows: p.field("verify_rows")?.as_u64()?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?,
                None => Vec::new(),
            },
            schemes,
        })
    }
}

/// Relative slack on the deterministic quantities (table bytes, stretch): a
/// current value above `baseline · (1 + SLACK)` is a hard failure.  The
/// numbers are bit-reproducible given the seeds, so the slack only absorbs
/// float formatting; anything beyond it is a real regression.
pub const DETERMINISTIC_SLACK: f64 = 0.02;

/// Relative slack on the suite-build oracle-row count.  Rows are within a
/// handful of deterministic across runs (concurrent connectivity probes can
/// race a duplicate Dijkstra), so the tolerance is wider, but a 10% jump
/// means a sweep stopped being shared.
pub const ROWS_SLACK: f64 = 0.10;

/// Throughput warn threshold: warn when a scheme's minimum queries/sec drops
/// below half the baseline.  Host-dependent — never a hard failure.
pub const THROUGHPUT_WARN_FRACTION: f64 = 0.5;

/// Diffs a current run against the checked-in baseline.
///
/// Returns `(failures, warnings)`: failures are regressions CI must fail on
/// (table bytes, stretch, oracle rows, schema mismatches), warnings are
/// host-dependent observations (throughput).
pub fn compare(baseline: &ServeBaseline, current: &ServeBaseline) -> (Vec<String>, Vec<String>) {
    let mut failures = Vec::new();
    let mut warnings = Vec::new();
    // Every knob that changes a gated (deterministic) number must match, or
    // the diff compares incompatible runs.
    let config = |b: &ServeBaseline| {
        (
            b.n,
            b.queries_per_workload,
            b.seed,
            b.stretch_samples,
            b.cache_rows,
            b.verify_mode.clone(),
            b.shards,
            b.shard_policy.clone(),
        )
    };
    if config(baseline) != config(current) {
        failures.push(format!(
            "configuration mismatch: baseline is (n, queries, seed, samples, cache, verify, \
             shards, policy) = {:?}, current is {:?} (regenerate the baseline, see README)",
            config(baseline),
            config(current)
        ));
        return (failures, warnings);
    }
    let verifying = baseline.verify_mode != "off";
    let rows_limit = baseline.build_rows_computed as f64 * (1.0 + ROWS_SLACK);
    if (current.build_rows_computed as f64) > rows_limit {
        failures.push(format!(
            "suite build computed {} oracle rows, baseline {} (+{:.0}% > {:.0}% slack) — \
             a row sweep is no longer shared",
            current.build_rows_computed,
            baseline.build_rows_computed,
            100.0
                * (current.build_rows_computed as f64 / baseline.build_rows_computed as f64 - 1.0),
            100.0 * ROWS_SLACK
        ));
    } else if current.build_rows_computed * 2 <= baseline.build_rows_computed {
        warnings.push(format!(
            "suite build rows improved {} → {}; consider refreshing the baseline",
            baseline.build_rows_computed, current.build_rows_computed
        ));
    }
    if current.peak_resident_rows > baseline.peak_resident_rows * 2 {
        failures.push(format!(
            "peak resident oracle rows {} more than doubled the baseline {}",
            current.peak_resident_rows, baseline.peak_resident_rows
        ));
    }
    // Destination streams are seeded, so the distinct-destination count is
    // bit-deterministic: any drift means a workload generator changed under
    // the baseline.  (Zero means a pre-sharding baseline — nothing to gate.)
    if baseline.distinct_destinations != 0
        && current.distinct_destinations != baseline.distinct_destinations
    {
        failures.push(format!(
            "distinct destinations changed {} → {} — the request streams drifted",
            baseline.distinct_destinations, current.distinct_destinations
        ));
    }
    // Verify rows pay two Dijkstras per distinct destination under per-shard
    // buckets; growth past the rows slack means workers started re-fetching
    // each other's destination rows.
    if baseline.verify_rows_computed != 0 {
        let verify_rows_limit = baseline.verify_rows_computed as f64 * (1.0 + ROWS_SLACK);
        if current.verify_rows_computed as f64 > verify_rows_limit {
            failures.push(format!(
                "verification computed {} oracle rows, baseline {} (+{:.0}% > {:.0}% slack) — \
                 per-shard bucket sharing regressed",
                current.verify_rows_computed,
                baseline.verify_rows_computed,
                100.0
                    * (current.verify_rows_computed as f64 / baseline.verify_rows_computed as f64
                        - 1.0),
                100.0 * ROWS_SLACK
            ));
        }
    }
    // The worker sweep is gated point-by-point: verify rows are
    // deterministic (hard), throughput is host-dependent (warn).  A missing
    // point would leave a worker count ungated.
    for want in &baseline.worker_sweep {
        let Some(got) = current.worker_sweep.iter().find(|p| p.workers == want.workers) else {
            failures.push(format!(
                "worker-sweep point at {} workers missing from the current run",
                want.workers
            ));
            continue;
        };
        let sweep_rows_limit = want.verify_rows as f64 * (1.0 + ROWS_SLACK);
        if got.verify_rows as f64 > sweep_rows_limit {
            failures.push(format!(
                "sweep at {} workers: verify rows regressed {} → {} — rows are growing with \
                 the worker count again",
                want.workers, want.verify_rows, got.verify_rows
            ));
        }
        if got.queries_per_sec < want.queries_per_sec * THROUGHPUT_WARN_FRACTION {
            warnings.push(format!(
                "sweep at {} workers: throughput dropped {:.0} → {:.0} queries/s \
                 (host-dependent, not gating)",
                want.workers, want.queries_per_sec, got.queries_per_sec
            ));
        }
    }
    for want in &baseline.schemes {
        let Some(got) = current.schemes.iter().find(|s| s.scheme == want.scheme) else {
            failures.push(format!("scheme {} missing from the current run", want.scheme));
            continue;
        };
        let byte_limit = want.table_bytes as f64 * (1.0 + DETERMINISTIC_SLACK);
        if got.table_bytes as f64 > byte_limit {
            failures.push(format!(
                "{}: table bytes regressed {} → {}",
                want.scheme, want.table_bytes, got.table_bytes
            ));
        }
        let bits_limit = want.worst_node_bits as f64 * (1.0 + DETERMINISTIC_SLACK);
        if got.worst_node_bits as f64 > bits_limit {
            failures.push(format!(
                "{}: worst-node table bits regressed {} → {}",
                want.scheme, want.worst_node_bits, got.worst_node_bits
            ));
        }
        let stretch_limit = want.worst_sampled_stretch * (1.0 + DETERMINISTIC_SLACK);
        if got.worst_sampled_stretch > stretch_limit {
            failures.push(format!(
                "{}: worst sampled stretch regressed {:.3} → {:.3}",
                want.scheme, want.worst_sampled_stretch, got.worst_sampled_stretch
            ));
        }
        if got.min_queries_per_sec < want.min_queries_per_sec * THROUGHPUT_WARN_FRACTION {
            warnings.push(format!(
                "{}: throughput dropped {:.0} → {:.0} queries/s (host-dependent, not gating)",
                want.scheme, want.min_queries_per_sec, got.min_queries_per_sec
            ));
        }
        if verifying {
            // Checked-query counts are exact (mode × stream length), so any
            // drift means the verification plane silently skipped queries.
            if got.verified_queries != want.verified_queries {
                failures.push(format!(
                    "{}: verified queries changed {} → {} — verification coverage drifted",
                    want.scheme, want.verified_queries, got.verified_queries
                ));
            }
            if got.verify_violations > 0 {
                failures.push(format!(
                    "{}: {} verified queries exceeded the proven stretch bound",
                    want.scheme, got.verify_violations
                ));
            }
            let verified_limit = want.worst_verified_stretch * (1.0 + DETERMINISTIC_SLACK);
            if got.worst_verified_stretch > verified_limit {
                failures.push(format!(
                    "{}: worst verified stretch regressed {:.3} → {:.3}",
                    want.scheme, want.worst_verified_stretch, got.worst_verified_stretch
                ));
            }
        }
    }
    // Symmetric check: a scheme served by the current run but absent from
    // the baseline would otherwise pass CI completely ungated.
    for got in &current.schemes {
        if !baseline.schemes.iter().any(|s| s.scheme == got.scheme) {
            failures.push(format!(
                "scheme {} is not in the baseline — regenerate ci/BENCH_serve.json to gate it",
                got.scheme
            ));
        }
    }
    (failures, warnings)
}

/// Hard ceiling on the chaos repair economy: an incremental repair may
/// recompute at most this fraction of the oracle rows a from-scratch rebuild
/// pays.  Enforced in-binary by `chaos_sweep` and again by
/// [`compare_chaos`] on the current artifact, so CI fails even when a stale
/// baseline would have allowed the regression.
pub const REPAIR_ROW_BUDGET: f64 = 0.25;

/// One failure fraction of a `chaos_sweep` run: the fault selection, the
/// repair economy, and the three verified epochs (pre-fault / degraded /
/// post-repair) of the §3 serving plane.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosFraction {
    /// Requested edge-failure fraction (share of all edges).
    pub fraction: f64,
    /// Faults the fraction asked for (`round(fraction · edge_count)`).
    pub faults_requested: usize,
    /// Faults actually applied after the dirty-row impact budget.
    pub faults_applied: usize,
    /// Applied faults that removed an edge.
    pub removals: usize,
    /// Applied faults that inflated an edge weight.
    pub inflations: usize,
    /// Nodes with at least one invalidated metric row.
    pub dirty_nodes: usize,
    /// Oracle rows the incremental repair recomputed.
    pub repair_rows: u64,
    /// Oracle rows a from-scratch rebuild of the same substrate computed.
    pub full_rebuild_rows: u64,
    /// Cover cluster trees the repair re-anchored.
    pub clusters_reanchored: usize,
    /// Landmark balls the repair recomputed.
    pub balls_repaired: usize,
    /// Wall-clock of the repair, in nanoseconds (host-dependent; warn-only).
    pub repair_epoch_ns: u64,
    /// Worst verified stretch of the pre-fault epoch.
    pub pre_worst_stretch: f64,
    /// Requests the degraded epoch delivered.
    pub degraded_delivered: u64,
    /// Requests the degraded epoch failed to deliver (routes crossing a
    /// removed link).
    pub degraded_failed: u64,
    /// Delivered degraded requests that exceeded the proven ceiling.
    pub degraded_violations: u64,
    /// Worst verified stretch of the degraded epoch's delivered requests.
    pub degraded_worst_stretch: f64,
    /// `degraded_delivered / queries` — the fault window's success rate.
    pub degraded_success_rate: f64,
    /// Degraded-window offender pairs the repair restored under the ceiling.
    pub restored_pairs: u64,
    /// Worst verified stretch of the post-repair epoch.
    pub post_worst_stretch: f64,
    /// Post-repair requests above the proven ceiling (must be 0).
    pub post_violations: u64,
    /// Post-repair delivery failures (must be 0).
    pub post_failed: u64,
}

/// The `BENCH_chaos.json` artifact: one `chaos_sweep` run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosBaseline {
    /// Node count of the run.
    pub n: usize,
    /// Requests served per epoch (three epochs per fraction).
    pub queries_per_epoch: usize,
    /// RNG seed of the run (graph, naming, fault selection, workloads).
    pub seed: u64,
    /// Worker threads of the run — provenance only; the chaos conformance
    /// tests prove every gated number is worker-independent.
    pub workers: usize,
    /// Destination shard count of the run.
    pub shards: usize,
    /// Shard policy (`hash` / `range`).
    pub shard_policy: String,
    /// Chord edges of the `ring_with_chords` graph (the fault candidates —
    /// the ring itself is never faulted, keeping the graph strongly
    /// connected).
    pub chords: usize,
    /// Total edge count (ring + chords), the fraction denominator.
    pub edge_count: usize,
    /// Absolute cap on invalidated rows per fraction (the impact budget the
    /// greedy fault selection enforces).
    pub dirty_row_budget: usize,
    /// The §3 proven stretch ceiling every epoch is verified against.
    pub bound: u64,
    /// Per-fraction records, in sweep order.
    pub fractions: Vec<ChaosFraction>,
}

impl ChaosBaseline {
    /// Renders the artifact as pretty-printed JSON, `"kind": "chaos"` first
    /// so the checker binaries can dispatch on file shape.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"kind\": \"chaos\",\n");
        let _ = writeln!(out, "  \"n\": {},", self.n);
        let _ = writeln!(out, "  \"queries_per_epoch\": {},", self.queries_per_epoch);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"workers\": {},", self.workers);
        let _ = writeln!(out, "  \"shards\": {},", self.shards);
        let _ = writeln!(out, "  \"shard_policy\": \"{}\",", self.shard_policy);
        let _ = writeln!(out, "  \"chords\": {},", self.chords);
        let _ = writeln!(out, "  \"edge_count\": {},", self.edge_count);
        let _ = writeln!(out, "  \"dirty_row_budget\": {},", self.dirty_row_budget);
        let _ = writeln!(out, "  \"bound\": {},", self.bound);
        out.push_str("  \"fractions\": [\n");
        for (i, f) in self.fractions.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"fraction\": {:.6},", f.fraction);
            let _ = writeln!(out, "      \"faults_requested\": {},", f.faults_requested);
            let _ = writeln!(out, "      \"faults_applied\": {},", f.faults_applied);
            let _ = writeln!(out, "      \"removals\": {},", f.removals);
            let _ = writeln!(out, "      \"inflations\": {},", f.inflations);
            let _ = writeln!(out, "      \"dirty_nodes\": {},", f.dirty_nodes);
            let _ = writeln!(out, "      \"repair_rows\": {},", f.repair_rows);
            let _ = writeln!(out, "      \"full_rebuild_rows\": {},", f.full_rebuild_rows);
            let _ = writeln!(out, "      \"clusters_reanchored\": {},", f.clusters_reanchored);
            let _ = writeln!(out, "      \"balls_repaired\": {},", f.balls_repaired);
            let _ = writeln!(out, "      \"repair_epoch_ns\": {},", f.repair_epoch_ns);
            let _ = writeln!(out, "      \"pre_worst_stretch\": {:.6},", f.pre_worst_stretch);
            let _ = writeln!(out, "      \"degraded_delivered\": {},", f.degraded_delivered);
            let _ = writeln!(out, "      \"degraded_failed\": {},", f.degraded_failed);
            let _ = writeln!(out, "      \"degraded_violations\": {},", f.degraded_violations);
            let _ =
                writeln!(out, "      \"degraded_worst_stretch\": {:.6},", f.degraded_worst_stretch);
            let _ =
                writeln!(out, "      \"degraded_success_rate\": {:.6},", f.degraded_success_rate);
            let _ = writeln!(out, "      \"restored_pairs\": {},", f.restored_pairs);
            let _ = writeln!(out, "      \"post_worst_stretch\": {:.6},", f.post_worst_stretch);
            let _ = writeln!(out, "      \"post_violations\": {},", f.post_violations);
            let _ = writeln!(out, "      \"post_failed\": {}", f.post_failed);
            out.push_str("    }");
            out.push_str(if i + 1 < self.fractions.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses an artifact previously written by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or schema problem, including
    /// a missing or non-`chaos` `kind` discriminator.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = JsonValue::parse(text)?;
        let kind = value.field("kind")?.as_string()?;
        if kind != "chaos" {
            return Err(format!("expected \"kind\": \"chaos\", found \"{kind}\""));
        }
        let fractions = value
            .field("fractions")?
            .as_array()?
            .iter()
            .map(|f| {
                Ok(ChaosFraction {
                    fraction: f.field("fraction")?.as_f64()?,
                    faults_requested: f.field("faults_requested")?.as_u64()? as usize,
                    faults_applied: f.field("faults_applied")?.as_u64()? as usize,
                    removals: f.field("removals")?.as_u64()? as usize,
                    inflations: f.field("inflations")?.as_u64()? as usize,
                    dirty_nodes: f.field("dirty_nodes")?.as_u64()? as usize,
                    repair_rows: f.field("repair_rows")?.as_u64()?,
                    full_rebuild_rows: f.field("full_rebuild_rows")?.as_u64()?,
                    clusters_reanchored: f.field("clusters_reanchored")?.as_u64()? as usize,
                    balls_repaired: f.field("balls_repaired")?.as_u64()? as usize,
                    repair_epoch_ns: f.field("repair_epoch_ns")?.as_u64()?,
                    pre_worst_stretch: f.field("pre_worst_stretch")?.as_f64()?,
                    degraded_delivered: f.field("degraded_delivered")?.as_u64()?,
                    degraded_failed: f.field("degraded_failed")?.as_u64()?,
                    degraded_violations: f.field("degraded_violations")?.as_u64()?,
                    degraded_worst_stretch: f.field("degraded_worst_stretch")?.as_f64()?,
                    degraded_success_rate: f.field("degraded_success_rate")?.as_f64()?,
                    restored_pairs: f.field("restored_pairs")?.as_u64()?,
                    post_worst_stretch: f.field("post_worst_stretch")?.as_f64()?,
                    post_violations: f.field("post_violations")?.as_u64()?,
                    post_failed: f.field("post_failed")?.as_u64()?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ChaosBaseline {
            n: value.field("n")?.as_u64()? as usize,
            queries_per_epoch: value.field("queries_per_epoch")?.as_u64()? as usize,
            seed: value.field("seed")?.as_u64()?,
            workers: value.field("workers")?.as_u64()? as usize,
            shards: value.field("shards")?.as_u64()? as usize,
            shard_policy: value.field("shard_policy")?.as_string()?,
            chords: value.field("chords")?.as_u64()? as usize,
            edge_count: value.field("edge_count")?.as_u64()? as usize,
            dirty_row_budget: value.field("dirty_row_budget")?.as_u64()? as usize,
            bound: value.field("bound")?.as_u64()?,
            fractions,
        })
    }
}

/// Diffs a current `chaos_sweep` run against the checked-in chaos baseline.
///
/// Everything except the repair wall-clock is deterministic given the run's
/// seeds — fault selection, dirty rows, repair/rebuild row counts, delivery
/// failures, violations, restored pairs — so those gate **exactly**; worst
/// stretches gate with the usual [`DETERMINISTIC_SLACK`] (float formatting
/// only).  Two invariants are re-checked on the current run regardless of
/// what the baseline says: the post-repair epoch must be perfectly clean,
/// and `repair_rows` must stay within [`REPAIR_ROW_BUDGET`] of
/// `full_rebuild_rows`.  `repair_epoch_ns` is host-dependent and only warns.
pub fn compare_chaos(
    baseline: &ChaosBaseline,
    current: &ChaosBaseline,
) -> (Vec<String>, Vec<String>) {
    let mut failures = Vec::new();
    let mut warnings = Vec::new();
    let config = |b: &ChaosBaseline| {
        (
            b.n,
            b.queries_per_epoch,
            b.seed,
            b.shards,
            b.shard_policy.clone(),
            b.chords,
            b.edge_count,
            b.dirty_row_budget,
            b.bound,
        )
    };
    if config(baseline) != config(current) {
        failures.push(format!(
            "configuration mismatch: baseline is (n, queries, seed, shards, policy, chords, \
             edges, dirty budget, bound) = {:?}, current is {:?} (regenerate the baseline, see \
             docs/OPERATIONS.md)",
            config(baseline),
            config(current)
        ));
        return (failures, warnings);
    }
    let same_fraction = |a: f64, b: f64| (a - b).abs() < 1e-9;
    for want in &baseline.fractions {
        let tag = format!("fraction {:.3}", want.fraction);
        let Some(got) = current.fractions.iter().find(|f| same_fraction(f.fraction, want.fraction))
        else {
            failures.push(format!("{tag} missing from the current run"));
            continue;
        };
        // The deterministic integer record of the fraction: fault selection,
        // invalidation, repair economy, and epoch outcomes, gated exactly.
        let exact: [(&str, u64, u64); 13] = [
            ("faults_requested", want.faults_requested as u64, got.faults_requested as u64),
            ("faults_applied", want.faults_applied as u64, got.faults_applied as u64),
            ("removals", want.removals as u64, got.removals as u64),
            ("inflations", want.inflations as u64, got.inflations as u64),
            ("dirty_nodes", want.dirty_nodes as u64, got.dirty_nodes as u64),
            ("repair_rows", want.repair_rows, got.repair_rows),
            ("full_rebuild_rows", want.full_rebuild_rows, got.full_rebuild_rows),
            (
                "clusters_reanchored",
                want.clusters_reanchored as u64,
                got.clusters_reanchored as u64,
            ),
            ("balls_repaired", want.balls_repaired as u64, got.balls_repaired as u64),
            ("degraded_delivered", want.degraded_delivered, got.degraded_delivered),
            ("degraded_failed", want.degraded_failed, got.degraded_failed),
            ("degraded_violations", want.degraded_violations, got.degraded_violations),
            ("restored_pairs", want.restored_pairs, got.restored_pairs),
        ];
        for (name, w, g) in exact {
            if w != g {
                failures.push(format!(
                    "{tag}: {name} changed {w} → {g} — the seeded chaos run is deterministic, \
                     so this is a behaviour change"
                ));
            }
        }
        let stretches = [
            ("pre_worst_stretch", want.pre_worst_stretch, got.pre_worst_stretch),
            ("degraded_worst_stretch", want.degraded_worst_stretch, got.degraded_worst_stretch),
            ("post_worst_stretch", want.post_worst_stretch, got.post_worst_stretch),
        ];
        for (name, w, g) in stretches {
            if g > w * (1.0 + DETERMINISTIC_SLACK) {
                failures.push(format!("{tag}: {name} regressed {w:.3} → {g:.3}"));
            }
        }
        if got.degraded_success_rate + 1e-6 < want.degraded_success_rate {
            failures.push(format!(
                "{tag}: degraded success rate dropped {:.4} → {:.4}",
                want.degraded_success_rate, got.degraded_success_rate
            ));
        }
        if got.repair_epoch_ns > want.repair_epoch_ns.saturating_mul(4) {
            warnings.push(format!(
                "{tag}: repair wall grew {} → {} ns (host-dependent, not gating)",
                want.repair_epoch_ns, got.repair_epoch_ns
            ));
        }
        // The two acceptance invariants, independent of the baseline's word.
        if got.post_violations != 0 || got.post_failed != 0 {
            failures.push(format!(
                "{tag}: post-repair epoch is not clean ({} violations, {} delivery failures) — \
                 repair did not restore the proven ceiling",
                got.post_violations, got.post_failed
            ));
        }
        if got.repair_rows as f64 > REPAIR_ROW_BUDGET * got.full_rebuild_rows as f64 {
            failures.push(format!(
                "{tag}: repair recomputed {} rows, over {:.0}% of the {}-row full rebuild",
                got.repair_rows,
                100.0 * REPAIR_ROW_BUDGET,
                got.full_rebuild_rows
            ));
        }
    }
    for got in &current.fractions {
        if !baseline.fractions.iter().any(|f| same_fraction(f.fraction, got.fraction)) {
            failures.push(format!(
                "fraction {:.3} is not in the baseline — regenerate ci/BENCH_chaos.json to \
                 gate it",
                got.fraction
            ));
        }
    }
    (failures, warnings)
}

/// A minimal JSON value: just enough structure for the baseline and
/// telemetry artifacts (used by `check_serve_baseline` and
/// `check_telemetry`; the workspace vendors no serde).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A number (every JSON number parses as `f64`).
    Number(f64),
    /// A string without escape sequences.
    String(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object, fields in document order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax problem.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser { bytes: text.as_bytes(), at: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.at));
        }
        Ok(v)
    }

    /// Looks up `key` on an object, failing on a missing key or a non-object.
    ///
    /// # Errors
    ///
    /// Returns a description of what was expected.
    pub fn field(&self, key: &str) -> Result<&JsonValue, String> {
        if !matches!(self, JsonValue::Object(_)) {
            return Err(format!("expected an object, found {self:?}"));
        }
        self.field_opt(key).ok_or_else(|| format!("missing field \"{key}\""))
    }

    /// Optional-field lookup (`None` on a missing key *or* a non-object),
    /// used for the verify-mode fields older baselines predate.
    pub fn field_opt(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an array.
    ///
    /// # Errors
    ///
    /// Fails on any other variant.
    pub fn as_array(&self) -> Result<&[JsonValue], String> {
        match self {
            JsonValue::Array(items) => Ok(items),
            other => Err(format!("expected an array, found {other:?}")),
        }
    }

    /// The value as an owned string.
    ///
    /// # Errors
    ///
    /// Fails on any other variant.
    pub fn as_string(&self) -> Result<String, String> {
        match self {
            JsonValue::String(s) => Ok(s.clone()),
            other => Err(format!("expected a string, found {other:?}")),
        }
    }

    /// The value as a float.
    ///
    /// # Errors
    ///
    /// Fails on any other variant.
    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            JsonValue::Number(x) => Ok(*x),
            other => Err(format!("expected a number, found {other:?}")),
        }
    }

    /// The value as a non-negative integer.
    ///
    /// # Errors
    ///
    /// Fails on non-numbers, negatives, and fractional values.
    pub fn as_u64(&self) -> Result<u64, String> {
        let x = self.as_f64()?;
        if x < 0.0 || x.fract() != 0.0 {
            return Err(format!("expected a non-negative integer, found {x}"));
        }
        Ok(x as u64)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes.get(self.at).copied().ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != c {
            return Err(format!(
                "expected '{}' at byte {}, found '{}'",
                c as char, self.at, got as char
            ));
        }
        self.at += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(JsonValue::String(self.string()?)),
            _ => self.number(),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.at += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.at += 1,
                b'}' => {
                    self.at += 1;
                    return Ok(JsonValue::Object(fields));
                }
                other => return Err(format!("expected ',' or '}}', found '{}'", other as char)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.at += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.at += 1,
                b']' => {
                    self.at += 1;
                    return Ok(JsonValue::Array(items));
                }
                other => return Err(format!("expected ',' or ']', found '{}'", other as char)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.at;
        while self.at < self.bytes.len() && self.bytes[self.at] != b'"' {
            if self.bytes[self.at] == b'\\' {
                return Err("escape sequences are not supported".to_string());
            }
            self.at += 1;
        }
        if self.at == self.bytes.len() {
            return Err("unterminated string".to_string());
        }
        let s = std::str::from_utf8(&self.bytes[start..self.at])
            .map_err(|e| e.to_string())?
            .to_string();
        self.at += 1;
        Ok(s)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        let start = self.at;
        while self.at < self.bytes.len()
            && matches!(self.bytes[self.at], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("malformed number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServeBaseline {
        ServeBaseline {
            n: 600,
            queries_per_workload: 20_000,
            seed: 42,
            stretch_samples: 2000,
            cache_rows: 16,
            verify_mode: "full".into(),
            shards: 4,
            shard_policy: "hash".into(),
            build_rows_computed: 2442,
            peak_resident_rows: 16,
            verify_rows_computed: 1176,
            distinct_destinations: 588,
            worker_sweep: vec![
                SweepPoint { workers: 1, queries_per_sec: 400_000.0, verify_rows: 1100 },
                SweepPoint { workers: 8, queries_per_sec: 1_900_000.0, verify_rows: 1100 },
            ],
            schemes: vec![
                SchemeBaseline {
                    scheme: "stretch6".into(),
                    table_bytes: 2_000_000,
                    worst_node_bits: 51_000,
                    worst_sampled_stretch: 3.806,
                    min_queries_per_sec: 650_000.0,
                    verified_queries: 100_000,
                    verify_violations: 0,
                    worst_verified_stretch: 3.806,
                },
                SchemeBaseline {
                    scheme: "exstretch".into(),
                    table_bytes: 2_600_000,
                    worst_node_bits: 63_000,
                    worst_sampled_stretch: 9.576,
                    min_queries_per_sec: 300_000.0,
                    verified_queries: 100_000,
                    verify_violations: 0,
                    worst_verified_stretch: 10.4,
                },
            ],
        }
    }

    #[test]
    fn json_roundtrip_is_lossless_enough_to_compare_clean() {
        let b = sample();
        let parsed = ServeBaseline::from_json(&b.to_json()).unwrap();
        assert_eq!(parsed.n, b.n);
        assert_eq!(parsed.build_rows_computed, b.build_rows_computed);
        assert_eq!(parsed.schemes.len(), 2);
        assert_eq!(parsed.shards, b.shards);
        assert_eq!(parsed.shard_policy, b.shard_policy);
        assert_eq!(parsed.verify_rows_computed, b.verify_rows_computed);
        assert_eq!(parsed.worker_sweep, b.worker_sweep);
        let (failures, warnings) = compare(&b, &parsed);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(warnings.is_empty(), "{warnings:?}");
    }

    #[test]
    fn regressions_fail_and_throughput_only_warns() {
        let base = sample();
        let mut cur = sample();
        cur.schemes[0].table_bytes = (base.schemes[0].table_bytes as f64 * 1.05) as u64;
        cur.schemes[1].worst_sampled_stretch = base.schemes[1].worst_sampled_stretch * 1.2;
        cur.schemes[0].min_queries_per_sec = 1000.0;
        cur.build_rows_computed = base.build_rows_computed * 2;
        let (failures, warnings) = compare(&base, &cur);
        assert_eq!(failures.len(), 3, "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("table bytes")));
        assert!(failures.iter().any(|f| f.contains("stretch")));
        assert!(failures.iter().any(|f| f.contains("oracle rows")));
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("throughput"));
    }

    #[test]
    fn small_drift_inside_tolerance_passes() {
        let base = sample();
        let mut cur = sample();
        cur.build_rows_computed += 4; // concurrent connectivity-probe race
        cur.schemes[0].table_bytes += 1;
        let (failures, _) = compare(&base, &cur);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn verify_regressions_are_hard_failures() {
        let base = sample();

        let mut cur = sample();
        cur.schemes[0].verify_violations = 3;
        let (failures, _) = compare(&base, &cur);
        assert!(failures.iter().any(|f| f.contains("exceeded the proven stretch bound")));

        let mut cur = sample();
        cur.schemes[0].verified_queries = 99_000;
        let (failures, _) = compare(&base, &cur);
        assert!(failures.iter().any(|f| f.contains("coverage drifted")), "{failures:?}");

        let mut cur = sample();
        cur.schemes[1].worst_verified_stretch = base.schemes[1].worst_verified_stretch * 1.1;
        let (failures, _) = compare(&base, &cur);
        assert!(failures.iter().any(|f| f.contains("worst verified stretch")), "{failures:?}");

        let mut cur = sample();
        cur.verify_rows_computed = base.verify_rows_computed * 2;
        let (failures, _) = compare(&base, &cur);
        assert!(failures.iter().any(|f| f.contains("per-shard bucket")), "{failures:?}");

        let mut cur = sample();
        cur.distinct_destinations += 1;
        let (failures, _) = compare(&base, &cur);
        assert!(failures.iter().any(|f| f.contains("streams drifted")), "{failures:?}");

        // With verification off on both sides the verify fields are inert.
        let mut base = sample();
        let mut cur = sample();
        for b in [&mut base, &mut cur] {
            b.verify_mode = "off".into();
            for s in &mut b.schemes {
                s.verified_queries = 0;
                s.worst_verified_stretch = 0.0;
            }
        }
        cur.schemes[0].verified_queries = 77; // nonsense, but not gated
        let (failures, _) = compare(&base, &cur);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn worker_sweep_regressions_gate_rows_hard_and_throughput_soft() {
        let base = sample();

        let mut cur = sample();
        cur.worker_sweep[1].verify_rows = base.worker_sweep[1].verify_rows * 3;
        let (failures, _) = compare(&base, &cur);
        assert!(failures.iter().any(|f| f.contains("growing with")), "{failures:?}");

        let mut cur = sample();
        cur.worker_sweep.pop();
        let (failures, _) = compare(&base, &cur);
        assert!(failures.iter().any(|f| f.contains("sweep point")), "{failures:?}");

        let mut cur = sample();
        cur.worker_sweep[0].queries_per_sec = 10.0;
        let (failures, warnings) = compare(&base, &cur);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(warnings.iter().any(|w| w.contains("sweep at 1 workers")), "{warnings:?}");
    }

    #[test]
    fn pre_verification_baselines_parse_with_off_defaults() {
        let mut b = sample();
        b.verify_mode = "off".into();
        b.shards = 0;
        b.shard_policy = "none".into();
        b.verify_rows_computed = 0;
        b.distinct_destinations = 0;
        b.worker_sweep.clear();
        for s in &mut b.schemes {
            s.verified_queries = 0;
            s.verify_violations = 0;
            s.worst_verified_stretch = 0.0;
        }
        // Strip the verify and shard fields from the JSON, mimicking an old
        // artifact (the sweep array spans three fixed lines).
        let json: String = b
            .to_json()
            .lines()
            .filter(|l| {
                ![
                    "verify_mode",
                    "\"shards\"",
                    "shard_policy",
                    "verify_rows_computed",
                    "distinct_destinations",
                    "worker_sweep",
                    "  ],",
                ]
                .iter()
                .any(|needle| l.contains(needle))
            })
            .map(|l| {
                let l = match l.find(", \"verified_queries\"") {
                    Some(at) => {
                        format!("{}}}{}", &l[..at], if l.ends_with(',') { "," } else { "" })
                    }
                    None => l.to_string(),
                };
                format!("{l}\n")
            })
            .collect();
        let parsed = ServeBaseline::from_json(&json).unwrap();
        assert_eq!(parsed.verify_mode, "off");
        assert_eq!(parsed.schemes[0].verified_queries, 0);
        let (failures, _) = compare(&b, &parsed);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn configuration_mismatch_is_a_hard_failure() {
        for mutate in [
            (|b: &mut ServeBaseline| b.n = 20_000) as fn(&mut ServeBaseline),
            |b| b.seed = 7,
            |b| b.stretch_samples = 500,
            |b| b.cache_rows = 400,
            |b| b.verify_mode = "off".into(),
            |b| b.shards = 8,
            |b| b.shard_policy = "range".into(),
        ] {
            let base = sample();
            let mut cur = sample();
            mutate(&mut cur);
            let (failures, _) = compare(&base, &cur);
            assert!(failures[0].contains("configuration mismatch"), "{failures:?}");
        }
    }

    #[test]
    fn missing_scheme_is_a_hard_failure_in_both_directions() {
        let base = sample();
        let mut cur = sample();
        cur.schemes.pop();
        let (failures, _) = compare(&base, &cur);
        assert!(failures.iter().any(|f| f.contains("missing")));

        // A scheme the baseline does not know about must not pass ungated.
        let mut base = sample();
        base.schemes.pop();
        let cur = sample();
        let (failures, _) = compare(&base, &cur);
        assert!(failures.iter().any(|f| f.contains("not in the baseline")), "{failures:?}");
    }

    #[test]
    fn malformed_json_is_rejected_with_context() {
        assert!(ServeBaseline::from_json("{").is_err());
        assert!(ServeBaseline::from_json("{}").unwrap_err().contains("missing field"));
        assert!(ServeBaseline::from_json("{\"n\": -1}").is_err());
    }

    fn chaos_sample() -> ChaosBaseline {
        ChaosBaseline {
            n: 600,
            queries_per_epoch: 4000,
            seed: 42,
            workers: 4,
            shards: 4,
            shard_policy: "hash".into(),
            chords: 1800,
            edge_count: 2400,
            dirty_row_budget: 264,
            bound: 140,
            fractions: vec![
                ChaosFraction {
                    fraction: 0.02,
                    faults_requested: 48,
                    faults_applied: 48,
                    removals: 32,
                    inflations: 16,
                    dirty_nodes: 70,
                    repair_rows: 110,
                    full_rebuild_rows: 1200,
                    clusters_reanchored: 9,
                    balls_repaired: 70,
                    repair_epoch_ns: 1_000_000,
                    pre_worst_stretch: 9.5,
                    degraded_delivered: 3941,
                    degraded_failed: 59,
                    degraded_violations: 3,
                    degraded_worst_stretch: 22.0,
                    degraded_success_rate: 0.985_25,
                    restored_pairs: 41,
                    post_worst_stretch: 9.8,
                    post_violations: 0,
                    post_failed: 0,
                },
                ChaosFraction {
                    fraction: 0.05,
                    faults_requested: 120,
                    faults_applied: 117,
                    removals: 78,
                    inflations: 39,
                    dirty_nodes: 128,
                    repair_rows: 231,
                    full_rebuild_rows: 1200,
                    clusters_reanchored: 17,
                    balls_repaired: 128,
                    repair_epoch_ns: 2_000_000,
                    pre_worst_stretch: 9.5,
                    degraded_delivered: 3800,
                    degraded_failed: 200,
                    degraded_violations: 12,
                    degraded_worst_stretch: 31.0,
                    degraded_success_rate: 0.95,
                    restored_pairs: 150,
                    post_worst_stretch: 10.1,
                    post_violations: 0,
                    post_failed: 0,
                },
            ],
        }
    }

    #[test]
    fn chaos_json_roundtrips_and_compares_clean() {
        let b = chaos_sample();
        let parsed = ChaosBaseline::from_json(&b.to_json()).unwrap();
        assert_eq!(parsed.n, b.n);
        assert_eq!(parsed.bound, b.bound);
        assert_eq!(parsed.fractions.len(), 2);
        assert_eq!(parsed.fractions[1].repair_rows, 231);
        let (failures, warnings) = compare_chaos(&b, &parsed);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(warnings.is_empty(), "{warnings:?}");
    }

    #[test]
    fn chaos_kind_discriminator_is_mandatory() {
        let without_kind: String = chaos_sample()
            .to_json()
            .lines()
            .filter(|l| !l.contains("\"kind\""))
            .fold(String::new(), |mut acc, l| {
                acc.push_str(l);
                acc.push('\n');
                acc
            });
        assert!(ChaosBaseline::from_json(&without_kind).unwrap_err().contains("kind"));
        // A serve artifact must not parse as a chaos one.
        assert!(ChaosBaseline::from_json(&sample().to_json()).is_err());
    }

    #[test]
    fn chaos_determinism_drift_is_a_hard_failure() {
        let base = chaos_sample();

        let mut cur = chaos_sample();
        cur.fractions[1].repair_rows += 1;
        let (failures, _) = compare_chaos(&base, &cur);
        assert!(failures.iter().any(|f| f.contains("repair_rows changed")), "{failures:?}");

        let mut cur = chaos_sample();
        cur.fractions[0].degraded_failed = 60;
        let (failures, _) = compare_chaos(&base, &cur);
        assert!(failures.iter().any(|f| f.contains("degraded_failed")), "{failures:?}");

        let mut cur = chaos_sample();
        cur.fractions[0].degraded_worst_stretch *= 1.2;
        let (failures, _) = compare_chaos(&base, &cur);
        assert!(failures.iter().any(|f| f.contains("degraded_worst_stretch")), "{failures:?}");

        let mut cur = chaos_sample();
        cur.fractions.pop();
        let (failures, _) = compare_chaos(&base, &cur);
        assert!(failures.iter().any(|f| f.contains("missing from the current run")));

        let mut base_short = chaos_sample();
        base_short.fractions.pop();
        let cur = chaos_sample();
        let (failures, _) = compare_chaos(&base_short, &cur);
        assert!(failures.iter().any(|f| f.contains("not in the baseline")), "{failures:?}");

        let mut cur = chaos_sample();
        cur.seed = 7;
        let (failures, _) = compare_chaos(&base, &cur);
        assert!(failures[0].contains("configuration mismatch"), "{failures:?}");
    }

    #[test]
    fn chaos_acceptance_invariants_bind_even_with_a_complicit_baseline() {
        // A baseline that itself records a dirty post-repair epoch or a
        // blown repair budget must still fail the current run: the
        // invariants are re-checked on the current values.
        let mut base = chaos_sample();
        base.fractions[0].post_violations = 5;
        base.fractions[0].repair_rows = 900;
        let mut cur = base.clone();
        cur.fractions[0].post_violations = 5;
        cur.fractions[0].repair_rows = 900;
        let (failures, _) = compare_chaos(&base, &cur);
        assert!(failures.iter().any(|f| f.contains("post-repair epoch is not clean")));
        assert!(failures.iter().any(|f| f.contains("full rebuild")), "{failures:?}");
    }

    #[test]
    fn chaos_repair_wall_only_warns() {
        let base = chaos_sample();
        let mut cur = chaos_sample();
        cur.fractions[0].repair_epoch_ns = base.fractions[0].repair_epoch_ns * 10;
        let (failures, warnings) = compare_chaos(&base, &cur);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(warnings.iter().any(|w| w.contains("repair wall")), "{warnings:?}");
    }
}
