//! The CI baseline artifacts and the tables that gate them.
//!
//! `serve_throughput` and `serve_net_throughput` write a serve artifact
//! (`BENCH_serve*.json`); `chaos_sweep` writes a chaos artifact
//! (`BENCH_chaos.json`, marked `"kind": "chaos"`).  Each is a [`JsonValue`]
//! document, and one table per kind, [`SERVE`] or [`CHAOS`], names every
//! field it may carry together with the [`Rule`] that gates it.  CI
//! regenerates the artifacts at fixed seeds and [`compare`]s each with its
//! checked-in seed under `ci/` (the `check_serve_baseline` binary);
//! [`telemetry_mismatches`] cross-checks a run's telemetry export against its
//! artifact (the `check_telemetry` binary, and each bench binary before it
//! exits).
//!
//! Table sizes, stretch, oracle rows, fault selection and the repair economy
//! are deterministic given the seeds, so their rules fail the gate; wall-clock
//! quantities belong to the host and only warn.

use crate::fail;
pub use rtr_graph::json::JsonValue;

/// Relative slack on the deterministic quantities (table bytes, stretch).
/// They are bit-reproducible given the seeds, so the slack only absorbs
/// float formatting; anything beyond it is a real regression.
pub const DETERMINISTIC_SLACK: f64 = 0.02;

/// Relative slack on the verify-row counts; a 10% jump means the per-shard
/// verify buckets stopped sharing rows.  Build rows take no slack: they
/// repeat exactly given the seeds and cache size (strong connectivity is
/// decided on the graph, reading no rows, and a prefetch window is installed
/// in key order), so `build_rows_computed` is gated `Exact`.
pub const ROWS_SLACK: f64 = 0.10;

/// Throughput warns below this fraction of the baseline; it is a property
/// of the host, never a failure.
pub const THROUGHPUT_WARN_FRACTION: f64 = 0.5;

/// An incremental repair may recompute at most this share of the oracle rows
/// a from-scratch rebuild pays.  `chaos_sweep` enforces it in-binary and
/// [`CHAOS`] again on the current artifact, whatever the baseline says.
pub const REPAIR_ROW_BUDGET: f64 = 0.25;

/// How a [`Gate`] checks the current run's value of its field against the
/// baseline's.
#[derive(Debug, Clone, Copy)]
pub enum Rule {
    /// Part of the run's configuration: any difference fails the pair before
    /// anything else is gated, since the runs are not comparable.
    Config,
    /// Provenance, or a record's key: never gated.
    Recorded,
    /// Must equal the baseline (numbers by value).
    Exact,
    /// Fails above `baseline · (1 + slack)`.
    AtMost(f64),
    /// Fails below `baseline − tolerance`.
    AtLeast(f64),
    /// Fails unless the current value is 0, whatever the baseline says.
    Zero,
    /// Fails when the current value exceeds `share` of the current record's
    /// `sibling` field, whatever the baseline says.
    ShareOf(&'static str, f64),
    /// Warns below `baseline · fraction`.
    WarnBelow(f64),
    /// Warns above `baseline · factor`.
    WarnAbove(f64),
    /// The inner rule, applied only when the run verified: its `verify_mode`
    /// is not `off`.
    Verified(&'static Rule),
    /// An array of records, each matched to the other side's by its `key`
    /// field and gated by the `gates` table.  A record present on only one
    /// side fails.
    Records(&'static str, &'static [Gate]),
}

/// One row of a gate table: an artifact field, its rule, and what a breach
/// of the rule means.  A field may have more than one row.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// The field's name.
    pub field: &'static str,
    /// How it is gated.
    pub rule: Rule,
    /// What a breach of the rule means, or for an ungated field what it
    /// records; failure and warning messages end with it.
    pub why: &'static str,
}

const fn gate(field: &'static str, rule: Rule, why: &'static str) -> Gate {
    Gate { field, rule, why }
}

use Rule::*;

const DRIFT: &str = "the seeded run is deterministic, so this is a behaviour change";
const HOST: &str = "host-dependent, not gating";

/// The serve artifact (`serve_throughput`, `serve_net_throughput`).
pub const SERVE: &[Gate] = &[
    gate("n", Config, "node count"),
    gate("queries_per_workload", Config, "queries per workload (the fleet total over TCP)"),
    gate("seed", Config, "master seed: graph, names, workloads"),
    gate("stretch_samples", Config, "stretch samples per run"),
    gate("cache_rows", Config, "build-oracle row cache: moves both row counts"),
    gate("verify_mode", Config, "off or full"),
    gate("shards", Config, "destination shards"),
    gate("build_rows_computed", Exact, "the build's row sweeps changed"),
    gate("build_rows_computed", WarnBelow(0.5), "the build got cheaper: refresh the baseline"),
    gate("peak_resident_rows", AtMost(1.0), "the build oracle holds over twice its rows"),
    gate("verify_rows_computed", AtMost(ROWS_SLACK), "per-shard verify buckets stopped sharing"),
    gate("distinct_destinations", Exact, "the request streams drifted"),
    gate("worker_sweep", Records("workers", SWEEP), "the mix workload at each worker count"),
    gate("schemes", Records("scheme", SCHEMES), "per-scheme aggregates over every workload"),
];

const SWEEP: &[Gate] = &[
    gate("workers", Recorded, "the point's key"),
    gate("queries_per_sec", WarnBelow(THROUGHPUT_WARN_FRACTION), HOST),
    gate("verify_rows", AtMost(ROWS_SLACK), "verify rows are growing with the worker count again"),
];

const SCHEMES: &[Gate] = &[
    gate("scheme", Recorded, "the record's key"),
    gate("table_bytes", AtMost(DETERMINISTIC_SLACK), "the routing tables grew"),
    gate("worst_node_bits", AtMost(DETERMINISTIC_SLACK), "the largest node table grew"),
    gate("worst_sampled_stretch", AtMost(DETERMINISTIC_SLACK), "sampled routes got longer"),
    gate("min_queries_per_sec", WarnBelow(THROUGHPUT_WARN_FRACTION), HOST),
    gate("verified_queries", Verified(&Exact), "verification coverage drifted"),
    gate("verify_violations", Verified(&Zero), "a trip exceeded the proven stretch bound"),
    gate("worst_verified_stretch", Verified(&AtMost(DETERMINISTIC_SLACK)), "routes got longer"),
];

/// The chaos artifact (`chaos_sweep`).
pub const CHAOS: &[Gate] = &[
    gate("kind", Config, "the artifact kind"),
    gate("n", Config, "node count"),
    gate("queries_per_epoch", Config, "queries per verified epoch"),
    gate("seed", Config, "master seed: graph, names, fault plans, workloads"),
    gate("workers", Recorded, "provenance: every gated number is worker-independent"),
    gate("shards", Config, "destination shards"),
    gate("chords", Config, "chord edges, the fault candidates"),
    gate("edge_count", Config, "the fraction denominator"),
    gate("dirty_row_budget", Config, "the fault selection's impact budget"),
    gate("bound", Config, "the §3 proven ceiling every epoch is verified against"),
    gate("fractions", Records("fraction", FRACTIONS), "one record per failure fraction"),
];

const FRACTIONS: &[Gate] = &[
    gate("fraction", Recorded, "the record's key"),
    gate("faults_requested", Exact, DRIFT),
    gate("faults_applied", Exact, DRIFT),
    gate("removals", Exact, DRIFT),
    gate("inflations", Exact, DRIFT),
    gate("dirty_nodes", Exact, DRIFT),
    gate("repair_rows", Exact, DRIFT),
    gate(
        "repair_rows",
        ShareOf("full_rebuild_rows", REPAIR_ROW_BUDGET),
        "the repair is no longer incremental",
    ),
    gate("full_rebuild_rows", Exact, DRIFT),
    gate("clusters_reanchored", Exact, DRIFT),
    gate("repair_epoch_ns", WarnAbove(4.0), HOST),
    gate("pre_worst_stretch", AtMost(DETERMINISTIC_SLACK), "healthy routes got longer"),
    gate("degraded_delivered", Exact, DRIFT),
    gate("degraded_failed", Exact, DRIFT),
    gate("degraded_violations", Exact, DRIFT),
    gate("degraded_worst_stretch", AtMost(DETERMINISTIC_SLACK), "degraded routes got longer"),
    gate("degraded_success_rate", AtLeast(1e-6), "the fault window delivers less"),
    gate("restored_pairs", Exact, DRIFT),
    gate("post_worst_stretch", AtMost(DETERMINISTIC_SLACK), "repaired routes got longer"),
    gate("post_violations", Zero, "repair did not restore the proven ceiling"),
    gate("post_failed", Zero, "the repaired plane failed to deliver"),
];

/// One telemetry cross-check: a value of a `Registry::to_json` export, and
/// the artifact tally it must equal, or reach when not `exact`.  The
/// counters are incremented by the code paths that feed the artifact, so
/// any disagreement means the observability plane misreports.
#[derive(Debug, Clone, Copy)]
pub struct CrossCheck {
    /// The export's section, metric name and, below the name, member; a
    /// metric never touched is never registered and reads 0.
    pub export: &'static [&'static str],
    /// Whether the export must equal the tally (or only reach it).
    pub exact: bool,
    /// The artifact's side.
    pub artifact: Tally,
}

/// The artifact's side of a [`CrossCheck`].
#[derive(Debug, Clone, Copy)]
pub enum Tally {
    /// A top-level field.
    Field(&'static str),
    /// A field summed over an array of records.
    Sum(&'static str, &'static str),
    /// The number of records in an array.
    Count(&'static str),
}

/// The serve artifact's telemetry cross-checks.
pub const SERVE_TELEMETRY: &[CrossCheck] = &[
    CrossCheck {
        export: &["counters", "oracle.verify.rows_computed"],
        exact: true,
        artifact: Tally::Field("verify_rows_computed"),
    },
    CrossCheck {
        export: &["gauges", "serve.distinct_destinations", "value"],
        exact: true,
        artifact: Tally::Field("distinct_destinations"),
    },
];

/// The chaos artifact's telemetry cross-checks.  The histogram observes the
/// repair clock slightly after the artifact snapshots it, so its sum can
/// only be the larger.
pub const CHAOS_TELEMETRY: &[CrossCheck] = &[
    CrossCheck {
        export: &["counters", "repair.rows_recomputed"],
        exact: true,
        artifact: Tally::Sum("fractions", "repair_rows"),
    },
    CrossCheck {
        export: &["counters", "repair.clusters_reanchored"],
        exact: true,
        artifact: Tally::Sum("fractions", "clusters_reanchored"),
    },
    CrossCheck {
        export: &["histograms", "repair.epoch_ns", "count"],
        exact: true,
        artifact: Tally::Count("fractions"),
    },
    CrossCheck {
        export: &["histograms", "repair.epoch_ns", "sum_ns"],
        exact: false,
        artifact: Tally::Sum("fractions", "repair_epoch_ns"),
    },
];

/// The name, gate table and telemetry cross-checks of `artifact`'s kind: its
/// `kind` field, absent on serve artifacts.
fn kind(
    artifact: &JsonValue,
) -> Result<(&'static str, &'static [Gate], &'static [CrossCheck]), String> {
    match artifact.field_opt("kind").map(JsonValue::as_string).transpose()?.as_deref() {
        None => Ok(("serve", SERVE, SERVE_TELEMETRY)),
        Some("chaos") => Ok(("chaos", CHAOS, CHAOS_TELEMETRY)),
        Some(other) => Err(format!("unknown artifact kind \"{other}\"")),
    }
}

/// Reads and parses the artifact at `path`.
///
/// # Errors
///
/// Returns the read or parse error, prefixed with `path`.
pub fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The outcome of a [`compare`].
#[derive(Debug, Default)]
pub struct Diff {
    /// Regressions CI fails on.
    pub failures: Vec<String>,
    /// Host-dependent observations CI only prints.
    pub warnings: Vec<String>,
}

/// Gates the `current` artifact against the `baseline` artifact under the
/// table of their kind.
///
/// # Errors
///
/// Returns why the pair cannot be compared: an unknown kind or two kinds, a
/// field the table does not name, a missing field, a value of the wrong
/// type, or two records with one key.
pub fn compare(baseline: &JsonValue, current: &JsonValue) -> Result<Diff, String> {
    let (name, gates, _) = kind(baseline)?;
    let (current_name, ..) = kind(current)?;
    if name != current_name {
        return Err(format!("a {name} baseline cannot gate a {current_name} run"));
    }
    named(gates, baseline, "")?;
    named(gates, current, "")?;
    let mut diff = Diff::default();
    let mut mismatched = Vec::new();
    for gate in gates.iter().filter(|g| matches!(g.rule, Config)) {
        let (want, got) = (baseline.field(gate.field)?, current.field(gate.field)?);
        if !same(want, got) {
            mismatched.push(format!("{} {want} → {got}", gate.field));
        }
    }
    if !mismatched.is_empty() {
        diff.failures.push(format!(
            "configuration mismatch: {} (the runs are not comparable; regenerate the baseline, \
             see docs/OPERATIONS.md)",
            mismatched.join(", ")
        ));
        return Ok(diff);
    }
    let verifying =
        !matches!(baseline.field_opt("verify_mode"), Some(JsonValue::String(m)) if m == "off");
    for gate in gates {
        diff.check(gate, gate.rule, baseline, current, "", verifying)?;
    }
    Ok(diff)
}

/// Fails on a field of `doc` that `gates` does not name; `at` prefixes the
/// message.
fn named(gates: &[Gate], doc: &JsonValue, at: &str) -> Result<(), String> {
    match doc.as_object()?.iter().find(|(name, _)| gates.iter().all(|g| g.field != name)) {
        Some((name, _)) => Err(format!("{at}field \"{name}\" is not in the gate table")),
        None => Ok(()),
    }
}

/// Numbers compare by value (`0.020000` is `0.02`), exactly over `u64`;
/// anything else structurally.
fn same(a: &JsonValue, b: &JsonValue) -> bool {
    match (a.as_u64(), b.as_u64(), a.as_f64(), b.as_f64()) {
        (Ok(x), Ok(y), _, _) => x == y,
        (_, _, Ok(x), Ok(y)) => x == y,
        _ => a == b,
    }
}

/// The record of `records` whose `key` field is `id`, if any.
fn find<'a>(
    records: &'a [JsonValue],
    key: &str,
    id: &JsonValue,
) -> Result<Option<&'a JsonValue>, String> {
    let mut found = None;
    for record in records {
        if same(record.field(key)?, id) && found.replace(record).is_some() {
            return Err(format!("two records have {key} = {id}"));
        }
    }
    Ok(found)
}

impl Diff {
    /// Applies `gates` to one pair of records; `at` prefixes messages.
    fn walk(
        &mut self,
        gates: &[Gate],
        want: &JsonValue,
        got: &JsonValue,
        at: &str,
        verifying: bool,
    ) -> Result<(), String> {
        named(gates, want, at)?;
        named(gates, got, at)?;
        for gate in gates {
            self.check(gate, gate.rule, want, got, at, verifying)?;
        }
        Ok(())
    }

    fn check(
        &mut self,
        gate: &Gate,
        rule: Rule,
        want_record: &JsonValue,
        got_record: &JsonValue,
        at: &str,
        verifying: bool,
    ) -> Result<(), String> {
        let Gate { field, why, .. } = *gate;
        let with_at = |e: String| format!("{at}{e}");
        let (want, got) =
            (want_record.field(field).map_err(with_at)?, got_record.field(field).map_err(with_at)?);
        let num = |v: &JsonValue| v.as_f64().map_err(|e| format!("{at}{field}: {e}"));
        match rule {
            Config | Recorded => {}
            Exact if !same(want, got) => {
                self.failures.push(format!("{at}{field} changed {want} → {got}: {why}"));
            }
            AtMost(slack) if num(got)? > num(want)? * (1.0 + slack) => {
                self.failures.push(format!(
                    "{at}{field} regressed {want} → {got}, beyond {:.0}% slack: {why}",
                    100.0 * slack
                ));
            }
            AtLeast(tolerance) if num(got)? < num(want)? - tolerance => {
                self.failures.push(format!("{at}{field} dropped {want} → {got}: {why}"));
            }
            Zero if num(got)? != 0.0 => {
                self.failures.push(format!("{at}{field} is {got}, not 0: {why}"));
            }
            ShareOf(sibling, share) => {
                let whole = got_record.field(sibling).map_err(with_at)?;
                if num(got)? > share * num(whole)? {
                    self.failures.push(format!(
                        "{at}{field} is {got}, over {:.0}% of {sibling} {whole}: {why}",
                        100.0 * share
                    ));
                }
            }
            WarnBelow(fraction) if num(got)? < num(want)? * fraction => {
                self.warnings.push(format!(
                    "{at}{field} fell {want} → {got}, under {fraction}× the baseline: {why}"
                ));
            }
            WarnAbove(factor) if num(got)? > num(want)? * factor => {
                self.warnings.push(format!(
                    "{at}{field} grew {want} → {got}, over {factor}× the baseline: {why}"
                ));
            }
            Verified(inner) if verifying => {
                self.check(gate, *inner, want_record, got_record, at, verifying)?;
            }
            Records(key, gates) => {
                let (wants, gots) = (want.as_array()?, got.as_array()?);
                for w in wants {
                    let id = w.field(key)?;
                    let tag = format!("{at}{field}[{key} = {id}]: ");
                    match find(gots, key, id)? {
                        Some(g) => self.walk(gates, w, g, &tag, verifying)?,
                        None => self.failures.push(format!("{tag}missing from the current run")),
                    }
                }
                for g in gots {
                    let id = g.field(key)?;
                    if find(wants, key, id)?.is_none() {
                        self.failures.push(format!(
                            "{at}{field}[{key} = {id}]: not in the baseline; regenerate it to \
                             gate this record"
                        ));
                    }
                }
            }
            _ => {}
        }
        Ok(())
    }
}

/// Cross-checks a telemetry export (`Registry::to_json`) against the
/// artifact of the same run, returning one message per disagreement.
///
/// # Errors
///
/// Returns why the pair cannot be checked: an unknown artifact kind, or a
/// section, member or artifact field a check reads is missing or malformed.
pub fn telemetry_mismatches(
    telemetry: &JsonValue,
    artifact: &JsonValue,
) -> Result<Vec<String>, String> {
    let mut mismatches = Vec::new();
    for check in kind(artifact)?.2 {
        let [section, name, members @ ..] = check.export else {
            unreachable!("an export path names a section and a metric")
        };
        let exported = match telemetry.field(section)?.field_opt(name) {
            None => 0,
            Some(metric) => members.iter().try_fold(metric, |v, m| v.field(m))?.as_u64()?,
        };
        let (tally, what) = match check.artifact {
            Tally::Field(field) => (artifact.field(field)?.as_u64()?, field.to_string()),
            Tally::Sum(records, field) => {
                let sum =
                    artifact.field(records)?.as_array()?.iter().try_fold(0u64, |sum, r| {
                        sum.checked_add(r.field(field)?.as_u64()?)
                            .ok_or_else(|| format!("summed {field} overflows"))
                    })?;
                (sum, format!("summed {records} {field}"))
            }
            Tally::Count(records) => {
                (artifact.field(records)?.as_array()?.len() as u64, format!("{records} count"))
            }
        };
        let agrees = if check.exact { exported == tally } else { exported >= tally };
        if !agrees {
            mismatches.push(format!(
                "telemetry {} = {exported} disagrees with the artifact's {what} = {tally}{}",
                check.export.join(" "),
                if check.exact { "" } else { " (it can only be larger)" }
            ));
        }
    }
    Ok(mismatches)
}

/// A bench binary's last gate: cross-checks its registry `export` against
/// the `artifact` it wrote, as CI's `check_telemetry` will, and exits
/// through [`fail`] on a disagreement.
pub fn require_telemetry_match(export: &str, artifact: &JsonValue) {
    let mismatches = JsonValue::parse(export)
        .and_then(|telemetry| telemetry_mismatches(&telemetry, artifact))
        .unwrap_or_else(|e| fail(format!("cannot cross-check the telemetry export: {e}")));
    if !mismatches.is_empty() {
        fail(mismatches.join("\nFAIL: "));
    }
    println!("telemetry cross-check ok");
}

#[cfg(test)]
mod tests {
    use super::*;

    const CI: [(&str, &str); 4] = [
        ("BENCH_serve.json", include_str!("../../../ci/BENCH_serve.json")),
        ("BENCH_serve_2000.json", include_str!("../../../ci/BENCH_serve_2000.json")),
        ("BENCH_serve_net.json", include_str!("../../../ci/BENCH_serve_net.json")),
        ("BENCH_chaos.json", include_str!("../../../ci/BENCH_chaos.json")),
    ];

    fn serve() -> JsonValue {
        JsonValue::parse(CI[0].1).unwrap()
    }

    fn chaos() -> JsonValue {
        JsonValue::parse(CI[3].1).unwrap()
    }

    /// The value at `path`: object keys and array indices separated by dots.
    fn at<'a>(doc: &'a mut JsonValue, path: &str) -> &'a mut JsonValue {
        path.split('.').fold(doc, |v, step| match v {
            JsonValue::Object(fields) => {
                &mut fields
                    .iter_mut()
                    .find(|(k, _)| k == step)
                    .unwrap_or_else(|| panic!("{step}"))
                    .1
            }
            JsonValue::Array(items) => &mut items[step.parse::<usize>().unwrap()],
            _ => panic!("{path}: {step} is below a scalar"),
        })
    }

    fn set(doc: &mut JsonValue, path: &str, value: impl Into<JsonValue>) {
        *at(doc, path) = value.into();
    }

    fn get(doc: &JsonValue, path: &str) -> f64 {
        at(&mut doc.clone(), path).as_f64().unwrap()
    }

    fn items<'a>(doc: &'a mut JsonValue, path: &str) -> &'a mut Vec<JsonValue> {
        match at(doc, path) {
            JsonValue::Array(items) => items,
            other => panic!("{path} is {other}"),
        }
    }

    fn diff(base: &JsonValue, cur: &JsonValue) -> Diff {
        compare(base, cur).unwrap()
    }

    fn fails_on(base: &JsonValue, cur: &JsonValue, needle: &str) -> bool {
        diff(base, cur).failures.iter().any(|f| f.contains(needle))
    }

    #[test]
    fn json_roundtrip_is_lossless_enough_to_compare_clean() {
        for (name, text) in CI {
            let doc = JsonValue::parse(text).unwrap();
            let written = JsonValue::parse(&doc.to_string()).unwrap();
            assert_eq!(written, doc, "{name}");
            for (base, cur) in [(&doc, &doc), (&doc, &written)] {
                let d = diff(base, cur);
                assert!(d.failures.is_empty() && d.warnings.is_empty(), "{name}: {d:?}");
            }
        }
    }

    #[test]
    fn regressions_fail_and_throughput_only_warns() {
        let base = serve();
        let mut cur = serve();
        set(&mut cur, "schemes.0.table_bytes", (get(&base, "schemes.0.table_bytes") * 1.05) as u64);
        set(
            &mut cur,
            "schemes.1.worst_sampled_stretch",
            get(&base, "schemes.1.worst_sampled_stretch") * 1.2,
        );
        set(&mut cur, "schemes.0.min_queries_per_sec", 1000.0);
        set(&mut cur, "build_rows_computed", 2 * 2424u64);
        let d = diff(&base, &cur);
        assert_eq!(d.failures.len(), 3, "{d:?}");
        assert!(d.failures[0].starts_with("build_rows_computed changed"), "{d:?}");
        assert!(d.failures[1].starts_with("schemes[scheme = \"stretch6\"]: table_bytes"), "{d:?}");
        assert!(d.failures[2].contains("\"exstretch\"]: worst_sampled_stretch"), "{d:?}");
        assert_eq!(d.warnings.len(), 1, "{d:?}");
        assert!(d.warnings[0].contains("min_queries_per_sec fell"), "{d:?}");
    }

    #[test]
    fn small_drift_inside_tolerance_passes() {
        let base = serve();
        let mut cur = serve();
        set(&mut cur, "verify_rows_computed", 1200 + 4u64); // drift inside ROWS_SLACK
        set(&mut cur, "schemes.0.table_bytes", get(&base, "schemes.0.table_bytes") as u64 + 1);
        set(&mut cur, "peak_resident_rows", 32u64);
        let d = diff(&base, &cur);
        assert!(d.failures.is_empty() && d.warnings.is_empty(), "{d:?}");
        // Build rows repeat exactly: one row of drift fails.
        set(&mut cur, "build_rows_computed", 2424 + 1u64);
        assert!(fails_on(&base, &cur, "build_rows_computed changed 2424 → 2425"));
    }

    #[test]
    fn verify_regressions_are_hard_failures() {
        let base = serve();
        for (path, value, needle) in [
            ("schemes.0.verify_violations", 3.0, "verify_violations is 3, not 0"),
            ("schemes.0.verified_queries", 99_000.0, "verified_queries changed"),
            ("schemes.1.worst_verified_stretch", 10.972_222 * 1.1, "worst_verified_stretch"),
            ("verify_rows_computed", 2400.0, "per-shard verify buckets"),
            ("distinct_destinations", 601.0, "streams drifted"),
        ] {
            let mut cur = serve();
            set(&mut cur, path, value);
            assert!(fails_on(&base, &cur, needle), "{path}: {:?}", diff(&base, &cur));
        }
        // With verification off on both sides the verify fields are inert.
        let mut base = serve();
        set(&mut base, "verify_mode", "off");
        let mut cur = base.clone();
        set(&mut cur, "schemes.0.verified_queries", 77u64);
        set(&mut cur, "schemes.0.verify_violations", 3u64);
        set(&mut cur, "schemes.2.worst_verified_stretch", 99.0);
        let d = diff(&base, &cur);
        assert!(d.failures.is_empty(), "{d:?}");
    }

    #[test]
    fn worker_sweep_regressions_gate_rows_hard_and_throughput_soft() {
        let base = serve();

        let mut cur = serve();
        set(&mut cur, "worker_sweep.4.verify_rows", 3 * 1200u64);
        assert!(fails_on(&base, &cur, "worker_sweep[workers = 16]: verify_rows regressed"));

        let mut cur = serve();
        items(&mut cur, "worker_sweep").pop();
        assert!(fails_on(&base, &cur, "worker_sweep[workers = 16]: missing from the current run"));

        let mut cur = serve();
        set(&mut cur, "worker_sweep.0.queries_per_sec", 10.0);
        let d = diff(&base, &cur);
        assert!(d.failures.is_empty(), "{d:?}");
        assert!(d.warnings.iter().any(|w| w.contains("[workers = 1]: queries_per_sec")), "{d:?}");
    }

    #[test]
    fn configuration_mismatch_is_a_hard_failure() {
        for (path, value) in [
            ("n", JsonValue::from(20_000u64)),
            ("queries_per_workload", 30_000u64.into()),
            ("seed", 7u64.into()),
            ("stretch_samples", 500u64.into()),
            ("cache_rows", 400u64.into()),
            ("verify_mode", "off".into()),
            ("shards", 8u64.into()),
        ] {
            let base = serve();
            let mut cur = serve();
            set(&mut cur, path, value);
            let d = diff(&base, &cur);
            assert_eq!(d.failures.len(), 1, "{d:?}");
            assert!(
                d.failures[0].starts_with(&format!("configuration mismatch: {path} ")),
                "{d:?}"
            );
        }
    }

    #[test]
    fn missing_scheme_is_a_hard_failure_in_both_directions() {
        let base = serve();
        let mut cur = serve();
        items(&mut cur, "schemes").pop();
        assert!(fails_on(&base, &cur, "[scheme = \"polystretch\"]: missing from the current run"));

        // A scheme the baseline does not know about must not pass ungated.
        let (base, cur) = (cur, base);
        assert!(fails_on(&base, &cur, "[scheme = \"polystretch\"]: not in the baseline"));
    }

    #[test]
    fn a_record_on_only_one_side_fails_in_either_direction() {
        for (doc, array, key, id) in [
            (serve(), "schemes", "scheme", JsonValue::from("stretch7")),
            (serve(), "worker_sweep", "workers", 32u64.into()),
            (chaos(), "fractions", "fraction", 0.2.into()),
        ] {
            let mut extra = doc.clone();
            let mut record = items(&mut extra, array)[0].clone();
            set(&mut record, key, id.clone());
            items(&mut extra, array).push(record);
            let tag = format!("{array}[{key} = {id}]: ");
            assert!(fails_on(&doc, &extra, &format!("{tag}not in the baseline")), "{tag}");
            assert!(fails_on(&extra, &doc, &format!("{tag}missing from the current run")), "{tag}");
        }
    }

    #[test]
    fn every_gate_trips_on_its_mutation() {
        // Every row of both tables, mutated on a checked-in baseline, fails or
        // warns as its rule says (a `Verified` rule only while verifying).
        // Record keys are left to the one-side test.
        fn rows(gates: &[Gate], at: &str, key: &str, out: &mut Vec<(String, Gate)>) {
            for gate in gates {
                match gate.rule {
                    Records(k, inner) => rows(inner, &format!("{at}{}.0.", gate.field), k, out),
                    _ if gate.field == key => {}
                    _ => out.push((format!("{at}{}", gate.field), *gate)),
                }
            }
        }
        let mut tested = 0;
        for (doc, gates) in [(serve(), SERVE), (chaos(), CHAOS)] {
            let mut all = Vec::new();
            rows(gates, "", "", &mut all);
            // A field another row gates `Exact` fails on every mutation too.
            let exact: Vec<String> = all
                .iter()
                .filter(|(_, g)| matches!(g.rule, Exact))
                .map(|(p, _)| p.clone())
                .collect();
            for (path, gate) in all {
                let (mut base, mut cur) = (doc.clone(), doc.clone());
                let bumped = match at(&mut cur, &path) {
                    JsonValue::String(s) => JsonValue::from(format!("{s}x")),
                    number => JsonValue::from(number.as_f64().unwrap() + 1.0),
                };
                let value = at(&mut cur, &path).as_f64().unwrap_or(0.0);
                let rule = match gate.rule {
                    Verified(inner) => *inner,
                    rule => rule,
                };
                let fails = match rule {
                    Config if gate.field == "kind" => {
                        set(&mut cur, &path, bumped);
                        assert!(compare(&base, &cur).is_err(), "{path}");
                        tested += 1;
                        continue;
                    }
                    Config | Exact => {
                        set(&mut cur, &path, bumped);
                        true
                    }
                    Recorded => {
                        set(&mut cur, &path, bumped);
                        false
                    }
                    AtMost(slack) => {
                        set(&mut cur, &path, value * (1.0 + slack) * 0.999);
                        assert!(diff(&base, &cur).failures.is_empty(), "{path} inside its slack");
                        set(&mut cur, &path, value * (1.0 + slack) * 1.01 + 1.0);
                        true
                    }
                    AtLeast(tolerance) => {
                        set(&mut cur, &path, value - tolerance / 2.0);
                        assert!(diff(&base, &cur).failures.is_empty(), "{path} inside tolerance");
                        set(&mut cur, &path, value - 2.0 * tolerance);
                        true
                    }
                    Zero => {
                        // A complicit baseline does not excuse the current run.
                        set(&mut base, &path, 1u64);
                        set(&mut cur, &path, 1u64);
                        true
                    }
                    ShareOf(sibling, share) => {
                        let whole = get(&cur, &path.replace(gate.field, sibling));
                        let over = (share * whole) as u64 + 1;
                        set(&mut base, &path, over);
                        set(&mut cur, &path, over);
                        true
                    }
                    WarnBelow(fraction) => {
                        set(&mut cur, &path, value * fraction * 0.9);
                        false
                    }
                    WarnAbove(factor) => {
                        set(&mut cur, &path, value * factor * 1.1 + 1.0);
                        false
                    }
                    Verified(_) | Records(..) => unreachable!("flattened above"),
                };
                let fails = fails || exact.contains(&path);
                let warns = matches!(rule, WarnBelow(_) | WarnAbove(_));
                let top = !path.contains('.');
                let needle = match rule {
                    Config => format!("configuration mismatch: {} ", gate.field),
                    _ if top => format!("{} ", gate.field),
                    _ => format!("]: {} ", gate.field),
                };
                let hit = |msgs: &[String]| {
                    msgs.iter()
                        .any(|m| if top { m.starts_with(&needle) } else { m.contains(&needle) })
                };
                let d = diff(&base, &cur);
                assert_eq!(d.failures.len(), usize::from(fails), "{path} ({rule:?}): {d:?}");
                assert_eq!(hit(&d.failures), fails, "{path} ({rule:?}): {d:?}");
                assert_eq!(d.warnings.len(), usize::from(warns), "{path} ({rule:?}): {d:?}");
                assert_eq!(hit(&d.warnings), warns, "{path} ({rule:?}): {d:?}");
                if let Verified(_) = gate.rule {
                    for side in [&mut base, &mut cur] {
                        set(side, "verify_mode", "off");
                    }
                    let d = diff(&base, &cur);
                    assert!(d.failures.is_empty() && d.warnings.is_empty(), "{path} off: {d:?}");
                }
                tested += 1;
            }
        }
        // Every row of the two tables but the two record arrays and their keys.
        assert_eq!(tested, 14 + 3 + 8 + 11 + 21 - 3 - 3);
    }

    #[test]
    fn gate_tables_reject_what_they_do_not_name() {
        let (serve, chaos) = (serve(), chaos());
        let mut unnamed = serve.clone();
        if let JsonValue::Object(fields) = &mut unnamed {
            fields.push(("verify_rows_budget".into(), 2400u64.into()));
        }
        let err = compare(&unnamed, &unnamed).unwrap_err();
        assert!(err.contains("field \"verify_rows_budget\" is not in the gate table"), "{err}");
        let mut unnamed = chaos.clone();
        if let JsonValue::Object(fields) = at(&mut unnamed, "fractions.1") {
            fields.push(("repair_ms".into(), 3u64.into()));
        }
        let err = compare(&chaos, &unnamed).unwrap_err();
        assert!(err.starts_with("fractions[fraction = 0.050000]: field \"repair_ms\""), "{err}");

        let mut missing = serve.clone();
        if let JsonValue::Object(fields) = at(&mut missing, "schemes.1") {
            fields.retain(|(k, _)| k != "worst_node_bits");
        }
        assert_eq!(
            compare(&serve, &missing).unwrap_err(),
            "schemes[scheme = \"exstretch\"]: missing field \"worst_node_bits\""
        );

        assert_eq!(
            compare(&serve, &chaos).unwrap_err(),
            "a serve baseline cannot gate a chaos run"
        );
        assert_eq!(
            compare(&chaos, &serve).unwrap_err(),
            "a chaos baseline cannot gate a serve run"
        );
        let mut unknown = chaos.clone();
        set(&mut unknown, "kind", "replay");
        assert_eq!(compare(&unknown, &unknown).unwrap_err(), "unknown artifact kind \"replay\"");

        let mut twice = serve.clone();
        let first = items(&mut twice, "schemes")[0].clone();
        items(&mut twice, "schemes").push(first);
        assert!(compare(&serve, &twice).unwrap_err().contains("two records have scheme"));

        let mut wrong_type = serve.clone();
        set(&mut wrong_type, "schemes.0.table_bytes", "big");
        assert!(compare(&serve, &wrong_type).unwrap_err().contains("table_bytes"));
    }

    #[test]
    fn malformed_json_is_rejected_with_context() {
        assert!(JsonValue::parse("{").is_err());
        let serve = serve();
        let empty = JsonValue::parse("{}").unwrap();
        assert!(compare(&empty, &serve).unwrap_err().contains("missing field"));
        let negative = JsonValue::parse("{\"n\": -1}").unwrap();
        assert!(compare(&negative, &negative).is_err());
        assert!(compare(&serve, &JsonValue::parse("[]").unwrap()).is_err());
    }

    #[test]
    fn chaos_json_roundtrips_and_compares_clean() {
        let doc = chaos();
        let text = doc.to_string();
        assert!(text.starts_with("{\n  \"kind\": \"chaos\",\n"));
        // The rewritten fraction keys still match the baseline's by value.
        let mut rewritten = JsonValue::parse(&text).unwrap();
        set(&mut rewritten, "fractions.0.fraction", 0.02);
        set(&mut rewritten, "fractions.2.degraded_success_rate", 0.98925);
        let d = diff(&doc, &rewritten);
        assert!(d.failures.is_empty() && d.warnings.is_empty(), "{d:?}");
    }

    #[test]
    fn chaos_kind_discriminator_is_mandatory() {
        let chaos = chaos();
        let mut without_kind = chaos.clone();
        if let JsonValue::Object(fields) = &mut without_kind {
            fields.retain(|(k, _)| k != "kind");
        }
        // Without its kind a chaos artifact reads as a serve one, whose table
        // names none of its fields, and it no longer pairs with a chaos run.
        assert!(compare(&without_kind, &without_kind)
            .unwrap_err()
            .contains("not in the gate table"));
        assert!(compare(&chaos, &without_kind).unwrap_err().contains("cannot gate a serve run"));
    }

    #[test]
    fn chaos_determinism_drift_is_a_hard_failure() {
        let base = chaos();
        for (path, value, needle) in [
            (
                "fractions.1.repair_rows",
                265.0,
                "[fraction = 0.050000]: repair_rows changed 264 → 265",
            ),
            ("fractions.0.degraded_failed", 31.0, "degraded_failed changed"),
            (
                "fractions.0.degraded_worst_stretch",
                8.542_683 * 1.2,
                "degraded_worst_stretch regressed",
            ),
        ] {
            let mut cur = chaos();
            set(&mut cur, path, value);
            assert!(fails_on(&base, &cur, needle), "{path}: {:?}", diff(&base, &cur));
        }

        let mut cur = chaos();
        items(&mut cur, "fractions").pop();
        assert!(fails_on(&base, &cur, "missing from the current run"));
        assert!(fails_on(&cur, &base, "not in the baseline"));

        let mut cur = chaos();
        set(&mut cur, "seed", 7u64);
        assert!(diff(&base, &cur).failures[0].starts_with("configuration mismatch: seed 42 → 7"));
    }

    #[test]
    fn chaos_acceptance_invariants_bind_even_with_a_complicit_baseline() {
        // A baseline that itself records a dirty post-repair epoch or a blown
        // repair budget must still fail the current run: the invariants are
        // checked on the current values.
        let mut base = chaos();
        for path in ["fractions.0.post_violations", "fractions.0.post_failed"] {
            set(&mut base, path, 5u64);
        }
        set(&mut base, "fractions.0.repair_rows", 900u64);
        let cur = base.clone();
        let d = diff(&base, &cur);
        assert_eq!(d.failures.len(), 3, "{d:?}");
        assert!(d.failures.iter().any(|f| f.contains("post_violations is 5, not 0")));
        assert!(d.failures.iter().any(|f| f.contains("post_failed is 5, not 0")));
        assert!(d
            .failures
            .iter()
            .any(|f| f.contains("repair_rows is 900, over 25% of full_rebuild_rows 1200")));
    }

    #[test]
    fn chaos_repair_wall_only_warns() {
        let base = chaos();
        let mut cur = chaos();
        set(&mut cur, "fractions.0.repair_epoch_ns", 1_245_138_790u64);
        let d = diff(&base, &cur);
        assert!(d.failures.is_empty(), "{d:?}");
        assert!(d.warnings.iter().any(|w| w.contains("repair_epoch_ns grew")), "{d:?}");
    }

    /// A registry export in `Registry::to_json`'s shape.
    fn export(
        counters: &[(&str, u64)],
        gauges: &[(&str, u64)],
        histograms: &[(&str, u64, u64)],
    ) -> JsonValue {
        JsonValue::object([
            ("counters", JsonValue::object(counters.iter().map(|&(k, v)| (k, v.into())))),
            (
                "gauges",
                JsonValue::object(gauges.iter().map(|&(k, v)| {
                    (k, JsonValue::object([("value", v.into()), ("high_water", v.into())]))
                })),
            ),
            (
                "histograms",
                JsonValue::object(histograms.iter().map(|&(k, count, sum)| {
                    (k, JsonValue::object([("count", count.into()), ("sum_ns", sum.into())]))
                })),
            ),
        ])
    }

    #[test]
    fn telemetry_mismatches_flags_every_cross_check() {
        let serve_export = |rows, distinct| {
            export(
                &[("oracle.verify.rows_computed", rows), ("serve.requests", 7)],
                &[("serve.distinct_destinations", distinct)],
                &[],
            )
        };
        let serve = serve();
        assert_eq!(telemetry_mismatches(&serve_export(1200, 600), &serve), Ok(vec![]));
        for (telemetry, needle) in [
            (serve_export(1201, 600), "counters oracle.verify.rows_computed = 1201"),
            (serve_export(1200, 599), "gauges serve.distinct_destinations value = 599"),
            (export(&[], &[("serve.distinct_destinations", 600)], &[]), "rows_computed = 0"),
        ] {
            let m = telemetry_mismatches(&telemetry, &serve).unwrap();
            assert_eq!(m.len(), 1, "{m:?}");
            assert!(m[0].contains(needle), "{m:?}");
        }

        // ci/BENCH_chaos.json sums to 791 repair rows, 4189 re-anchored
        // clusters and 376275107 ns of repair wall over 3 fractions.
        let chaos_export = |rows, clusters, count, sum| {
            export(
                &[("repair.rows_recomputed", rows), ("repair.clusters_reanchored", clusters)],
                &[],
                &[("repair.epoch_ns", count, sum)],
            )
        };
        let chaos = chaos();
        for sum in [376_275_107, 400_000_000] {
            let clean = chaos_export(791, 4189, 3, sum);
            assert_eq!(telemetry_mismatches(&clean, &chaos), Ok(vec![]));
        }
        for (telemetry, needle) in [
            (chaos_export(790, 4189, 3, 376_275_107), "repair.rows_recomputed = 790"),
            (chaos_export(791, 4190, 3, 376_275_107), "repair.clusters_reanchored = 4190"),
            (chaos_export(791, 4189, 4, 376_275_107), "epoch_ns count = 4"),
            (chaos_export(791, 4189, 3, 376_275_106), "epoch_ns sum_ns = 376275106"),
        ] {
            let m = telemetry_mismatches(&telemetry, &chaos).unwrap();
            assert_eq!(m.len(), 1, "{m:?}");
            assert!(m[0].contains(needle), "{m:?}");
        }

        // A registered metric must carry the member a check reads, and the
        // export must carry each section.
        let no_sum = "{\"counters\": {}, \"histograms\": {\"repair.epoch_ns\": {\"count\": 3}}}";
        let no_sum = JsonValue::parse(no_sum).unwrap();
        assert_eq!(telemetry_mismatches(&no_sum, &chaos).unwrap_err(), "missing field \"sum_ns\"");
        let no_counters = JsonValue::object([("gauges", JsonValue::object([]))]);
        assert_eq!(
            telemetry_mismatches(&no_counters, &serve).unwrap_err(),
            "missing field \"counters\""
        );
        let mut unknown = chaos.clone();
        set(&mut unknown, "kind", "replay");
        assert!(telemetry_mismatches(&chaos_export(0, 0, 0, 0), &unknown).is_err());
    }
}
