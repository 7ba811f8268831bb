//! The ledger's vocabulary: the four workloads and every metric it reports,
//! with unit, direction, regression bound and the workloads that exercise
//! it.  `BENCHMARK.json` at the repository root mirrors this table; a test
//! below keeps the two identical.

use std::fmt;

/// The four benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    ZipfWarm,
    UniformCold,
    NetRoute,
    ChaosRepair,
}

use Workload::{ChaosRepair as C, NetRoute as N, UniformCold as U, ZipfWarm as Z};

impl Workload {
    pub const ALL: [Workload; 4] = [Z, U, N, C];

    pub fn name(self) -> &'static str {
        match self {
            Z => "zipf-warm",
            U => "uniform-cold",
            N => "net-route",
            C => "chaos-repair",
        }
    }

    /// Why the workload is in the benchmark: the layers it stresses.
    pub fn why(self) -> &'static str {
        match self {
            Z => {
                "Zipf(1.2) destinations on n=2000 over a warm verify oracle: the hop loop, \
                 scheme forward and engine handoffs do the work; verify rows are cache hits"
            }
            U => {
                "Short sessions over 100 uniformly spread destinations on n=2000, each on a \
                 fresh verify oracle: cold Dijkstra rows are about half the work"
            }
            N => {
                "Open-loop single-query ROUTE frames over loopback TCP at n=600 on one CPU: \
                 codec, connection thread and the serving-core handoff dominate each frame"
            }
            C => {
                "Seeded 5% edge-fault plans on a weighted n=600 ring: apply, invalidate, \
                 rebase, repair, re-mint, re-serve; the build layers used for writes"
            }
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before it counts as a regression (per-layer metrics have none).
    pub bound: Option<f64>,
    /// Workloads that exercise the metric's layer.  A traced run of any
    /// other workload reports 0: that layer did no work there.
    pub on: &'static [Workload],
}

const ALL: &[Workload] = &Workload::ALL;
const INPROC: &[Workload] = &[Z, U];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec { name, unit, better, bound: Some(bound), on: ALL }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [Workload],
) -> Spec {
    Spec { name, unit, better, bound: None, on }
}

use Better::{Higher, Lower};

/// What a user of the system sees, reported by every untraced run.  The
/// README defines each one per workload.  Each bound sits above the
/// run-to-run spread measured on the 2-vCPU reference host, timings after
/// scaling to host speed 1; `stretch_mean` spreads only with the traffic the
/// seed draws (up to 0.04 on chaos-repair).
pub const END_TO_END: &[Spec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("qps", "queries/s", Higher, 0.24),
    e2e("p50_us", "us", Lower, 0.24),
    e2e("stretch_mean", "ratio", Lower, 0.12),
    e2e("table_bytes", "B", Lower, 0.02),
    e2e("peak_rss_mib", "MiB", Lower, 0.2),
];

/// Single-layer numbers, reported by every traced run.
pub const PER_LAYER: &[Spec] = &[
    // The latency tail beside `p50_us`: each window's 90th percentile,
    // median over windows, as measured.  On the reference host its
    // run-to-run spread (up to 0.31 of its median) passed the largest bound
    // an end-to-end metric may have.
    layer("p90_us", "us", Lower, ALL),
    // rtr-graph
    layer("graph.gen_ms", "ms", Lower, ALL),
    layer("graph.fault_apply_ms", "ms", Lower, &[C]),
    // rtr-metric
    layer("metric.build_rows", "count", Lower, ALL),
    layer("metric.row_cold_us", "us", Lower, ALL),
    layer("metric.row_warm_us", "us", Lower, ALL),
    layer("metric.verify_rows", "count", Lower, ALL),
    layer("metric.verify_hit_ratio", "ratio", Higher, ALL),
    layer("metric.invalidate_ms", "ms", Lower, &[C]),
    layer("metric.rebase_ms", "ms", Lower, &[C]),
    // scheme construction, read from the program's own build spans
    layer("build.shared_sweep_ms", "ms", Lower, &[Z, U, N]),
    layer("build.cover_ms", "ms", Lower, &[Z, U, N]),
    layer("build.landmark_ms", "ms", Lower, &[Z, U, N]),
    layer("build.stretch6_ms", "ms", Lower, &[Z, U, N]),
    layer("build.exstretch_ms", "ms", Lower, &[Z, U, N]),
    layer("build.polystretch_ms", "ms", Lower, &[Z, U, N]),
    // rtr-sim hop loop + each scheme's forward
    layer("sim.ns_per_hop.stretch6", "ns", Lower, &[Z, U, N]),
    layer("sim.ns_per_hop.exstretch", "ns", Lower, &[Z, U, C]),
    layer("sim.ns_per_hop.polystretch", "ns", Lower, INPROC),
    layer("sim.hops_per_query.stretch6", "count", Lower, &[Z, U, N]),
    layer("sim.hops_per_query.exstretch", "count", Lower, &[Z, U, C]),
    layer("sim.hops_per_query.polystretch", "count", Lower, INPROC),
    // rtr-engine
    layer("engine.overhead_ns_per_query", "ns", Lower, ALL),
    layer("engine.handoffs_per_query", "ratio", Lower, ALL),
    layer("engine.stall_ms", "ms", Lower, ALL),
    layer("engine.speedup_2w", "ratio", Higher, ALL),
    layer("verify.ratio", "ratio", Lower, ALL),
    layer("verify.flush_ms", "ms", Lower, ALL),
    layer("verify.flushes", "count", Lower, ALL),
    layer("verify.row_fetches", "count", Lower, ALL),
    layer("verify.warmup_s", "s", Lower, &[Z, N]),
    // rtr-serve
    layer("codec.route_req_enc_ns", "ns", Lower, &[N]),
    layer("codec.route_req_dec_ns", "ns", Lower, &[N]),
    layer("codec.route_resp_enc_ns", "ns", Lower, &[N]),
    layer("codec.route_resp_dec_ns", "ns", Lower, &[N]),
    layer("codec.batch64_req_dec_ns", "ns", Lower, &[N]),
    layer("codec.route_req_bytes", "B", Lower, &[N]),
    layer("codec.route_resp_bytes", "B", Lower, &[N]),
    layer("stream.batch1_us", "us", Lower, &[N]),
    layer("frontdoor.overhead_us", "us", Lower, &[N]),
    layer("core.batch_fill", "ratio", Higher, &[N]),
    layer("net.p99_us", "us", Lower, &[N]),
    layer("net.p999_us", "us", Lower, &[N]),
    layer("net.late_p99_us", "us", Lower, &[N]),
    layer("net.samples", "count", Higher, &[N]),
    // rtr-core repair
    layer("repair.total_ms", "ms", Lower, &[C]),
    layer("repair.kit_ms", "ms", Lower, &[C]),
    layer("repair.mint_ms", "ms", Lower, &[C]),
    layer("repair.freeze_ms", "ms", Lower, &[C]),
    layer("repair.rows", "count", Lower, &[C]),
    layer("repair.row_share", "ratio", Lower, &[C]),
    layer("repair.clusters", "count", Lower, &[C]),
    // rtr-telemetry: the cost of the ledger's own spans
    layer("trace.overhead", "ratio", Lower, ALL),
    // the host: the reference workload's speed the end-to-end timings are scaled by
    layer("host.speed", "ratio", Higher, ALL),
    // per-scheme splits of the end-to-end qps and stretch_mean
    layer("qps.stretch6", "queries/s", Higher, INPROC),
    layer("qps.exstretch", "queries/s", Higher, INPROC),
    layer("qps.polystretch", "queries/s", Higher, INPROC),
    layer("stretch_mean.stretch6", "ratio", Lower, &[Z, U, N]),
    layer("stretch_mean.exstretch", "ratio", Lower, &[Z, U, C]),
    layer("stretch_mean.polystretch", "ratio", Lower, INPROC),
];

/// The spec of `name` in either list.
pub fn spec(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().chain(PER_LAYER).find(|s| s.name == name)
}

/// The name of `metric`'s split for one scheme, e.g. `qps.stretch6`.
pub fn per_scheme(metric: &str, scheme: &str) -> &'static str {
    let name = format!("{metric}.{scheme}");
    spec(&name).unwrap_or_else(|| panic!("{name} is not in the catalogue")).name
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_bench::baseline::JsonValue;
    use std::collections::BTreeSet;

    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    fn check_list(json: &JsonValue, key: &str, specs: &[Spec], with_bound: bool) {
        let items = json.field(key).unwrap().as_array().unwrap();
        assert_eq!(items.len(), specs.len(), "{key}: count");
        for (item, spec) in items.iter().zip(specs) {
            assert_eq!(item.field("name").unwrap().as_string().unwrap(), spec.name);
            assert_eq!(item.field("unit").unwrap().as_string().unwrap(), spec.unit);
            assert_eq!(item.field("better").unwrap().as_string().unwrap(), spec.better.name());
            let bound = item.field_opt("bound").map(|b| b.as_f64().unwrap());
            assert_eq!(bound, spec.bound, "{}: bound", spec.name);
            assert_eq!(bound.is_some(), with_bound);
        }
    }

    #[test]
    fn benchmark_json_mirrors_the_catalogue() {
        let json = JsonValue::parse(BENCHMARK_JSON).unwrap();
        let workloads = json.field("workloads").unwrap().as_array().unwrap();
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (item, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(item.field("name").unwrap().as_string().unwrap(), w.name());
            assert_eq!(item.field("why").unwrap().as_string().unwrap(), w.why());
        }
        check_list(&json, "end_to_end", END_TO_END, true);
        check_list(&json, "per_layer", PER_LAYER, false);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(spec.name), "{} listed twice", spec.name);
            assert!(spec.name.len() <= 64);
            assert!(spec.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(spec.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(spec.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
            assert!(!spec.on.is_empty());
        }
        let setup = spec("setup_s").unwrap();
        let largest = END_TO_END.iter().filter_map(|s| s.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s carries the largest bound");
        for w in Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains(['"', '\\', '\n']));
        }
    }
}
