//! Measurements shared by the workloads: table footprint, peak memory, cold
//! and warm oracle rows, the single-thread hop loop, and reads of the
//! program's own telemetry registry.

use crate::stats;
use crate::trace::Tracer;
use crate::{Outcome, POOL_WORKERS, WORKERS};
use rtr_engine::{
    Engine, EngineConfig, FrozenPlane, Request, ShardedPlane, VerifiedReport, VerifyConfig,
    VerifyServeError,
};
use rtr_graph::{DiGraph, NodeId};
use rtr_metric::{DistanceOracle, LazyDijkstraOracle};
use rtr_sim::{RoundtripRouting, SimError};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Total routing-table bytes of a plane: every node's `TableStats` bits.
pub fn table_bytes<S: RoundtripRouting>(plane: &FrozenPlane<S>) -> u64 {
    let bits: u128 = (0..plane.node_count())
        .map(|v| plane.scheme().table_stats(NodeId::from_index(v)).bits as u128)
        .sum();
    (bits / 8) as u64
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Times `count` cold `roundtrip_row` reads (two Dijkstras each) on a fresh
/// lazy oracle, then the same rows warm (cache hits plus the row copies a
/// verify flush pays), in microseconds per row.
pub fn row_probe(g: &DiGraph, count: usize, out: &mut Outcome) {
    let n = g.node_count();
    let count = count.min(n);
    let oracle = LazyDijkstraOracle::new(g, 2 * count);
    let nodes: Vec<NodeId> = (0..count).map(|i| NodeId::from_index(i * n / count)).collect();
    let time_rows = || -> Vec<f64> {
        nodes
            .iter()
            .map(|&v| {
                let t = Instant::now();
                black_box(oracle.roundtrip_row(v));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect()
    };
    let cold = time_rows();
    let warm = time_rows();
    out.median("metric.row_cold_us", cold);
    out.median("metric.row_warm_us", warm);
}

/// Serves each request as its own one-request batch of one verified
/// session, pushing each call's latency in microseconds.
pub fn serve_singles<S, O>(
    engine: &Engine,
    plane: &ShardedPlane<S>,
    oracle: &O,
    config: &VerifyConfig,
    requests: &[Request],
    latency_us: &mut Vec<f64>,
) -> Result<VerifiedReport, VerifyServeError>
where
    S: RoundtripRouting + Send + Sync,
    O: DistanceOracle + ?Sized,
{
    let mut session = engine.open_stream(plane, oracle, config);
    for r in requests {
        let t = Instant::now();
        session.serve_batch(std::slice::from_ref(r))?;
        latency_us.push(us(t.elapsed()));
    }
    Ok(session.finish()?.report)
}

/// Serves `requests` one at a time through the simulator's allocation-free
/// `roundtrip_brief` path on this thread: `(total hops, wall)`.
fn sim_pass<S: RoundtripRouting>(
    plane: &FrozenPlane<S>,
    requests: &[Request],
) -> Result<(u64, Duration), SimError> {
    let sim = plane.simulator();
    let started = Instant::now();
    let mut hops = 0u64;
    for r in requests {
        hops += sim
            .roundtrip_brief(plane.scheme(), r.src, r.dst, plane.name_of(r.dst))?
            .total_hops() as u64;
    }
    Ok((hops, started.elapsed()))
}

/// A traced run's reading of the engine layer over one stream, taken beside
/// a measured verified serve of it: the same serve without verification,
/// the hop loop alone on one thread, and the [`POOL_WORKERS`] pool.
/// Readings of several streams add up.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineProbe {
    queries: usize,
    hops: u64,
    verified: Duration,
    unverified: Duration,
    sim: Duration,
    pool: Duration,
    handoffs: u64,
    stall_ns: u64,
}

impl EngineProbe {
    pub fn measure<S: RoundtripRouting + Send + Sync>(
        plane: &ShardedPlane<S>,
        requests: &[Request],
        verified: Duration,
        tracer: &Tracer,
    ) -> Result<EngineProbe, String> {
        let serve = |workers: usize, span: &'static str| {
            let _l = tracer.layer(span);
            let t = Instant::now();
            let served = Engine::new(EngineConfig::with_workers(workers))
                .serve_sharded(plane, requests)
                .map_err(|e| format!("unverified serve: {e}"))?;
            Ok::<_, String>((t.elapsed(), served.shards.iter().map(|s| s.handoffs).sum::<u64>()))
        };
        let (unverified, _) = serve(WORKERS, "engine.serve_sharded")?;
        // A fresh thread, like the pool's worker: on the reference host the
        // same loop runs measurably faster there than on this long-lived one.
        let (hops, sim) = {
            let _l = tracer.layer("sim.roundtrip_brief");
            std::thread::scope(|s| s.spawn(|| sim_pass(plane.plane(), requests)).join())
                .expect("hop-loop thread panicked")
                .map_err(|e| format!("hop loop: {e}"))?
        };
        let stall_before = counter("engine.handoff.stall_ns");
        let (pool, handoffs) = serve(POOL_WORKERS, "engine.serve_sharded_pool")?;
        let stall_ns = counter("engine.handoff.stall_ns") - stall_before;
        let queries = requests.len();
        Ok(EngineProbe { queries, hops, verified, unverified, sim, pool, handoffs, stall_ns })
    }

    pub fn add(&mut self, o: &EngineProbe) {
        self.queries += o.queries;
        self.hops += o.hops;
        self.verified += o.verified;
        self.unverified += o.unverified;
        self.sim += o.sim;
        self.pool += o.pool;
        self.handoffs += o.handoffs;
        self.stall_ns += o.stall_ns;
    }

    pub fn ns_per_hop(&self) -> f64 {
        self.sim.as_nanos() as f64 / self.hops.max(1) as f64
    }

    pub fn hops_per_query(&self) -> f64 {
        self.hops as f64 / self.queries.max(1) as f64
    }
}

/// Engine-layer readings collected over a run; each metric is the median
/// over readings.
#[derive(Default)]
pub struct EngineSamples {
    overhead_ns: Vec<f64>,
    verify_ratio: Vec<f64>,
    handoffs: Vec<f64>,
    stall_ms: Vec<f64>,
    speedup: Vec<f64>,
}

impl EngineSamples {
    pub fn push(&mut self, p: &EngineProbe) {
        let q = p.queries.max(1) as f64;
        let pool_ns = p.unverified.as_nanos() as f64 * WORKERS as f64;
        self.overhead_ns.push((pool_ns - p.sim.as_nanos() as f64) / q);
        self.verify_ratio.push(p.verified.as_secs_f64() / p.unverified.as_secs_f64());
        self.handoffs.push(p.handoffs as f64 / q);
        self.stall_ms.push(p.stall_ns as f64 / 1e6);
        self.speedup.push(p.unverified.as_secs_f64() / p.pool.as_secs_f64());
    }

    pub fn report(self, out: &mut Outcome) {
        out.median("engine.overhead_ns_per_query", self.overhead_ns);
        out.median("verify.ratio", self.verify_ratio);
        out.median("engine.handoffs_per_query", self.handoffs);
        out.median("engine.stall_ms", self.stall_ms);
        out.median("engine.speedup_2w", self.speedup);
    }
}

/// The host's speed over a run, read from a fixed reference workload timed
/// before every set-up and every window: Dijkstra with a binary heap over a
/// 3000-node random graph, 4000 hash-map updates and an unstable sort of
/// 20 000 numbers.  It is standard-library code with the branchy, allocating
/// shape of the program's hot paths, so a busy host slows it about as much as
/// it slows them; and it is the benchmark's own code, so no change to the
/// program moves it.
pub struct HostSpeed {
    adj: Vec<Vec<(u32, u32)>>,
    keys: Vec<u64>,
    unsorted: Vec<u32>,
    ns: Vec<f64>,
}

impl HostSpeed {
    /// The reference workload's time on the reference host (2 vCPUs of an
    /// Intel Xeon under a KVM hypervisor) at the fast end of its range:
    /// speed 1.
    pub const NOMINAL_NS: f64 = 1.3e6;
    /// Readings per tick.
    const REPEATS: usize = 3;

    /// Times the reference workload [`Self::REPEATS`] times and returns the
    /// speed their median implies.
    pub fn tick(&mut self, tracer: &Tracer) -> f64 {
        use std::cmp::Reverse;
        use std::collections::{BinaryHeap, HashMap};
        let _p = tracer.phase("host.speed");
        let first = self.ns.len();
        for _ in 0..Self::REPEATS {
            let t = Instant::now();
            let mut dist = vec![u64::MAX; self.adj.len()];
            let mut heap = BinaryHeap::new();
            dist[0] = 0;
            heap.push(Reverse((0u64, 0u32)));
            while let Some(Reverse((d, u))) = heap.pop() {
                if d > dist[u as usize] {
                    continue;
                }
                for &(v, w) in &self.adj[u as usize] {
                    let nd = d + u64::from(w);
                    if nd < dist[v as usize] {
                        dist[v as usize] = nd;
                        heap.push(Reverse((nd, v)));
                    }
                }
            }
            let mut counts: HashMap<u64, u64> = HashMap::new();
            for (i, k) in self.keys.iter().enumerate() {
                *counts.entry(k % 1024).or_insert(0) += i as u64;
            }
            let mut sorted = self.unsorted.clone();
            sorted.sort_unstable();
            black_box((dist, counts, sorted));
            self.ns.push(t.elapsed().as_nanos() as f64);
        }
        Self::NOMINAL_NS / stats::median(&self.ns[first..])
    }

    /// [`Self::NOMINAL_NS`] over the workload's median time over the run:
    /// below 1 when the host ran slower than at its fast end (1 before any
    /// tick).
    pub fn speed(&self) -> f64 {
        if self.ns.is_empty() {
            return 1.0;
        }
        Self::NOMINAL_NS / stats::median(&self.ns)
    }

    /// The speed each reading implies.
    pub fn readings(&self) -> Vec<f64> {
        self.ns.iter().map(|ns| Self::NOMINAL_NS / ns).collect()
    }
}

impl Default for HostSpeed {
    fn default() -> HostSpeed {
        const NODES: usize = 3000;
        let mut x = 0x1234_5678_9abc_def1u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // A ring, so every node is reached, plus three random arcs a node.
        let adj = (0..NODES)
            .map(|u| {
                let mut arcs = vec![(((u + 1) % NODES) as u32, 1 + (next() % 16) as u32)];
                arcs.extend(
                    (0..3).map(|_| ((next() % NODES as u64) as u32, 1 + (next() % 256) as u32)),
                );
                arcs
            })
            .collect();
        let keys = (0..4000).map(|_| next()).collect();
        let unsorted = (0..20_000).map(|_| next() as u32).collect();
        HostSpeed { adj, keys, unsorted, ns: Vec::new() }
    }
}

/// Times a run's set-ups.  The first builds the system the run measures;
/// the others run after the measurement and peak-memory reading, and only
/// add `setup_s` samples.
pub struct SetupClock {
    spans_before: BTreeMap<String, (u64, u64)>,
    setup_s: Vec<f64>,
    gen_ms: Vec<f64>,
}

impl SetupClock {
    pub fn start() -> SetupClock {
        SetupClock { spans_before: span_totals(), setup_s: Vec::new(), gen_ms: Vec::new() }
    }

    /// Runs one set-up; `gen` reports how long its graph generation took.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T, gen: impl Fn(&T) -> Duration) -> T {
        let t = Instant::now();
        let built = setup();
        self.record(t.elapsed(), gen(&built));
        built
    }

    pub fn record(&mut self, setup: Duration, gen: Duration) {
        self.setup_s.push(setup.as_secs_f64());
        self.gen_ms.push(ms(gen));
    }

    /// Reports `setup_s`, `graph.gen_ms` and, for the sparse-suite
    /// workloads, the program's build spans per set-up.
    pub fn finish(self, build_spans: bool, out: &mut Outcome) {
        if build_spans {
            self::build_spans(&self.spans_before, &span_totals(), self.setup_s.len(), out);
        }
        out.median("setup_s", self.setup_s);
        out.median("graph.gen_ms", self.gen_ms);
    }
}

pub fn counter(name: &str) -> u64 {
    rtr_telemetry::registry().counter_value(name)
}

/// `(count, total ns)` of every program span path in the registry.
fn span_totals() -> BTreeMap<String, (u64, u64)> {
    rtr_telemetry::registry().spans().into_iter().map(|(p, s)| (p, (s.count, s.total_ns))).collect()
}

/// The program's suite-build spans, as mean milliseconds per set-up between
/// two [`span_totals`] snapshots.
fn build_spans(
    before: &BTreeMap<String, (u64, u64)>,
    after: &BTreeMap<String, (u64, u64)>,
    setups: usize,
    out: &mut Outcome,
) {
    const PATHS: [(&str, &str); 6] = [
        ("build.shared_sweep_ms", "build.sparse_suite/build.shared_sweep"),
        ("build.cover_ms", "build.sparse_suite/cover.scale_group"),
        ("build.landmark_ms", "build.sparse_suite/build.landmark_finish"),
        ("build.stretch6_ms", "build.stretch6"),
        ("build.exstretch_ms", "build.exstretch"),
        ("build.polystretch_ms", "build.polystretch"),
    ];
    for (metric, path) in PATHS {
        let total = |m: &BTreeMap<String, (u64, u64)>| m.get(path).map_or(0, |&(_, ns)| ns);
        let ns = total(after).saturating_sub(total(before));
        out.exact(metric, ns as f64 / 1e6 / setups.max(1) as f64);
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
