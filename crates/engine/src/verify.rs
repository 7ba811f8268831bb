//! Full-stream verification: every served roundtrip checked against the
//! exact metric, destination-batched so the oracle cost scales with
//! *distinct destinations*, not with queries.
//!
//! All stretch accounting lives here: under [`VerifyMode::Sampled`] a
//! 1-in-N strided subset of requests is checked (subsuming the retired
//! strided stretch sample of the plain serve path), and under
//! [`VerifyMode::Full`] every request's measured roundtrip cost is compared
//! — in exact integer arithmetic — against the oracle's roundtrip distance,
//! an exact fixed-point stretch histogram is accumulated, and any query
//! exceeding the scheme's proven stretch bound is reported (and, in strict
//! mode, fails the run).
//!
//! The cost model: checked trips buffer in **bounded destination buckets**,
//! one set per destination shard, and each bucket set flushes through ONE
//! shared roundtrip row per distinct destination (a worker drains all its
//! shards' buckets in one [`rtr_metric::roundtrip_rows_sharded`] sweep,
//! which prefetches row windows across shard boundaries).  A flush
//! therefore pays two Dijkstras per distinct destination in the bucket
//! window (modulo oracle cache hits), so skewed workloads (Zipf, hotspot)
//! verify almost for free and uniform load costs at most
//! `2 · min(n, window)` rows per flush.  Because shards
//! partition the destination space, per-shard buckets never fetch the same
//! destination row on two workers: total verify rows stay
//! `≤ 2 · distinct(stream destinations)` regardless of worker count.
//! The row is read through [`DistanceOracle::roundtrip_row_view`]: the lazy
//! oracles hand over their two cached rows and each checked trip sums its
//! one entry, so on them a flush builds no `n`-entry row.
//! Backpressure: an accumulator flushes whenever its buffered trips reach
//! [`VerifyConfig::flush_pending`], so verification memory is bounded
//! regardless of stream length.
//!
//! On the lazy oracles a flush's fixed cost grows with neither `n` nor the
//! histogram's bucket count: a [`StretchHistogram`] stores its buckets only
//! up to the highest occupied one, so an accumulator that checked nothing
//! allocates nothing and merges add only occupied ranges, and the
//! `verify.*` telemetry handles are resolved once per process.
//!
//! Determinism: a [`VerifiedReport`] depends only on the request stream and
//! the oracle — never on worker count, shard layout, or flush timing.
//! Counts and totals merge commutatively, the worst case is the maximum
//! under a total order (stretch, then request index), and violations are
//! sorted by global request index.  The `verify_conformance` test-suite
//! asserts reports bit-identical across shard layouts, 1/2/8 workers and
//! to [`verify_sequential`], the sequential oracle-checked replay.

use crate::plane::FrozenPlane;
use crate::stats::{bump, merge_buckets};
use crate::workload::Request;
use rtr_graph::{Distance, NodeId, INFINITY};
use rtr_metric::{roundtrip_rows_sharded, DistanceOracle, RoundtripRow};
use rtr_sim::{RoundtripRouting, SimError};
use rtr_telemetry::{Counter, DurationHistogram};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// How much of the request stream the engine verifies against the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyMode {
    /// No verification: the engine serves the stream with an empty report.
    Off,
    /// Verify a strided sample: request `i` is checked iff
    /// `i % stride == 0` (by *global* request index, so the checked set is
    /// identical for any worker count).  This subsumes the retired
    /// `StretchSample` machinery of the plain serve path: same strided
    /// subset, but checked in exact arithmetic against the oracle.
    Sampled {
        /// The sampling stride (clamped to at least 1).
        stride: usize,
    },
    /// Verify every request — full-stream verification.
    Full,
}

impl VerifyMode {
    /// Short stable name used in reports and the baseline artifact.
    pub fn name(&self) -> &'static str {
        match self {
            VerifyMode::Off => "off",
            VerifyMode::Sampled { .. } => "sampled",
            VerifyMode::Full => "full",
        }
    }

    /// True when request `index` is checked under this mode.
    pub(crate) fn checks(&self, index: usize) -> bool {
        match *self {
            VerifyMode::Off => false,
            VerifyMode::Sampled { stride } => index.is_multiple_of(stride.max(1)),
            VerifyMode::Full => true,
        }
    }
}

/// A rational stretch ceiling `num/den`: a trip of measured cost `w` against
/// exact roundtrip distance `r` violates the bound iff `w·den > num·r`
/// (checked in `u128`, never in floats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StretchBound {
    /// Numerator of the ceiling.
    pub num: u64,
    /// Denominator of the ceiling.
    pub den: u64,
}

impl StretchBound {
    /// An integer ceiling `bound/1` — the form of every bound the paper
    /// proves (6 for §2, `(2^k − 1)·4(2k_c − 1)` for §3, `8k² + 4k − 4` for
    /// §4).
    pub fn at_most(bound: u64) -> Self {
        StretchBound { num: bound, den: 1 }
    }

    /// True when `measured > (num/den) · exact`.
    pub fn exceeded_by(&self, measured: Distance, exact: Distance) -> bool {
        (measured as u128) * (self.den as u128) > (self.num as u128) * (exact as u128)
    }
}

impl fmt::Display for StretchBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// Configuration of one verified serve run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerifyConfig {
    /// How much of the stream is checked.
    pub mode: VerifyMode,
    /// The scheme's proven stretch ceiling, if it has one.  Checked trips
    /// exceeding it are recorded as [`VerifiedReport::violations`]; `None`
    /// (measured-not-proven substrates) still verifies and accumulates the
    /// histogram but can never fail.
    pub bound: Option<StretchBound>,
    /// Backpressure threshold: a shard's destination buckets flush whenever
    /// this many trips are buffered, bounding verification memory at
    /// `flush_pending` trips per shard (clamped to at least 1).
    pub flush_pending: usize,
    /// When true (the default) a run whose report contains violations
    /// returns [`VerifyServeError::BoundExceeded`] instead of the report —
    /// the hard-fail contract of oracle-backed serving.  Tests that inspect
    /// the violation list set this to false.
    pub strict: bool,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig { mode: VerifyMode::Full, bound: None, flush_pending: 4096, strict: true }
    }
}

impl VerifyConfig {
    /// Full-stream verification with no stretch ceiling.
    pub fn full() -> Self {
        VerifyConfig::default()
    }

    /// Strided verification with no stretch ceiling.
    pub fn sampled(stride: usize) -> Self {
        VerifyConfig { mode: VerifyMode::Sampled { stride }, ..VerifyConfig::default() }
    }

    /// No verification at all.
    pub fn off() -> Self {
        VerifyConfig { mode: VerifyMode::Off, ..VerifyConfig::default() }
    }

    /// The same configuration with a proven stretch ceiling to enforce.
    #[must_use]
    pub fn with_bound(mut self, bound: StretchBound) -> Self {
        self.bound = Some(bound);
        self
    }
}

/// Fixed-point stretch subdivisions per unit: bucket `b` of the histogram
/// covers stretches in `[b/32, (b+1)/32)`, computed by exact integer
/// division — so the histogram is bit-identical however trips are scheduled.
pub const STRETCH_HISTOGRAM_SCALE: u64 = 32;

/// Exact buckets up to stretch 64; larger stretches land in the final
/// overflow bucket.
const STRETCH_BUCKETS: usize = 64 * STRETCH_HISTOGRAM_SCALE as usize;

/// Exact fixed-point histogram of verified stretches.
///
/// Bucketing is pure integer arithmetic (`⌊measured·32 / exact⌋`), so two
/// runs that verify the same trips produce the same histogram regardless of
/// worker count or flush order.  Buckets are stored only up to the highest
/// occupied one — a canonical form, so equal histograms compare equal
/// however they were built, and an empty one allocates nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StretchHistogram {
    /// `buckets[b]`: trips with `⌊measured·SCALE/exact⌋ = b`
    /// (`buckets[STRETCH_BUCKETS]` collects the overflow); the last stored
    /// bucket is never zero.
    buckets: Vec<u64>,
    count: u64,
}

impl StretchHistogram {
    fn record(&mut self, measured: Distance, exact: Distance) {
        let b = ((measured as u128) * (STRETCH_HISTOGRAM_SCALE as u128) / (exact as u128))
            .min(STRETCH_BUCKETS as u128) as usize;
        bump(&mut self.buckets, b);
        self.count += 1;
    }

    fn merge(&mut self, other: StretchHistogram) {
        merge_buckets(&mut self.buckets, other.buckets);
        self.count += other.count;
    }

    /// Trips recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of fixed-point buckets, including the final overflow bucket —
    /// the exclusive upper bound on indices from
    /// [`nonzero_buckets`](Self::nonzero_buckets).
    pub const BUCKET_COUNT: usize = STRETCH_BUCKETS + 1;

    /// The non-empty buckets as ascending `(bucket, count)` pairs — the
    /// canonical sparse form the wire codec serializes (see
    /// `docs/PROTOCOL.md`).
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets.iter().enumerate().filter(|&(_, &c)| c > 0).map(|(b, &c)| (b, c)).collect()
    }

    /// Rebuilds a histogram from sparse `(bucket, count)` pairs — the
    /// inverse of [`nonzero_buckets`](Self::nonzero_buckets).  Returns `None`
    /// when a bucket index is out of range or a count overflows `u64`.  A
    /// zero-count pair adds nothing, so it never grows the stored buckets.
    pub fn from_nonzero_buckets(pairs: &[(usize, u64)]) -> Option<Self> {
        let mut h = StretchHistogram::default();
        for &(b, c) in pairs {
            if b >= Self::BUCKET_COUNT {
                return None;
            }
            if c == 0 {
                continue;
            }
            if b >= h.buckets.len() {
                h.buckets.resize(b + 1, 0);
            }
            h.buckets[b] = h.buckets[b].checked_add(c)?;
            h.count = h.count.checked_add(c)?;
        }
        Some(h)
    }

    /// The `p`-quantile (`0 ≤ p ≤ 1`) of the verified stretch, reported as
    /// the lower edge of its fixed-point bucket (exact to 1/32).
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((self.count as f64 - 1.0) * p).round() as u64;
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > rank {
                return b as f64 / STRETCH_HISTOGRAM_SCALE as f64;
            }
        }
        STRETCH_BUCKETS as f64 / STRETCH_HISTOGRAM_SCALE as f64
    }
}

/// One verified trip: the request, its measured roundtrip cost, and the
/// oracle's exact roundtrip distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifiedTrip {
    /// Global index of the request in the served stream.
    pub index: usize,
    /// Source of the request.
    pub source: NodeId,
    /// Destination of the request.
    pub destination: NodeId,
    /// Measured roundtrip weight of the served route.
    pub measured: Distance,
    /// Exact roundtrip distance `r(source, destination)`.
    pub exact: Distance,
}

impl VerifiedTrip {
    /// The trip's exact stretch as a float (the underlying comparison is
    /// always integer).
    pub fn stretch(&self) -> f64 {
        self.measured as f64 / self.exact as f64
    }
}

/// True when trip `a`'s stretch is greater than `b`'s, with ties broken
/// toward the smaller request index — a total order, so "worst trip" is
/// schedule-independent.
fn worse(a: &VerifiedTrip, b: &VerifiedTrip) -> bool {
    let left = (a.measured as u128) * (b.exact as u128);
    let right = (b.measured as u128) * (a.exact as u128);
    left > right || (left == right && a.index < b.index)
}

/// The deterministic outcome of a verified serve run: every field depends
/// only on the request stream and the oracle, never on worker count or
/// flush scheduling (asserted bit-for-bit by the conformance suite).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VerifiedReport {
    /// Requests served.
    pub queries: usize,
    /// Requests verified against the oracle (equals `queries` under
    /// [`VerifyMode::Full`]).
    pub checked: usize,
    /// Sum of measured roundtrip weights over checked trips.
    pub total_measured: u128,
    /// Sum of exact roundtrip distances over checked trips.
    pub total_exact: u128,
    /// Exact fixed-point stretch histogram of the checked trips.
    pub histogram: StretchHistogram,
    /// The checked trip with the largest stretch (ties: smallest index).
    pub worst: Option<VerifiedTrip>,
    /// Checked trips exceeding the configured [`StretchBound`], sorted by
    /// request index.  Always empty when no bound was configured.
    pub violations: Vec<VerifiedTrip>,
    /// Per-epoch breakdown of a chaos run (pre-fault / degraded /
    /// post-repair), populated only by [`crate::chaos_report`].  Empty for
    /// every ordinary serve, and **not** part of the wire encoding — the
    /// `rtr-serve` REPORT record carries the flat fields only (see
    /// `docs/PROTOCOL.md`).
    pub epochs: Vec<crate::chaos::EpochReport>,
}

impl VerifiedReport {
    /// Worst verified stretch (0 when nothing was checked).
    pub fn max_stretch(&self) -> f64 {
        self.worst.map(|w| w.stretch()).unwrap_or(0.0)
    }

    /// Ratio of total measured weight to total exact distance — the
    /// traffic-weighted aggregate stretch of the checked stream.
    pub fn aggregate_stretch(&self) -> f64 {
        if self.total_exact == 0 {
            return 0.0;
        }
        self.total_measured as f64 / self.total_exact as f64
    }

    /// True when no checked trip exceeded the configured bound.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    pub(crate) fn merge(&mut self, other: VerifiedReport) {
        self.queries += other.queries;
        self.checked += other.checked;
        self.total_measured += other.total_measured;
        self.total_exact += other.total_exact;
        self.histogram.merge(other.histogram);
        self.worst = match (self.worst, other.worst) {
            (Some(a), Some(b)) => Some(if worse(&b, &a) { b } else { a }),
            (a, b) => a.or(b),
        };
        self.violations.extend(other.violations);
        self.epochs.extend(other.epochs);
    }
}

/// Schedule-dependent cost counters of one verified run — deliberately kept
/// out of [`VerifiedReport`] (they vary with worker count and flush timing,
/// the report must not).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyCost {
    /// Bucket flushes performed across all workers.
    pub flushes: usize,
    /// Destination roundtrip rows fetched across all flushes (each is two
    /// Dijkstras on a cold lazy oracle; cache hits are cheaper).
    pub row_fetches: usize,
    /// Largest number of trips buffered in any single shard's accumulator at
    /// any moment — the verification-memory high-water mark.
    pub peak_pending: usize,
    /// Wall time spent inside flushes, summed over all accumulators — so
    /// with `w` workers flushing concurrently this can exceed the run's
    /// elapsed time by up to a factor of `w`, where `w` is the number of
    /// workers that own shards (`min(workers, shards)` on the pool).
    /// `elapsed − flush_wall/w` estimates the serve-only wall time, which is
    /// how the benchmark keeps its verify-slowdown gate meaningful without
    /// serving the stream twice.
    pub flush_wall: Duration,
}

impl VerifyCost {
    pub(crate) fn merge(&mut self, other: VerifyCost) {
        self.flushes += other.flushes;
        self.row_fetches += other.row_fetches;
        self.peak_pending = self.peak_pending.max(other.peak_pending);
        self.flush_wall += other.flush_wall;
    }
}

/// Errors of a verified serve run.
#[derive(Debug)]
pub enum VerifyServeError {
    /// A worker hit a simulator error (bad port, TTL, wrong delivery, …).
    Sim(SimError),
    /// Strict mode: at least one checked trip exceeded the configured
    /// stretch bound.  The complete outcome — including the sorted violation
    /// list — rides along for diagnosis.
    BoundExceeded(Box<crate::VerifiedShardedServe>),
}

impl VerifyServeError {
    /// The verification report of a bound-exceeded error (`None` for
    /// simulator errors).
    pub fn report(&self) -> Option<&VerifiedReport> {
        match self {
            VerifyServeError::Sim(_) => None,
            VerifyServeError::BoundExceeded(outcome) => Some(&outcome.report),
        }
    }
}

impl fmt::Display for VerifyServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyServeError::Sim(e) => write!(f, "{e}"),
            VerifyServeError::BoundExceeded(outcome) => {
                let report = &outcome.report;
                write!(
                    f,
                    "{} of {} verified queries exceeded the stretch bound (first: {:?})",
                    report.violations.len(),
                    report.checked,
                    report.violations.first()
                )
            }
        }
    }
}

impl Error for VerifyServeError {}

impl From<SimError> for VerifyServeError {
    fn from(value: SimError) -> Self {
        VerifyServeError::Sim(value)
    }
}

/// Registry handles of the `verify.*` vocabulary, resolved once per process
/// so a flush never looks a name up.
struct VerifyTelemetry {
    flushes: Counter,
    row_fetches: Counter,
    checked: Counter,
    flush_ns: DurationHistogram,
}

impl VerifyTelemetry {
    fn get() -> &'static VerifyTelemetry {
        static HANDLES: OnceLock<VerifyTelemetry> = OnceLock::new();
        HANDLES.get_or_init(|| VerifyTelemetry {
            flushes: rtr_telemetry::counter("verify.flushes"),
            row_fetches: rtr_telemetry::counter("verify.row_fetches"),
            checked: rtr_telemetry::counter("verify.checked"),
            flush_ns: rtr_telemetry::histogram("verify.flush_ns"),
        })
    }
}

/// One buffered trip awaiting its destination row.
struct PendingTrip {
    index: usize,
    source: NodeId,
    measured: Distance,
}

/// Per-shard verification state: bounded destination buckets plus the
/// shard's private slice of the report.
pub(crate) struct VerifyAccumulator {
    bound: Option<StretchBound>,
    flush_pending: usize,
    /// Std SipHash, not `rtr_graph::hash`: the keys are request destinations.
    buckets: HashMap<u32, Vec<PendingTrip>>,
    pending: usize,
    report: VerifiedReport,
    cost: VerifyCost,
}

impl VerifyAccumulator {
    pub(crate) fn new(config: &VerifyConfig) -> Self {
        VerifyAccumulator {
            bound: config.bound,
            flush_pending: config.flush_pending.max(1),
            buckets: HashMap::new(),
            pending: 0,
            report: VerifiedReport::default(),
            cost: VerifyCost::default(),
        }
    }

    /// Buffers one trip under its destination, flushing the buckets when the
    /// backpressure threshold is reached.
    pub(crate) fn push<O: DistanceOracle + ?Sized>(
        &mut self,
        oracle: &O,
        index: usize,
        req: &Request,
        measured: Distance,
    ) {
        self.buckets.entry(req.dst.0).or_default().push(PendingTrip {
            index,
            source: req.src,
            measured,
        });
        self.pending += 1;
        self.cost.peak_pending = self.cost.peak_pending.max(self.pending);
        if self.pending >= self.flush_pending {
            Self::flush_sharded(&mut [self], oracle);
        }
    }

    /// Drains several accumulators' buckets — one per destination shard of
    /// one worker — through a **single**
    /// [`rtr_metric::roundtrip_rows_sharded`] sweep, so a worker owning many
    /// small shards still fills whole prefetch windows: one shared roundtrip
    /// row per distinct destination, every buffered trip of that destination
    /// checked against it.  Row accounting is attributed per accumulator;
    /// the shared sweep's wall time lands on the first flushed accumulator
    /// (summing per-shard costs then remains truthful).
    pub(crate) fn flush_sharded<O: DistanceOracle + ?Sized>(
        parts: &mut [&mut VerifyAccumulator],
        oracle: &O,
    ) {
        if parts.iter().all(|p| p.pending == 0) {
            return;
        }
        let telemetry_on = rtr_telemetry::enabled();
        let checked_before: usize =
            if telemetry_on { parts.iter().map(|p| p.report.checked).sum() } else { 0 };
        let started = Instant::now();
        let dest_lists: Vec<Vec<NodeId>> = parts.iter().map(|p| p.sorted_destinations()).collect();
        let slices: Vec<&[NodeId]> = dest_lists.iter().map(|v| v.as_slice()).collect();
        roundtrip_rows_sharded(oracle, &slices, |at, dst, row| parts[at].check_bucket(dst, row));
        let elapsed = started.elapsed();
        let mut wall = Some(elapsed);
        let mut flushes = 0u64;
        let mut rows = 0u64;
        for (part, dests) in parts.iter_mut().zip(&dest_lists) {
            if dests.is_empty() {
                continue;
            }
            part.cost.flushes += 1;
            part.cost.row_fetches += dests.len();
            part.cost.flush_wall += wall.take().unwrap_or_default();
            part.pending = 0;
            flushes += 1;
            rows += dests.len() as u64;
        }
        if telemetry_on {
            let checked_after: usize = parts.iter().map(|p| p.report.checked).sum();
            let t = VerifyTelemetry::get();
            t.flushes.add(flushes);
            t.row_fetches.add(rows);
            t.checked.add((checked_after - checked_before) as u64);
            t.flush_ns.observe(elapsed);
        }
    }

    /// The distinct buffered destinations, ascending — visited in sorted
    /// order so oracle access patterns are reproducible; the verdicts
    /// themselves never depend on the order.
    fn sorted_destinations(&self) -> Vec<NodeId> {
        let mut dests: Vec<u32> = self.buckets.keys().copied().collect();
        dests.sort_unstable();
        dests.into_iter().map(NodeId).collect()
    }

    /// Checks every trip buffered under `dst` against the destination's
    /// shared roundtrip row and folds the verdicts into the report.
    fn check_bucket(&mut self, dst: NodeId, row: &RoundtripRow) {
        let trips = self.buckets.remove(&dst.0).expect("bucket exists for its key");
        for trip in trips {
            let exact = row.get(trip.source);
            assert!(
                exact > 0 && exact != INFINITY,
                "verified pair ({}, {dst}) is unreachable or degenerate",
                trip.source
            );
            let verified = VerifiedTrip {
                index: trip.index,
                source: trip.source,
                destination: dst,
                measured: trip.measured,
                exact,
            };
            self.report.checked += 1;
            self.report.total_measured += u128::from(trip.measured);
            self.report.total_exact += u128::from(exact);
            self.report.histogram.record(trip.measured, exact);
            match &self.report.worst {
                Some(w) if !worse(&verified, w) => {}
                _ => self.report.worst = Some(verified),
            }
            if self.bound.is_some_and(|b| b.exceeded_by(trip.measured, exact)) {
                self.report.violations.push(verified);
            }
        }
    }

    /// Merges the per-shard accumulators into the final `(report, cost)`
    /// pair, sorting violations by request index.
    pub(crate) fn merge_all(
        parts: impl IntoIterator<Item = VerifyAccumulator>,
        queries: usize,
    ) -> (VerifiedReport, VerifyCost) {
        let mut report = VerifiedReport::default();
        let mut cost = VerifyCost::default();
        for part in parts {
            debug_assert_eq!(part.pending, 0, "worker finished with unflushed trips");
            report.merge(part.report);
            cost.merge(part.cost);
        }
        report.queries = queries;
        report.violations.sort_by_key(|v| v.index);
        (report, cost)
    }
}

/// The sequential oracle-checked replay: serves every request through a
/// fresh [`rtr_sim::Simulator`] one by one
/// ([`rtr_sim::Simulator::roundtrip_cost`], the very trip-cost path the
/// engine's workers drive) and verifies each cost against `oracle` directly
/// — no batching, no buckets, no threads.
///
/// This is the ground truth of the verification plane: the differential
/// test-suite asserts [`crate::Engine::serve_verified_sharded`] reproduces
/// this report **bit for bit** for every shard × worker count.
///
/// # Errors
///
/// The first [`SimError`] any request raises.
pub fn verify_sequential<S, O>(
    plane: &FrozenPlane<S>,
    requests: &[Request],
    oracle: &O,
    config: &VerifyConfig,
) -> Result<VerifiedReport, SimError>
where
    S: RoundtripRouting,
    O: DistanceOracle + ?Sized,
{
    let sim = plane.simulator();
    let mut acc = VerifyAccumulator::new(config);
    for (index, req) in requests.iter().enumerate() {
        let measured =
            sim.roundtrip_cost(plane.scheme(), req.src, req.dst, plane.name_of(req.dst))?;
        if config.mode.checks(index) {
            // Verify immediately: a one-trip "bucket" through the same
            // exact-row comparison the batched path performs.
            acc.push(oracle, index, req, measured);
            VerifyAccumulator::flush_sharded(&mut [&mut acc], oracle);
        }
    }
    let (report, _) = VerifyAccumulator::merge_all([acc], requests.len());
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::tests::ring_plane;
    use crate::workload::Workload;
    use crate::{Engine, EngineConfig, ShardMap, ShardedPlane};
    use rtr_metric::{DistanceMatrix, LazyDijkstraOracle};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn full_mode_checks_everything_and_matches_the_ring_metric() {
        let plane = ring_plane(10);
        let m = DistanceMatrix::build(plane.graph());
        let requests = Workload::Uniform.generate(10, 500, 3);
        let engine = Engine::new(EngineConfig::with_workers(3));
        let sharded = ShardedPlane::new(plane, ShardMap::hashed(10, 3, 1));
        let config = VerifyConfig::full().with_bound(StretchBound::at_most(1));
        let outcome = engine.serve_verified_sharded(&sharded, &requests, &m, &config).unwrap();
        // The ring scheme routes optimally (the ring is the only route), so
        // every trip has stretch exactly 1 and the bound 1 is never exceeded.
        assert_eq!(outcome.report.queries, 500);
        assert_eq!(outcome.report.checked, 500);
        assert!(outcome.report.is_clean());
        assert_eq!(outcome.report.total_measured, outcome.report.total_exact);
        assert!((outcome.report.max_stretch() - 1.0).abs() < 1e-12);
        assert!((outcome.report.histogram.percentile(0.99) - 1.0).abs() < 1e-12);
        assert!(outcome.cost.flushes >= 1);
        assert!(outcome.cost.flush_wall <= outcome.summary.elapsed * 3);
    }

    #[test]
    fn sampled_and_off_modes_check_the_strided_subset() {
        let plane = ring_plane(8);
        let m = DistanceMatrix::build(plane.graph());
        let requests = Workload::Mix.generate(8, 300, 9);
        let engine = Engine::default();
        let sharded = ShardedPlane::new(plane, ShardMap::single(8));
        let sampled = VerifyConfig::sampled(7);
        let sampled = engine.serve_verified_sharded(&sharded, &requests, &m, &sampled).unwrap();
        assert_eq!(sampled.report.checked, requests.len().div_ceil(7));
        let off = VerifyConfig::off();
        let off = engine.serve_verified_sharded(&sharded, &requests, &m, &off).unwrap();
        assert_eq!(off.report.checked, 0);
        assert_eq!(off.report.queries, 300);
        assert_eq!(off.cost.row_fetches, 0);
    }

    #[test]
    fn strict_mode_fails_on_a_violated_bound() {
        let plane = ring_plane(12);
        let m = DistanceMatrix::build(plane.graph());
        let requests = Workload::Uniform.generate(12, 200, 5);
        let engine = Engine::new(EngineConfig::with_workers(2));
        let sharded = ShardedPlane::new(plane, ShardMap::range(12, 2));

        // An impossible ceiling (stretch < 1/2) flags every trip.
        let config = VerifyConfig::full().with_bound(StretchBound { num: 1, den: 2 });
        let err = engine.serve_verified_sharded(&sharded, &requests, &m, &config).unwrap_err();
        let VerifyServeError::BoundExceeded(outcome) = err else {
            panic!("expected BoundExceeded");
        };
        assert_eq!(outcome.report.violations.len(), 200);
        // Violations are sorted by global request index.
        let indices: Vec<usize> = outcome.report.violations.iter().map(|v| v.index).collect();
        assert_eq!(indices, (0..200).collect::<Vec<_>>());

        // The same run in non-strict mode returns the report for inspection.
        let lax = VerifyConfig { strict: false, ..config };
        let outcome = engine.serve_verified_sharded(&sharded, &requests, &m, &lax).unwrap();
        assert_eq!(outcome.report.violations.len(), 200);
    }

    #[test]
    fn tiny_flush_threshold_changes_cost_but_not_the_report() {
        let plane = ring_plane(9);
        let m = DistanceMatrix::build(plane.graph());
        let requests = Workload::Zipf { exponent: 1.2 }.generate(9, 400, 11);
        let engine = Engine::new(EngineConfig::with_workers(2));
        let sharded = ShardedPlane::new(plane, ShardMap::single(9));
        let roomy = VerifyConfig::full();
        let roomy = engine.serve_verified_sharded(&sharded, &requests, &m, &roomy).unwrap();
        let tight = VerifyConfig { flush_pending: 3, ..VerifyConfig::full() };
        let tight = engine.serve_verified_sharded(&sharded, &requests, &m, &tight).unwrap();
        assert_eq!(roomy.report, tight.report);
        assert!(tight.cost.flushes > roomy.cost.flushes);
        assert!(tight.cost.peak_pending <= 3);
    }

    #[test]
    fn histogram_buckets_are_exact_integer_arithmetic() {
        let mut h = StretchHistogram::default();
        h.record(10, 10); // stretch 1.0 → bucket 32
        h.record(15, 10); // stretch 1.5 → bucket 48
        let low = h.clone();
        h.record(10_000, 10); // stretch 1000 → overflow
        let mut high = StretchHistogram::default();
        high.record(10_000, 10);
        // The same trips merged from two parts whose top buckets differ, in
        // either order, and rebuilt from sparse pairs.
        let mut low_first = low.clone();
        low_first.merge(high.clone());
        let mut high_first = high;
        high_first.merge(low.clone());
        let sparse = StretchHistogram::from_nonzero_buckets(&h.nonzero_buckets()).unwrap();
        for h in [&h, &low_first, &high_first, &sparse] {
            assert_eq!(h.count(), 3);
            assert!((h.percentile(0.0) - 1.0).abs() < 1e-12);
            assert!((h.percentile(0.5) - 1.5).abs() < 1e-12);
            assert!((h.percentile(1.0) - 64.0).abs() < 1e-12);
            assert_eq!(h.nonzero_buckets(), [(32, 1), (48, 1), (2048, 1)]);
        }
        assert_eq!(low_first, h);
        assert_eq!(high_first, h);
        assert_eq!(sparse, h);
        // A zero-count pair adds nothing, so it never grows the storage.
        let zero_above = StretchHistogram::from_nonzero_buckets(&[(32, 1), (48, 1), (2048, 0)]);
        assert_eq!(zero_above, Some(low));
    }

    /// A lazy oracle that counts the row reads verification makes.
    #[derive(Debug)]
    struct CountingOracle<'g> {
        inner: LazyDijkstraOracle<'g>,
        rows: AtomicUsize,
        rev_rows: AtomicUsize,
        roundtrip_rows: AtomicUsize,
        views: AtomicUsize,
    }

    impl DistanceOracle for CountingOracle<'_> {
        fn node_count(&self) -> usize {
            self.inner.node_count()
        }
        fn distance(&self, u: NodeId, v: NodeId) -> Distance {
            self.inner.distance(u, v)
        }
        fn row(&self, u: NodeId) -> Vec<Distance> {
            self.rows.fetch_add(1, Ordering::Relaxed);
            self.inner.row(u)
        }
        fn rev_row(&self, u: NodeId) -> Vec<Distance> {
            self.rev_rows.fetch_add(1, Ordering::Relaxed);
            self.inner.rev_row(u)
        }
        fn roundtrip_row(&self, u: NodeId) -> Vec<Distance> {
            self.roundtrip_rows.fetch_add(1, Ordering::Relaxed);
            self.inner.roundtrip_row(u)
        }
        fn roundtrip_row_view(&self, u: NodeId) -> RoundtripRow {
            self.views.fetch_add(1, Ordering::Relaxed);
            self.inner.roundtrip_row_view(u)
        }
        fn prefetch_rows(&self, sources: &[NodeId]) {
            self.inner.prefetch_rows(sources)
        }
    }

    #[test]
    fn verification_reads_rows_through_the_view_only() {
        let plane = ring_plane(24);
        let m = DistanceMatrix::build(plane.graph());
        let oracle = CountingOracle {
            inner: LazyDijkstraOracle::new(plane.graph(), 48),
            rows: AtomicUsize::new(0),
            rev_rows: AtomicUsize::new(0),
            roundtrip_rows: AtomicUsize::new(0),
            views: AtomicUsize::new(0),
        };
        let requests = Workload::Zipf { exponent: 1.2 }.generate(24, 600, 7);
        let engine = Engine::new(EngineConfig::with_workers(2));
        let sharded = ShardedPlane::new(plane.clone(), ShardMap::hashed(24, 4, 3));
        let config = VerifyConfig::full();
        // 600 requests run on the pool; the session's one-request batches
        // run on the calling thread.
        let pooled = engine.serve_verified_sharded(&sharded, &requests, &oracle, &config).unwrap();
        let dense = engine.serve_verified_sharded(&sharded, &requests, &m, &config).unwrap();
        assert_eq!(pooled.report, dense.report);
        assert_eq!(oracle.views.load(Ordering::Relaxed), pooled.cost.row_fetches);
        let mut session = engine.open_stream(&sharded, &oracle, &config);
        for r in &requests[..100] {
            session.serve_batch(std::slice::from_ref(r)).unwrap();
        }
        let single = session.finish().unwrap();
        assert_eq!(single.cost.row_fetches, 100);
        let views = pooled.cost.row_fetches + single.cost.row_fetches;
        assert_eq!(oracle.views.load(Ordering::Relaxed), views);
        let whole = [&oracle.rows, &oracle.rev_rows, &oracle.roundtrip_rows];
        assert_eq!(whole.map(|c| c.load(Ordering::Relaxed)), [0; 3], "a whole row was built");
    }

    #[test]
    fn worst_ordering_is_total() {
        let trip = |index, measured, exact| VerifiedTrip {
            index,
            source: NodeId(0),
            destination: NodeId(1),
            measured,
            exact,
        };
        assert!(worse(&trip(5, 3, 2), &trip(1, 4, 3))); // 9/6 > 8/6
        assert!(!worse(&trip(1, 4, 3), &trip(5, 3, 2)));
        // Equal stretch: the smaller index wins.
        assert!(worse(&trip(1, 6, 4), &trip(5, 3, 2)));
        assert!(!worse(&trip(5, 3, 2), &trip(1, 6, 4)));
    }
}
