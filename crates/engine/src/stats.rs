//! Latency accounting for engine runs.
//!
//! Workers accumulate into private [`WorkerStats`] (hop histogram, scalar
//! counters) and the engine merges them after the pool joins — the hot path
//! touches no shared atomics.  Histograms here and in the verification plane
//! store their buckets only up to the highest occupied one, so an empty
//! accumulator allocates nothing and a merge adds only occupied ranges.
//! Stretch accounting lives entirely in the verification plane
//! ([`crate::VerifyMode::Sampled`] for strided sampling,
//! [`crate::VerifyMode::Full`] for the whole stream); the summary itself
//! carries only throughput and hop-latency facts.

use rtr_sim::BriefRoundtrip;
use std::time::Duration;

/// Number of exact buckets in the hop histogram; roundtrips longer than this
/// land in the overflow bucket (index `HOP_BUCKETS`).
const HOP_BUCKETS: usize = 1024;

/// Counts one more item in bucket `b` of a histogram stored up to its highest
/// occupied bucket, growing it when `b` is above the top.
pub(crate) fn bump(buckets: &mut Vec<u64>, b: usize) {
    if b >= buckets.len() {
        buckets.resize(b + 1, 0);
    }
    buckets[b] += 1;
}

/// Adds histogram `from` into `into`, both stored up to their highest
/// occupied bucket.  The longer vector is kept, so the merge allocates
/// nothing and the result stays in that form.
pub(crate) fn merge_buckets(into: &mut Vec<u64>, mut from: Vec<u64>) {
    if from.len() > into.len() {
        std::mem::swap(into, &mut from);
    }
    for (a, b) in into.iter_mut().zip(&from) {
        *a += b;
    }
}

/// Per-worker accumulator; merged into a [`ServeSummary`] after the join.
#[derive(Debug)]
pub(crate) struct WorkerStats {
    pub queries: usize,
    pub total_hops: u64,
    pub total_weight: u128,
    pub max_header_bits: usize,
    /// `hop_histogram[h]`: roundtrips that took exactly `h` hops
    /// (`hop_histogram[HOP_BUCKETS]` collects the overflow), stored up to the
    /// highest occupied bucket.
    pub hop_histogram: Vec<u64>,
}

impl WorkerStats {
    pub(crate) fn new() -> Self {
        WorkerStats {
            queries: 0,
            total_hops: 0,
            total_weight: 0,
            max_header_bits: 0,
            hop_histogram: Vec::new(),
        }
    }

    /// Records one served roundtrip.
    pub(crate) fn record(&mut self, brief: &BriefRoundtrip) {
        let hops = brief.total_hops();
        self.queries += 1;
        self.total_hops += hops as u64;
        self.total_weight += u128::from(brief.total_weight());
        self.max_header_bits = self.max_header_bits.max(brief.max_header_bits());
        bump(&mut self.hop_histogram, hops.min(HOP_BUCKETS));
    }

    pub(crate) fn merge(&mut self, other: WorkerStats) {
        self.queries += other.queries;
        self.total_hops += other.total_hops;
        self.total_weight += other.total_weight;
        self.max_header_bits = self.max_header_bits.max(other.max_header_bits);
        merge_buckets(&mut self.hop_histogram, other.hop_histogram);
    }
}

/// The aggregate serving outcome of one session
/// ([`crate::VerifiedShardedServe::summary`]).
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Requests served.
    pub queries: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock of the serving phase (excludes workload generation).
    pub elapsed: Duration,
    /// Total hops over all roundtrips.
    pub total_hops: u64,
    /// Total traversed weight over all roundtrips.
    pub total_weight: u128,
    /// Largest header observed across all requests, in bits.
    pub max_header_bits: usize,
    hop_histogram: Vec<u64>,
}

impl ServeSummary {
    pub(crate) fn from_stats(stats: WorkerStats, workers: usize, elapsed: Duration) -> Self {
        // Fold the merged per-worker counters into the telemetry registry —
        // once per serve run, after the join, so the hot path stays free of
        // shared writes.  The registry names mirror the summary fields.
        if rtr_telemetry::enabled() {
            rtr_telemetry::counter("engine.queries").add(stats.queries as u64);
            rtr_telemetry::counter("engine.hops").add(stats.total_hops);
            rtr_telemetry::gauge("engine.max_header_bits").set_max(stats.max_header_bits as u64);
        }
        ServeSummary {
            queries: stats.queries,
            workers,
            elapsed,
            total_hops: stats.total_hops,
            total_weight: stats.total_weight,
            max_header_bits: stats.max_header_bits,
            hop_histogram: stats.hop_histogram,
        }
    }

    /// Serving throughput in queries per second.
    pub fn queries_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.queries as f64 / secs
        } else {
            0.0
        }
    }

    /// Mean hops per roundtrip.
    pub fn avg_hops(&self) -> f64 {
        self.total_hops as f64 / self.queries.max(1) as f64
    }

    /// The `p`-quantile (`0 ≤ p ≤ 1`) of the roundtrip hop count, read from
    /// the exact histogram (the overflow bucket reports as its lower edge).
    pub fn hop_percentile(&self, p: f64) -> usize {
        if self.queries == 0 {
            return 0;
        }
        let rank = ((self.queries as f64 - 1.0) * p).round() as u64;
        let mut seen = 0u64;
        for (hops, &count) in self.hop_histogram.iter().enumerate() {
            seen += count;
            if seen > rank {
                return hops;
            }
        }
        HOP_BUCKETS
    }

    /// `(p50, p95, p99)` roundtrip hop latency.
    pub fn hop_latency(&self) -> (usize, usize, usize) {
        (self.hop_percentile(0.50), self.hop_percentile(0.95), self.hop_percentile(0.99))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_graph::{Distance, NodeId};
    use rtr_sim::BriefTrace;

    fn brief(s: u32, t: u32, hops: usize, weight: Distance) -> BriefRoundtrip {
        let leg = |h, w, at| BriefTrace {
            hops: h,
            weight: w,
            max_header_bits: 64,
            delivered_at: NodeId(at),
        };
        BriefRoundtrip {
            source: NodeId(s),
            destination: NodeId(t),
            outbound: leg(hops / 2, weight / 2, t),
            inbound: leg(hops - hops / 2, weight - weight / 2, s),
        }
    }

    #[test]
    fn record_and_merge_accumulate() {
        // Both merge orders: the operands' top buckets differ (4 and 6 hops).
        for shorter_first in [true, false] {
            let mut a = WorkerStats::new();
            let mut b = WorkerStats::new();
            a.record(&brief(0, 1, 4, 10));
            b.record(&brief(1, 2, 6, 14));
            if !shorter_first {
                std::mem::swap(&mut a, &mut b);
            }
            a.merge(b);
            assert_eq!(a.queries, 2);
            assert_eq!(a.total_hops, 10);
            assert_eq!(a.total_weight, 24);
            assert_eq!(a.hop_histogram[4], 1);
            assert_eq!(a.hop_histogram[6], 1);
            assert_eq!(a.hop_histogram, [0, 0, 0, 0, 1, 0, 1], "stored up to the top bucket");
        }
    }

    #[test]
    fn hop_percentiles_walk_the_histogram() {
        let mut w = WorkerStats::new();
        for _ in 0..90 {
            w.record(&brief(0, 1, 2, 4));
        }
        for _ in 0..10 {
            w.record(&brief(0, 1, 40, 80));
        }
        let s = ServeSummary::from_stats(w, 1, Duration::from_secs(1));
        assert_eq!(s.hop_percentile(0.5), 2);
        assert_eq!(s.hop_percentile(0.99), 40);
        assert_eq!(s.hop_latency(), (2, 40, 40));
        assert!((s.queries_per_sec() - 100.0).abs() < 1e-9);
        assert!((s.avg_hops() - 5.8).abs() < 1e-9);
    }

    #[test]
    fn overflow_bucket_clamps() {
        let one = |hops| {
            let mut w = WorkerStats::new();
            w.record(&brief(0, 1, hops, hops as Distance));
            w
        };
        let merged = |mut a: WorkerStats, b| {
            a.merge(b);
            a
        };
        // Alone, then merged with a short roundtrip from either side.
        for (w, fastest) in [
            (one(5000), HOP_BUCKETS),
            (merged(one(5000), one(3)), 3),
            (merged(one(3), one(5000)), 3),
        ] {
            let s = ServeSummary::from_stats(w, 1, Duration::from_millis(1));
            assert_eq!(s.hop_percentile(1.0), HOP_BUCKETS);
            assert_eq!(s.hop_percentile(0.0), fastest);
        }
    }

    #[test]
    fn empty_summary_is_well_defined() {
        let s = ServeSummary::from_stats(WorkerStats::new(), 4, Duration::ZERO);
        assert_eq!(s.queries_per_sec(), 0.0);
        assert_eq!(s.hop_percentile(0.99), 0);
        assert_eq!(s.avg_hops(), 0.0);
    }
}
