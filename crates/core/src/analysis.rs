//! The shared evaluation harness: run many roundtrip requests through the
//! simulator and summarize stretch, table sizes and header sizes.
//!
//! Every experiment binary in `rtr-bench` funnels its measurements through
//! [`SchemeEvaluation`] so that all tables and figures report the same
//! quantities, computed the same way.

use crate::naming::NamingAssignment;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rtr_graph::{DiGraph, NodeId};
use rtr_metric::DistanceOracle;
use rtr_sim::{RoundtripRouting, SimError, Simulator};

/// Which source/destination pairs an evaluation exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairSelection {
    /// Every ordered pair `(s, t)` with `s ≠ t`.
    AllPairs,
    /// A fixed number of pairs sampled uniformly without replacement (seeded).
    Sampled {
        /// Number of pairs to draw.
        count: usize,
        /// Sample seed.
        seed: u64,
    },
}

/// The summary produced by [`SchemeEvaluation::measure`].
#[derive(Debug, Clone)]
pub struct SchemeEvaluation {
    /// The scheme's name (as reported by `scheme_name`).
    pub scheme: String,
    /// Number of nodes of the evaluated graph.
    pub n: usize,
    /// Number of edges of the evaluated graph.
    pub m: usize,
    /// Number of roundtrip requests evaluated.
    pub pairs: usize,
    /// Mean roundtrip stretch.
    pub avg_stretch: f64,
    /// Maximum roundtrip stretch.
    pub max_stretch: f64,
    /// Median roundtrip stretch.
    pub p50_stretch: f64,
    /// 95th-percentile roundtrip stretch.
    pub p95_stretch: f64,
    /// 99th-percentile roundtrip stretch.
    pub p99_stretch: f64,
    /// Fraction of requests with stretch exactly 1 (optimally routed).
    pub optimal_fraction: f64,
    /// Mean table entries per node (full scheme: dictionary + substrate).
    pub avg_table_entries: f64,
    /// Largest table entries at any node.
    pub max_table_entries: usize,
    /// Largest table size in bits at any node.
    pub max_table_bits: usize,
    /// Largest header observed across all requests, in bits.
    pub max_header_bits: usize,
    /// Mean hop count per roundtrip.
    pub avg_hops: f64,
}

impl SchemeEvaluation {
    /// Runs the evaluation.
    ///
    /// # Errors
    ///
    /// Propagates the first simulator error encountered; a correct scheme
    /// never produces one.
    pub fn measure<S: RoundtripRouting, O: DistanceOracle + ?Sized>(
        g: &DiGraph,
        m: &O,
        names: &NamingAssignment,
        scheme: &S,
        selection: PairSelection,
    ) -> Result<Self, SimError> {
        let sim = Simulator::new(g);
        let n = g.node_count();
        let pairs: Vec<(NodeId, NodeId)> = match selection {
            PairSelection::AllPairs => {
                let mut v = Vec::with_capacity(n * (n - 1));
                for s in g.nodes() {
                    for t in g.nodes() {
                        if s != t {
                            v.push((s, t));
                        }
                    }
                }
                v
            }
            PairSelection::Sampled { count, seed } => {
                let mut all = Vec::with_capacity(n * (n - 1));
                for s in g.nodes() {
                    for t in g.nodes() {
                        if s != t {
                            all.push((s, t));
                        }
                    }
                }
                let mut rng = StdRng::seed_from_u64(seed);
                all.shuffle(&mut rng);
                all.truncate(count.min(all.len()));
                all
            }
        };

        let mut stretches = Vec::with_capacity(pairs.len());
        let mut max_header_bits = 0usize;
        let mut total_hops = 0usize;
        let mut optimal = 0usize;
        for &(s, t) in &pairs {
            let report = sim.roundtrip_brief(scheme, s, t, names.name_of(t))?;
            let stretch = report.stretch(m);
            if report.total_weight() == m.roundtrip(s, t) {
                optimal += 1;
            }
            stretches.push(stretch);
            max_header_bits = max_header_bits.max(report.max_header_bits());
            total_hops += report.total_hops();
        }
        stretches.sort_by(|a, b| a.partial_cmp(b).expect("stretch is never NaN"));

        let percentile = |p: f64| -> f64 {
            if stretches.is_empty() {
                return 0.0;
            }
            let idx = ((stretches.len() as f64 - 1.0) * p).round() as usize;
            stretches[idx]
        };

        let mut max_table_entries = 0usize;
        let mut max_table_bits = 0usize;
        let mut total_entries = 0usize;
        for v in g.nodes() {
            let stats = scheme.table_stats(v);
            max_table_entries = max_table_entries.max(stats.entries);
            max_table_bits = max_table_bits.max(stats.bits);
            total_entries += stats.entries;
        }

        Ok(SchemeEvaluation {
            scheme: scheme.scheme_name().to_string(),
            n,
            m: g.edge_count(),
            pairs: pairs.len(),
            avg_stretch: stretches.iter().sum::<f64>() / stretches.len().max(1) as f64,
            max_stretch: stretches.last().copied().unwrap_or(0.0),
            p50_stretch: percentile(0.5),
            p95_stretch: percentile(0.95),
            p99_stretch: percentile(0.99),
            optimal_fraction: optimal as f64 / pairs.len().max(1) as f64,
            avg_table_entries: total_entries as f64 / n as f64,
            max_table_entries,
            max_table_bits,
            max_header_bits,
            avg_hops: total_hops as f64 / pairs.len().max(1) as f64,
        })
    }

    /// A fixed-width table row used by the experiment binaries
    /// (`scheme  n  max-entries  avg-entries  avg-stretch  p95  max`).
    pub fn table_row(&self) -> String {
        format!(
            "{:<14} {:>6} {:>12} {:>12.1} {:>10.3} {:>8.3} {:>8.3}",
            self.scheme,
            self.n,
            self.max_table_entries,
            self.avg_table_entries,
            self.avg_stretch,
            self.p95_stretch,
            self.max_stretch
        )
    }

    /// The header line matching [`table_row`](Self::table_row).
    pub fn table_header() -> String {
        format!(
            "{:<14} {:>6} {:>12} {:>12} {:>10} {:>8} {:>8}",
            "scheme", "n", "max-entries", "avg-entries", "avg-str", "p95-str", "max-str"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Stretch6Params, StretchSix};
    use rtr_graph::generators::strongly_connected_gnp;
    use rtr_metric::DistanceMatrix;
    use rtr_namedep::ExactOracleScheme;

    #[test]
    fn all_pairs_evaluation_of_stretch6() {
        let g = strongly_connected_gnp(30, 0.12, 3).unwrap();
        let m = DistanceMatrix::build(&g);
        let names = NamingAssignment::random(30, 1);
        let scheme = StretchSix::build(
            &g,
            &m,
            &names,
            ExactOracleScheme::build(&g),
            Stretch6Params::default(),
        );
        let eval =
            SchemeEvaluation::measure(&g, &m, &names, &scheme, PairSelection::AllPairs).unwrap();
        assert_eq!(eval.pairs, 30 * 29);
        assert!(eval.max_stretch <= 6.0 + 1e-9);
        assert!(eval.avg_stretch >= 1.0);
        assert!(eval.p50_stretch <= eval.p95_stretch);
        assert!(eval.p95_stretch <= eval.max_stretch);
        assert!(eval.optimal_fraction > 0.0);
        assert!(eval.max_table_entries > 0);
        assert!(eval.max_header_bits > 0);
    }

    #[test]
    fn sampling_is_deterministic_and_bounded() {
        let g = strongly_connected_gnp(25, 0.15, 5).unwrap();
        let m = DistanceMatrix::build(&g);
        let names = NamingAssignment::random(25, 2);
        let scheme = StretchSix::build(
            &g,
            &m,
            &names,
            ExactOracleScheme::build(&g),
            Stretch6Params::default(),
        );
        let a = SchemeEvaluation::measure(
            &g,
            &m,
            &names,
            &scheme,
            PairSelection::Sampled { count: 50, seed: 9 },
        )
        .unwrap();
        let b = SchemeEvaluation::measure(
            &g,
            &m,
            &names,
            &scheme,
            PairSelection::Sampled { count: 50, seed: 9 },
        )
        .unwrap();
        assert_eq!(a.pairs, 50);
        assert_eq!(a.avg_stretch, b.avg_stretch);
        assert_eq!(a.max_stretch, b.max_stretch);
    }

    #[test]
    fn table_rows_align_with_header() {
        let header = SchemeEvaluation::table_header();
        assert!(header.contains("scheme"));
        assert!(header.contains("max-str"));
    }
}
