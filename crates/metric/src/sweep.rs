//! The broadcast row-sweep pipeline: ONE pass over the oracle's forward and
//! reverse rows of a list of sources, fanned out to every registered
//! consumer.
//!
//! Before this module existed, each row-granular construction — the roundtrip
//! orders, landmark extraction, cover ball collection, the polynomial scheme's
//! dictionary pass — swept the metric independently, so a full scheme-suite
//! build fetched every source's rows about five times over (~10n Dijkstras on
//! a lazy oracle).  [`broadcast_rows`] inverts that: the *sweep* is the shared
//! resource and the constructions are [`RowSweepConsumer`]s registered on it.
//! Each source is visited exactly once; its forward row, reverse row and
//! roundtrip row are materialised once and every consumer reads the same
//! borrowed slices.
//!
//! There is one loop, for every oracle: the sources are swept in order, in
//! [`PREFETCH_WINDOW`](crate::PREFETCH_WINDOW)-sized windows (the loop
//! [`sweep_rows_prefetched`] runs).  A caching oracle computes each window's
//! missing rows in parallel on its worker threads before the window is
//! consumed; a dense oracle has every row already.  A build sweeps every
//! node; a post-fault repair sweeps only the nodes whose rows a
//! [`RowInvalidation`](crate::RowInvalidation) marks dirty, into consumers
//! that start from the clean nodes' outputs.  Each consumer fills one output
//! slot per source ([`SweepSlots`]), so its result does not depend on the
//! oracle it was swept from.
//!
//! [`sweep_rows_prefetched`]: crate::sweep_rows_prefetched

use crate::oracle::DistanceOracle;
use rtr_graph::types::saturating_dist_add;
use rtr_graph::{Distance, NodeId};
use std::fmt;

/// The three row views of one source, borrowed for the duration of a
/// [`RowSweepConsumer::consume`] call.
#[derive(Debug)]
pub struct SweepRows<'a> {
    /// Forward row: `fwd[v] = d(source, v)`.
    pub fwd: &'a [Distance],
    /// Reverse row: `rev[v] = d(v, source)`.
    pub rev: &'a [Distance],
    /// Roundtrip row: `roundtrip[v] = r(source, v)` (the saturating sum of
    /// the other two, precomputed once for all consumers).
    pub roundtrip: &'a [Distance],
}

/// A construction that consumes one source's rows at a time.
///
/// [`broadcast_rows`] calls [`consume`](Self::consume) exactly once per
/// source of its list, in list order.
pub trait RowSweepConsumer {
    /// Processes the rows of `source`.
    fn consume(&mut self, source: NodeId, rows: &SweepRows<'_>);
}

/// Runs one shared sweep over `sources`, feeding each source's rows to every
/// consumer.
///
/// Equivalent to running each consumer's private sweep back to back — the
/// rows are deterministic, every consumer sees all of them — but the oracle
/// materialises each row **once** instead of once per consumer, which is the
/// difference between ~10n and ~4n Dijkstras for a full sparse-suite build.
pub fn broadcast_rows<O: DistanceOracle + ?Sized>(
    m: &O,
    sources: &[NodeId],
    consumers: &mut [&mut dyn RowSweepConsumer],
) {
    if sources.is_empty() || consumers.is_empty() {
        return;
    }
    let _span =
        rtr_telemetry::span!("metric.broadcast_rows", format_args!("sources={}", sources.len()));
    crate::oracle::sweep_rows_prefetched(m, sources, |v| {
        let fwd = m.row(v);
        let rev = m.rev_row(v);
        let roundtrip: Vec<Distance> =
            fwd.iter().zip(&rev).map(|(&a, &b)| saturating_dist_add(a, b)).collect();
        let rows = SweepRows { fwd: &fwd, rev: &rev, roundtrip: &roundtrip };
        for consumer in consumers.iter_mut() {
            consumer.consume(v, &rows);
        }
    });
}

/// One output slot per source, filled by a sweep (or carried over from a
/// previous build) and read back in node order.
pub struct SweepSlots<T> {
    slots: Vec<Option<T>>,
}

impl<T> SweepSlots<T> {
    /// Creates `n` empty slots.
    pub fn new(n: usize) -> Self {
        SweepSlots { slots: (0..n).map(|_| None).collect() }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when there are no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Fills slot `index` (intended to be called once per slot).
    pub fn put(&mut self, index: usize, value: T) {
        self.slots[index] = Some(value);
    }

    /// Consumes the slots into a dense vector.
    ///
    /// # Panics
    ///
    /// Panics if any slot was never filled — a sweep that skipped a source is
    /// a bug, not a recoverable condition.
    pub fn into_vec(self) -> Vec<T> {
        self.slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| slot.unwrap_or_else(|| panic!("sweep never filled slot {i}")))
            .collect()
    }
}

impl<T> fmt::Debug for SweepSlots<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepSlots").field("len", &self.slots.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DistanceMatrix, LazyDijkstraOracle, PREFETCH_WINDOW};
    use rtr_graph::generators::strongly_connected_gnp;

    /// Records every row it sees; also counts calls.
    struct Recorder {
        slots: SweepSlots<(Vec<Distance>, Vec<Distance>, Vec<Distance>)>,
        calls: usize,
    }

    impl Recorder {
        fn new(n: usize) -> Self {
            Recorder { slots: SweepSlots::new(n), calls: 0 }
        }
    }

    impl RowSweepConsumer for Recorder {
        fn consume(&mut self, source: NodeId, rows: &SweepRows<'_>) {
            self.calls += 1;
            self.slots.put(
                source.index(),
                (rows.fwd.to_vec(), rows.rev.to_vec(), rows.roundtrip.to_vec()),
            );
        }
    }

    fn all(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId::from_index).collect()
    }

    #[test]
    fn every_consumer_sees_every_source_once_with_correct_rows() {
        let g = strongly_connected_gnp(30, 0.12, 3).unwrap();
        let dense = DistanceMatrix::build(&g);
        let mut a = Recorder::new(30);
        let mut b = Recorder::new(30);
        broadcast_rows(&dense, &all(30), &mut [&mut a, &mut b]);
        for rec in [a, b] {
            assert_eq!(rec.calls, 30);
            let rows = rec.slots.into_vec();
            for (vi, (fwd, rev, rt)) in rows.iter().enumerate() {
                let v = NodeId::from_index(vi);
                for w in g.nodes() {
                    assert_eq!(fwd[w.index()], dense.distance(v, w));
                    assert_eq!(rev[w.index()], dense.distance(w, v));
                    assert_eq!(rt[w.index()], dense.roundtrip(v, w));
                }
            }
        }
    }

    #[test]
    fn lazy_sweep_computes_each_row_once_and_matches_dense() {
        let g = strongly_connected_gnp(40, 0.1, 7).unwrap();
        let dense = DistanceMatrix::build(&g);
        let lazy = LazyDijkstraOracle::new(&g, 2 * PREFETCH_WINDOW + 4);
        let mut a = Recorder::new(40);
        let mut b = Recorder::new(40);
        broadcast_rows(&lazy, &all(40), &mut [&mut a, &mut b]);
        // Two consumers, one sweep: every source still costs exactly one
        // forward + one reverse Dijkstra.
        assert_eq!(lazy.stats().rows_computed, 80);
        let rows_a = a.slots.into_vec();
        let rows_b = b.slots.into_vec();
        for vi in 0..40 {
            assert_eq!(rows_a[vi], rows_b[vi]);
            let v = NodeId::from_index(vi);
            for w in g.nodes() {
                assert_eq!(rows_a[vi].2[w.index()], dense.roundtrip(v, w));
            }
        }
    }

    #[test]
    fn empty_consumer_list_is_a_noop() {
        let g = strongly_connected_gnp(12, 0.3, 1).unwrap();
        let lazy = LazyDijkstraOracle::new(&g, 4);
        broadcast_rows(&lazy, &all(12), &mut []);
        assert_eq!(lazy.stats().rows_computed, 0, "a consumer-less sweep touched the oracle");
    }

    #[test]
    #[should_panic(expected = "never filled slot")]
    fn unfilled_slots_are_detected() {
        let mut slots: SweepSlots<u32> = SweepSlots::new(3);
        slots.put(0, 7);
        slots.put(2, 9);
        let _ = slots.into_vec();
    }
}
