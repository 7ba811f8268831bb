//! The [`DistanceOracle`] abstraction: pluggable access to the shortest-path
//! and roundtrip metric of a graph.
//!
//! The paper's schemes (and every structure they are built from — orders,
//! balls, covers, substrates) only ever *query* the roundtrip metric; nothing
//! in their definitions requires an eagerly materialised `n × n` table.  This
//! module makes that access pluggable:
//!
//! * [`crate::DistanceMatrix`] — the dense oracle.  `O(n²)` memory, `O(1)`
//!   queries, one Dijkstra per source at build time.  The right choice up to a
//!   few thousand nodes, where later stages perform millions of random
//!   lookups.
//! * [`LazyDijkstraOracle`] — the sparse/on-demand oracle.  No precomputation;
//!   a forward (and, for reverse distances, a backward) Dijkstra runs the
//!   first time a source's row is touched, and finished rows live in a
//!   **bounded LRU cache**.  Peak memory is `O(capacity · n)` instead of
//!   `O(n²)`, which is what makes `n = 10⁴–10⁵` sparse graphs reachable.
//!   Point queries on cold rows cost a Dijkstra, so consumers should prefer
//!   the row-granular methods ([`DistanceOracle::row`],
//!   [`DistanceOracle::roundtrip_row`]) and sweep source by source.
//! * [`CachedSubsetOracle`] — the memoising middle ground: rows are computed
//!   on demand and kept forever.  When a construction only touches a subset
//!   of sources (for example a cover hierarchy probing seeds and cluster
//!   members), only those rows are ever materialised.
//!
//! The trade-off in one line: **dense pays `n²` up front for free queries;
//! lazy pays a Dijkstra per row miss for `O(capacity·n)` memory; the subset
//! oracle pays each row once for `O(touched·n)` memory.**

use crate::invalidation::RowInvalidation;
use crate::matrix::DistanceMatrix;
use parking_lot::Mutex;
use rtr_graph::algo::dijkstra::{distances_from, distances_to};
use rtr_graph::types::saturating_dist_add;
use rtr_graph::{DiGraph, Distance, NodeId, INFINITY};
use rtr_telemetry::{Counter, Gauge};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Read access to the one-way and roundtrip distances of a fixed graph.
///
/// Implementations must be consistent: `roundtrip(u, v)` equals
/// `distance(u, v) + distance(v, u)` (saturating at [`INFINITY`]), and the
/// row methods must agree with the point methods entry by entry.  All methods
/// take `&self`; implementations with interior caches (the lazy oracles) are
/// internally synchronised, so an oracle can be shared across construction
/// worker threads.
pub trait DistanceOracle: Sync + fmt::Debug {
    /// Number of nodes of the underlying graph.
    fn node_count(&self) -> usize;

    /// One-way distance `d(u, v)`, [`INFINITY`] when unreachable.
    fn distance(&self, u: NodeId, v: NodeId) -> Distance;

    /// Roundtrip distance `r(u, v) = d(u, v) + d(v, u)` (paper §1.1).
    fn roundtrip(&self, u: NodeId, v: NodeId) -> Distance {
        saturating_dist_add(self.distance(u, v), self.distance(v, u))
    }

    /// Bulk row hook: `d(u, v)` for every `v`, as one vector.
    ///
    /// Row-granular access is the unit the lazy oracles cache, so consumers
    /// that sweep sources (orders, balls, landmark selection) should use this
    /// instead of `n` point queries.
    fn row(&self, u: NodeId) -> Vec<Distance>;

    /// Bulk reverse-row hook: `d(v, u)` for every `v` (distances *to* `u`).
    fn rev_row(&self, u: NodeId) -> Vec<Distance>;

    /// Bulk roundtrip row: `r(u, v)` for every `v`.  Needs only the forward
    /// and reverse rows of `u`, so even the lazy oracles serve it with two
    /// Dijkstras.
    fn roundtrip_row(&self, u: NodeId) -> Vec<Distance> {
        let fwd = self.row(u);
        let rev = self.rev_row(u);
        fwd.iter().zip(&rev).map(|(&a, &b)| saturating_dist_add(a, b)).collect()
    }

    /// The roundtrip row of `u` for reading a few entries: it must agree
    /// with [`roundtrip_row`](Self::roundtrip_row) entry by entry.
    ///
    /// The default wraps `roundtrip_row`, so an oracle that overrides only
    /// that method is read through its override.  The lazy oracles answer
    /// with their two cached rows and sum an entry when it is read, so a
    /// reader of `k` entries pays `k` additions instead of a summed `n`-entry
    /// row — what a verify flush checking a few trips per destination wants.
    fn roundtrip_row_view(&self, u: NodeId) -> RoundtripRow {
        RoundtripRow(RowRepr::Summed(self.roundtrip_row(u)))
    }

    /// Hint that the caller is about to sweep the forward and reverse rows of
    /// `sources`, in order.
    ///
    /// Caching oracles may compute the missing rows on worker threads before
    /// returning, so the sweep's subsequent row reads are cache hits and the
    /// Dijkstra time overlaps across cores instead of serialising on the
    /// consumer's thread.  Prefetching never changes any answer — only when
    /// (and on which thread) the Dijkstras run — so deterministic consumers
    /// may call this freely.  The default does nothing (dense oracles have
    /// every row already).
    fn prefetch_rows(&self, sources: &[NodeId]) {
        let _ = sources;
    }

    /// True when every ordered pair is reachable.
    ///
    /// The default checks the forward and reverse rows of node 0 — all nodes
    /// reachable from 0 and 0 reachable from all nodes is equivalent to strong
    /// connectivity — so lazy implementations answer with two Dijkstras
    /// instead of `n`.
    fn is_strongly_connected(&self) -> bool {
        node_zero_reaches_everything(self)
    }

    /// An upper bound on the roundtrip diameter `RTDiam(G)`, tight enough to
    /// terminate scale hierarchies.
    ///
    /// For any probe `x` the triangle inequality gives
    /// `r(u, v) ≤ r(u, x) + r(x, v) ≤ 2·ecc(x)` where
    /// `ecc(x) = max_w r(x, w)`, so `2·ecc(x)` is an upper bound for every
    /// probe and the *minimum* over probes is the one to keep.  The quality
    /// of the bound therefore hinges on probing a node near the metric's
    /// *center* (where `ecc ≈ RTDiam/2` on path-like metrics), not its
    /// periphery.  The default runs a double sweep to find two far-apart
    /// peripheral nodes `a, b`, then probes the **midpoint** node minimizing
    /// `max(r(a, w), r(b, w))` — four roundtrip rows (eight Dijkstras)
    /// instead of one row.  On low-ply metrics (grids, rings with chords,
    /// geometric graphs) the midpoint probe usually recovers the exact
    /// `⌈log₂ RTDiam⌉`, so lazy-oracle `DoubleTreeCover` builds stop minting
    /// a redundant top level; the worst case stays at most `2·RTDiam` (every
    /// `ecc(x) ≤ RTDiam`), exactly as the old single-probe estimate.  Dense
    /// oracles override this with the exact diameter.
    fn roundtrip_diameter_bound(&self) -> Distance {
        if self.node_count() == 0 {
            return 0;
        }
        // max_by_key ties break toward the smaller index for determinism.
        let farthest = |row: &[Distance]| -> (NodeId, Distance) {
            row.iter()
                .enumerate()
                .max_by_key(|&(i, &d)| (d, std::cmp::Reverse(i)))
                .map(|(i, &d)| (NodeId::from_index(i), d))
                .unwrap_or((NodeId(0), 0))
        };
        let row0 = self.roundtrip_row(NodeId(0));
        let (far0, ecc0) = farthest(&row0);
        if ecc0 == INFINITY {
            return INFINITY;
        }
        if ecc0 == 0 {
            return 0; // single node (or an all-zero metric)
        }
        let row_a = self.roundtrip_row(far0);
        let (far_a, ecc_a) = farthest(&row_a);
        let row_b = self.roundtrip_row(far_a);
        let (_, ecc_b) = farthest(&row_b);
        let mid = row_a
            .iter()
            .zip(&row_b)
            .map(|(&da, &db)| da.max(db))
            .enumerate()
            .min_by_key(|&(i, d)| (d, i))
            .map(|(i, _)| NodeId::from_index(i))
            .unwrap_or(NodeId(0));
        let (_, ecc_mid) = farthest(&self.roundtrip_row(mid));
        ecc0.min(ecc_a).min(ecc_b).min(ecc_mid).saturating_mul(2)
    }

    /// Stretch of a measured roundtrip length against `r(u, v)`.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` or the pair is unreachable.
    fn roundtrip_stretch(&self, u: NodeId, v: NodeId, measured: Distance) -> f64 {
        assert_ne!(u, v, "roundtrip stretch undefined for identical endpoints");
        let r = self.roundtrip(u, v);
        assert!(r != INFINITY && r > 0, "pair ({u},{v}) unreachable");
        measured as f64 / r as f64
    }

    /// Verifies `measured ≤ bound_num/bound_den · r(u, v)` in exact integer
    /// arithmetic — how the test-suite asserts the paper's stretch bounds.
    fn within_stretch(
        &self,
        u: NodeId,
        v: NodeId,
        measured: Distance,
        bound_num: u64,
        bound_den: u64,
    ) -> bool {
        let r = self.roundtrip(u, v);
        if r == INFINITY {
            return false;
        }
        (measured as u128) * (bound_den as u128) <= (bound_num as u128) * (r as u128)
    }
}

/// One roundtrip row `r(u, ·)`, read entry by entry
/// ([`DistanceOracle::roundtrip_row_view`]).
#[derive(Debug)]
pub struct RoundtripRow(RowRepr);

#[derive(Debug)]
enum RowRepr {
    /// Every entry already summed.
    Summed(Vec<Distance>),
    /// The forward and reverse rows of `u`, summed when an entry is read.
    Halves(Arc<Vec<Distance>>, Arc<Vec<Distance>>),
}

impl RoundtripRow {
    /// `r(u, v)`.
    pub fn get(&self, v: NodeId) -> Distance {
        match &self.0 {
            RowRepr::Summed(row) => row[v.index()],
            RowRepr::Halves(fwd, rev) => saturating_dist_add(fwd[v.index()], rev[v.index()]),
        }
    }

    /// Number of entries (the oracle's node count).
    pub fn len(&self) -> usize {
        match &self.0 {
            RowRepr::Summed(row) => row.len(),
            RowRepr::Halves(fwd, _) => fwd.len(),
        }
    }

    /// True for the row of an empty graph.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Sources per [`DistanceOracle::prefetch_rows`] batch in
/// [`sweep_rows_prefetched`] (each source is two rows; lazy oracles clamp
/// their own batches to the cache capacity on top of this).
pub const PREFETCH_WINDOW: usize = 16;

/// Sweeps `sources` sequentially, prefetching each window's rows before
/// consuming it — the one loop of every row-granular consumer (orders,
/// landmark extraction, cover balls, the §4 dictionary pass; see
/// [`broadcast_rows`](crate::broadcast_rows)) and of the verification
/// flushes.  A caching oracle computes the window's missing rows in parallel
/// on its worker threads, and [`DistanceOracle::prefetch_rows`] returns only
/// once the whole window is resident; `f` then drains the window on this
/// thread.  Row computation and consumption therefore alternate window by
/// window rather than overlap.  On a dense oracle the prefetch is a no-op
/// and the loop is a plain sequential sweep.
pub fn sweep_rows_prefetched<O, F>(m: &O, sources: &[NodeId], mut f: F)
where
    O: DistanceOracle + ?Sized,
    F: FnMut(NodeId),
{
    for window in sources.chunks(PREFETCH_WINDOW) {
        m.prefetch_rows(window);
        for &v in window {
            f(v);
        }
    }
}

/// Visits the roundtrip rows of several shards' destination lists in **one**
/// prefetch-windowed sweep — the batched-row lookup the engine's
/// verification plane flushes each worker's per-shard destination buckets
/// through.  `shards[s]` is shard `s`'s destination list (duplicates and any
/// order allowed); `f(s, d, row)` is called for every destination of every
/// shard, shards in slice order, destinations in per-shard order, with `row`
/// the [`DistanceOracle::roundtrip_row_view`] of `d`.  Prefetch
/// windows span shard boundaries, so a worker that owns several small shards
/// still fills [`PREFETCH_WINDOW`]-sized oracle batches instead of issuing
/// one under-filled batch per shard.
///
/// On a lazy oracle each window's forward + reverse Dijkstras run in
/// parallel on the oracle's worker threads before `f` reads the window on
/// this thread (the prefetch returns once the window is resident, so the two
/// alternate rather than overlap); on a dense oracle the prefetch is a no-op
/// and the loop degenerates to plain row reads.  The total row cost is two Dijkstras per **distinct**
/// destination across all shards (modulo cache hits), never per consumer
/// item — which is what makes destination-grouped verification cheap under
/// skew.  When destination lists are shard-disjoint — as the engine's
/// per-shard verification buckets are — no row is ever fetched for more
/// than one shard.
pub fn roundtrip_rows_sharded<O, F>(m: &O, shards: &[&[NodeId]], mut f: F)
where
    O: DistanceOracle + ?Sized,
    F: FnMut(usize, NodeId, &RoundtripRow),
{
    let tagged: Vec<(usize, NodeId)> = shards
        .iter()
        .enumerate()
        .flat_map(|(s, dests)| dests.iter().map(move |&d| (s, d)))
        .collect();
    let flat: Vec<NodeId> = tagged.iter().map(|&(_, d)| d).collect();
    let mut at = 0;
    sweep_rows_prefetched(m, &flat, |d| {
        let (shard, _) = tagged[at];
        at += 1;
        f(shard, d, &m.roundtrip_row_view(d));
    });
}

/// The default [`DistanceOracle::is_strongly_connected`]: node 0's forward
/// and reverse rows are finite everywhere.
fn node_zero_reaches_everything<O: DistanceOracle + ?Sized>(m: &O) -> bool {
    if m.node_count() == 0 {
        return true;
    }
    let v0 = NodeId(0);
    m.row(v0).iter().all(|&d| d != INFINITY) && m.rev_row(v0).iter().all(|&d| d != INFINITY)
}

/// Blanket impl so `&O` and `&dyn DistanceOracle` satisfy oracle bounds too.
impl<O: DistanceOracle + ?Sized> DistanceOracle for &O {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }
    fn distance(&self, u: NodeId, v: NodeId) -> Distance {
        (**self).distance(u, v)
    }
    fn roundtrip(&self, u: NodeId, v: NodeId) -> Distance {
        (**self).roundtrip(u, v)
    }
    fn row(&self, u: NodeId) -> Vec<Distance> {
        (**self).row(u)
    }
    fn rev_row(&self, u: NodeId) -> Vec<Distance> {
        (**self).rev_row(u)
    }
    fn roundtrip_row(&self, u: NodeId) -> Vec<Distance> {
        (**self).roundtrip_row(u)
    }
    fn roundtrip_row_view(&self, u: NodeId) -> RoundtripRow {
        (**self).roundtrip_row_view(u)
    }
    fn is_strongly_connected(&self) -> bool {
        (**self).is_strongly_connected()
    }
    fn roundtrip_diameter_bound(&self) -> Distance {
        (**self).roundtrip_diameter_bound()
    }
    fn prefetch_rows(&self, sources: &[NodeId]) {
        (**self).prefetch_rows(sources)
    }
}

impl DistanceOracle for DistanceMatrix {
    fn node_count(&self) -> usize {
        DistanceMatrix::node_count(self)
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Distance {
        DistanceMatrix::distance(self, u, v)
    }

    fn roundtrip(&self, u: NodeId, v: NodeId) -> Distance {
        DistanceMatrix::roundtrip(self, u, v)
    }

    fn row(&self, u: NodeId) -> Vec<Distance> {
        self.row_slice(u).to_vec()
    }

    fn rev_row(&self, u: NodeId) -> Vec<Distance> {
        (0..self.node_count())
            .map(|v| DistanceMatrix::distance(self, NodeId::from_index(v), u))
            .collect()
    }

    fn is_strongly_connected(&self) -> bool {
        self.all_finite()
    }

    fn roundtrip_diameter_bound(&self) -> Distance {
        // The matrix already holds everything: return the exact diameter.
        self.roundtrip_diameter()
    }
}

/// Usage counters of a caching oracle, exposed for the memory-proxy
/// accounting of the `large_sparse` experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OracleStats {
    /// Dijkstra runs performed (each materialises one row, forward or
    /// reverse, counted over the oracle's lifetime — recomputations after an
    /// eviction count again).
    pub rows_computed: usize,
    /// Row requests answered from the cache.
    pub cache_hits: usize,
    /// Largest number of rows resident in the cache at any moment — the peak
    /// memory proxy (each resident row is `n` distances).
    pub peak_resident_rows: usize,
    /// Rows currently resident.
    pub resident_rows: usize,
    /// Rows evicted by the LRU policy over the oracle's lifetime (always 0
    /// for unbounded caches).
    pub evictions: usize,
}

/// Key of one cached row: direction + source.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum RowKey {
    Fwd(u32),
    Rev(u32),
}

/// The shared caching machinery of the two lazy oracles.
struct RowCache {
    /// Resident rows; the `u64` is a monotonically increasing use stamp
    /// driving LRU eviction.
    /// Std SipHash, not `rtr_graph::hash`: serving inserts request endpoints.
    rows: HashMap<RowKey, (Arc<Vec<Distance>>, u64)>,
    clock: u64,
    /// Maximum resident rows; `usize::MAX` disables eviction.
    capacity: usize,
    /// Rows evicted over the cache's lifetime.
    evictions: usize,
}

impl RowCache {
    fn new(capacity: usize) -> Self {
        RowCache { rows: HashMap::new(), clock: 0, capacity, evictions: 0 }
    }

    fn get(&mut self, key: RowKey) -> Option<Arc<Vec<Distance>>> {
        self.clock += 1;
        let clock = self.clock;
        self.rows.get_mut(&key).map(|(row, stamp)| {
            *stamp = clock;
            Arc::clone(row)
        })
    }

    /// Inserts `row`, returning `true` when the insertion evicted a victim.
    fn insert(&mut self, key: RowKey, row: Arc<Vec<Distance>>) -> bool {
        self.clock += 1;
        self.rows.insert(key, (row, self.clock));
        if self.rows.len() > self.capacity {
            // Evict the least recently used row. A linear scan is fine: it is
            // dwarfed by the Dijkstra that preceded every insertion.
            if let Some(&victim) =
                self.rows.iter().min_by_key(|(_, (_, stamp))| *stamp).map(|(k, _)| k)
            {
                self.rows.remove(&victim);
                self.evictions += 1;
                return true;
            }
        }
        false
    }
}

/// Registry handles of one telemetry-scoped oracle, created once at scope
/// assignment so the hot path never touches the registry's name maps.
#[derive(Clone)]
struct OracleTelemetry {
    rows_computed: Counter,
    cache_hits: Counter,
    evictions: Counter,
    prefetch_batches: Counter,
    prefetch_rows: Counter,
    prefetch_batch_rows: Gauge,
}

impl OracleTelemetry {
    /// Handles under the `oracle.<scope>.*` vocabulary.
    fn for_scope(scope: &str) -> Self {
        OracleTelemetry {
            rows_computed: rtr_telemetry::counter(&format!("oracle.{scope}.rows_computed")),
            cache_hits: rtr_telemetry::counter(&format!("oracle.{scope}.cache_hits")),
            evictions: rtr_telemetry::counter(&format!("oracle.{scope}.evictions")),
            prefetch_batches: rtr_telemetry::counter(&format!("oracle.{scope}.prefetch_batches")),
            prefetch_rows: rtr_telemetry::counter(&format!("oracle.{scope}.prefetch_rows")),
            prefetch_batch_rows: rtr_telemetry::gauge(&format!(
                "oracle.{scope}.prefetch_batch_rows"
            )),
        }
    }
}

/// On-demand shortest-path oracle with a bounded LRU row cache.
///
/// Designed for large sparse graphs where the dense `n²` matrix does not fit:
/// no work happens at construction, each row is a single-source Dijkstra on
/// first touch, and at most `capacity` rows (forward and reverse counted
/// separately) stay resident.  The docs at the top of `oracle.rs` spell out
/// the trade-off against [`DistanceMatrix`] and [`CachedSubsetOracle`].
pub struct LazyDijkstraOracle<'g> {
    g: &'g DiGraph,
    cache: Mutex<RowCache>,
    /// The first [`is_strongly_connected`](DistanceOracle::is_strongly_connected)
    /// answer: a property of the borrowed graph, which cannot change.
    strongly_connected: OnceLock<bool>,
    rows_computed: AtomicUsize,
    cache_hits: AtomicUsize,
    peak_resident: AtomicUsize,
    telemetry: Option<OracleTelemetry>,
}

impl fmt::Debug for LazyDijkstraOracle<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LazyDijkstraOracle")
            .field("n", &self.g.node_count())
            .field("stats", &self.stats())
            .finish()
    }
}

impl<'g> LazyDijkstraOracle<'g> {
    /// Creates the oracle over `g` keeping at most `capacity` rows resident.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(g: &'g DiGraph, capacity: usize) -> Self {
        assert!(capacity > 0, "row cache needs capacity >= 1");
        LazyDijkstraOracle {
            g,
            cache: Mutex::new(RowCache::new(capacity)),
            strongly_connected: OnceLock::new(),
            rows_computed: AtomicUsize::new(0),
            cache_hits: AtomicUsize::new(0),
            peak_resident: AtomicUsize::new(0),
            telemetry: None,
        }
    }

    /// Publishes this oracle's counters to the global telemetry registry
    /// under the `oracle.<scope>.*` vocabulary (`rows_computed`,
    /// `cache_hits`, `evictions`, `prefetch_batches`, `prefetch_rows`, plus
    /// the `prefetch_batch_rows` occupancy gauge).  Counting happens at the
    /// source — the same increments that feed [`stats`](Self::stats) — so an
    /// exported telemetry counter can never drift from the oracle's own
    /// accounting.
    pub fn with_telemetry_scope(mut self, scope: &str) -> Self {
        self.telemetry = Some(OracleTelemetry::for_scope(scope));
        self
    }

    /// Creates the oracle with a default capacity of `max(64, n/16)` rows —
    /// ~6% of the dense matrix's memory at large `n`.
    pub fn with_default_capacity(g: &'g DiGraph) -> Self {
        Self::new(g, (g.node_count() / 16).max(64))
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g DiGraph {
        self.g
    }

    /// Rebases a pre-fault oracle onto the mutated graph `g`: every cached
    /// row that `invalidation` proves still exact is carried over (as a
    /// shared `Arc`, no copy), dirty rows are dropped, and the usage
    /// counters restart at zero — so [`stats`](Self::stats) afterwards
    /// measures exactly the *incremental* row cost of post-fault repair and
    /// verification.
    ///
    /// The capacity (and the absence of a telemetry scope — re-attach one
    /// with [`with_telemetry_scope`](Self::with_telemetry_scope) if wanted)
    /// is inherited from `old`.
    ///
    /// # Panics
    ///
    /// Panics when `old`, `g` and `invalidation` disagree on the node count.
    pub fn rebased(
        old: &LazyDijkstraOracle<'_>,
        g: &'g DiGraph,
        invalidation: &RowInvalidation,
    ) -> LazyDijkstraOracle<'g> {
        assert_eq!(old.g.node_count(), g.node_count(), "rebasing across different node counts");
        assert_eq!(invalidation.node_count(), g.node_count(), "invalidation node count mismatch");
        let old_cache = old.cache.lock();
        let new = LazyDijkstraOracle::new(g, old_cache.capacity);
        let mut carried = 0usize;
        {
            let mut cache = new.cache.lock();
            for (&key, (row, _)) in old_cache.rows.iter() {
                let clean = match key {
                    RowKey::Fwd(s) => !invalidation.is_fwd_dirty(NodeId(s)),
                    RowKey::Rev(s) => !invalidation.is_rev_dirty(NodeId(s)),
                };
                if clean {
                    cache.insert(key, Arc::clone(row));
                    carried += 1;
                }
            }
        }
        new.peak_resident.store(carried, Ordering::Relaxed);
        new
    }

    /// Current usage counters.
    pub fn stats(&self) -> OracleStats {
        let (resident_rows, evictions) = {
            let cache = self.cache.lock();
            (cache.rows.len(), cache.evictions)
        };
        OracleStats {
            rows_computed: self.rows_computed.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            peak_resident_rows: self.peak_resident.load(Ordering::Relaxed),
            resident_rows,
            evictions,
        }
    }

    /// Row requests answered from the cache.
    pub fn cache_hits(&self) -> usize {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Row requests (or prefetches on behalf of an upcoming sweep) that had
    /// to run a Dijkstra — one miss per row ever computed, recomputations
    /// after an eviction included.
    pub fn cache_misses(&self) -> usize {
        self.rows_computed.load(Ordering::Relaxed)
    }

    /// Rows evicted by the LRU policy over the oracle's lifetime.
    pub fn evictions(&self) -> usize {
        self.cache.lock().evictions
    }

    /// Fraction of row accesses served from the cache:
    /// `hits / (hits + misses)`, or 0 when nothing was accessed yet.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.cache_hits() as f64;
        let total = hits + self.cache_misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            hits / total
        }
    }

    fn fetch(&self, key: RowKey) -> Arc<Vec<Distance>> {
        if let Some(row) = self.cache.lock().get(key) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            if let Some(t) = &self.telemetry {
                t.cache_hits.inc();
            }
            return row;
        }
        // Compute outside the lock so concurrent misses on different rows
        // overlap; a racing duplicate computation is benign (same result).
        let row = self.compute(key);
        self.install(key, Arc::clone(&row));
        row
    }

    /// Runs `key`'s Dijkstra and counts it, leaving the cache untouched.
    fn compute(&self, key: RowKey) -> Arc<Vec<Distance>> {
        let row = Arc::new(match key {
            RowKey::Fwd(s) => distances_from(self.g, NodeId(s)),
            RowKey::Rev(s) => distances_to(self.g, NodeId(s)),
        });
        self.rows_computed.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = &self.telemetry {
            t.rows_computed.inc();
        }
        row
    }

    /// Installs a computed row in the cache as its most recent entry.
    fn install(&self, key: RowKey, row: Arc<Vec<Distance>>) {
        let (resident, evicted) = {
            let mut cache = self.cache.lock();
            let evicted = cache.insert(key, row);
            (cache.rows.len(), evicted)
        };
        self.peak_resident.fetch_max(resident, Ordering::Relaxed);
        if evicted {
            if let Some(t) = &self.telemetry {
                t.evictions.inc();
            }
        }
    }
}

impl DistanceOracle for LazyDijkstraOracle<'_> {
    fn node_count(&self) -> usize {
        self.g.node_count()
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Distance {
        self.fetch(RowKey::Fwd(u.0))[v.index()]
    }

    fn roundtrip(&self, u: NodeId, v: NodeId) -> Distance {
        // Both terms come from rows of `u`, so a source-by-source sweep stays
        // cache-resident regardless of `v`.
        let out = self.fetch(RowKey::Fwd(u.0))[v.index()];
        let back = self.fetch(RowKey::Rev(u.0))[v.index()];
        saturating_dist_add(out, back)
    }

    fn row(&self, u: NodeId) -> Vec<Distance> {
        self.fetch(RowKey::Fwd(u.0)).as_ref().clone()
    }

    fn rev_row(&self, u: NodeId) -> Vec<Distance> {
        self.fetch(RowKey::Rev(u.0)).as_ref().clone()
    }

    /// Sums the two cached rows in place of the default's copies of both.
    fn roundtrip_row(&self, u: NodeId) -> Vec<Distance> {
        let fwd = self.fetch(RowKey::Fwd(u.0));
        let rev = self.fetch(RowKey::Rev(u.0));
        fwd.iter().zip(rev.iter()).map(|(&a, &b)| saturating_dist_add(a, b)).collect()
    }

    /// The two cached rows themselves, shared: no copy, no summed row.
    fn roundtrip_row_view(&self, u: NodeId) -> RoundtripRow {
        let fwd = self.fetch(RowKey::Fwd(u.0));
        let rev = self.fetch(RowKey::Rev(u.0));
        RoundtripRow(RowRepr::Halves(fwd, rev))
    }

    /// Reads node 0's rows on the first call only: concurrent builds
    /// asserting connectivity on one oracle do not re-fetch them after an
    /// eviction.
    fn is_strongly_connected(&self) -> bool {
        *self.strongly_connected.get_or_init(|| node_zero_reaches_everything(self))
    }

    /// Computes the missing forward + reverse rows of `sources` on the
    /// calling thread and up to `available_parallelism − 1` helpers, each
    /// row into its own slot, and once every helper joined installs them in
    /// the cache in key order: the cache's recency order, and so which row a
    /// later miss evicts, is the same for any thread count.  The batch of
    /// *missing* keys is clamped to the cache capacity — a larger batch
    /// would evict its own rows before the sweep reads them (already-cached
    /// keys don't count against the clamp, so a warm prefix never starves
    /// the cold tail) — which also bounds the rows held until the install.
    fn prefetch_rows(&self, sources: &[NodeId]) {
        let keys: Vec<RowKey> = {
            let cache = self.cache.lock();
            sources
                .iter()
                .flat_map(|&s| [RowKey::Fwd(s.0), RowKey::Rev(s.0)])
                .filter(|k| !cache.rows.contains_key(k))
                .take(cache.capacity.max(1))
                .collect()
        };
        // Prefetch-window occupancy: how many cold rows each batch actually
        // carried (an all-hit window shows up as an empty batch).
        if let Some(t) = &self.telemetry {
            t.prefetch_batches.inc();
            t.prefetch_rows.add(keys.len() as u64);
            t.prefetch_batch_rows.set(keys.len() as u64);
        }
        if keys.is_empty() {
            return;
        }
        let rows: Vec<OnceLock<Arc<Vec<Distance>>>> =
            keys.iter().map(|_| OnceLock::new()).collect();
        let threads =
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(keys.len());
        let next = AtomicUsize::new(0);
        let claim_rows = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(&key) = keys.get(i) else { break };
            let row = self.compute(key);
            assert!(rows[i].set(row).is_ok(), "prefetch key {i} was claimed twice");
        };
        crossbeam::scope(|scope| {
            for _ in 1..threads {
                scope.spawn(|_| claim_rows());
            }
            claim_rows();
        })
        .expect("prefetch worker panicked");
        for (&key, row) in keys.iter().zip(rows) {
            self.install(key, row.into_inner().expect("every prefetched row was computed"));
        }
    }
}

/// Memoising oracle that materialises only the rows actually touched, and
/// keeps them for the oracle's lifetime (no eviction).
///
/// The right choice for constructions that revisit a *subset* of sources many
/// times — e.g. a cover hierarchy repeatedly measuring the same seeds — where
/// LRU eviction would thrash and the dense matrix would waste the untouched
/// rows.  [`materialised_rows`](Self::materialised_rows) reports how much of
/// the `n²` table was ever needed.
pub struct CachedSubsetOracle<'g> {
    inner: LazyDijkstraOracle<'g>,
}

impl fmt::Debug for CachedSubsetOracle<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CachedSubsetOracle")
            .field("n", &self.inner.g.node_count())
            .field("stats", &self.stats())
            .finish()
    }
}

impl<'g> CachedSubsetOracle<'g> {
    /// Creates the oracle over `g`.
    pub fn new(g: &'g DiGraph) -> Self {
        CachedSubsetOracle { inner: LazyDijkstraOracle::new(g, usize::MAX) }
    }

    /// Publishes this oracle's counters under `oracle.<scope>.*` — see
    /// [`LazyDijkstraOracle::with_telemetry_scope`].
    pub fn with_telemetry_scope(mut self, scope: &str) -> Self {
        self.inner = self.inner.with_telemetry_scope(scope);
        self
    }

    /// Rebases a pre-fault subset oracle onto the mutated graph `g`,
    /// carrying every row `invalidation` proves clean and restarting the
    /// counters at zero — see [`LazyDijkstraOracle::rebased`]. With no
    /// eviction, [`materialised_rows`](Self::materialised_rows) afterwards
    /// is the exact number of rows the post-fault phase recomputed.
    ///
    /// # Panics
    ///
    /// Panics when `old`, `g` and `invalidation` disagree on the node count.
    pub fn rebased(
        old: &CachedSubsetOracle<'_>,
        g: &'g DiGraph,
        invalidation: &RowInvalidation,
    ) -> CachedSubsetOracle<'g> {
        CachedSubsetOracle { inner: LazyDijkstraOracle::rebased(&old.inner, g, invalidation) }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g DiGraph {
        self.inner.graph()
    }

    /// Number of rows (forward + reverse) ever materialised.
    pub fn materialised_rows(&self) -> usize {
        self.inner.stats().rows_computed
    }

    /// Current usage counters.
    pub fn stats(&self) -> OracleStats {
        self.inner.stats()
    }
}

impl DistanceOracle for CachedSubsetOracle<'_> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Distance {
        self.inner.distance(u, v)
    }

    fn roundtrip(&self, u: NodeId, v: NodeId) -> Distance {
        self.inner.roundtrip(u, v)
    }

    fn row(&self, u: NodeId) -> Vec<Distance> {
        self.inner.row(u)
    }

    fn rev_row(&self, u: NodeId) -> Vec<Distance> {
        self.inner.rev_row(u)
    }

    fn roundtrip_row(&self, u: NodeId) -> Vec<Distance> {
        self.inner.roundtrip_row(u)
    }

    fn roundtrip_row_view(&self, u: NodeId) -> RoundtripRow {
        self.inner.roundtrip_row_view(u)
    }

    fn prefetch_rows(&self, sources: &[NodeId]) {
        self.inner.prefetch_rows(sources)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_graph::generators::{strongly_connected_gnp, Family};

    /// Every oracle implementation must agree with the dense matrix on every
    /// pair, across all generator families and several seeds.
    #[test]
    fn oracles_agree_with_dense_matrix_across_families() {
        for family in Family::ALL {
            for seed in [1u64, 7, 23] {
                let g = family.generate(28, seed).unwrap();
                let dense = DistanceMatrix::build(&g);
                let lazy = LazyDijkstraOracle::new(&g, 4);
                let subset = CachedSubsetOracle::new(&g);
                for u in g.nodes() {
                    for v in g.nodes() {
                        let d = DistanceOracle::distance(&dense, u, v);
                        assert_eq!(lazy.distance(u, v), d, "{} seed {seed}", family.name());
                        assert_eq!(subset.distance(u, v), d, "{} seed {seed}", family.name());
                        let r = DistanceOracle::roundtrip(&dense, u, v);
                        assert_eq!(lazy.roundtrip(u, v), r);
                        assert_eq!(subset.roundtrip(u, v), r);
                    }
                }
            }
        }
    }

    #[test]
    fn rows_agree_with_point_queries() {
        let g = strongly_connected_gnp(30, 0.12, 5).unwrap();
        let dense = DistanceMatrix::build(&g);
        let lazy = LazyDijkstraOracle::new(&g, 8);
        for u in g.nodes() {
            let fwd = lazy.row(u);
            let rev = lazy.rev_row(u);
            let rt = lazy.roundtrip_row(u);
            for v in g.nodes() {
                assert_eq!(fwd[v.index()], dense.distance(u, v));
                assert_eq!(rev[v.index()], dense.distance(v, u));
                assert_eq!(rt[v.index()], dense.roundtrip(u, v));
            }
        }
    }

    #[test]
    fn lru_capacity_bounds_resident_rows() {
        let g = strongly_connected_gnp(40, 0.1, 9).unwrap();
        let cap = 6;
        let lazy = LazyDijkstraOracle::new(&g, cap);
        for u in g.nodes() {
            let _ = lazy.roundtrip_row(u);
        }
        let stats = lazy.stats();
        assert!(
            stats.peak_resident_rows <= cap + 1,
            "peak {} > cap {cap}",
            stats.peak_resident_rows
        );
        assert!(stats.resident_rows <= cap + 1);
        // Every source needed a forward and a reverse row.
        assert!(stats.rows_computed >= 2 * g.node_count());
    }

    #[test]
    fn repeated_access_hits_the_cache() {
        let g = strongly_connected_gnp(20, 0.2, 3).unwrap();
        let lazy = LazyDijkstraOracle::new(&g, 64);
        let u = NodeId(4);
        let a = lazy.row(u);
        let before = lazy.stats().rows_computed;
        let b = lazy.row(u);
        assert_eq!(a, b);
        assert_eq!(lazy.stats().rows_computed, before, "second access recomputed the row");
        assert!(lazy.stats().cache_hits >= 1);
    }

    #[test]
    fn subset_oracle_materialises_only_touched_rows() {
        let g = strongly_connected_gnp(50, 0.08, 11).unwrap();
        let oracle = CachedSubsetOracle::new(&g);
        let _ = oracle.row(NodeId(0));
        let _ = oracle.row(NodeId(1));
        let _ = oracle.rev_row(NodeId(0));
        assert_eq!(oracle.materialised_rows(), 3);
        // Re-touching costs nothing.
        let _ = oracle.row(NodeId(0));
        assert_eq!(oracle.materialised_rows(), 3);
    }

    #[test]
    fn prefetch_fills_the_cache_and_never_changes_answers() {
        let g = strongly_connected_gnp(36, 0.1, 13).unwrap();
        let dense = DistanceMatrix::build(&g);
        let lazy = LazyDijkstraOracle::new(&g, 16);
        let sources: Vec<NodeId> = g.nodes().take(6).collect();
        lazy.prefetch_rows(&sources);
        let computed = lazy.stats().rows_computed;
        assert_eq!(computed, 12, "six sources need six forward + six reverse rows");
        for &u in &sources {
            let rt = lazy.roundtrip_row(u);
            for v in g.nodes() {
                assert_eq!(rt[v.index()], dense.roundtrip(u, v));
            }
        }
        assert_eq!(lazy.stats().rows_computed, computed, "sweep after prefetch missed the cache");

        // Oversized batches are clamped to the capacity instead of evicting
        // their own rows before the sweep reads them.
        let all: Vec<NodeId> = g.nodes().collect();
        let small = LazyDijkstraOracle::new(&g, 4);
        small.prefetch_rows(&all);
        let stats = small.stats();
        assert!(stats.peak_resident_rows <= 5, "peak {}", stats.peak_resident_rows);
        assert!(stats.rows_computed <= 4, "clamp ignored: {} rows", stats.rows_computed);
    }

    #[test]
    fn a_full_prefetch_window_is_evicted_in_key_order() {
        // A window that fills the LRU exactly is installed in key order,
        // whichever worker finished first: each following cold fetch evicts
        // the window's next key, `Fwd(sources[0])` first.
        let g = strongly_connected_gnp(120, 0.05, 19).unwrap();
        let sources: Vec<NodeId> = g.nodes().take(8).collect();
        let window: Vec<RowKey> =
            sources.iter().flat_map(|&s| [RowKey::Fwd(s.0), RowKey::Rev(s.0)]).collect();
        let lazy = LazyDijkstraOracle::new(&g, window.len());
        lazy.prefetch_rows(&sources);
        assert_eq!(lazy.stats().resident_rows, window.len());
        let cold = g.nodes().skip(sources.len());
        for (i, c) in cold.take(window.len()).enumerate() {
            lazy.distance(c, sources[0]);
            let cache = lazy.cache.lock();
            assert!(!cache.rows.contains_key(&window[i]), "cold fetch {i} kept window key {i}");
            assert!(
                window[i + 1..].iter().all(|k| cache.rows.contains_key(k)),
                "cold fetch {i} evicted a later window key"
            );
        }
    }

    #[test]
    fn batched_roundtrip_rows_agree_with_point_queries_on_every_oracle() {
        let g = strongly_connected_gnp(30, 0.12, 17).unwrap();
        let dense = DistanceMatrix::build(&g);
        let lazy = LazyDijkstraOracle::new(&g, 6);
        let subset = CachedSubsetOracle::new(&g);
        // Duplicates and arbitrary order are allowed: callers pass whatever
        // destination grouping their buckets produced.
        let dests: Vec<NodeId> = [3u32, 0, 29, 3, 17, 17, 8].iter().map(|&i| NodeId(i)).collect();
        for oracle in [&dense as &dyn DistanceOracle, &lazy, &subset] {
            let mut seen = Vec::new();
            roundtrip_rows_sharded(oracle, &[&dests], |s, d, row| {
                assert_eq!((s, row.len()), (0, 30));
                for v in g.nodes() {
                    assert_eq!(row.get(v), dense.roundtrip(d, v));
                }
                seen.push(d);
            });
            assert_eq!(seen, dests);
        }
        // The lazy oracle answered from whole rows, not per-pair Dijkstras.
        assert!(lazy.stats().rows_computed <= 2 * dests.len());
    }

    #[test]
    fn lazy_row_views_share_the_cached_rows() {
        let g = strongly_connected_gnp(30, 0.12, 23).unwrap();
        let dense = DistanceMatrix::build(&g);
        let lazy = LazyDijkstraOracle::new(&g, 8);
        let subset = CachedSubsetOracle::new(&g);
        // The lazy oracles hand out their cached rows; the dense default sums.
        let u = NodeId(3);
        let RowRepr::Halves(fwd, rev) = lazy.roundtrip_row_view(u).0 else {
            panic!("the lazy oracle built a summed row");
        };
        assert!(Arc::ptr_eq(&fwd, &lazy.fetch(RowKey::Fwd(u.0))));
        assert!(Arc::ptr_eq(&rev, &lazy.fetch(RowKey::Rev(u.0))));
        assert!(matches!(subset.roundtrip_row_view(u).0, RowRepr::Halves(..)));
        let by_ref = <&CachedSubsetOracle as DistanceOracle>::roundtrip_row_view(&&subset, u);
        assert!(matches!(by_ref.0, RowRepr::Halves(..)), "the blanket impl forwards the view");
        assert!(matches!(DistanceOracle::roundtrip_row_view(&dense, u).0, RowRepr::Summed(_)));
    }

    #[test]
    fn sharded_roundtrip_rows_match_per_shard_batches_and_share_windows() {
        let g = strongly_connected_gnp(30, 0.12, 19).unwrap();
        let dense = DistanceMatrix::build(&g);
        // Three disjoint shard lists plus one deliberately empty shard — the
        // shape the engine's per-shard verification buckets hand over.
        let a: Vec<NodeId> = [2u32, 7, 11].iter().map(|&i| NodeId(i)).collect();
        let b: Vec<NodeId> = [0u32, 29].iter().map(|&i| NodeId(i)).collect();
        let c: Vec<NodeId> = [5u32, 6, 8, 9].iter().map(|&i| NodeId(i)).collect();
        let shards: Vec<&[NodeId]> = vec![&a, &[], &b, &c];
        let lazy = LazyDijkstraOracle::new(&g, 30);
        let mut seen: Vec<(usize, NodeId)> = Vec::new();
        roundtrip_rows_sharded(&lazy, &shards, |s, d, row| {
            for v in g.nodes() {
                assert_eq!(row.get(v), dense.roundtrip(d, v));
            }
            seen.push((s, d));
        });
        let expected: Vec<(usize, NodeId)> = shards
            .iter()
            .enumerate()
            .flat_map(|(s, dests)| dests.iter().map(move |&d| (s, d)))
            .collect();
        assert_eq!(seen, expected, "shards in order, destinations in per-shard order");
        // One shared sweep: 9 distinct destinations cost exactly 2 rows each
        // even though the per-shard lists are all smaller than a window.
        assert_eq!(lazy.stats().rows_computed, 2 * 9);
    }

    #[test]
    fn accessors_and_telemetry_count_at_the_source() {
        let g = strongly_connected_gnp(30, 0.12, 21).unwrap();
        let lazy = LazyDijkstraOracle::new(&g, 4).with_telemetry_scope("test_oracle");
        for u in g.nodes() {
            let _ = lazy.roundtrip_row(u);
        }
        // The last source's rows are still resident: guaranteed hits.
        let _ = lazy.roundtrip_row(NodeId(29));
        let stats = lazy.stats();
        assert_eq!(lazy.cache_misses(), stats.rows_computed);
        assert_eq!(lazy.cache_hits(), stats.cache_hits);
        assert_eq!(lazy.evictions(), stats.evictions);
        assert!(stats.evictions > 0, "a 4-row cache sweeping 60 rows must evict");
        assert!(stats.cache_hits >= 2);
        assert!(lazy.hit_rate() > 0.0 && lazy.hit_rate() < 1.0);
        // The telemetry counters are incremented by the same code paths that
        // feed stats(), so they can never drift.
        let reg = rtr_telemetry::registry();
        assert_eq!(
            reg.counter_value("oracle.test_oracle.rows_computed"),
            stats.rows_computed as u64
        );
        assert_eq!(reg.counter_value("oracle.test_oracle.cache_hits"), stats.cache_hits as u64);
        assert_eq!(reg.counter_value("oracle.test_oracle.evictions"), stats.evictions as u64);
    }

    #[test]
    fn strong_connectivity_check_agrees_with_graph() {
        let g = strongly_connected_gnp(25, 0.1, 2).unwrap();
        let lazy = LazyDijkstraOracle::with_default_capacity(&g);
        assert!(lazy.is_strongly_connected());

        let mut b = rtr_graph::DiGraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        b.add_edge(NodeId(1), NodeId(0), 1).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 1).unwrap();
        let g = b.build().unwrap();
        assert!(!LazyDijkstraOracle::with_default_capacity(&g).is_strongly_connected());
    }

    #[test]
    fn strong_connectivity_is_answered_once_per_lazy_oracle() {
        // Capacity 1: the reverse row of node 0 evicts its forward row, so
        // an unmemoised second check would compute that row again.
        let g = strongly_connected_gnp(20, 0.15, 3).unwrap();
        let lazy = LazyDijkstraOracle::new(&g, 1);
        assert!(lazy.is_strongly_connected());
        let after_first = lazy.stats().rows_computed;
        assert_eq!(after_first, 2);
        assert!(lazy.evictions() > 0, "node 0's forward row was evicted");
        assert!(lazy.is_strongly_connected());
        assert_eq!(lazy.stats().rows_computed, after_first, "the second check computed a row");
    }

    #[test]
    fn diameter_bound_is_a_true_upper_bound() {
        for seed in [1u64, 4, 9] {
            let g = strongly_connected_gnp(32, 0.1, seed).unwrap();
            let dense = DistanceMatrix::build(&g);
            let lazy = LazyDijkstraOracle::with_default_capacity(&g);
            let exact = dense.roundtrip_diameter();
            assert!(lazy.roundtrip_diameter_bound() >= exact);
            assert!(lazy.roundtrip_diameter_bound() <= exact.saturating_mul(2));
            assert_eq!(DistanceOracle::roundtrip_diameter_bound(&dense), exact);
        }
    }

    #[test]
    fn double_sweep_bound_never_worse_than_single_probe() {
        // The old estimate was 2·ecc(0); the sweep takes a min over probes
        // that includes node 0, so it can only tighten.
        let mut improved = 0usize;
        for seed in 0..12u64 {
            for family in Family::ALL {
                let g = family.generate(40, seed).unwrap();
                let dense = DistanceMatrix::build(&g);
                let lazy = LazyDijkstraOracle::with_default_capacity(&g);
                let single_probe =
                    lazy.roundtrip_row(NodeId(0)).into_iter().max().unwrap().saturating_mul(2);
                let sweep = lazy.roundtrip_diameter_bound();
                assert!(sweep <= single_probe, "{} seed {seed}", family.name());
                assert!(sweep >= dense.roundtrip_diameter(), "{} seed {seed}", family.name());
                if sweep.next_power_of_two() < single_probe.next_power_of_two() {
                    improved += 1;
                }
            }
        }
        // The point of the sweep: on a healthy fraction of instances the
        // power-of-two ceiling (= cover level count) actually drops.
        assert!(improved > 0, "double sweep never tightened the level count");
    }
}
