//! The compact landmark + ball substrate (Lemma 2 stand-in, Õ(√n) tables).
//!
//! Construction (Cowen–Wagner / Roditty–Thorup–Zwick flavoured):
//!
//! * sample a landmark set `L` of `⌈√(n ln n)⌉` nodes and keep the ones
//!   that are the nearest landmark of at least one node — only those are ever
//!   named by a label, so the rest would be dead weight in every table;
//! * for every kept landmark `l`, run one reverse and one forward Dijkstra
//!   over the graph (each landmark's column reads only the graph, so the
//!   landmarks are laid out in parallel and merged in landmark order; a
//!   repair carries each half whose landmark row a fault left clean, see
//!   [`LandmarkBallScheme::repair_sweep`]).
//!   Every node stores its next port toward `l` — the reverse run's port,
//!   the `InTree(l)` next hop (`|L|` = Õ(√n) words per node; the climb
//!   toward `l` can start anywhere).  The forward run's tree,
//!   `OutTree(l)`, is laid out once (the heavy-path layout of Lemma 14), and
//!   **only the nodes on the out-tree paths from `l` to `l`'s assigned
//!   destinations** compute and store their `O(1)`-word tree-routing record.
//!   Descents visit exactly those paths, so delivery is unaffected while the
//!   per-node record count drops from `|L|` to the handful of landmarks that
//!   actually route through the node;
//! * every node `u` additionally stores its **roundtrip ball**: the nodes `w`
//!   with `r(u, w) < r(u, L)` (strictly closer than the nearest landmark),
//!   capped at `4√n` entries, with the next port on an exact shortest path
//!   `u → w`.  That port is read off `u`'s forward row, the one the row
//!   sweep already holds: walking back from `w`, a node's parent is its
//!   smallest-id in-neighbour on a shortest path, the parent `dijkstra`
//!   itself keeps, until the parent is `u`;
//! * every node keeps its own address in `OutTree(ℓ(u))`, interned behind an
//!   `Arc` and minted from the layout for `ℓ(u)`'s assigned destinations
//!   only.  No tree, router or label of the other members is materialised,
//!   so nothing of size `|L|·n` outlives construction.
//!
//! The label `R3(v)` is `(v, ℓ(v), tree-label of v in OutTree(ℓ(v)))` where
//! `ℓ(v)` is `v`'s nearest landmark by roundtrip distance — `O(log² n)` bits.
//!
//! Routing toward `R3(v)` from `u`: follow ball next-hops while every visited
//! node still has `v` in its ball (these hops lie on exact shortest paths, so
//! the distance to `v` strictly decreases and no loop can form); if a node
//! lacks the entry, fall back *permanently* to landmark mode — climb
//! `InTree(ℓ(v))` to the landmark, then descend `OutTree(ℓ(v))` to `v` using
//! the compact tree router. Delivery is therefore always guaranteed; the
//! stretch is a measured quantity (experiment E9, the `namedep_substrate`
//! binary) rather than a proven bound: this substrate stands in for the
//! Roditty–Thorup–Zwick scheme of the paper's Lemma 2, and ROADMAP item 1
//! tracks the proof.

use crate::substrate::{LabelBits, NameDependentSubstrate};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rtr_graph::algo::dijkstra::{dijkstra, dijkstra_reverse};
use rtr_graph::hash::FxHashMap;
use rtr_graph::par::par_blocks_mut;
use rtr_graph::{DiGraph, Distance, NodeId, Port};
use rtr_metric::{
    broadcast_rows, DistanceOracle, RowInvalidation, RowSweepConsumer, SweepRows, SweepSlots,
};
use rtr_sim::{id_bits, ForwardAction, RoutingError, TableStats};
use rtr_trees::{HeavyPathLayout, TreeLabel, TreeNodeTable, TreeRouter, TreeStep};
use std::sync::Arc;

/// Multiplier on `√n` for the per-node ball cap.
const BALL_FACTOR: f64 = 4.0;

/// Tunables of the landmark + ball construction.  The landmark target is
/// `⌈√(n ln n)⌉` and the ball cap `⌈4√n⌉`.
#[derive(Debug, Clone, Copy)]
pub struct LandmarkParams {
    /// RNG seed for the landmark sample.
    pub seed: u64,
}

impl Default for LandmarkParams {
    fn default() -> Self {
        LandmarkParams { seed: 0x1a2d_3a4c }
    }
}

/// Routing phase recorded in the label while a packet is in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Following per-node ball entries along exact shortest paths.
    Direct,
    /// Climbing the in-tree of the destination's landmark.
    ToLandmark,
    /// Descending the landmark's out-tree toward the destination.
    DownTree,
}

/// The `R3(v)` label of the landmark + ball substrate.
///
/// The tree address is shared behind an [`Arc`]: every table entry and packet
/// header referencing `v` points at the one interned `TreeLabel` minted at
/// build time instead of cloning its light-hop vector.
#[derive(Debug, Clone)]
pub struct LandmarkLabel {
    /// The destination node.
    pub target: NodeId,
    /// The destination's nearest landmark `ℓ(v)` (as an index into the
    /// landmark list, which every node's table shares).
    pub landmark_index: u32,
    /// The destination's compact tree-routing label in `OutTree(ℓ(v))`.
    pub tree_label: Arc<TreeLabel>,
    /// Per-leg working state (mode bits written into the header).
    phase: Phase,
    bits: usize,
}

impl LabelBits for LandmarkLabel {
    fn bits(&self) -> usize {
        self.bits
    }
}

/// The compact landmark + ball name-dependent substrate.
///
/// `Clone` is cheap relative to a rebuild (plain table copies, no Dijkstras;
/// the interned tree addresses are shared, not duplicated), so one substrate
/// build can serve several scheme constructions. Equality is structural over
/// every table — the repair path uses it to property-test bit-identity with
/// a from-scratch rebuild.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LandmarkBallScheme {
    n: usize,
    /// The landmarks some node actually routes through (nearest landmark of
    /// at least one node), sorted; unused samples are discarded at build time.
    landmarks: Vec<NodeId>,
    /// `up_ports[v][l]`: out-port of `v`'s first edge toward landmark `l`
    /// (`None` at the landmark itself).  A climb toward `l` can start at any
    /// node — the ball fallback happens wherever an entry is missing — so
    /// this is the one per-(node, landmark) word that cannot be sparsified.
    up_ports: Vec<Vec<Option<Port>>>,
    /// `descent[v][l]`: `v`'s `O(1)`-word record in `OutTree(l)`, stored only
    /// when `v` lies on the out-tree path from `l` to one of `l`'s assigned
    /// destinations — the only nodes a descent can visit.
    descent: Vec<FxHashMap<u32, TreeNodeTable>>,
    /// `balls[v]`: destination → next port on an exact shortest path.
    balls: Vec<FxHashMap<NodeId, Port>>,
    /// `nearest_landmark[v]`: index into `landmarks` of `ℓ(v)`.
    nearest_landmark: Vec<u32>,
    /// `own_label[v]`: `v`'s interned address in `OutTree(ℓ(v))` — the only
    /// label this substrate ever mints, computed from the landmark's
    /// heavy-path layout for `v` alone.
    own_label: Vec<Arc<TreeLabel>>,
    max_label_bits: usize,
    max_ball_size: usize,
}

/// Pass 1 of the landmark + ball construction as a
/// [`RowSweepConsumer`]: per node, the nearest sampled landmark and the
/// roundtrip ball (with exact first-hop ports), extracted from the node's
/// roundtrip and forward rows.
///
/// Create it with [`LandmarkBallScheme::sweep`] (every node left to sweep)
/// or [`LandmarkBallScheme::repair_sweep`] (clean nodes carried from a
/// previous build), register it on a [`broadcast_rows`] pass over the nodes
/// left — alone, or shared with the suite's other row consumers — and
/// assemble the substrate with [`finish`](LandmarkSweep::finish).
#[derive(Debug)]
pub struct LandmarkSweep<'a> {
    g: &'a DiGraph,
    sampled: Vec<NodeId>,
    ball_cap: usize,
    /// Per node: (index of nearest sampled landmark, ball member → port).
    slots: SweepSlots<(u32, FxHashMap<NodeId, Port>)>,
    /// For a repair sweep, the substrate it repairs and the faults' row
    /// invalidation, from which pass 3 carries the clean landmark columns.
    repairs: Option<(&'a LandmarkBallScheme, &'a RowInvalidation)>,
}

/// How many kept landmarks' columns pass 3 computed rather than carried, per
/// half: the forward half (a forward Dijkstra, its layout, descent records
/// and own labels) and the reverse half (a reverse Dijkstra, every node's
/// up-port).  A build computes every column; a repair only the columns whose
/// landmark row a fault dirtied, or whose landmark gained or lost an assigned
/// destination.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColumnsComputed {
    /// Forward halves computed.
    pub forward: usize,
    /// Reverse halves computed.
    pub reverse: usize,
}

impl RowSweepConsumer for LandmarkSweep<'_> {
    /// The pass-1 result for one node, computed from its rows: the index of
    /// `u`'s nearest *sampled* landmark and `u`'s roundtrip ball with exact
    /// first-hop ports.
    fn consume(&mut self, u: NodeId, rows: &SweepRows<'_>) {
        let (g, sampled, rt_row) = (self.g, &self.sampled, rows.roundtrip);
        let (li, _) = sampled
            .iter()
            .enumerate()
            .map(|(i, &l)| (i, rt_row[l.index()]))
            .min_by_key(|&(i, d)| (d, i))
            .expect("at least one landmark");

        let r_to_landmarks = rt_row[sampled[li].index()];
        // Candidate ball members, nearest first, capped.
        let mut members: Vec<NodeId> =
            g.nodes().filter(|&w| w != u && rt_row[w.index()] < r_to_landmarks).collect();
        members.sort_by_key(|&w| (rt_row[w.index()], w.0));
        members.truncate(self.ball_cap);
        // Each member's first hop, read off the forward row: walk the
        // shortest-path tree back from `w` until the parent is `u`.
        let ball: FxHashMap<NodeId, Port> = members
            .into_iter()
            .map(|w| {
                let mut x = w;
                loop {
                    let p = tree_parent(g, rows.fwd, x);
                    if p == u {
                        return (w, g.port_of_edge(u, x).expect("tree edge exists"));
                    }
                    x = p;
                }
            })
            .collect();
        self.slots.put(u.index(), (li as u32, ball));
    }
}

/// The parent of `x` in the shortest-path tree whose distance row is `fwd`
/// (the tree [`dijkstra`] builds from that row's source): the smallest-id
/// in-neighbour `y` with `fwd[y] + w(y, x) = fwd[x]`.  Weights are positive,
/// so only the source has no such neighbour.
fn tree_parent(g: &DiGraph, fwd: &[Distance], x: NodeId) -> NodeId {
    g.in_edges(x)
        .iter()
        .filter(|&&(y, w)| fwd[y.index()].saturating_add(w) == fwd[x.index()])
        .map(|&(y, _)| y)
        .min()
        .expect("a reached non-source node has a tight in-edge")
}

impl LandmarkSweep<'_> {
    /// Assembles the substrate from the collected pass-1 results (passes 2
    /// and 3 of the construction: landmark pruning, then each kept
    /// landmark's up-ports, descent records and own labels).
    ///
    /// # Panics
    ///
    /// Panics if the sweep has not visited every node yet.
    pub fn finish(self) -> LandmarkBallScheme {
        self.finish_counted().0
    }

    /// [`finish`](Self::finish), also counting the landmark columns pass 3
    /// computed rather than carried from the substrate a repair sweep
    /// repairs.
    ///
    /// # Panics
    ///
    /// Panics if the sweep has not visited every node yet.
    pub fn finish_counted(self) -> (LandmarkBallScheme, ColumnsComputed) {
        let _span = rtr_telemetry::span!(
            "landmark.finish",
            format_args!("landmarks={}", self.sampled.len())
        );
        let (g, sampled) = (self.g, self.sampled);
        let per_node = self.slots.into_vec();
        let mut nearest_sampled = Vec::with_capacity(per_node.len());
        let mut balls = Vec::with_capacity(per_node.len());
        for (li, ball) in per_node {
            nearest_sampled.push(li);
            balls.push(ball);
        }
        let max_ball_size = balls.iter().map(FxHashMap::len).max().unwrap_or(0);
        LandmarkBallScheme::assemble(
            g,
            sampled,
            nearest_sampled,
            balls,
            max_ball_size,
            self.repairs,
        )
    }
}

/// A kept landmark's column in the substrate a repair started from, and
/// which halves of it still hold on the mutated graph.
#[derive(Clone, Copy)]
struct OldColumn<'a> {
    substrate: &'a LandmarkBallScheme,
    /// The column's landmark index in `substrate`.
    index: u32,
    /// The landmark's reverse row is clean, so its in-tree and every
    /// up-port toward it stand.
    up: bool,
    /// Its forward row is clean and its assigned destinations are the same,
    /// so its out-tree, descent records and own labels stand.
    out: bool,
}

/// One kept landmark's share of pass 3, computed from the graph alone or
/// carried, half by half, from the substrate a repair started from.
struct LandmarkColumn {
    /// Every node's out-port toward the landmark (`None` at the landmark).
    up_ports: Vec<Option<Port>>,
    out: OutTreeColumn,
}

/// The forward half of a landmark's column.
struct OutTreeColumn {
    /// The own labels of the landmark's assigned destinations.
    own_labels: Vec<(NodeId, Arc<TreeLabel>)>,
    /// The descent records on the out-tree paths to those destinations.
    descent: Vec<(NodeId, TreeNodeTable)>,
}

impl LandmarkColumn {
    /// The column of landmark `l` with assigned destinations `assigned`:
    /// each half `old` carries is copied from it, and the others cost one
    /// reverse and one forward Dijkstra.
    fn compute(g: &DiGraph, l: NodeId, assigned: &[NodeId], old: Option<OldColumn<'_>>) -> Self {
        let up_ports = match old {
            Some(o) if o.up => {
                o.substrate.up_ports.iter().map(|ports| ports[o.index as usize]).collect()
            }
            _ => dijkstra_reverse(g, l).parent_port,
        };
        let out = match old {
            Some(o) if o.out => OutTreeColumn::carry(g, o, assigned),
            _ => OutTreeColumn::compute(g, l, assigned),
        };
        LandmarkColumn { up_ports, out }
    }
}

impl OutTreeColumn {
    /// The forward half from one forward Dijkstra from `l`, its tree laid
    /// out once.
    fn compute(g: &DiGraph, l: NodeId, assigned: &[NodeId]) -> Self {
        let down = dijkstra(g, l);
        let up = down
            .parent
            .iter()
            .zip(&down.parent_port)
            .map(|(p, port)| p.map(|p| (p.0, port.expect("a tree edge has a port"))))
            .collect();
        let layout = HeavyPathLayout::new(l.index(), up);
        let mut own_labels = Vec::with_capacity(assigned.len());
        let mut descent = Vec::new();
        let mut marked = vec![false; g.node_count()];
        for &v in assigned {
            own_labels.push((v, Arc::new(layout.label(v.index()))));
            // Mark the descent path l → v: every out-tree ancestor stores its
            // O(1)-word record; stop at the first already-marked node (its
            // ancestors were marked by an earlier destination).
            let mut cur = v;
            while !marked[cur.index()] {
                marked[cur.index()] = true;
                descent.push((cur, layout.table(cur.index())));
                match down.parent[cur.index()] {
                    Some(p) => cur = p,
                    None => break,
                }
            }
        }
        OutTreeColumn { own_labels, descent }
    }

    /// The forward half `old` holds, for the same `assigned` destinations.
    fn carry(g: &DiGraph, old: OldColumn<'_>, assigned: &[NodeId]) -> Self {
        let s = old.substrate;
        let own_labels =
            assigned.iter().map(|&v| (v, Arc::clone(&s.own_label[v.index()]))).collect();
        let descent = g
            .nodes()
            .filter_map(|v| s.descent[v.index()].get(&old.index).map(|&record| (v, record)))
            .collect();
        OutTreeColumn { own_labels, descent }
    }
}

impl LandmarkBallScheme {
    /// Builds the substrate.
    ///
    /// Generic over the distance oracle; the construction touches the metric
    /// only through per-source roundtrip rows (landmark selection and ball
    /// extraction for node `u` both read the rows of `u`), so a lazy oracle
    /// serves it with two Dijkstras per node and a bounded cache.  Runs a
    /// solo [`broadcast_rows`] pass over the [`LandmarkSweep`] consumer;
    /// callers building more row structures should use
    /// [`sweep`](Self::sweep) and share the pass.
    ///
    /// # Panics
    ///
    /// Panics if the graph is not strongly connected.
    pub fn build<O: DistanceOracle + ?Sized>(g: &DiGraph, m: &O, params: LandmarkParams) -> Self {
        g.require_strongly_connected().unwrap_or_else(|e| panic!("LandmarkBallScheme::build: {e}"));
        let mut sweep = Self::sweep(g, params);
        broadcast_rows(m, &g.nodes().collect::<Vec<_>>(), &mut [&mut sweep]);
        sweep.finish()
    }

    /// Samples the landmark set and prepares the pass-1 row consumer.  The
    /// caller is responsible for running it over every node's rows (via
    /// [`broadcast_rows`]) before calling [`LandmarkSweep::finish`].
    pub fn sweep(g: &DiGraph, params: LandmarkParams) -> LandmarkSweep<'_> {
        let n = g.node_count();
        let target_landmarks = (n as f64 * (n.max(2) as f64).ln()).sqrt().ceil().max(1.0) as usize;
        let landmark_count = target_landmarks.min(n);

        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut all: Vec<NodeId> = g.nodes().collect();
        all.shuffle(&mut rng);
        let mut sampled: Vec<NodeId> = all.into_iter().take(landmark_count).collect();
        sampled.sort_unstable();

        let ball_cap = ((n as f64).sqrt() * BALL_FACTOR).ceil() as usize;
        LandmarkSweep { g, sampled, ball_cap, slots: SweepSlots::new(n), repairs: None }
    }

    /// Passes 2 and 3 of the construction, from pass-1 results; `repairs`
    /// names the substrate a repair sweep repairs and the faults' row
    /// invalidation, whose clean landmark columns pass 3 carries.
    fn assemble(
        g: &DiGraph,
        sampled: Vec<NodeId>,
        nearest_sampled: Vec<u32>,
        balls: Vec<FxHashMap<NodeId, Port>>,
        max_ball_size: usize,
        repairs: Option<(&LandmarkBallScheme, &RowInvalidation)>,
    ) -> (Self, ColumnsComputed) {
        let n = g.node_count();
        // Pass 2 — keep only the landmarks some node actually routes through.
        // Labels only ever name `ℓ(v)`, so samples that are nobody's nearest
        // landmark would occupy a column of every node's table for nothing.
        let mut used: Vec<u32> = nearest_sampled.clone();
        used.sort_unstable();
        used.dedup();
        let mut remap = vec![u32::MAX; sampled.len()];
        for (new, &old) in used.iter().enumerate() {
            remap[old as usize] = new as u32;
        }
        let landmarks: Vec<NodeId> = used.iter().map(|&i| sampled[i as usize]).collect();
        let nearest_landmark: Vec<u32> =
            nearest_sampled.iter().map(|&i| remap[i as usize]).collect();
        let mut assigned: Vec<Vec<NodeId>> = vec![Vec::new(); landmarks.len()];
        for u in g.nodes() {
            assigned[nearest_landmark[u.index()] as usize].push(u);
        }

        // Pass 3 — two bare Dijkstras per landmark.  The reverse run's
        // ports are every node's up-port toward the landmark.  The forward
        // run's tree is laid out once; only the landmark's assigned
        // destinations mint their label, and only the nodes on the descent
        // paths to them compute their O(1)-word record.  Nothing of size
        // `|L|·n` survives construction.  A landmark's column reads only the
        // graph, so the columns are computed on `par_blocks_mut` and merged
        // in landmark order: every `descent[v]` map gets the same inserts in
        // the same order for any thread count.
        //
        // A repair carries each half of a landmark's column that still
        // holds, keyed by landmark node id rather than index, so the carry
        // holds whichever landmarks pass 2 keeps.  A Dijkstra tree is a
        // function of its row and the tight edges, and a removed or inflated
        // tight edge dirties the row, so a clean reverse row keeps the
        // up-ports (surviving edges keep their ports), and a clean forward
        // row keeps the out-tree, whose labels and records are the same
        // while the assigned set is.
        let old_columns: Vec<Option<OldColumn<'_>>> = match repairs {
            None => vec![None; landmarks.len()],
            Some((old, invalidation)) => {
                // The landmarks that gained or lost an assigned destination.
                let mut reassigned = vec![false; n];
                for u in g.nodes() {
                    let (was, is) =
                        (old.nearest_landmark(u), landmarks[nearest_landmark[u.index()] as usize]);
                    if was != is {
                        reassigned[was.index()] = true;
                        reassigned[is.index()] = true;
                    }
                }
                landmarks
                    .iter()
                    .map(|&l| {
                        let index = old.landmarks.binary_search(&l).ok()? as u32;
                        let up = !invalidation.is_rev_dirty(l);
                        let out = !invalidation.is_fwd_dirty(l) && !reassigned[l.index()];
                        Some(OldColumn { substrate: old, index, up, out })
                    })
                    .collect()
            }
        };
        let computed = ColumnsComputed {
            forward: old_columns.iter().filter(|o| !o.is_some_and(|o| o.out)).count(),
            reverse: old_columns.iter().filter(|o| !o.is_some_and(|o| o.up)).count(),
        };
        let mut columns: Vec<Option<LandmarkColumn>> = (0..landmarks.len()).map(|_| None).collect();
        par_blocks_mut(&mut columns, |start, block| {
            for (offset, slot) in block.iter_mut().enumerate() {
                let li = start + offset;
                let column =
                    LandmarkColumn::compute(g, landmarks[li], &assigned[li], old_columns[li]);
                *slot = Some(column);
            }
        });
        let mut up_ports: Vec<Vec<Option<Port>>> =
            (0..n).map(|_| Vec::with_capacity(landmarks.len())).collect();
        let mut descent: Vec<FxHashMap<u32, TreeNodeTable>> = vec![FxHashMap::default(); n];
        let mut own_label: Vec<Option<Arc<TreeLabel>>> = vec![None; n];
        for (li, column) in columns.into_iter().enumerate() {
            let column = column.expect("every landmark's column was computed");
            for (ports, port) in up_ports.iter_mut().zip(column.up_ports) {
                ports.push(port);
            }
            for (v, label) in column.out.own_labels {
                own_label[v.index()] = Some(label);
            }
            for (v, record) in column.out.descent {
                descent[v.index()].insert(li as u32, record);
            }
        }
        let own_label: Vec<Arc<TreeLabel>> =
            own_label.into_iter().map(|l| l.expect("every node has a nearest landmark")).collect();

        let word = id_bits(n);
        // target + landmark index + tree label (O(log^2 n)) + phase.
        let max_label_bits = word
            + id_bits(landmarks.len())
            + own_label.iter().map(|l| l.bits(n)).max().unwrap_or(0)
            + 2;

        let substrate = LandmarkBallScheme {
            n,
            landmarks,
            up_ports,
            descent,
            balls,
            nearest_landmark,
            own_label,
            max_label_bits,
            max_ball_size,
        };
        (substrate, computed)
    }

    /// The landmark set (the sampled landmarks that are the nearest landmark
    /// of at least one node — the only ones any label can name).
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// The largest ball stored at any node.
    pub fn max_ball_size(&self) -> usize {
        self.max_ball_size
    }

    /// `ℓ(v)`: the nearest landmark of `v`.
    pub fn nearest_landmark(&self, v: NodeId) -> NodeId {
        self.landmarks[self.nearest_landmark[v.index()] as usize]
    }

    /// The pass-1 sweep of a post-fault repair: the sweep
    /// [`sweep`](Self::sweep) prepares, with the results of the nodes
    /// `invalidation` leaves clean carried over from this substrate, so that
    /// a [`broadcast_rows`] pass over
    /// [`dirty_nodes`](RowInvalidation::dirty_nodes) completes it.
    ///
    /// `g` must be the mutated graph (same node set), `params` the
    /// parameters this substrate was built with and `invalidation` the
    /// analysis of the faults that mutated this substrate's graph into `g`;
    /// the sweep must run against the **post-fault** metric — typically a
    /// rebased oracle carrying the clean pre-fault rows. The carry is exact,
    /// not approximate: a clean node's roundtrip row is unchanged by
    /// definition, and its ball's first-hop ports are unchanged too, because
    /// any removed or inflated edge on a shortest path out of `u` is *tight*
    /// from `u` and would have dirtied `u`'s forward row (the Dijkstra
    /// tie-break — smallest parent id among final-distance predecessors — is
    /// a pure function of distances and tight edges).
    ///
    /// [`finish`](LandmarkSweep::finish) re-runs landmark pruning on `g`
    /// and carries landmark columns by the same argument, keyed by landmark
    /// node id: a kept landmark whose reverse row is clean keeps its
    /// up-ports, and one whose forward row is clean and whose assigned
    /// destinations are unchanged keeps its descent records and own labels.
    /// Only the other halves cost a Dijkstra on `g`, and none reads an
    /// oracle row, so the finished substrate is bit-identical to
    /// [`build`](Self::build) from scratch on the mutated graph.
    ///
    /// # Panics
    ///
    /// Panics if the node set changed or `invalidation` sizes a different
    /// metric.
    pub fn repair_sweep<'a>(
        &'a self,
        g: &'a DiGraph,
        params: LandmarkParams,
        invalidation: &'a RowInvalidation,
    ) -> LandmarkSweep<'a> {
        assert_eq!(self.n, g.node_count(), "repair requires an unchanged node set");
        assert_eq!(self.n, invalidation.node_count(), "invalidation sizes a different metric");
        // The sample is metric-free (node count + seed), so regenerate it
        // instead of having stored it.
        let mut sweep = Self::sweep(g, params);
        for u in g.nodes().filter(|&u| !invalidation.is_node_dirty(u)) {
            // Recover the *sampled* index of u's nearest landmark — the
            // substrate only stores indices into the pruned list.
            let li = sweep
                .sampled
                .binary_search(&self.nearest_landmark(u))
                .expect("kept landmark was sampled");
            sweep.slots.put(u.index(), (li as u32, self.balls[u.index()].clone()));
        }
        sweep.repairs = Some((self, invalidation));
        sweep
    }
}

impl NameDependentSubstrate for LandmarkBallScheme {
    type Label = LandmarkLabel;

    fn substrate_name(&self) -> &'static str {
        "landmark-ball"
    }

    fn label_for(&self, v: NodeId) -> LandmarkLabel {
        LandmarkLabel {
            target: v,
            landmark_index: self.nearest_landmark[v.index()],
            tree_label: Arc::clone(&self.own_label[v.index()]),
            phase: Phase::Direct,
            bits: self.max_label_bits,
        }
    }

    fn step(&self, at: NodeId, label: &mut LandmarkLabel) -> Result<ForwardAction, RoutingError> {
        if at == label.target {
            return Ok(ForwardAction::Deliver);
        }
        let li = label.landmark_index as usize;
        if li >= self.landmarks.len() {
            return Err(RoutingError::new(at, "label names an unknown landmark"));
        }

        // Direct (ball) mode: keep following exact shortest-path hops while
        // the current node knows the destination.
        if label.phase == Phase::Direct {
            if let Some(&port) = self.balls[at.index()].get(&label.target) {
                return Ok(ForwardAction::Forward(port));
            }
            // Fall back to the landmark detour, permanently.
            label.phase = Phase::ToLandmark;
        }

        if label.phase == Phase::ToLandmark {
            if at == self.landmarks[li] {
                label.phase = Phase::DownTree;
            } else {
                let port = self.up_ports[at.index()][li]
                    .ok_or_else(|| RoutingError::new(at, "missing in-tree port toward landmark"))?;
                return Ok(ForwardAction::Forward(port));
            }
        }

        // DownTree: descend the landmark's out-tree with the compact router.
        // Descents only visit out-tree ancestors of the landmark's assigned
        // destinations, which are exactly the nodes holding a record.
        let table = self.descent[at.index()].get(&(li as u32)).ok_or_else(|| {
            RoutingError::new(at, "node is not on any descent path of the label's landmark")
        })?;
        match TreeRouter::step(table, &label.tree_label) {
            TreeStep::Deliver => Ok(ForwardAction::Deliver),
            TreeStep::Forward(port) => Ok(ForwardAction::Forward(port)),
            TreeStep::NotInSubtree => {
                Err(RoutingError::new(at, "destination left the landmark subtree during descent"))
            }
        }
    }

    fn table_stats(&self, v: NodeId) -> TableStats {
        let word = id_bits(self.n);
        let landmark_entries = self.up_ports[v.index()].len();
        let descent_entries = self.descent[v.index()].len();
        let ball_entries = self.balls[v.index()].len();
        // Per landmark: one up-port word; per descent record: landmark index
        // + O(1)-word tree record (3 words); per ball entry: destination +
        // port; plus the node's own nearest-landmark id.
        let bits =
            landmark_entries * word + descent_entries * 4 * word + ball_entries * 2 * word + word;
        TableStats { entries: landmark_entries + descent_entries + ball_entries, bits }
    }

    fn max_label_bits(&self) -> usize {
        self.max_label_bits
    }

    fn guaranteed_roundtrip_stretch(&self) -> Option<f64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::harness::drive;
    use rtr_graph::generators::{
        bidirected_grid, ring_with_chords_weighted, strongly_connected_gnp, Family, WeightRange,
    };
    use rtr_graph::DiGraphBuilder;
    use rtr_metric::DistanceMatrix;

    fn build(n: usize, seed: u64) -> (DiGraph, DistanceMatrix, LandmarkBallScheme) {
        let g = strongly_connected_gnp(n, 0.08, seed).unwrap();
        let m = DistanceMatrix::build(&g);
        let s = LandmarkBallScheme::build(&g, &m, LandmarkParams { seed });
        (g, m, s)
    }

    #[test]
    fn always_delivers_to_the_right_node() {
        let (g, _m, s) = build(60, 1);
        for u in g.nodes() {
            for v in g.nodes() {
                let (path, _) = drive(&g, &s, u, s.label_for(v));
                assert_eq!(*path.last().unwrap(), v, "({u},{v}) misdelivered");
            }
        }
    }

    #[test]
    fn near_pairs_route_along_shortest_paths() {
        // If v is in u's ball and stays in every intermediate ball, the route
        // is exactly shortest. At minimum, a ball member reached in one hop is
        // optimal; check the aggregate property: ball-mode-only routes are
        // optimal.
        let (g, m, s) = build(50, 2);
        let mut checked = 0;
        for u in g.nodes() {
            for &v in s.balls[u.index()].keys() {
                let (path, w) = drive(&g, &s, u, s.label_for(v));
                assert_eq!(*path.last().unwrap(), v);
                if path.iter().take(path.len() - 1).all(|x| s.balls[x.index()].contains_key(&v)) {
                    assert_eq!(w, m.distance(u, v), "ball route ({u},{v}) not optimal");
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "no pure ball routes exercised");
    }

    #[test]
    fn roundtrip_stretch_is_small_on_random_graphs() {
        let (g, m, s) = build(64, 3);
        let mut worst: f64 = 0.0;
        let mut sum = 0.0;
        let mut count = 0u32;
        for u in g.nodes() {
            for v in g.nodes() {
                if u == v {
                    continue;
                }
                let (_, out) = drive(&g, &s, u, s.pair_label(u, v));
                let (_, back) = drive(&g, &s, v, s.pair_label(v, u));
                let stretch = (out + back) as f64 / m.roundtrip(u, v) as f64;
                worst = worst.max(stretch);
                sum += stretch;
                count += 1;
            }
        }
        let avg = sum / count as f64;
        // Measured guarantee (experiment E9, the `namedep_substrate`
        // binary): the average sits near 1–2 and the worst case stays well
        // below the composed schemes' budgets.
        assert!(avg <= 3.0, "average substrate stretch {avg} too large");
        assert!(worst <= 12.0, "worst substrate stretch {worst} too large");
    }

    #[test]
    fn tables_are_compact_relative_to_the_oracle() {
        let (g, _m, s) = build(100, 4);
        let n = g.node_count() as f64;
        // Õ(√n): entries per node ≤ landmarks + ball cap = O(√(n ln n)).
        let bound = (3.0 * (n * n.ln()).sqrt() + 4.0 * n.sqrt() + 8.0) as usize;
        for v in g.nodes() {
            let stats = s.table_stats(v);
            assert!(stats.entries <= bound, "table at {v} has {} entries", stats.entries);
            assert!(stats.entries < g.node_count(), "table not sublinear");
        }
    }

    #[test]
    fn labels_are_polylogarithmic() {
        let (g, _m, s) = build(80, 5);
        let n = g.node_count();
        let word = id_bits(n);
        // O(log^2 n) with a modest constant.
        assert!(
            s.max_label_bits() <= 4 * word * word + 4 * word,
            "label bits {} too large",
            s.max_label_bits()
        );
        for v in g.nodes() {
            assert!(s.label_for(v).bits() <= s.max_label_bits());
        }
    }

    #[test]
    fn landmark_count_scales_as_sqrt_n_log_n() {
        let (_, _, s) = build(100, 6);
        let expect = (100.0f64 * 100.0f64.ln()).sqrt();
        assert!(s.landmarks().len() as f64 <= expect.ceil() + 1.0);
        assert!(!s.landmarks().is_empty());
    }

    #[test]
    fn works_on_grids_and_other_families() {
        let g = bidirected_grid(6, 6, 7).unwrap();
        let m = DistanceMatrix::build(&g);
        let s = LandmarkBallScheme::build(&g, &m, LandmarkParams::default());
        for u in g.nodes() {
            for v in g.nodes() {
                let (path, _) = drive(&g, &s, u, s.label_for(v));
                assert_eq!(*path.last().unwrap(), v);
            }
        }
        for family in Family::ALL {
            let g = family.generate(30, 11).unwrap();
            let m = DistanceMatrix::build(&g);
            let s = LandmarkBallScheme::build(&g, &m, LandmarkParams::default());
            let u = NodeId(1);
            for v in g.nodes() {
                let (path, _) = drive(&g, &s, u, s.label_for(v));
                assert_eq!(*path.last().unwrap(), v, "{}", family.name());
            }
        }
    }

    #[test]
    fn nearest_landmark_is_really_nearest() {
        let (g, m, s) = build(40, 8);
        for v in g.nodes() {
            let l = s.nearest_landmark(v);
            for &other in s.landmarks() {
                assert!(m.roundtrip(v, l) <= m.roundtrip(v, other));
            }
        }
    }

    /// A `rows × cols` bidirected grid with every weight 1: ties between
    /// equal-length paths decide most parents.
    fn unit_grid(rows: usize, cols: usize) -> DiGraph {
        let mut b = DiGraphBuilder::new(rows * cols);
        for v in 0..rows * cols {
            let v_id = NodeId::from_index(v);
            if (v + 1) % cols != 0 {
                b.add_bidirected(v_id, NodeId::from_index(v + 1), 1).unwrap();
            }
            if v + cols < rows * cols {
                b.add_bidirected(v_id, NodeId::from_index(v + cols), 1).unwrap();
            }
        }
        b.build().unwrap()
    }

    /// Substrates over every family, a weighted ring with chords and a
    /// unit-weight grid, with their graphs.
    fn substrates_on_every_family() -> Vec<(String, DiGraph, LandmarkBallScheme)> {
        let mut graphs: Vec<(String, DiGraph)> = Vec::new();
        for seed in [12u64, 13] {
            for family in Family::ALL {
                graphs.push((
                    format!("{} {seed}", family.name()),
                    family.generate(70, seed).unwrap(),
                ));
            }
        }
        let (ring, chord) = (WeightRange::new(1, 16), WeightRange::new(1, 256));
        let weighted = ring_with_chords_weighted(120, 360, 42, ring, chord).unwrap();
        graphs.push(("weighted ring".to_string(), weighted));
        graphs.push(("unit grid".to_string(), unit_grid(9, 9)));
        graphs
            .into_iter()
            .map(|(name, g)| {
                let m = DistanceMatrix::build(&g);
                let s = LandmarkBallScheme::build(&g, &m, LandmarkParams::default());
                (name, g, s)
            })
            .collect()
    }

    #[test]
    fn ball_ports_match_full_dijkstra_first_hops() {
        // The ports read off the swept forward row must be exactly the first
        // hop a full single-source run stores, for every ball member.
        let mut checked = 0usize;
        for (name, g, s) in substrates_on_every_family() {
            for u in g.nodes() {
                if s.balls[u.index()].is_empty() {
                    continue;
                }
                let sp = rtr_graph::algo::dijkstra::dijkstra(&g, u);
                for (&w, &port) in &s.balls[u.index()] {
                    let path = sp.path(w).expect("ball member reachable");
                    let expected = g.port_of_edge(u, path[1]).expect("edge on path");
                    assert_eq!(port, expected, "{name}: ball port ({u},{w}) differs from full run");
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "no ball entries exercised");
    }

    #[test]
    fn landmark_records_match_the_tree_types() {
        // Pass 3 without trees must store what the tree types would: every
        // up-port is the in-tree's next port, every descent record the
        // out-tree router's table, every own label that router's label, and
        // every node on an out-tree path to an assigned destination a record.
        use rtr_trees::{InTree, OutTree};
        for (name, g, s) in substrates_on_every_family() {
            for (li, &l) in s.landmarks().iter().enumerate() {
                let in_tree = InTree::shortest_paths(&g, l);
                let out_tree = OutTree::shortest_paths(&g, l);
                let router = TreeRouter::build(&out_tree);
                for v in g.nodes() {
                    let what = format!("{name}: landmark {l}, node {v}");
                    assert_eq!(s.up_ports[v.index()][li], in_tree.next_port(v), "{what}: up-port");
                    if let Some(record) = s.descent[v.index()].get(&(li as u32)) {
                        assert_eq!(Some(record), router.table(v), "{what}: descent record");
                    }
                    if s.nearest_landmark[v.index()] as usize == li {
                        assert_eq!(Some(&s.own_label[v.index()]), router.label(v), "{what}: label");
                        for x in out_tree.path_from_root(v).expect("spanning tree") {
                            let on_path = s.descent[x.index()].contains_key(&(li as u32));
                            assert!(on_path, "{what}: no record at {x} on the descent path");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn descent_records_are_sparse_and_every_landmark_is_used() {
        let (g, _m, s) = build(100, 15);
        let n = g.node_count();
        // Every kept landmark is the nearest landmark of at least one node.
        let mut used = vec![false; s.landmarks().len()];
        for v in g.nodes() {
            used[s.nearest_landmark[v.index()] as usize] = true;
        }
        assert!(used.iter().all(|&u| u), "a retained landmark is nobody's nearest");
        // Every node is the endpoint of its own descent path.
        for v in g.nodes() {
            assert!(s.descent[v.index()].contains_key(&s.nearest_landmark[v.index()]));
        }
        // The retired layout stored n·|L| tree records; the descent sets
        // cover only the out-tree paths to assigned destinations.
        let total_descent: usize = g.nodes().map(|v| s.descent[v.index()].len()).sum();
        assert!(
            total_descent < n * s.landmarks().len() / 2,
            "descent sets not sparse: {total_descent} records for {} landmarks",
            s.landmarks().len()
        );
    }

    #[test]
    fn repair_is_bit_identical_to_fresh_build_on_mutated_graph() {
        use rtr_graph::FaultPlan;
        use rtr_metric::{CachedSubsetOracle, RowInvalidation};
        let mut exercised = 0usize;
        for seed in 0..8u64 {
            let g0 = strongly_connected_gnp(40, 0.12, seed).unwrap();
            let m0 = CachedSubsetOracle::new(&g0);
            let params = LandmarkParams { seed };
            let s0 = LandmarkBallScheme::build(&g0, &m0, params);
            let candidates: Vec<(NodeId, NodeId)> =
                g0.nodes().flat_map(|u| g0.out_edges(u).iter().map(move |e| (u, e.to))).collect();
            let plan = FaultPlan::mixed_from_candidates(&candidates, 5, 2, 3, seed ^ 0x9e37);
            let mut g1 = g0.clone();
            let applied = plan.apply(&mut g1);
            if !g1.is_strongly_connected() {
                continue;
            }
            let inv = RowInvalidation::for_application(&m0, &applied);
            let rebased = CachedSubsetOracle::rebased(&m0, &g1, &inv);
            let mut sweep = s0.repair_sweep(&g1, params, &inv);
            broadcast_rows(&rebased, &inv.dirty_nodes(), &mut [&mut sweep]);
            let repaired = sweep.finish();
            let fresh = LandmarkBallScheme::build(&g1, &DistanceMatrix::build(&g1), params);
            assert_eq!(repaired, fresh, "seed {seed}: repair diverged from fresh build");
            // Repair touched only the dirty nodes' rows.
            assert!(rebased.materialised_rows() <= 2 * inv.dirty_node_count());
            exercised += 1;
        }
        assert!(exercised > 0, "every seeded plan disconnected the graph");
    }

    #[test]
    fn deterministic_given_seed() {
        let (g, m, _) = build(30, 9);
        let a = LandmarkBallScheme::build(&g, &m, LandmarkParams { seed: 5 });
        let b = LandmarkBallScheme::build(&g, &m, LandmarkParams { seed: 5 });
        assert_eq!(a.landmarks(), b.landmarks());
        for v in g.nodes() {
            assert_eq!(a.table_stats(v), b.table_stats(v));
        }
    }
}
