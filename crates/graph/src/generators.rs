//! Seeded generators for the graph families used in the experiments.
//!
//! Every generator returns a *strongly connected*, positively weighted
//! directed graph and is fully deterministic given its seed, so that every
//! experiment can be reproduced bit-for-bit.
//!
//! The families:
//!
//! * [`strongly_connected_gnp`] — directed Erdős–Rényi `G(n, p)` patched to be
//!   strongly connected via a random Hamiltonian cycle; the workhorse family.
//! * [`bidirected_grid`] / [`bidirected_torus`] — each undirected grid edge
//!   replaced by two opposite directed edges (the construction of the §5 lower
//!   bound applied to grids); models mesh-like networks.
//! * [`directed_ring`] and [`ring_with_chords`] — minimal strong connectivity
//!   and small-world-ish variants with asymmetric shortcut edges.
//! * [`complete_digraph`] — dense reference family.
//! * [`layered_cycle`] — long directed cycles with forward "express" edges,
//!   producing strongly asymmetric `d(u,v)` vs `d(v,u)` (the regime where
//!   roundtrip routing differs most from one-way routing).
//! * [`preferential_attachment`] — scale-free-ish digraph, modelling AS-level
//!   topologies, patched to strong connectivity.
//! * [`random_geometric`] — nodes in the unit square connected when close,
//!   with weights proportional to distance; directed by random edge deletion.
//! * [`bidirected_from_undirected`] — the §5 reduction: replace every edge of
//!   an arbitrary undirected graph by two opposite directed edges, which makes
//!   `d(u,v) = d(v,u)` for all pairs.

use crate::graph::{DiGraph, DiGraphBuilder, PortAssignment};
use crate::types::{NodeId, Weight};
use crate::Result;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Parameters shared by the random generators.
#[derive(Debug, Clone, Copy)]
pub struct WeightRange {
    /// Smallest generated weight (≥ 1).
    pub min: Weight,
    /// Largest generated weight.
    pub max: Weight,
}

impl Default for WeightRange {
    fn default() -> Self {
        WeightRange { min: 1, max: 16 }
    }
}

impl WeightRange {
    /// Uniform weights in `[min, max]`.
    pub fn new(min: Weight, max: Weight) -> Self {
        assert!(min >= 1 && max >= min, "invalid weight range");
        WeightRange { min, max }
    }

    /// Unit weights.
    pub fn unit() -> Self {
        WeightRange { min: 1, max: 1 }
    }

    fn sample(&self, rng: &mut StdRng) -> Weight {
        if self.min == self.max {
            self.min
        } else {
            rng.gen_range(self.min..=self.max)
        }
    }
}

fn scrambled(seed: u64) -> PortAssignment {
    PortAssignment::Scrambled { seed: seed ^ 0xa5a5_5a5a_dead_beef }
}

/// Directed `G(n, p)` patched to strong connectivity with a random Hamiltonian
/// cycle of fresh edges.
///
/// # Errors
///
/// Propagates builder errors (none are expected for valid `n ≥ 2`).
///
/// # Panics
///
/// Panics if `n < 2` or `p` is not a probability.
pub fn strongly_connected_gnp(n: usize, p: f64, seed: u64) -> Result<DiGraph> {
    strongly_connected_gnp_weighted(n, p, seed, WeightRange::default())
}

/// [`strongly_connected_gnp`] with an explicit weight range.
pub fn strongly_connected_gnp_weighted(
    n: usize,
    p: f64,
    seed: u64,
    weights: WeightRange,
) -> Result<DiGraph> {
    assert!(n >= 2, "need at least two nodes");
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = DiGraphBuilder::new(n);
    b.port_assignment(scrambled(seed));

    // Random Hamiltonian cycle guarantees strong connectivity.
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.shuffle(&mut rng);
    for i in 0..n {
        let u = NodeId(perm[i]);
        let v = NodeId(perm[(i + 1) % n]);
        b.add_edge(u, v, weights.sample(&mut rng))?;
    }

    for u in 0..n as u32 {
        for v in 0..n as u32 {
            if u == v {
                continue;
            }
            if b.has_edge(NodeId(u), NodeId(v)) {
                continue;
            }
            if rng.gen_bool(p) {
                b.add_edge(NodeId(u), NodeId(v), weights.sample(&mut rng))?;
            }
        }
    }
    b.build()
}

/// `rows × cols` grid where every undirected grid edge becomes two opposite
/// directed edges with equal weight (so `d(u,v) = d(v,u)`).
pub fn bidirected_grid(rows: usize, cols: usize, seed: u64) -> Result<DiGraph> {
    assert!(rows >= 1 && cols >= 1 && rows * cols >= 2, "grid too small");
    let mut rng = StdRng::seed_from_u64(seed);
    let weights = WeightRange::default();
    let n = rows * cols;
    let id = |r: usize, c: usize| NodeId::from_index(r * cols + c);
    let mut b = DiGraphBuilder::new(n);
    b.port_assignment(scrambled(seed));
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_bidirected(id(r, c), id(r, c + 1), weights.sample(&mut rng))?;
            }
            if r + 1 < rows {
                b.add_bidirected(id(r, c), id(r + 1, c), weights.sample(&mut rng))?;
            }
        }
    }
    b.build()
}

/// Like [`bidirected_grid`] but with wrap-around edges (torus).
pub fn bidirected_torus(rows: usize, cols: usize, seed: u64) -> Result<DiGraph> {
    assert!(rows >= 3 && cols >= 3, "torus needs at least 3x3");
    let mut rng = StdRng::seed_from_u64(seed);
    let weights = WeightRange::default();
    let n = rows * cols;
    let id = |r: usize, c: usize| NodeId::from_index((r % rows) * cols + (c % cols));
    let mut b = DiGraphBuilder::new(n);
    b.port_assignment(scrambled(seed));
    for r in 0..rows {
        for c in 0..cols {
            b.add_bidirected(id(r, c), id(r, c + 1), weights.sample(&mut rng))?;
            b.add_bidirected(id(r, c), id(r + 1, c), weights.sample(&mut rng))?;
        }
    }
    b.build()
}

/// A single directed cycle `0 → 1 → … → n−1 → 0` with the given weights.
///
/// This is the extreme asymmetric family: `d(u,v)` can be 1 while `d(v,u)` is
/// `n − 1`.
pub fn directed_ring(n: usize, seed: u64) -> Result<DiGraph> {
    assert!(n >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let weights = WeightRange::default();
    let mut b = DiGraphBuilder::new(n);
    b.port_assignment(scrambled(seed));
    for i in 0..n {
        b.add_edge(
            NodeId::from_index(i),
            NodeId::from_index((i + 1) % n),
            weights.sample(&mut rng),
        )?;
    }
    b.build()
}

/// A directed ring plus `chords` random one-way chord edges.
pub fn ring_with_chords(n: usize, chords: usize, seed: u64) -> Result<DiGraph> {
    ring_with_chords_weighted(n, chords, seed, WeightRange::default(), WeightRange::default())
}

/// [`ring_with_chords`] with explicit ring and chord weight ranges.
///
/// Widening the chord range past the typical graph distance makes a
/// controllable share of the chords *metrically redundant* (never on any
/// shortest path), which is the regime for fault-injection studies: redundant
/// edges can fail without perturbing the distance metric, as in real networks
/// that survive losing spare capacity.
pub fn ring_with_chords_weighted(
    n: usize,
    chords: usize,
    seed: u64,
    ring_weights: WeightRange,
    chord_weights: WeightRange,
) -> Result<DiGraph> {
    assert!(n >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = DiGraphBuilder::new(n);
    b.port_assignment(scrambled(seed));
    for i in 0..n {
        b.add_edge(
            NodeId::from_index(i),
            NodeId::from_index((i + 1) % n),
            ring_weights.sample(&mut rng),
        )?;
    }
    let mut added = 0;
    let mut attempts = 0;
    while added < chords && attempts < 50 * chords.max(1) {
        attempts += 1;
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u != v && !b.has_edge(NodeId(u), NodeId(v)) {
            b.add_edge(NodeId(u), NodeId(v), chord_weights.sample(&mut rng))?;
            added += 1;
        }
    }
    b.build()
}

/// Complete digraph on `n` nodes with random weights.
pub fn complete_digraph(n: usize, seed: u64) -> Result<DiGraph> {
    assert!(n >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let weights = WeightRange::default();
    let mut b = DiGraphBuilder::new(n);
    b.port_assignment(scrambled(seed));
    for u in 0..n as u32 {
        for v in 0..n as u32 {
            if u != v {
                b.add_edge(NodeId(u), NodeId(v), weights.sample(&mut rng))?;
            }
        }
    }
    b.build()
}

/// `layers` concentric directed cycles of `layer_size` nodes each, with
/// one-way "express" edges from each layer to the next and a single long way
/// back, producing strongly asymmetric distances.
pub fn layered_cycle(layers: usize, layer_size: usize, seed: u64) -> Result<DiGraph> {
    assert!(layers >= 1 && layer_size >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let weights = WeightRange::default();
    let n = layers * layer_size;
    let id = |l: usize, i: usize| NodeId::from_index(l * layer_size + (i % layer_size));
    let mut b = DiGraphBuilder::new(n);
    b.port_assignment(scrambled(seed));
    for l in 0..layers {
        for i in 0..layer_size {
            b.add_edge(id(l, i), id(l, i + 1), weights.sample(&mut rng))?;
        }
    }
    for l in 0..layers.saturating_sub(1) {
        // Express edges forward; only one return edge per layer pair.
        for i in (0..layer_size).step_by(2) {
            b.add_edge(id(l, i), id(l + 1, i), weights.sample(&mut rng))?;
        }
        b.add_edge(id(l + 1, 1), id(l, 1), weights.sample(&mut rng))?;
    }
    b.build()
}

/// Preferential-attachment digraph: each new node attaches `out_deg` out-edges
/// to earlier nodes chosen proportionally to their current in-degree (plus 1),
/// and one in-edge from a random earlier node; finally a Hamiltonian cycle on
/// a random permutation guarantees strong connectivity.
pub fn preferential_attachment(n: usize, out_deg: usize, seed: u64) -> Result<DiGraph> {
    assert!(n >= 2 && out_deg >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let weights = WeightRange::default();
    let mut b = DiGraphBuilder::new(n);
    b.port_assignment(scrambled(seed));

    // in_degree + 1 "attractiveness" per existing node.
    let mut attract: Vec<u64> = vec![1; n];
    for v in 1..n {
        let mut targets_added = 0;
        let mut guard = 0;
        while targets_added < out_deg.min(v) && guard < 20 * out_deg {
            guard += 1;
            let total: u64 = attract[..v].iter().sum();
            let mut pick = rng.gen_range(0..total);
            let mut t = 0usize;
            for (i, &a) in attract[..v].iter().enumerate() {
                if pick < a {
                    t = i;
                    break;
                }
                pick -= a;
            }
            let (u, w) = (NodeId::from_index(v), NodeId::from_index(t));
            if !b.has_edge(u, w) {
                b.add_edge(u, w, weights.sample(&mut rng))?;
                attract[t] += 1;
                targets_added += 1;
            }
        }
        // One returning edge so older nodes can reach newer ones.
        let t = rng.gen_range(0..v);
        let (u, w) = (NodeId::from_index(t), NodeId::from_index(v));
        if !b.has_edge(u, w) {
            b.add_edge(u, w, weights.sample(&mut rng))?;
        }
    }
    // Strong-connectivity patch.
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.shuffle(&mut rng);
    for i in 0..n {
        let u = NodeId(perm[i]);
        let v = NodeId(perm[(i + 1) % n]);
        if !b.has_edge(u, v) {
            b.add_edge(u, v, weights.sample(&mut rng))?;
        }
    }
    b.build()
}

/// Random geometric digraph: `n` points in the unit square, an edge between
/// points at Euclidean distance below `radius` (weight = ⌈scaled distance⌉),
/// each direction kept independently with probability `keep`, plus a
/// Hamiltonian-cycle patch for strong connectivity.
pub fn random_geometric(n: usize, radius: f64, keep: f64, seed: u64) -> Result<DiGraph> {
    assert!(n >= 2);
    assert!(radius > 0.0 && (0.0..=1.0).contains(&keep));
    let mut rng = StdRng::seed_from_u64(seed);
    let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen::<f64>(), rng.gen::<f64>())).collect();
    let mut b = DiGraphBuilder::new(n);
    b.port_assignment(scrambled(seed));
    let scale = 100.0;
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let dx = pts[i].0 - pts[j].0;
            let dy = pts[i].1 - pts[j].1;
            let dist = (dx * dx + dy * dy).sqrt();
            if dist <= radius && rng.gen_bool(keep) {
                let w = (dist * scale).ceil().max(1.0) as Weight;
                b.add_edge(NodeId::from_index(i), NodeId::from_index(j), w)?;
            }
        }
    }
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.shuffle(&mut rng);
    for i in 0..n {
        let u = NodeId(perm[i]);
        let v = NodeId(perm[(i + 1) % n]);
        if !b.has_edge(u, v) {
            let du = pts[u.index()];
            let dv = pts[v.index()];
            let dist = ((du.0 - dv.0).powi(2) + (du.1 - dv.1).powi(2)).sqrt();
            let w = (dist * scale).ceil().max(1.0) as Weight;
            b.add_edge(u, v, w)?;
        }
    }
    b.build()
}

/// The §5 reduction: replace each undirected edge `{u, v}` (given as a pair
/// list) by two opposite directed edges with equal weight. The resulting
/// digraph satisfies `d(u,v) = d(v,u)` for every pair, which is the property
/// the lower-bound argument relies on.
///
/// # Errors
///
/// Propagates builder errors (e.g. duplicate or out-of-range edges).
pub fn bidirected_from_undirected(
    n: usize,
    undirected_edges: &[(u32, u32, Weight)],
    seed: u64,
) -> Result<DiGraph> {
    let mut b = DiGraphBuilder::new(n);
    b.port_assignment(scrambled(seed));
    for &(u, v, w) in undirected_edges {
        b.add_bidirected(NodeId(u), NodeId(v), w)?;
    }
    b.build()
}

/// A convenient enumeration of the standard experiment families, so that
/// experiment harnesses can sweep over them by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// [`strongly_connected_gnp`] with average degree ≈ 8.
    Gnp,
    /// [`bidirected_grid`] with aspect ratio ≈ 1.
    Grid,
    /// [`ring_with_chords`] with `n/2` chords.
    RingChords,
    /// [`layered_cycle`] with layers of 16.
    Layered,
    /// [`preferential_attachment`] with out-degree 4.
    ScaleFree,
    /// [`random_geometric`] with radius tuned for connectivity.
    Geometric,
}

impl Family {
    /// All families, for sweeps.
    pub const ALL: [Family; 6] = [
        Family::Gnp,
        Family::Grid,
        Family::RingChords,
        Family::Layered,
        Family::ScaleFree,
        Family::Geometric,
    ];

    /// Short stable name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            Family::Gnp => "gnp",
            Family::Grid => "grid",
            Family::RingChords => "ring+chords",
            Family::Layered => "layered",
            Family::ScaleFree => "scale-free",
            Family::Geometric => "geometric",
        }
    }

    /// Generates a member of this family with approximately `n` nodes.
    ///
    /// # Errors
    ///
    /// Propagates generator errors.
    pub fn generate(self, n: usize, seed: u64) -> Result<DiGraph> {
        match self {
            Family::Gnp => {
                let p = (8.0 / n as f64).min(0.9);
                strongly_connected_gnp(n, p, seed)
            }
            Family::Grid => {
                let side = (n as f64).sqrt().round().max(2.0) as usize;
                bidirected_grid(side, side, seed)
            }
            Family::RingChords => ring_with_chords(n, n / 2, seed),
            Family::Layered => {
                let layer = 16.min(n / 2).max(2);
                layered_cycle((n / layer).max(1), layer, seed)
            }
            Family::ScaleFree => preferential_attachment(n, 4, seed),
            Family::Geometric => {
                let radius = (8.0 / (std::f64::consts::PI * n as f64)).sqrt().min(0.9);
                random_geometric(n, radius, 0.8, seed)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnp_is_strongly_connected_and_deterministic() {
        let g1 = strongly_connected_gnp(64, 0.05, 3).unwrap();
        let g2 = strongly_connected_gnp(64, 0.05, 3).unwrap();
        assert!(g1.is_strongly_connected());
        assert_eq!(g1.edge_count(), g2.edge_count());
        for u in g1.nodes() {
            for (a, b) in g1.out_edges(u).iter().zip(g2.out_edges(u)) {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn gnp_different_seeds_differ() {
        let g1 = strongly_connected_gnp(64, 0.05, 3).unwrap();
        let g2 = strongly_connected_gnp(64, 0.05, 4).unwrap();
        // Overwhelmingly likely to differ in edge count or structure.
        let same = g1.edge_count() == g2.edge_count()
            && g1.nodes().all(|u| g1.out_edges(u) == g2.out_edges(u));
        assert!(!same);
    }

    #[test]
    fn grid_dimensions_and_connectivity() {
        let g = bidirected_grid(5, 7, 1).unwrap();
        assert_eq!(g.node_count(), 35);
        assert!(g.is_strongly_connected());
        // Interior node has degree 4 in each direction.
        let interior = NodeId::from_index(7 + 3);
        assert_eq!(g.out_degree(interior), 4);
        assert_eq!(g.in_degree(interior), 4);
    }

    #[test]
    fn torus_is_regular() {
        let g = bidirected_torus(4, 5, 2).unwrap();
        assert_eq!(g.node_count(), 20);
        assert!(g.is_strongly_connected());
        for v in g.nodes() {
            assert_eq!(g.out_degree(v), 4);
            assert_eq!(g.in_degree(v), 4);
        }
    }

    #[test]
    fn ring_and_chords() {
        let g = directed_ring(10, 5).unwrap();
        assert!(g.is_strongly_connected());
        assert_eq!(g.edge_count(), 10);
        let g = ring_with_chords(30, 10, 5).unwrap();
        assert!(g.is_strongly_connected());
        assert_eq!(g.edge_count(), 40);
    }

    #[test]
    fn weighted_chords_respect_their_range() {
        let ring = WeightRange::unit();
        let chord = WeightRange::new(100, 200);
        let g = ring_with_chords_weighted(40, 25, 7, ring, chord).unwrap();
        assert!(g.is_strongly_connected());
        assert_eq!(g.edge_count(), 65);
        let mut chords_seen = 0;
        for u in g.nodes() {
            for e in g.out_edges(u) {
                if (u.index() + 1) % 40 == e.to.index() {
                    assert_eq!(e.weight, 1, "ring edge outside ring range");
                } else {
                    assert!((100..=200).contains(&e.weight), "chord weight {} off-range", e.weight);
                    chords_seen += 1;
                }
            }
        }
        assert_eq!(chords_seen, 25);
    }

    #[test]
    fn default_ranges_match_the_unweighted_generator() {
        let g1 = ring_with_chords(30, 12, 5).unwrap();
        let g2 =
            ring_with_chords_weighted(30, 12, 5, WeightRange::default(), WeightRange::default())
                .unwrap();
        for u in g1.nodes() {
            assert_eq!(g1.out_edges(u), g2.out_edges(u));
        }
    }

    #[test]
    fn complete_graph_edge_count() {
        let g = complete_digraph(8, 9).unwrap();
        assert_eq!(g.edge_count(), 8 * 7);
        assert!(g.is_strongly_connected());
    }

    #[test]
    fn layered_cycle_is_strongly_connected() {
        let g = layered_cycle(4, 8, 11).unwrap();
        assert_eq!(g.node_count(), 32);
        assert!(g.is_strongly_connected());
    }

    #[test]
    fn preferential_attachment_is_strongly_connected() {
        let g = preferential_attachment(80, 3, 13).unwrap();
        assert_eq!(g.node_count(), 80);
        assert!(g.is_strongly_connected());
    }

    #[test]
    fn geometric_is_strongly_connected() {
        let g = random_geometric(60, 0.3, 0.7, 17).unwrap();
        assert!(g.is_strongly_connected());
    }

    #[test]
    fn bidirected_reduction_symmetric_weights() {
        let edges = [(0, 1, 2), (1, 2, 3), (2, 3, 1), (3, 0, 5), (0, 2, 7)];
        let g = bidirected_from_undirected(4, &edges, 0).unwrap();
        assert!(g.is_strongly_connected());
        for &(u, v, w) in &edges {
            assert_eq!(g.edge_weight(NodeId(u), NodeId(v)), Some(w));
            assert_eq!(g.edge_weight(NodeId(v), NodeId(u)), Some(w));
        }
    }

    #[test]
    fn every_family_generates_strongly_connected_graphs() {
        for family in Family::ALL {
            for seed in 0..3 {
                let g = family.generate(48, seed).unwrap();
                assert!(
                    g.is_strongly_connected(),
                    "{} (seed {seed}) not strongly connected",
                    family.name()
                );
                assert!(g.node_count() >= 16, "{} too small", family.name());
            }
        }
    }

    #[test]
    fn family_names_are_unique() {
        let mut names: Vec<&str> = Family::ALL.iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Family::ALL.len());
    }
}
