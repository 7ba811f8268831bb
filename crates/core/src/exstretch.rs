//! The generalized prefix-matching scheme with exponential tradeoff
//! (§3, Figs. 4 and 6).
//!
//! The destination name `⟨t⟩` is matched digit by digit: the packet visits a
//! sequence of waypoints `s = v₀, v₁, …, v_k = t` where every `v_i` holds a
//! block whose digit string agrees with `⟨t⟩` on the first `i` digits. Each
//! hop is routed with the substrate's pairwise handshake labels `R2(v_i,
//! v_{i+1})`, which are stored in `v_i`'s table (storage §3.3) and — for the
//! return trip — pushed onto a stack in the packet header (`WaypointStack` of
//! Fig. 6).
//!
//! With a substrate whose per-pair roundtrip stretch is `β`, Lemma 8 gives
//! `r(v_i, v_{i+1}) ≤ 2^i · r(s, t)` and hence total stretch `(2^k − 1)·β`
//! (Theorem 9 instantiates `β = 2k + ε` with the Roditty–Thorup–Zwick
//! spanner; the exact-oracle substrate gives `β = 1`, which the tests use to
//! assert the `2^k − 1` factor as a hard bound).

use crate::naming::NamingAssignment;
use rtr_dictionary::{AddressSpace, BlockDistribution, DistributionParams, NodeName};
use rtr_graph::hash::FxHashMap;
use rtr_graph::par::par_blocks_mut;
use rtr_graph::{DiGraph, NodeId};
use rtr_metric::{DistanceOracle, RoundtripOrder};
use rtr_namedep::NameDependentSubstrate;
use rtr_sim::{id_bits, ForwardAction, HeaderBits, RoundtripRouting, RoutingError, TableStats};
use std::collections::hash_map::Entry;
use std::fmt;

/// Parameters of the exponential-tradeoff scheme.
#[derive(Debug, Clone, Copy)]
pub struct ExStretchParams {
    /// The number of digits `k ≥ 2` (space Õ(n^{1/k}), stretch `(2^k−1)·β`).
    pub k: u32,
    /// Block-distribution tunables (Lemma 4).
    pub blocks: DistributionParams,
}

impl ExStretchParams {
    /// Convenience constructor with default block distribution.
    pub fn with_k(k: u32) -> Self {
        ExStretchParams { k, blocks: DistributionParams::default() }
    }
}

impl Default for ExStretchParams {
    fn default() -> Self {
        ExStretchParams::with_k(2)
    }
}

/// Packet mode (Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Fresh packet.
    NewPacket,
    /// Travelling toward the destination through the waypoint sequence.
    Outbound,
    /// Handed back by the destination host.
    ReturnPacket,
    /// Retracing the waypoints back to the source.
    Inbound,
}

/// A forward/backward pair of substrate labels for one waypoint hop: the
/// `R2(v_i, v_{i+1})` record (the substrate hands out one label per
/// direction; both are stored in the dictionary entry and the backward one is
/// pushed on the return stack).
#[derive(Debug, Clone)]
struct HopLabels<L> {
    /// Routes `v_i → v_{i+1}`.
    forward: L,
    /// Routes `v_{i+1} → v_i`.
    backward: L,
}

/// The writable header of the exponential scheme (Fig. 6): current waypoint
/// leg, the matched-prefix length, and the stack of backward labels.
#[derive(Debug, Clone)]
pub struct ExStretchHeader<L> {
    mode: Mode,
    dest: NodeName,
    src: Option<NodeName>,
    /// Length of the destination-name prefix matched by the *current*
    /// waypoint (the `Hop` counter of Fig. 6).
    matched: u32,
    /// The label of the leg currently being travelled.
    current: Option<L>,
    /// Backward labels to retrace, most recent on top (`WaypointStack`).
    waypoint_stack: Vec<L>,
    name_bits: usize,
    label_bits: usize,
}

impl<L: fmt::Debug> HeaderBits for ExStretchHeader<L> {
    fn bits(&self) -> usize {
        let mut bits = 4 + self.name_bits + 8; // mode + destination + matched counter
        if self.src.is_some() {
            bits += self.name_bits;
        }
        if self.current.is_some() {
            bits += self.label_bits;
        }
        bits + self.waypoint_stack.len() * self.label_bits
    }
}

/// Per-node table (§3.3).
#[derive(Debug, Clone)]
struct NodeTable<L> {
    own_name: NodeName,
    /// (2) `name(v) → R2(u, v)` for `v ∈ N_1(u)`.
    near: FxHashMap<NodeName, HopLabels<L>>,
    /// (3a) prefix dictionary: `(level i, next digit τ)` entries keyed by
    /// `(len, code)`, the length `i+1` of the target prefix and its integer
    /// code ([`AddressSpace::prefix_code`]); the value routes to the nearest
    /// node holding a block matching that prefix.
    prefix_hops: FxHashMap<(u32, u32), HopLabels<L>>,
    /// Names in blocks held by this node whose exact owner it knows
    /// (level-`k` entries of (3b)).
    final_hops: FxHashMap<NodeName, HopLabels<L>>,
}

/// The exponential-tradeoff TINN scheme, generic over the handshake substrate.
#[derive(Debug)]
pub struct ExStretch<S: NameDependentSubstrate> {
    n: usize,
    k: u32,
    space: AddressSpace,
    substrate: S,
    tables: Vec<NodeTable<S::Label>>,
    name_bits: usize,
    label_bits: usize,
}

impl<S: NameDependentSubstrate> ExStretch<S> {
    /// Builds the scheme's tables (storage items (1)–(3) of §3.3; item (1),
    /// the substrate's own table, lives inside `substrate`).
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`, the graph is not strongly connected, or the naming
    /// size mismatches.
    pub fn build<O: DistanceOracle + ?Sized>(
        g: &DiGraph,
        m: &O,
        names: &NamingAssignment,
        substrate: S,
        params: ExStretchParams,
    ) -> Self
    where
        S: Sync,
        S::Label: Send,
    {
        let n = g.node_count();
        let k = params.k;
        assert!(k >= 2, "ExStretch requires k >= 2");
        // Validate before the row sweep: on a lazy oracle the sweep is the
        // expensive part, and these assertions should fire immediately.
        assert_eq!(names.len(), n, "naming assignment size mismatch");
        g.require_strongly_connected().unwrap_or_else(|e| panic!("ExStretch::build: {e}"));
        // The deepest neighborhood any dictionary lookup consults is the
        // level-(k−1) ball, so a prefix-truncated order suffices.
        let order = RoundtripOrder::build_truncated(m, RoundtripOrder::level_size(n, k - 1, k));
        Self::build_with_order(g, names, substrate, &order, params)
    }

    /// Builds the scheme over an **existing** roundtrip order, so the order's
    /// row sweep can be shared with other consumers (the suite collects it on
    /// one [`rtr_metric::broadcast_rows`] pass together with the landmark and
    /// cover sweeps).  The order must store at least the level-`(k−1)`
    /// neighborhood prefix; a deeper prefix yields bit-identical tables.
    ///
    /// Each node's table is a function of the shared order, block
    /// distribution, names and substrate handshakes alone, so the nodes are
    /// minted on [`par_blocks_mut`] and the tables are bit-identical for any
    /// thread count.
    ///
    /// `g` must be strongly connected.  This constructor reads no oracle and
    /// does not check it: the builder of the order and substrate decided it
    /// ([`build`](Self::build), or the sparse suite's artifact sweep).
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`, the naming or order size mismatches, or the order's
    /// stored prefix is too shallow.
    pub fn build_with_order(
        g: &DiGraph,
        names: &NamingAssignment,
        substrate: S,
        order: &RoundtripOrder,
        params: ExStretchParams,
    ) -> Self
    where
        S: Sync,
        S::Label: Send,
    {
        let n = g.node_count();
        let k = params.k;
        assert!(k >= 2, "ExStretch requires k >= 2");
        assert_eq!(names.len(), n, "naming assignment size mismatch");
        assert_eq!(order.node_count(), n, "order size mismatch");
        let deepest = RoundtripOrder::level_size(n, k - 1, k);
        assert!(
            order.stored_prefix() >= deepest.min(n),
            "order stores {} entries per node, scheme needs {deepest}",
            order.stored_prefix()
        );
        let space = AddressSpace::new(n, k);
        let distribution = BlockDistribution::build(space, order, params.blocks);

        let name_bits = id_bits(n);
        let label_bits = substrate.max_label_bits();

        let mut slots: Vec<Option<NodeTable<S::Label>>> = (0..n).map(|_| None).collect();
        par_blocks_mut(&mut slots, |start, block| {
            for (offset, slot) in block.iter_mut().enumerate() {
                let u = NodeId::from_index(start + offset);
                *slot = Some(Self::node_table(u, k, names, &substrate, order, &distribution));
            }
        });
        let tables = slots.into_iter().map(|s| s.expect("every node was minted")).collect();

        ExStretch { n, k, space, substrate, tables, name_bits, label_bits }
    }

    /// Node `u`'s dictionary (items (2) and (3) of §3.3), one handshake per
    /// entry.
    fn node_table(
        u: NodeId,
        k: u32,
        names: &NamingAssignment,
        substrate: &S,
        order: &RoundtripOrder,
        distribution: &BlockDistribution,
    ) -> NodeTable<S::Label> {
        let space = distribution.space();
        let n = names.len();
        // One handshake mints both labels of an entry.
        let hop = |v: NodeId| {
            let (forward, backward) = substrate.pair_labels(u, v);
            HopLabels { forward, backward }
        };
        let q = space.q();
        let own_name = names.name_of(u);

        // (2) Handshake labels for the level-1 neighborhood.
        let near: FxHashMap<NodeName, HopLabels<S::Label>> = order
            .neighborhood(u, RoundtripOrder::level_size(n, 1, k))
            .iter()
            .filter(|&&v| v != u)
            .map(|&v| (names.name_of(v), hop(v)))
            .collect();

        // (3a) For every held block, level i < k−1 and digit τ: the nearest
        // node holding a block matching σ^i(B)·τ.
        // (3b) For every held block and digit τ: the node owning the name
        // (block digits)·τ, when that name exists.
        // The held blocks are S'_u: S_u plus u's own block.
        let own_block = space.block_of(own_name);
        let extra = (!distribution.holds(u, own_block)).then_some(own_block);
        let mut prefix_hops: FxHashMap<(u32, u32), HopLabels<S::Label>> = FxHashMap::default();
        let mut final_hops: FxHashMap<NodeName, HopLabels<S::Label>> = FxHashMap::default();
        for block in distribution.set(u).iter().copied().chain(extra) {
            for i in 0..k - 1 {
                let first = space.block_prefix_code(block, i) * q;
                for code in first..first + q {
                    if let Entry::Vacant(slot) = prefix_hops.entry((i + 1, code)) {
                        if let Some(w) = distribution.holder_for_prefix(order, u, i + 1, code) {
                            slot.insert(hop(w));
                        }
                    }
                }
            }
            let first = block.0 as u64 * q as u64;
            for value in first..(first + q as u64).min(n as u64) {
                let name = NodeName(value as u32);
                final_hops.insert(name, hop(names.node_of(name)));
            }
        }

        NodeTable { own_name, near, prefix_hops, final_hops }
    }

    /// The scheme's digit count `k`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of nodes the scheme was built for.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The underlying substrate.
    pub fn substrate(&self) -> &S {
        &self.substrate
    }

    /// The scheme's proven stretch ceiling `(2^k − 1)·β`, where `β` is the
    /// substrate's guaranteed pairwise roundtrip stretch (Theorem 13's
    /// `4(2k_c − 1)` for the tree-cover substrate, 1 for the exact oracle).
    /// `None` when the substrate's stretch is measured, not proven — the
    /// single source every bound assertion (tests, the engine's verification
    /// plane, the serving benches) must enforce, mirroring
    /// [`crate::PolynomialStretch::paper_stretch_bound`].
    pub fn paper_stretch_bound(&self) -> Option<u64> {
        self.substrate
            .guaranteed_roundtrip_stretch()
            .map(|beta| ((1u64 << self.k) - 1) * beta as u64)
    }

    /// Table size of the TINN dictionary layer alone (excluding the
    /// substrate), for the Õ(k·n^{1/k}) space check.
    pub fn dictionary_stats(&self, v: NodeId) -> TableStats {
        let t = &self.tables[v.index()];
        let entries = 1 + t.near.len() + t.prefix_hops.len() + t.final_hops.len();
        // Each entry stores two substrate labels plus its key.
        let per_entry = self.name_bits + 2 * self.label_bits;
        TableStats { entries, bits: entries * per_entry }
    }

    fn table(&self, v: NodeId) -> &NodeTable<S::Label> {
        &self.tables[v.index()]
    }

    /// Finds the dictionary entry the current waypoint uses to reach the next
    /// waypoint, given how many digits of the destination are matched so far.
    fn next_hop_entry<'a>(
        &'a self,
        table: &'a NodeTable<S::Label>,
        dest: NodeName,
        matched: u32,
    ) -> Option<(&'a HopLabels<S::Label>, u32)> {
        // Jump as far as possible: straight to the destination when this node
        // knows its owner (a held block's level-`k` entry, or a level-1
        // neighbour), else to the longest matching prefix from `k − 1` down to
        // `matched + 1`.
        if let Some(hop) = table.final_hops.get(&dest).or_else(|| table.near.get(&dest)) {
            return Some((hop, self.k));
        }
        (matched + 1..self.k).rev().find_map(|len| {
            table.prefix_hops.get(&(len, self.space.prefix_code(dest, len))).map(|hop| (hop, len))
        })
    }
}

impl<S: NameDependentSubstrate> RoundtripRouting for ExStretch<S> {
    type Header = ExStretchHeader<S::Label>;

    fn scheme_name(&self) -> &'static str {
        "exstretch"
    }

    fn new_packet(&self, _src: NodeId, dst: NodeName) -> Result<Self::Header, RoutingError> {
        Ok(ExStretchHeader {
            mode: Mode::NewPacket,
            dest: dst,
            src: None,
            matched: 0,
            current: None,
            waypoint_stack: Vec::new(),
            name_bits: self.name_bits,
            label_bits: self.label_bits,
        })
    }

    fn make_return(&self, at: NodeId, header: &Self::Header) -> Result<Self::Header, RoutingError> {
        if self.table(at).own_name != header.dest {
            return Err(RoutingError::new(at, "return packet created away from the destination"));
        }
        let mut h = header.clone();
        h.mode = Mode::ReturnPacket;
        Ok(h)
    }

    fn forward(
        &self,
        at: NodeId,
        header: &mut Self::Header,
    ) -> Result<ForwardAction, RoutingError> {
        let table = self.table(at);
        loop {
            match header.mode {
                Mode::NewPacket => {
                    header.src = Some(table.own_name);
                    header.mode = Mode::Outbound;
                    if header.dest == table.own_name {
                        return Ok(ForwardAction::Deliver);
                    }
                    header.matched = self.space.common_prefix_len(table.own_name, header.dest);
                    let (hop, matched) = self
                        .next_hop_entry(table, header.dest, header.matched)
                        .ok_or_else(|| {
                            RoutingError::new(
                                at,
                                "no dictionary entry toward the destination prefix",
                            )
                        })?;
                    header.current = Some(hop.forward.clone());
                    header.waypoint_stack.push(hop.backward.clone());
                    header.matched = matched;
                }
                Mode::ReturnPacket => {
                    header.mode = Mode::Inbound;
                    if header.src == Some(table.own_name) {
                        return Ok(ForwardAction::Deliver);
                    }
                    let back = header.waypoint_stack.pop().ok_or_else(|| {
                        RoutingError::new(at, "return packet with an empty waypoint stack")
                    })?;
                    header.current = Some(back);
                }
                Mode::Outbound => {
                    let label = header
                        .current
                        .as_mut()
                        .ok_or_else(|| RoutingError::new(at, "no active leg label"))?;
                    match self.substrate.step(at, label)? {
                        ForwardAction::Forward(port) => return Ok(ForwardAction::Forward(port)),
                        ForwardAction::Deliver => {
                            // Arrived at the current waypoint.
                            if table.own_name == header.dest {
                                return Ok(ForwardAction::Deliver);
                            }
                            let (hop, matched) = self
                                .next_hop_entry(table, header.dest, header.matched)
                                .ok_or_else(|| {
                                    RoutingError::new(
                                        at,
                                        "waypoint is missing the next prefix dictionary entry",
                                    )
                                })?;
                            header.current = Some(hop.forward.clone());
                            header.waypoint_stack.push(hop.backward.clone());
                            header.matched = matched;
                            continue;
                        }
                    }
                }
                Mode::Inbound => {
                    let label = header
                        .current
                        .as_mut()
                        .ok_or_else(|| RoutingError::new(at, "no active leg label"))?;
                    match self.substrate.step(at, label)? {
                        ForwardAction::Forward(port) => return Ok(ForwardAction::Forward(port)),
                        ForwardAction::Deliver => {
                            if Some(table.own_name) == header.src {
                                return Ok(ForwardAction::Deliver);
                            }
                            let back = header.waypoint_stack.pop().ok_or_else(|| {
                                RoutingError::new(at, "waypoint stack exhausted before the source")
                            })?;
                            header.current = Some(back);
                            continue;
                        }
                    }
                }
            }
        }
    }

    fn table_stats(&self, v: NodeId) -> TableStats {
        self.dictionary_stats(v).merged(self.substrate.table_stats(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_graph::generators::{bidirected_grid, strongly_connected_gnp};
    use rtr_metric::DistanceMatrix;
    use rtr_namedep::{ExactOracleScheme, TreeCoverScheme};
    use rtr_sim::Simulator;
    use std::collections::HashMap;

    fn check_all_pairs<S: NameDependentSubstrate>(
        g: &DiGraph,
        m: &DistanceMatrix,
        names: &NamingAssignment,
        scheme: &ExStretch<S>,
        hard_bound: Option<(u64, u64)>,
    ) -> f64 {
        let sim = Simulator::new(g);
        let mut worst: f64 = 0.0;
        for s in g.nodes() {
            for t in g.nodes() {
                if s == t {
                    continue;
                }
                let report = sim
                    .roundtrip_brief(scheme, s, t, names.name_of(t))
                    .unwrap_or_else(|e| panic!("({s},{t}): {e}"));
                if let Some((num, den)) = hard_bound {
                    assert!(
                        report.within_stretch(m, num, den),
                        "pair ({s},{t}) exceeds {num}/{den}: {} vs r={}",
                        report.total_weight(),
                        m.roundtrip(s, t)
                    );
                }
                worst = worst.max(report.stretch(m));
            }
        }
        worst
    }

    #[test]
    fn oracle_substrate_meets_the_2k_minus_1_bound() {
        // Theorem 9 with substrate roundtrip factor β = 1: stretch ≤ 2^k − 1.
        for (n, k, seed) in [(36usize, 2u32, 1u64), (48, 3, 2), (64, 4, 3)] {
            let g = strongly_connected_gnp(n, 0.1, seed).unwrap();
            let m = DistanceMatrix::build(&g);
            let names = NamingAssignment::random(n, seed);
            let scheme = ExStretch::build(
                &g,
                &m,
                &names,
                ExactOracleScheme::build(&g),
                ExStretchParams::with_k(k),
            );
            let bound = (1u64 << k) - 1;
            check_all_pairs(&g, &m, &names, &scheme, Some((bound, 1)));
        }
    }

    #[test]
    fn tree_cover_substrate_meets_the_combined_bound() {
        // With the Theorem 13 cover (k_c = 2) the substrate's pairwise
        // roundtrip bound is β = 4(2k_c − 1) = 12, so the composed bound is
        // (2^k − 1)·β.
        let g = strongly_connected_gnp(40, 0.1, 4).unwrap();
        let m = DistanceMatrix::build(&g);
        let names = NamingAssignment::random(40, 7);
        let substrate = TreeCoverScheme::build(&g, &m, 2);
        let k = 2u32;
        let scheme = ExStretch::build(&g, &m, &names, substrate, ExStretchParams::with_k(k));
        let bound = scheme.paper_stretch_bound().unwrap();
        assert_eq!(bound, ((1u64 << k) - 1) * 12);
        check_all_pairs(&g, &m, &names, &scheme, Some((bound, 1)));
    }

    #[test]
    fn works_on_grids_and_under_any_naming() {
        let g = bidirected_grid(6, 6, 5).unwrap();
        let m = DistanceMatrix::build(&g);
        for names in [NamingAssignment::identity(36), NamingAssignment::random(36, 2)] {
            let scheme = ExStretch::build(
                &g,
                &m,
                &names,
                ExactOracleScheme::build(&g),
                ExStretchParams::with_k(3),
            );
            check_all_pairs(&g, &m, &names, &scheme, Some((7, 1)));
        }
    }

    #[test]
    fn dictionary_tables_respect_the_lemma_6_budget() {
        // Lemma 6: the dictionary layer stores O(k · n^{1/k}) entries per held
        // block plus the N_1 neighborhood. Check the explicit per-k budget
        // (with the Lemma 1/4 block-count constant) and sublinearity.
        let g = strongly_connected_gnp(128, 0.05, 9).unwrap();
        let m = DistanceMatrix::build(&g);
        let names = NamingAssignment::random(128, 1);
        let n = 128f64;
        for k in [2u32, 3, 4] {
            let scheme = ExStretch::build(
                &g,
                &m,
                &names,
                ExactOracleScheme::build(&g),
                ExStretchParams::with_k(k),
            );
            let q = rtr_dictionary::AddressSpace::alphabet_size(128, k) as f64;
            let blocks_held = 16.0 * n.ln() + 2.0;
            let budget = (blocks_held * k as f64 * q + n.powf(1.0 / k as f64) + 2.0) as usize;
            let max_entries = g.nodes().map(|v| scheme.dictionary_stats(v).entries).max().unwrap();
            assert!(
                max_entries <= budget,
                "k={k}: {max_entries} entries exceed the Lemma 6 budget {budget}"
            );
            assert!(max_entries * 2 < 128 * 3, "k={k}: dictionary not sublinear enough");
        }
    }

    #[test]
    fn header_stack_stays_within_k_labels() {
        let g = strongly_connected_gnp(48, 0.08, 11).unwrap();
        let m = DistanceMatrix::build(&g);
        let names = NamingAssignment::random(48, 3);
        let k = 3u32;
        let scheme = ExStretch::build(
            &g,
            &m,
            &names,
            ExactOracleScheme::build(&g),
            ExStretchParams::with_k(k),
        );
        let sim = Simulator::new(&g);
        let word = id_bits(48);
        let label_bits = scheme.substrate().max_label_bits();
        let bound = 4 + 2 * word + 8 + label_bits + k as usize * label_bits;
        for s in g.nodes().take(6) {
            for t in g.nodes() {
                if s == t {
                    continue;
                }
                let report = sim.roundtrip_brief(&scheme, s, t, names.name_of(t)).unwrap();
                assert!(
                    report.max_header_bits() <= bound,
                    "header grew to {} bits (bound {bound})",
                    report.max_header_bits()
                );
            }
        }
    }

    #[test]
    fn self_addressed_packets_cost_nothing() {
        let g = strongly_connected_gnp(20, 0.2, 13).unwrap();
        let m = DistanceMatrix::build(&g);
        let names = NamingAssignment::random(20, 5);
        let scheme = ExStretch::build(
            &g,
            &m,
            &names,
            ExactOracleScheme::build(&g),
            ExStretchParams::default(),
        );
        let sim = Simulator::new(&g);
        for v in g.nodes() {
            let report = sim.roundtrip_brief(&scheme, v, v, names.name_of(v)).unwrap();
            assert_eq!(report.total_weight(), 0);
        }
    }

    /// The `len` base-`q` digits of `x`, most significant first.
    fn digit_string(x: u32, len: u32, q: u32) -> Vec<u32> {
        let mut out = vec![0; len as usize];
        let mut rest = x;
        for slot in out.iter_mut().rev() {
            *slot = rest % q;
            rest /= q;
        }
        out
    }

    /// Rebuilds every node's near, prefix and final entries from the §3.3
    /// definitions — digit strings, a linear holder scan over each
    /// neighborhood, and two `pair_label` calls per entry — and asserts the
    /// scheme's tables hold exactly those keys, with labels that agree on
    /// `key` (the label fields that pick the route).
    fn assert_tables_match_reference<S, K>(
        g: &DiGraph,
        m: &DistanceMatrix,
        names: &NamingAssignment,
        scheme: &ExStretch<S>,
        params: ExStretchParams,
        key: impl Fn(&S::Label) -> K,
    ) where
        S: NameDependentSubstrate,
        K: PartialEq + fmt::Debug,
    {
        let (n, k) = (g.node_count(), params.k);
        let space = AddressSpace::new(n, k);
        let q = space.q();
        let order = RoundtripOrder::build_truncated(m, RoundtripOrder::level_size(n, k - 1, k));
        let distribution = BlockDistribution::build(space, &order, params.blocks);
        let substrate = scheme.substrate();
        let handshake = |u, v| (key(&substrate.pair_label(u, v)), key(&substrate.pair_label(v, u)));
        let stored = |hop: &HopLabels<S::Label>| (key(&hop.forward), key(&hop.backward));
        for u in g.nodes() {
            let table = &scheme.tables[u.index()];
            let own = space.digits(names.name_of(u));

            let mut near: HashMap<NodeName, (K, K)> = HashMap::new();
            for &v in order.neighborhood(u, RoundtripOrder::level_size(n, 1, k)) {
                if v != u {
                    near.insert(names.name_of(v), handshake(u, v));
                }
            }

            let mut held: Vec<Vec<u32>> =
                distribution.set(u).iter().map(|b| digit_string(b.0, k - 1, q)).collect();
            if !held.contains(&own[..k as usize - 1].to_vec()) {
                held.push(own[..k as usize - 1].to_vec());
            }
            let mut prefix: HashMap<Vec<u32>, (K, K)> = HashMap::new();
            let mut exact: HashMap<NodeName, (K, K)> = HashMap::new();
            for block in &held {
                for i in 0..k as usize - 1 {
                    for tau in 0..q {
                        let mut target = block[..i].to_vec();
                        target.push(tau);
                        if prefix.contains_key(&target) {
                            continue;
                        }
                        let level = RoundtripOrder::level_size(n, i as u32 + 1, k);
                        let holder = order.neighborhood(u, level).iter().copied().find(|&w| {
                            distribution
                                .set(w)
                                .iter()
                                .any(|b| digit_string(b.0, k - 1, q)[..=i] == target[..])
                        });
                        if let Some(w) = holder {
                            prefix.insert(target, handshake(u, w));
                        }
                    }
                }
                for tau in 0..q {
                    let mut digits = block.clone();
                    digits.push(tau);
                    if let Some(name) = space.from_digits(&digits) {
                        exact.insert(name, handshake(u, names.node_of(name)));
                    }
                }
            }

            let got_near: HashMap<_, _> = table.near.iter().map(|(&v, h)| (v, stored(h))).collect();
            assert_eq!(got_near, near, "near entries of {u}");
            let got_prefix: HashMap<_, _> = table
                .prefix_hops
                .iter()
                .map(|(&(len, code), h)| (digit_string(code, len, q), stored(h)))
                .collect();
            assert_eq!(got_prefix, prefix, "prefix entries of {u}");
            let got_exact: HashMap<_, _> =
                table.final_hops.iter().map(|(&v, h)| (v, stored(h))).collect();
            assert_eq!(got_exact, exact, "final entries of {u}");
        }
    }

    /// The graph, metric and naming of the reference-table tests.
    fn reference_fixture() -> (DiGraph, DistanceMatrix, NamingAssignment) {
        let g = strongly_connected_gnp(48, 0.08, 11).unwrap();
        let m = DistanceMatrix::build(&g);
        (g, m, NamingAssignment::random(48, 3))
    }

    #[test]
    fn tables_match_the_digit_string_reference() {
        let (g, m, names) = reference_fixture();
        for k in [2u32, 3, 4] {
            let params = ExStretchParams::with_k(k);
            let oracle = ExStretch::build(&g, &m, &names, ExactOracleScheme::build(&g), params);
            assert_tables_match_reference(&g, &m, &names, &oracle, params, |l| l.target);
            let cover = TreeCoverScheme::build(&g, &m, 2);
            let tree_cover = ExStretch::build(&g, &m, &names, cover, params);
            assert_tables_match_reference(&g, &m, &names, &tree_cover, params, |l| {
                (l.target, l.tree, l.tree_label.clone())
            });
        }
    }

    /// `next_hop_entry` as it was before it probed `near` ahead of the
    /// prefix scan: exact owner, then the whole scan, then `near`.
    fn scan_before_near<'a, S: NameDependentSubstrate>(
        scheme: &ExStretch<S>,
        table: &'a NodeTable<S::Label>,
        dest: NodeName,
        matched: u32,
    ) -> Option<(&'a HopLabels<S::Label>, u32)> {
        if let Some(hop) = table.final_hops.get(&dest) {
            return Some((hop, scheme.k));
        }
        let best = (matched + 1..scheme.k).rev().find_map(|len| {
            table.prefix_hops.get(&(len, scheme.space.prefix_code(dest, len))).map(|hop| (hop, len))
        });
        if let Some(hop) = table.near.get(&dest) {
            return Some((hop, scheme.k));
        }
        best
    }

    /// Asserts that every node, destination and matched length gets the same
    /// entry and the same new matched length from both lookup orders, and
    /// returns how many lookups `near` answered ahead of the scan.
    fn assert_lookup_orders_agree<S: NameDependentSubstrate>(scheme: &ExStretch<S>) -> usize {
        let mut near_first = 0;
        for (u, table) in scheme.tables.iter().enumerate() {
            for dest in (0..scheme.n as u32).map(NodeName) {
                for matched in 0..scheme.k {
                    let got = scheme.next_hop_entry(table, dest, matched);
                    let want = scan_before_near(scheme, table, dest, matched);
                    let same = match (got, want) {
                        (Some((a, la)), Some((b, lb))) => std::ptr::eq(a, b) && la == lb,
                        (None, None) => true,
                        _ => false,
                    };
                    assert!(
                        same,
                        "k={}: node {u}, destination {dest:?}, matched {matched}",
                        scheme.k
                    );
                    if !table.final_hops.contains_key(&dest) && table.near.contains_key(&dest) {
                        near_first += 1;
                    }
                }
            }
        }
        near_first
    }

    #[test]
    fn near_before_the_prefix_scan_picks_the_same_entries() {
        let (g, m, names) = reference_fixture();
        let mut near_first = 0;
        for k in [2u32, 3, 4] {
            let params = ExStretchParams::with_k(k);
            let oracle = ExStretch::build(&g, &m, &names, ExactOracleScheme::build(&g), params);
            near_first += assert_lookup_orders_agree(&oracle);
            let cover = TreeCoverScheme::build(&g, &m, 2);
            let tree_cover = ExStretch::build(&g, &m, &names, cover, params);
            near_first += assert_lookup_orders_agree(&tree_cover);
        }
        // At k = 2 every node of this fixture holds every block, so only the
        // deeper k reach the near table.
        assert!(near_first > 0, "no lookup reached the near table");
    }
}
