//! The stretch-6 TINN roundtrip routing scheme (§2, Fig. 3).
//!
//! Tables of size Õ(√n), headers of `O(log² n)` bits, roundtrip stretch 6.
//!
//! Construction (paper §2.1): let `N(u)` be the first `⌈√n⌉` nodes of
//! `Init_u` and cut the name space into `⌈√n⌉`-sized blocks. Each node `u`
//! stores
//!
//! 1. `(name(v), R3(v))` for every `v ∈ N(u)`;
//! 2. for every block index `i`, the `R3` label of a node `t ∈ N(u)` holding
//!    block `B_i` (such a `t` exists by Lemma 1);
//! 3. for every block it holds, the `R3` label of every name in that block;
//! 4. the substrate table `Tab3(u)`.
//!
//! Routing (Fig. 3): if the destination name is known locally (cases 1/3) the
//! packet heads straight for it; otherwise it first visits the dictionary
//! holder `w ∈ N(s)` of the destination's block, learns `R3(t)` there, and
//! continues to `t`. The acknowledgment returns using `R3(s)`, which was
//! written into the header at the source.

use crate::naming::NamingAssignment;
use rtr_dictionary::{AddressSpace, BlockDistribution, DistributionParams, NodeName};
use rtr_graph::hash::FxHashMap;
use rtr_graph::par::par_blocks_mut;
use rtr_graph::{DiGraph, NodeId};
use rtr_metric::{DistanceOracle, RoundtripOrder};
use rtr_namedep::{LabelBits, NameDependentSubstrate};
use rtr_sim::{id_bits, ForwardAction, HeaderBits, RoundtripRouting, RoutingError, TableStats};
use std::fmt;

/// Parameters of the stretch-6 scheme.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stretch6Params {
    /// Seed and density of the Lemma 1 block distribution.
    pub blocks: DistributionParams,
}

/// Which node the packet is currently heading for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(clippy::enum_variant_names)] // the `To` prefix mirrors Fig. 3's wording
enum Leg {
    /// Toward the dictionary holder of the destination's block.
    ToDictionary,
    /// Toward the destination itself.
    ToDestination,
    /// Back toward the original source.
    ToSource,
}

/// Packet mode, mirroring Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Fresh packet, not yet seen by any router.
    NewPacket,
    /// Travelling from the source toward the destination.
    Outbound,
    /// Handed back by the destination host for the acknowledgment.
    ReturnPacket,
    /// Travelling back toward the source.
    Inbound,
}

/// The writable packet header of the stretch-6 scheme.
#[derive(Debug, Clone)]
pub struct Stretch6Header<L> {
    mode: Mode,
    leg: Leg,
    dest: NodeName,
    src: Option<NodeName>,
    src_label: Option<L>,
    next_label: Option<L>,
    name_bits: usize,
    label_bits: usize,
}

impl<L: fmt::Debug> HeaderBits for Stretch6Header<L> {
    fn bits(&self) -> usize {
        let mut bits = 4 + self.name_bits; // mode + leg + destination name
        if self.src.is_some() {
            bits += self.name_bits;
        }
        if self.src_label.is_some() {
            bits += self.label_bits;
        }
        if self.next_label.is_some() {
            bits += self.label_bits;
        }
        bits
    }
}

/// The per-node local table.
#[derive(Debug, Clone)]
struct NodeTable<L> {
    own_name: NodeName,
    own_label: L,
    /// (1) `name(v) → R3(v)` for `v ∈ N(u)`.
    near: FxHashMap<NodeName, L>,
    /// (2) block index → `R3` label of a holder in `N(u)`.
    block_holder: Vec<L>,
    /// (3) dictionary entries of the blocks this node holds.
    dictionary: FxHashMap<NodeName, L>,
}

/// The stretch-6 TINN compact roundtrip routing scheme, generic over the
/// name-dependent substrate providing the `R3` labels (Lemma 2).
#[derive(Debug)]
pub struct StretchSix<S: NameDependentSubstrate> {
    n: usize,
    space: AddressSpace,
    substrate: S,
    tables: Vec<NodeTable<S::Label>>,
    name_bits: usize,
    label_bits: usize,
    neighborhood_size: usize,
    blocks_per_node_max: usize,
}

impl<S: NameDependentSubstrate> StretchSix<S> {
    /// Builds the scheme's tables.
    ///
    /// `m` must be a distance oracle of `g` (dense matrix or lazy); `names`
    /// the TINN assignment; `substrate` the name-dependent labelled routing
    /// substrate (its labels are the `R3(·)` values stored in tables and
    /// headers).
    ///
    /// Only the first `⌈√n⌉` entries of each `Init_u` are ever consulted, so
    /// the order is built prefix-truncated: memory stays `O(n^{3/2})` and a
    /// lazy oracle is consumed row by row instead of forcing a dense matrix.
    ///
    /// # Panics
    ///
    /// Panics if the graph is not strongly connected or the naming size does
    /// not match the graph.
    pub fn build<O: DistanceOracle + ?Sized>(
        g: &DiGraph,
        m: &O,
        names: &NamingAssignment,
        substrate: S,
        params: Stretch6Params,
    ) -> Self
    where
        S: Sync,
        S::Label: Send,
    {
        let n = g.node_count();
        // Validate before the row sweep: on a lazy oracle the sweep is the
        // expensive part, and these assertions should fire immediately.
        assert_eq!(names.len(), n, "naming assignment size mismatch");
        g.require_strongly_connected().unwrap_or_else(|e| panic!("StretchSix::build: {e}"));
        let order = RoundtripOrder::build_truncated(m, RoundtripOrder::level_size(n, 1, 2));
        Self::build_with_order(g, names, substrate, &order, params)
    }

    /// Builds the scheme over an **existing** roundtrip order, so the order's
    /// row sweep can be shared with other consumers (the suite collects it on
    /// one [`rtr_metric::broadcast_rows`] pass together with the landmark and
    /// cover sweeps).  The order must store at least the `⌈√n⌉` prefix this
    /// scheme consults; a deeper prefix is fine — every neighborhood read is
    /// a prefix read, so the tables come out bit-identical.
    ///
    /// Each node's table is a function of the shared order, block
    /// distribution, names and substrate alone, so the nodes are minted on
    /// [`par_blocks_mut`] and the tables are bit-identical for any thread
    /// count.
    ///
    /// `g` must be strongly connected.  This constructor reads no oracle and
    /// does not check it: the builder of the order and substrate decided it
    /// ([`build`](Self::build), or the sparse suite's artifact sweep).
    ///
    /// # Panics
    ///
    /// Panics if the naming or order size mismatches, or the order's stored
    /// prefix is too shallow.
    pub fn build_with_order(
        g: &DiGraph,
        names: &NamingAssignment,
        substrate: S,
        order: &RoundtripOrder,
        params: Stretch6Params,
    ) -> Self
    where
        S: Sync,
        S::Label: Send,
    {
        let n = g.node_count();
        assert_eq!(names.len(), n, "naming assignment size mismatch");

        let neighborhood_size = RoundtripOrder::level_size(n, 1, 2);
        assert_eq!(order.node_count(), n, "order size mismatch");
        assert!(
            order.stored_prefix() >= neighborhood_size.min(n),
            "order stores {} entries per node, scheme needs {neighborhood_size}",
            order.stored_prefix()
        );
        let space = AddressSpace::new(n, 2);
        let distribution = BlockDistribution::build(space, order, params.blocks);

        let label_bits = substrate.max_label_bits();
        let name_bits = id_bits(n);

        let mut slots: Vec<Option<(NodeTable<S::Label>, usize)>> = (0..n).map(|_| None).collect();
        par_blocks_mut(&mut slots, |start, block| {
            for (offset, slot) in block.iter_mut().enumerate() {
                let u = NodeId::from_index(start + offset);
                *slot = Some(Self::node_table(u, names, &substrate, order, &distribution));
            }
        });
        let (tables, blocks_held): (Vec<_>, Vec<usize>) =
            slots.into_iter().map(|s| s.expect("every node was minted")).unzip();
        let blocks_per_node_max = blocks_held.into_iter().max().unwrap_or(0);

        StretchSix {
            n,
            space,
            substrate,
            tables,
            name_bits,
            label_bits,
            neighborhood_size,
            blocks_per_node_max,
        }
    }

    /// Node `u`'s table (items (1)–(3) of §2.1) and the number of blocks it
    /// holds, `|S'_u|`.
    fn node_table(
        u: NodeId,
        names: &NamingAssignment,
        substrate: &S,
        order: &RoundtripOrder,
        distribution: &BlockDistribution,
    ) -> (NodeTable<S::Label>, usize) {
        let space = distribution.space();
        let neighborhood_size = RoundtripOrder::level_size(names.len(), 1, 2);
        let own_name = names.name_of(u);
        let own_label = substrate.label_for(u);

        // (1) Near entries.
        let mut near = FxHashMap::default();
        for &v in order.neighborhood(u, neighborhood_size) {
            near.insert(names.name_of(v), substrate.label_for(v));
        }

        // (2) One dictionary holder per block, inside N(u).
        let mut block_holder = Vec::with_capacity(space.block_count());
        for b in 0..space.block_count() as u32 {
            let holder = distribution
                .holder_of_block(order, u, rtr_dictionary::BlockId(b))
                .expect("Lemma 1 guarantees a holder in every neighborhood");
            block_holder.push(substrate.label_for(holder));
        }

        // (3) Dictionary entries for S'_u = S_u ∪ {block of own name}.
        let mut owned: Vec<rtr_dictionary::BlockId> = distribution.set(u).to_vec();
        let own_block = space.block_of(own_name);
        if !owned.contains(&own_block) {
            owned.push(own_block);
        }
        let blocks_held = owned.len();
        let mut dictionary = FxHashMap::default();
        for block in owned {
            for name in space.block_members(block) {
                dictionary.insert(name, substrate.label_for(names.node_of(name)));
            }
        }

        (NodeTable { own_name, own_label, near, block_holder, dictionary }, blocks_held)
    }

    /// The neighborhood size `|N(u)| = ⌈√n⌉` used by the scheme.
    pub fn neighborhood_size(&self) -> usize {
        self.neighborhood_size
    }

    /// Number of nodes the scheme was built for.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The largest number of blocks any node stores (the `O(log n)` of
    /// Lemma 1 plus the node's own block).
    pub fn max_blocks_per_node(&self) -> usize {
        self.blocks_per_node_max
    }

    /// The underlying substrate (for reporting).
    pub fn substrate(&self) -> &S {
        &self.substrate
    }

    /// Size of the TINN dictionary layer alone at node `v` (excluding the
    /// substrate's `Tab3`), used to check the Õ(√n) bound independently of
    /// the substrate choice.
    pub fn dictionary_stats(&self, v: NodeId) -> TableStats {
        let t = &self.tables[v.index()];
        let entries = 1 + t.near.len() + t.block_holder.len() + t.dictionary.len();
        let per_entry = self.name_bits + self.label_bits;
        TableStats { entries, bits: entries * per_entry }
    }

    fn table(&self, v: NodeId) -> &NodeTable<S::Label> {
        &self.tables[v.index()]
    }
}

impl<S: NameDependentSubstrate> RoundtripRouting for StretchSix<S> {
    type Header = Stretch6Header<S::Label>;

    fn scheme_name(&self) -> &'static str {
        "stretch6"
    }

    fn new_packet(&self, _src: NodeId, dst: NodeName) -> Result<Self::Header, RoutingError> {
        Ok(Stretch6Header {
            mode: Mode::NewPacket,
            leg: Leg::ToDestination,
            dest: dst,
            src: None,
            src_label: None,
            next_label: None,
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
                    header.src_label = Some(table.own_label.clone());
                    header.mode = Mode::Outbound;
                    if header.dest == table.own_name {
                        return Ok(ForwardAction::Deliver);
                    }
                    if let Some(label) =
                        table.near.get(&header.dest).or_else(|| table.dictionary.get(&header.dest))
                    {
                        header.next_label = Some(label.clone());
                        header.leg = Leg::ToDestination;
                    } else {
                        let block = self.space.block_of(header.dest);
                        let label = table.block_holder[block.index()].clone();
                        header.next_label = Some(label);
                        header.leg = Leg::ToDictionary;
                    }
                }
                Mode::ReturnPacket => {
                    header.mode = Mode::Inbound;
                    header.leg = Leg::ToSource;
                    if header.src == Some(table.own_name) {
                        return Ok(ForwardAction::Deliver);
                    }
                    header.next_label = Some(
                        header
                            .src_label
                            .clone()
                            .ok_or_else(|| RoutingError::new(at, "return packet lost R3(s)"))?,
                    );
                }
                Mode::Outbound | Mode::Inbound => {
                    let label = header
                        .next_label
                        .as_mut()
                        .ok_or_else(|| RoutingError::new(at, "no active leg label"))?;
                    match self.substrate.step(at, label)? {
                        ForwardAction::Forward(port) => return Ok(ForwardAction::Forward(port)),
                        ForwardAction::Deliver => match header.leg {
                            Leg::ToDestination => {
                                if table.own_name == header.dest {
                                    return Ok(ForwardAction::Deliver);
                                }
                                return Err(RoutingError::new(
                                    at,
                                    "R3 label delivered at a node other than the destination",
                                ));
                            }
                            Leg::ToSource => {
                                if Some(table.own_name) == header.src {
                                    return Ok(ForwardAction::Deliver);
                                }
                                return Err(RoutingError::new(
                                    at,
                                    "R3(s) delivered at a node other than the source",
                                ));
                            }
                            Leg::ToDictionary => {
                                let label = table
                                    .dictionary
                                    .get(&header.dest)
                                    .or_else(|| table.near.get(&header.dest))
                                    .ok_or_else(|| {
                                        RoutingError::new(
                                            at,
                                            "dictionary holder is missing the destination entry",
                                        )
                                    })?;
                                header.next_label = Some(label.clone());
                                header.leg = Leg::ToDestination;
                                continue;
                            }
                        },
                    }
                }
            }
        }
    }

    fn table_stats(&self, v: NodeId) -> TableStats {
        self.dictionary_stats(v).merged(self.substrate.table_stats(v))
    }
}

impl<L: LabelBits + Clone + fmt::Debug> Stretch6Header<L> {
    /// Exposes the destination name (used by experiment code for reporting).
    pub fn destination(&self) -> NodeName {
        self.dest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_graph::generators::{bidirected_grid, strongly_connected_gnp, Family};
    use rtr_metric::DistanceMatrix;
    use rtr_namedep::{ExactOracleScheme, LandmarkBallScheme};
    use rtr_sim::Simulator;

    fn oracle_scheme(
        g: &DiGraph,
        m: &DistanceMatrix,
        names: &NamingAssignment,
    ) -> StretchSix<ExactOracleScheme> {
        StretchSix::build(g, m, names, ExactOracleScheme::build(g), Stretch6Params::default())
    }

    fn check_all_pairs_stretch6<S: NameDependentSubstrate>(
        g: &DiGraph,
        m: &DistanceMatrix,
        names: &NamingAssignment,
        scheme: &StretchSix<S>,
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
                        "pair ({s},{t}) exceeds stretch {num}/{den}: took {} vs r = {}",
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
    fn oracle_substrate_gives_hard_stretch_6_on_random_graphs() {
        for seed in [1u64, 2] {
            let g = strongly_connected_gnp(48, 0.08, seed).unwrap();
            let m = DistanceMatrix::build(&g);
            let names = NamingAssignment::random(g.node_count(), seed);
            let scheme = oracle_scheme(&g, &m, &names);
            check_all_pairs_stretch6(&g, &m, &names, &scheme, Some((6, 1)));
        }
    }

    #[test]
    fn oracle_substrate_gives_hard_stretch_6_on_grid() {
        let g = bidirected_grid(6, 6, 3).unwrap();
        let m = DistanceMatrix::build(&g);
        let names = NamingAssignment::random(g.node_count(), 9);
        let scheme = oracle_scheme(&g, &m, &names);
        check_all_pairs_stretch6(&g, &m, &names, &scheme, Some((6, 1)));
    }

    #[test]
    fn stretch_6_across_families_with_oracle() {
        for family in Family::ALL {
            let g = family.generate(36, 5).unwrap();
            let m = DistanceMatrix::build(&g);
            let names = NamingAssignment::random(g.node_count(), 17);
            let scheme = oracle_scheme(&g, &m, &names);
            check_all_pairs_stretch6(&g, &m, &names, &scheme, Some((6, 1)));
        }
    }

    #[test]
    fn name_independence_any_permutation_works() {
        let g = strongly_connected_gnp(36, 0.1, 4).unwrap();
        let m = DistanceMatrix::build(&g);
        for names in [
            NamingAssignment::identity(36),
            NamingAssignment::reversed(36),
            NamingAssignment::random(36, 99),
        ] {
            let scheme = oracle_scheme(&g, &m, &names);
            check_all_pairs_stretch6(&g, &m, &names, &scheme, Some((6, 1)));
        }
    }

    #[test]
    fn compact_substrate_delivers_everywhere_with_small_stretch() {
        let g = strongly_connected_gnp(50, 0.08, 6).unwrap();
        let m = DistanceMatrix::build(&g);
        let names = NamingAssignment::random(50, 3);
        let substrate = LandmarkBallScheme::build(&g, &m);
        let scheme = StretchSix::build(&g, &m, &names, substrate, Stretch6Params::default());
        let worst = check_all_pairs_stretch6(&g, &m, &names, &scheme, None);
        // Measured quantity: the compact pipeline stays well within a small
        // constant even though the substrate's bound is only empirical.
        assert!(worst <= 16.0, "worst-case measured stretch {worst} unexpectedly large");
    }

    #[test]
    fn dictionary_tables_are_sqrt_n_sized() {
        let g = strongly_connected_gnp(100, 0.06, 8).unwrap();
        let m = DistanceMatrix::build(&g);
        let names = NamingAssignment::random(100, 5);
        let scheme = oracle_scheme(&g, &m, &names);
        let n = 100f64;
        // (1) √n near entries + (2) √n block pointers + (3) O(log n) blocks of
        // √n entries each + own entry.
        let bound = (n.sqrt() * (2.0 + 16.0 * n.ln()) + 2.0) as usize;
        for v in g.nodes() {
            let stats = scheme.dictionary_stats(v);
            assert!(stats.entries <= bound, "{v}: {} entries > {bound}", stats.entries);
            assert!(stats.entries >= scheme.neighborhood_size());
        }
        assert!(scheme.max_blocks_per_node() <= (16.0 * n.ln()) as usize + 2);
    }

    #[test]
    fn headers_are_polylogarithmic() {
        let g = strongly_connected_gnp(64, 0.08, 10).unwrap();
        let m = DistanceMatrix::build(&g);
        let names = NamingAssignment::random(64, 11);
        let scheme = oracle_scheme(&g, &m, &names);
        let sim = Simulator::new(&g);
        let word = id_bits(64);
        let header_bound = 4 * word * word + 8 * word;
        for s in g.nodes().take(8) {
            for t in g.nodes() {
                if s == t {
                    continue;
                }
                let report = sim.roundtrip_brief(&scheme, s, t, names.name_of(t)).unwrap();
                assert!(report.max_header_bits() <= header_bound);
            }
        }
    }

    #[test]
    fn self_addressed_packets_deliver_with_zero_cost() {
        let g = strongly_connected_gnp(20, 0.2, 12).unwrap();
        let m = DistanceMatrix::build(&g);
        let names = NamingAssignment::random(20, 13);
        let scheme = oracle_scheme(&g, &m, &names);
        let sim = Simulator::new(&g);
        for v in g.nodes() {
            let report = sim.roundtrip_brief(&scheme, v, v, names.name_of(v)).unwrap();
            assert_eq!(report.total_weight(), 0);
            assert_eq!(report.total_hops(), 0);
        }
    }
}
