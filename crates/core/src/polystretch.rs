//! The generalized scheme with a polynomial space/stretch tradeoff
//! (§4, Figs. 9 and 11).
//!
//! A hierarchy of double-tree covers (Theorem 13) is built at scales
//! `2, 4, 8, …, 2^{⌈log RTDiam⌉}`. Every node knows its *home* double-tree at
//! every level — the tree guaranteed to span its whole scale-`2^i` roundtrip
//! ball — and, inside every tree it belongs to, a prefix-matching dictionary:
//! for every level `j < k` of its own name's digits and every next digit `τ`,
//! the tree address of the nearest tree member matching one more digit.
//!
//! Routing (Fig. 9/11): the packet tries the source's home tree at levels
//! `i = 1, 2, …`; inside a tree it hops between members whose names match
//! ever longer prefixes of the destination, routing each hop through the
//! tree's center. If at some member the required dictionary entry is missing
//! (the destination is not in this tree), the packet returns to the source,
//! which escalates to its home tree at the next level. At the first level
//! whose scale reaches `r(s, t)`, the home tree of `s` contains `t` and the
//! search must succeed; the total distance is bounded by `8k² + 4k − 4`
//! times `r(s, t)` (§4.3), with the cover's height blow-up `2k_c − 1`
//! standing in for the paper's identical constant.

use crate::naming::NamingAssignment;
use rtr_cover::{DoubleTreeCover, TreeId};
use rtr_dictionary::{AddressSpace, NodeName};
use rtr_graph::hash::FxHashMap;
use rtr_graph::{DiGraph, NodeId, Port};
use rtr_metric::{broadcast_rows, DistanceOracle, RowSweepConsumer, SweepRows, SweepSlots};
use rtr_sim::{id_bits, ForwardAction, HeaderBits, RoundtripRouting, RoutingError, TableStats};
use rtr_trees::{TreeLabel, TreeNodeTable, TreeRouter, TreeStep};
use std::sync::Arc;

/// Parameters of the polynomial-tradeoff scheme.
#[derive(Debug, Clone, Copy)]
pub struct PolyParams {
    /// Number of name digits `k ≥ 2` (the `k` of the `8k² + 4k − 4` bound).
    pub k: u32,
    /// Sparseness parameter of the underlying Theorem 13 cover (the paper
    /// reuses `k` for both; keeping them separate lets the ablation bench
    /// explore the tradeoff). Defaults to `k`.
    pub cover_k: u32,
}

impl PolyParams {
    /// Both parameters set to `k`, as in the paper.
    pub fn with_k(k: u32) -> Self {
        PolyParams { k, cover_k: k }
    }
}

impl Default for PolyParams {
    fn default() -> Self {
        PolyParams::with_k(2)
    }
}

/// Packet mode (Fig. 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Fresh packet.
    NewPacket,
    /// Searching / travelling (the paper's single `Enroute` mode).
    Enroute,
    /// Handed back by the destination host for the acknowledgment.
    ReturnPacket,
}

/// The writable packet header (Fig. 11).
#[derive(Debug, Clone)]
pub struct PolyHeader {
    mode: Mode,
    dest: NodeName,
    src: Option<NodeName>,
    /// Level currently being tried (index into the cover's levels).
    level: u16,
    /// The home double-tree of the source at `level`.
    tree: Option<TreeId>,
    /// The source's own address in that tree (for failure returns and the
    /// final acknowledgment).  Interned: headers share the table's allocation.
    src_tree_label: Option<Arc<TreeLabel>>,
    /// The tree address of the waypoint currently being routed to.
    next_label: Option<Arc<TreeLabel>>,
    /// Whether the destination has been reached (drives the return leg).
    found: bool,
    /// True while the packet is heading back to the source (either a failure
    /// return or the acknowledgment).
    returning: bool,
    name_bits: usize,
    label_bits: usize,
    tree_id_bits: usize,
}

impl HeaderBits for PolyHeader {
    fn bits(&self) -> usize {
        let mut bits = 4 + self.name_bits + 16 + 2; // mode + dest + level + flags
        if self.src.is_some() {
            bits += self.name_bits;
        }
        if self.tree.is_some() {
            bits += self.tree_id_bits;
        }
        if self.src_tree_label.is_some() {
            bits += self.label_bits;
        }
        if self.next_label.is_some() {
            bits += self.label_bits;
        }
        bits
    }
}

/// Per-node record for one double tree the node belongs to.
#[derive(Debug, Clone)]
struct TreeRecord {
    /// The node's `O(1)`-word record in the tree's out-component.
    out_table: TreeNodeTable,
    /// Out-port of the first edge toward the tree's center (`None` at the center).
    up_port: Option<Port>,
    /// The node's own address in this tree.
    own_label: Arc<TreeLabel>,
    /// Prefix dictionary: `(digit level j, next digit τ)` → tree address of
    /// the nearest member matching `σ^j(own name)·τ` (§4.1, item 2c).  The
    /// addresses are interned behind `Arc`: a popular member's label is
    /// referenced from many `(node, j, τ)` entries across the tree but
    /// stored once.
    prefix: FxHashMap<(u32, u32), Arc<TreeLabel>>,
    /// Exact-name entries for the last digit (the `j = k−1` row of the same
    /// table): destination name → its tree address.
    exact: FxHashMap<NodeName, Arc<TreeLabel>>,
}

/// Per-node table.
#[derive(Debug, Clone)]
struct NodeTable {
    own_name: NodeName,
    /// Home tree per level (§4.1, item 1).
    home: Vec<TreeId>,
    /// Records of every tree this node belongs to (§4.1, item 2).
    trees: FxHashMap<TreeId, TreeRecord>,
}

/// Pass-1 context of one double tree: its router plus the per-level prefix
/// groups of its members' names.
struct TreeCtx<'c> {
    id: TreeId,
    router: &'c TreeRouter,
    tree: &'c rtr_trees::DoubleTree,
    /// `prefix_groups[j]`: the members whose names share a `(j+1)`-digit
    /// prefix, keyed by that prefix's integer code.
    prefix_groups: Vec<FxHashMap<u32, Vec<NodeId>>>,
}

/// Pass 2 of the §4 construction as a broadcast row consumer: for one node at
/// a time, mint the tree records (out-table, up-port, own address, prefix +
/// exact dictionaries) of every tree the node belongs to from the node's
/// roundtrip row.  Registered on a [`broadcast_rows`] pass by
/// [`PolynomialStretch::build_with_cover`].
struct PolyDictionarySweep<'a, 'c> {
    contexts: &'a [TreeCtx<'c>],
    tree_memberships: &'a [Vec<usize>],
    names: &'a NamingAssignment,
    space: &'a AddressSpace,
    k: u32,
    n: usize,
    /// Per node: (tree records, largest own-address bit count).
    slots: SweepSlots<(FxHashMap<TreeId, TreeRecord>, usize)>,
}

impl RowSweepConsumer for PolyDictionarySweep<'_, '_> {
    fn consume(&mut self, u: NodeId, rows: &SweepRows<'_>) {
        let own_name = self.names.name_of(u);
        let q = self.space.q();
        let rt_row = rows.roundtrip;
        let mut trees: FxHashMap<TreeId, TreeRecord> = FxHashMap::default();
        let mut max_label_bits = 0usize;
        for &ci in &self.tree_memberships[u.index()] {
            let ctx = &self.contexts[ci];
            let out_table =
                *ctx.router.table(u).expect("tree members are spanned by the out component");
            let own_label = ctx.router.label(u).expect("member has a tree address").clone();
            max_label_bits = max_label_bits.max(own_label.bits(self.n));
            let up_port = ctx.tree.in_tree().next_port(u);

            let mut prefix: FxHashMap<(u32, u32), Arc<TreeLabel>> = FxHashMap::default();
            let mut exact: FxHashMap<NodeName, Arc<TreeLabel>> = FxHashMap::default();
            for j in 0..self.k {
                let first = self.space.prefix_code(own_name, j) * q;
                for tau in 0..q {
                    let Some(group) = ctx.prefix_groups[j as usize].get(&(first + tau)) else {
                        continue;
                    };
                    // Nearest member of the group by roundtrip distance.
                    let best = group
                        .iter()
                        .copied()
                        .min_by_key(|&v| (rt_row[v.index()], v.0))
                        .expect("groups are non-empty");
                    let label = ctx.router.label(best).expect("member has an address").clone();
                    if j + 1 == self.k {
                        // Full name matched: record under the exact name.
                        exact.insert(self.names.name_of(best), label);
                    } else {
                        prefix.insert((j, tau), label);
                    }
                }
            }

            trees.insert(ctx.id, TreeRecord { out_table, up_port, own_label, prefix, exact });
        }
        self.slots.put(u.index(), (trees, max_label_bits));
    }
}

/// The polynomial-tradeoff TINN scheme.
#[derive(Debug)]
pub struct PolynomialStretch {
    n: usize,
    k: u32,
    cover_k: u32,
    level_count: usize,
    space: AddressSpace,
    tables: Vec<NodeTable>,
    name_bits: usize,
    label_bits: usize,
    tree_id_bits: usize,
}

impl PolynomialStretch {
    /// Builds the scheme: the Theorem 13 hierarchy plus per-node prefix
    /// dictionaries inside every tree.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`, the graph is not strongly connected, or the naming
    /// size mismatches.
    pub fn build<O: DistanceOracle + ?Sized>(
        g: &DiGraph,
        m: &O,
        names: &NamingAssignment,
        params: PolyParams,
    ) -> Self {
        assert!(params.cover_k >= 2, "cover parameter must be >= 2");
        let cover = DoubleTreeCover::build(g, m, params.cover_k);
        Self::build_with_cover(g, m, names, &cover, params)
    }

    /// Builds the scheme over an **existing** Theorem 13 hierarchy, so one
    /// cover build (the dominant preprocessing cost at large `n`) can be
    /// shared with other consumers — `SparseSchemeSuite` hands the same
    /// hierarchy to this scheme and to the §3 substrate
    /// (`rtr_namedep::TreeCoverScheme::from_cover`).
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`, the cover's sparseness differs from
    /// `params.cover_k`, the graph is not strongly connected, or the naming
    /// size mismatches.
    pub fn build_with_cover<O: DistanceOracle + ?Sized>(
        g: &DiGraph,
        m: &O,
        names: &NamingAssignment,
        cover: &DoubleTreeCover,
        params: PolyParams,
    ) -> Self {
        let n = g.node_count();
        let k = params.k;
        assert!(k >= 2, "PolynomialStretch requires k >= 2");
        assert_eq!(cover.k(), params.cover_k, "cover was built with a different sparseness");
        assert_eq!(names.len(), n, "naming assignment size mismatch");
        assert!(m.is_strongly_connected(), "PolynomialStretch requires a strongly connected graph");

        let space = AddressSpace::new(n, k);
        let name_bits = id_bits(n);

        // Pass 1 — per-tree prefix groups (pure name-digit bookkeeping, no
        // oracle): prefix_groups[j] maps the code of a (j+1)-digit prefix to
        // the member list sharing it, so the nearest matching member per
        // (node, j, τ) can be found in one scan below.
        let mut contexts: Vec<TreeCtx<'_>> = Vec::new();
        let mut max_trees_per_level = 0usize;
        for (li, level) in cover.levels().iter().enumerate() {
            max_trees_per_level = max_trees_per_level.max(level.trees.len());
            for (ti, tree) in level.trees.iter().enumerate() {
                let id = TreeId { level: li as u16, index: ti as u32 };
                let mut prefix_groups: Vec<FxHashMap<u32, Vec<NodeId>>> =
                    vec![FxHashMap::default(); k as usize];
                for &v in tree.members() {
                    let name = names.name_of(v);
                    for (j, groups) in prefix_groups.iter_mut().enumerate() {
                        groups.entry(space.prefix_code(name, j as u32 + 1)).or_default().push(v);
                    }
                }
                contexts.push(TreeCtx { id, router: &level.routers[ti], tree, prefix_groups });
            }
        }
        let mut tree_memberships: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (ci, ctx) in contexts.iter().enumerate() {
            for &v in ctx.tree.members() {
                tree_memberships[v.index()].push(ci);
            }
        }

        // Pass 2 — per-node records, as a broadcast row consumer.  Looping
        // nodes on the outside means one roundtrip row per *node* serves the
        // group comparisons of every tree the node belongs to (a lazy oracle
        // pays `O(n)` Dijkstra pairs instead of `O(total memberships)`).
        let mut pass2 = PolyDictionarySweep {
            contexts: &contexts,
            tree_memberships: &tree_memberships,
            names,
            space: &space,
            k,
            n,
            slots: SweepSlots::new(n),
        };
        {
            let _span =
                rtr_telemetry::span!("poly.pass2_sweep", format_args!("trees={}", contexts.len()));
            broadcast_rows(m, &g.nodes().collect::<Vec<_>>(), &mut [&mut pass2]);
        }
        let mut max_label_bits = 0usize;
        let tables: Vec<NodeTable> = pass2
            .slots
            .into_vec()
            .into_iter()
            .enumerate()
            .map(|(vi, (trees, label_bits))| {
                max_label_bits = max_label_bits.max(label_bits);
                let v = NodeId::from_index(vi);
                NodeTable {
                    own_name: names.name_of(v),
                    home: (0..cover.level_count()).map(|li| cover.home_tree_id(v, li)).collect(),
                    trees,
                }
            })
            .collect();

        let tree_id_bits = TreeId::bits(cover.level_count(), max_trees_per_level.max(1));
        PolynomialStretch {
            n,
            k,
            cover_k: params.cover_k,
            level_count: cover.level_count(),
            space,
            tables,
            name_bits,
            label_bits: max_label_bits.max(1),
            tree_id_bits,
        }
    }

    /// The name-digit parameter `k`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of nodes the scheme was built for.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The cover sparseness parameter `k_c`.
    pub fn cover_k(&self) -> u32 {
        self.cover_k
    }

    /// Number of cover levels.
    pub fn level_count(&self) -> usize {
        self.level_count
    }

    /// The theoretical stretch bound of §4.3, `8k² + 4k − 4`, evaluated for
    /// this scheme's `k` (valid when `cover_k == k`, as in the paper).
    pub fn paper_stretch_bound(&self) -> u64 {
        let k = self.k as u64;
        8 * k * k + 4 * k - 4
    }

    fn table(&self, v: NodeId) -> &NodeTable {
        &self.tables[v.index()]
    }

    /// Finds, at waypoint `at` inside `tree`, the dictionary entry matching
    /// one more digit of `dest` than `matched`. Returns `None` when the tree
    /// cannot make progress (the destination is not in this tree).
    fn next_waypoint(
        &self,
        at: NodeId,
        tree: TreeId,
        dest: NodeName,
        matched: u32,
    ) -> Option<Arc<TreeLabel>> {
        let record = self.table(at).trees.get(&tree)?;
        if matched + 1 == self.k {
            return record.exact.get(&dest).cloned();
        }
        // The destination's digit at position `matched`.
        let digit = self.space.prefix_code(dest, matched + 1) % self.space.q();
        record.prefix.get(&(matched, digit)).cloned()
    }

    /// The common routine of both legs: step within the current tree toward
    /// `label` (up toward the center until the destination enters the
    /// subtree, then down).
    fn tree_step(
        &self,
        at: NodeId,
        tree: TreeId,
        label: &TreeLabel,
    ) -> Result<ForwardAction, RoutingError> {
        let record = self
            .table(at)
            .trees
            .get(&tree)
            .ok_or_else(|| RoutingError::new(at, "node left the current double tree"))?;
        match TreeRouter::step(&record.out_table, label) {
            TreeStep::Deliver => Ok(ForwardAction::Deliver),
            TreeStep::Forward(port) => Ok(ForwardAction::Forward(port)),
            TreeStep::NotInSubtree => {
                let port = record.up_port.ok_or_else(|| {
                    RoutingError::new(at, "tree center does not contain the waypoint")
                })?;
                Ok(ForwardAction::Forward(port))
            }
        }
    }
}

impl RoundtripRouting for PolynomialStretch {
    type Header = PolyHeader;

    fn scheme_name(&self) -> &'static str {
        "polystretch"
    }

    fn new_packet(&self, _src: NodeId, dst: NodeName) -> Result<Self::Header, RoutingError> {
        Ok(PolyHeader {
            mode: Mode::NewPacket,
            dest: dst,
            src: None,
            level: 0,
            tree: None,
            src_tree_label: None,
            next_label: None,
            found: false,
            returning: false,
            name_bits: self.name_bits,
            label_bits: self.label_bits,
            tree_id_bits: self.tree_id_bits,
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

    fn forward(&self, at: NodeId, header: &mut PolyHeader) -> Result<ForwardAction, RoutingError> {
        let table = self.table(at);
        loop {
            match header.mode {
                Mode::NewPacket => {
                    header.src = Some(table.own_name);
                    header.mode = Mode::Enroute;
                    if header.dest == table.own_name {
                        header.found = true;
                        return Ok(ForwardAction::Deliver);
                    }
                    // Start at the first level (the paper starts at i = 1;
                    // level index 0 is the smallest scale of the hierarchy).
                    self.enter_level(at, header, 0)?;
                }
                Mode::ReturnPacket => {
                    header.mode = Mode::Enroute;
                    header.found = true;
                    header.returning = true;
                    if header.src == Some(table.own_name) {
                        return Ok(ForwardAction::Deliver);
                    }
                    header.next_label = Some(header.src_tree_label.clone().ok_or_else(|| {
                        RoutingError::new(at, "return packet lost the source address")
                    })?);
                }
                Mode::Enroute => {
                    let tree = header.tree.ok_or_else(|| {
                        RoutingError::new(at, "enroute packet carries no tree id")
                    })?;
                    let label = header.next_label.as_deref().ok_or_else(|| {
                        RoutingError::new(at, "enroute packet carries no waypoint")
                    })?;
                    match self.tree_step(at, tree, label)? {
                        ForwardAction::Forward(port) => return Ok(ForwardAction::Forward(port)),
                        ForwardAction::Deliver => {
                            // Arrived at the current waypoint.
                            if header.returning {
                                if Some(table.own_name) == header.src {
                                    if header.found {
                                        return Ok(ForwardAction::Deliver);
                                    }
                                    // Failure return: escalate to the next level.
                                    header.returning = false;
                                    let next_level = header.level as usize + 1;
                                    if next_level >= self.level_count {
                                        return Err(RoutingError::new(
                                            at,
                                            "search exhausted every cover level",
                                        ));
                                    }
                                    self.enter_level(at, header, next_level)?;
                                    continue;
                                }
                                return Err(RoutingError::new(
                                    at,
                                    "source address delivered at a foreign node",
                                ));
                            }
                            if table.own_name == header.dest {
                                header.found = true;
                                return Ok(ForwardAction::Deliver);
                            }
                            // Look up the next waypoint matching one more digit.
                            let matched = self.space.common_prefix_len(table.own_name, header.dest);
                            match self.next_waypoint(at, tree, header.dest, matched) {
                                Some(next) => {
                                    header.next_label = Some(next);
                                    continue;
                                }
                                None => {
                                    // Not reachable in this tree: go back to the
                                    // source and try the next level there.
                                    header.returning = true;
                                    header.next_label =
                                        Some(header.src_tree_label.clone().ok_or_else(|| {
                                            RoutingError::new(
                                                at,
                                                "missing source address for failure return",
                                            )
                                        })?);
                                    continue;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    fn table_stats(&self, v: NodeId) -> TableStats {
        let t = self.table(v);
        let mut entries = 1 + t.home.len();
        let mut bits = self.name_bits + t.home.len() * self.tree_id_bits;
        for record in t.trees.values() {
            let dict = record.prefix.len() + record.exact.len();
            entries += 2 + dict;
            bits += self.tree_id_bits
                + 3 * self.name_bits // out_table words
                + self.name_bits // up port
                + self.label_bits // own label
                + dict * (self.name_bits + self.label_bits);
        }
        TableStats { entries, bits }
    }
}

impl PolynomialStretch {
    /// (Re)initializes the header for a search at `level`, starting at the
    /// source node `at`.
    fn enter_level(
        &self,
        at: NodeId,
        header: &mut PolyHeader,
        level: usize,
    ) -> Result<(), RoutingError> {
        let table = self.table(at);
        let tree = table.home[level];
        let record = table
            .trees
            .get(&tree)
            .ok_or_else(|| RoutingError::new(at, "source is missing its home-tree record"))?;
        header.level = level as u16;
        header.tree = Some(tree);
        header.src_tree_label = Some(record.own_label.clone());
        // First waypoint: match one more digit than the source already does.
        let matched = self.space.common_prefix_len(table.own_name, header.dest);
        match self.next_waypoint(at, tree, header.dest, matched) {
            Some(next) => {
                header.next_label = Some(next);
                header.returning = false;
                Ok(())
            }
            None => {
                // This level cannot even start; escalate immediately.
                let next_level = level + 1;
                if next_level >= self.level_count {
                    return Err(RoutingError::new(at, "search exhausted every cover level"));
                }
                self.enter_level(at, header, next_level)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_graph::generators::{bidirected_grid, strongly_connected_gnp};
    use rtr_metric::DistanceMatrix;
    use rtr_sim::Simulator;

    fn check_all_pairs(
        g: &DiGraph,
        m: &DistanceMatrix,
        names: &NamingAssignment,
        scheme: &PolynomialStretch,
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
                    .roundtrip(scheme, s, t, names.name_of(t))
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
    fn meets_the_paper_bound_on_random_graphs() {
        for (n, k, seed) in [(36usize, 2u32, 1u64), (48, 3, 2)] {
            let g = strongly_connected_gnp(n, 0.1, seed).unwrap();
            let m = DistanceMatrix::build(&g);
            let names = NamingAssignment::random(n, seed);
            let scheme = PolynomialStretch::build(&g, &m, &names, PolyParams::with_k(k));
            let bound = scheme.paper_stretch_bound();
            check_all_pairs(&g, &m, &names, &scheme, Some((bound, 1)));
        }
    }

    #[test]
    fn meets_the_paper_bound_on_grids() {
        let g = bidirected_grid(6, 6, 3).unwrap();
        let m = DistanceMatrix::build(&g);
        let names = NamingAssignment::random(36, 11);
        let scheme = PolynomialStretch::build(&g, &m, &names, PolyParams::with_k(2));
        check_all_pairs(&g, &m, &names, &scheme, Some((scheme.paper_stretch_bound(), 1)));
    }

    #[test]
    fn measured_stretch_is_far_below_the_bound() {
        let g = strongly_connected_gnp(40, 0.12, 5).unwrap();
        let m = DistanceMatrix::build(&g);
        let names = NamingAssignment::random(40, 7);
        let scheme = PolynomialStretch::build(&g, &m, &names, PolyParams::with_k(2));
        let worst =
            check_all_pairs(&g, &m, &names, &scheme, Some((scheme.paper_stretch_bound(), 1)));
        assert!(worst < scheme.paper_stretch_bound() as f64 / 2.0);
    }

    #[test]
    fn name_independence() {
        let g = strongly_connected_gnp(32, 0.12, 9).unwrap();
        let m = DistanceMatrix::build(&g);
        for names in [
            NamingAssignment::identity(32),
            NamingAssignment::reversed(32),
            NamingAssignment::random(32, 4),
        ] {
            let scheme = PolynomialStretch::build(&g, &m, &names, PolyParams::with_k(2));
            check_all_pairs(&g, &m, &names, &scheme, Some((scheme.paper_stretch_bound(), 1)));
        }
    }

    #[test]
    fn self_addressed_packets_cost_nothing() {
        let g = strongly_connected_gnp(20, 0.2, 13).unwrap();
        let m = DistanceMatrix::build(&g);
        let names = NamingAssignment::random(20, 5);
        let scheme = PolynomialStretch::build(&g, &m, &names, PolyParams::with_k(2));
        let sim = Simulator::new(&g);
        for v in g.nodes() {
            let report = sim.roundtrip(&scheme, v, v, names.name_of(v)).unwrap();
            assert_eq!(report.total_weight(), 0);
        }
    }

    #[test]
    fn headers_are_polylogarithmic() {
        let g = strongly_connected_gnp(48, 0.1, 15).unwrap();
        let m = DistanceMatrix::build(&g);
        let names = NamingAssignment::random(48, 6);
        let scheme = PolynomialStretch::build(&g, &m, &names, PolyParams::with_k(3));
        let sim = Simulator::new(&g);
        let word = id_bits(48);
        let bound = 8 * word * word + 16 * word + 64;
        for s in g.nodes().take(6) {
            for t in g.nodes() {
                if s == t {
                    continue;
                }
                let report = sim.roundtrip(&scheme, s, t, names.name_of(t)).unwrap();
                assert!(report.max_header_bits() <= bound);
            }
        }
    }

    #[test]
    fn larger_k_reduces_per_tree_dictionary_width() {
        let g = strongly_connected_gnp(81, 0.07, 17).unwrap();
        let m = DistanceMatrix::build(&g);
        let names = NamingAssignment::random(81, 8);
        let s2 = PolynomialStretch::build(&g, &m, &names, PolyParams { k: 2, cover_k: 2 });
        let s4 = PolynomialStretch::build(&g, &m, &names, PolyParams { k: 4, cover_k: 2 });
        // The per-(node, tree) dictionary has k·q entries; q = n^{1/k} shrinks
        // much faster than k grows, so k = 4 tables are at most as large.
        let max2 = g.nodes().map(|v| s2.table_stats(v).entries).max().unwrap();
        let max4 = g.nodes().map(|v| s4.table_stats(v).entries).max().unwrap();
        assert!(max4 <= max2, "k=4 entries {max4} should not exceed k=2 entries {max2}");
        check_all_pairs(&g, &m, &names, &s4, Some((s4.paper_stretch_bound(), 1)));
    }
}
