//! The randomized block distribution of Lemma 1 / Lemma 4.
//!
//! Every node is assigned a set `S_v` of blocks such that, for every node `v`,
//! every level `i < k`, and every prefix `τ ∈ Σ^i`, some node of the level-`i`
//! neighborhood `N_i(v)` holds a block whose digit string starts with `τ` —
//! while each node holds only `O(log n)` blocks.
//!
//! The construction follows the paper's probabilistic method (each node picks
//! each block independently with probability `c·ln n / q^{k−1}`), followed by
//! a deterministic *repair pass* that inserts a block wherever a `(v, i, τ)`
//! requirement is still unsatisfied. The coverage property therefore holds
//! with certainty; the repair count and the block-set sizes are reported so
//! experiment E3 can confirm they behave as the lemma predicts.

use crate::digits::{AddressSpace, BlockId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtr_graph::hash::FxHashSet;
use rtr_graph::NodeId;
use rtr_metric::RoundtripOrder;

/// Tunables of the randomized distribution.
#[derive(Debug, Clone, Copy)]
pub struct DistributionParams {
    /// The constant `c` in the selection probability `c·ln n / q^{k−1}`.
    pub density: f64,
    /// RNG seed (the distribution is deterministic given the seed).
    pub seed: u64,
}

impl Default for DistributionParams {
    fn default() -> Self {
        DistributionParams { density: 4.0, seed: 0xb10c_5eed }
    }
}

/// The assignment `v ↦ S_v` produced by [`BlockDistribution::build`].
#[derive(Debug, Clone)]
pub struct BlockDistribution {
    space: AddressSpace,
    k: u32,
    /// `sets[v]`: sorted block ids held by node `v` (indexed by `NodeId`).
    sets: Vec<Vec<BlockId>>,
    /// Number of blocks inserted by the repair pass.
    repairs: usize,
}

impl BlockDistribution {
    /// Builds the distribution for the given address space and roundtrip
    /// neighborhood structure. `space.digit_count()` is the `k` of Lemma 4
    /// (use `k = 2` for Lemma 1).
    ///
    /// # Panics
    ///
    /// Panics if the order and the space disagree on `n`, or `k < 2`.
    pub fn build(space: AddressSpace, order: &RoundtripOrder, params: DistributionParams) -> Self {
        let n = space.name_count();
        let k = space.digit_count();
        assert!(k >= 2, "block distribution needs k >= 2");
        assert_eq!(n, order.node_count(), "order and address space disagree on n");

        let block_count = space.block_count();
        let mut rng = StdRng::seed_from_u64(params.seed);
        let p = (params.density * (n.max(2) as f64).ln() / block_count as f64).min(1.0);

        // Random phase.
        let mut sets: Vec<FxHashSet<BlockId>> = vec![FxHashSet::default(); n];
        for set in sets.iter_mut() {
            for b in 0..block_count as u32 {
                if rng.gen_bool(p) {
                    set.insert(BlockId(b));
                }
            }
        }

        // Repair phase: enforce the Lemma 4 coverage property exactly — over
        // the **unfiltered** prefix set.  A rounded-up space (q^k > n) has
        // blocks with no existing member, but the schemes' dictionary tables
        // still index storage item (2) by block id, so every neighborhood
        // must hold every block: filtering to inhabited prefixes here is what
        // used to leave unlucky small-n/low-density instances without a
        // holder and panic `StretchSix::build_with_order`.  A length-i prefix
        // is its integer code in `0..q^i`, so one reused flag vector of
        // `q^{k−1}` entries records which prefixes N_i(v) covers.
        let mut repairs = 0usize;
        let mut covered = vec![false; block_count];
        for vi in 0..n {
            let v = NodeId::from_index(vi);
            for i in 0..k {
                let level_size = RoundtripOrder::level_size(n, i, k);
                let neighborhood = order.neighborhood(v, level_size);
                let prefix_count = (space.q() as usize).pow(i);
                covered[..prefix_count].fill(false);
                for &w in neighborhood {
                    for &b in &sets[w.index()] {
                        covered[space.block_prefix_code(b, i) as usize] = true;
                    }
                }
                for code in (0..prefix_count).filter(|&code| !covered[code]) {
                    // Unsatisfied: give a block with prefix τ to the
                    // least-loaded node of the neighborhood, choosing the
                    // block deterministically but spread by the node id.
                    let candidates = space.blocks_with_prefix_code(i, code as u32);
                    let pick = candidates.start + (vi % candidates.len()) as u32;
                    let target = *neighborhood
                        .iter()
                        .min_by_key(|w| (sets[w.index()].len(), w.0))
                        .expect("neighborhood is never empty");
                    sets[target.index()].insert(BlockId(pick));
                    repairs += 1;
                }
            }
        }

        let sets: Vec<Vec<BlockId>> = sets
            .into_iter()
            .map(|s| {
                let mut v: Vec<BlockId> = s.into_iter().collect();
                v.sort_unstable();
                v
            })
            .collect();
        BlockDistribution { space, k, sets, repairs }
    }

    /// The address space the blocks partition.
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// The Lemma 4 parameter `k`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The block set `S_v`.
    pub fn set(&self, v: NodeId) -> &[BlockId] {
        &self.sets[v.index()]
    }

    /// Whether node `v` holds `block`.
    pub fn holds(&self, v: NodeId, block: BlockId) -> bool {
        self.sets[v.index()].binary_search(&block).is_ok()
    }

    /// Number of repair insertions that were needed after the random phase.
    pub fn repair_count(&self) -> usize {
        self.repairs
    }

    /// The largest `|S_v|`.
    pub fn max_set_size(&self) -> usize {
        self.sets.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The mean `|S_v|`.
    pub fn avg_set_size(&self) -> f64 {
        let total: usize = self.sets.iter().map(Vec::len).sum();
        total as f64 / self.sets.len().max(1) as f64
    }

    /// Finds the closest node (by `Init_v` order) within the level-`len`
    /// neighborhood of `v` that holds a block whose first `len` digits have
    /// the integer code `code` (see [`AddressSpace::prefix_code`]). This is
    /// the dictionary lookup the schemes embed into their tables (storage
    /// item (2) of §2.1 and item (3a) of §3.3). The matching blocks form one
    /// range, so each neighbor's sorted block set is tested with one binary
    /// search.
    ///
    /// # Panics
    ///
    /// Panics if `len ≥ k` or `code ≥ q^len`.
    pub fn holder_for_prefix(
        &self,
        order: &RoundtripOrder,
        v: NodeId,
        len: u32,
        code: u32,
    ) -> Option<NodeId> {
        let blocks = self.space.blocks_with_prefix_code(len, code);
        let level_size = RoundtripOrder::level_size(self.space.name_count(), len, self.k);
        order.neighborhood(v, level_size).iter().copied().find(|&w| {
            let set = &self.sets[w.index()];
            set.get(set.partition_point(|b| b.0 < blocks.start)).is_some_and(|b| b.0 < blocks.end)
        })
    }

    /// Finds the closest node within `N(v)` (level `1`… for Lemma 1 use
    /// `k = 2`) that holds exactly `block`.
    pub fn holder_of_block(
        &self,
        order: &RoundtripOrder,
        v: NodeId,
        block: BlockId,
    ) -> Option<NodeId> {
        let level_size = RoundtripOrder::level_size(self.space.name_count(), self.k - 1, self.k);
        order.neighborhood(v, level_size).iter().copied().find(|&w| self.holds(w, block))
    }

    /// Verifies the Lemma 4 coverage property from scratch; used by tests and
    /// by experiment E3 (it re-derives the property rather than trusting the
    /// construction).
    pub fn verify_coverage(&self, order: &RoundtripOrder) -> bool {
        let n = self.space.name_count();
        for vi in 0..n {
            let v = NodeId::from_index(vi);
            for i in 0..self.k {
                // Every code in `0..q^i`: coverage must also hold for
                // blocks with no existing member, because the schemes look
                // up a holder for every block id of the rounded-up space.
                for code in 0..self.space.q().pow(i) {
                    if self.holder_for_prefix(order, v, i, code).is_none() {
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digits::tests::base_q_digits;
    use crate::digits::NodeName;
    use rtr_graph::generators::{bidirected_grid, strongly_connected_gnp, Family};
    use rtr_metric::DistanceMatrix;

    fn setup(n: usize, k: u32, seed: u64) -> (RoundtripOrder, BlockDistribution) {
        let g = Family::Gnp.generate(n, seed).unwrap();
        let m = DistanceMatrix::build(&g);
        let order = RoundtripOrder::build(&m);
        let space = AddressSpace::new(g.node_count(), k);
        let dist =
            BlockDistribution::build(space, &order, DistributionParams { density: 4.0, seed });
        (order, dist)
    }

    #[test]
    fn lemma_1_coverage_k2() {
        let (order, dist) = setup(64, 2, 1);
        assert!(dist.verify_coverage(&order));
        // Level 1 with k = 2: every block must have a holder in every N(v).
        let n = order.node_count();
        for vi in 0..n {
            let v = NodeId::from_index(vi);
            for b in 0..dist.space().block_count() as u32 {
                assert!(
                    dist.holder_of_block(&order, v, BlockId(b)).is_some(),
                    "block {b} has no holder near {v}"
                );
            }
        }
    }

    #[test]
    fn lemma_4_coverage_k3_and_k4() {
        for k in [3u32, 4] {
            let (order, dist) = setup(81, k, 7);
            assert!(dist.verify_coverage(&order), "coverage fails for k={k}");
        }
    }

    #[test]
    fn holder_search_matches_a_linear_digit_string_scan() {
        for (n, k, seed) in [(64usize, 2u32, 1u64), (81, 3, 7), (81, 4, 7)] {
            let (order, dist) = setup(n, k, seed);
            let q = dist.space().q();
            for vi in 0..n {
                let v = NodeId::from_index(vi);
                for len in 0..k {
                    let neighborhood = order.neighborhood(v, RoundtripOrder::level_size(n, len, k));
                    for code in 0..q.pow(len) {
                        let prefix = base_q_digits(code, len, q);
                        let linear = neighborhood.iter().copied().find(|&w| {
                            dist.set(w)
                                .iter()
                                .any(|b| base_q_digits(b.0, k - 1, q)[..len as usize] == prefix[..])
                        });
                        assert_eq!(
                            dist.holder_for_prefix(&order, v, len, code),
                            linear,
                            "n={n} k={k}: holder of prefix {prefix:?} near {v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn set_sizes_are_logarithmic() {
        // Lemma guarantee: |S_v| = O(log n). With density c = 4 the expected
        // size is 4 ln n; allow a generous constant for the tail + repairs.
        for (n, k) in [(100usize, 2u32), (144, 2), (125, 3)] {
            let (_, dist) = setup(n, k, 3);
            let bound = (16.0 * (n as f64).ln()).ceil() as usize + 8;
            assert!(
                dist.max_set_size() <= bound,
                "n={n} k={k}: max |S_v| = {} exceeds {bound}",
                dist.max_set_size()
            );
            assert!(dist.avg_set_size() <= 8.0 * (n as f64).ln() + 4.0);
        }
    }

    #[test]
    fn repairs_are_rare() {
        // With density 4 the probabilistic argument leaves only a handful of
        // unsatisfied requirements; the repair pass is a safety net, not the
        // main mechanism.
        let (_, dist) = setup(100, 2, 11);
        assert!(dist.repair_count() <= 100, "unexpectedly many repairs: {}", dist.repair_count());
    }

    #[test]
    fn holders_are_inside_the_right_neighborhood() {
        let (order, dist) = setup(49, 2, 5);
        let n = order.node_count();
        let level_size = RoundtripOrder::level_size(n, 1, 2);
        for vi in 0..n {
            let v = NodeId::from_index(vi);
            for b in 0..dist.space().block_count() as u32 {
                let w = dist.holder_of_block(&order, v, BlockId(b)).unwrap();
                assert!(order.in_neighborhood(v, w, level_size));
                assert!(dist.holds(w, BlockId(b)));
            }
        }
    }

    #[test]
    fn determinism_given_seed() {
        let (_, a) = setup(50, 2, 42);
        let (_, b) = setup(50, 2, 42);
        for vi in 0..50 {
            assert_eq!(a.set(NodeId::from_index(vi)), b.set(NodeId::from_index(vi)));
        }
        assert_eq!(a.repair_count(), b.repair_count());
    }

    #[test]
    fn different_seeds_differ() {
        // Use k = 3 so the selection probability is strictly below 1 (for
        // k = 2 and small n the density pushes p to 1 and every node holds
        // every block, which is correct but makes the assignments identical).
        let (_, a) = setup(100, 3, 1);
        let (_, b) = setup(100, 3, 2);
        let same =
            (0..100).all(|vi| a.set(NodeId::from_index(vi)) == b.set(NodeId::from_index(vi)));
        assert!(!same);
    }

    #[test]
    fn works_on_grid_neighborhoods() {
        let g = bidirected_grid(7, 7, 3).unwrap();
        let m = DistanceMatrix::build(&g);
        let order = RoundtripOrder::build(&m);
        let space = AddressSpace::new(g.node_count(), 2);
        let dist = BlockDistribution::build(space, &order, DistributionParams::default());
        assert!(dist.verify_coverage(&order));
    }

    #[test]
    fn every_name_is_in_exactly_one_block() {
        let (_, dist) = setup(60, 2, 9);
        let space = dist.space();
        let mut seen = vec![0u32; space.name_count()];
        for b in 0..space.block_count() as u32 {
            for name in space.block_members(BlockId(b)) {
                seen[name.index()] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
        // And block_of agrees with membership.
        for v in 0..space.name_count() as u32 {
            let b = space.block_of(NodeName(v));
            assert!(space.block_members(b).contains(&NodeName(v)));
        }
    }

    #[test]
    fn empty_blocks_of_a_rounded_up_space_still_get_holders() {
        // n = 30, k = 2 → q = 6 and block 5 starts at name 30: the block
        // exists in the address space but has no member.  With density 0 the
        // random phase assigns nothing, so only the repair pass can give it a
        // holder — exactly the configuration that used to panic
        // `StretchSix::build_with_order` ("Lemma 1 guarantees a holder in
        // every neighborhood") on unlucky small instances.
        let g = strongly_connected_gnp(30, 0.18, 2).unwrap();
        let m = DistanceMatrix::build(&g);
        let order = RoundtripOrder::build(&m);
        let space = AddressSpace::new(30, 2);
        assert!(
            space.block_members(BlockId(space.block_count() as u32 - 1)).is_empty(),
            "test premise: the last block must be empty"
        );
        let dist =
            BlockDistribution::build(space, &order, DistributionParams { density: 0.0, seed: 3 });
        for vi in 0..30 {
            let v = NodeId::from_index(vi);
            for b in 0..dist.space().block_count() as u32 {
                assert!(
                    dist.holder_of_block(&order, v, BlockId(b)).is_some(),
                    "block {b} has no holder near {v}"
                );
            }
        }
        assert!(dist.verify_coverage(&order));
    }

    mod holder_property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            // Small n × many seeds × low density: every block of the
            // (possibly rounded-up) space has a holder in every
            // neighborhood, for k = 2 and k = 3.  This is the property
            // whose violation panicked the sparse suite at e.g. n = 300,
            // seed 7.
            #[test]
            fn every_block_has_a_holder_for_small_n_and_any_seed(
                n in 8usize..72,
                seed in 0u64..10_000,
                k in 2u32..4,
            ) {
                let g = strongly_connected_gnp(n, 0.2, seed).unwrap();
                let m = DistanceMatrix::build(&g);
                let order = RoundtripOrder::build(&m);
                let space = AddressSpace::new(n, k);
                let dist = BlockDistribution::build(
                    space,
                    &order,
                    DistributionParams { density: 1.0, seed },
                );
                for vi in 0..n {
                    let v = NodeId::from_index(vi);
                    for b in 0..dist.space().block_count() as u32 {
                        prop_assert!(
                            dist.holder_of_block(&order, v, BlockId(b)).is_some(),
                            "n={n} k={k} seed={seed}: block {b} has no holder near {v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_density_relies_entirely_on_repair_but_still_covers() {
        // Degenerate configuration: the random phase selects nothing, so the
        // repair pass must establish coverage on its own.
        let g = strongly_connected_gnp(36, 0.15, 13).unwrap();
        let m = DistanceMatrix::build(&g);
        let order = RoundtripOrder::build(&m);
        let space = AddressSpace::new(36, 2);
        let dist =
            BlockDistribution::build(space, &order, DistributionParams { density: 0.0, seed: 1 });
        assert!(dist.verify_coverage(&order));
        assert!(dist.repair_count() > 0);
    }
}
