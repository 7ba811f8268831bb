//! Destination sharding for the serving plane.
//!
//! A [`ShardMap`] partitions the node space into `shards` destination-owned
//! slices by a seeded hash, so hot destinations land on shards independently
//! of their ids.  A [`ShardedPlane`] pairs a [`FrozenPlane`] with a map; the
//! engine's pool assigns each shard one worker ([`ShardMap::owner_of`]), and
//! every worker serves exactly the requests whose destination shard it owns,
//! so each worker touches only its own shards' serving statistics and
//! verification buckets.
//!
//! The shard assignment is a pure function of the destination, never of
//! scheduling — which is what keeps every per-shard statistic (and the
//! merged [`crate::VerifiedReport`]) bit-identical across worker counts.

use crate::plane::FrozenPlane;
use rtr_graph::NodeId;
use rtr_sim::RoundtripRouting;

/// SplitMix64 finalizer — the same mixer the in-tree `rand` shim is built
/// on, reimplemented here so a shard map needs no RNG state.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A deterministic partition of `n` destinations into `shards` shards:
/// `shard(v) = splitmix64(seed ^ v) mod shards`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    n: usize,
    shards: usize,
    /// Mixed into every node id before hashing; two maps with different
    /// seeds disagree, which is how tests rebalance.
    seed: u64,
}

impl ShardMap {
    /// A map of `n` nodes into `shards` shards, hashed under `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `shards` is zero.
    pub fn hashed(n: usize, shards: usize, seed: u64) -> Self {
        assert!(n > 0, "a shard map needs at least one node");
        assert!(shards > 0, "a shard map needs at least one shard");
        ShardMap { n, shards, seed }
    }

    /// The trivial one-shard map: every destination on one worker.
    pub fn single(n: usize) -> Self {
        ShardMap::hashed(n, 1, 0)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Number of nodes partitioned.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The shard owning destination `v` — a pure function of `v`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `v` is outside the mapped node space.
    pub fn shard_of(&self, v: NodeId) -> usize {
        debug_assert!(v.index() < self.n, "destination {v} outside the shard map");
        (splitmix64(self.seed ^ u64::from(v.0)) % self.shards as u64) as usize
    }

    /// The worker that owns shard `shard` in a pool of `workers` threads:
    /// `shard % workers`.  The engine never runs more workers than shards,
    /// so every worker it spawns owns at least one shard.
    pub fn owner_of(&self, shard: usize, workers: usize) -> usize {
        shard % workers.max(1)
    }

    /// Every destination of `shard`, ascending.
    pub fn destinations(&self, shard: usize) -> Vec<NodeId> {
        (0..self.n as u32).map(NodeId).filter(|&v| self.shard_of(v) == shard).collect()
    }

    /// `sizes[s]`: destinations owned by shard `s`.
    pub fn shard_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.shards];
        for v in 0..self.n as u32 {
            sizes[self.shard_of(NodeId(v))] += 1;
        }
        sizes
    }
}

/// A [`FrozenPlane`] paired with the [`ShardMap`] its workers serve under.
/// Cloning copies the plane's `Arc`s and the (plain-old-data) map.
#[derive(Debug, Clone)]
pub struct ShardedPlane<S> {
    plane: FrozenPlane<S>,
    map: ShardMap,
}

impl<S: RoundtripRouting> ShardedPlane<S> {
    /// Pairs `plane` with `map`.
    ///
    /// # Panics
    ///
    /// Panics if the map's node count differs from the plane's.
    pub fn new(plane: FrozenPlane<S>, map: ShardMap) -> Self {
        assert_eq!(
            map.node_count(),
            plane.node_count(),
            "shard map and plane must cover the same node space"
        );
        ShardedPlane { plane, map }
    }

    /// The underlying frozen plane.
    pub fn plane(&self) -> &FrozenPlane<S> {
        &self.plane
    }

    /// The shard assignment.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }
}

/// Per-shard accounting of one serving session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardServeStats {
    /// The shard.
    pub shard: usize,
    /// Delivered requests whose destination lands in this shard — a pure
    /// function of the request stream and the map, identical for any worker
    /// count.
    pub queries: u64,
    /// Always 0: every worker serves only the requests whose destination
    /// shard it owns, so no request crosses workers.  The field stays
    /// because the ledger benchmark's `probes.rs` reads it.
    pub handoffs: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_policy_partitions_the_node_space() {
        for map in [ShardMap::hashed(97, 4, 7), ShardMap::hashed(97, 4, 8), ShardMap::single(97)] {
            let sizes = map.shard_sizes();
            assert_eq!(sizes.len(), map.shard_count());
            assert_eq!(sizes.iter().sum::<usize>(), 97);
            let mut seen = 0usize;
            for (s, &size) in sizes.iter().enumerate() {
                let dests = map.destinations(s);
                assert_eq!(dests.len(), size);
                assert!(dests.iter().all(|&v| map.shard_of(v) == s));
                seen += dests.len();
            }
            assert_eq!(seen, 97);
        }
    }

    #[test]
    fn the_ledgers_hash_map_is_pinned() {
        // The ledger's per-shard counts and every hash-sharded CI artifact
        // depend on these exact assignments.
        let map = ShardMap::hashed(600, 4, 42);
        assert_eq!(map.shard_sizes(), [154, 153, 144, 149]);
        let shards: Vec<usize> =
            [0u32, 1, 2, 3, 99, 300, 599].iter().map(|&v| map.shard_of(NodeId(v))).collect();
        assert_eq!(shards, [1, 0, 2, 1, 3, 1, 0]);
    }

    #[test]
    fn hash_policy_depends_on_its_seed_and_spreads_ids() {
        let a = ShardMap::hashed(64, 4, 1);
        let b = ShardMap::hashed(64, 4, 2);
        let differs = (0..64u32).any(|v| a.shard_of(NodeId(v)) != b.shard_of(NodeId(v)));
        assert!(differs, "two seeds produced the same assignment");
        // No shard is starved on a reasonable instance.
        assert!(a.shard_sizes().iter().all(|&s| s > 0), "{:?}", a.shard_sizes());
    }

    #[test]
    fn more_shards_than_nodes_leaves_some_empty() {
        let map = ShardMap::hashed(3, 8, 1);
        let sizes = map.shard_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 3);
        assert!(sizes.iter().filter(|&&s| s == 0).count() >= 5);
    }

    #[test]
    fn owner_assignment_wraps_over_workers() {
        let map = ShardMap::hashed(20, 5, 0);
        assert_eq!(map.owner_of(0, 2), 0);
        assert_eq!(map.owner_of(1, 2), 1);
        assert_eq!(map.owner_of(4, 2), 0);
        // One worker owns everything; zero is clamped.
        assert_eq!(map.owner_of(3, 1), 0);
        assert_eq!(map.owner_of(3, 0), 0);
    }
}
