//! One deterministic hasher for the tables keyed by the program's own ids.
//!
//! [`FxHasher`] is the multiply-rotate scheme of rustc-hash 2: each word is
//! added to the state and the sum multiplied by an odd constant, and
//! [`finish`](Hasher::finish) rotates the product left by 26 bits, so the
//! low bits a hash table takes its bucket index from come from the product's
//! well-mixed high bits.  A probe costs one multiply per key field instead of
//! SipHash-1-3's rounds, and the same keys hash the same way in every run.
//!
//! **The rule.** Use [`FxHashMap`] and [`FxHashSet`] only where every stored
//! key is an id the program assigned itself (`NodeId`, a node name, a tree
//! id, a landmark index, a `(len, code)` prefix), in a table the program's
//! own build fills.  Such tables are frozen before serving: a request picks
//! only which key it looks up, so no probe is longer than the frozen table's
//! longest probe run.  A table into which outside input inserts keys (names
//! chosen by an adversary, request endpoints, edges read from a graph file)
//! keeps std's randomly keyed SipHash, which bounds what crafted keys can do.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The odd multiplier of rustc-hash 2.
const MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

/// The multiply-rotate hasher; see the [module docs](self) for where it may
/// be used.
#[derive(Debug, Clone, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for FxHasher {
    /// Folds the bytes as 8-byte little-endian words, the last one
    /// zero-padded (slice keys also hash their length first).
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("chunks of exactly 8 bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Builds [`FxHasher`]s; zero-sized, so a map carries no hasher state.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A std [`HashMap`] hashed with [`FxHasher`] (create it with `default()`).
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A std [`HashSet`] hashed with [`FxHasher`] (create it with `default()`).
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::hash::{BuildHasher, Hash};

    /// The shape of a tree id: a small level and an index.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct LevelIndex {
        level: u16,
        index: u32,
    }

    /// Applies a seeded stream of inserts, overwrites and lookups (hits and
    /// misses) to an [`FxHashMap`] and a [`BTreeMap`] side by side and
    /// asserts they agree after every operation.
    fn agrees_with_btree<K: Ord + Hash + Copy + std::fmt::Debug>(
        seed: u64,
        ops: usize,
        key_range: u64,
        key: impl Fn(u64) -> K,
    ) {
        let mut rng = proptest::TestRng::seed_from_u64(seed);
        let mut fx: FxHashMap<K, u64> = FxHashMap::default();
        let mut reference: BTreeMap<K, u64> = BTreeMap::new();
        for op in 0..ops as u64 {
            let k = key(rng.next_u64() % key_range);
            if rng.next_u64().is_multiple_of(3) {
                assert_eq!(fx.get(&k), reference.get(&k), "lookup of {k:?}");
            } else {
                assert_eq!(fx.insert(k, op), reference.insert(k, op), "insert of {k:?}");
            }
            assert_eq!(fx.len(), reference.len());
        }
        let mut entries: Vec<(K, u64)> = fx.into_iter().collect();
        entries.sort_unstable();
        assert_eq!(entries, reference.into_iter().collect::<Vec<_>>());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        #[test]
        fn fx_maps_agree_with_btree_maps(
            seed in 0u64..1_000_000,
            ops in 1usize..600,
            key_range in 1u64..400,
        ) {
            agrees_with_btree(seed, ops, key_range, |x| x as u32);
            agrees_with_btree(seed, ops, key_range, |x| ((x % 7) as u32, (x / 7) as u32));
            agrees_with_btree(seed, ops, key_range, |x| LevelIndex {
                level: (x % 13) as u16,
                index: (x / 13) as u32,
            });
        }
    }

    /// The largest number of keys sharing a bucket when each key is placed
    /// by the low `⌈log₂ n⌉` bits of its hash, `n` being the key count.
    fn worst_low_bit_load<K: Hash>(keys: &[K]) -> usize {
        let bits = keys.len().next_power_of_two().trailing_zeros();
        let mask = (1u64 << bits) - 1;
        let mut load = vec![0usize; 1 << bits];
        for key in keys {
            load[(FxBuildHasher::default().hash_one(key) & mask) as usize] += 1;
        }
        load.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn dense_ids_spread_over_the_low_bits() {
        for n in [600u32, 2000, 20_000] {
            let ids: Vec<u32> = (0..n).collect();
            assert!(worst_low_bit_load(&ids) <= 8, "n = {n}: dense u32 ids");
            // (len, code) prefixes: lengths 1..=4, codes below n / 4 each.
            let prefixes: Vec<(u32, u32)> = (0..n).map(|x| (1 + x % 4, x / 4)).collect();
            assert!(worst_low_bit_load(&prefixes) <= 8, "n = {n}: (len, code) pairs");
            // Tree ids: levels 0..12, small indices within each level.
            let trees: Vec<LevelIndex> =
                (0..n).map(|x| LevelIndex { level: (x % 12) as u16, index: x / 12 }).collect();
            assert!(worst_low_bit_load(&trees) <= 8, "n = {n}: tree ids");
            // Ids in a word's high half reach the low bits only through the
            // rotation in `finish`.
            let high: Vec<u64> = (0..n as u64).map(|x| x << 32).collect();
            assert!(worst_low_bit_load(&high) <= 8, "n = {n}: ids in a word's high half");
        }
    }

    #[test]
    fn byte_slices_fold_by_words_and_hash_deterministically() {
        let hash = |key: &[u32]| FxBuildHasher::default().hash_one(key);
        assert_eq!(hash(&[1, 2, 3]), hash(&[1, 2, 3]));
        assert_ne!(hash(&[1, 2, 3]), hash(&[1, 2, 3, 0]), "the length prefix separates them");
        assert_ne!(hash(&[1, 2]), hash(&[2, 1]));
        let mut h = FxHasher::default();
        h.write(&[1, 0, 0, 0, 0, 0, 0, 0, 2]);
        let mut words = FxHasher::default();
        words.write_u64(1);
        words.write_u64(2);
        assert_eq!(h.finish(), words.finish());
    }
}
