//! The §1.1.2 name-independence reduction: arbitrary unique node names are
//! hashed into `{0, …, n−1}` with a universal hash function, and collisions
//! are absorbed by letting a dictionary slot hold a small bucket of original
//! names. The paper shows this costs only a constant blow-up in table size;
//! experiment E11 measures that constant.

use crate::digits::NodeName;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A Mersenne-like prime comfortably larger than any 61-bit name, used by the
/// Carter–Wegman style hash `h(x) = ((a·x + b) mod p) mod n`.
const PRIME: u128 = (1u128 << 61) - 1;

/// Errors from building a [`NameRegistry`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NamingError {
    /// The same original name appeared twice (the model requires unique names).
    DuplicateName(u64),
    /// No names were supplied.
    Empty,
}

impl fmt::Display for NamingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NamingError::DuplicateName(x) => write!(f, "duplicate original name {x}"),
            NamingError::Empty => write!(f, "no names supplied"),
        }
    }
}

impl Error for NamingError {}

/// The hashing reduction: maps each original (adversarially chosen, unique)
/// name to a slot in `{0, …, n−1}`.
#[derive(Debug, Clone)]
pub struct NameRegistry {
    n: usize,
    a: u64,
    b: u64,
    /// `buckets[slot]`: the original names mapped to this slot (sorted).
    buckets: Vec<Vec<u64>>,
    /// Original name → slot.
    /// Std SipHash, not `rtr_graph::hash`: the keys are the adversary's names.
    slot_of: HashMap<u64, u32>,
}

impl NameRegistry {
    /// Builds the registry for the given original names. The hash function is
    /// drawn from the universal family using `seed` — crucially *after* the
    /// adversary fixed the names, exactly as footnote 5 of the paper requires.
    ///
    /// # Errors
    ///
    /// [`NamingError::DuplicateName`] if a name repeats, [`NamingError::Empty`]
    /// if `names` is empty.
    pub fn new(names: &[u64], seed: u64) -> Result<Self, NamingError> {
        if names.is_empty() {
            return Err(NamingError::Empty);
        }
        let n = names.len();
        // Derive (a, b) from the seed with a splitmix step; a must be nonzero.
        let mut s = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut next = || {
            s ^= s >> 30;
            s = s.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            s ^= s >> 27;
            s = s.wrapping_mul(0x94d0_49bb_1331_11eb);
            s ^= s >> 31;
            s
        };
        let a = (next() % (PRIME as u64 - 1)) + 1;
        let b = next() % PRIME as u64;

        let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut slot_of = HashMap::with_capacity(n);
        for &x in names {
            let slot = Self::hash(a, b, n, x);
            if slot_of.insert(x, slot).is_some() {
                return Err(NamingError::DuplicateName(x));
            }
            buckets[slot as usize].push(x);
        }
        for bucket in &mut buckets {
            bucket.sort_unstable();
        }
        Ok(NameRegistry { n, a, b, buckets, slot_of })
    }

    fn hash(a: u64, b: u64, n: usize, x: u64) -> u32 {
        let v = (a as u128 * x as u128 + b as u128) % PRIME;
        (v % n as u128) as u32
    }

    /// Number of slots (`n`).
    pub fn slot_count(&self) -> usize {
        self.n
    }

    /// The dictionary slot of an original name, if it was registered.
    pub fn slot(&self, original: u64) -> Option<NodeName> {
        self.slot_of.get(&original).map(|&s| NodeName(s))
    }

    /// The slot any 64-bit name hashes to under this registry's hash function,
    /// whether or not it was registered — what a node computes locally before
    /// consulting the dictionary holder responsible for that slot.
    pub fn hash_slot(&self, x: u64) -> NodeName {
        NodeName(Self::hash(self.a, self.b, self.n, x))
    }

    /// The original names sharing `slot`.
    pub fn bucket(&self, slot: NodeName) -> &[u64] {
        &self.buckets[slot.index()]
    }

    /// Number of slots holding at least two names.
    pub fn collision_slots(&self) -> usize {
        self.buckets.iter().filter(|b| b.len() >= 2).count()
    }

    /// Number of names beyond the first in each slot, summed — the extra
    /// dictionary entries the reduction costs.
    pub fn excess_entries(&self) -> usize {
        self.buckets.iter().map(|b| b.len().saturating_sub(1)).sum()
    }

    /// The largest bucket (the worst-case per-slot blow-up).
    pub fn max_bucket_size(&self) -> usize {
        self.buckets.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The table blow-up factor the reduction induces: total stored entries
    /// divided by `n` (the paper argues this is `O(1)`; measured in E11).
    pub fn blowup(&self) -> f64 {
        let total: usize = self.buckets.iter().map(Vec::len).sum();
        total as f64 / self.n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_names(count: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut set = std::collections::HashSet::new();
        while set.len() < count {
            set.insert(rng.gen::<u64>() >> 3);
        }
        set.into_iter().collect()
    }

    #[test]
    fn every_name_gets_a_slot_below_n() {
        let names = random_names(500, 1);
        let reg = NameRegistry::new(&names, 7).unwrap();
        for &x in &names {
            let slot = reg.slot(x).unwrap();
            assert!(slot.index() < 500);
            assert!(reg.bucket(slot).contains(&x));
            assert_eq!(reg.hash_slot(x), slot);
        }
        assert_eq!(reg.slot(123456789), None);
        assert!(reg.hash_slot(123456789).index() < 500);
    }

    #[test]
    fn total_entries_equal_n() {
        let names = random_names(300, 2);
        let reg = NameRegistry::new(&names, 3);
        let reg = reg.unwrap();
        let total: usize = (0..300).map(|s| reg.bucket(NodeName(s as u32)).len()).sum();
        assert_eq!(total, 300);
        assert!((reg.blowup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn collisions_are_modest() {
        // Balls-into-bins: the max bucket is O(log n / log log n) w.h.p.; with
        // a fixed seed we assert a comfortable constant.
        let names = random_names(2000, 4);
        let reg = NameRegistry::new(&names, 11).unwrap();
        assert!(reg.max_bucket_size() <= 10, "max bucket {}", reg.max_bucket_size());
        assert!(reg.excess_entries() < 2000);
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = NameRegistry::new(&[5, 6, 5], 0).unwrap_err();
        assert_eq!(err, NamingError::DuplicateName(5));
        assert_eq!(NameRegistry::new(&[], 0).unwrap_err(), NamingError::Empty);
    }

    #[test]
    fn deterministic_given_seed_and_sensitive_to_seed() {
        let names = random_names(100, 9);
        let a = NameRegistry::new(&names, 42).unwrap();
        let b = NameRegistry::new(&names, 42).unwrap();
        for &x in &names {
            assert_eq!(a.slot(x), b.slot(x));
        }
        let c = NameRegistry::new(&names, 43).unwrap();
        let same = names.iter().all(|&x| a.slot(x) == c.slot(x));
        assert!(!same, "different hash seeds should permute slots");
    }

    #[test]
    fn adversarial_consecutive_names_still_spread() {
        // An adversary who names nodes 0..n consecutively gains nothing: the
        // hash family is chosen after the names are fixed.
        let names: Vec<u64> = (0..1000u64).collect();
        let reg = NameRegistry::new(&names, 5).unwrap();
        assert!(reg.max_bucket_size() <= 10);
    }
}
