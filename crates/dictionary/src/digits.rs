//! Names, base-`n^{1/k}` digit strings, prefixes `σ^i` and blocks `B_α` (§3.1).

use std::fmt;
use std::ops::Range;

/// A topology-independent node name: an element of `{0, …, n−1}` assigned to a
/// node by an adversarial permutation (paper §1.1.2).
///
/// Deliberately distinct from `rtr_graph::NodeId` (the topological index used
/// by graph algorithms): routing-scheme code that only has a `NodeName` cannot
/// accidentally use it as topology information.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeName(pub u32);

impl NodeName {
    /// The raw name value.
    #[inline]
    pub fn value(self) -> u32 {
        self.0
    }

    /// The name as a `usize` index into `{0, …, n−1}`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "name{}", self.0)
    }
}

/// Identifier of a block `B_α`, `α ∈ Σ^{k−1}`: the integer whose base-`q`
/// representation is `α`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The raw block index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// The address space `{0, …, n−1}` viewed as length-`k` strings over the
/// alphabet `Σ = {0, …, q−1}` with `q = ⌈n^{1/k}⌉` (§3.1, §4.1).
///
/// The paper assumes `n` is a perfect `k`-th power "for simplicity"; this
/// implementation handles arbitrary `n` by rounding the alphabet size up, so
/// some blocks near the top of the space may contain fewer than `q` names (or
/// none). All consumers tolerate partially filled blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressSpace {
    n: u32,
    k: u32,
    q: u32,
}

impl AddressSpace {
    /// Creates the address space for `n` names split into `k` digits.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `k == 0`.
    pub fn new(n: usize, k: u32) -> Self {
        assert!(n > 0, "address space must be non-empty");
        assert!(k > 0, "need at least one digit");
        let q = Self::alphabet_size(n, k);
        AddressSpace { n: n as u32, k, q }
    }

    /// `⌈n^{1/k}⌉`, the alphabet size `|Σ|`.
    pub fn alphabet_size(n: usize, k: u32) -> u32 {
        if k == 1 {
            return n as u32;
        }
        let mut q = (n as f64).powf(1.0 / k as f64).floor() as u64;
        // Floating point can undershoot; fix up so q^k >= n > (q-1)^k.
        while q.checked_pow(k).is_none_or(|p| p < n as u64) {
            q += 1;
        }
        while q > 1 && (q - 1).checked_pow(k).is_some_and(|p| p >= n as u64) {
            q -= 1;
        }
        q as u32
    }

    /// Number of names `n`.
    pub fn name_count(&self) -> usize {
        self.n as usize
    }

    /// Number of digits `k`.
    pub fn digit_count(&self) -> u32 {
        self.k
    }

    /// Alphabet size `q = |Σ|`.
    pub fn q(&self) -> u32 {
        self.q
    }

    /// Number of blocks `q^{k−1}` (each block groups the names sharing their
    /// first `k−1` digits).
    pub fn block_count(&self) -> usize {
        (self.q as u64).pow(self.k - 1) as usize
    }

    /// Maximum number of names per block (`q`).
    pub fn block_capacity(&self) -> usize {
        self.q as usize
    }

    /// `⟨u⟩`: the base-`q` representation of `u`, most significant digit
    /// first, padded with leading zeros to exactly `k` digits.
    ///
    /// # Panics
    ///
    /// Panics if `u` is outside the address space.
    pub fn digits(&self, u: NodeName) -> Vec<u32> {
        assert!(u.0 < self.n, "name {u} outside address space of size {}", self.n);
        let mut out = vec![0u32; self.k as usize];
        let mut rest = u.0;
        for slot in out.iter_mut().rev() {
            *slot = rest % self.q;
            rest /= self.q;
        }
        out
    }

    /// The inverse of [`digits`](Self::digits); returns `None` if the digit
    /// string encodes a value `≥ n` (a hole in a partially filled block).
    pub fn from_digits(&self, digits: &[u32]) -> Option<NodeName> {
        assert_eq!(digits.len(), self.k as usize, "wrong number of digits");
        let mut value: u64 = 0;
        for &d in digits {
            assert!(d < self.q, "digit out of alphabet");
            value = value * self.q as u64 + d as u64;
        }
        if value < self.n as u64 {
            Some(NodeName(value as u32))
        } else {
            None
        }
    }

    /// `q^e` as a `u64`.
    fn power(&self, e: u32) -> u64 {
        (self.q as u64).pow(e)
    }

    /// `σ^len(⟨u⟩)` as an integer code: the value of `u`'s first `len`
    /// digits read in base `q`, which is `⌊u / q^{k−len}⌋`.
    ///
    /// # Panics
    ///
    /// Panics if `len > k` or `u` is outside the address space.
    pub fn prefix_code(&self, u: NodeName, len: u32) -> u32 {
        assert!(len <= self.k, "prefix longer than the digit string");
        assert!(u.0 < self.n, "name {u} outside address space of size {}", self.n);
        (u.0 as u64 / self.power(self.k - len)) as u32
    }

    /// The length of the longest common prefix of `⟨a⟩` and `⟨b⟩`.
    pub fn common_prefix_len(&self, a: NodeName, b: NodeName) -> u32 {
        assert!(a.0 < self.n && b.0 < self.n, "name outside address space of size {}", self.n);
        // Strip trailing digits until the remaining prefixes agree; both
        // names are below `q^k`, so at most `k` digits are stripped.
        let (mut x, mut y, mut stripped) = (a.0, b.0, 0);
        while x != y {
            x /= self.q;
            y /= self.q;
            stripped += 1;
        }
        self.k - stripped
    }

    /// The block `B_α` containing `u`: `α = σ^{k−1}(⟨u⟩)`.
    pub fn block_of(&self, u: NodeName) -> BlockId {
        BlockId(self.prefix_code(u, self.k - 1))
    }

    /// `σ^len(B_α)` as an integer code: the value of the block's first `len`
    /// digits, which is `⌊α / q^{k−1−len}⌋` (requires `len ≤ k−1`).
    ///
    /// # Panics
    ///
    /// Panics if `len ≥ k` or `block` is outside the space.
    pub fn block_prefix_code(&self, block: BlockId, len: u32) -> u32 {
        assert!(len < self.k, "block prefixes have length at most k-1");
        assert!((block.0 as u64) < self.power(self.k - 1), "block out of range");
        (block.0 as u64 / self.power(self.k - 1 - len)) as u32
    }

    /// The blocks whose first `len` digits have the value `code`. Blocks that
    /// share a prefix are numbered consecutively, so they form the range
    /// `code·q^{k−1−len} .. (code+1)·q^{k−1−len}`.
    ///
    /// # Panics
    ///
    /// Panics if `len ≥ k` or `code ≥ q^len`.
    pub fn blocks_with_prefix_code(&self, len: u32, code: u32) -> Range<u32> {
        assert!(len < self.k, "block prefixes have length at most k-1");
        assert!((code as u64) < self.power(len), "prefix code out of range");
        let span = self.power(self.k - 1 - len);
        (code as u64 * span) as u32..((code as u64 + 1) * span) as u32
    }

    /// All existing names in `block` (at most `q`; fewer in the last block of
    /// a non-perfect-power space).
    pub fn block_members(&self, block: BlockId) -> Vec<NodeName> {
        let base: u64 = block.0 as u64 * self.q as u64;
        (0..self.q as u64)
            .map(|off| base + off)
            .filter(|&v| v < self.n as u64)
            .map(|v| NodeName(v as u32))
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The value of a digit string read in base `q`.
    fn base_q_value(digits: &[u32], q: u32) -> u32 {
        digits.iter().fold(0, |acc, &d| acc * q + d)
    }

    /// The `len` base-`q` digits of `x`, most significant first.
    pub(crate) fn base_q_digits(x: u32, len: u32, q: u32) -> Vec<u32> {
        let mut out = vec![0; len as usize];
        let mut rest = x;
        for slot in out.iter_mut().rev() {
            *slot = rest % q;
            rest /= q;
        }
        out
    }

    #[test]
    fn alphabet_size_is_minimal() {
        assert_eq!(AddressSpace::alphabet_size(16, 2), 4);
        assert_eq!(AddressSpace::alphabet_size(16, 4), 2);
        assert_eq!(AddressSpace::alphabet_size(17, 2), 5);
        assert_eq!(AddressSpace::alphabet_size(1000, 3), 10);
        assert_eq!(AddressSpace::alphabet_size(1, 3), 1);
        assert_eq!(AddressSpace::alphabet_size(7, 1), 7);
    }

    #[test]
    fn digits_roundtrip_for_perfect_square() {
        let space = AddressSpace::new(16, 2);
        assert_eq!(space.q(), 4);
        for v in 0..16u32 {
            let name = NodeName(v);
            let d = space.digits(name);
            assert_eq!(d.len(), 2);
            assert_eq!(space.from_digits(&d), Some(name));
        }
        assert_eq!(space.digits(NodeName(7)), vec![1, 3]);
    }

    #[test]
    fn block_of_groups_consecutive_names() {
        let space = AddressSpace::new(16, 2);
        assert_eq!(space.block_count(), 4);
        for v in 0..16u32 {
            assert_eq!(space.block_of(NodeName(v)).0, v / 4);
        }
        assert_eq!(
            space.block_members(BlockId(2)),
            vec![NodeName(8), NodeName(9), NodeName(10), NodeName(11)]
        );
    }

    #[test]
    fn partial_blocks_in_non_perfect_space() {
        let space = AddressSpace::new(10, 2);
        assert_eq!(space.q(), 4);
        assert_eq!(space.block_count(), 4);
        // Block 2 holds names 8, 9 only; block 3 is empty.
        assert_eq!(space.block_members(BlockId(2)), vec![NodeName(8), NodeName(9)]);
        assert!(space.block_members(BlockId(3)).is_empty());
    }

    #[test]
    fn prefixes_and_common_prefix() {
        let space = AddressSpace::new(27, 3);
        assert_eq!(space.q(), 3);
        let a = NodeName(14); // digits 1,1,2
        let b = NodeName(13); // digits 1,1,1
        assert_eq!(space.digits(a), vec![1, 1, 2]);
        assert_eq!(space.prefix_code(a, 2), 4); // digits 1,1
        assert_eq!(space.common_prefix_len(a, b), 2);
        assert_eq!(space.common_prefix_len(a, a), 3);
        assert_eq!(space.common_prefix_len(a, NodeName(0)), 0);
    }

    #[test]
    fn block_prefix_relation_matches_member_prefixes() {
        // σ^{k−1}(B_α) = σ^{k−1}(⟨u⟩) iff u ∈ B_α (§3.1), and so are all
        // shorter prefixes.
        let space = AddressSpace::new(64, 3);
        for v in 0..64u32 {
            let name = NodeName(v);
            let block = space.block_of(name);
            assert_eq!(block.0, space.prefix_code(name, 2));
            for len in 0..3 {
                assert_eq!(space.block_prefix_code(block, len), space.prefix_code(name, len));
            }
            assert!(space.block_members(block).contains(&name));
        }
    }

    #[test]
    fn blocks_with_prefix_partition() {
        let space = AddressSpace::new(81, 4);
        assert_eq!(space.q(), 3);
        // The nine length-2 ranges tile the blocks in order.
        let mut next = 0;
        for code in 0..9 {
            let range = space.blocks_with_prefix_code(2, code);
            assert_eq!(range.start, next);
            next = range.end;
        }
        assert_eq!(next as usize, space.block_count());
    }

    #[test]
    fn prefixes_of_len_zero_is_the_empty_prefix() {
        let space = AddressSpace::new(9, 2);
        for v in 0..9 {
            assert_eq!(space.prefix_code(NodeName(v), 0), 0);
        }
        assert_eq!(space.blocks_with_prefix_code(0, 0), 0..space.block_count() as u32);
    }

    #[test]
    #[should_panic(expected = "outside address space")]
    fn digits_reject_out_of_range_names() {
        AddressSpace::new(10, 2).digits(NodeName(10));
    }

    proptest! {
        #[test]
        fn digits_always_roundtrip(n in 2usize..5000, k in 2u32..6, v in 0u32..5000) {
            let space = AddressSpace::new(n, k);
            prop_assume!((v as usize) < n);
            let name = NodeName(v);
            let d = space.digits(name);
            prop_assert_eq!(d.len(), k as usize);
            prop_assert_eq!(space.from_digits(&d), Some(name));
        }

        #[test]
        fn alphabet_size_covers_space(n in 1usize..100_000, k in 1u32..7) {
            let q = AddressSpace::alphabet_size(n, k) as u64;
            prop_assert!(q.pow(k) >= n as u64);
            if q > 1 {
                prop_assert!((q - 1).pow(k) < n as u64);
            }
        }

        #[test]
        fn integer_codes_match_the_digit_strings(
            n in 2usize..5000,
            k in 2u32..6,
            vw in 0u32..25_000_000,
        ) {
            let space = AddressSpace::new(n, k);
            let q = space.q();
            let (v, w) = (NodeName(vw % 5000 % n as u32), NodeName(vw / 5000 % n as u32));
            let (dv, dw) = (space.digits(v), space.digits(w));
            for len in 0..=k {
                prop_assert_eq!(space.prefix_code(v, len), base_q_value(&dv[..len as usize], q));
            }
            prop_assert_eq!(space.block_of(v).0, space.prefix_code(v, k - 1));
            let common = dv.iter().zip(&dw).take_while(|(x, y)| x == y).count() as u32;
            prop_assert_eq!(space.common_prefix_len(v, w), common);
            for b in (0..space.block_count() as u32).map(BlockId) {
                let db = base_q_digits(b.0, k - 1, q);
                for len in 0..k {
                    let code = space.block_prefix_code(b, len);
                    prop_assert_eq!(code, base_q_value(&db[..len as usize], q));
                    // Membership in a code's range is exactly "has that code".
                    for c in [code, (code + 1) % q.pow(len)] {
                        prop_assert_eq!(
                            space.blocks_with_prefix_code(len, c).contains(&b.0),
                            c == code
                        );
                    }
                }
            }
        }

        #[test]
        fn block_membership_is_consistent(n in 4usize..3000, k in 2u32..5, v in 0u32..3000) {
            let space = AddressSpace::new(n, k);
            prop_assume!((v as usize) < n);
            let name = NodeName(v);
            let b = space.block_of(name);
            prop_assert!(b.index() < space.block_count());
            prop_assert!(space.block_members(b).contains(&name));
            prop_assert!(space.block_members(b).len() <= space.block_capacity());
        }
    }
}
