//! # rtr-trees — shortest-path trees, double trees, and compact tree routing
//!
//! The building blocks shared by every routing scheme in the reproduction:
//!
//! * [`OutTree`] — a shortest-paths tree rooted at a center `v`, spanning a
//!   cluster (paper §3.2: `OutTree(C)`), storing for each member its parent
//!   and the fixed port its parent uses to reach it.
//! * [`InTree`] — shortest paths *from every member to* the root
//!   (`InTree(C)`), storing for each member the out-port of its first edge
//!   toward the root.
//! * [`DoubleTree`] — the union of the two (`DoubleTree(C)`), with
//!   `RTHeight(T)` = max roundtrip distance from the root to any member.
//! * [`routing::TreeRouter`] — the compact **fixed-port tree-routing scheme**
//!   of Lemma 14 (Thorup–Zwick / Fraigniaud–Gavoille): route from the root of
//!   an out-tree to any member along the optimal tree path with `O(1)` words
//!   stored per node and `O(log² n)`-bit addresses, via heavy-path
//!   decomposition and DFS intervals.
//!
//! Together, an `InTree` (next hops toward the root) plus a `TreeRouter` on
//! the `OutTree` (root to destination) give the "route within a double-tree
//! through its center" primitive that §4's `PolynomialStretch` and the
//! name-dependent substrates rely on.
//!
//! In the end-to-end pipeline (see the architecture diagram in the top-level
//! `README.md`) this crate is a mid-pipeline substrate: its trees carry the
//! covers, dictionaries and schemes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod routing;
mod sptree;

pub use routing::{HeavyPathLayout, TreeLabel, TreeNodeTable, TreeRouter, TreeStep};
pub use sptree::{DoubleTree, InTree, OutTree};
