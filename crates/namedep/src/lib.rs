//! # rtr-namedep — name-dependent roundtrip routing substrates
//!
//! The TINN schemes of the paper are built *on top of* a name-dependent
//! (topology-dependent) compact roundtrip routing scheme: the stretch-6 scheme
//! uses the `R3(v)` labels and tables of a stretch-3 scheme (Lemma 2,
//! Roditty–Thorup–Zwick), and the tradeoff schemes use the `R2(u, v)`
//! handshake labels of the `(2k+ε)`-roundtrip tree cover (Lemma 5).
//!
//! This crate provides three interchangeable substrates behind one trait,
//! [`NameDependentSubstrate`]:
//!
//! * [`ExactOracleScheme`] — per-node next-hop tables toward *every*
//!   destination (Θ(n) entries per node). Routes are exact shortest paths, so
//!   the substrate satisfies Lemma 2's inequality `p(u,v) ≤ r(u,v) + d(u,v)`
//!   with room to spare. It is **not compact**; its role is to isolate the
//!   TINN layer so the paper's stretch bounds can be asserted as hard
//!   inequalities in tests.
//! * [`LandmarkBallScheme`] — the compact Õ(√n) substrate in the spirit of
//!   Cowen–Wagner / RTZ: a random landmark set with full in/out trees per
//!   landmark, plus per-node roundtrip balls with direct next hops. It
//!   stands in for Lemma 2's Roditty–Thorup–Zwick scheme; delivery is always
//!   guaranteed, but its roundtrip stretch (≈3) is measured, not proven
//!   (experiment E9, the `namedep_substrate` binary; ROADMAP item 1 tracks
//!   the proof).
//! * [`TreeCoverScheme`] — the hierarchical double-tree-cover substrate built
//!   on [`rtr_cover::DoubleTreeCover`] (Theorem 13), providing the pairwise
//!   handshake labels used by `ExStretch` and `PolynomialStretch`, with a
//!   provable roundtrip bound of `4(2k_c−1)` per pair.
//!
//! All substrates obey the fixed-port, local-tables-only discipline: their
//! [`step`](NameDependentSubstrate::step) functions read only the current
//! node's table and the (writable) label.
//!
//! In the end-to-end pipeline (see the architecture diagram in the top-level
//! `README.md`) this crate is the substrate layer directly under the
//! `rtr-core` schemes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod landmark;
mod oracle;
mod substrate;
mod treecover;

pub use landmark::{ColumnsComputed, LandmarkBallScheme, LandmarkParams, LandmarkSweep};
pub use oracle::ExactOracleScheme;
pub use substrate::{LabelBits, NameDependentSubstrate};
pub use treecover::TreeCoverScheme;
