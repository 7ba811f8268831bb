//! # rtr-sim — the distributed packet-forwarding simulator
//!
//! The routing schemes of the paper are *distributed algorithms*: a node may
//! consult only (a) its own local routing table and (b) the writable header of
//! the packet in hand, and must answer with an outgoing **port** (fixed-port
//! model, §1.1.1/§1.1.3). This crate provides the runtime that enforces that
//! discipline and does the accounting the experiments report:
//!
//! * [`RoundtripRouting`] — the trait every scheme implements: build-time
//!   tables, a purely local forwarding function, and size accounting;
//! * [`Simulator`] — drives packets hop by hop, resolving ports against the
//!   graph, enforcing a TTL, and checking delivery; its one entry point,
//!   [`Simulator::roundtrip_brief`], serves every query, experiment and
//!   verification replay;
//! * [`BriefRoundtrip`] — the outbound + return [`BriefTrace`] of one
//!   `(s, t)` request (hops, weight, maximum header bits seen, delivery
//!   node), with exact integer stretch accounting against `r(s, t)`.  No
//!   node sequence is recorded, so a trip allocates nothing.
//!
//! The simulator never looks inside a scheme's header and never gives a
//! scheme global information at forwarding time — schemes receive only the
//! current node id (which stands for "the node whose table is being
//! consulted") and the header.
//!
//! In the end-to-end pipeline (see the architecture diagram in the top-level
//! `README.md`) this crate is the runtime the serving engine (`rtr-engine`)
//! drives on every query.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod report;
mod runtime;
mod traits;

pub use report::{BriefRoundtrip, BriefTrace};
pub use runtime::{SimError, Simulator};
pub use traits::{id_bits, ForwardAction, HeaderBits, RoundtripRouting, RoutingError, TableStats};
