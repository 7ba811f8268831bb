//! # rtr-serve — the TCP front door over the verified serving engine
//!
//! A hand-rolled, zero-dependency, length-prefixed TCP server over
//! `std::net` — the same registry-less idiom as the workspace's hand-rolled
//! JSON — that puts the sharded, verified serving plane behind a socket:
//!
//! * **`ROUTE` / `BATCH`** — route queries, each frame served on its own
//!   connection thread as one [`VerifiedStream::serve_batch`] call under
//!   the lock of one session ([`Engine::open_stream`]), so the final
//!   [`VerifiedReport`](rtr_engine::VerifiedReport) is **bit-identical**
//!   to one in-process [`Engine::serve_verified_sharded`] call over the
//!   same stream.  A verify oracle caching at least
//!   2·distinct(destinations) rows keeps that call's row economy whatever
//!   the network arrival order.
//! * **`HEALTH`** — liveness plus vitals (nodes, shards, in-flight, served,
//!   rejected).
//! * **`METRICS`** — the telemetry registry as `Registry::to_json()`,
//!   verbatim, so `check_telemetry` can gate a network capture exactly like
//!   an in-process one.
//! * **`REPORT`** — the session's verified report so far, in a strict
//!   binary encoding.
//!
//! Admission control is a bounded in-flight budget
//! ([`ServeConfig::inflight_max`]): frames that would exceed it get
//! explicit [`Status::Overloaded`] rejections, counted in the registry
//! (`serve.net.rejected.overload`).  Per-endpoint latency lands in
//! `DurationHistogram` buckets (`serve.net.route_ns` …
//! `serve.net.report_ns`).
//!
//! The wire format — framing, version byte, opcodes, status codes, record
//! layouts, worked byte-level examples — is specified normatively in
//! **`docs/PROTOCOL.md`**; the [`protocol`] module is its executable
//! mirror, and the codec is property-tested (round-trip identity, strict
//! prefix rejection, random-byte fuzz) against the in-tree proptest shim.
//!
//! Start a server with [`serve`], speak to it with [`Client`]; the
//! [`Client`] doc example runs the full loopback round trip.
//!
//! [`Engine::open_stream`]: rtr_engine::Engine::open_stream
//! [`Engine::serve_verified_sharded`]: rtr_engine::Engine::serve_verified_sharded
//! [`VerifiedStream::serve_batch`]: rtr_engine::VerifiedStream::serve_batch

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod client;
pub mod protocol;
mod server;

pub use client::{Client, ClientError};
pub use protocol::{
    HealthInfo, Opcode, ServedRoute, Status, WireError, WireRequest, WireResponse, MAX_FRAME_LEN,
    VERSION,
};
pub use server::{serve, serve_with_status, ServeConfig, ServeOutcome};
