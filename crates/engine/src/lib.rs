//! # rtr-engine — the sharded, multi-threaded route-serving plane
//!
//! The paper's schemes are built once and then answer an unbounded stream of
//! roundtrip requests.  The sequential [`rtr_sim::Simulator`] drives one
//! packet at a time; this crate is the layer that turns a built scheme into a
//! **serving plane** under concurrent, skewed, high-volume load:
//!
//! * [`FrozenPlane`] — a read-only snapshot of a built
//!   [`rtr_sim::RoundtripRouting`] scheme, its graph and the TINN naming,
//!   behind `Arc`s: shareable across worker threads (and clonable into
//!   shards) without locks, because forwarding is `&self` end to end.
//! * [`Workload`] — composable, seeded request generators: uniform pairs,
//!   Zipf-skewed destinations, all-to-one hotspots, bidirectional shuffles
//!   and a deterministic mix, all built on the in-tree `rand` shim so runs
//!   reproduce bit for bit.
//! * [`Engine`] — the serving core: one shard-owning worker pool behind four
//!   entry points ([`Engine::serve_sharded`],
//!   [`Engine::serve_verified_sharded`], [`Engine::serve_epoch_sharded`],
//!   [`Engine::open_stream`]), every one a session of the same
//!   [`VerifiedStream`] with one per-request body and one post-join merge.
//!   Workers serve through the allocation-free
//!   [`rtr_sim::Simulator::roundtrip_brief`] path and accumulate statistics
//!   per shard; the only shared atomic on the hot path is the chunk counter.
//!   A batch no larger than [`EngineConfig::chunk_size`] is served on the
//!   calling thread, a larger one on the pool.
//! * [`ShardMap`] / [`ShardedPlane`] — the **sharded plane**: destinations
//!   partition into worker-owned shards (seeded-hash or contiguous-range
//!   [`ShardPolicy`]), each worker serves only the shards it owns, and
//!   cross-shard requests travel through bounded handoff channels with
//!   backpressure instead of being served wherever they were pulled.
//!   Per-shard query counts are deterministic; the merged summary is
//!   identical for any shard × worker count.
//! * [`VerifyMode`] / [`Engine::serve_verified_sharded`] — the
//!   **verification plane**: off / sampled / full-stream checking of every
//!   served trip against a [`rtr_metric::DistanceOracle`].  Checked trips
//!   buffer in bounded per-shard destination buckets, and every bucket
//!   flushes through one shared roundtrip row, so verification pays two
//!   Dijkstras per *distinct destination* per flush window instead of two
//!   per query; since no destination row is ever fetched by two workers,
//!   total verify rows stay `≤ 2 · distinct(destinations)` regardless of
//!   worker count.  The [`VerifiedReport`] (exact fixed-point stretch
//!   histogram, worst trip, bound violations) is bit-identical for any
//!   shard × worker count and hard-fails —
//!   [`VerifyServeError::BoundExceeded`] — when a trip exceeds the scheme's
//!   proven stretch ceiling.
//! * [`Engine::serve_epoch_sharded`] / [`chaos_report`] — the **chaos
//!   plane**: tolerant verified serving through a fault window (routing
//!   failures are recorded per pair instead of aborting the pool) and the
//!   per-epoch breakdown — pre-fault / degraded / post-repair — attached to
//!   the merged [`VerifiedReport`] as [`VerifiedReport::epochs`], listing
//!   exactly which pairs exceeded the proven ceiling and which ones repair
//!   restored.
//! * [`Engine::open_stream`] / [`VerifiedStream`] — the **streaming request
//!   source**: the same verified sharded serving fed batch by batch, for
//!   callers (the `rtr-serve` TCP front door) that receive requests over
//!   time.  However the stream is split, the final report is bit-identical
//!   to one [`Engine::serve_verified_sharded`] call over the whole stream.
//!
//! The engine is **observationally identical** to the sequential simulator:
//! a session's per-request replies carry exactly the hops and weight a
//! sequential [`rtr_sim::Simulator::roundtrip`] loop measures, in request
//! order, for any worker count on either side of the calling-thread / pool
//! split — and every verified serve reproduces the sequential
//! oracle-checked replay [`verify_sequential`] bit for bit — properties the
//! test-suite enforces per scheme, workload, shard count, and oracle
//! flavor.
//!
//! ```
//! use rtr_engine::{
//!     Engine, EngineConfig, FrozenPlane, ShardMap, ShardedPlane, StretchBound, VerifyConfig,
//!     Workload,
//! };
//! use rtr_core::naming::NamingAssignment;
//! use rtr_core::{Stretch6Params, StretchSix};
//! use rtr_graph::generators::strongly_connected_gnp;
//! use rtr_metric::DistanceMatrix;
//! use rtr_namedep::ExactOracleScheme;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = Arc::new(strongly_connected_gnp(48, 0.1, 7)?);
//! let m = DistanceMatrix::build(&g);
//! let names = NamingAssignment::random(g.node_count(), 1);
//! let scheme =
//!     StretchSix::build(&g, &m, &names, ExactOracleScheme::build(&g), Stretch6Params::default());
//! let plane = FrozenPlane::freeze(Arc::clone(&g), scheme, Arc::new(names.to_names()));
//!
//! // Full-stream verification: every query checked against the exact
//! // metric, hard-failing if any trip exceeded the proven stretch 6.
//! let requests = Workload::Zipf { exponent: 1.2 }.generate(g.node_count(), 4_000, 9);
//! let engine = Engine::new(EngineConfig::with_workers(4));
//! let config = VerifyConfig::full().with_bound(StretchBound::at_most(6));
//! let single = ShardedPlane::new(plane.clone(), ShardMap::single(g.node_count()));
//! let verified = engine.serve_verified_sharded(&single, &requests, &m, &config)?;
//! assert_eq!(verified.report.checked, 4_000);
//! assert!(verified.report.is_clean());
//! assert!(verified.report.max_stretch() <= 6.0 + 1e-9); // the §2 scheme's hard bound
//!
//! // The same stream over a 3-shard plane: bit-identical report, per-shard
//! // buckets, cross-shard requests over bounded handoff channels.
//! let sharded = ShardedPlane::new(plane, ShardMap::hashed(g.node_count(), 3, 42));
//! let outcome = engine.serve_verified_sharded(&sharded, &requests, &m, &config)?;
//! assert_eq!(outcome.report, verified.report);
//! assert_eq!(outcome.shards.iter().map(|s| s.queries).sum::<u64>(), 4_000);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chaos;
mod engine;
mod plane;
mod shard;
mod stats;
mod stream;
mod verify;
mod workload;

pub use chaos::{chaos_report, EpochKind, EpochReport, FailedPair};
pub use engine::{Engine, EngineConfig};
pub use plane::FrozenPlane;
pub use shard::{ShardMap, ShardPolicy, ShardServeStats, ShardedPlane};
pub use stats::ServeSummary;
pub use stream::{ServedTrip, VerifiedShardedServe, VerifiedStream};
pub use verify::{
    verify_sequential, StretchBound, StretchHistogram, VerifiedReport, VerifiedTrip, VerifyConfig,
    VerifyCost, VerifyMode, VerifyServeError, STRETCH_HISTOGRAM_SCALE,
};
pub use workload::{Request, Workload};
