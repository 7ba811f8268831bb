//! The server: an accept loop and one thread per connection, every
//! connection serving its own frames on one shared [`VerifiedStream`]
//! session.
//!
//! A connection thread decodes and admits each frame itself.  For an
//! admitted `ROUTE` or `BATCH` frame it locks the session, makes one
//! [`VerifiedStream::serve_batch`] call for the frame's queries, unlocks,
//! releases the frame's in-flight slots and writes the reply, so no frame
//! crosses a thread.  The session assigns stream indices in the order it
//! serves frames and buckets each batch into the engine's per-shard
//! destination buckets, so the final report is bit-identical to serving the
//! same stream in one in-process `serve_verified_sharded` call.  A verify
//! oracle that caches at least `2 · distinct(destinations)` rows keeps the
//! row economy of that call too: a later frame's flush finds its rows
//! cached.
//!
//! Admission control is a bounded in-flight budget: a route or batch frame
//! whose queries would push the budget past
//! [`ServeConfig::inflight_max`] is rejected with
//! [`Status::Overloaded`](crate::Status::Overloaded) before it reaches the
//! session, and the rejection is counted (`serve.net.rejected.overload`).

use crate::protocol::{
    decode_request, encode_response, write_frame, HealthInfo, ServedRoute, Status, WireError,
    WireRequest, WireResponse, MAX_FRAME_LEN,
};
use rtr_engine::{
    Engine, Request, ShardedPlane, VerifiedShardedServe, VerifiedStream, VerifyConfig,
};
use rtr_graph::NodeId;
use rtr_metric::DistanceOracle;
use rtr_sim::RoundtripRouting;
use rtr_telemetry::{counter, gauge, histogram, Counter, DurationHistogram, Gauge};
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Tuning knobs for [`serve`].  `Default` matches the values the loopback
/// bench and CI smoke use, documented in `docs/OPERATIONS.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Admission budget: route queries admitted but not yet answered.  A
    /// frame that would push past this is rejected with `Overloaded`.
    pub inflight_max: usize,
    /// Most `(src, dst)` pairs a single `BATCH` frame may carry; larger
    /// frames are rejected with `TooLarge`.
    pub max_batch_frame: usize,
    /// Byte ceiling on incoming frame payloads; a longer length prefix gets
    /// a `TooLarge` response and the connection is closed.
    pub max_frame_len: u32,
    /// Socket read timeout — the granularity at which connection threads
    /// notice the shutdown flag.
    pub read_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            inflight_max: 16_384,
            max_batch_frame: 4096,
            max_frame_len: MAX_FRAME_LEN,
            read_timeout: Duration::from_millis(25),
        }
    }
}

/// What a [`serve`] call hands back once the listener stops: the finished
/// verified session plus the connection-plane tallies (mirrors of the
/// `serve.net.*` telemetry, but scoped to this call so parallel tests don't
/// see each other's counts).
#[derive(Debug)]
pub struct ServeOutcome {
    /// The completed session: summary, bit-exact verified report, verify
    /// cost and per-shard stats — exactly what
    /// [`Engine::serve_verified_sharded`] returns for the same stream.
    pub verified: VerifiedShardedServe,
    /// Connections accepted.
    pub connections: u64,
    /// Frames that arrived (well-formed or not).
    pub frames: u64,
    /// Route queries served.
    pub served: u64,
    /// Route queries rejected by admission control.
    pub rejected: u64,
}

/// Counters and the shutdown flag shared by every thread of one `serve`
/// call.
struct Shared<'a> {
    shutdown: &'a AtomicBool,
    degraded: &'a AtomicBool,
    in_flight: AtomicU64,
    served: AtomicU64,
    rejected: AtomicU64,
    connections: AtomicU64,
    frames: AtomicU64,
    nodes: u32,
    shards: u32,
    config: ServeConfig,
}

/// Runs the front door on `listener` until `shutdown` becomes `true`
/// (either externally or via a `SHUTDOWN` frame), then returns the finished
/// session.
///
/// The passed `verify` config is used with `strict` forced **off** for the
/// session so a stretch-bound violation can never abort a live server;
/// violations stay visible in the report, and callers re-check the bound on
/// the returned [`ServeOutcome::verified`] report if they want hard
/// enforcement.
///
/// See [`crate::Client`] for the matching doctest that drives a full
/// loopback round trip.
///
/// # Errors
///
/// Only listener-level I/O errors (`set_nonblocking`, fatal `accept`
/// failures) surface as `Err`; per-connection errors close that connection
/// and engine errors are reported to the affected clients as
/// [`Status::Internal`] responses.
///
/// # Panics
///
/// If serving a frame panicked.  Frames that meet the lost session in the
/// meantime are answered [`Status::Internal`].
pub fn serve<S, O>(
    listener: TcpListener,
    engine: &Engine,
    plane: &ShardedPlane<S>,
    oracle: &O,
    verify: &VerifyConfig,
    config: &ServeConfig,
    shutdown: &AtomicBool,
) -> io::Result<ServeOutcome>
where
    S: RoundtripRouting + Send + Sync,
    O: DistanceOracle + ?Sized,
{
    let never_degraded = AtomicBool::new(false);
    serve_with_status(listener, engine, plane, oracle, verify, config, shutdown, &never_degraded)
}

/// [`serve`] with an operator-owned **degraded flag**: while `degraded` is
/// `true`, every `HEALTH` response reports
/// [`HealthInfo::degraded`](crate::HealthInfo) set — the chaos plane's way
/// of telling clients a fault window is open and served routes may exceed
/// the proven ceiling until repair clears the flag.  The flag changes
/// nothing about serving itself; it is a status byte, flipped by whoever
/// drives the fault injection and repair.
///
/// # Errors
///
/// As [`serve`].
///
/// # Panics
///
/// As [`serve`].
#[allow(clippy::too_many_arguments)]
pub fn serve_with_status<S, O>(
    listener: TcpListener,
    engine: &Engine,
    plane: &ShardedPlane<S>,
    oracle: &O,
    verify: &VerifyConfig,
    config: &ServeConfig,
    shutdown: &AtomicBool,
    degraded: &AtomicBool,
) -> io::Result<ServeOutcome>
where
    S: RoundtripRouting + Send + Sync,
    O: DistanceOracle + ?Sized,
{
    listener.set_nonblocking(true)?;
    let shared = Shared {
        shutdown,
        degraded,
        in_flight: AtomicU64::new(0),
        served: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        connections: AtomicU64::new(0),
        frames: AtomicU64::new(0),
        nodes: plane.map().node_count() as u32,
        shards: plane.map().shard_count() as u32,
        config: *config,
    };
    let session_config = VerifyConfig { strict: false, ..*verify };
    let session = Mutex::new(engine.open_stream(plane, oracle, &session_config));

    std::thread::scope(|scope| {
        while !shared.shutdown.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    shared.connections.fetch_add(1, Ordering::Relaxed);
                    counter("serve.net.connections").inc();
                    let (session, shared) = (&session, &shared);
                    scope.spawn(move || run_connection(stream, session, shared));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    shared.shutdown.store(true, Ordering::Relaxed);
                    return Err(e);
                }
            }
        }
        Ok(())
    })?;

    // The scope re-raises a panic of any connection thread, so a lock
    // poisoned by a serving panic never reaches this line.
    let session = session.into_inner().expect("the scope re-raises serving panics");
    let verified = session.finish().map_err(|e| io::Error::other(e.to_string()))?;
    Ok(ServeOutcome {
        verified,
        connections: shared.connections.load(Ordering::Relaxed),
        frames: shared.frames.load(Ordering::Relaxed),
        served: shared.served.load(Ordering::Relaxed),
        rejected: shared.rejected.load(Ordering::Relaxed),
    })
}

/// The telemetry handles a connection writes, resolved once per connection.
struct Telemetry {
    frames: Counter,
    admitted: Counter,
    overload: Counter,
    malformed: Counter,
    in_flight: Gauge,
    /// One per served frame.
    batches: Counter,
    batch_ns: DurationHistogram,
    /// Time a frame waited for the session lock.
    wait_ns: DurationHistogram,
    route: DurationHistogram,
    batch: DurationHistogram,
    health: DurationHistogram,
    metrics: DurationHistogram,
    report: DurationHistogram,
}

impl Telemetry {
    fn new() -> Self {
        Telemetry {
            frames: counter("serve.net.frames"),
            admitted: counter("serve.net.requests"),
            overload: counter("serve.net.rejected.overload"),
            malformed: counter("serve.net.rejected.malformed"),
            in_flight: gauge("serve.net.in_flight"),
            batches: counter("serve.engine.batches"),
            batch_ns: histogram("serve.engine.batch_ns"),
            wait_ns: histogram("serve.engine.wait_ns"),
            route: histogram("serve.net.route_ns"),
            batch: histogram("serve.net.batch_ns"),
            health: histogram("serve.net.health_ns"),
            metrics: histogram("serve.net.metrics_ns"),
            report: histogram("serve.net.report_ns"),
        }
    }
}

/// Reads frames off one connection until the peer closes, the shutdown flag
/// flips, or a protocol-level close (oversize frame) happens.
fn run_connection<S, O>(
    mut stream: TcpStream,
    session: &Mutex<VerifiedStream<'_, S, O>>,
    shared: &Shared<'_>,
) where
    S: RoundtripRouting + Send + Sync,
    O: DistanceOracle + ?Sized,
{
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let telemetry = Telemetry::new();

    let mut prefix = [0u8; 4];
    loop {
        match read_full(&mut stream, &mut prefix, shared.shutdown) {
            ReadOutcome::Data => {}
            ReadOutcome::Closed | ReadOutcome::Stop => return,
        }
        let len = u32::from_be_bytes(prefix);
        shared.frames.fetch_add(1, Ordering::Relaxed);
        telemetry.frames.inc();
        if len > shared.config.max_frame_len {
            // The payload was never read, so the stream is out of sync:
            // answer and close.
            let resp = WireResponse::Error {
                opcode: 0,
                status: Status::TooLarge,
                message: format!(
                    "frame length {len} exceeds the {}-byte limit",
                    shared.config.max_frame_len
                ),
            };
            let _ = write_frame(&mut stream, &encode_response(&resp));
            return;
        }
        let mut payload = vec![0u8; len as usize];
        match read_full(&mut stream, &mut payload, shared.shutdown) {
            ReadOutcome::Data => {}
            ReadOutcome::Closed | ReadOutcome::Stop => return,
        }

        let started = Instant::now();
        let opcode = payload.get(1).copied().unwrap_or(0);
        let response = answer(&payload, session, shared, &telemetry).unwrap_or_else(|err| {
            WireResponse::Error { opcode, status: err.status, message: err.message }
        });
        let wrote = write_frame(&mut stream, &encode_response(&response));
        match &response {
            WireResponse::Route(_) => telemetry.route.observe(started.elapsed()),
            WireResponse::Batch(_) => telemetry.batch.observe(started.elapsed()),
            WireResponse::Health(_) => telemetry.health.observe(started.elapsed()),
            WireResponse::Metrics(_) => telemetry.metrics.observe(started.elapsed()),
            WireResponse::Report(_) => telemetry.report.observe(started.elapsed()),
            WireResponse::Shutdown | WireResponse::Error { .. } => {}
        }
        if matches!(response, WireResponse::Shutdown) || wrote.is_err() {
            return;
        }
    }
}

/// Answers one request payload: decodes it, admits it, and serves it.  The
/// error becomes the frame's error response.
fn answer<S, O>(
    payload: &[u8],
    session: &Mutex<VerifiedStream<'_, S, O>>,
    shared: &Shared<'_>,
    telemetry: &Telemetry,
) -> Result<WireResponse, WireError>
where
    S: RoundtripRouting + Send + Sync,
    O: DistanceOracle + ?Sized,
{
    let request = decode_request(payload).inspect_err(|_| telemetry.malformed.inc())?;
    admit(&request, shared, telemetry)?;
    Ok(match request {
        WireRequest::Route { src, dst } => {
            WireResponse::Route(serve_frame(&[(src, dst)], session, shared, telemetry)?[0])
        }
        WireRequest::Batch(pairs) => {
            WireResponse::Batch(serve_frame(&pairs, session, shared, telemetry)?)
        }
        WireRequest::Health => WireResponse::Health(HealthInfo {
            nodes: shared.nodes,
            shards: shared.shards,
            in_flight: shared.in_flight.load(Ordering::Relaxed),
            served: shared.served.load(Ordering::Relaxed),
            rejected: shared.rejected.load(Ordering::Relaxed),
            degraded: shared.degraded.load(Ordering::Relaxed),
        }),
        WireRequest::Metrics => WireResponse::Metrics(rtr_telemetry::registry().to_json()),
        WireRequest::Report => WireResponse::Report(lock(session, telemetry)?.report().clone()),
        WireRequest::Shutdown => {
            shared.shutdown.store(true, Ordering::Relaxed);
            WireResponse::Shutdown
        }
    })
}

/// Validates node ids and charges the in-flight budget, counting every
/// rejection.  On `Ok(())` the budget holds one slot per query, which
/// [`serve_frame`] releases after the engine call.
fn admit(
    request: &WireRequest,
    shared: &Shared<'_>,
    telemetry: &Telemetry,
) -> Result<(), WireError> {
    let malformed = |status, message| {
        telemetry.malformed.inc();
        Err(WireError { status, message })
    };
    let pairs: &[(u32, u32)] = match request {
        WireRequest::Route { src, dst } => &[(*src, *dst)][..],
        WireRequest::Batch(pairs) => {
            if pairs.len() > shared.config.max_batch_frame {
                let limit = shared.config.max_batch_frame;
                let message =
                    format!("batch of {} exceeds the {limit}-query frame limit", pairs.len());
                return malformed(Status::TooLarge, message);
            }
            pairs
        }
        _ => return Ok(()),
    };
    for &(src, dst) in pairs {
        if src >= shared.nodes || dst >= shared.nodes {
            let message = format!("node out of range: ({src}, {dst}) with {} nodes", shared.nodes);
            return malformed(Status::BadNode, message);
        }
        if src == dst {
            let message = format!("self-route {src} -> {dst}: roundtrips need src != dst");
            return malformed(Status::BadNode, message);
        }
    }
    let k = pairs.len() as u64;
    let prev = shared.in_flight.fetch_add(k, Ordering::Relaxed);
    if prev + k > shared.config.inflight_max as u64 {
        shared.in_flight.fetch_sub(k, Ordering::Relaxed);
        shared.rejected.fetch_add(k, Ordering::Relaxed);
        telemetry.overload.add(k);
        return Err(WireError {
            status: Status::Overloaded,
            message: format!(
                "in-flight budget {} exhausted ({} queued)",
                shared.config.inflight_max, prev
            ),
        });
    }
    telemetry.admitted.add(k);
    telemetry.in_flight.set_max(prev + k);
    Ok(())
}

/// Serves one admitted frame as one engine batch under the session lock,
/// then releases the frame's in-flight slots.  Replies come back in request
/// order.
fn serve_frame<S, O>(
    pairs: &[(u32, u32)],
    session: &Mutex<VerifiedStream<'_, S, O>>,
    shared: &Shared<'_>,
    telemetry: &Telemetry,
) -> Result<Vec<ServedRoute>, WireError>
where
    S: RoundtripRouting + Send + Sync,
    O: DistanceOracle + ?Sized,
{
    let requests: Vec<Request> =
        pairs.iter().map(|&(src, dst)| Request { src: NodeId(src), dst: NodeId(dst) }).collect();
    let trips = lock(session, telemetry).and_then(|mut session| {
        let started = Instant::now();
        let trips = session.serve_batch(&requests);
        telemetry.batch_ns.observe(started.elapsed());
        telemetry.batches.inc();
        trips.map_err(|e| WireError { status: Status::Internal, message: e.to_string() })
    });
    let k = requests.len() as u64;
    shared.in_flight.fetch_sub(k, Ordering::Relaxed);
    if trips.is_ok() {
        shared.served.fetch_add(k, Ordering::Relaxed);
    }
    Ok(trips?
        .iter()
        .map(|t| ServedRoute { index: t.index as u64, hops: t.hops as u32, weight: t.weight })
        .collect())
}

/// Locks the session, timing the wait.  A lock poisoned by a serving panic
/// answers `INTERNAL`: the session is lost.
fn lock<'s, T>(
    session: &'s Mutex<T>,
    telemetry: &Telemetry,
) -> Result<MutexGuard<'s, T>, WireError> {
    let waiting = Instant::now();
    let guard = session.lock().map_err(|_| WireError {
        status: Status::Internal,
        message: "the session was lost to a panic while serving".to_string(),
    })?;
    telemetry.wait_ns.observe(waiting.elapsed());
    Ok(guard)
}

enum ReadOutcome {
    /// `buf` is full.
    Data,
    /// The peer closed cleanly before the first byte of `buf`.
    Closed,
    /// The shutdown flag flipped while waiting.
    Stop,
}

/// Fills `buf`, treating read timeouts as moments to re-check `shutdown`.
/// A clean close *between* frames is `Closed`; a close mid-buffer is also
/// treated as `Closed` (the peer is gone either way — there is nobody left
/// to answer).
fn read_full(stream: &mut TcpStream, buf: &mut [u8], shutdown: &AtomicBool) -> ReadOutcome {
    let mut at = 0;
    while at < buf.len() {
        match stream.read(&mut buf[at..]) {
            Ok(0) => return ReadOutcome::Closed,
            Ok(k) => at += k,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::Relaxed) {
                    return ReadOutcome::Stop;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Closed,
        }
    }
    ReadOutcome::Data
}
