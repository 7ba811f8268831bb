//! Loopback integration tests: a real `TcpListener`, real client threads,
//! and the acceptance property that matters — the network session's
//! [`VerifiedReport`] is **bit-identical** to one in-process
//! `serve_verified_sharded` call over the same request stream, regardless
//! of network arrival order.

use rtr_core::naming::NamingAssignment;
use rtr_core::{Stretch6Params, StretchSix};
use rtr_engine::{
    Engine, EngineConfig, FrozenPlane, Request, ShardMap, ShardedPlane, VerifiedReport,
    VerifyConfig,
};
use rtr_graph::generators::strongly_connected_gnp;
use rtr_graph::{Distance, NodeId};
use rtr_metric::{DistanceMatrix, DistanceOracle};
use rtr_namedep::ExactOracleScheme;
use rtr_serve::protocol::{
    decode_request, decode_response, encode_request, read_frame, write_frame, WireRequest,
    WireResponse, MAX_FRAME_LEN, VERSION,
};
use rtr_serve::{Client, ClientError, ServeConfig, ServeOutcome, Status};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

const N: u32 = 32;

struct Fixture {
    matrix: DistanceMatrix,
    sharded: ShardedPlane<StretchSix<ExactOracleScheme>>,
}

fn fixture(seed: u64, shards: usize) -> Fixture {
    let g = Arc::new(strongly_connected_gnp(N as usize, 0.15, seed).expect("generator"));
    let matrix = DistanceMatrix::build(&g);
    let names = NamingAssignment::random(g.node_count(), seed ^ 0x9a7e);
    let scheme = StretchSix::build(
        &g,
        &matrix,
        &names,
        ExactOracleScheme::build(&g),
        Stretch6Params::default(),
    );
    let plane = FrozenPlane::freeze(Arc::clone(&g), scheme, Arc::new(names.to_names()));
    let sharded = ShardedPlane::new(plane, ShardMap::hashed(N as usize, shards, 9));
    Fixture { matrix, sharded }
}

/// Runs `client_work` against a live server and returns its outcome.
fn with_server<T: Send>(
    fx: &Fixture,
    config: ServeConfig,
    client_work: impl FnOnce(SocketAddr) -> T + Send,
) -> (ServeOutcome, T) {
    let (outcome, result) = serve_while(fx, &fx.matrix, config, client_work);
    (outcome.expect("server panicked").expect("serve failed"), result)
}

/// Runs `client_work` against a live server verifying with `oracle`, and
/// returns how the server thread ended along with the work's result.
fn serve_while<T: Send, O: DistanceOracle>(
    fx: &Fixture,
    oracle: &O,
    config: ServeConfig,
    client_work: impl FnOnce(SocketAddr) -> T + Send,
) -> (std::thread::Result<std::io::Result<ServeOutcome>>, T) {
    let engine = Engine::new(EngineConfig::with_workers(3));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            rtr_serve::serve(
                listener,
                &engine,
                &fx.sharded,
                oracle,
                &VerifyConfig::full(),
                &config,
                &shutdown,
            )
        });
        let result = panic::catch_unwind(AssertUnwindSafe(|| client_work(addr)));
        // client_work is expected to have sent SHUTDOWN; if it panicked
        // instead, stop the server so that the test fails rather than hangs.
        if result.is_err() {
            shutdown.store(true, Ordering::Relaxed);
        }
        let outcome = server.join();
        (outcome, result.unwrap_or_else(|failure| panic::resume_unwind(failure)))
    })
}

/// Deterministic (src, dst) pair with src != dst.
fn pair(seed: u64) -> (u32, u32) {
    let mut z = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    z ^= z >> 29;
    let src = (z as u32) % N;
    let dst = (src + 1 + ((z >> 32) as u32) % (N - 1)) % N;
    (src, dst)
}

#[test]
fn network_report_is_bit_identical_to_in_process() {
    let fx = fixture(5, 4);
    let total: usize = 600;
    let clients = 4;
    let per_client = total / clients;

    let served: Arc<Mutex<Vec<(u64, u32, u32)>>> = Arc::new(Mutex::new(Vec::new()));
    let (outcome, wire_report) = with_server(&fx, ServeConfig::default(), |addr| {
        std::thread::scope(|scope| {
            for c in 0..clients {
                let served = Arc::clone(&served);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut sent = 0usize;
                    let mut k = 0u64;
                    while sent < per_client {
                        if c % 2 == 0 {
                            // Batch client: frames of up to 16 queries.
                            let want = 16.min(per_client - sent);
                            let pairs: Vec<(u32, u32)> = (0..want)
                                .map(|i| pair(((c as u64) << 32) | (k + i as u64)))
                                .collect();
                            k += want as u64;
                            let routes = client.batch(&pairs).expect("batch");
                            assert_eq!(routes.len(), pairs.len());
                            let mut log = served.lock().unwrap();
                            for (route, &(src, dst)) in routes.iter().zip(&pairs) {
                                log.push((route.index, src, dst));
                            }
                            sent += want;
                        } else {
                            // Single-route client.
                            let (src, dst) = pair((c as u64) << 32 | k);
                            k += 1;
                            let route = client.route(src, dst).expect("route");
                            served.lock().unwrap().push((route.index, src, dst));
                            sent += 1;
                        }
                    }
                });
            }
        });
        let mut control = Client::connect(addr).expect("connect control");
        let report = control.report().expect("report");
        control.shutdown().expect("shutdown");
        report
    });

    // Reconstruct the exact served stream from the returned indices.
    let log = served.lock().unwrap();
    assert_eq!(log.len(), total);
    let mut stream = vec![None; total];
    for &(index, src, dst) in log.iter() {
        let slot = stream.get_mut(index as usize).expect("index in range");
        assert!(slot.is_none(), "index {index} served twice");
        *slot = Some(Request { src: NodeId(src), dst: NodeId(dst) });
    }
    let stream: Vec<Request> = stream.into_iter().map(|r| r.expect("gap in stream")).collect();

    // The same stream served in one in-process call must match bit for bit.
    let engine = Engine::new(EngineConfig::with_workers(3));
    let in_process = engine
        .serve_verified_sharded(&fx.sharded, &stream, &fx.matrix, &VerifyConfig::full())
        .expect("in-process serve");
    assert_eq!(outcome.verified.report, in_process.report);
    assert_eq!(wire_report, in_process.report);
    assert_eq!(outcome.verified.report.checked, total);
    assert_eq!(outcome.served, total as u64);
    assert_eq!(outcome.rejected, 0);
    // Per-shard query counts are a pure function of destinations, so they
    // match too.
    for (net, local) in outcome.verified.shards.iter().zip(&in_process.shards) {
        assert_eq!(net.queries, local.queries);
    }
}

#[test]
fn admission_control_rejects_deterministically() {
    let fx = fixture(6, 2);
    let config = ServeConfig { inflight_max: 4, ..ServeConfig::default() };
    let (outcome, ()) = with_server(&fx, config, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        let too_many: Vec<(u32, u32)> = (0..8u64).map(pair).collect();
        match client.batch(&too_many) {
            Err(ClientError::Rejected { status: Status::Overloaded, message }) => {
                assert!(message.contains("in-flight budget 4"), "{message}");
            }
            other => panic!("expected overload rejection, got {other:?}"),
        }
        // Within budget: served fine (the client blocks per frame, so the
        // budget is fully free again).
        let ok: Vec<(u32, u32)> = (0..4u64).map(pair).collect();
        assert_eq!(client.batch(&ok).expect("batch within budget").len(), 4);
        client.shutdown().expect("shutdown");
    });
    assert_eq!(outcome.rejected, 8);
    assert_eq!(outcome.served, 4);
    assert_eq!(outcome.verified.report.queries, 4);
}

#[test]
fn bad_nodes_are_rejected_before_the_engine() {
    let fx = fixture(7, 2);
    let (outcome, ()) = with_server(&fx, ServeConfig::default(), |addr| {
        let mut client = Client::connect(addr).expect("connect");
        for (src, dst) in [(3, 3), (N, 0), (0, u32::MAX)] {
            match client.route(src, dst) {
                Err(ClientError::Rejected { status: Status::BadNode, .. }) => {}
                other => panic!("({src},{dst}): expected BadNode, got {other:?}"),
            }
        }
        // One bad pair poisons a whole batch (it is all-or-nothing).
        match client.batch(&[(0, 1), (5, 5)]) {
            Err(ClientError::Rejected { status: Status::BadNode, .. }) => {}
            other => panic!("expected BadNode for batch, got {other:?}"),
        }
        client.shutdown().expect("shutdown");
    });
    assert_eq!(outcome.served, 0);
    assert_eq!(outcome.verified.report.queries, 0);
}

#[test]
fn malformed_frames_get_precise_statuses() {
    let fx = fixture(8, 2);
    let (outcome, ()) = with_server(&fx, ServeConfig::default(), |addr| {
        let mut raw = TcpStream::connect(addr).expect("connect raw");
        let mut ask = |payload: &[u8]| -> WireResponse {
            write_frame(&mut raw, payload).expect("write");
            let frame = read_frame(&mut raw, MAX_FRAME_LEN).expect("read").expect("open");
            decode_response(&frame).expect("decode")
        };
        let status_of = |resp: WireResponse| match resp {
            WireResponse::Error { status, .. } => status,
            other => panic!("expected error response, got {other:?}"),
        };

        assert_eq!(status_of(ask(&[])), Status::Malformed);
        assert_eq!(status_of(ask(&[VERSION + 9, 0x01])), Status::UnsupportedVersion);
        assert_eq!(status_of(ask(&[VERSION, 0x7f])), Status::UnknownOpcode);
        // ROUTE with a truncated body.
        assert_eq!(status_of(ask(&[VERSION, 0x01, 0, 0])), Status::Malformed);
        // Opcode byte is echoed back for error correlation.
        match ask(&[VERSION, 0x7f]) {
            WireResponse::Error { opcode, .. } => assert_eq!(opcode, 0x7f),
            other => panic!("expected error, got {other:?}"),
        }
        // The connection stays usable after rejected frames.
        let ok = ask(&encode_request(&WireRequest::Health));
        assert!(matches!(ok, WireResponse::Health(_)));

        let mut client = Client::connect(addr).expect("connect");
        client.shutdown().expect("shutdown");
    });
    assert_eq!(outcome.served, 0);
    assert!(outcome.frames >= 6);
}

#[test]
fn health_and_metrics_expose_the_serving_plane() {
    let fx = fixture(9, 3);
    let (outcome, ()) = with_server(&fx, ServeConfig::default(), |addr| {
        let mut client = Client::connect(addr).expect("connect");
        let (src, dst) = pair(77);
        client.route(src, dst).expect("route");

        let health = client.health().expect("health");
        assert_eq!(health.nodes, N);
        assert_eq!(health.shards, 3);
        assert_eq!(health.served, 1);
        assert_eq!(health.in_flight, 0);
        assert_eq!(health.rejected, 0);
        assert!(!health.degraded, "a healthy plane must not report degraded");

        let json = client.metrics().expect("metrics");
        // The wire string is Registry::to_json() verbatim — spot-check the
        // serve vocabulary and the exact formatting shape.
        assert!(json.starts_with("{\n"), "metrics is the registry JSON");
        assert!(json.ends_with("}\n"));
        for name in [
            "serve.net.connections",
            "serve.net.requests",
            "serve.net.route_ns",
            "serve.engine.batches",
        ] {
            assert!(json.contains(name), "metrics JSON misses {name}");
        }
        client.shutdown().expect("shutdown");
    });
    assert_eq!(outcome.served, 1);
}

#[test]
fn health_reports_degraded_during_a_fault_window_and_recovers() {
    let fx = fixture(11, 2);
    let engine = Engine::new(EngineConfig::with_workers(2));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let shutdown = AtomicBool::new(false);
    let degraded = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            rtr_serve::serve_with_status(
                listener,
                &engine,
                &fx.sharded,
                &fx.matrix,
                &VerifyConfig::full(),
                &ServeConfig::default(),
                &shutdown,
                &degraded,
            )
        });
        let mut client = Client::connect(addr).expect("connect");
        assert!(!client.health().expect("health").degraded);

        // Fault injection opens the window: the chaos driver flips the
        // status flag…
        degraded.store(true, Ordering::Relaxed);
        assert!(client.health().expect("health in window").degraded);
        // …and serving keeps running through it — DEGRADED is advisory, not
        // an admission gate.
        let (src, dst) = pair(91);
        client.route(src, dst).expect("route during fault window");
        assert!(client.health().expect("health after route").degraded);

        // Repair closes the window.
        degraded.store(false, Ordering::Relaxed);
        let health = client.health().expect("health after repair");
        assert!(!health.degraded, "repair must clear the degraded byte");
        assert_eq!(health.served, 1);
        client.shutdown().expect("shutdown");
        let outcome = server.join().expect("server panicked").expect("serve failed");
        assert_eq!(outcome.served, 1);
    });
}

#[test]
fn oversized_frames_close_the_connection_with_too_large() {
    let fx = fixture(10, 2);
    let config = ServeConfig { max_frame_len: 64, ..ServeConfig::default() };
    let (_outcome, ()) = with_server(&fx, config, |addr| {
        let mut raw = TcpStream::connect(addr).expect("connect raw");
        // A length prefix far past the limit; the payload is never sent.
        std::io::Write::write_all(&mut raw, &1_000_000u32.to_be_bytes()).expect("prefix");
        let frame = read_frame(&mut raw, MAX_FRAME_LEN).expect("read").expect("reply");
        match decode_response(&frame).expect("decode") {
            WireResponse::Error { status, .. } => assert_eq!(status, Status::TooLarge),
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // Server closed its side after the oversize frame.
        assert!(read_frame(&mut raw, MAX_FRAME_LEN).expect("eof read").is_none());

        let mut client = Client::connect(addr).expect("connect");
        client.shutdown().expect("shutdown");
    });
}

/// `write_frame` sends a frame in one write, but the server must not rely
/// on that: a `ROUTE` frame that arrives in three pieces gets the reply, and
/// leaves the session report, that it would get arriving whole.
#[test]
fn frames_split_across_writes_are_served_as_whole_frames() {
    let fx = fixture(12, 2);
    let frames = [pair(31), pair(32)].map(|(src, dst)| {
        let mut frame = Vec::new();
        write_frame(&mut frame, &encode_request(&WireRequest::Route { src, dst })).expect("frame");
        frame
    });
    // Sends both frames, the first cut at `cuts`, and returns the replies.
    // The pauses let the server's reads see each piece on its own.
    let session = |cuts: &[usize]| {
        with_server(&fx, ServeConfig::default(), |addr| {
            let mut raw = TcpStream::connect(addr).expect("connect raw");
            raw.set_nodelay(true).expect("nodelay");
            let mut at = 0;
            for &cut in cuts {
                raw.write_all(&frames[0][at..cut]).expect("write piece");
                at = cut;
                std::thread::sleep(Duration::from_millis(20));
            }
            raw.write_all(&frames[0][at..]).expect("write rest");
            raw.write_all(&frames[1]).expect("write whole");
            let replies: Vec<WireResponse> = (0..frames.len())
                .map(|_| {
                    let frame = read_frame(&mut raw, MAX_FRAME_LEN).expect("read").expect("reply");
                    decode_response(&frame).expect("decode")
                })
                .collect();
            Client::connect(addr).expect("connect").shutdown().expect("shutdown");
            replies
        })
    };
    // Two prefix bytes; the other two and one payload byte; the rest.
    let (split_outcome, split) = session(&[2, 5]);
    let (whole_outcome, whole) = session(&[]);
    assert_eq!(split, whole);
    for (i, reply) in split.iter().enumerate() {
        match reply {
            WireResponse::Route(route) => assert_eq!(route.index, i as u64),
            other => panic!("frame {i}: expected a route, got {other:?}"),
        }
    }
    assert_eq!(split_outcome.verified.report, whole_outcome.verified.report);
    assert_eq!(split_outcome.served, 2);
}

/// Rebuilds the served stream from `(index, src, dst)` reply records,
/// asserting that every index from 0 up appears exactly once.
fn rebuild_stream(log: &[(u64, u32, u32)]) -> Vec<Request> {
    let mut stream = vec![None; log.len()];
    for &(index, src, dst) in log {
        let slot = stream.get_mut(index as usize).expect("index in range");
        assert!(slot.is_none(), "index {index} served twice");
        *slot = Some(Request { src: NodeId(src), dst: NodeId(dst) });
    }
    stream.into_iter().map(|r| r.expect("gap in stream")).collect()
}

/// The in-process replay every wire report is held to.
fn replay(fx: &Fixture, stream: &[Request]) -> VerifiedReport {
    let engine = Engine::new(EngineConfig::with_workers(3));
    engine
        .serve_verified_sharded(&fx.sharded, stream, &fx.matrix, &VerifyConfig::full())
        .expect("in-process serve")
        .report
}

/// A xorshift64 stream; each fuzz client draws its frames from its own seed.
struct XorShift(u64);

impl XorShift {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    fn node(&mut self) -> u32 {
        self.below(N as u64) as u32
    }

    fn valid_pair(&mut self) -> (u32, u32) {
        let src = self.node();
        (src, (src + 1 + self.below(N as u64 - 1) as u32) % N)
    }

    /// Between `min` and `max` valid pairs.
    fn pairs(&mut self, min: u64, max: u64) -> Vec<(u32, u32)> {
        let k = min + self.below(max - min + 1);
        (0..k).map(|_| self.valid_pair()).collect()
    }

    fn bytes(&mut self, max: u64) -> Vec<u8> {
        let len = self.below(max + 1);
        (0..len).map(|_| self.below(256) as u8).collect()
    }
}

const FUZZ_MAX_BATCH: u64 = 8;

/// One fuzz frame payload: a valid ROUTE or BATCH, one with an
/// out-of-range id or a self-route, a batch over the limit, random bytes
/// that mostly start like a request, a wrong version byte or an unknown
/// opcode.
fn fuzz_payload(rng: &mut XorShift) -> Vec<u8> {
    let request = match rng.below(8) {
        0 | 1 => {
            let (src, dst) = rng.valid_pair();
            WireRequest::Route { src, dst }
        }
        2 | 3 => WireRequest::Batch(rng.pairs(0, FUZZ_MAX_BATCH)),
        4 => {
            let src = rng.node();
            let bad = match rng.below(3) {
                0 => (src, src),
                1 => (src, N + rng.below(4) as u32),
                _ => (u32::MAX, src),
            };
            if rng.below(2) == 0 {
                WireRequest::Route { src: bad.0, dst: bad.1 }
            } else {
                let mut pairs = rng.pairs(0, FUZZ_MAX_BATCH - 1);
                let at = rng.below(pairs.len() as u64 + 1) as usize;
                pairs.insert(at, bad);
                WireRequest::Batch(pairs)
            }
        }
        5 => WireRequest::Batch(rng.pairs(FUZZ_MAX_BATCH + 1, FUZZ_MAX_BATCH + 4)),
        6 => {
            let mut payload = rng.bytes(12);
            if rng.below(4) != 0 && !payload.is_empty() {
                payload[0] = VERSION;
            }
            if rng.below(4) != 0 && payload.len() > 1 {
                payload[1] = rng.below(8) as u8;
            }
            return payload;
        }
        _ => {
            let version =
                if rng.below(2) == 0 { VERSION } else { VERSION ^ (1 + rng.below(255) as u8) };
            let mut payload = vec![version, rng.below(256) as u8];
            payload.extend(rng.bytes(8));
            return payload;
        }
    };
    encode_request(&request)
}

/// What the server must answer to `payload`: the request it serves, or the
/// status it rejects the frame with — from `decode_request` plus the
/// admission rules (per-frame batch limit, then node ids).  Never
/// `INTERNAL` or `OVERLOADED`: the fuzz fleet stays far inside the
/// in-flight budget.
fn predict(payload: &[u8]) -> Result<WireRequest, Status> {
    let request = decode_request(payload).map_err(|e| e.status)?;
    let pairs = match &request {
        WireRequest::Route { src, dst } => vec![(*src, *dst)],
        WireRequest::Batch(pairs) if pairs.len() as u64 > FUZZ_MAX_BATCH => {
            return Err(Status::TooLarge)
        }
        WireRequest::Batch(pairs) => pairs.clone(),
        _ => Vec::new(),
    };
    if pairs.iter().any(|&(src, dst)| src >= N || dst >= N || src == dst) {
        return Err(Status::BadNode);
    }
    Ok(request)
}

/// Sends `frames` fuzz frames and checks each reply against [`predict`];
/// returns the `(index, src, dst)` records of the queries served.
fn fuzz_client(raw: &mut TcpStream, seed: u64, frames: usize) -> Vec<(u64, u32, u32)> {
    let mut rng = XorShift(seed);
    let mut served = Vec::new();
    for _ in 0..frames {
        let payload = loop {
            let payload = fuzz_payload(&mut rng);
            if !matches!(decode_request(&payload), Ok(WireRequest::Shutdown)) {
                break payload;
            }
        };
        write_frame(raw, &payload).expect("write");
        let frame = read_frame(raw, MAX_FRAME_LEN).expect("read").expect("a reply");
        let reply = decode_response(&frame).expect("reply decodes");
        if let WireResponse::Error {
            status: Status::Internal | Status::Overloaded, message, ..
        } = &reply
        {
            panic!("{payload:?} reached a server failure: {message}");
        }
        match (predict(&payload), reply) {
            (Err(want), WireResponse::Error { opcode, status, .. }) => {
                assert_eq!(status, want, "{payload:?}");
                assert_eq!(opcode, payload.get(1).copied().unwrap_or(0), "{payload:?}");
            }
            (Ok(WireRequest::Route { src, dst }), WireResponse::Route(route)) => {
                served.push((route.index, src, dst));
            }
            (Ok(WireRequest::Batch(pairs)), WireResponse::Batch(routes)) => {
                assert_eq!(routes.len(), pairs.len(), "{payload:?}");
                served
                    .extend(routes.iter().zip(&pairs).map(|(r, &(src, dst))| (r.index, src, dst)));
            }
            (Ok(WireRequest::Health), WireResponse::Health(_))
            | (Ok(WireRequest::Metrics), WireResponse::Metrics(_))
            | (Ok(WireRequest::Report), WireResponse::Report(_)) => {}
            (want, got) => panic!("{payload:?}: expected {want:?}, got {got:?}"),
        }
    }
    served
}

#[test]
fn fuzzed_clients_get_predicted_statuses_and_the_session_survives() {
    let fx = fixture(12, 3);
    let config = ServeConfig { max_batch_frame: FUZZ_MAX_BATCH as usize, ..ServeConfig::default() };
    let (outcome, (log, health, wire_report)) = with_server(&fx, config, |addr| {
        let log: Vec<(u64, u32, u32)> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..4u64)
                .map(|c| {
                    scope.spawn(move || {
                        let mut raw = TcpStream::connect(addr).expect("connect raw");
                        raw.set_nodelay(true).expect("nodelay");
                        let served = fuzz_client(&mut raw, 0x5eed_0000 + 977 * c, 200);
                        match c {
                            // A truncated frame, then the client goes away.
                            0 => {
                                raw.write_all(&20u32.to_be_bytes()).expect("prefix");
                                raw.write_all(&[VERSION, 0x01, 0, 0]).expect("part of a body");
                            }
                            // A prefix over the frame limit: TOO_LARGE, then
                            // the server closes.
                            1 => {
                                raw.write_all(&(MAX_FRAME_LEN + 1).to_be_bytes()).expect("prefix");
                                let frame = read_frame(&mut raw, MAX_FRAME_LEN).expect("read");
                                match decode_response(&frame.expect("a reply")).expect("decode") {
                                    WireResponse::Error { opcode: 0, status, .. } => {
                                        assert_eq!(status, Status::TooLarge)
                                    }
                                    other => panic!("expected TOO_LARGE, got {other:?}"),
                                }
                                assert!(read_frame(&mut raw, MAX_FRAME_LEN)
                                    .expect("eof")
                                    .is_none());
                            }
                            _ => {}
                        }
                        served
                    })
                })
                .collect();
            clients.into_iter().flat_map(|c| c.join().expect("fuzz client panicked")).collect()
        });
        let mut control = Client::connect(addr).expect("connect control");
        let health = control.health().expect("health after the fuzz");
        let report = control.report().expect("report after the fuzz");
        control.shutdown().expect("shutdown");
        (log, health, report)
    });

    assert!(!log.is_empty(), "the fuzz mix serves valid queries");
    assert_eq!(health.served, log.len() as u64);
    assert_eq!(health.in_flight, 0);
    assert_eq!(health.rejected, 0);
    assert_eq!(outcome.served, log.len() as u64);
    assert_eq!(outcome.rejected, 0);
    // Every fuzz frame, the truncated one, the oversize prefix, and the
    // control client's HEALTH, REPORT and SHUTDOWN.
    assert_eq!(outcome.frames, 4 * 200 + 2 + 3);
    let stream = rebuild_stream(&log);
    let in_process = replay(&fx, &stream);
    assert_eq!(outcome.verified.report, in_process);
    assert_eq!(wire_report, in_process);
}

/// How long a test waits for a client fleet that makes no progress.
const STALL: Duration = Duration::from_secs(30);

#[test]
fn mid_session_reports_replay_as_stream_prefixes() {
    let fx = fixture(13, 3);
    let (frames, clients) = (60u64, 3u64);
    let log: Mutex<Vec<(u64, u32, u32)>> = Mutex::new(Vec::new());
    // The index range each frame was served at.
    let spans: Mutex<Vec<Range<u64>>> = Mutex::new(Vec::new());
    let grew = Condvar::new();
    let (outcome, reports) = with_server(&fx, ServeConfig::default(), |addr| {
        std::thread::scope(|scope| {
            for c in 0..clients {
                let (log, spans, grew) = (&log, &spans, &grew);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    for f in 0..frames {
                        let k = 1 + (c + f) % 8;
                        let pairs: Vec<(u32, u32)> =
                            (0..k).map(|i| pair(c << 40 | f << 8 | i)).collect();
                        let routes = client.batch(&pairs).expect("batch");
                        let span = routes[0].index..routes[0].index + k;
                        assert!(routes.iter().map(|r| r.index).eq(span.clone()), "{routes:?}");
                        spans.lock().unwrap().push(span);
                        let mut log = log.lock().unwrap();
                        log.extend(routes.iter().zip(&pairs).map(|(r, &(s, d))| (r.index, s, d)));
                        grew.notify_all();
                    }
                });
            }
            // Fetch a report each time the fleet has logged another eighth
            // of its queries, so the reports land mid-session.
            let total = (0..clients)
                .flat_map(|c| (0..frames).map(move |f| 1 + (c + f) % 8))
                .sum::<u64>() as usize;
            let mut control = Client::connect(addr).expect("connect control");
            let mut reports = Vec::new();
            for eighth in 1..=8 {
                let mut logged = log.lock().unwrap();
                while logged.len() < eighth * total / 8 {
                    let (next, waited) = grew.wait_timeout(logged, STALL).unwrap();
                    assert!(!waited.timed_out(), "the fleet stalled");
                    logged = next;
                }
                drop(logged);
                reports.push(control.report().expect("report"));
            }
            control.shutdown().expect("shutdown");
            reports
        })
    });

    let stream = rebuild_stream(&log.lock().unwrap());
    assert_eq!(outcome.verified.report, replay(&fx, &stream));
    let mut last = 0;
    let spans = spans.lock().unwrap();
    for report in &reports {
        assert!(report.queries >= last, "reports only grow");
        last = report.queries;
        let q = report.queries as u64;
        assert!(spans.iter().all(|f| f.end <= q || f.start >= q), "a report of {q} splits a frame");
        assert_eq!(*report, replay(&fx, &stream[..report.queries]), "{} queries", report.queries);
    }
    assert_eq!(last, stream.len(), "the last report follows every reply");
}

/// A verify oracle that panics on any row of `poison`: a stand-in for an
/// engine bug that unwinds through `serve_batch` while the session is
/// locked.
#[derive(Debug)]
struct PanicsOn<'a> {
    inner: &'a DistanceMatrix,
    poison: NodeId,
}

impl PanicsOn<'_> {
    fn check(&self, u: NodeId) {
        assert_ne!(u, self.poison, "injected serving panic");
    }
}

impl DistanceOracle for PanicsOn<'_> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Distance {
        self.check(u);
        self.check(v);
        self.inner.distance(u, v)
    }

    fn row(&self, u: NodeId) -> Vec<Distance> {
        self.check(u);
        self.inner.row(u)
    }

    fn rev_row(&self, u: NodeId) -> Vec<Distance> {
        self.check(u);
        self.inner.rev_row(u)
    }
}

#[test]
fn a_serving_panic_answers_internal_and_resurfaces_from_serve() {
    let fx = fixture(14, 2);
    let (src, dst) = pair(5);
    let poison = (0..N).find(|&v| v != src && v != dst).expect("N > 2");
    let oracle = PanicsOn { inner: &fx.matrix, poison: NodeId(poison) };
    let (outcome, ()) = serve_while(&fx, &oracle, ServeConfig::default(), |addr| {
        let mut client = Client::connect(addr).expect("connect");
        client.route(src, dst).expect("a route before the panic");
        // Verifying a trip to `poison` reads its rows: the connection thread
        // panics under the session lock, and its socket closes unanswered.
        let mut doomed = Client::connect(addr).expect("connect");
        assert!(doomed.route(src, poison).is_err(), "a panicking frame gets no reply");
        // Every later frame that needs the lost session answers INTERNAL…
        match client.route(src, dst) {
            Err(ClientError::Rejected { status: Status::Internal, .. }) => {}
            other => panic!("expected INTERNAL after a serving panic, got {other:?}"),
        }
        match client.report() {
            Err(ClientError::Rejected { status: Status::Internal, .. }) => {}
            other => panic!("expected INTERNAL for REPORT, got {other:?}"),
        }
        // …while frames that do not touch it still work.
        client.health().expect("health after a serving panic");
        client.shutdown().expect("shutdown");
    });
    assert!(outcome.is_err(), "serve re-raises the serving panic");
}
