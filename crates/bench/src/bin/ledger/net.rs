//! net-route: the n = 600 §2 plane behind the `rtr-serve` TCP front door,
//! driven open loop over loopback.
//!
//! The generator is two threads sharing two connections: this thread paces
//! single-query ROUTE frames to each frame's due time, alternating
//! connections, and one reader thread takes the replies in send order with
//! blocking reads, so reply timestamps are taken the moment a reply is
//! read.  Every latency is measured from the frame's due time, which
//! charges a stall to every frame it delays; how late the generator itself
//! ran is reported as `net.late_p99_us`.  Each connection's replies arrive
//! in order; a reply that overtakes an earlier frame on the other
//! connection is timestamped when the reader reaches it, which can only
//! overstate its latency by that earlier frame's remaining wait.
//!
//! After a warm-up, the schedule offers a fixed rate in short steps — the
//! windows of `p50_us` and `p90_us` — and then searches for the highest
//! rate that meets the latency objective with a staircase of short probes.

use crate::inproc;
use crate::probes::{self, ms, us, EngineProbe, EngineSamples, HostSpeed};
use crate::stats::{self, percentile, sorted};
use crate::trace::Tracer;
use crate::{Outcome, RunConfig, SETUPS_SMALL, WORKERS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtr_core::StretchSix;
use rtr_engine::{
    Engine, EngineConfig, FrozenPlane, Request, ShardedPlane, VerifyConfig, Workload as Stream,
};
use rtr_metric::LazyDijkstraOracle;
use rtr_namedep::LandmarkBallScheme;
use rtr_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame,
};
use rtr_serve::{ServeConfig, ServedRoute, WireRequest, WireResponse, MAX_FRAME_LEN};
use std::hint::black_box;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Plane6 = ShardedPlane<StretchSix<LandmarkBallScheme>>;

/// The capacity staircase's largest and smallest step per probe.
const COARSE: f64 = 1.25;
const FINE: f64 = 1.02;

/// Fixed-rate phases and the capacity search, scaled to `--seconds`.
struct Schedule {
    warm_rate: f64,
    warm_len: Duration,
    step_rate: f64,
    steps: usize,
    /// The length of one fixed-rate step and of one capacity probe.
    window: Duration,
    probes: usize,
    /// The staircase's first rate, and the range it stays in.
    start_rate: f64,
    rates: (f64, f64),
    /// A probe stops once the generator, or its replies, run this far
    /// behind.
    late_limit: Duration,
    /// A probe stops once this many frames await replies: half the
    /// server's admission budget, so the generator never overruns it.
    backlog_max: usize,
    /// The latency objective `qps` (the highest rate meeting it) is held to.
    slo_p90: Duration,
}

impl Schedule {
    fn new(cfg: &RunConfig, serve: &ServeConfig) -> Schedule {
        let s = cfg.duration().as_secs_f64();
        // A third of the run in fixed-rate steps of about 250 ms: short
        // enough that most miss the host's slow spells, long enough for a
        // supported p90 (2000 frames at 8k/s).
        let steps = ((s / 3.0 / 0.25).round() as usize).clamp(4, 60);
        let window = Duration::from_secs_f64(s / 3.0 / steps as f64);
        // Most of the rest in capacity probes of the same length: near the
        // boundary a probe's verdict is a coin toss, so the estimate needs
        // many of them.
        let probes = ((0.55 * s / window.as_secs_f64()).round() as usize).max(6);
        let jitter: f64 = StdRng::seed_from_u64(cfg.seed ^ 0x57a1).gen();
        Schedule {
            warm_rate: 4_000.0,
            warm_len: Duration::from_secs_f64(s / 10.0),
            step_rate: 8_000.0,
            steps,
            window,
            probes,
            // Twice the fixed rate, below the capacity measured on the
            // reference host (17k-28k frames/s), so few probes are spent
            // climbing; seeded, so the rates probed differ from run to run.
            start_rate: 16_000.0 * (1.0 + 0.1 * jitter),
            rates: (1_000.0, 256_000.0),
            // Smoke runs use unoptimised builds: only exercise the search.
            late_limit: if cfg.smoke { window } else { window / 10 },
            backlog_max: serve.inflight_max / 2,
            slo_p90: if cfg.smoke { Duration::from_secs(1) } else { Duration::from_millis(1) },
        }
    }

    /// Frames a probe at `rate` may leave awaiting replies.
    fn backlog_cap(&self, rate: f64) -> usize {
        ((rate * self.late_limit.as_secs_f64()).ceil() as usize + 1).min(self.backlog_max)
    }
}

/// The offered request stream, drawn in blocks as the phases consume it:
/// block `b` is a `Mix` stream under its own seed.
struct Offered {
    n: usize,
    seed: u64,
    requests: Vec<Request>,
}

impl Offered {
    const BLOCK: usize = 1 << 14;

    fn upto(&mut self, len: usize) -> &[Request] {
        while self.requests.len() < len {
            let block = (self.requests.len() / Self::BLOCK) as u64;
            let seed = self.seed ^ block.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            self.requests.extend(Stream::Mix.generate(self.n, Self::BLOCK, seed));
        }
        &self.requests[..len]
    }
}

/// The two generator connections, split into write and read halves.
struct Conns {
    writers: [TcpStream; 2],
    readers: [BufReader<TcpStream>; 2],
}

impl Conns {
    fn open(addr: SocketAddr) -> io::Result<Conns> {
        let open = || -> io::Result<(TcpStream, BufReader<TcpStream>)> {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            // A stuck server fails the run instead of hanging it.
            s.set_read_timeout(Some(Duration::from_secs(20)))?;
            s.set_write_timeout(Some(Duration::from_secs(20)))?;
            let r = BufReader::new(s.try_clone()?);
            Ok((s, r))
        };
        let (w0, r0) = open()?;
        let (w1, r1) = open()?;
        Ok(Conns { writers: [w0, w1], readers: [r0, r1] })
    }
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Waits until `due` by yielding the core.  Sleeping is too coarse for the
/// 125 µs gaps of the fixed-rate phases: a timed sleep on the reference host
/// overshoots by ~60 µs and now and then by 4 ms, which would land on the
/// frames' latency.  Yielding hands the core to the server whenever it has
/// work.
fn pace(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// The `index` of a frame the server answered with an error status.
const REJECTED: u64 = u64::MAX;

/// One frame of a phase, in send order.  Times are nanoseconds after the
/// phase's first due time.
struct Frame {
    /// When the generator began writing the frame.
    sent: u64,
    recv: u64,
    /// The stream index the server assigned, or [`REJECTED`].
    index: u64,
}

fn due_offset(rate: f64, i: usize) -> Duration {
    Duration::from_secs_f64(i as f64 / rate)
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

struct Phase {
    start: Instant,
    rate: f64,
    scheduled: usize,
    frames: Vec<Frame>,
}

impl Phase {
    /// `(due, frame)` of every frame the server served, due in ns.
    fn served(&self) -> impl Iterator<Item = (u64, &Frame)> {
        let rate = self.rate;
        self.frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.index != REJECTED)
            .map(move |(i, f)| (nanos(due_offset(rate, i)), f))
    }

    fn ok(&self) -> usize {
        self.served().count()
    }

    fn errors(&self) -> usize {
        self.frames.len() - self.ok()
    }

    /// Latency from each served frame's due time, in microseconds.
    fn latency_us(&self) -> Vec<f64> {
        self.served().map(|(due, f)| f.recv.saturating_sub(due) as f64 / 1e3).collect()
    }

    fn p(&self, q: f64) -> f64 {
        percentile(&sorted(&self.latency_us()), q)
    }

    /// How late the generator began sending each frame, in microseconds.
    fn late_us(&self) -> Vec<f64> {
        self.served().map(|(due, f)| f.sent.saturating_sub(due) as f64 / 1e3).collect()
    }

    /// Latency from when the generator began sending each frame.
    fn wire_us(&self) -> Vec<f64> {
        self.served().map(|(_, f)| f.recv.saturating_sub(f.sent) as f64 / 1e3).collect()
    }

    fn at(&self, ns: u64) -> Instant {
        self.start + Duration::from_nanos(ns)
    }

    fn wall(&self) -> Duration {
        Duration::from_nanos(self.frames.last().map_or(0, |f| f.recv))
    }
}

/// Reads replies in send order until the end marker (a HEALTH reply) shows
/// up on both connections: `(receive time after start in ns, index)`.
fn read_replies(
    readers: &mut [BufReader<TcpStream>; 2],
    start: Instant,
    received: &AtomicUsize,
) -> io::Result<Vec<(u64, u64)>> {
    let mut next = |conn: usize| -> io::Result<Option<(u64, u64)>> {
        let payload = read_frame(&mut readers[conn], MAX_FRAME_LEN)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        let at = nanos(Instant::now().saturating_duration_since(start));
        match decode_response(&payload) {
            Ok(WireResponse::Route(route)) => Ok(Some((at, route.index))),
            Ok(WireResponse::Error { .. }) => Ok(Some((at, REJECTED))),
            Ok(WireResponse::Health(_)) => Ok(None),
            Ok(other) => Err(io::Error::other(format!("unexpected reply {other:?}"))),
            Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        }
    };
    let mut replies = Vec::new();
    while let Some(reply) = next(replies.len() % 2)? {
        replies.push(reply);
        received.fetch_add(1, Ordering::Relaxed);
    }
    // Frame `replies.len()` was never sent, so the other connection has no
    // frame after the ones already read: its next reply is its end marker.
    if next((replies.len() + 1) % 2)?.is_some() {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "reply after the end marker"));
    }
    Ok(replies)
}

/// Offers `requests` at `rate` for `len`.  With a `limit` of lateness and
/// backlog, sending stops once the generator, or the replies, run that far
/// behind.
fn run_phase(
    conns: &mut Conns,
    requests: &[Request],
    rate: f64,
    limit: Option<(Duration, usize)>,
) -> io::Result<Phase> {
    let scheduled = requests.len();
    let start = Instant::now() + Duration::from_millis(1);
    let received = AtomicUsize::new(0);
    let Conns { writers, readers } = conns;
    let (sent, replies) = std::thread::scope(|scope| -> io::Result<_> {
        let reader = scope.spawn(|| read_replies(readers, start, &received));
        let mut sent = Vec::with_capacity(scheduled);
        let mut written = Ok(());
        for (i, r) in requests.iter().enumerate() {
            let due_i = start + due_offset(rate, i);
            pace(due_i);
            if let Some((late_limit, backlog_cap)) = limit {
                let late = Instant::now().saturating_duration_since(due_i) > late_limit;
                if late || i - received.load(Ordering::Relaxed) > backlog_cap {
                    break;
                }
            }
            let began = nanos(Instant::now() - start);
            let frame = framed(&encode_request(&WireRequest::Route { src: r.src.0, dst: r.dst.0 }));
            written = writers[i % 2].write_all(&frame);
            if written.is_err() {
                break;
            }
            sent.push(began);
        }
        let marker = framed(&encode_request(&WireRequest::Health));
        for w in writers.iter_mut() {
            written = written.and_then(|()| w.write_all(&marker));
        }
        let replies = reader.join().expect("reply reader panicked");
        written?;
        Ok((sent, replies?))
    })?;
    if replies.len() != sent.len() {
        return Err(io::Error::other(format!(
            "{} frames sent, {} replies",
            sent.len(),
            replies.len()
        )));
    }
    let frames = sent
        .into_iter()
        .zip(replies)
        .map(|(sent, (recv, index))| Frame { sent, recv, index })
        .collect();
    Ok(Phase { start, rate, scheduled, frames })
}

/// Everything the open-loop schedule produced.
struct Session {
    warm: Phase,
    steps: Vec<Phase>,
    /// `(rate, probe, met the objective)`.
    probes: Vec<(f64, Phase, bool)>,
    /// The host's speed read just before each step, and each probe.
    step_speeds: Vec<f64>,
    probe_speeds: Vec<f64>,
}

impl Session {
    /// Every phase in the order it consumed the offered stream.
    fn phases(&self) -> impl Iterator<Item = &Phase> {
        std::iter::once(&self.warm).chain(&self.steps).chain(self.probes.iter().map(|p| &p.1))
    }
}

fn drive(
    addr: SocketAddr,
    offered: &mut Offered,
    sched: &Schedule,
    host: &mut HostSpeed,
    tracer: &Tracer,
) -> io::Result<Session> {
    let mut conns = Conns::open(addr)?;
    let mut at = 0usize;
    let mut next_phase = |conns: &mut Conns, rate: f64, len: Duration, limited: bool| {
        let count = ((rate * len.as_secs_f64()).round() as usize).max(1);
        let limit = limited.then(|| (sched.late_limit, sched.backlog_cap(rate)));
        let phase = run_phase(conns, &offered.upto(at + count)[at..], rate, limit)?;
        at += phase.frames.len();
        Ok::<_, io::Error>(phase)
    };
    let warm = {
        let _p = tracer.phase("net.warmup");
        next_phase(&mut conns, sched.warm_rate, sched.warm_len, false)?
    };
    let mut steps = Vec::with_capacity(sched.steps);
    let mut step_speeds = Vec::with_capacity(sched.steps);
    for s in 0..sched.steps {
        let layers = s.is_multiple_of(2);
        tracer.set_layers(layers);
        let _p = tracer.phase(if layers { "net.step" } else { "net.step.untraced" });
        step_speeds.push(host.tick(tracer));
        let step = next_phase(&mut conns, sched.step_rate, sched.window, false)?;
        for (due, f) in step.served() {
            let (due, sent, recv, seq) =
                (step.at(due), step.at(f.sent), step.at(f.recv), Some(f.index));
            if let Some(id) = tracer.record("net.request", due, recv, None, seq) {
                tracer.record("net.pace", due, sent, Some(id), seq);
                tracer.record("net.wire", sent, recv, Some(id), seq);
            }
        }
        steps.push(step);
    }
    tracer.set_layers(true);
    // The capacity search: an up-down staircase, up after a probe that
    // meets the objective and down after one that misses.  Its step starts
    // at COARSE, shrinks to its square root at each reversal (down to FINE)
    // and grows back to its square after three moves the same way, so it
    // closes in on the boundary quickly and recovers from a fluke miss.
    let (mut rate, mut step, mut run) = (sched.start_rate, COARSE, 0);
    let mut probes: Vec<(f64, Phase, bool)> = Vec::with_capacity(sched.probes);
    let mut probe_speeds = Vec::with_capacity(sched.probes);
    for _ in 0..sched.probes {
        let _p = tracer.phase("net.probe");
        probe_speeds.push(host.tick(tracer));
        let probe = next_phase(&mut conns, rate, sched.window, true)?;
        let pass = probe.errors() == 0
            && probe.ok() as f64 >= 0.98 * probe.scheduled as f64
            && probe.p(0.9) <= us(sched.slo_p90);
        match probes.last() {
            Some(&(_, _, last)) if last != pass => (step, run) = (step.sqrt().max(FINE), 1),
            _ => run += 1,
        }
        if run >= 3 {
            step = (step * step).min(COARSE);
        }
        probes.push((rate, probe, pass));
        rate = if pass { rate * step } else { rate / step };
        rate = rate.clamp(sched.rates.0, sched.rates.1);
    }
    Ok(Session { warm, steps, probes, step_speeds, probe_speeds })
}

/// The rate that best separates the probes that met the objective from the
/// ones that missed it: the probed rate `T` for which the most probes agree
/// (met at or below `T`, missed above it), the geometric mean if several
/// tie.  A fluke miss below the boundary, or a lucky pass above it, costs
/// one vote instead of moving the estimate.  0 if no rate beats "none met".
fn capacity<P>(probes: &[(f64, P, bool)]) -> f64 {
    let votes = |t: f64| probes.iter().filter(|&&(r, _, met)| met == (r <= t)).count();
    let mut best = (votes(0.0), Vec::new());
    for &(t, _, _) in probes {
        let v = votes(t);
        if v > best.0 {
            best = (v, vec![t]);
        } else if v == best.0 && t > 0.0 && !best.1.contains(&t) {
            best.1.push(t);
        }
    }
    let ties = best.1;
    if ties.is_empty() {
        return 0.0;
    }
    (ties.iter().map(|t| t.ln()).sum::<f64>() / ties.len() as f64).exp()
}

struct Built {
    plane: Plane6,
    build_rows: usize,
    gen: Duration,
}

/// The n-node system, serving its §2 plane.
fn setup(n: usize, tracer: &Tracer) -> Built {
    let _p = tracer.phase("setup");
    let sys = inproc::build_system(n, tracer);
    let plane = FrozenPlane::freeze(Arc::clone(&sys.g), sys.suite.stretch6, sys.names);
    Built { plane: ShardedPlane::new(plane, sys.map), build_rows: sys.build_rows, gen: sys.gen }
}

pub fn run(cfg: &RunConfig, tracer: &Tracer) -> Result<Outcome, String> {
    let n = if cfg.smoke { 64 } else { 600 };
    let mut out = Outcome::default();
    let mut clock = probes::SetupClock::start();
    out.host.tick(tracer);
    let Built { plane, build_rows, .. } = clock.time(|| setup(n, tracer), |b| b.gen);
    out.exact("metric.build_rows", build_rows as f64);
    out.exact("table_bytes", probes::table_bytes(plane.plane()) as f64);

    let serve_config = ServeConfig::default();
    let sched = Schedule::new(cfg, &serve_config);
    let mut offered = Offered { n, seed: cfg.seed ^ 0x7e7, requests: Vec::new() };
    let g = plane.plane().graph();
    let engine = Engine::new(EngineConfig::with_workers(WORKERS));
    let oracle = LazyDijkstraOracle::new(g, 2 * n);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let shutdown = AtomicBool::new(false);
    let (requests_before, batches_before) =
        (probes::counter("serve.net.requests"), probes::counter("serve.engine.batches"));
    let (served, session) = std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            rtr_serve::serve(
                listener,
                &engine,
                &plane,
                &oracle,
                &VerifyConfig::full(),
                &serve_config,
                &shutdown,
            )
        });
        let session = drive(addr, &mut offered, &sched, &mut out.host, tracer);
        shutdown.store(true, Ordering::SeqCst);
        (server.join().expect("server thread panicked"), session)
    });
    let served = served.map_err(|e| format!("server: {e}"))?;
    let session = session.map_err(|e| format!("wire generator: {e}"))?;
    let net_requests = probes::counter("serve.net.requests") - requests_before;
    let net_batches = probes::counter("serve.engine.batches") - batches_before;

    // Failures count against the warm-up and fixed-rate phases: frames
    // rejected, never sent or never answered.  The capacity probes overload
    // the server on purpose; their rejections only fail the probe.
    for phase in std::iter::once(&session.warm).chain(&session.steps) {
        out.attempted += phase.scheduled as u64;
        out.failed += (phase.scheduled - phase.ok()) as u64;
    }

    // Rebuild the admitted stream from the returned indices; the session
    // report must equal an in-process serve of exactly that stream.
    let check_phase = tracer.phase("check");
    let mut admitted: Vec<Option<Request>> = vec![None; served.served as usize];
    let (mut offered_frames, mut rejected) = (0usize, 0usize);
    // Phases consume the offered stream in order, one request per frame sent.
    for (f, request) in session.phases().flat_map(|p| &p.frames).zip(&offered.requests) {
        offered_frames += 1;
        if f.index == REJECTED {
            rejected += 1;
            continue;
        }
        match admitted.get_mut(f.index as usize) {
            Some(slot @ None) => *slot = Some(*request),
            _ => out.problem(format!("reply index {} out of range or repeated", f.index)),
        }
    }
    let stream: Vec<Request> = admitted.into_iter().flatten().collect();
    out.check(stream.len() == served.served as usize && rejected as u64 == served.rejected, || {
        format!(
            "server served {} and rejected {}; replies rebuilt {} and show {rejected} rejected",
            served.served,
            served.rejected,
            stream.len()
        )
    });
    let replay_oracle = LazyDijkstraOracle::new(g, 2 * n);
    let replay = {
        let _l = tracer.layer("engine.serve_verified_sharded");
        engine.serve_verified_sharded(&plane, &stream, &replay_oracle, &VerifyConfig::full())
    }
    .map_err(|e| format!("in-process replay: {e}"))?;
    out.check(replay.report == served.verified.report, || {
        "wire session report differs from the in-process serve of the admitted stream".to_string()
    });

    let step_p50: Vec<f64> = session.steps.iter().map(|s| s.p(0.5)).collect();
    let step_p90: Vec<f64> = session.steps.iter().map(|s| s.p(0.9)).collect();
    for (&p50, &speed) in step_p50.iter().zip(&session.step_speeds) {
        out.window("p50_us", p50, speed);
    }
    out.median("p90_us", step_p90);
    // Each probe's rate restated at host speed 1 with the speed read just
    // before it, as `Outcome::window` restates a window's rate.
    let nominal: Vec<(f64, (), bool)> = session
        .probes
        .iter()
        .zip(&session.probe_speeds)
        .map(|(&(rate, _, met), &speed)| (rate / speed, (), met))
        .collect();
    out.exact("qps", capacity(&nominal));
    let report = &served.verified.report;
    out.exact("stretch_mean", report.aggregate_stretch());
    out.exact("stretch_mean.stretch6", report.aggregate_stretch());
    let vstats = oracle.stats();
    out.exact("metric.verify_rows", vstats.rows_computed as f64);
    out.exact("metric.verify_hit_ratio", oracle.hit_rate());
    out.exact("verify.warmup_s", session.warm.wall().as_secs_f64());
    out.exact("core.batch_fill", net_requests as f64 / net_batches.max(1) as f64);
    let fixed: Vec<f64> = session.steps.iter().flat_map(Phase::latency_us).collect();
    let fixed_sorted = sorted(&fixed);
    out.value("net.p99_us", percentile(&fixed_sorted, 0.99), fixed.clone());
    out.value("net.p999_us", percentile(&fixed_sorted, 0.999), fixed.clone());
    let late: Vec<f64> = session.steps.iter().flat_map(Phase::late_us).collect();
    out.value("net.late_p99_us", percentile(&sorted(&late), 0.99), late);
    out.exact("net.samples", fixed.len() as f64);
    let per_step = session.steps.first().map_or(0, |s| s.frames.len());
    out.note(format!(
        "traffic: loopback 127.0.0.1, open loop, 2 connections, {} CPU(s), {offered_frames} \
         frames offered, {rejected} rejected during capacity probes; {} fixed-rate steps of \
         {per_step} frames (p90 supported from 100); fixed-rate tail p{} = {:.1} us over {} \
         samples",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        session.steps.len(),
        stats::supported_tail(fixed.len()).map_or(50.0, |p| p * 100.0),
        percentile(&fixed_sorted, stats::supported_tail(fixed.len()).unwrap_or(0.5)),
        fixed.len()
    ));
    out.note(format!("capacity as measured: {:.0} frames/s", capacity(&session.probes)));
    for ((rate, probe, pass), speed) in session.probes.iter().zip(&session.probe_speeds) {
        out.note(format!(
            "probe {rate:.0} frames/s at host speed {speed:.3}: {} of {} delivered, p90 {:.1} us, \
             {}",
            probe.ok(),
            probe.scheduled,
            probe.p(0.9),
            if *pass { "meets the objective" } else { "misses the objective" }
        ));
    }

    if tracer.enabled() {
        let _l = tracer.layer("probe.layers");
        layer_probes(&plane, &engine, &replay_oracle, &stream, tracer, &mut out)?;
        let codec_us = [
            "codec.route_req_enc_ns",
            "codec.route_req_dec_ns",
            "codec.route_resp_enc_ns",
            "codec.route_resp_dec_ns",
        ]
        .map(|m| out.get(m))
        .iter()
        .sum::<f64>()
            / 1e3;
        let wire: Vec<f64> = session.steps.iter().flat_map(Phase::wire_us).collect();
        let overhead = stats::median(&wire) - out.get("stream.batch1_us") - codec_us;
        out.exact("frontdoor.overhead_us", overhead);
        // Layer spans were on for the even steps.
        let mut p50s = [Vec::new(), Vec::new()];
        for (s, &p50) in step_p50.iter().enumerate() {
            p50s[usize::from(s.is_multiple_of(2))].push(p50);
        }
        out.trace_overhead(&p50s);
        probes::row_probe(g, 32, &mut out);
    }
    out.exact("peak_rss_mib", probes::peak_rss_mib()?);
    drop(check_phase);
    drop((replay_oracle, oracle));
    drop(plane);
    for _ in 1..SETUPS_SMALL {
        out.host.tick(tracer);
        clock.time(|| setup(n, tracer), |b| b.gen);
    }
    clock.finish(true, &mut out);
    Ok(out)
}

/// Per-layer costs behind one frame: the codec, a one-request verified
/// batch, and the engine and hop loop over an in-process replay of the
/// admitted stream.
fn layer_probes(
    plane: &Plane6,
    engine: &Engine,
    warm_oracle: &LazyDijkstraOracle<'_>,
    stream: &[Request],
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    // One-request batches on a warm oracle: the serving core's share of a frame.
    let sample = &stream[..stream.len().min(1024)];
    let mut session = engine.open_stream(plane, warm_oracle, &VerifyConfig::full());
    let (mut batch1, mut routes) = (Vec::new(), Vec::new());
    for r in sample {
        let t = Instant::now();
        let trips = session
            .serve_batch(std::slice::from_ref(r))
            .map_err(|e| format!("one-request batches: {e}"))?;
        batch1.push(us(t.elapsed()));
        routes.extend(trips.iter().map(|t| ServedRoute {
            index: t.index as u64,
            hops: t.hops as u32,
            weight: t.weight,
        }));
    }
    out.median("stream.batch1_us", batch1);

    let reqs: Vec<WireRequest> =
        sample.iter().map(|r| WireRequest::Route { src: r.src.0, dst: r.dst.0 }).collect();
    let resps: Vec<WireResponse> = routes.into_iter().map(WireResponse::Route).collect();
    let req_bytes: Vec<Vec<u8>> = reqs.iter().map(encode_request).collect();
    let resp_bytes: Vec<Vec<u8>> = resps.iter().map(encode_response).collect();
    let pairs: Vec<(u32, u32)> = sample.iter().take(64).map(|r| (r.src.0, r.dst.0)).collect();
    let batch64 = vec![encode_request(&WireRequest::Batch(pairs))];
    /// Nanoseconds per call of `f`, cycling over `items` for at least 1024
    /// calls; one sample per repeat.
    fn per_call<T, R>(items: &[T], f: impl Fn(&T) -> R) -> Vec<f64> {
        let laps = (1024 / items.len().max(1)).max(1);
        (0..7)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..laps {
                    items.iter().for_each(|x| drop(black_box(f(black_box(x)))));
                }
                t.elapsed().as_nanos() as f64 / (laps * items.len()).max(1) as f64
            })
            .collect()
    }
    out.median("codec.route_req_enc_ns", per_call(&reqs, encode_request));
    out.median("codec.route_req_dec_ns", per_call(&req_bytes, |b| decode_request(b)));
    out.median("codec.route_resp_enc_ns", per_call(&resps, encode_response));
    out.median("codec.route_resp_dec_ns", per_call(&resp_bytes, |b| decode_response(b)));
    out.median("codec.batch64_req_dec_ns", per_call(&batch64, |b| decode_request(b)));
    out.exact("codec.route_req_bytes", (4 + req_bytes.first().map_or(0, Vec::len)) as f64);
    out.exact("codec.route_resp_bytes", (4 + resp_bytes.first().map_or(0, Vec::len)) as f64);

    // The engine layer over an in-process replay of the admitted stream.
    let t = Instant::now();
    let verified = engine
        .serve_verified_sharded(plane, stream, warm_oracle, &VerifyConfig::full())
        .map_err(|e| format!("warm replay: {e}"))?;
    let probe = EngineProbe::measure(plane, stream, t.elapsed(), tracer)?;
    out.exact("verify.flush_ms", ms(verified.cost.flush_wall));
    out.exact("verify.flushes", verified.cost.flushes as f64);
    out.exact("verify.row_fetches", verified.cost.row_fetches as f64);
    out.exact("sim.ns_per_hop.stretch6", probe.ns_per_hop());
    out.exact("sim.hops_per_query.stretch6", probe.hops_per_query());
    let mut samples = EngineSamples::default();
    samples.push(&probe);
    samples.report(out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_backlog_stays_under_the_admission_budget_at_any_length() {
        let serve = ServeConfig::default();
        for seconds in [1.0, 15.0, 77.0, 600.0] {
            let cfg = RunConfig { seed: 1, seconds, smoke: false };
            let sched = Schedule::new(&cfg, &serve);
            assert!(sched.backlog_cap(sched.rates.1) < serve.inflight_max, "{seconds} s");
            assert!(sched.steps >= 4 && sched.probes >= 6, "{seconds} s");
        }
    }

    #[test]
    fn capacity_is_the_rate_that_best_separates_met_from_missed() {
        let p = |r: f64, pass: bool| (r, (), pass);
        let reads = |probes: &[(f64, (), bool)], want: f64| {
            let got = capacity(probes);
            assert!((got - want).abs() < 1e-9, "{probes:?}: {got} != {want}");
        };
        // Climbs 10 → 12.5, misses at 15.6, then hovers below it.
        reads(&[p(10.0, true), p(12.5, true), p(15.6, false), p(15.0, true), p(15.6, false)], 15.0);
        // A fluke miss at 11 costs a vote but does not move the estimate.
        reads(&[p(10.0, true), p(11.0, false), p(13.0, true), p(14.0, true), p(16.0, false)], 14.0);
        // Two rates that tie: their geometric mean.
        reads(&[p(10.0, true), p(12.0, false), p(14.4, true), p(16.0, false)], 12.0);
        reads(&[p(10.0, true), p(12.5, true)], 12.5);
        reads(&[p(10.0, false), p(9.6, false)], 0.0);
    }
}
