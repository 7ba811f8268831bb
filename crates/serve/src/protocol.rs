//! The wire codec: length-prefixed frames, request/response records, and the
//! binary [`VerifiedReport`] encoding.
//!
//! **`docs/PROTOCOL.md` is the normative reference** for every byte laid
//! down here — framing, the version byte, opcodes, status codes, record
//! layouts and worked examples.  This module is its executable mirror; when
//! the two disagree, the document wins and the code is wrong.
//!
//! Decoding is strict: unknown versions, unknown opcodes, truncated bodies
//! and trailing bytes are all rejected with a precise [`Status`], so every
//! valid payload has exactly one encoding (encode→decode is the identity,
//! and every strict prefix of a valid payload is rejected — both are
//! property-tested against the proptest shim).

use rtr_engine::{StretchHistogram, VerifiedReport, VerifiedTrip};
use rtr_graph::NodeId;
use std::fmt;
use std::io::{self, Read, Write};

/// The protocol version this build speaks, carried as the first payload
/// byte of every frame in both directions.
pub const VERSION: u8 = 1;

/// Default ceiling on a frame's payload length; longer frames are rejected
/// before allocation ([`Status::TooLarge`] server-side, an I/O error
/// client-side).  The `/metrics` JSON and verified reports fit comfortably.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Request opcodes (payload byte 1 of a request frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Serve one route query (`src`, `dst`).
    Route = 0x01,
    /// Serve a batch of route queries in one frame.
    Batch = 0x02,
    /// Liveness probe with serving-plane vitals.
    Health = 0x03,
    /// The telemetry registry as `Registry::to_json()`, verbatim.
    Metrics = 0x04,
    /// The session's [`VerifiedReport`] so far.
    Report = 0x05,
    /// Ask the server to stop accepting and close the session.
    Shutdown = 0x06,
}

impl Opcode {
    /// The opcode's wire byte.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Parses a wire byte (`None` for unassigned opcodes).
    pub fn from_code(b: u8) -> Option<Opcode> {
        match b {
            0x01 => Some(Opcode::Route),
            0x02 => Some(Opcode::Batch),
            0x03 => Some(Opcode::Health),
            0x04 => Some(Opcode::Metrics),
            0x05 => Some(Opcode::Report),
            0x06 => Some(Opcode::Shutdown),
            _ => None,
        }
    }
}

/// Response status codes (payload byte 2 of a response frame).  Non-`Ok`
/// responses carry a UTF-8 diagnostic message as their body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// The request was served; the body is the opcode's result record.
    Ok = 0x00,
    /// The payload could not be decoded (truncated, trailing bytes, bad
    /// counts, invalid UTF-8).
    Malformed = 0x01,
    /// The version byte is not [`VERSION`].
    UnsupportedVersion = 0x02,
    /// The opcode byte is unassigned.
    UnknownOpcode = 0x03,
    /// A node id is out of range, or a query routes a node to itself.
    BadNode = 0x04,
    /// Admission control: the in-flight budget is exhausted; retry later.
    Overloaded = 0x05,
    /// A frame or batch exceeds the configured size ceiling.
    TooLarge = 0x06,
    /// The engine failed to serve the frame; the connection is still
    /// usable.
    Internal = 0x07,
}

impl Status {
    /// The status's wire byte.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Parses a wire byte (`None` for unassigned codes).
    pub fn from_code(b: u8) -> Option<Status> {
        match b {
            0x00 => Some(Status::Ok),
            0x01 => Some(Status::Malformed),
            0x02 => Some(Status::UnsupportedVersion),
            0x03 => Some(Status::UnknownOpcode),
            0x04 => Some(Status::BadNode),
            0x05 => Some(Status::Overloaded),
            0x06 => Some(Status::TooLarge),
            0x07 => Some(Status::Internal),
            _ => None,
        }
    }

    /// Short stable name (`"ok"`, `"overloaded"`, …) for logs and reports.
    pub fn name(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Malformed => "malformed",
            Status::UnsupportedVersion => "unsupported_version",
            Status::UnknownOpcode => "unknown_opcode",
            Status::BadNode => "bad_node",
            Status::Overloaded => "overloaded",
            Status::TooLarge => "too_large",
            Status::Internal => "internal",
        }
    }
}

/// A decode failure: the [`Status`] the server answers with, plus a
/// diagnostic message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The status code describing the failure class.
    pub status: Status,
    /// Human-readable diagnostic (becomes the error response body).
    pub message: String,
}

impl WireError {
    fn malformed(message: impl Into<String>) -> Self {
        WireError { status: Status::Malformed, message: message.into() }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.status.name(), self.message)
    }
}

impl std::error::Error for WireError {}

/// A decoded request payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireRequest {
    /// One route query from `src` to `dst` (raw node ids).
    Route {
        /// Source node id.
        src: u32,
        /// Destination node id.
        dst: u32,
    },
    /// A batch of `(src, dst)` route queries, admitted and served together.
    Batch(Vec<(u32, u32)>),
    /// Liveness probe.
    Health,
    /// Telemetry registry export.
    Metrics,
    /// The verified report so far.
    Report,
    /// Stop the server.
    Shutdown,
}

impl WireRequest {
    /// The request's opcode.
    pub fn opcode(&self) -> Opcode {
        match self {
            WireRequest::Route { .. } => Opcode::Route,
            WireRequest::Batch(_) => Opcode::Batch,
            WireRequest::Health => Opcode::Health,
            WireRequest::Metrics => Opcode::Metrics,
            WireRequest::Report => Opcode::Report,
            WireRequest::Shutdown => Opcode::Shutdown,
        }
    }
}

/// One served route in a response: the server-assigned global stream index
/// plus the measured roundtrip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServedRoute {
    /// Global index the session assigned this query in admission order —
    /// the key clients use to reconstruct the exact served stream.
    pub index: u64,
    /// Total hops of the served roundtrip.
    pub hops: u32,
    /// Measured roundtrip weight.
    pub weight: u64,
}

/// The `HEALTH` response body: serving-plane vitals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthInfo {
    /// Nodes in the frozen plane.
    pub nodes: u32,
    /// Destination shards of the sharded plane.
    pub shards: u32,
    /// Route queries admitted but not yet answered.
    pub in_flight: u64,
    /// Route queries served since startup.
    pub served: u64,
    /// Route queries rejected by admission control since startup.
    pub rejected: u64,
    /// True while the operator has marked the substrate degraded (a fault
    /// window between injection and repair).  Served routes may exceed the
    /// proven stretch ceiling until this clears; clients that need the
    /// ceiling should treat a degraded server like an `OVERLOADED` response
    /// — back off and retry after repair (see `docs/PROTOCOL.md` §6).
    pub degraded: bool,
}

/// A decoded response payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireResponse {
    /// `ROUTE` succeeded.
    Route(ServedRoute),
    /// `BATCH` succeeded; one record per query, in request order.
    Batch(Vec<ServedRoute>),
    /// `HEALTH` vitals.
    Health(HealthInfo),
    /// `METRICS`: the registry JSON, verbatim.
    Metrics(String),
    /// `REPORT`: the session's verified report so far.
    Report(VerifiedReport),
    /// `SHUTDOWN` acknowledged.
    Shutdown,
    /// Any request that failed: the echoed opcode byte (raw, since unknown
    /// opcodes echo too), the failure status, and a diagnostic message.
    Error {
        /// The request's opcode byte, echoed back (0 when the request was
        /// too short to carry one).
        opcode: u8,
        /// The failure class.
        status: Status,
        /// Human-readable diagnostic.
        message: String,
    },
}

// ---------------------------------------------------------------------------
// Primitive readers/writers.

/// A strict big-endian cursor over a payload slice.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.buf.len()).ok_or_else(|| {
            WireError::malformed(format!("truncated payload: wanted {n} more bytes"))
        })?;
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("4-byte slice")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("8-byte slice")))
    }

    fn u128(&mut self) -> Result<u128, WireError> {
        Ok(u128::from_be_bytes(self.take(16)?.try_into().expect("16-byte slice")))
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.at..];
        self.at = self.buf.len();
        s
    }

    /// Rejects trailing bytes — every record must consume its payload
    /// exactly, so encodings are canonical.
    fn done(&self) -> Result<(), WireError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::malformed(format!("{} trailing bytes", self.buf.len() - self.at)))
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_be_bytes());
}

// ---------------------------------------------------------------------------
// Requests.

/// Encodes a request into a frame payload (version byte, opcode, body).
pub fn encode_request(req: &WireRequest) -> Vec<u8> {
    let mut out = vec![VERSION, req.opcode().code()];
    match req {
        WireRequest::Route { src, dst } => {
            put_u32(&mut out, *src);
            put_u32(&mut out, *dst);
        }
        WireRequest::Batch(pairs) => {
            put_u32(&mut out, pairs.len() as u32);
            for &(src, dst) in pairs {
                put_u32(&mut out, src);
                put_u32(&mut out, dst);
            }
        }
        WireRequest::Health
        | WireRequest::Metrics
        | WireRequest::Report
        | WireRequest::Shutdown => {}
    }
    out
}

/// Decodes a request frame payload, strictly (see the module docs).
pub fn decode_request(payload: &[u8]) -> Result<WireRequest, WireError> {
    let mut r = Reader::new(payload);
    let version = r.u8().map_err(|_| WireError::malformed("empty payload"))?;
    if version != VERSION {
        return Err(WireError {
            status: Status::UnsupportedVersion,
            message: format!("version {version}, this build speaks {VERSION}"),
        });
    }
    let op = r.u8().map_err(|_| WireError::malformed("payload has no opcode byte"))?;
    let opcode = Opcode::from_code(op).ok_or(WireError {
        status: Status::UnknownOpcode,
        message: format!("unassigned opcode 0x{op:02x}"),
    })?;
    let req = match opcode {
        Opcode::Route => {
            let src = r.u32()?;
            let dst = r.u32()?;
            WireRequest::Route { src, dst }
        }
        Opcode::Batch => {
            let count = r.u32()? as usize;
            let need = count
                .checked_mul(8)
                .ok_or_else(|| WireError::malformed("batch count overflows"))?;
            if r.buf.len() - r.at != need {
                return Err(WireError::malformed(format!(
                    "batch of {count} needs {need} body bytes, got {}",
                    r.buf.len() - r.at
                )));
            }
            let mut pairs = Vec::with_capacity(count);
            for _ in 0..count {
                pairs.push((r.u32()?, r.u32()?));
            }
            WireRequest::Batch(pairs)
        }
        Opcode::Health => WireRequest::Health,
        Opcode::Metrics => WireRequest::Metrics,
        Opcode::Report => WireRequest::Report,
        Opcode::Shutdown => WireRequest::Shutdown,
    };
    r.done()?;
    Ok(req)
}

// ---------------------------------------------------------------------------
// Responses.

fn put_route(out: &mut Vec<u8>, route: &ServedRoute) {
    put_u64(out, route.index);
    put_u32(out, route.hops);
    put_u64(out, route.weight);
}

fn read_route(r: &mut Reader<'_>) -> Result<ServedRoute, WireError> {
    Ok(ServedRoute { index: r.u64()?, hops: r.u32()?, weight: r.u64()? })
}

/// Encodes a response into a frame payload (version, echoed opcode, status,
/// body).
pub fn encode_response(resp: &WireResponse) -> Vec<u8> {
    let (opcode, status) = match resp {
        WireResponse::Route(_) => (Opcode::Route.code(), Status::Ok),
        WireResponse::Batch(_) => (Opcode::Batch.code(), Status::Ok),
        WireResponse::Health(_) => (Opcode::Health.code(), Status::Ok),
        WireResponse::Metrics(_) => (Opcode::Metrics.code(), Status::Ok),
        WireResponse::Report(_) => (Opcode::Report.code(), Status::Ok),
        WireResponse::Shutdown => (Opcode::Shutdown.code(), Status::Ok),
        WireResponse::Error { opcode, status, .. } => (*opcode, *status),
    };
    let mut out = vec![VERSION, opcode, status.code()];
    match resp {
        WireResponse::Route(route) => put_route(&mut out, route),
        WireResponse::Batch(routes) => {
            put_u32(&mut out, routes.len() as u32);
            for route in routes {
                put_route(&mut out, route);
            }
        }
        WireResponse::Health(h) => {
            put_u32(&mut out, h.nodes);
            put_u32(&mut out, h.shards);
            put_u64(&mut out, h.in_flight);
            put_u64(&mut out, h.served);
            put_u64(&mut out, h.rejected);
            out.push(h.degraded as u8);
        }
        WireResponse::Metrics(json) => out.extend_from_slice(json.as_bytes()),
        WireResponse::Report(report) => encode_report_body(&mut out, report),
        WireResponse::Shutdown => {}
        WireResponse::Error { message, .. } => out.extend_from_slice(message.as_bytes()),
    }
    out
}

/// Decodes a response frame payload, strictly.
pub fn decode_response(payload: &[u8]) -> Result<WireResponse, WireError> {
    let mut r = Reader::new(payload);
    let header = r.take(3).map_err(|_| WireError::malformed("response header is 3 bytes"))?;
    let (version, opcode, status_byte) = (header[0], header[1], header[2]);
    if version != VERSION {
        return Err(WireError {
            status: Status::UnsupportedVersion,
            message: format!("version {version}, this build speaks {VERSION}"),
        });
    }
    let status = Status::from_code(status_byte)
        .ok_or_else(|| WireError::malformed(format!("unassigned status 0x{status_byte:02x}")))?;
    if status != Status::Ok {
        let message = String::from_utf8(r.rest().to_vec())
            .map_err(|_| WireError::malformed("error message is not UTF-8"))?;
        return Ok(WireResponse::Error { opcode, status, message });
    }
    let opcode = Opcode::from_code(opcode).ok_or(WireError {
        status: Status::UnknownOpcode,
        message: format!("ok response with unassigned opcode 0x{opcode:02x}"),
    })?;
    let resp = match opcode {
        Opcode::Route => WireResponse::Route(read_route(&mut r)?),
        Opcode::Batch => {
            let count = r.u32()? as usize;
            let need = count
                .checked_mul(20)
                .ok_or_else(|| WireError::malformed("batch count overflows"))?;
            if r.buf.len() - r.at != need {
                return Err(WireError::malformed(format!(
                    "batch of {count} needs {need} body bytes, got {}",
                    r.buf.len() - r.at
                )));
            }
            let mut routes = Vec::with_capacity(count);
            for _ in 0..count {
                routes.push(read_route(&mut r)?);
            }
            WireResponse::Batch(routes)
        }
        Opcode::Health => WireResponse::Health(HealthInfo {
            nodes: r.u32()?,
            shards: r.u32()?,
            in_flight: r.u64()?,
            served: r.u64()?,
            rejected: r.u64()?,
            degraded: match r.u8()? {
                0 => false,
                1 => true,
                b => {
                    return Err(WireError::malformed(format!("degraded flag must be 0|1, got {b}")))
                }
            },
        }),
        Opcode::Metrics => {
            let json = String::from_utf8(r.rest().to_vec())
                .map_err(|_| WireError::malformed("metrics body is not UTF-8"))?;
            WireResponse::Metrics(json)
        }
        Opcode::Report => WireResponse::Report(decode_report_body(&mut r)?),
        Opcode::Shutdown => WireResponse::Shutdown,
    };
    r.done()?;
    Ok(resp)
}

// ---------------------------------------------------------------------------
// The VerifiedReport record.

fn put_trip(out: &mut Vec<u8>, trip: &VerifiedTrip) {
    put_u64(out, trip.index as u64);
    put_u32(out, trip.source.0);
    put_u32(out, trip.destination.0);
    put_u64(out, trip.measured);
    put_u64(out, trip.exact);
}

fn read_trip(r: &mut Reader<'_>) -> Result<VerifiedTrip, WireError> {
    Ok(VerifiedTrip {
        index: r.u64()? as usize,
        source: NodeId(r.u32()?),
        destination: NodeId(r.u32()?),
        measured: r.u64()?,
        exact: r.u64()?,
    })
}

/// Appends the binary [`VerifiedReport`] record (see `docs/PROTOCOL.md`,
/// "REPORT result record").
fn encode_report_body(out: &mut Vec<u8>, report: &VerifiedReport) {
    put_u64(out, report.queries as u64);
    put_u64(out, report.checked as u64);
    put_u128(out, report.total_measured);
    put_u128(out, report.total_exact);
    let pairs = report.histogram.nonzero_buckets();
    put_u32(out, pairs.len() as u32);
    for (bucket, count) in pairs {
        put_u32(out, bucket as u32);
        put_u64(out, count);
    }
    match &report.worst {
        None => out.push(0),
        Some(trip) => {
            out.push(1);
            put_trip(out, trip);
        }
    }
    put_u32(out, report.violations.len() as u32);
    for trip in &report.violations {
        put_trip(out, trip);
    }
}

/// Reads the binary [`VerifiedReport`] record.  Strict: histogram buckets
/// must ascend and stay in range, the histogram total must equal `checked`,
/// and the worst-trip flag must be 0 or 1 — so decode(encode(r)) ≡ r and
/// corrupted records are rejected rather than misread.
fn decode_report_body(r: &mut Reader<'_>) -> Result<VerifiedReport, WireError> {
    let queries = r.u64()? as usize;
    let checked = r.u64()? as usize;
    let total_measured = r.u128()?;
    let total_exact = r.u128()?;
    let entries = r.u32()? as usize;
    let mut pairs = Vec::with_capacity(entries.min(1024));
    let mut last: Option<usize> = None;
    for _ in 0..entries {
        let bucket = r.u32()? as usize;
        let count = r.u64()?;
        if count == 0 {
            return Err(WireError::malformed("histogram entry with zero count"));
        }
        if last.is_some_and(|l| bucket <= l) {
            return Err(WireError::malformed("histogram buckets must strictly ascend"));
        }
        last = Some(bucket);
        pairs.push((bucket, count));
    }
    let histogram = StretchHistogram::from_nonzero_buckets(&pairs)
        .ok_or_else(|| WireError::malformed("histogram bucket out of range"))?;
    if histogram.count() != checked as u64 {
        return Err(WireError::malformed(format!(
            "histogram counts {} trips, report checked {checked}",
            histogram.count()
        )));
    }
    let worst = match r.u8()? {
        0 => None,
        1 => Some(read_trip(r)?),
        b => return Err(WireError::malformed(format!("worst-trip flag must be 0|1, got {b}"))),
    };
    let violations_len = r.u32()? as usize;
    let remaining = r.buf.len() - r.at;
    let need = violations_len
        .checked_mul(32)
        .ok_or_else(|| WireError::malformed("violation count overflows"))?;
    if remaining != need {
        return Err(WireError::malformed(format!(
            "{violations_len} violations need {need} body bytes, got {remaining}"
        )));
    }
    let mut violations = Vec::with_capacity(violations_len);
    for _ in 0..violations_len {
        violations.push(read_trip(r)?);
    }
    Ok(VerifiedReport {
        queries,
        checked,
        total_measured,
        total_exact,
        histogram,
        worst,
        violations,
    })
}

// ---------------------------------------------------------------------------
// Framing.

/// Writes one frame: a 4-byte big-endian payload length, then the payload,
/// then a flush.
///
/// Prefix and payload go to `w` in one `write_all` of one buffer, so on a
/// `TCP_NODELAY` socket a frame that fits a segment leaves as one segment
/// and the peer wakes once per frame, not once for the prefix and again
/// for the payload.  Receivers must still accept frames split across reads.
///
/// # Panics
///
/// If the payload exceeds `u32::MAX` bytes (callers bound payloads far
/// below [`MAX_FRAME_LEN`]).
///
/// # Errors
///
/// Any I/O error from the underlying writer.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len()).expect("frame payload exceeds u32::MAX");
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame, blocking.  Returns `Ok(None)` on a clean EOF *before*
/// the length prefix (the peer closed between frames); EOF mid-frame is an
/// [`io::ErrorKind::UnexpectedEof`] error, and a length above `max_len` is
/// an [`io::ErrorKind::InvalidData`] error (the frame is not consumed).
///
/// # Errors
///
/// Any I/O error from the underlying reader, plus the two cases above.
pub fn read_frame<R: Read>(r: &mut R, max_len: u32) -> io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    let mut at = 0;
    while at < prefix.len() {
        match r.read(&mut prefix[at..]) {
            Ok(0) if at == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "EOF inside frame prefix"))
            }
            Ok(k) => at += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(prefix);
    if len > max_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {max_len}-byte limit"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips() {
        let reqs = [
            WireRequest::Route { src: 3, dst: 999_999 },
            WireRequest::Batch(vec![(0, 1), (7, 2), (u32::MAX, 0)]),
            WireRequest::Batch(Vec::new()),
            WireRequest::Health,
            WireRequest::Metrics,
            WireRequest::Report,
            WireRequest::Shutdown,
        ];
        for req in reqs {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn response_roundtrips() {
        let resps = [
            WireResponse::Route(ServedRoute { index: 17, hops: 4, weight: 230 }),
            WireResponse::Batch(vec![
                ServedRoute { index: 0, hops: 1, weight: 9 },
                ServedRoute { index: 1, hops: 2, weight: 11 },
            ]),
            WireResponse::Batch(Vec::new()),
            WireResponse::Health(HealthInfo {
                nodes: 600,
                shards: 4,
                in_flight: 12,
                served: 30_000,
                rejected: 2,
                degraded: true,
            }),
            WireResponse::Metrics("{\n  \"counters\": {}\n}\n".to_string()),
            WireResponse::Shutdown,
            WireResponse::Error {
                opcode: 0x42,
                status: Status::Overloaded,
                message: "in-flight budget 8 exceeded".to_string(),
            },
        ];
        for resp in resps {
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn report_roundtrips() {
        let trip = VerifiedTrip {
            index: 41,
            source: NodeId(3),
            destination: NodeId(9),
            measured: 60,
            exact: 20,
        };
        let report = VerifiedReport {
            queries: 100,
            checked: 7,
            total_measured: 1 << 70,
            total_exact: 900,
            histogram: StretchHistogram::from_nonzero_buckets(&[(32, 4), (96, 3)]).unwrap(),
            worst: Some(trip),
            violations: vec![trip],
        };
        let bytes = encode_response(&WireResponse::Report(report.clone()));
        assert_eq!(decode_response(&bytes).unwrap(), WireResponse::Report(report));
    }

    #[test]
    fn header_errors_are_precise() {
        assert_eq!(decode_request(&[]).unwrap_err().status, Status::Malformed);
        assert_eq!(decode_request(&[9, 1]).unwrap_err().status, Status::UnsupportedVersion);
        assert_eq!(decode_request(&[VERSION, 0x7f]).unwrap_err().status, Status::UnknownOpcode);
        // Trailing garbage after a complete record.
        let mut bytes = encode_request(&WireRequest::Health);
        bytes.push(0);
        assert_eq!(decode_request(&bytes).unwrap_err().status, Status::Malformed);
    }

    #[test]
    fn frames_roundtrip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor, 16).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor, 16).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor, 16).unwrap().is_none());

        let mut buf = Vec::new();
        write_frame(&mut buf, &[0u8; 64]).unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor, 16).unwrap_err().kind(), io::ErrorKind::InvalidData);

        // EOF inside the payload.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abcdef").unwrap();
        buf.truncate(7);
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor, 16).unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }

    /// Accepts every byte it is offered and counts the write calls.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_call() {
        for len in [0, 27, 64 << 10] {
            let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut w = CountingWriter::default();
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.writes, 1, "{len}-byte payload");
            assert_eq!(w.bytes[..4], (len as u32).to_be_bytes());
            assert_eq!(w.bytes[4..], payload[..]);
        }
    }
}
