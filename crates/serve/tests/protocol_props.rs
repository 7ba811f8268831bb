//! Property tests for the wire codec: encode→decode identity, strict-prefix
//! rejection, targeted corruption, and a random-byte fuzz loop — all driven
//! by the in-tree proptest shim.

use proptest::prelude::*;
use rtr_engine::{StretchHistogram, VerifiedReport, VerifiedTrip};
use rtr_graph::NodeId;
use rtr_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, Status, WireRequest,
    WireResponse, VERSION,
};
use rtr_serve::{HealthInfo, ServedRoute};

/// A deterministic request from three seeds (shape, then payload entropy).
fn request_from(shape: u32, a: u64, b: u64) -> WireRequest {
    match shape % 6 {
        0 => WireRequest::Route { src: a as u32, dst: b as u32 },
        1 => {
            let count = (a % 17) as usize;
            let pairs = (0..count)
                .map(|i| {
                    let x = a.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i as u64);
                    let y = b.wrapping_mul(0xbf58_476d_1ce4_e5b9).wrapping_add(i as u64);
                    (x as u32, y as u32)
                })
                .collect();
            WireRequest::Batch(pairs)
        }
        2 => WireRequest::Health,
        3 => WireRequest::Metrics,
        4 => WireRequest::Report,
        _ => WireRequest::Shutdown,
    }
}

fn trip_from(seed: u64) -> VerifiedTrip {
    let mix = |k: u64| seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17).wrapping_add(k);
    VerifiedTrip {
        index: (mix(1) % (1 << 40)) as usize,
        source: NodeId(mix(2) as u32),
        destination: NodeId(mix(3) as u32),
        measured: mix(4) % (1 << 50),
        exact: 1 + mix(5) % (1 << 49),
    }
}

/// A structurally valid synthetic report: ascending nonzero histogram
/// buckets whose total equals `checked`, as the strict decoder demands.
fn report_from(seed: u64, entries: usize, violations: usize) -> VerifiedReport {
    let mix = |k: u64| seed.wrapping_mul(0xbf58_476d_1ce4_e5b9).rotate_left(23).wrapping_add(k);
    let stride = 1 + (mix(0) as usize % 97);
    let pairs: Vec<(usize, u64)> = (0..entries)
        .map(|i| ((i * stride) % StretchHistogram::BUCKET_COUNT, 1 + mix(i as u64 + 1) % 1000))
        .collect();
    let mut pairs: Vec<(usize, u64)> = {
        let mut sorted = pairs;
        sorted.sort_unstable();
        sorted.dedup_by_key(|p| p.0);
        sorted
    };
    pairs.truncate(entries);
    let histogram = StretchHistogram::from_nonzero_buckets(&pairs).expect("valid buckets");
    let checked = histogram.count() as usize;
    VerifiedReport {
        queries: checked + (mix(90) % 1000) as usize,
        checked,
        total_measured: mix(91) as u128 * mix(92) as u128,
        total_exact: mix(93) as u128,
        histogram,
        worst: if mix(94) % 2 == 0 { Some(trip_from(mix(95))) } else { None },
        violations: (0..violations).map(|i| trip_from(mix(100 + i as u64))).collect(),
    }
}

/// A deterministic response from three seeds.
fn response_from(shape: u32, a: u64, b: u64) -> WireResponse {
    match shape % 7 {
        0 => WireResponse::Route(ServedRoute { index: a, hops: b as u32, weight: a ^ b }),
        1 => WireResponse::Batch(
            (0..(a % 9)).map(|i| ServedRoute { index: i, hops: 1, weight: b ^ i }).collect(),
        ),
        2 => WireResponse::Health(HealthInfo {
            nodes: a as u32,
            shards: 1 + (b as u32 % 64),
            in_flight: a % 1000,
            served: b,
            rejected: a % 7,
            degraded: (a ^ b) % 2 == 1,
        }),
        3 => WireResponse::Metrics(format!("{{\n  \"counters\": {{\n    \"x\": {a}\n  }}\n}}\n")),
        4 => WireResponse::Report(report_from(a ^ b, (a % 20) as usize, (b % 5) as usize)),
        5 => WireResponse::Shutdown,
        _ => WireResponse::Error {
            opcode: a as u8,
            status: Status::from_code((b % 7 + 1) as u8).expect("error status"),
            message: format!("diag {a:x}"),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn requests_roundtrip(shape in 0u32..6, a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
        let req = request_from(shape, a, b);
        let bytes = encode_request(&req);
        prop_assert_eq!(decode_request(&bytes).unwrap(), req);
    }

    #[test]
    fn responses_roundtrip(shape in 0u32..7, a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
        let resp = response_from(shape, a, b);
        let bytes = encode_response(&resp);
        prop_assert_eq!(decode_response(&bytes).unwrap(), resp.clone());
    }

    #[test]
    fn strict_prefixes_of_requests_reject(shape in 0u32..6, a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
        let bytes = encode_request(&request_from(shape, a, b));
        for cut in 0..bytes.len() {
            prop_assert!(
                decode_request(&bytes[..cut]).is_err(),
                "prefix of {} bytes decoded", cut
            );
        }
    }

    #[test]
    fn strict_prefixes_of_responses_reject(shape in 0u32..7, a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
        let resp = response_from(shape, a, b);
        let bytes = encode_response(&resp);
        let text_body = matches!(
            &resp,
            WireResponse::Metrics(_) | WireResponse::Error { .. }
        );
        for cut in 0..bytes.len() {
            let decoded = decode_response(&bytes[..cut]);
            if text_body && cut >= 3 {
                // Free-text bodies have no length structure: a prefix is a
                // shorter (still valid) message, never a silent misread of
                // a structured record.
                if let Ok(d) = decoded {
                    prop_assert!(matches!(
                        d,
                        WireResponse::Metrics(_) | WireResponse::Error { .. }
                    ));
                }
            } else {
                prop_assert!(decoded.is_err(), "prefix of {} bytes decoded", cut);
            }
        }
    }

    #[test]
    fn version_and_opcode_corruption_is_precise(shape in 0u32..6, a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
        let mut bytes = encode_request(&request_from(shape, a, b));
        let original = bytes[0];
        bytes[0] = original.wrapping_add(1);
        prop_assert_eq!(decode_request(&bytes).unwrap_err().status, Status::UnsupportedVersion);
        bytes[0] = original;
        bytes[1] = 0x7f; // unassigned opcode
        prop_assert_eq!(decode_request(&bytes).unwrap_err().status, Status::UnknownOpcode);
    }

    #[test]
    fn random_bytes_never_panic(len in 0usize..256, seed in 0u64..u64::MAX) {
        // Fuzz loop: whatever the bytes, both decoders must return, not panic.
        let mut state = seed | 1;
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
        // Force VERSION + a valid opcode so fuzzing reaches the body parsers.
        if bytes.len() >= 2 {
            let mut steered = bytes.clone();
            steered[0] = VERSION;
            steered[1] = 1 + (steered[1] % 6);
            let _ = decode_request(&steered);
            if steered.len() >= 3 {
                steered[2] %= 8;
                let _ = decode_response(&steered);
            }
        }
    }
}

#[test]
fn corrupt_report_records_reject() {
    let report = report_from(42, 6, 2);
    let bytes = encode_response(&WireResponse::Report(report));
    assert!(decode_response(&bytes).is_ok());

    // Histogram count vs checked mismatch.
    let mut bad = bytes.clone();
    bad[18] ^= 1; // low byte of the `checked` u64 (header is 3 bytes, queries 8)
    assert!(decode_response(&bad).is_err());

    // Worst-trip flag out of range: find it by re-encoding a report with no
    // violations and flipping the last flag byte.
    let lone = VerifiedReport { worst: None, violations: Vec::new(), ..report_from(7, 3, 0) };
    let mut bytes = encode_response(&WireResponse::Report(lone));
    let flag_at = bytes.len() - 4 - 1; // before the trailing violations count
    assert_eq!(bytes[flag_at], 0);
    bytes[flag_at] = 9;
    assert!(decode_response(&bytes).is_err());
}
