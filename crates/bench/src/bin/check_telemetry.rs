//! CI gate: cross-check a telemetry registry export against the baseline
//! artifact of the **same run**.
//!
//! Usage: `check_telemetry <telemetry.json> <baseline.json> [<telemetry2>
//! <baseline2> …]`.  Each pair must come from one bench invocation and is
//! checked by [`rtr_bench::baseline::telemetry_mismatches`], whose tables
//! (`SERVE_TELEMETRY`, `CHAOS_TELEMETRY`) say which exported counter,
//! gauge or histogram must equal which artifact value.  The counters are
//! incremented by the code paths that feed the artifact, so any
//! disagreement means the observability plane misreports the serving or
//! repair plane.  The bench binaries run the same check before they exit.
//!
//! Exit status 1 on a mismatch, 2 on an unreadable or malformed file.

use rtr_bench::baseline::{load, telemetry_mismatches};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || !args.len().is_multiple_of(2) {
        eprintln!(
            "usage: check_telemetry <telemetry.json> <baseline.json> [<telemetry2> <baseline2> …]"
        );
        std::process::exit(2);
    }
    let mut failed = false;
    for pair in args.chunks_exact(2) {
        let mismatches = load(&pair[0])
            .and_then(|telemetry| telemetry_mismatches(&telemetry, &load(&pair[1])?))
            .unwrap_or_else(|e| {
                eprintln!("FAIL: cannot cross-check {} with {}: {e}", pair[0], pair[1]);
                std::process::exit(2);
            });
        for m in &mismatches {
            eprintln!("FAIL: {}: {m}", pair[0]);
        }
        if mismatches.is_empty() {
            println!("telemetry ok: {} matches {}", pair[0], pair[1]);
        }
        failed |= !mismatches.is_empty();
    }
    if failed {
        std::process::exit(1);
    }
}
