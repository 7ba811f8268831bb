//! CI gate: diff fresh baseline artifacts against the checked-in seeds.
//!
//! Usage: `check_serve_baseline <baseline.json> <current.json> [<baseline2>
//! <current2> …]`.  Each pair is gated independently by
//! [`rtr_bench::baseline::compare`] under the table of the pair's kind
//! (`SERVE` for `BENCH_serve*.json`, `CHAOS` for `"kind": "chaos"`), which
//! names every field with its rule: what must match, what hard-fails, what
//! only warns.  Any failing pair fails the gate.
//!
//! Exit status 1 when a gated quantity regressed, 2 when a pair cannot be
//! compared: an unreadable file, two kinds, or a field the table does not
//! name.  To update a baseline intentionally, regenerate it with the CI
//! parameters (docs/OPERATIONS.md §2) and commit the new file.

use rtr_bench::baseline::{compare, load};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || !args.len().is_multiple_of(2) {
        eprintln!(
            "usage: check_serve_baseline <baseline.json> <current.json> [<baseline2> <current2> …]"
        );
        std::process::exit(2);
    }
    let mut failed = false;
    for pair in args.chunks_exact(2) {
        let diff = load(&pair[0])
            .and_then(|baseline| compare(&baseline, &load(&pair[1])?))
            .unwrap_or_else(|e| {
                eprintln!("FAIL: cannot compare {} with {}: {e}", pair[0], pair[1]);
                std::process::exit(2);
            });
        for w in &diff.warnings {
            println!("WARN: {}: {w}", pair[0]);
        }
        for f in &diff.failures {
            eprintln!("FAIL: {}: {f}", pair[0]);
        }
        if diff.failures.is_empty() {
            println!("baseline ok: {} gated against {}", pair[1], pair[0]);
        }
        failed |= !diff.failures.is_empty();
    }
    if failed {
        std::process::exit(1);
    }
}
