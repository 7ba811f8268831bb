//! Telemetry overhead gate: serving with the sink enabled must stay within a
//! generous fixed factor of serving with the runtime no-op sink.  The strict
//! production gate (1.25× on the n=600 smoke) lives in the
//! `serve_throughput` benchmark behind `RTR_TELEMETRY_MAX_OVERHEAD`; this
//! test is the always-on tier-1 backstop with enough slack (1.5× plus an
//! absolute floor) to stay robust on noisy shared runners.
//!
//! One `#[test]` function on purpose: `rtr_telemetry::set_enabled` flips a
//! process-global flag, so enabled/disabled timing must stay sequential.
//! Runs are interleaved (on, off, on, off, …) and the minimum of five is
//! compared, which cancels warm-up and scheduler noise far better than
//! comparing single runs.

use rtr_core::naming::NamingAssignment;
use rtr_core::SchemeSuite;
use rtr_engine::{Engine, EngineConfig, FrozenPlane, ShardMap, ShardedPlane, Workload};
use rtr_graph::generators::strongly_connected_gnp;
use rtr_metric::DistanceMatrix;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn enabled_telemetry_stays_within_bounded_overhead_of_the_noop_sink() {
    let n = 60;
    let g = Arc::new(strongly_connected_gnp(n, 0.1, 7).unwrap());
    let dense = DistanceMatrix::build(&g);
    let names = NamingAssignment::random(n, 0xfeed);
    let suite = SchemeSuite::build(&g, &dense, &names);
    let (stretch6, _, _) = suite.into_parts();
    let plane = FrozenPlane::freeze(Arc::clone(&g), stretch6, Arc::new(names.to_names()));
    let sharded = ShardedPlane::new(plane, ShardMap::hashed(n, 4, 0xA11CE));
    let requests = Workload::Mix.generate(n, 4000, 3);
    let engine = Engine::new(EngineConfig::with_workers(4));

    let run = |enabled: bool| -> Duration {
        rtr_telemetry::set_enabled(enabled);
        let started = Instant::now();
        let outcome = engine.serve_sharded(&sharded, &requests).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(outcome.summary.queries, requests.len());
        elapsed
    };

    // Warm up both paths once, then interleave five timed pairs.
    run(true);
    run(false);
    let mut best_on = Duration::MAX;
    let mut best_off = Duration::MAX;
    for _ in 0..5 {
        best_on = best_on.min(run(true));
        best_off = best_off.min(run(false));
    }
    rtr_telemetry::set_enabled(true);

    // 1.5× the no-op wall plus a 10 ms absolute floor: sub-floor runs are
    // dominated by thread spawn/join noise, not by telemetry.
    let budget = best_off.mul_f64(1.5) + Duration::from_millis(10);
    assert!(
        best_on <= budget,
        "telemetry overhead out of bounds: enabled {best_on:?} vs no-op {best_off:?} \
         (budget {budget:?})"
    );
}
