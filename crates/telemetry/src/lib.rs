//! # rtr-telemetry — zero-dependency metrics, spans and a flight recorder
//!
//! A process-wide [`Registry`] of named **counters**, **gauges** and
//! fixed-bucket **duration histograms**, plus lightweight **spans** with
//! monotonic timing and a bounded ring-buffer **flight recorder** holding
//! the last K completed traces.  Built on `std` only (no shims, no external
//! crates) so every crate in the workspace can instrument itself without
//! adding a dependency edge beyond this one.
//!
//! Design constraints, in order:
//!
//! 1. **Zero contention on the serve hot path.**  Counters are striped over
//!    cache-line-aligned atomics (threads hash to stripes), so concurrent
//!    workers never bounce a line.  Nothing in the per-request path takes a
//!    lock; spans and histograms are reserved for coarse events (build
//!    stages, verify flushes) and touch a mutex only on completion.
//! 2. **Neutrality.**  Telemetry observes, it never steers: enabling or
//!    disabling it must leave every deterministic report bit-identical
//!    (`rtr-engine` has a property test for exactly this).  The off switch,
//!    the runtime no-op sink ([`set_enabled`]`(false)`), turns every write
//!    into a single relaxed load-and-branch.
//! 3. **No registry access at build time.**  Export is hand-rolled JSON
//!    ([`Registry::to_json`]) and a human-readable span tree
//!    ([`Registry::span_report`]), consistent with the rest of the
//!    workspace's artifact style.
//!
//! ```
//! use std::time::Duration;
//!
//! rtr_telemetry::counter("oracle.demo.rows_computed").add(3);
//! rtr_telemetry::gauge("engine.demo.queue_depth").set_max(17);
//! rtr_telemetry::histogram("verify.demo.flush").observe(Duration::from_micros(250));
//! {
//!     let _outer = rtr_telemetry::span!("build.demo");
//!     let _inner = rtr_telemetry::span!("cover.scale_group", 2);
//! } // both spans complete here and aggregate under "build.demo/..."
//! assert_eq!(rtr_telemetry::registry().counter_value("oracle.demo.rows_computed"), 3);
//! let json = rtr_telemetry::registry().to_json();
//! assert!(json.contains("\"oracle.demo.rows_computed\": 3"));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod export;
mod metrics;
mod registry;
mod span;

pub use metrics::{bucket_floor_ns, Counter, DurationHistogram, Gauge, HISTOGRAM_BUCKETS};
pub use registry::{registry, Registry, SpanStats, TraceEvent};
pub use span::Span;

use std::sync::atomic::{AtomicBool, Ordering};

/// Runtime sink switch.  `true` (the default) records everything; `false`
/// turns every instrumentation call into a relaxed load plus a branch.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Flips the runtime no-op sink: `set_enabled(false)` makes every counter
/// add, gauge store, histogram observation and span a no-op until re-enabled.
/// Values already recorded are kept (use [`Registry::reset`] to clear them).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether instrumentation is live: the runtime switch is on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The counter `name` in the global registry (cheap to clone; cache the
/// handle outside loops).
pub fn counter(name: &str) -> Counter {
    registry().counter(name)
}

/// The gauge `name` in the global registry.
pub fn gauge(name: &str) -> Gauge {
    registry().gauge(name)
}

/// The duration histogram `name` in the global registry.
pub fn histogram(name: &str) -> DurationHistogram {
    registry().histogram(name)
}

/// Opens a timed [`Span`] that completes (and records itself) when the
/// returned guard drops.  Spans nest per thread: a span opened while another
/// is live aggregates under the path `outer/inner`.
///
/// `span!("name")` records just the path; `span!("name", detail)` attaches
/// `detail` (anything `Display`) to the flight-recorder event.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::enter($name)
    };
    ($name:expr, $detail:expr) => {
        $crate::Span::enter_with($name, &$detail)
    };
}

/// Serializes tests that read or flip the global sink switch — they run on
/// parallel threads within one test binary and would otherwise race.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn counters_sum_across_threads() {
        let _guard = crate::test_lock();
        let c = counter("test.lib.threads");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 4000);
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let _guard = crate::test_lock();
        let c = counter("test.lib.disabled");
        let g = gauge("test.lib.disabled_gauge");
        let h = histogram("test.lib.disabled_hist");
        set_enabled(false);
        c.add(7);
        g.set(9);
        h.observe(Duration::from_millis(1));
        let s = span!("test.lib.disabled_span");
        drop(s);
        set_enabled(true);
        assert_eq!(c.value(), 0);
        assert_eq!(g.value(), 0);
        assert_eq!(h.count(), 0);
        assert!(registry().spans().iter().all(|(p, _)| !p.contains("disabled_span")));
    }

    #[test]
    fn spans_nest_into_paths() {
        let _guard = crate::test_lock();
        {
            let _a = span!("test.lib.outer");
            let _b = span!("test.lib.inner", 42);
        }
        let spans = registry().spans();
        assert!(spans.iter().any(|(p, s)| p == "test.lib.outer" && s.count >= 1));
        assert!(spans.iter().any(|(p, _)| p == "test.lib.outer/test.lib.inner"));
        let flight = registry().flight();
        assert!(flight
            .iter()
            .any(|e| e.path == "test.lib.outer/test.lib.inner" && e.detail == "42"));
    }
}
