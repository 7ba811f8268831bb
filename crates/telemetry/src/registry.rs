//! The process-wide registry: name → metric maps, span aggregation and the
//! flight recorder.  The maps are locked only on handle creation and on
//! export; metric writes go straight to the shared atomics.

use crate::metrics::{Counter, CounterInner, DurationHistogram, Gauge, GaugeInner, HistogramInner};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Default flight-recorder capacity: the last K completed traces.
const FLIGHT_CAPACITY: usize = 128;

/// Aggregated timing for one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Completions recorded under this path.
    pub count: u64,
    /// Total time across completions, in nanoseconds.
    pub total_ns: u64,
    /// The slowest completion, in nanoseconds.
    pub max_ns: u64,
}

/// One completed trace in the flight recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The full span path (`outer/inner`).
    pub path: String,
    /// The detail argument of `span!("name", detail)`, or empty.
    pub detail: String,
    /// Wall time of the span, in nanoseconds.
    pub dur_ns: u64,
    /// Completion time as nanoseconds since the registry was created
    /// (monotonic clock).
    pub at_ns: u64,
}

#[derive(Debug)]
struct Flight {
    capacity: usize,
    ring: VecDeque<TraceEvent>,
}

/// The process-wide telemetry store.  Obtain it via [`registry`]; create
/// standalone instances only in tests.
#[derive(Debug)]
pub struct Registry {
    epoch: Instant,
    counters: Mutex<BTreeMap<String, Arc<CounterInner>>>,
    gauges: Mutex<BTreeMap<String, Arc<GaugeInner>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramInner>>>,
    spans: Mutex<BTreeMap<String, SpanStats>>,
    flight: Mutex<Flight>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry with the default flight capacity.
    pub fn new() -> Self {
        Registry {
            epoch: Instant::now(),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            spans: Mutex::new(BTreeMap::new()),
            flight: Mutex::new(Flight { capacity: FLIGHT_CAPACITY, ring: VecDeque::new() }),
        }
    }

    /// The counter `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        Counter::new(get_or_insert(&self.counters, name))
    }

    /// The gauge `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge::new(get_or_insert(&self.gauges, name))
    }

    /// The duration histogram `name`, created on first use.
    pub fn histogram(&self, name: &str) -> DurationHistogram {
        DurationHistogram::new(get_or_insert(&self.histograms, name))
    }

    /// The current total of counter `name`, or 0 if it was never touched.
    pub fn counter_value(&self, name: &str) -> u64 {
        let map = self.counters.lock().expect("telemetry counter map poisoned");
        map.get(name).map(|c| Counter::new(Arc::clone(c)).value()).unwrap_or(0)
    }

    /// The `(value, high_water)` of gauge `name`, or `(0, 0)` if absent.
    pub fn gauge_value(&self, name: &str) -> (u64, u64) {
        let map = self.gauges.lock().expect("telemetry gauge map poisoned");
        map.get(name).map(|g| g.snapshot()).unwrap_or((0, 0))
    }

    /// Every span path with its aggregated stats, sorted by path.
    pub fn spans(&self) -> Vec<(String, SpanStats)> {
        let map = self.spans.lock().expect("telemetry span map poisoned");
        map.iter().map(|(p, s)| (p.clone(), *s)).collect()
    }

    /// The flight recorder's current contents, oldest first.
    pub fn flight(&self) -> Vec<TraceEvent> {
        let flight = self.flight.lock().expect("telemetry flight recorder poisoned");
        flight.ring.iter().cloned().collect()
    }

    /// Resizes the flight recorder, dropping the oldest entries if shrinking.
    pub fn set_flight_capacity(&self, capacity: usize) {
        let mut flight = self.flight.lock().expect("telemetry flight recorder poisoned");
        flight.capacity = capacity;
        while flight.ring.len() > capacity {
            flight.ring.pop_front();
        }
    }

    /// Records one completed span: aggregates under `path` and appends a
    /// [`TraceEvent`] to the flight recorder.
    pub(crate) fn complete_span(&self, path: String, detail: String, dur: Duration) {
        let dur_ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
        {
            let mut spans = self.spans.lock().expect("telemetry span map poisoned");
            let stats = spans.entry(path.clone()).or_default();
            stats.count += 1;
            stats.total_ns = stats.total_ns.saturating_add(dur_ns);
            stats.max_ns = stats.max_ns.max(dur_ns);
        }
        let at_ns = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut flight = self.flight.lock().expect("telemetry flight recorder poisoned");
        if flight.capacity == 0 {
            return;
        }
        while flight.ring.len() >= flight.capacity {
            flight.ring.pop_front();
        }
        flight.ring.push_back(TraceEvent { path, detail, dur_ns, at_ns });
    }

    /// Zeroes every metric and clears span aggregates and the flight
    /// recorder.  Registered names (and outstanding handles) stay valid.
    pub fn reset(&self) {
        for inner in self.counters.lock().expect("telemetry counter map poisoned").values() {
            inner.reset();
        }
        for inner in self.gauges.lock().expect("telemetry gauge map poisoned").values() {
            inner.reset();
        }
        for inner in self.histograms.lock().expect("telemetry histogram map poisoned").values() {
            inner.reset();
        }
        self.spans.lock().expect("telemetry span map poisoned").clear();
        self.flight.lock().expect("telemetry flight recorder poisoned").ring.clear();
    }

    pub(crate) fn counters_snapshot(&self) -> Vec<(String, u64)> {
        let map = self.counters.lock().expect("telemetry counter map poisoned");
        map.iter().map(|(n, c)| (n.clone(), Counter::new(Arc::clone(c)).value())).collect()
    }

    pub(crate) fn gauges_snapshot(&self) -> Vec<(String, u64, u64)> {
        let map = self.gauges.lock().expect("telemetry gauge map poisoned");
        map.iter()
            .map(|(n, g)| {
                let (v, hw) = g.snapshot();
                (n.clone(), v, hw)
            })
            .collect()
    }

    pub(crate) fn histograms_snapshot(
        &self,
    ) -> Vec<(String, u64, u64, u64, [u64; crate::HISTOGRAM_BUCKETS])> {
        let map = self.histograms.lock().expect("telemetry histogram map poisoned");
        map.iter()
            .map(|(n, h)| {
                let handle = DurationHistogram::new(Arc::clone(h));
                (n.clone(), handle.count(), handle.sum_ns(), handle.max_ns(), h.bucket_counts())
            })
            .collect()
    }
}

/// The metric registered under `name`, inserted on first use.  A name that
/// is already registered is found without allocating its key.
fn get_or_insert<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut map = map.lock().expect("telemetry metric map poisoned");
    if let Some(inner) = map.get(name) {
        return Arc::clone(inner);
    }
    Arc::clone(map.entry(name.to_owned()).or_default())
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

/// The global registry every free function and `span!` records into.
pub fn registry() -> &'static Registry {
    REGISTRY.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flight_recorder_is_bounded() {
        let r = Registry::new();
        r.set_flight_capacity(3);
        for i in 0..10u32 {
            r.complete_span(format!("p{i}"), String::new(), Duration::from_nanos(1));
        }
        let flight = r.flight();
        let paths: Vec<&str> = flight.iter().map(|e| e.path.as_str()).collect();
        assert_eq!(paths, ["p7", "p8", "p9"]);
    }

    #[test]
    fn reset_clears_values_but_keeps_handles() {
        let _guard = crate::test_lock();
        let r = Registry::new();
        let c = r.counter("x");
        c.add(5);
        r.gauge("g").set(3);
        r.complete_span("s".into(), String::new(), Duration::from_nanos(9));
        r.reset();
        assert_eq!(c.value(), 0);
        assert_eq!(r.gauge_value("g"), (0, 0));
        assert!(r.spans().is_empty());
        assert!(r.flight().is_empty());
        c.add(2);
        assert_eq!(r.counter_value("x"), 2);
    }
}
