//! The ledger's own span recorder.
//!
//! A traced run wraps each call the ledger makes into a layer in a span —
//! name, start, end, parent, and for wire requests the request's sequence
//! number.  Spans stay in memory and go to `--out` at exit with their self
//! time (duration minus the part of it their children cover).  Nothing here
//! reaches inside the program; the program's own spans are read from
//! `rtr_telemetry::registry()` instead.

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    /// Offsets from the tracer's epoch.
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub seq: Option<u64>,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// A traced run: phase spans are recorded.
    enabled: bool,
    /// Layer spans are recorded too; traced runs switch this off on
    /// alternate rounds to measure what tracing costs.
    layers: Cell<bool>,
    spans: RefCell<Vec<SpanRec>>,
    open: RefCell<Vec<usize>>,
}

/// Closes its span on drop.
#[must_use]
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: Option<usize>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let end = self.tracer.epoch.elapsed();
            self.tracer.spans.borrow_mut()[id].end = end;
            let popped = self.tracer.open.borrow_mut().pop();
            debug_assert_eq!(popped, Some(id), "spans close in reverse order");
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            layers: Cell::new(enabled),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn layers_on(&self) -> bool {
        self.enabled && self.layers.get()
    }

    pub fn set_layers(&self, on: bool) {
        self.layers.set(on);
    }

    /// A top-level or grouping span: recorded in every traced round.
    pub fn phase(&self, name: &'static str) -> Guard<'_> {
        self.open_span(name, self.enabled)
    }

    /// A span around one call into a layer.
    pub fn layer(&self, name: &'static str) -> Guard<'_> {
        self.open_span(name, self.layers_on())
    }

    fn open_span(&self, name: &'static str, on: bool) -> Guard<'_> {
        if !on {
            return Guard { tracer: self, id: None };
        }
        let start = self.epoch.elapsed();
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        spans.push(SpanRec { name, start, end: start, parent, seq: None });
        let id = spans.len() - 1;
        self.open.borrow_mut().push(id);
        Guard { tracer: self, id: Some(id) }
    }

    /// Records a span timed elsewhere (the wire generator's per-request
    /// spans) under the innermost open span, or under `parent`.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        seq: Option<u64>,
    ) -> Option<usize> {
        if !self.layers_on() {
            return None;
        }
        let parent = parent.or_else(|| self.open.borrow().last().copied());
        let at = |t: Instant| t.saturating_duration_since(self.epoch);
        let mut spans = self.spans.borrow_mut();
        spans.push(SpanRec { name, start: at(start), end: at(end), parent, seq });
        Some(spans.len() - 1)
    }

    pub fn into_spans(self) -> Vec<SpanRec> {
        self.spans.into_inner()
    }
}

/// Each span's duration minus the union of its children's intervals.
pub fn self_times(spans: &[SpanRec]) -> Vec<Duration> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Share of `wall` the top-level spans cover.
pub fn coverage(spans: &[SpanRec], wall: Duration) -> f64 {
    let top: Duration = spans.iter().filter(|s| s.parent.is_none()).map(|s| s.end - s.start).sum();
    top.as_secs_f64() / wall.as_secs_f64().max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name: "t",
            start: Duration::from_micros(start),
            end: Duration::from_micros(end),
            parent,
            seq: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [span(0, 100, None), span(10, 40, Some(0)), span(30, 60, Some(0))];
        let own = self_times(&spans);
        assert_eq!(own[0], Duration::from_micros(50));
        assert_eq!(own[1], Duration::from_micros(30));
        assert_eq!(coverage(&spans, Duration::from_micros(200)), 0.5);
    }

    #[test]
    fn layer_spans_nest_and_switch_off() {
        let tracer = Tracer::new(true);
        {
            let _p = tracer.phase("round");
            let _l = tracer.layer("call");
        }
        tracer.set_layers(false);
        {
            let _p = tracer.phase("round");
            let _l = tracer.layer("call");
        }
        let spans = tracer.into_spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(names, [("round", None), ("call", Some(0)), ("round", None)]);
        assert!(Tracer::new(false).phase("x").id.is_none());
    }
}
