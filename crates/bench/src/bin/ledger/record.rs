//! The run record `--out` writes, and the reader `ledger compare` uses.
//!
//! A record is `{"ledger": 1, "runs": [...]}` with one run object per line,
//! so a run over every workload can merge its children's records line by line.

use crate::catalogue::{Spec, Workload};
use crate::stats;
use crate::trace::{self, SpanRec};
use crate::{Outcome, RunConfig};
use rtr_bench::baseline::JsonValue;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;
use std::time::Duration;

/// A metric with at most this many samples has them all in the record.
const RAW_MAX: usize = 256;

/// Where a run was measured.
struct Host {
    parallelism: usize,
    rustc: String,
    git_rev: String,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn host() -> Host {
    Host {
        parallelism: std::thread::available_parallelism().map_or(1, |p| p.get()),
        rustc: command_line("rustc", &["-V"]),
        git_rev: command_line("git", &["rev-parse", "HEAD"]),
    }
}

/// The record's JSON reader takes no escapes: keep strings plain.
fn plain(s: &str) -> String {
    s.chars().map(|c| if c == '"' || c == '\\' || c.is_control() { '\'' } else { c }).collect()
}

/// One run as a single-line JSON object.
pub fn run_json(
    workload: Workload,
    cfg: &RunConfig,
    traced: bool,
    out: &Outcome,
    reported: &[(&'static Spec, f64)],
    spans: &[SpanRec],
    wall: Duration,
) -> String {
    let host = host();
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"workload\": \"{workload}\", \"why\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"available_parallelism\": {}, \"rustc\": \"{}\", \"git_rev\": \"{}\", \
         \"loopback\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"wall_s\": {}",
        workload.why(),
        cfg.seed,
        cfg.seconds,
        u8::from(traced),
        host.parallelism,
        plain(&host.rustc),
        plain(&host.git_rev),
        u8::from(workload == Workload::NetRoute),
        u8::from(out.correct()),
        out.attempted,
        out.failed,
        wall.as_secs_f64(),
    );
    s.push_str(", \"metrics\": [");
    for (i, (spec, value)) in reported.iter().enumerate() {
        let samples = out.samples(spec.name);
        let (q1, median, q3) = stats::quartiles(samples);
        let _ = write!(
            s,
            "{}{{\"name\": \"{}\", \"value\": {value}, \"unit\": \"{}\", \"better\": \"{}\", \
             \"samples\": {}, \"q1\": {q1}, \"median\": {median}, \"q3\": {q3}",
            if i == 0 { "" } else { ", " },
            spec.name,
            spec.unit,
            spec.better.name(),
            samples.len(),
        );
        // Window samples are few; per-request ones stay summarised.
        if samples.len() <= RAW_MAX {
            let raw: Vec<String> = samples.iter().map(f64::to_string).collect();
            let _ = write!(s, ", \"raw\": [{}]", raw.join(", "));
        }
        s.push('}');
    }
    s.push_str("], \"notes\": [");
    let notes: Vec<String> =
        out.notes.iter().chain(&out.problems).map(|n| format!("\"{}\"", plain(n))).collect();
    s.push_str(&notes.join(", "));
    let _ = write!(s, "], \"coverage\": {}, \"spans\": [", trace::coverage(spans, wall));
    for (i, (span, own)) in spans.iter().zip(trace::self_times(spans)).enumerate() {
        let _ = write!(
            s,
            "{}{{\"name\": \"{}\", \"start_us\": {}, \"end_us\": {}, \"self_us\": {}, \
             \"parent\": {}, \"seq\": {}}}",
            if i == 0 { "" } else { ", " },
            span.name,
            span.start.as_secs_f64() * 1e6,
            span.end.as_secs_f64() * 1e6,
            own.as_secs_f64() * 1e6,
            span.parent.map_or(-1, |p| p as i64),
            span.seq.map_or(-1, |q| q as i64),
        );
    }
    s.push_str("]}");
    s
}

pub fn document(runs: &[String]) -> String {
    format!("{{\"ledger\": 1, \"runs\": [\n{}\n]}}\n", runs.join(",\n"))
}

/// The run lines of a record written by [`document`].
pub fn run_lines(text: &str) -> Vec<String> {
    text.lines()
        .filter(|l| l.starts_with("{\"workload\""))
        .map(|l| l.trim_end_matches(',').to_string())
        .collect()
}

/// `(workload, metric) → value` for every run in a record file.
pub fn read_values(path: &str) -> Result<BTreeMap<(String, String), f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut values = BTreeMap::new();
    for run in
        doc.field("runs").and_then(JsonValue::as_array).map_err(|e| format!("{path}: {e}"))?
    {
        let workload = run.field("workload").and_then(JsonValue::as_string)?;
        for m in run.field("metrics").and_then(JsonValue::as_array)? {
            let name = m.field("name").and_then(JsonValue::as_string)?;
            let value = m.field("value").and_then(JsonValue::as_f64)?;
            if values.insert((workload.clone(), name.clone()), value).is_some() {
                return Err(format!("{path}: {workload} {name} appears twice"));
            }
        }
    }
    Ok(values)
}
