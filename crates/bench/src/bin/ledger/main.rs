//! `ledger` — one verified benchmark over build, serving, wire and repair,
//! with per-layer attribution.
//!
//! ```text
//! ledger [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
//! ledger compare PARENT.json… CHANGE.json…
//! ```
//!
//! A run prints `workload metric value unit` for every metric and, as its
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.  Untraced runs report the end-to-end metrics; `--trace` runs
//! report the per-layer ones.  Without `--workload` the binary re-runs
//! itself once per workload, so each gets its own process and peak memory.
//! Any failed check exits non-zero.  README.md in this directory lists the
//! workloads, the metrics and how to read them.

mod catalogue;
mod chaos;
mod compare;
mod inproc;
mod net;
mod probes;
mod record;
mod stats;
mod trace;

use catalogue::{Spec, Workload, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Engine worker threads of every measured serve.  One: on the 2-vCPU
/// reference host a two-worker pool's speed swings with whatever else holds
/// the second core, by over 1.5× between processes; one worker leaves that
/// core to the OS, the oracle's Dijkstra prefetch and the wire generator.
pub const WORKERS: usize = 1;
/// The multi-worker pool a traced run measures beside it (`engine.*`).
pub const POOL_WORKERS: usize = 2;
/// Destination shards of every sharded plane.
pub const SHARDS: usize = 4;
/// Set-ups per run of the n = 2000 workloads, and of the cheaper n = 600
/// ones; `setup_s` is their median.
pub const SETUPS: usize = 3;
pub const SETUPS_SMALL: usize = 7;
/// Seed of the system each workload measures: its graph, the adversary's
/// node names and the shard hash.  `--seed` draws what is offered to that
/// system — the request streams and the fault plans — so runs under
/// different seeds measure the same system on different traffic.
pub const SYSTEM_SEED: u64 = 42;

pub struct RunConfig {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Tiny graphs for the test-suite smoke runs.
    pub smoke: bool,
}

impl RunConfig {
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

struct Measured {
    value: f64,
    samples: Vec<f64>,
}

/// One end-to-end timing's windows: as measured, and restated at host speed 1.
#[derive(Default)]
struct Windows {
    measured: Vec<f64>,
    nominal: Vec<f64>,
}

/// Everything one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    values: BTreeMap<&'static str, Measured>,
    windows: BTreeMap<&'static str, Windows>,
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    notes: Vec<String>,
    /// The host's speed over the run, read before every set-up and window.
    pub host: probes::HostSpeed,
}

impl Outcome {
    /// A value computed from `samples` (a percentile, say).
    pub fn value(&mut self, name: &'static str, value: f64, samples: Vec<f64>) {
        debug_assert!(catalogue::spec(name).is_some(), "{name} is not in the catalogue");
        self.values.insert(name, Measured { value, samples });
    }

    /// The median of `samples`.
    pub fn median(&mut self, name: &'static str, samples: Vec<f64>) {
        self.value(name, stats::median(&samples), samples);
    }

    /// A value measured once: a count, or a ratio of run totals.
    pub fn exact(&mut self, name: &'static str, value: f64) {
        self.value(name, value, vec![value]);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |m| m.value)
    }

    fn samples(&self, name: &str) -> &[f64] {
        self.values.get(name).map_or(&[], |m| &m.samples)
    }

    /// Records a failed correctness check.
    pub fn problem(&mut self, problem: String) {
        self.problems.push(problem);
    }

    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problem(problem());
        }
    }

    /// A line of context printed with the run and kept in its record.
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// `trace.overhead`: the median wall of the repeated unit with layer
    /// spans on over the median with them off (`walls = [off, on]`).
    pub fn trace_overhead(&mut self, walls: &[Vec<f64>; 2]) {
        let ratio = stats::median(&walls[1]) / stats::median(&walls[0]);
        self.exact("trace.overhead", ratio);
    }

    /// One window's reading of an end-to-end timing, restated at the
    /// reference host's full speed with the `speed` read just before the
    /// window: a time is multiplied by it, a rate divided by it.  The
    /// metric is the median over the run's windows.
    pub fn window(&mut self, name: &'static str, measured: f64, speed: f64) {
        let nominal = match catalogue::spec(name).map(|s| s.unit) {
            Some("queries/s") => measured / speed,
            _ => measured * speed,
        };
        let w = self.windows.entry(name).or_default();
        w.measured.push(measured);
        w.nominal.push(nominal);
    }

    /// Reports the windowed timings and restates `setup_s`, whose set-ups
    /// are too long for one reading, with the host's speed over the run.
    /// The values as measured stay in a note; per-layer timings are left as
    /// measured.
    fn at_nominal_speed(&mut self) {
        let mut measured = Vec::new();
        for (name, w) in std::mem::take(&mut self.windows) {
            measured.push(format!("{name} {}", stats::median(&w.measured)));
            self.median(name, w.nominal);
        }
        let speed = self.host.speed();
        if let Some(m) = self.values.get_mut("setup_s") {
            measured.push(format!("setup_s {}", m.value));
            m.value *= speed;
        }
        let readings = self.host.readings();
        self.note(format!(
            "host speed {speed:.4} over {} readings; timings as measured: {}",
            readings.len(),
            measured.join(", ")
        ));
        self.value("host.speed", speed, readings);
    }
}

fn run_workload(w: Workload, cfg: &RunConfig, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = match w {
        Workload::ZipfWarm | Workload::UniformCold => inproc::run(w, cfg, tracer),
        Workload::NetRoute => net::run(cfg, tracer),
        Workload::ChaosRepair => chaos::run(cfg, tracer),
    }?;
    out.at_nominal_speed();
    Ok(out)
}

/// The metrics a run reports — every end-to-end metric untraced, every
/// per-layer metric traced — checking that each one the workload should
/// measure was measured.  Layers the workload never calls report 0.  A
/// measured 0 (no capacity at all, say) is reported as measured: it is a
/// bad number, not a failed check.
fn select(w: Workload, traced: bool, out: &mut Outcome) -> Vec<(&'static Spec, f64)> {
    let specs = if traced { PER_LAYER } else { END_TO_END };
    let mut reported = Vec::with_capacity(specs.len());
    for spec in specs {
        let value = match out.values.get(spec.name) {
            Some(m) => m.value,
            None if spec.on.contains(&w) => {
                out.problem(format!("{} was not measured", spec.name));
                0.0
            }
            None => 0.0,
        };
        if !value.is_finite() {
            out.problem(format!("{} = {value} is not a usable measurement", spec.name));
        }
        reported.push((spec, if value.is_finite() { value } else { 0.0 }));
    }
    reported
}

fn result_line(out: &Outcome, reported: &[(&Spec, f64)]) -> String {
    let metrics: Vec<String> = reported
        .iter()
        .map(|(s, v)| format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", s.name, s.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

const USAGE: &str = "usage: ledger [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
                     [--out FILE]\n       ledger compare PARENT.json... CHANGE.json...";

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args { workload: None, seed: 42, seconds: 12.0, trace: false, out: None };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                parsed.trace = true;
                if let Some(v @ ("0" | "1")) = it.peek().map(|s| s.as_str()) {
                    parsed.trace = v == "1";
                    it.next();
                }
            }
            "--out" => parsed.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn run_one(w: Workload, args: &Args) -> ExitCode {
    let cfg = RunConfig { seed: args.seed, seconds: args.seconds, smoke: false };
    let tracer = Tracer::new(args.trace);
    let started = Instant::now();
    let result = run_workload(w, &cfg, &tracer);
    let wall = started.elapsed();
    let spans = tracer.into_spans();
    let mut out = result.unwrap_or_else(|e| {
        let mut out = Outcome::default();
        out.problem(e);
        out
    });
    if args.trace {
        out.note(format!("top-level spans cover {:.3} of the wall", trace::coverage(&spans, wall)));
    }
    let reported = select(w, args.trace, &mut out);
    for (spec, value) in &reported {
        println!("{w} {} {value} {}", spec.name, spec.unit);
    }
    for note in &out.notes {
        println!("# {w} {note}");
    }
    for problem in &out.problems {
        eprintln!("ledger: {w}: {problem}");
    }
    if let Some(path) = &args.out {
        let run = record::run_json(w, &cfg, args.trace, &out, &reported, &spans, wall);
        if let Err(e) = std::fs::write(path, record::document(&[run])) {
            eprintln!("ledger: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result_line(&out, &reported));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// net-route runs on one CPU: the generator, the connection threads and the
/// serving core share it, so no frame waits for another vCPU to be woken.
/// On the 2-vCPU reference host, cross-vCPU wakeups made the capacity of
/// five identical unpinned runs range from 28.6k to 47.8k frames/s, and of
/// five pinned runs from 32.6k to 34.9k.  The binary re-runs itself under
/// `taskset` on the first CPU it may use and passes the child's exit code
/// on; a process already limited to one CPU, or a host without `taskset`,
/// runs the workload directly.
fn run_pinned(argv: &[String]) -> Option<ExitCode> {
    if std::thread::available_parallelism().map_or(1, |p| p.get()) == 1 {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpu: u32 = allowed.trim().split([',', '-']).next()?.parse().ok()?;
    let exe = std::env::current_exe().ok()?;
    let status =
        Command::new("taskset").arg("-c").arg(cpu.to_string()).arg(exe).args(argv).status().ok()?;
    Some(ExitCode::from(status.code().map_or(1, |c| u8::try_from(c).unwrap_or(1))))
}

/// One child process per workload; `--out` collects their records.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("ledger: locating this binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut runs = Vec::new();
    for w in Workload::ALL {
        let mut child = Command::new(&exe);
        child.args(["--workload", w.name()]);
        child.args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()]);
        child.args(["--trace", if args.trace { "1" } else { "0" }]);
        let part = args.out.as_ref().map(|o| format!("{o}.{w}"));
        if let Some(part) = &part {
            child.args(["--out", part]);
        }
        match child.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("ledger: {w} exited with {status}");
                ok = false;
            }
            Err(e) => {
                eprintln!("ledger: running {w}: {e}");
                ok = false;
            }
        }
        if let Some(part) = part {
            if let Ok(text) = std::fs::read_to_string(&part) {
                runs.extend(record::run_lines(&text));
                let _ = std::fs::remove_file(&part);
            }
        }
    }
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, record::document(&runs)) {
            eprintln!("ledger: writing {path}: {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match compare::run(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("ledger: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    match parse(&argv) {
        Ok(args) => match args.workload {
            Some(Workload::NetRoute) => {
                run_pinned(&argv).unwrap_or_else(|| run_one(Workload::NetRoute, &args))
            }
            Some(w) => run_one(w, &args),
            None => run_all(&args),
        },
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(w: Workload, traced: bool) -> (Outcome, Vec<(&'static Spec, f64)>, f64) {
        let cfg = RunConfig { seed: 7, seconds: 0.05, smoke: true };
        let tracer = Tracer::new(traced);
        let started = Instant::now();
        let mut out = run_workload(w, &cfg, &tracer).unwrap_or_else(|e| panic!("{w}: {e}"));
        let wall = started.elapsed();
        let reported = select(w, traced, &mut out);
        (out, reported, trace::coverage(&tracer.into_spans(), wall))
    }

    /// Every workload, untraced and traced, at n = 64: it passes its own
    /// checks, measures every metric the catalogue (and so BENCHMARK.json)
    /// lists for it, and its top-level spans cover its wall time.
    fn smoke_workload(w: Workload) {
        let (out, reported, _) = smoke(w, false);
        assert!(out.correct(), "{w}: {:?}", out.problems);
        let names: Vec<&str> = reported.iter().map(|(s, _)| s.name).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|s| s.name).collect();
        assert_eq!(names, want);
        assert!(reported.iter().all(|&(_, v)| v > 0.0), "{w}: {reported:?}");
        let line = result_line(&out, &reported);
        assert!(line.starts_with("{\"correct\": true,"), "{line}");

        let (out, reported, coverage) = smoke(w, true);
        assert!(out.correct(), "{w} traced: {:?}", out.problems);
        assert_eq!(reported.len(), PER_LAYER.len());
        for spec in PER_LAYER.iter().filter(|s| s.on.contains(&w)) {
            assert!(out.values.contains_key(spec.name), "{w}: {} not measured", spec.name);
        }
        assert!((0.95..=1.0).contains(&coverage), "{w}: spans cover {coverage:.3} of the wall");
    }

    #[test]
    fn smoke_zipf_warm() {
        smoke_workload(Workload::ZipfWarm);
    }

    #[test]
    fn smoke_uniform_cold() {
        smoke_workload(Workload::UniformCold);
    }

    #[test]
    fn smoke_net_route() {
        smoke_workload(Workload::NetRoute);
    }

    #[test]
    fn smoke_chaos_repair() {
        smoke_workload(Workload::ChaosRepair);
    }

    #[test]
    fn arguments_parse_as_benchmark_json_passes_them() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse(&argv("--workload net-route --seed 3 --seconds 10 --trace 0")).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(Workload::NetRoute), 3, 10.0, false)
        );
        assert!(parse(&argv("--trace 1")).unwrap().trace);
        let a = parse(&argv("--trace --seed 5")).unwrap();
        assert!(a.trace && a.seed == 5);
        assert!(parse(&argv("--workload nope")).is_err());
        assert!(parse(&argv("--seconds 0")).is_err());
        assert_eq!(parse(&argv("--seconds 600")).unwrap().seconds, 600.0);
        assert!(parse(&argv("--seconds 601")).is_err());
    }
}
