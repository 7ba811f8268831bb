//! # rtr-bench — experiment harnesses and benchmarks
//!
//! One binary per experiment (run with
//! `cargo run -p rtr-bench --release --bin <name>`), the CI baseline
//! artifacts with their gate tables ([`baseline`]), the two checker
//! binaries that apply them, and the ledger benchmark (`src/bin/ledger/`),
//! which times every layer from graph to socket.
//!
//! Every binary is configured through `RTR_*` environment variables, read
//! with [`env_or`], [`env_opt`] and [`env_list`]: a malformed value ends the
//! run with a message naming the variable rather than falling back to a
//! default, and the three baseline-gated binaries also end on any `RTR_*`
//! variable they do not read ([`reject_unread_env`]).  The small sweep
//! experiments share
//!
//! * `RTR_SIZES` — comma-separated node counts (default per experiment),
//! * `RTR_SEEDS` — number of seeds to average over (default 3),
//! * `RTR_PAIRS` — roundtrip requests sampled per configuration (default
//!   2000, or all pairs when the graph is small enough),
//!
//! so the same code scales from a quick smoke run to a full sweep;
//! `docs/OPERATIONS.md` lists every variable of the serving binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rtr_core::analysis::PairSelection;
use rtr_core::naming::NamingAssignment;
use rtr_engine::FrozenPlane;
use rtr_graph::generators::Family;
use rtr_graph::{DiGraph, NodeId};
use rtr_metric::DistanceMatrix;
use rtr_sim::RoundtripRouting;
use std::env::VarError;
use std::ffi::OsString;
use std::fmt::Display;
use std::str::FromStr;

pub mod baseline;

/// Shared experiment configuration read from the environment.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Node counts to sweep.
    pub sizes: Vec<usize>,
    /// Number of random seeds per configuration.
    pub seeds: u64,
    /// Roundtrip requests per configuration.
    pub pairs: usize,
}

impl ExperimentConfig {
    /// Reads the configuration from `RTR_SIZES`, `RTR_SEEDS` and `RTR_PAIRS`,
    /// falling back to the given defaults (also for an empty `RTR_SIZES`).
    pub fn from_env(default_sizes: &[usize], default_seeds: u64, default_pairs: usize) -> Self {
        let sizes = Some(env_list("RTR_SIZES", Vec::new()))
            .filter(|v| !v.is_empty())
            .unwrap_or_else(|| default_sizes.to_vec());
        let seeds = env_or("RTR_SEEDS", default_seeds);
        let pairs = env_or("RTR_PAIRS", default_pairs);
        ExperimentConfig { sizes, seeds, pairs }
    }

    /// The pair-selection policy for a graph of `n` nodes: all pairs when that
    /// is no more work than the sample budget, otherwise a seeded sample.
    pub fn selection(&self, n: usize, seed: u64) -> PairSelection {
        if n * (n - 1) <= self.pairs {
            PairSelection::AllPairs
        } else {
            PairSelection::Sampled { count: self.pairs, seed }
        }
    }
}

/// Prints `FAIL: msg` and ends the process with status 1: how a bench
/// binary reports a failed gate.
pub fn fail(msg: impl Display) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1);
}

/// Parses the value `raw` of environment variable `key`, naming the variable
/// in the error.
fn parse_env<T: FromStr>(key: &str, raw: &str) -> Result<T, String> {
    raw.trim()
        .parse()
        .map_err(|_| format!("{key}: {raw:?} is not a valid {}", std::any::type_name::<T>()))
}

/// Parses the comma-separated list `raw` of environment variable `key`; an
/// empty value is an empty list.
fn parse_env_list<T: FromStr>(key: &str, raw: &str) -> Result<Vec<T>, String> {
    if raw.trim().is_empty() {
        return Ok(Vec::new());
    }
    raw.split(',').map(|item| parse_env(key, item)).collect()
}

/// Environment variable `key`, `None` when unset.  Exits through [`fail`]
/// on a value that is not UTF-8.
fn env_raw(key: &str) -> Option<String> {
    match std::env::var(key) {
        Ok(raw) => Some(raw),
        Err(VarError::NotPresent) => None,
        Err(e) => fail(format!("{key}: {e}")),
    }
}

/// Environment variable `key` parsed as a `T`, `None` when unset.
///
/// A run with a malformed value would silently measure something else, so a
/// value that does not parse ends the process through [`fail`], naming the
/// variable.
pub fn env_opt<T: FromStr>(key: &str) -> Option<T> {
    env_raw(key).map(|raw| parse_env(key, &raw).unwrap_or_else(|e| fail(e)))
}

/// Environment variable `key` parsed as a `T`, or `default` when unset;
/// exits on a malformed value like [`env_opt`].
pub fn env_or<T: FromStr>(key: &str, default: T) -> T {
    env_opt(key).unwrap_or(default)
}

/// Environment variable `key` parsed as a comma-separated list, or `default`
/// when unset; exits on a malformed item like [`env_opt`].
pub fn env_list<T: FromStr>(key: &str, default: Vec<T>) -> Vec<T> {
    env_raw(key).map_or(default, |raw| parse_env_list(key, &raw).unwrap_or_else(|e| fail(e)))
}

/// The `RTR_*` variables among `keys` that `read` does not list, sorted.
fn unread_env(keys: impl IntoIterator<Item = OsString>, read: &[&str]) -> Vec<String> {
    let mut unread: Vec<String> = keys
        .into_iter()
        .map(|key| key.to_string_lossy().into_owned())
        .filter(|key| key.starts_with("RTR_") && !read.contains(&key.as_str()))
        .collect();
    unread.sort_unstable();
    unread
}

/// Ends the process through [`fail`] when the environment sets an `RTR_*`
/// variable that is not in `read`, the list of variables the binary reads.
/// The run would ignore it and measure its defaults instead, so the message
/// names each such variable.
pub fn reject_unread_env(read: &[&str]) {
    let unread = unread_env(std::env::vars_os().map(|(key, _)| key), read);
    if !unread.is_empty() {
        fail(format!(
            "{}: not read by this binary (it reads {})",
            unread.join(", "),
            read.join(", ")
        ));
    }
}

/// A plane's routing tables summed over every node
/// ([`rtr_sim::TableStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableFootprint {
    /// Table entries over all nodes.
    pub entries: u64,
    /// Total table size in bytes.
    pub bytes: u64,
    /// Largest single-node table, in bits.
    pub worst_node_bits: u64,
}

/// Sums `plane`'s per-node table statistics.
pub fn table_footprint<S: RoundtripRouting>(plane: &FrozenPlane<S>) -> TableFootprint {
    let (mut entries, mut bits, mut worst_node_bits) = (0u64, 0u128, 0u64);
    for v in (0..plane.node_count()).map(NodeId::from_index) {
        let stats = plane.scheme().table_stats(v);
        entries += stats.entries as u64;
        bits += stats.bits as u128;
        worst_node_bits = worst_node_bits.max(stats.bits as u64);
    }
    TableFootprint { entries, bytes: (bits / 8) as u64, worst_node_bits }
}

/// A generated experiment instance: graph, metric, naming.
#[derive(Debug)]
pub struct Instance {
    /// Family label for reporting.
    pub family: &'static str,
    /// The graph.
    pub graph: DiGraph,
    /// Its all-pairs distances.
    pub metric: DistanceMatrix,
    /// The adversarial TINN naming.
    pub names: NamingAssignment,
}

/// Builds an experiment instance of `family` with ≈`n` nodes.
pub fn instance(family: Family, n: usize, seed: u64) -> Instance {
    let graph = family.generate(n, seed).expect("generator failed");
    let metric = DistanceMatrix::build(&graph);
    let names = NamingAssignment::random(graph.node_count(), seed ^ 0x9e37_79b9);
    Instance { family: family.name(), graph, metric, names }
}

/// Prints a section banner so experiment output is self-describing.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_apply() {
        let cfg = ExperimentConfig::from_env(&[64, 128], 3, 500);
        assert!(!cfg.sizes.is_empty());
        assert!(cfg.seeds >= 1);
        assert!(cfg.pairs >= 1);
    }

    #[test]
    fn malformed_environment_values_name_their_variable() {
        assert_eq!(parse_env::<usize>("RTR_WORKERS", "4"), Ok(4));
        assert_eq!(parse_env::<usize>("RTR_WORKERS", " 16\n"), Ok(16));
        assert_eq!(parse_env::<f64>("RTR_CHAOS_DIRTY_BUDGET", "0.22"), Ok(0.22));
        for (key, raw) in [("RTR_WORKERS", "four"), ("RTR_SEED", "-1"), ("RTR_N", "")] {
            let err = parse_env::<u64>(key, raw).unwrap_err();
            assert!(err.starts_with(key) && err.contains(&format!("{raw:?}")), "{err}");
        }
        assert_eq!(parse_env_list::<usize>("RTR_SIZES", "64, 128"), Ok(vec![64, 128]));
        assert_eq!(parse_env_list::<usize>("RTR_WORKER_SWEEP", ""), Ok(vec![]));
        assert_eq!(parse_env_list::<f64>("RTR_CHAOS_FRACTIONS", "0.02,0.1"), Ok(vec![0.02, 0.1]));
        for raw in ["64,12a", "64,,128", "1,2,"] {
            let err = parse_env_list::<usize>("RTR_SIZES", raw).unwrap_err();
            assert!(err.starts_with("RTR_SIZES"), "{err}");
        }
    }

    #[test]
    fn unread_variables_are_named() {
        let keys = ["PATH", "RTR_SEED", "RTR_N", "RTR_CACHE"].map(OsString::from);
        assert_eq!(unread_env(keys.clone(), &["RTR_N"]), ["RTR_CACHE", "RTR_SEED"]);
        assert!(unread_env(keys, &["RTR_N", "RTR_SEED", "RTR_CACHE"]).is_empty());
    }

    #[test]
    fn selection_switches_to_sampling_for_large_graphs() {
        let cfg = ExperimentConfig { sizes: vec![64], seeds: 1, pairs: 100 };
        assert!(matches!(cfg.selection(8, 0), PairSelection::AllPairs));
        assert!(matches!(cfg.selection(64, 0), PairSelection::Sampled { count: 100, .. }));
    }

    #[test]
    fn instances_are_reproducible() {
        let a = instance(Family::Gnp, 32, 5);
        let b = instance(Family::Gnp, 32, 5);
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
        assert_eq!(a.names, b.names);
    }
}
