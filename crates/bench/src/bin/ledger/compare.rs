//! `ledger compare PARENT.json… CHANGE.json…`: the paired-runs rule for
//! calling a change better, worse or neither, per (metric, workload).
//!
//! Parent run `i` pairs with change run `i`, so the runs should alternate
//! which side goes first.  A change improves a metric only when it wins at
//! least nine tenths of the pairs (ties count for neither side) and the
//! medians differ by more than the parent's interquartile range.  An
//! end-to-end metric is worse when the change's median is worse than the
//! parent's by more than the metric's bound, and unresolved when either
//! side's spread exceeds the bound, unless every change run beats every
//! parent run.

use crate::catalogue::{self, Better};
use crate::record;
use crate::stats::quartiles;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Worse,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Positive when `c` reads better than `p`.
fn gain(better: Better, p: f64, c: f64) -> f64 {
    match better {
        Better::Lower => p - c,
        Better::Higher => c - p,
    }
}

/// Pairs the change wins (`sign` 1.0) or loses (`sign` -1.0).
fn pairs_won(parent: &[f64], change: &[f64], better: Better, sign: f64) -> usize {
    parent.iter().zip(change).filter(|&(&p, &c)| sign * gain(better, p, c) > 0.0).count()
}

pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    assert_eq!(parent.len(), change.len(), "runs pair up one to one");
    let gain = |p: f64, c: f64| gain(better, p, c);
    let pairs = parent.len();
    let wins = pairs_won(parent, change, better, 1.0);
    let losses = pairs_won(parent, change, better, -1.0);
    let every_run_better = parent.iter().all(|&p| change.iter().all(|&c| gain(p, c) > 0.0));
    let (p1, pm, p3) = quartiles(parent);
    let (c1, cm, c3) = quartiles(change);
    let diff = gain(pm, cm);
    if let Some(bound) = bound {
        let spread = |q1: f64, m: f64, q3: f64| (q3 - q1) / m.abs();
        if !(spread(p1, pm, p3) <= bound && spread(c1, cm, c3) <= bound) {
            return if every_run_better { Verdict::Improved } else { Verdict::Unresolved };
        }
    }
    let iqr = p3 - p1;
    if wins * 10 >= pairs * 9 && diff > iqr {
        Verdict::Improved
    } else if match bound {
        Some(bound) => -diff > bound * pm.abs(),
        None => losses * 10 >= pairs * 9 && -diff > iqr,
    } {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

/// Prints one verdict line per (workload, metric) found in every file.
pub fn run(files: &[String]) -> Result<(), String> {
    if files.len() < 2 || !files.len().is_multiple_of(2) {
        return Err("compare takes PARENT.json… CHANGE.json…, as many of each".to_string());
    }
    let records = files.iter().map(|f| record::read_values(f)).collect::<Result<Vec<_>, _>>()?;
    let (parents, changes) = records.split_at(files.len() / 2);
    for key in records[0].keys() {
        let Some(spec) = catalogue::spec(&key.1) else { continue };
        let side = |runs: &[std::collections::BTreeMap<(String, String), f64>]| {
            runs.iter().map(|r| r.get(key).copied()).collect::<Option<Vec<f64>>>()
        };
        let (Some(p), Some(c)) = (side(parents), side(changes)) else { continue };
        println!(
            "{} {} {} parent={} change={} wins={}/{}",
            key.0,
            key.1,
            verdict(&p, &c, spec.better, spec.bound).name(),
            quartiles(&p).1,
            quartiles(&c).1,
            pairs_won(&p, &c, spec.better, 1.0),
            p.len()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * i as f64).collect()
    }

    #[test]
    fn a_consistent_gain_beyond_the_parent_spread_improves() {
        let parent = runs(100.0, 1.0); // median 104.5, IQR 5.5
        let change = runs(90.0, 1.0);
        assert_eq!(verdict(&parent, &change, Better::Lower, Some(0.1)), Verdict::Improved);
        assert_eq!(verdict(&change, &parent, Better::Higher, Some(0.1)), Verdict::Improved);
    }

    #[test]
    fn a_gain_inside_the_parent_spread_is_not_claimed() {
        let parent = runs(100.0, 1.0);
        let change: Vec<f64> = parent.iter().map(|p| p - 2.0).collect(); // wins 10/10, Δ 2 < IQR
        assert_eq!(verdict(&parent, &change, Better::Lower, Some(0.1)), Verdict::Unchanged);
        let mut mixed = runs(90.0, 1.0);
        mixed[0] = 150.0;
        mixed[1] = 150.0; // wins 8/10
        assert_eq!(verdict(&parent, &mixed, Better::Lower, Some(0.2)), Verdict::Unchanged);
    }

    #[test]
    fn a_loss_beyond_the_bound_is_worse() {
        let parent = runs(100.0, 0.1);
        let change = runs(112.0, 0.1);
        assert_eq!(verdict(&parent, &change, Better::Lower, Some(0.1)), Verdict::Worse);
        assert_eq!(verdict(&parent, &change, Better::Lower, Some(0.15)), Verdict::Unchanged);
        // Without a bound, the paired rule decides.
        assert_eq!(verdict(&parent, &change, Better::Lower, None), Verdict::Worse);
    }

    #[test]
    fn spread_beyond_the_bound_is_unresolved_unless_every_run_is_better() {
        let parent = runs(100.0, 10.0); // IQR 55 on median 145
        let change = runs(95.0, 10.0);
        assert_eq!(verdict(&parent, &change, Better::Lower, Some(0.1)), Verdict::Unresolved);
        let far = runs(1.0, 0.1);
        assert_eq!(verdict(&parent, &far, Better::Lower, Some(0.1)), Verdict::Improved);
    }
}
