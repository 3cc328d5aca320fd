//! `--compare PARENT_DIR CHANGE_DIR`: judge a change against its parent.
//!
//! Both checkouts are built once, then their benchmarks run in ten
//! alternating pairs (the side that runs first alternates) with the same
//! seed and measuring time. For every workload and end-to-end metric:
//!
//! * a **gain** needs the change to win at least nine tenths of the
//!   pairs (ties count for neither side) and the medians to differ by
//!   more than the distance between the parent's quartiles;
//! * a **regression** is a change median worse than the parent's by more
//!   than the metric's bound;
//! * a spread (quartile distance over median) wider than the bound is
//!   **unresolved**, unless every change run beats every parent run;
//! * a metric that reads the same in every run of both sides, as
//!   simulated metrics do for one seed, is **identical**.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::metrics::{median, quartiles, Better, Kind, METRICS};

/// Alternating pairs per workload: the fewest the rule accepts.
const PAIRS: usize = 10;

type Run = BTreeMap<String, f64>;

/// Build the benchmark of checkout `dir` into `dir/.bench_build`.
fn build(dir: &Path) -> Result<PathBuf, String> {
    let target = dir.join(".bench_build");
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
        ])
        .arg(dir.join("benchmark/Cargo.toml"))
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "building the benchmark in {} failed",
            dir.display()
        ));
    }
    Ok(target.join("release/benchmark"))
}

/// One run of a built benchmark, from the root of its checkout.
fn run(bin: &Path, dir: &Path, workload: &str, seed: u64, seconds: f64) -> Result<Run, String> {
    let out = Command::new(bin)
        .current_dir(dir)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !out.status.success() || !last.contains("\"correct\": true") {
        return Err(format!("{workload} in {} failed: {last}", dir.display()));
    }
    parse_metrics(last).ok_or_else(|| format!("unreadable result line: {last}"))
}

/// Metric values of a result line this benchmark printed.
pub fn parse_metrics(line: &str) -> Option<Run> {
    let body = line.split_once("\"metrics\": {")?.1;
    let mut out = Run::new();
    for entry in body.split("}, ") {
        let (name, rest) = entry.split_once("\": {\"value\": ")?;
        let value = rest.split(',').next()?.trim().parse().ok()?;
        out.insert(name.trim_start_matches('"').to_string(), value);
    }
    Some(out)
}

/// +1 when higher is better, -1 when lower is.
fn sign(better: Better) -> f64 {
    match better {
        Better::Higher => 1.0,
        Better::Lower => -1.0,
    }
}

/// Pairs in which the change beat the parent; ties count for neither.
fn wins(parent: &[f64], change: &[f64], better: Better) -> usize {
    parent
        .iter()
        .zip(change)
        .filter(|(p, c)| sign(better) * (*c - *p) > 0.0)
        .count()
}

/// The verdict for one metric of one workload.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> &'static str {
    let sign = sign(better);
    let (pm, cm) = (median(parent), median(change));
    let spread = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        (q3 - q1) / median(v).abs().max(f64::MIN_POSITIVE)
    };
    let all_better = change
        .iter()
        .all(|c| parent.iter().all(|p| sign * (c - p) > 0.0));
    let wins = wins(parent, change, better);
    let (q1, q3) = quartiles(parent);
    // Simulated metrics repeat exactly for one seed; say so rather than
    // calling them "within bound".
    if parent.iter().chain(change).all(|&v| v == parent[0]) {
        "identical"
    } else if (spread(parent) > bound || spread(change) > bound) && !all_better {
        "unresolved"
    } else if sign * (cm - pm) < -bound * pm.abs() {
        "regression"
    } else if wins * 10 >= parent.len() * 9 && sign * (cm - pm) > q3 - q1 {
        "gain"
    } else {
        "within bound"
    }
}

pub fn compare(
    parent: &Path,
    change: &Path,
    workloads: &[&str],
    seed: u64,
    seconds: f64,
) -> Result<(), String> {
    let sides = [parent, change];
    let bins = [build(parent)?, build(change)?];
    println!(
        "{:<14} {:<13} {:>38} {:>38} {:>8} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins"
    );
    let summary = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        format!("{:.6} [{q1:.6}, {q3:.6}]", median(v))
    };
    for workload in workloads {
        let mut runs: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
        for i in 0..PAIRS {
            let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
            for side in order {
                runs[side].push(run(&bins[side], sides[side], workload, seed, seconds)?);
            }
        }
        for m in METRICS {
            let Kind::EndToEnd { bound } = m.kind else {
                continue;
            };
            let values = |side: usize| -> Result<Vec<f64>, String> {
                runs[side]
                    .iter()
                    .map(|r| r.get(m.name).copied().ok_or(format!("{} missing", m.name)))
                    .collect()
            };
            let (p, c) = (values(0)?, values(1)?);
            println!(
                "{:<14} {:<13} {:>38} {:>38} {:>+7.2}% {:>3}/{:<2}  {}",
                workload,
                m.name,
                summary(&p),
                summary(&c),
                (median(&c) / median(&p) - 1.0) * 100.0,
                wins(&p, &c, m.better),
                PAIRS,
                verdict(&p, &c, m.better, bound)
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Report, Values};

    #[test]
    fn reads_back_its_own_result_line() {
        let mut values = Values::new();
        values.insert("host_qps", 412.5);
        values.insert("sim_p50_us", 5.935);
        values.insert("ok_frac", 1.0);
        let line = Report {
            correct: true,
            attempted: 10,
            failed: 0,
            values,
        }
        .json();
        let run = parse_metrics(&line).expect("parses");
        assert_eq!(run.len(), 3);
        assert_eq!(run["host_qps"], 412.5);
        assert_eq!(run["sim_p50_us"], 5.935);
        assert_eq!(run["ok_frac"], 1.0);
    }

    #[test]
    fn verdicts_follow_the_pairs_rule() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let faster: Vec<f64> = parent.iter().map(|p| p * 1.1).collect();
        let slower: Vec<f64> = parent.iter().map(|p| p * 0.7).collect();
        let level: Vec<f64> = parent.iter().rev().copied().collect();
        let noisy: Vec<f64> = (0..10).map(|i| 100.0 + 40.0 * f64::from(i % 2)).collect();
        assert_eq!(verdict(&parent, &faster, Better::Higher, 0.1), "gain");
        assert_eq!(verdict(&parent, &slower, Better::Higher, 0.1), "regression");
        assert_eq!(verdict(&parent, &faster, Better::Lower, 0.05), "regression");
        assert_eq!(
            verdict(&parent, &level, Better::Higher, 0.1),
            "within bound"
        );
        assert_eq!(verdict(&noisy, &parent, Better::Higher, 0.1), "unresolved");
        assert_eq!(
            verdict(&[3.0; 10], &[3.0; 10], Better::Lower, 0.1),
            "identical"
        );
    }
}
