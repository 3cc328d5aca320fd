//! Metric declarations, the per-run report, and the order statistics
//! every metric is built from.
//!
//! `BENCHMARK.json` at the repository root mirrors [`METRICS`]; a test
//! keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Where a metric is reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Untraced run; the bound is the share of the parent's median the
    /// metric may worsen by before a change counts as a regression.
    EndToEnd { bound: f64 },
    /// Traced run; diagnostic, no bound.
    Layer,
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind: Kind::EndToEnd { bound },
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind: Kind::Layer,
    }
}

use Better::{Higher, Lower};

/// Every metric the benchmark emits. Simulated time is the modelled
/// hardware's (`us` = simulated microseconds, `1/s` of `sim_qps` =
/// queries per simulated second); host time is the simulator's own
/// (`s`, and `1/s` of `host_qps`).
pub const METRICS: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("host_qps", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.1),
    e2e("sim_p50_us", "us", Lower, 0.15),
    e2e("sim_tail_us", "us", Lower, 0.25),
    e2e("sim_qps", "1/s", Higher, 0.25),
    e2e("recall_at_10", "frac", Higher, 0.02),
    e2e("ok_frac", "frac", Higher, 0.01),
    // vecdata
    layer("vecdata.generate_s", "s", Lower),
    layer("vecdata.ground_truth_s", "s", Lower),
    // index
    layer("index.build_s", "s", Lower),
    layer("index.trace_s", "s", Lower),
    layer("index.evals_per_query", "count", Lower),
    // core (ET engine)
    layer("core.sampling_s", "s", Lower),
    layer("core.plan_s", "s", Lower),
    layer("core.pruned_frac", "frac", Higher),
    layer("core.fetch_utilization", "frac", Higher),
    layer("core.lines_per_query", "count", Lower),
    // host (CPU and cache model)
    layer("host.cpu_cycles_per_query", "count", Lower),
    // dram
    layer("dram.cycles_ticked", "count", Lower),
    layer("dram.cycles_skipped", "count", Higher),
    layer("dram.host_ns_per_ticked_cycle", "ns", Lower),
    layer("dram.acts_per_read", "frac", Lower),
    // ndp
    layer("ndp.polls_per_query", "count", Lower),
    layer("ndp.rank_imbalance", "x", Lower),
    // sim (replay and wave executor)
    layer("sim.replay_s.CpuBase", "s", Lower),
    layer("sim.replay_s.CpuEt", "s", Lower),
    layer("sim.replay_s.CpuEtOpt", "s", Lower),
    layer("sim.replay_s.NdpBase", "s", Lower),
    layer("sim.replay_s.NdpDimEt", "s", Lower),
    layer("sim.replay_s.NdpBitEt", "s", Lower),
    layer("sim.replay_s.NdpEt", "s", Lower),
    layer("sim.replay_s.NdpEtDual", "s", Lower),
    layer("sim.replay_s.NdpEtOpt", "s", Lower),
    layer("sim.traced_replay_s", "s", Lower),
    layer("sim.throughput_s", "s", Lower),
    layer("sim.phase_us.traversal", "us", Lower),
    layer("sim.phase_us.offload", "us", Lower),
    layer("sim.phase_us.dist_comp", "us", Lower),
    layer("sim.phase_us.result_collect", "us", Lower),
    layer("sim.speedup_vs_cpu", "x", Higher),
    layer("sim.tput_speedup_8u", "x", Higher),
    layer("sim.tput_speedup_64u", "x", Higher),
    layer("sim.energy_nj_per_query", "nJ", Lower),
    // serve
    layer("serve.run_s", "s", Lower),
    layer("serve.p99_us", "us", Lower),
    layer("serve.queue_p99_us", "us", Lower),
    layer("serve.execute_p99_us", "us", Lower),
    layer("serve.mean_batch", "count", Higher),
    layer("serve.batches", "count", Lower),
    layer("serve.overload_shed_frac", "frac", Lower),
    // freshness
    layer("freshness.build_s", "s", Lower),
    layer("freshness.churn_s", "s", Lower),
    layer("freshness.snapshot_s", "s", Lower),
    layer("freshness.recall_s", "s", Lower),
    layer("freshness.inserts", "count", Higher),
    layer("freshness.deletes", "count", Higher),
    layer("freshness.epochs", "count", Lower),
    layer("freshness.read_p99_us", "us", Lower),
    layer("freshness.update_p99_us", "us", Lower),
    layer("freshness.pause_p99_us", "us", Lower),
    layer("freshness.conservative_per_read", "count", Lower),
    layer("freshness.line_savings_frac", "frac", Higher),
    layer("freshness.et_mismatches", "count", Lower),
    layer("freshness.snapshot_kib", "KiB", Lower),
    // cluster
    layer("cluster.mono_build_s", "s", Lower),
    layer("cluster.shardset_build_s", "s", Lower),
    layer("cluster.route_s", "s", Lower),
    layer("cluster.bound_saved_frac", "frac", Higher),
    layer("cluster.shards_skipped_frac", "frac", Higher),
    layer("cluster.pruned_frac", "frac", Higher),
    layer("cluster.imbalance", "x", Lower),
    layer("cluster.storm_p90_us", "us", Lower),
    layer("cluster.failovers", "count", Lower),
    layer("cluster.et_mismatches", "count", Lower),
    // faults
    layer("faults.timeouts", "count", Lower),
    layer("faults.breaker_rejections", "count", Lower),
    // bench (the harness itself)
    layer("bench.self_s", "s", Lower),
    layer("bench.trace_overhead_frac", "frac", Lower),
];

/// The declaration of `name`, if any.
pub fn declared(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

/// Whether `name` is a valid metric or workload name: 1 to 64 letters,
/// digits, `_`, `.` and `-`, starting with a letter or digit.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Metric values by name (sorted, so output order is stable).
pub type Values = BTreeMap<&'static str, f64>;

/// The result line: the last line of standard output.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

impl Report {
    /// The human-readable table printed above the result line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.values {
            let unit = declared(name).map_or("", |m| m.unit);
            let _ = writeln!(out, "  {name:<34} {value:>18.6} {unit}");
        }
        out
    }

    /// The one-line JSON result object.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value)) in self.values.iter().enumerate() {
            let unit = declared(name)
                .expect("only declared metrics are reported")
                .unit;
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// The 1-based nearest rank of percentile `p` (in percent, at most one
/// decimal) among `n` samples, in exact integer arithmetic.
fn rank(p: f64, n: usize) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000)
}

/// Nearest-rank percentile `p` (in percent) of ascending `sorted`.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// The highest of p99.9, p99 and p90 that leaves at least ten of `n`
/// samples beyond it, or `None` below 100 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0]
        .into_iter()
        .find(|&p| n >= rank(p, n) + 10)
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles, computed like Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Simulated memory cycles to simulated microseconds.
pub fn cycles_to_us(cycles: f64, mem_clock_mhz: u64) -> f64 {
    cycles / mem_clock_mhz as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [100, 152, 1_000, 4_321, 10_000] {
            let p = tail_percentile(n).expect("enough samples");
            let sorted: Vec<u64> = (1..=n as u64).collect();
            let beyond = sorted
                .iter()
                .filter(|&&v| v > percentile(&sorted, p))
                .count();
            assert!(beyond >= 10, "n={n} p={p} leaves {beyond}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 50.0), 5);
        assert_eq!(percentile(&v, 90.0), 9);
        assert_eq!(percentile(&v, 100.0), 10);
        assert_eq!(percentile(&v, 0.0), 1);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn names_follow_the_pattern() {
        for ok in [
            "setup_s",
            "sim.replay_s.NdpEtOpt",
            "paper-replay",
            "9lives",
            "a.b-c_d",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "-x", "a b", "a/b", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for m in METRICS {
            assert!(valid_name(m.name), "{}", m.name);
            assert_eq!(
                METRICS.iter().filter(|n| n.name == m.name).count(),
                1,
                "{} declared twice",
                m.name
            );
        }
    }

    #[test]
    fn json_line_lists_values_with_units() {
        let mut values = Values::new();
        values.insert("setup_s", 1.25);
        values.insert("host_qps", 3.0);
        let r = Report {
            correct: true,
            attempted: 4,
            failed: 0,
            values,
        };
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\
             \"host_qps\": {\"value\": 3.0, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
