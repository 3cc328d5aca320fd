//! The four seeded workloads.
//!
//! A workload splits into a set-up (generate inputs, build indexes) and
//! a pass (the measured work). Passes are pure functions of the inputs:
//! every simulated number a pass reports must repeat bit for bit, which
//! the runner checks. Each layer call is wrapped in a [`Tracer`] span
//! named after the per-layer metric it feeds.

use std::collections::BTreeMap;

use ansmet_obs::TraceSink;

use crate::metrics::{cycles_to_us, percentile, tail_percentile, Values};
use crate::trace::Tracer;

pub mod churn;
pub mod replay;
pub mod serve;
pub mod shard;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["paper-replay", "open-serve", "churn-mix", "shard-scatter"];

/// Neighbours per query in every workload.
pub const K: usize = 10;

/// What one pass produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Pass {
    /// Operations whose outcome is checked (replays, requests, routed
    /// queries).
    pub attempted: u64,
    /// Checked operations that were shed or returned a wrong result.
    pub failed: u64,
    /// Operations the pass simulated to completion, capacity probes
    /// included; `host_qps` divides this by the pass's host time.
    pub simulated_ops: u64,
    /// Simulated end-to-end metrics and per-layer counts.
    pub sim: Values,
    /// Hash of what the pass produced: result lists, or per-run cycle
    /// totals where results come from set-up.
    pub fingerprint: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(&'static str, bool)>,
}

/// A benchmark workload.
pub trait Workload {
    type Inputs;

    /// Generate the inputs from `seed` and build what the pass needs.
    /// With tracing on, preparation runs as separate layer calls.
    fn setup(&self, seed: u64, tracer: &mut Tracer) -> Self::Inputs;

    /// Whether two set-ups produced the same inputs.
    fn same_inputs(a: &Self::Inputs, b: &Self::Inputs) -> bool;

    /// The measured work.
    fn pass(&self, inputs: &Self::Inputs, tracer: &mut Tracer) -> Pass;

    /// Named correctness checks on the inputs alone, made once per run
    /// outside the measured passes.
    fn check_inputs(&self, _inputs: &Self::Inputs) -> Vec<(&'static str, bool)> {
        Vec::new()
    }
}

/// Collects the per-operation records (latencies in cycles) a layer
/// emits, by record name.
pub struct Records {
    enabled: bool,
    by_name: BTreeMap<&'static str, Vec<u64>>,
}

impl Records {
    /// `enabled` is what the sink tells instrumented code; some layers
    /// only emit records to enabled sinks.
    pub fn new(enabled: bool) -> Self {
        Records {
            enabled,
            by_name: BTreeMap::new(),
        }
    }

    /// Every value recorded under `name`, in emission order.
    pub fn take(&mut self, name: &str) -> Vec<u64> {
        self.by_name.remove(name).unwrap_or_default()
    }
}

impl TraceSink for Records {
    fn enabled(&self) -> bool {
        self.enabled
    }

    fn record(&mut self, name: &'static str, value: u64) {
        self.by_name.entry(name).or_default().push(value);
    }
}

/// Insert `sim_p50_us` and `sim_tail_us` for the latency samples. The
/// tail is the highest of p90/p99/p99.9 with ten samples beyond it, or
/// the maximum below 100 samples.
pub fn latency_metrics(sim: &mut Values, mut cycles: Vec<u64>, mem_clock_mhz: u64) {
    cycles.sort_unstable();
    let tail = tail_percentile(cycles.len()).unwrap_or(100.0);
    let us = |c: u64| cycles_to_us(c as f64, mem_clock_mhz);
    sim.insert("sim_p50_us", us(percentile(&cycles, 50.0)));
    sim.insert("sim_tail_us", us(percentile(&cycles, tail)));
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
