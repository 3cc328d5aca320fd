//! Serving-run reports: percentile summaries, SLO attainment, achieved
//! throughput, shed rates — as text tables and deterministic JSON.
//!
//! Everything in a report derives from simulated quantities (cycles and
//! counts), never wall-clock time, so the same seed and config render
//! byte-identical output on every run. Derived milliseconds use the
//! configured memory clock with fixed-precision formatting.

use std::fmt::Write as _;

use ansmet_obs::LatencyHistogram;
use ansmet_sim::{Design, RecoveryReport};

use crate::arrival::TenantSpec;
use crate::engine::ServeConfig;
use crate::resilience::ResilienceReport;

/// Percentiles of one latency distribution, in memory cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PercentileSummary {
    /// Samples summarized.
    pub count: u64,
    /// Mean in cycles.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Exact maximum.
    pub max: u64,
}

impl PercentileSummary {
    /// Summarize a histogram.
    pub fn from_histogram(h: &LatencyHistogram) -> Self {
        PercentileSummary {
            count: h.count(),
            mean: h.mean(),
            p50: h.quantile(0.50),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
            p999: h.quantile(0.999),
            max: h.max(),
        }
    }

    fn json(&self, mem_clock_mhz: u64) -> String {
        format!(
            "{{\"count\": {}, \"mean_cycles\": {:.1}, \"p50_cycles\": {}, \"p95_cycles\": {}, \
             \"p99_cycles\": {}, \"p999_cycles\": {}, \"max_cycles\": {}, \"p50_ms\": {:.6}, \
             \"p95_ms\": {:.6}, \"p99_ms\": {:.6}, \"p999_ms\": {:.6}}}",
            self.count,
            self.mean,
            self.p50,
            self.p95,
            self.p99,
            self.p999,
            self.max,
            cycles_to_ms(self.p50, mem_clock_mhz),
            cycles_to_ms(self.p95, mem_clock_mhz),
            cycles_to_ms(self.p99, mem_clock_mhz),
            cycles_to_ms(self.p999, mem_clock_mhz),
        )
    }
}

impl std::fmt::Display for PercentileSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.1} p50={} p95={} p99={} p99.9={} max={} cycles",
            self.count, self.mean, self.p50, self.p95, self.p99, self.p999, self.max
        )
    }
}

/// Memory cycles → milliseconds at `mem_clock_mhz`.
pub fn cycles_to_ms(cycles: u64, mem_clock_mhz: u64) -> f64 {
    cycles as f64 / (mem_clock_mhz as f64 * 1e3)
}

/// One tenant's serving outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// WFQ weight.
    pub weight: u64,
    /// SLO bound in cycles.
    pub slo_cycles: u64,
    /// Queries offered by the arrival process.
    pub offered: u64,
    /// Arrivals shed by queue-depth backpressure.
    pub shed_queue: u64,
    /// Queries shed at dispatch for an expired deadline.
    pub shed_deadline: u64,
    /// Queries executed to completion.
    pub completed: u64,
    /// Completed queries that met the SLO.
    pub slo_attained: u64,
    /// Achieved queries per second over the run's makespan.
    pub achieved_qps: f64,
    /// Total-latency distribution of completed queries.
    pub total: PercentileSummary,
}

impl TenantReport {
    /// Assemble one tenant's report from the engine's tallies.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        spec: &TenantSpec,
        offered: u64,
        shed_queue: u64,
        shed_deadline: u64,
        completed: u64,
        slo_attained: u64,
        total: &LatencyHistogram,
        makespan_cycles: u64,
        mem_clock_mhz: u64,
    ) -> Self {
        TenantReport {
            name: spec.name.clone(),
            weight: spec.weight,
            slo_cycles: spec.slo_cycles,
            offered,
            shed_queue,
            shed_deadline,
            completed,
            slo_attained,
            achieved_qps: qps_over(completed, makespan_cycles, mem_clock_mhz),
            total: PercentileSummary::from_histogram(total),
        }
    }

    /// SLO attainment over *offered* queries: shed queries count as
    /// misses (they never got an answer at all).
    pub fn slo_attainment(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.slo_attained as f64 / self.offered as f64
        }
    }

    /// Fraction of offered queries shed (either mechanism).
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            (self.shed_queue + self.shed_deadline) as f64 / self.offered as f64
        }
    }
}

impl std::fmt::Display for TenantReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tenant {} (w{}): offered {}, completed {}, shed {}, SLO {:.1}%, p99 {} cycles",
            self.name,
            self.weight,
            self.offered,
            self.completed,
            self.shed_queue + self.shed_deadline,
            self.slo_attainment() * 100.0,
            self.total.p99,
        )
    }
}

/// `completed` queries over `makespan` cycles at `mem_clock_mhz`, in
/// queries per second.
fn qps_over(completed: u64, makespan_cycles: u64, mem_clock_mhz: u64) -> f64 {
    if makespan_cycles == 0 {
        0.0
    } else {
        completed as f64 * mem_clock_mhz as f64 * 1e6 / makespan_cycles as f64
    }
}

/// The full outcome of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// The design that served the traffic.
    pub design: Design,
    /// Arrival seed.
    pub seed: u64,
    /// Memory clock used for cycle→time conversions.
    pub mem_clock_mhz: u64,
    /// Cycle at which the last query completed.
    pub makespan_cycles: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Queries carried by those batches.
    pub batched_queries: u64,
    /// Queueing-delay distribution (arrival → dispatch).
    pub queue: PercentileSummary,
    /// Execution distribution (dispatch → completion, incl. recovery).
    pub execute: PercentileSummary,
    /// End-to-end distribution (arrival → completion).
    pub total: PercentileSummary,
    /// Per-tenant breakdown.
    pub tenants: Vec<TenantReport>,
    /// Recovery counters when fault injection was enabled.
    pub recovery: Option<RecoveryReport>,
    /// Resilience-layer outcome when a storm or the resilience layer
    /// was configured.
    pub resilience: Option<ResilienceReport>,
    /// FNV-1a fingerprint of the served queries' neighbor ids (faults
    /// must never change it).
    pub results_fingerprint: u64,
}

impl ServeReport {
    /// Assemble the aggregate report.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        serve: &ServeConfig,
        mem_clock_mhz: u64,
        makespan_cycles: u64,
        batches: u64,
        batched_queries: u64,
        queue: &LatencyHistogram,
        execute: &LatencyHistogram,
        total: &LatencyHistogram,
        tenants: Vec<TenantReport>,
        recovery: Option<RecoveryReport>,
        resilience: Option<ResilienceReport>,
        results_fingerprint: u64,
    ) -> Self {
        ServeReport {
            design: serve.design,
            seed: serve.seed,
            mem_clock_mhz,
            makespan_cycles,
            batches,
            batched_queries,
            queue: PercentileSummary::from_histogram(queue),
            execute: PercentileSummary::from_histogram(execute),
            total: PercentileSummary::from_histogram(total),
            tenants,
            recovery,
            resilience,
            results_fingerprint,
        }
    }

    /// Queries offered across all tenants.
    pub fn offered(&self) -> u64 {
        self.tenants.iter().map(|t| t.offered).sum()
    }

    /// Queries completed across all tenants.
    pub fn completed(&self) -> u64 {
        self.tenants.iter().map(|t| t.completed).sum()
    }

    /// Queries shed across all tenants (both mechanisms).
    pub fn shed(&self) -> u64 {
        self.tenants
            .iter()
            .map(|t| t.shed_queue + t.shed_deadline)
            .sum()
    }

    /// Fraction of offered queries shed.
    pub fn shed_rate(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            0.0
        } else {
            self.shed() as f64 / offered as f64
        }
    }

    /// Achieved queries per second over the makespan.
    pub fn achieved_qps(&self) -> f64 {
        qps_over(self.completed(), self.makespan_cycles, self.mem_clock_mhz)
    }

    /// Aggregate SLO attainment over offered queries.
    pub fn slo_attainment(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            1.0
        } else {
            self.tenants.iter().map(|t| t.slo_attained).sum::<u64>() as f64 / offered as f64
        }
    }

    /// Mean queries per dispatched batch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_queries as f64 / self.batches as f64
        }
    }

    /// Render a human-readable multi-table summary.
    pub fn render(&self, title: &str) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "== {title} == design {:?}, seed {}, {} offered, {} completed, {} shed ({:.1}%)",
            self.design,
            self.seed,
            self.offered(),
            self.completed(),
            self.shed(),
            self.shed_rate() * 100.0,
        );
        let _ = writeln!(
            s,
            "   achieved {:.0} qps, {} batches (mean size {:.2}), makespan {:.3} ms, SLO attainment {:.1}%",
            self.achieved_qps(),
            self.batches,
            self.mean_batch_size(),
            cycles_to_ms(self.makespan_cycles, self.mem_clock_mhz),
            self.slo_attainment() * 100.0,
        );
        for (label, p) in [
            ("queue", &self.queue),
            ("execute", &self.execute),
            ("total", &self.total),
        ] {
            let _ = writeln!(
                s,
                "   {label:>7}: p50 {} p95 {} p99 {} p99.9 {} max {} cycles (p99 {:.4} ms)",
                p.p50,
                p.p95,
                p.p99,
                p.p999,
                p.max,
                cycles_to_ms(p.p99, self.mem_clock_mhz),
            );
        }
        for t in &self.tenants {
            let _ = writeln!(
                s,
                "   tenant {:<10} w{} offered {:>5} done {:>5} shed {:>4} slo {:>5.1}% p99 {} cycles",
                t.name,
                t.weight,
                t.offered,
                t.completed,
                t.shed_queue + t.shed_deadline,
                t.slo_attainment() * 100.0,
                t.total.p99,
            );
        }
        if let Some(rec) = &self.recovery {
            let _ = writeln!(
                s,
                "   faults: {} injected, {} retries, {} timeouts, {} crc-rej, {} fallbacks, +{} recovery cycles",
                rec.injected.total(),
                rec.retries,
                rec.timeouts,
                rec.crc_rejections,
                rec.host_fallbacks,
                rec.added_latency_cycles,
            );
        }
        if let Some(res) = &self.resilience {
            res.render_into(&mut s, self.mem_clock_mhz);
        }
        s
    }

    /// Serialize to a JSON object (hand-rolled; the repo carries no
    /// serde). Deterministic: same report, same bytes.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "    \"design\": \"{:?}\",", self.design);
        let _ = writeln!(s, "    \"seed\": {},", self.seed);
        let _ = writeln!(s, "    \"mem_clock_mhz\": {},", self.mem_clock_mhz);
        let _ = writeln!(s, "    \"makespan_cycles\": {},", self.makespan_cycles);
        let _ = writeln!(
            s,
            "    \"makespan_ms\": {:.6},",
            cycles_to_ms(self.makespan_cycles, self.mem_clock_mhz)
        );
        let _ = writeln!(s, "    \"offered\": {},", self.offered());
        let _ = writeln!(s, "    \"completed\": {},", self.completed());
        let _ = writeln!(s, "    \"shed\": {},", self.shed());
        let _ = writeln!(s, "    \"shed_rate\": {:.6},", self.shed_rate());
        let _ = writeln!(s, "    \"achieved_qps\": {:.3},", self.achieved_qps());
        let _ = writeln!(s, "    \"slo_attainment\": {:.6},", self.slo_attainment());
        let _ = writeln!(s, "    \"batches\": {},", self.batches);
        let _ = writeln!(s, "    \"mean_batch_size\": {:.3},", self.mean_batch_size());
        let _ = writeln!(
            s,
            "    \"results_fingerprint\": \"{:016x}\",",
            self.results_fingerprint
        );
        let _ = writeln!(s, "    \"queue\": {},", self.queue.json(self.mem_clock_mhz));
        let _ = writeln!(
            s,
            "    \"execute\": {},",
            self.execute.json(self.mem_clock_mhz)
        );
        let _ = writeln!(s, "    \"total\": {},", self.total.json(self.mem_clock_mhz));
        if let Some(rec) = &self.recovery {
            let _ = writeln!(
                s,
                "    \"recovery\": {{\"injected\": {}, \"timeouts\": {}, \"crc_rejections\": {}, \
                 \"retries\": {}, \"host_fallbacks\": {}, \"poll_misses\": {}, \
                 \"hedges\": {}, \"hedge_wins\": {}, \"breaker_fast_paths\": {}, \
                 \"added_latency_cycles\": {}}},",
                rec.injected.total(),
                rec.timeouts,
                rec.crc_rejections,
                rec.retries,
                rec.host_fallbacks,
                rec.poll_misses,
                rec.hedges,
                rec.hedge_wins,
                rec.breaker_fast_paths,
                rec.added_latency_cycles,
            );
        }
        if let Some(res) = &self.resilience {
            let _ = writeln!(s, "    \"resilience\": {},", res.to_json());
        }
        s.push_str("    \"tenants\": [\n");
        for (i, t) in self.tenants.iter().enumerate() {
            let _ = write!(
                s,
                "      {{\"name\": \"{}\", \"weight\": {}, \"slo_cycles\": {}, \"offered\": {}, \
                 \"shed_queue\": {}, \"shed_deadline\": {}, \"completed\": {}, \
                 \"slo_attained\": {}, \"slo_attainment\": {:.6}, \"achieved_qps\": {:.3}, \
                 \"total\": {}}}",
                t.name,
                t.weight,
                t.slo_cycles,
                t.offered,
                t.shed_queue,
                t.shed_deadline,
                t.completed,
                t.slo_attained,
                t.slo_attainment(),
                t.achieved_qps,
                t.total.json(self.mem_clock_mhz),
            );
            s.push_str(if i + 1 < self.tenants.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("    ]\n  }");
        s
    }
}

impl std::fmt::Display for ServeReport {
    /// The full multi-table rendering under a generic title.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render("serving run"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_from_histogram() {
        let mut h = LatencyHistogram::new();
        for v in [100u64, 200, 300, 400, 50_000] {
            h.record(v);
        }
        let p = PercentileSummary::from_histogram(&h);
        assert_eq!(p.count, 5);
        assert_eq!(p.max, 50_000);
        assert!(p.p50 >= 200 && p.p50 <= 320, "p50 {}", p.p50);
        assert!(p.p99 >= 50_000);
    }

    #[test]
    fn percentile_display_is_one_line() {
        let mut h = LatencyHistogram::new();
        h.record(100);
        let p = PercentileSummary::from_histogram(&h);
        let s = p.to_string();
        assert!(s.contains("n=1") && s.contains("cycles"));
        assert!(!s.contains('\n'));
    }

    #[test]
    fn cycle_ms_conversion() {
        // 2_400_000 cycles at 2400 MHz = 1 ms.
        assert!((cycles_to_ms(2_400_000, 2400) - 1.0).abs() < 1e-12);
    }
}
