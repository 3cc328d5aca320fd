//! `open-serve`: single-tenant Poisson arrivals, open loop, served by
//! NDP-ETOpt under the default batch and admission policies.
//!
//! The same 1,000 arrivals are offered at four fixed rates. Requests at
//! the two rates below the knee are the checked operations. The
//! latency metrics come from the lowest rate: there service and batching
//! set the latency, whose quartile distance across ten seeds is 2-3 %
//! of the median at p50 and 4-8 % at p99, while at 750k queueing makes
//! the p99's about 13 % (`serve.p99_us` reports it). The capacity is the highest rate whose
//! p99 stays within the latency limit with nothing shed and no growing
//! backlog, interpolated between the grid rates around the knee.
//! Arrivals are generated in simulated time, so the generator is never
//! late and queueing counts from each arrival cycle.

use ansmet_serve::{generate_arrivals, run_serve_with_sink, ServeConfig, ServeReport};
use ansmet_sim::{SystemConfig, Workload as SimWorkload};
use ansmet_vecdata::SynthSpec;

use super::replay::same_workload;
use super::{latency_metrics, Pass, Records, Workload, K};
use crate::metrics::{cycles_to_us, percentile, Values};
use crate::trace::Tracer;

/// Latency limit on p99: 40 us at the 2400 MHz memory clock.
pub const P99_LIMIT_CYCLES: u64 = 96_000;
/// Achieved rate below this share of the offered rate means a backlog.
const MIN_ACHIEVED_SHARE: f64 = 0.97;
/// The offered rates, ascending. Every seed runs the same rates, so the
/// pass does the same work from seed to seed. The knee sat between 0.96M
/// and 1.15M on seeds 1-30; a capacity past the top rate reads as the
/// top rate.
const RATES_QPS: [f64; 4] = [250_000.0, 750_000.0, 1_000_000.0, 1_250_000.0];
/// The first rates, below the knee on every seed tried, whose requests
/// are the checked operations. The rest probe the capacity and shed by
/// design.
const CHECKED: usize = 2;

pub struct OpenServe {
    pub vectors: usize,
    /// Distinct queries the arrivals draw from.
    pub base_queries: usize,
    /// Arrivals offered at every rate.
    pub arrivals: usize,
}

impl OpenServe {
    /// 3,000 DEEP-like vectors, for the reason given at
    /// [`super::replay::PaperReplay::full`].
    pub fn full() -> Self {
        OpenServe {
            vectors: 3_000,
            base_queries: 256,
            arrivals: 1_000,
        }
    }
}

pub struct Inputs {
    workload: SimWorkload,
    seed: u64,
}

/// One serving run at one offered rate.
struct Point {
    report: ServeReport,
    /// Per-request latencies in cycles: end to end, queued, executing.
    total: Vec<u64>,
    queue: Vec<u64>,
    execute: Vec<u64>,
    /// Offered rate the generated arrivals actually realise.
    realised_qps: f64,
}

impl Point {
    /// Achieved rate over the realised offered rate.
    fn achieved_share(&self) -> f64 {
        self.report.achieved_qps() / self.realised_qps
    }

    fn sustainable(&self) -> bool {
        self.report.shed() == 0
            && p99(&self.total) <= P99_LIMIT_CYCLES
            && self.achieved_share() >= MIN_ACHIEVED_SHARE
    }
}

fn p99(cycles: &[u64]) -> u64 {
    let mut sorted = cycles.to_vec();
    sorted.sort_unstable();
    if sorted.is_empty() {
        u64::MAX
    } else {
        percentile(&sorted, 99.0)
    }
}

impl OpenServe {
    fn run(&self, inputs: &Inputs, qps: f64, tracer: &mut Tracer) -> Point {
        let cfg = SystemConfig::default();
        let clock = cfg.dram.clock_mhz;
        let serve = ServeConfig::open_loop(inputs.seed, qps, self.arrivals, P99_LIMIT_CYCLES);
        let mut records = Records::new(false);
        let report = tracer.span("serve.run_s", |_| {
            run_serve_with_sink(&inputs.workload, &cfg, &serve, &mut records)
        });
        let arrivals = generate_arrivals(
            &serve.tenants,
            inputs.workload.queries.len(),
            serve.seed,
            clock,
        );
        let last = arrivals.last().map_or(1, |a| a.cycle.max(1));
        Point {
            report,
            total: records.take("serve.total_cycles"),
            queue: records.take("serve.queue_cycles"),
            execute: records.take("serve.exec_cycles"),
            realised_qps: arrivals.len() as f64 * clock as f64 * 1e6 / last as f64,
        }
    }
}

impl Workload for OpenServe {
    type Inputs = Inputs;

    fn setup(&self, seed: u64, tracer: &mut Tracer) -> Inputs {
        let spec = SynthSpec::deep()
            .scaled(self.vectors, self.base_queries)
            .with_seed(seed);
        let workload = if tracer.enabled() {
            super::replay::prepare_traced(&spec, tracer)
        } else {
            SimWorkload::prepare(&spec, K, None)
        };
        Inputs { workload, seed }
    }

    fn same_inputs(a: &Inputs, b: &Inputs) -> bool {
        a.seed == b.seed && same_workload(&a.workload, &b.workload)
    }

    fn pass(&self, inputs: &Inputs, tracer: &mut Tracer) -> Pass {
        let clock = SystemConfig::default().dram.clock_mhz;
        let points: Vec<Point> = RATES_QPS
            .iter()
            .map(|&qps| self.run(inputs, qps, tracer))
            .collect();

        let mut sim = Values::new();
        latency_metrics(&mut sim, points[0].total.clone(), clock);
        sim.insert("sim_qps", capacity(&points));
        sim.insert("recall_at_10", inputs.workload.recall);
        let busy = &points[CHECKED - 1];
        let us = |c: u64| cycles_to_us(c as f64, clock);
        sim.insert("serve.p99_us", us(p99(&busy.total)));
        sim.insert("serve.queue_p99_us", us(p99(&busy.queue)));
        sim.insert("serve.execute_p99_us", us(p99(&busy.execute)));
        sim.insert("serve.mean_batch", busy.report.mean_batch_size());
        sim.insert("serve.batches", busy.report.batches as f64);
        sim.insert(
            "serve.overload_shed_frac",
            points[RATES_QPS.len() - 1].report.shed_rate(),
        );

        let checked = &points[..CHECKED];
        let mut fingerprint = ansmet_obs::Fnv64::new();
        for p in checked {
            fingerprint.write_u64(p.report.results_fingerprint);
        }
        let accounted = points
            .iter()
            .all(|p| p.report.completed() + p.report.shed() == p.report.offered());
        Pass {
            attempted: checked.iter().map(|p| p.report.offered()).sum(),
            failed: checked.iter().map(|p| p.report.shed()).sum(),
            simulated_ops: points.iter().map(|p| p.report.completed()).sum(),
            sim,
            fingerprint: fingerprint.finish(),
            checks: vec![("completed + shed equals offered", accounted)],
        }
    }
}

/// The highest sustainable rate, between the first unsustainable grid
/// rate and the one before it: the lowest rate at which a criterion that
/// fails at the higher rate crosses its limit. The p99 crosses on a log
/// scale and the achieved share linearly; shedding has no crossing, so a
/// rate that sheds puts the capacity at the rate before it. A capacity
/// beyond the grid reads as its top rate.
fn capacity(points: &[Point]) -> f64 {
    let Some(i) = points.iter().position(|p| !p.sustainable()) else {
        return RATES_QPS[RATES_QPS.len() - 1];
    };
    if i == 0 {
        return 0.0;
    }
    let (lo, hi) = (&points[i - 1], &points[i]);
    // How far from the lower rate to the higher one the capacity lies.
    let mut cross: f64 = if hi.report.shed() > 0 { 0.0 } else { 1.0 };
    let (p_lo, p_hi) = (p99(&lo.total) as f64, p99(&hi.total) as f64);
    let limit = P99_LIMIT_CYCLES as f64;
    if p_hi > limit {
        cross = cross.min((limit.ln() - p_lo.ln()) / (p_hi.ln() - p_lo.ln()));
    }
    let (s_lo, s_hi) = (lo.achieved_share(), hi.achieved_share());
    if s_hi < MIN_ACHIEVED_SHARE {
        cross = cross.min((s_lo - MIN_ACHIEVED_SHARE) / (s_lo - s_hi));
    }
    RATES_QPS[i - 1] + (RATES_QPS[i] - RATES_QPS[i - 1]) * cross
}
