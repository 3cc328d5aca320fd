//! `paper-replay`: the paper's own method. One closed-loop stream replays
//! one query at a time through every design (Figs. 6-10), and NDP-ETOpt
//! also runs 16 concurrent streams at 8 and 64 units (Table 3).
//!
//! One dataset fits the modelled 8 MB LLC (DEEP-like, 1.2 MB) and one
//! does not (GIST-like, 9.2 MB), so a change to the cache or row-buffer
//! model shows on one and not the other.

use std::hint::black_box;

use ansmet_core::{SamplingConfig, SamplingProfile};
use ansmet_index::{Hnsw, HnswParams};
use ansmet_obs::{Phase, RecorderConfig};
use ansmet_sim::{
    run_design, run_design_throughput, run_design_traced, Design, DesignPlan, RunResult,
    SystemConfig, SystemEnergyModel, TraceOptions, Workload as SimWorkload,
};
use ansmet_vecdata::{GroundTruth, SynthSpec};

use super::{latency_metrics, ratio, Pass, Workload, K};
use crate::metrics::{cycles_to_us, Values};
use crate::trace::Tracer;

/// Recall floor for the auto-tuned beam width.
const RECALL_FLOOR: f64 = 0.8;
/// Concurrent streams of the throughput runs.
const STREAMS: usize = 16;

pub struct PaperReplay {
    /// (vectors, queries) of the DEEP-like dataset.
    pub deep: (usize, usize),
    /// (vectors, queries) of the GIST-like dataset.
    pub gist: (usize, usize),
}

impl PaperReplay {
    /// DEEP-like at 3,000 vectors: at 4,000, NDP-ETOpt's fetch-schedule
    /// optimizer picks a six-step schedule on 5 of seeds 1-40 and a
    /// two-step one on the rest, and the six-step one costs about 45 %
    /// more host time. At 3,000 it picked the two-step schedule on all
    /// of seeds 1-60, so host time does not jump from seed to seed.
    pub fn full() -> Self {
        PaperReplay {
            deep: (3_000, 192),
            gist: (2_400, 24),
        }
    }
}

pub struct Inputs {
    /// DEEP-like first; it also carries the throughput runs.
    workloads: Vec<SimWorkload>,
}

/// The span name of one design's replay.
fn replay_span(design: Design) -> &'static str {
    match design {
        Design::CpuBase => "sim.replay_s.CpuBase",
        Design::CpuEt => "sim.replay_s.CpuEt",
        Design::CpuEtOpt => "sim.replay_s.CpuEtOpt",
        Design::NdpBase => "sim.replay_s.NdpBase",
        Design::NdpDimEt => "sim.replay_s.NdpDimEt",
        Design::NdpBitEt => "sim.replay_s.NdpBitEt",
        Design::NdpEt => "sim.replay_s.NdpEt",
        Design::NdpEtDual => "sim.replay_s.NdpEtDual",
        Design::NdpEtOpt => "sim.replay_s.NdpEtOpt",
    }
}

/// [`SimWorkload::prepare`] with its steps called one by one, each in its
/// own span. Must build exactly what `prepare` builds.
pub fn prepare_traced(spec: &SynthSpec, tracer: &mut Tracer) -> SimWorkload {
    let (data, queries) = tracer.span("vecdata.generate_s", |_| spec.generate());
    let params = if data.len() <= 5_000 {
        HnswParams {
            ef_construction: 120,
            ..HnswParams::default()
        }
    } else {
        HnswParams::default()
    };
    let t0 = std::time::Instant::now();
    let hnsw = tracer.span("index.build_s", |_| Hnsw::build(&data, params));
    let graph_build_secs = t0.elapsed().as_secs_f64();
    let ground_truth = tracer.span("vecdata.ground_truth_s", |_| {
        GroundTruth::compute(&data, &queries, K)
    });
    let samples = 100.min(data.len() / 2).max(2);
    let profile = tracer.span("core.sampling_s", |_| {
        SamplingProfile::build(&data, &SamplingConfig::default().with_samples(samples))
    });
    let mut wl = SimWorkload {
        name: data.name().to_string(),
        data,
        queries,
        hnsw: Some(hnsw),
        ivf: None,
        k: K,
        ef: K,
        traces: Vec::new(),
        results: Vec::new(),
        ground_truth,
        recall: 0.0,
        profile,
        outlier_frac: 0.001,
        graph_build_secs,
    };
    loop {
        tracer.span("index.trace_s", |_| wl.retrace(wl.ef));
        if wl.recall >= RECALL_FLOOR || wl.ef >= wl.data.len() {
            return wl;
        }
        wl.ef *= 2;
    }
}

/// Whether two prepared workloads hold the same data, index and traces.
pub fn same_workload(a: &SimWorkload, b: &SimWorkload) -> bool {
    let index = |w: &SimWorkload| {
        let h = w.hnsw.as_ref().expect("HNSW workload");
        (h.entry_point(), h.levels().to_vec())
    };
    a.name == b.name
        && a.data.len() == b.data.len()
        && a.data.iter().eq(b.data.iter())
        && a.queries == b.queries
        && index(a) == index(b)
        && a.ef == b.ef
        && a.traces == b.traces
        && a.results == b.results
        && a.ground_truth == b.ground_truth
        && a.recall == b.recall
        && a.profile == b.profile
}

impl Workload for PaperReplay {
    type Inputs = Inputs;

    fn setup(&self, seed: u64, tracer: &mut Tracer) -> Inputs {
        let specs = [
            SynthSpec::deep().scaled(self.deep.0, self.deep.1),
            SynthSpec::gist().scaled(self.gist.0, self.gist.1),
        ];
        let workloads: Vec<SimWorkload> = specs
            .iter()
            .map(|spec| {
                let spec = spec.clone().with_seed(seed);
                let wl = if tracer.enabled() {
                    prepare_traced(&spec, tracer)
                } else {
                    SimWorkload::prepare(&spec, K, None)
                };
                tracer.span("core.plan_s", |_| {
                    for design in Design::all() {
                        black_box(DesignPlan::build(design, &wl));
                    }
                });
                wl
            })
            .collect();
        Inputs { workloads }
    }

    fn same_inputs(a: &Inputs, b: &Inputs) -> bool {
        a.workloads.len() == b.workloads.len()
            && a.workloads
                .iter()
                .zip(&b.workloads)
                .all(|(x, y)| same_workload(x, y))
    }

    fn pass(&self, inputs: &Inputs, tracer: &mut Tracer) -> Pass {
        let cfg = SystemConfig::default();
        let clock = cfg.dram.clock_mhz;
        let trace_opts = TraceOptions {
            recorder: RecorderConfig {
                max_events: 0,
                max_spans: usize::MAX,
            },
            dram_commands: false,
        };

        let mut runs: Vec<Vec<RunResult>> = Vec::new();
        let mut latencies = Vec::new();
        let mut phase_cycles = [0u64; 4];
        let mut phase_mismatches = 0u64;
        let mut traced_equal = true;
        let mut fingerprint = ansmet_obs::Fnv64::new();
        for wl in &inputs.workloads {
            let per_design: Vec<RunResult> = Design::all()
                .into_iter()
                .map(|d| tracer.span(replay_span(d), |_| run_design(d, wl, &cfg)))
                .collect();
            let (traced, recording) = tracer.span("sim.traced_replay_s", |_| {
                run_design_traced(Design::NdpEtOpt, wl, &cfg, &trace_opts)
            });
            traced_equal &= per_design.last() == Some(&traced);
            for q in &recording.queries {
                let phases = q.phase_cycles();
                let four = [
                    Phase::Traversal,
                    Phase::Offload,
                    Phase::DistComp,
                    Phase::ResultCollect,
                ]
                .map(|p| phases[p.index()]);
                for (acc, c) in phase_cycles.iter_mut().zip(four) {
                    *acc += c;
                }
                if four.iter().sum::<u64>() != q.total_cycles
                    || phases.iter().sum::<u64>() != q.total_cycles
                    || q.dropped_spans > 0
                {
                    phase_mismatches += 1;
                }
                latencies.push(q.total_cycles);
            }
            for r in &per_design {
                fingerprint.write_u64(r.total_cycles);
            }
            runs.push(per_design);
        }

        let deep = &inputs.workloads[0];
        let mut throughput = |units: usize| {
            tracer.span("sim.throughput_s", |_| {
                run_design_throughput(
                    Design::NdpEtOpt,
                    deep,
                    &cfg.clone().with_ndp_units(units),
                    STREAMS,
                )
            })
        };
        let t8 = throughput(8);
        let t64 = throughput(64);

        let design_idx = |d: Design| Design::all().iter().position(|&x| x == d).expect("design");
        let sum = |d: Design, f: &dyn Fn(&RunResult) -> u64| -> f64 {
            runs.iter().map(|r| f(&r[design_idx(d)])).sum::<u64>() as f64
        };
        let queries: usize = inputs.workloads.iter().map(|w| w.queries.len()).sum();
        let n = queries as f64;
        let opt = Design::NdpEtOpt;
        let energy = SystemEnergyModel::default();

        let mut sim = Values::new();
        latency_metrics(&mut sim, latencies, clock);
        sim.insert("sim_qps", t64.qps(clock));
        sim.insert(
            "recall_at_10",
            inputs
                .workloads
                .iter()
                .map(|w| w.recall * w.queries.len() as f64)
                .sum::<f64>()
                / n,
        );
        sim.insert(
            "index.evals_per_query",
            inputs
                .workloads
                .iter()
                .map(|w| w.mean_evals_per_query() * w.queries.len() as f64)
                .sum::<f64>()
                / n,
        );
        sim.insert(
            "core.pruned_frac",
            ratio(sum(opt, &|r| r.pruned_evals), sum(opt, &|r| r.total_evals)),
        );
        sim.insert(
            "core.fetch_utilization",
            ratio(
                sum(opt, &|r| r.effectual_lines),
                sum(opt, &|r| r.total_lines()),
            ),
        );
        sim.insert("core.lines_per_query", sum(opt, &|r| r.total_lines()) / n);
        sim.insert(
            "host.cpu_cycles_per_query",
            sum(Design::CpuBase, &|r| r.host_cpu_cycles) / n,
        );
        let gist_opt = &runs[runs.len() - 1][design_idx(opt)];
        let (acts, reads) = gist_opt
            .rank_counts
            .iter()
            .fold((0, 0), |(a, r), c| (a + c.0, r + c.2));
        sim.insert("dram.acts_per_read", ratio(acts as f64, reads as f64));
        sim.insert("ndp.polls_per_query", sum(opt, &|r| r.polls) / n);
        sim.insert(
            "ndp.rank_imbalance",
            runs.iter()
                .map(|r| {
                    let loads = &r[design_idx(opt)].rank_loads;
                    let mean = loads.iter().sum::<u64>() as f64 / loads.len().max(1) as f64;
                    ratio(*loads.iter().max().unwrap_or(&0) as f64, mean)
                })
                .fold(0.0, f64::max),
        );
        for (name, cycles) in [
            "sim.phase_us.traversal",
            "sim.phase_us.offload",
            "sim.phase_us.dist_comp",
            "sim.phase_us.result_collect",
        ]
        .into_iter()
        .zip(phase_cycles)
        {
            sim.insert(name, cycles_to_us(cycles as f64 / n, clock));
        }
        let speedups: Vec<f64> = runs
            .iter()
            .map(|r| {
                r[design_idx(Design::CpuBase)].total_cycles as f64
                    / r[design_idx(opt)].total_cycles as f64
            })
            .collect();
        sim.insert(
            "sim.speedup_vs_cpu",
            (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp(),
        );
        // Table 3: 16 NDP streams against 16 CPU-Base cores on DEEP.
        let cpu_qps = STREAMS as f64 * runs[0][design_idx(Design::CpuBase)].qps(clock);
        sim.insert("sim.tput_speedup_8u", t8.qps(clock) / cpu_qps);
        sim.insert("sim.tput_speedup_64u", t64.qps(clock) / cpu_qps);
        sim.insert(
            "sim.energy_nj_per_query",
            runs.iter()
                .map(|r| energy.compute(&r[design_idx(opt)], &cfg).total_nj())
                .sum::<f64>()
                / n,
        );
        let recall_ok = inputs.workloads.iter().all(|w| w.recall >= RECALL_FLOOR);
        let replays = (Design::all().len() + 1) * queries;
        Pass {
            attempted: replays as u64,
            failed: phase_mismatches,
            simulated_ops: (replays + t8.queries + t64.queries) as u64,
            sim,
            fingerprint: fingerprint.finish(),
            checks: vec![
                ("traced RunResult equals untraced", traced_equal),
                (
                    "phase cycles sum to each query's total",
                    phase_mismatches == 0,
                ),
                ("replay recall@10 >= 0.8", recall_ok),
            ],
        }
    }
}
