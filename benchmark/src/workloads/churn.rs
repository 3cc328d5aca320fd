//! `churn-mix`: reads alongside writes, open loop. The index takes
//! inserts, tombstone deletes, epoch compaction and layout re-validation
//! while it serves reads, so a change that speeds reads by slowing
//! writes shows here. Reads are priced by the freshness plane's flat
//! cost model, not the DRAM model.

use ansmet_freshness::{
    load, run_churn_with_sink, save, ChurnConfig, EpochConfig, EpochMeta, LayoutArtifacts,
    MutableIndex, UpdateTenantSpec,
};
use ansmet_index::HnswParams;
use ansmet_serve::{ArrivalProcess, TenantSpec};
use ansmet_sim::SystemConfig;
use ansmet_vecdata::{recall_at_k, Dataset, SynthSpec};

use super::{latency_metrics, ratio, Pass, Records, Workload, K};
use crate::metrics::{cycles_to_us, Values};
use crate::trace::Tracer;

/// Beam width of every read.
const EF: usize = 64;
/// Level-sampling seed of the live index.
const LEVEL_SEED: u64 = 0xF5E5;
/// Outlier budget of the frozen layout plan.
const OUTLIER_BUDGET: f64 = 0.01;
/// Epoch metadata of a freshly built index.
const EMPTY_META: EpochMeta = EpochMeta {
    epoch: 0,
    last_epoch_cycle: 0,
};

pub struct ChurnMix {
    pub vectors: usize,
    pub queries: usize,
    /// Vectors held out of the initial build and streamed in by inserts.
    pub held_out: usize,
    pub reads: usize,
    pub updates: usize,
}

impl ChurnMix {
    pub fn full() -> Self {
        ChurnMix {
            vectors: 4_000,
            queries: 256,
            held_out: 800,
            reads: 3_000,
            updates: 1_500,
        }
    }

    fn config(&self, seed: u64) -> ChurnConfig {
        ChurnConfig {
            seed,
            mem_clock_mhz: SystemConfig::default().dram.clock_mhz,
            read_tenants: vec![TenantSpec {
                name: "reader".into(),
                weight: 4,
                process: ArrivalProcess::Poisson { qps: 40_000.0 },
                slo_cycles: 1_000_000,
                queries: self.reads,
            }],
            update_tenants: vec![UpdateTenantSpec {
                name: "writer".into(),
                weight: 2,
                qps: 50_000.0,
                ops: self.updates,
                delete_frac: 0.35,
            }],
            k: K,
            ef: EF,
            queue_depth_limit: 128,
            epoch: EpochConfig {
                interval_cycles: 600_000,
                conservative_headroom: 0.02,
            },
        }
    }
}

pub struct Inputs {
    index: MutableIndex,
    layout: LayoutArtifacts,
    queries: Vec<Vec<f32>>,
    pending: Vec<Vec<f32>>,
    seed: u64,
}

impl Workload for ChurnMix {
    type Inputs = Inputs;

    fn setup(&self, seed: u64, tracer: &mut Tracer) -> Inputs {
        let spec = SynthSpec::sift()
            .scaled(self.vectors, self.queries)
            .with_seed(seed);
        let (full, queries) = tracer.span("vecdata.generate_s", |_| spec.generate());
        let base_n = self.vectors - self.held_out;
        let base = Dataset::from_values(
            full.name(),
            full.dtype(),
            full.metric(),
            full.dim(),
            (0..base_n).flat_map(|i| full.vector(i).to_vec()).collect(),
        );
        let pending = (base_n..self.vectors)
            .map(|i| full.vector(i).to_vec())
            .collect();
        let (index, layout) = tracer.span("freshness.build_s", |_| {
            let index = MutableIndex::build_hnsw(base, HnswParams::quick(), LEVEL_SEED);
            let layout = LayoutArtifacts::plan(&index, OUTLIER_BUDGET);
            (index, layout)
        });
        Inputs {
            index,
            layout,
            queries,
            pending,
            seed,
        }
    }

    fn same_inputs(a: &Inputs, b: &Inputs) -> bool {
        a.seed == b.seed
            && a.queries == b.queries
            && a.pending == b.pending
            && save(&a.index, &a.layout, &EMPTY_META) == save(&b.index, &b.layout, &EMPTY_META)
    }

    fn pass(&self, inputs: &Inputs, tracer: &mut Tracer) -> Pass {
        let cfg = self.config(inputs.seed);
        let clock = cfg.mem_clock_mhz;
        let mut index = inputs.index.clone();
        let mut layout = inputs.layout.clone();
        // The churn loop emits per-read records only to an enabled sink.
        let mut records = Records::new(true);
        let report = tracer.span("freshness.churn_s", |_| {
            run_churn_with_sink(
                &mut index,
                &mut layout,
                &inputs.queries,
                &inputs.pending,
                &cfg,
                &mut records,
            )
        });
        let read_exec: u64 = records.take("churn.exec_cycles").iter().sum();

        let meta = EpochMeta {
            epoch: report.epochs.len() as u64,
            last_epoch_cycle: report.end_cycle,
        };
        let (blob, round_trip) = tracer.span("freshness.snapshot_s", |_| {
            let blob = save(&index, &layout, &meta);
            let round_trip = load(&blob).is_ok_and(|restored| {
                restored.meta == meta
                    && restored.index.live_len() == index.live_len()
                    && restored.index.generation() == index.generation()
                    && inputs.queries.iter().all(|q| {
                        restored.index.search_exact(q, K, EF).ids()
                            == index.search_exact(q, K, EF).ids()
                    })
            });
            (blob, round_trip)
        });
        let recall = tracer.span("freshness.recall_s", |_| {
            inputs
                .queries
                .iter()
                .map(|q| {
                    recall_at_k(
                        &index.search_exact(q, K, EF).ids(),
                        &index.live_ground_truth(q, K),
                        K,
                    )
                })
                .sum::<f64>()
                / inputs.queries.len() as f64
        });

        let served = report.reads_served + report.inserts_applied + report.deletes_applied;
        let offered = (self.reads + self.updates) as u64;
        let p99_us =
            |h: &ansmet_obs::LatencyHistogram| cycles_to_us(h.quantile(0.99) as f64, clock);
        let mut sim = Values::new();
        latency_metrics(&mut sim, records.take("churn.total_cycles"), clock);
        // Read capacity: reads per simulated second of device busy time.
        sim.insert(
            "sim_qps",
            report.reads_served as f64 * clock as f64 * 1e6 / read_exec.max(1) as f64,
        );
        sim.insert("recall_at_10", recall);
        sim.insert("freshness.inserts", report.inserts_applied as f64);
        sim.insert("freshness.deletes", report.deletes_applied as f64);
        sim.insert("freshness.epochs", report.epochs.len() as f64);
        sim.insert("freshness.read_p99_us", p99_us(&report.read_latency));
        sim.insert("freshness.update_p99_us", p99_us(&report.update_latency));
        sim.insert("freshness.pause_p99_us", p99_us(&report.pause));
        sim.insert(
            "freshness.conservative_per_read",
            ratio(
                report.conservative_fetches as f64,
                report.reads_served as f64,
            ),
        );
        sim.insert(
            "freshness.line_savings_frac",
            1.0 - ratio(report.lines_fetched as f64, report.lines_baseline as f64),
        );
        sim.insert("freshness.et_mismatches", report.et_mismatches as f64);
        sim.insert("freshness.snapshot_kib", blob.len() as f64 / 1024.0);

        let shed = report.reads_shed + report.updates_shed;
        Pass {
            attempted: offered,
            failed: shed + report.et_mismatches,
            simulated_ops: served + report.updates_noop,
            sim,
            fingerprint: report.results_fingerprint,
            checks: vec![
                ("freshness et_mismatches == 0", report.et_mismatches == 0),
                ("snapshot save/load round trip", round_trip),
                (
                    "served + shed + no-op equals offered",
                    served + shed + report.updates_noop == offered,
                ),
            ],
        }
    }
}
