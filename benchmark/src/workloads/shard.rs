//! `shard-scatter`: closed loop, one routed query at a time. Three cells
//! share one dataset: 4 hash shards healthy, the same shard set while
//! shard 0 is dark for the first half of the healthy timeline, and 8
//! k-means shards. Most host time goes to per-shard index builds and the
//! router's early-termination replay; hops are priced by the router's
//! flat cost model, not the DRAM model.

use ansmet_cluster::merge::merge_partials;
use ansmet_cluster::partition::RoutingPolicy;
use ansmet_cluster::report::results_fingerprint;
use ansmet_cluster::router::{Router, RouterConfig, RouterStats};
use ansmet_cluster::serving::ClusterFleet;
use ansmet_cluster::shard::ShardSet;
use ansmet_core::{EtEngine, EtScratch};
use ansmet_faults::StormPlan;
use ansmet_index::Neighbor;
use ansmet_obs::NoopSink;
use ansmet_sim::{SystemConfig, Workload as SimWorkload};
use ansmet_vecdata::{recall_at_k, SynthSpec};

use super::replay::same_workload;
use super::{latency_metrics, ratio, Pass, Workload, K};
use crate::metrics::{cycles_to_us, percentile, Values};
use crate::trace::Tracer;

/// Beam width of every shard search.
const EF: usize = 40;
/// A shard cell's recall may trail the monolithic index by this much.
const RECALL_SLACK: f64 = 0.05;

pub struct ShardScatter {
    pub vectors: usize,
    pub queries: usize,
}

impl ShardScatter {
    pub fn full() -> Self {
        ShardScatter {
            vectors: 3_000,
            queries: 128,
        }
    }
}

pub struct Inputs {
    /// The monolithic index: ground truth and the recall reference.
    mono: SimWorkload,
    hash4: ShardSet,
    kmeans8: ShardSet,
}

/// One routed cell: totals plus per-query latency and merged results.
struct Cell {
    stats: RouterStats,
    latency: Vec<u64>,
    merged: Vec<Vec<Neighbor>>,
}

/// Evaluations of `set`'s traces that the shard's ET engine prunes at a
/// threshold above their true distance. The engine's lower bound does not
/// depend on the threshold, and it prunes once the bound reaches the
/// threshold, so a prune that is wrong at any threshold is wrong at the
/// smallest one above the distance. Zero therefore means no threshold
/// the router can put in force, tightened or not, prunes a vector below
/// it.
fn unsound_prunes(set: &ShardSet) -> u64 {
    let mut scratch = EtScratch::new();
    let mut unsound = 0;
    for shard in &set.shards {
        let engine = EtEngine::new(&shard.workload.data, shard.et.clone());
        for (trace, query) in shard.workload.traces.iter().zip(&set.queries) {
            for eval in trace.hops.iter().flat_map(|h| &h.evals) {
                let cost =
                    engine.evaluate_with(eval.id, query, eval.distance.next_up(), &mut scratch);
                unsound += u64::from(cost.pruned);
            }
        }
    }
    unsound
}

/// Route every query of `set` in order over `fleet`, advancing the
/// fleet's clock by each query's latency.
fn route_all(set: &ShardSet, mut fleet: ClusterFleet, tracer: &mut Tracer) -> (Cell, ClusterFleet) {
    tracer.span("cluster.route_s", |_| {
        let mut router = Router::new(set, RouterConfig::default());
        let mut cell = Cell {
            stats: RouterStats::default(),
            latency: Vec::with_capacity(set.queries.len()),
            merged: Vec::with_capacity(set.queries.len()),
        };
        for qi in 0..set.queries.len() {
            let outcome = router.route(qi, &mut fleet, &mut NoopSink);
            fleet.advance(outcome.latency_cycles);
            cell.stats.absorb(&outcome);
            cell.latency.push(outcome.latency_cycles);
            cell.merged.push(outcome.merged);
        }
        (cell, fleet)
    })
}

impl Workload for ShardScatter {
    type Inputs = Inputs;

    fn setup(&self, seed: u64, tracer: &mut Tracer) -> Inputs {
        let spec = SynthSpec::sift()
            .scaled(self.vectors, self.queries)
            .with_seed(seed);
        let (data, queries) = tracer.span("vecdata.generate_s", |_| spec.generate());
        let mono = tracer.span("cluster.mono_build_s", |_| {
            SimWorkload::from_parts(data.clone(), queries.clone(), K, EF)
        });
        let [hash4, kmeans8] =
            [(4, RoutingPolicy::Hash), (8, RoutingPolicy::KMeans)].map(|(shards, policy)| {
                tracer.span("cluster.shardset_build_s", |_| {
                    ShardSet::build(&data, &queries, K, EF, shards, policy, seed)
                })
            });
        Inputs {
            mono,
            hash4,
            kmeans8,
        }
    }

    fn same_inputs(a: &Inputs, b: &Inputs) -> bool {
        let same_set = |x: &ShardSet, y: &ShardSet| {
            x.assignment.shard_of == y.assignment.shard_of
                && x.assignment.centroids == y.assignment.centroids
                && x.shards.len() == y.shards.len()
                && x.shards.iter().zip(&y.shards).all(|(s, t)| {
                    s.global_ids == t.global_ids && same_workload(&s.workload, &t.workload)
                })
        };
        same_workload(&a.mono, &b.mono)
            && same_set(&a.hash4, &b.hash4)
            && same_set(&a.kmeans8, &b.kmeans8)
    }

    fn pass(&self, inputs: &Inputs, tracer: &mut Tracer) -> Pass {
        let clock = SystemConfig::default().dram.clock_mhz;
        let (hash4, _) = route_all(&inputs.hash4, ClusterFleet::healthy(4), tracer);
        let outage = StormPlan::single_group_outage(0, 0, (hash4.stats.latency_total / 2).max(1));
        let (storm, storm_fleet) = route_all(
            &inputs.hash4,
            ClusterFleet::new(4, Default::default(), outage),
            tracer,
        );
        let (kmeans8, _) = route_all(&inputs.kmeans8, ClusterFleet::healthy(8), tracer);

        let truth = &inputs.mono.ground_truth.ids;
        let recall = |cell: &Cell| {
            cell.merged
                .iter()
                .zip(truth)
                .map(|(got, want)| {
                    let ids: Vec<usize> = got.iter().map(|n| n.id).collect();
                    recall_at_k(&ids, want, K)
                })
                .sum::<f64>()
                / truth.len() as f64
        };
        let healthy = [&hash4, &kmeans8];
        let floor = inputs.mono.recall - RECALL_SLACK;
        let recall_ok = healthy.iter().all(|c| recall(c) >= floor);
        // The router's `et_mismatches` sums three soundness counts: (a) a
        // prune below the threshold in force, (b) a pruned id in the
        // merged top-k, and (c) a merged top-k that differs from the merge
        // over all shards. (b) also counts an id pruned at an upper HNSW
        // layer and accepted at the base layer, so the sum is reported,
        // not gated. `check_inputs` gates (a) for every threshold and the
        // pass gates (c); (b) stays ungated.
        let mismatches: u64 = [&hash4, &storm, &kmeans8]
            .iter()
            .map(|c| c.stats.et_mismatches)
            .sum();
        let differs_from_reference = |set: &ShardSet, cell: &Cell| {
            cell.merged
                .iter()
                .enumerate()
                .filter(|(qi, got)| {
                    let partials: Vec<Vec<Neighbor>> =
                        (0..set.len()).map(|s| set.shard_partial(s, *qi)).collect();
                    **got != merge_partials(K, &partials)
                })
                .count() as u64
        };
        let wrong = differs_from_reference(&inputs.hash4, &hash4)
            + differs_from_reference(&inputs.hash4, &storm)
            + differs_from_reference(&inputs.kmeans8, &kmeans8);

        // Latency comes from one cell: pooling cells with different shard
        // counts would put the median between two distributions.
        let mut sim = Values::new();
        latency_metrics(&mut sim, hash4.latency.clone(), clock);
        sim.insert(
            "sim_qps",
            self.queries as f64 * clock as f64 * 1e6 / hash4.stats.latency_total.max(1) as f64,
        );
        sim.insert(
            "recall_at_10",
            healthy.iter().map(|c| recall(c)).sum::<f64>() / healthy.len() as f64,
        );
        let total =
            |f: fn(&RouterStats) -> u64| healthy.iter().map(|c| f(&c.stats)).sum::<u64>() as f64;
        sim.insert(
            "cluster.bound_saved_frac",
            1.0 - ratio(
                total(|s| s.ndp_lines_with_bound),
                total(|s| s.ndp_lines_independent),
            ),
        );
        sim.insert(
            "cluster.shards_skipped_frac",
            ratio(
                total(|s| s.shards_skipped),
                total(|s| s.shards_visited + s.shards_skipped),
            ),
        );
        sim.insert(
            "cluster.pruned_frac",
            ratio(total(|s| s.pruned_evals), total(|s| s.evals)),
        );
        sim.insert(
            "cluster.imbalance",
            inputs
                .hash4
                .assignment
                .imbalance()
                .max(inputs.kmeans8.assignment.imbalance()),
        );
        let mut storm_latency = storm.latency.clone();
        storm_latency.sort_unstable();
        sim.insert(
            "cluster.storm_p90_us",
            cycles_to_us(percentile(&storm_latency, 90.0) as f64, clock),
        );
        sim.insert(
            "cluster.failovers",
            (storm.stats.replica_dispatches + storm.stats.host_dispatches) as f64,
        );
        sim.insert("cluster.et_mismatches", mismatches as f64);
        sim.insert("faults.timeouts", storm_fleet.timeouts as f64);
        sim.insert(
            "faults.breaker_rejections",
            storm_fleet.breaker_rejections as f64,
        );

        let mut fp = ansmet_obs::Fnv64::new();
        for cell in [&hash4, &storm, &kmeans8] {
            fp.write_u64(results_fingerprint(&cell.merged));
        }
        let routed_all = 3 * self.queries as u64;
        Pass {
            attempted: routed_all,
            failed: wrong,
            simulated_ops: routed_all,
            sim,
            fingerprint: fp.finish(),
            checks: vec![
                (
                    "merged top-k equals the all-shard reference merge",
                    wrong == 0,
                ),
                (
                    "storm fingerprint equals healthy fingerprint",
                    results_fingerprint(&storm.merged) == results_fingerprint(&hash4.merged),
                ),
                ("shard recall@10 >= monolithic - 0.05", recall_ok),
            ],
        }
    }

    fn check_inputs(&self, inputs: &Inputs) -> Vec<(&'static str, bool)> {
        let unsound = unsound_prunes(&inputs.hash4) + unsound_prunes(&inputs.kmeans8);
        vec![(
            "no shard prunes a vector below the threshold in force",
            unsound == 0,
        )]
    }
}
