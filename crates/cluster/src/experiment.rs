//! The `cluster` experiment: a shard-count × routing-policy sweep plus
//! a storm drill, rendered as text and the `BENCH_cluster.json`
//! artifact.
//!
//! For every `(S, policy)` cell the dataset is partitioned into S
//! shards, each with its own HNSW index and ANSMET fetch plan, and the
//! whole query list is scatter-gathered through the router on a healthy
//! fleet. The sweep verifies, per cell:
//!
//! * **Recall parity** — the merged top-k is checked against the
//!   reference merge and the ET soundness counters (`et_mismatches`
//!   must be 0 everywhere: cross-shard bound propagation and ball-bound
//!   shard skips are lossless by construction *and* by measurement).
//! * **Bound propagation engages** — every S ≥ 2 cell must save NDP
//!   lines over the propagation-free baseline (S = 1 has no foreign
//!   candidates and must save exactly nothing).
//!
//! The storm drill re-routes the S = 4 hash cell while a scripted
//! outage takes shard 0 dark for roughly the first half of the serving
//! timeline: the breaker trips, visits fail over to replicas (or the
//! host path), and the merged results must stay fingerprint-identical
//! to the healthy run.
//!
//! Everything is seeded and integer-cycle, so the artifact is
//! bit-identical across reruns and host thread counts.

use std::fmt::Write as _;

use ansmet_faults::StormPlan;
use ansmet_obs::{json_f64, json_string, NoopSink};
use ansmet_sim::experiment::Scale;
use ansmet_sim::Workload;
use ansmet_vecdata::recall::mean_recall_at_k;
use ansmet_vecdata::SynthSpec;

use crate::partition::RoutingPolicy;
use crate::report::{results_fingerprint, ClusterReport, ConfigReport, StormReport};
use crate::router::{Router, RouterConfig, RouterStats};
use crate::serving::{ClusterFleet, FleetConfig};
use crate::shard::ShardSet;

/// Neighbors per query.
const K: usize = 10;
/// Beam width per shard search.
const EF: usize = 40;
/// Partitioning seed.
const SEED: u64 = 0xC105;
/// Shard counts swept, in order.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// The storm drill's configuration (must be one of the sweep cells).
const STORM_SHARDS: usize = 4;
const STORM_POLICY: RoutingPolicy = RoutingPolicy::Hash;

/// Route every query of `set` over `fleet`, advancing the serving clock
/// between queries. Returns the totals and the per-query merged rows.
fn route_all(
    set: &ShardSet,
    fleet: &mut ClusterFleet,
) -> (RouterStats, Vec<Vec<ansmet_index::Neighbor>>) {
    let mut router = Router::new(set, RouterConfig::default());
    let mut stats = RouterStats::default();
    let mut merged = Vec::with_capacity(set.queries.len());
    for qi in 0..set.queries.len() {
        let outcome = router.route(qi, fleet, &mut NoopSink);
        fleet.advance(outcome.latency_cycles);
        stats.absorb(&outcome);
        merged.push(outcome.merged);
    }
    (stats, merged)
}

/// Run the cluster experiment at `scale`; returns `(text, json)` where
/// `json` is the `BENCH_cluster.json` artifact body.
pub fn cluster_experiment(scale: Scale) -> (String, String) {
    let report = cluster_report(scale);
    let text = render_text(&report);
    let json = render_json(&report, scale);
    (text, json)
}

/// Build the sweep + storm-drill report at `scale` (the structured form
/// behind [`cluster_experiment`]).
pub fn cluster_report(scale: Scale) -> ClusterReport {
    let spec = scale.spec(SynthSpec::sift());
    let (data, queries) = spec.generate();

    // Monolithic baseline: one index over the whole dataset at the same
    // k/ef, sharing its brute-force ground truth with the sweep.
    let mono = Workload::from_parts(data.clone(), queries.clone(), K, EF);
    let truth = &mono.ground_truth.ids;

    let mut configs: Vec<ConfigReport> = Vec::new();
    // The storm cell's shard set, results fingerprint and total latency.
    let mut healthy_storm_cell: Option<(ShardSet, u64, u64)> = None;
    for shards in SHARD_COUNTS {
        for policy in RoutingPolicy::all() {
            let set = ShardSet::build(&data, &queries, K, EF, shards, policy, SEED);
            let mut fleet = ClusterFleet::healthy(shards);
            let (stats, merged) = route_all(&set, &mut fleet);
            let fingerprint = results_fingerprint(&merged);
            let ids: Vec<Vec<usize>> = merged
                .iter()
                .map(|row| row.iter().map(|n| n.id).collect())
                .collect();
            configs.push(ConfigReport {
                policy,
                shards,
                imbalance: set.assignment.imbalance(),
                recall: mean_recall_at_k(&ids, truth, K),
                stats,
                results_fingerprint: fingerprint,
            });
            if shards == STORM_SHARDS && policy == STORM_POLICY {
                healthy_storm_cell = Some((set, fingerprint, stats.latency_total));
            }
        }
    }

    // Storm drill: shard 0 dark for the first half of the healthy
    // timeline, so the breaker trips, failover serves the early
    // queries, and recovery probes close the breaker later on.
    let (storm_set, healthy_fp, healthy_total) =
        healthy_storm_cell.expect("storm cell is part of the sweep");
    let storm = StormPlan::single_group_outage(0, 0, (healthy_total / 2).max(1));
    let mut storm_fleet = ClusterFleet::new(STORM_SHARDS, FleetConfig::default(), storm);
    let (storm_stats, storm_merged) = route_all(&storm_set, &mut storm_fleet);
    let storm_fp = results_fingerprint(&storm_merged);
    let storm_report = StormReport {
        shards: STORM_SHARDS,
        policy: STORM_POLICY,
        stats: storm_stats,
        results_fingerprint: storm_fp,
        fingerprint_matches_healthy: storm_fp == healthy_fp,
        timeouts: storm_fleet.timeouts,
        breaker_rejections: storm_fleet.breaker_rejections,
        breaker_opens: storm_fleet.health().opens(),
        breaker_closes: storm_fleet.health().closes(),
    };

    ClusterReport {
        dataset: data.name().to_string(),
        k: K,
        ef: EF,
        queries: queries.len(),
        mono_recall: mono.recall,
        configs,
        storm: storm_report,
    }
}

fn render_text(report: &ClusterReport) -> String {
    let mut text = String::new();
    let _ = writeln!(text, "{report}");
    let _ = writeln!(
        text,
        "   soundness: {} mismatches across sweep + storm; propagation engaged: {}",
        report.total_mismatches(),
        if report.propagation_engaged() {
            "yes"
        } else {
            "NO"
        },
    );
    text
}

fn render_json(report: &ClusterReport, scale: Scale) -> String {
    let rc = RouterConfig::default();
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"experiment\": \"cluster\",");
    let _ = writeln!(json, "  \"scale\": \"{}\",", scale.as_str());
    let _ = writeln!(json, "  \"dataset\": {},", json_string(&report.dataset));
    let _ = writeln!(
        json,
        "  \"config\": {{\"k\": {}, \"ef\": {}, \"seed\": {SEED}, \"queries\": {}, \
         \"max_concurrent_shards\": {}, \"hop_overhead_cycles\": {}, \"cycles_per_line\": {}, \
         \"merge_cycles_per_candidate\": {}}},",
        report.k,
        report.ef,
        report.queries,
        rc.max_concurrent_shards,
        rc.hop_overhead_cycles,
        rc.cycles_per_line,
        rc.merge_cycles_per_candidate,
    );
    let _ = writeln!(json, "  \"mono_recall\": {},", json_f64(report.mono_recall));
    let _ = writeln!(json, "  \"sweep\": [");
    for (i, c) in report.configs.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"policy\": \"{}\", \"shards\": {}, \"recall\": {}, \"imbalance\": {}, \
             \"mean_latency_cycles\": {}, \"max_latency_cycles\": {}, \"shards_visited\": {}, \
             \"shards_skipped\": {}, \"evals\": {}, \"pruned_evals\": {}, \"pruned_frac\": {}, \
             \"ndp_lines_with_bound\": {}, \"ndp_lines_independent\": {}, \
             \"bound_saved_frac\": {}, \"et_mismatches\": {}, \"results_fingerprint\": {}}}{}",
            c.policy.as_str(),
            c.shards,
            json_f64(c.recall),
            json_f64(c.imbalance),
            json_f64(c.stats.mean_latency_cycles()),
            c.stats.max_latency,
            c.stats.shards_visited,
            c.stats.shards_skipped,
            c.stats.evals,
            c.stats.pruned_evals,
            json_f64(c.stats.pruned_frac()),
            c.stats.ndp_lines_with_bound,
            c.stats.ndp_lines_independent,
            json_f64(c.stats.bound_saved_frac()),
            c.stats.et_mismatches,
            json_string(&format!("{:016x}", c.results_fingerprint)),
            if i + 1 < report.configs.len() {
                ","
            } else {
                ""
            },
        );
    }
    let _ = writeln!(json, "  ],");
    let s = &report.storm;
    let _ = writeln!(
        json,
        "  \"storm\": {{\"policy\": \"{}\", \"shards\": {}, \"timeouts\": {}, \
         \"breaker_rejections\": {}, \"breaker_opens\": {}, \"breaker_closes\": {}, \
         \"replica_dispatches\": {}, \"host_dispatches\": {}, \"penalty_cycles\": {}, \
         \"mean_latency_cycles\": {}, \"et_mismatches\": {}, \"results_fingerprint\": {}, \
         \"fingerprint_matches_healthy\": {}}},",
        s.policy.as_str(),
        s.shards,
        s.timeouts,
        s.breaker_rejections,
        s.breaker_opens,
        s.breaker_closes,
        s.stats.replica_dispatches,
        s.stats.host_dispatches,
        s.stats.penalty_cycles,
        json_f64(s.stats.mean_latency_cycles()),
        s.stats.et_mismatches,
        json_string(&format!("{:016x}", s.results_fingerprint)),
        s.fingerprint_matches_healthy,
    );
    let overall = {
        let mut fnv = ansmet_obs::Fnv64::new();
        for c in &report.configs {
            fnv.write_u64(c.results_fingerprint);
        }
        fnv.write_u64(s.results_fingerprint);
        fnv.finish()
    };
    let _ = writeln!(
        json,
        "  \"results_fingerprint\": {}",
        json_string(&format!("{overall:016x}")),
    );
    json.push_str("}\n");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_experiment_holds_its_invariants() {
        let report = cluster_report(Scale::Quick);
        assert_eq!(report.total_mismatches(), 0, "ET must stay lossless");
        assert!(report.propagation_engaged(), "S >= 2 must save lines");
        assert!(report.storm.fingerprint_matches_healthy);
        assert!(
            report.storm.timeouts + report.storm.breaker_rejections > 0,
            "the storm must actually disrupt dispatches"
        );
        for c in &report.configs {
            assert_eq!(
                c.stats.shards_visited + c.stats.shards_skipped,
                (c.shards * report.queries) as u64,
                "every shard is visited or provably skipped"
            );
            if c.shards == 1 {
                assert_eq!(
                    c.stats.ndp_lines_with_bound, c.stats.ndp_lines_independent,
                    "S=1 has no foreign candidates to tighten with"
                );
            }
            assert!(
                c.recall >= report.mono_recall - 0.05,
                "S={} {} recall {} fell below mono {}",
                c.shards,
                c.policy,
                c.recall,
                report.mono_recall
            );
        }

        let (text, json) = cluster_experiment(Scale::Quick);
        assert!(text.contains("propagation engaged: yes"), "{text}");
        assert!(text.contains("results identical"), "{text}");
        assert!(json.contains("\"experiment\": \"cluster\""));
        assert!(
            json.contains("\"fingerprint_matches_healthy\": true"),
            "{json}"
        );
    }

    #[test]
    fn quick_experiment_is_bit_identical_across_reruns() {
        let (t1, j1) = cluster_experiment(Scale::Quick);
        let (t2, j2) = cluster_experiment(Scale::Quick);
        assert_eq!(t1, t2, "text report must be bit-identical");
        assert_eq!(j1, j2, "json artifact must be bit-identical");
    }
}
