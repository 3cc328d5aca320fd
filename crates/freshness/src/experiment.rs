//! The `freshness` experiment: recall under churn vs a static rebuild,
//! update throughput, compaction pause tails, and snapshot round-trip
//! cost — rendered as text and as the `BENCH_freshness.json` artifact.
//!
//! The run streams a held-out 20 % of the dataset into a live HNSW index
//! while deletes tombstone seeded victims, with reads and updates
//! contending through the shared WFQ admission path and epochs firing on
//! the event wheel. After the churn drains:
//!
//! * **Recall under churn** — exact-oracle recall of the mutated index
//!   against brute-force ground truth over its live set, compared with a
//!   *freshly rebuilt* index over the same live vectors (the static
//!   control). The acceptance bar is `churn >= static - epsilon`.
//! * **Snapshot round trip** — the index + layout + epoch metadata are
//!   saved, re-saved (byte-stability), re-loaded (search equivalence),
//!   and recovered from a simulated torn write via the fallback path;
//!   save/restore cost is modeled in cycles from the blob size.
//!
//! Everything is seeded and integer-cycle, so the artifact is
//! bit-identical across reruns and host thread counts.

use std::fmt::Write as _;

use ansmet_index::HnswParams;
use ansmet_obs::{json_f64, json_string};
use ansmet_serve::{ArrivalProcess, TenantSpec};
use ansmet_sim::experiment::Scale;
use ansmet_sim::SystemConfig;
use ansmet_vecdata::recall::mean_recall_at_k;
use ansmet_vecdata::{Dataset, SynthSpec};

use crate::epoch::EpochConfig;
use crate::mutable::MutableIndex;
use crate::revalidate::LayoutArtifacts;
use crate::serving::{run_churn, ChurnConfig, ChurnReport, UpdateTenantSpec};
use crate::snapshot::{load, load_with_fallback, save, EpochMeta};

/// Modeled snapshot streaming cost per KiB (save and restore alike).
pub const SNAPSHOT_CYCLES_PER_KIB: u64 = 2_048;

/// Recall floor: churn recall may trail the static rebuild by this much.
pub const RECALL_EPSILON: f64 = 0.05;

/// Neighbors per read.
const K: usize = 10;
/// Beam width per read.
const EF: usize = 64;
/// Level-sampling seed shared by the live index and the static rebuild.
const LEVEL_SEED: u64 = 0xF5E5;

fn churn_config(scale: Scale, mem_clock_mhz: u64) -> ChurnConfig {
    let (reads, ops) = match scale {
        Scale::Quick => (80, 60),
        Scale::Full => (400, 300),
    };
    ChurnConfig {
        seed: 0xF8E5,
        mem_clock_mhz,
        read_tenants: vec![
            TenantSpec {
                name: "interactive".into(),
                weight: 4,
                process: ArrivalProcess::Poisson { qps: 150_000.0 },
                slo_cycles: 1_000_000,
                queries: reads,
            },
            TenantSpec {
                name: "bulk".into(),
                weight: 1,
                process: ArrivalProcess::Bursty {
                    base_qps: 20_000.0,
                    burst_qps: 120_000.0,
                    period_cycles: 2_000_000,
                    burst_frac: 0.2,
                },
                slo_cycles: 4_000_000,
                queries: reads / 2,
            },
        ],
        update_tenants: vec![UpdateTenantSpec {
            name: "writer".into(),
            weight: 2,
            qps: 50_000.0,
            ops,
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

struct RecallComparison {
    churn: f64,
    static_rebuild: f64,
}

/// Recall of the mutated index vs a fresh rebuild over its live set,
/// both against the same brute-force ground truth.
fn compare_recall(index: &MutableIndex, queries: &[Vec<f32>]) -> RecallComparison {
    let truth: Vec<Vec<usize>> = queries
        .iter()
        .map(|q| index.live_ground_truth(q, K))
        .collect();
    let churned: Vec<Vec<usize>> = queries
        .iter()
        .map(|q| index.search_exact(q, K, EF).ids())
        .collect();

    // Static control: rebuild from scratch over exactly the live
    // vectors, with the same build params and level seed, then map the
    // rebuild's local ids back to global ids.
    let live = index.live_ids();
    let data = index.data();
    let compacted = Dataset::from_values(
        "rebuild",
        data.dtype(),
        data.metric(),
        data.dim(),
        live.iter()
            .flat_map(|&id| data.vector(id).to_vec())
            .collect(),
    );
    let rebuilt = MutableIndex::build_hnsw(compacted, build_params(), LEVEL_SEED);
    let statics: Vec<Vec<usize>> = queries
        .iter()
        .map(|q| {
            rebuilt
                .search_exact(q, K, EF)
                .ids()
                .into_iter()
                .map(|local| live[local])
                .collect()
        })
        .collect();

    RecallComparison {
        churn: mean_recall_at_k(&churned, &truth, K),
        static_rebuild: mean_recall_at_k(&statics, &truth, K),
    }
}

fn build_params() -> HnswParams {
    HnswParams::quick()
}

struct SnapshotProbe {
    bytes: usize,
    byte_stable: bool,
    round_trip_ok: bool,
    torn_recovered: bool,
    save_cycles: u64,
    restore_cycles: u64,
}

/// Save/load/recover the mutated index and verify every invariant.
fn probe_snapshot(
    index: &MutableIndex,
    layout: &LayoutArtifacts,
    report: &ChurnReport,
    probe_query: &[f32],
) -> SnapshotProbe {
    let meta = EpochMeta {
        epoch: report.epochs.len() as u64,
        last_epoch_cycle: report.end_cycle,
    };
    let blob = save(index, layout, &meta);
    let byte_stable = blob == save(index, layout, &meta);

    let restored = load(&blob).expect("clean snapshot must load");
    let round_trip_ok = restored.meta == meta
        && restored.index.live_len() == index.live_len()
        && restored.index.generation() == index.generation()
        && restored.index.search_exact(probe_query, K, EF).ids()
            == index.search_exact(probe_query, K, EF).ids();

    // Torn-write drill: chop the tail off a copy, then recover through
    // the fallback path.
    let torn = ansmet_faults::snapshot::torn_tail(&blob, blob.len() / 2);
    let torn_recovered = match load_with_fallback(&torn, &blob) {
        Ok((snap, used_fallback)) => used_fallback && snap.index.live_len() == index.live_len(),
        Err(_) => false,
    };

    let stream_cycles = (blob.len() as u64).div_ceil(1024) * SNAPSHOT_CYCLES_PER_KIB;
    SnapshotProbe {
        bytes: blob.len(),
        byte_stable,
        round_trip_ok,
        torn_recovered,
        save_cycles: stream_cycles,
        restore_cycles: stream_cycles,
    }
}

/// Run the freshness experiment at `scale`; returns `(text, json)` where
/// `json` is the `BENCH_freshness.json` artifact body.
pub fn freshness_experiment(scale: Scale) -> (String, String) {
    let spec = scale.spec(SynthSpec::sift());
    let (full_data, queries) = spec.generate();
    let n = full_data.len();
    let held = n / 5;
    let base_n = n - held;

    // The last 20 % of the dataset is held out and streamed in by the
    // writer tenant's insert ops.
    let base = Dataset::from_values(
        full_data.name(),
        full_data.dtype(),
        full_data.metric(),
        full_data.dim(),
        (0..base_n)
            .flat_map(|i| full_data.vector(i).to_vec())
            .collect(),
    );
    let pending: Vec<Vec<f32>> = (base_n..n).map(|i| full_data.vector(i).to_vec()).collect();

    let mut index = MutableIndex::build_hnsw(base, build_params(), LEVEL_SEED);
    let mut layout = LayoutArtifacts::plan(&index, 0.01);

    let sys = SystemConfig::default();
    let cfg = churn_config(scale, sys.dram.clock_mhz);
    let report = run_churn(&mut index, &mut layout, &queries, &pending, &cfg);

    let recall = compare_recall(&index, &queries);
    let within = recall.churn >= recall.static_rebuild - RECALL_EPSILON;
    let snap = probe_snapshot(&index, &layout, &report, &queries[0]);
    let update_tput = report.update_throughput_per_sec(cfg.mem_clock_mhz);
    let line_savings = 1.0 - report.lines_fetched as f64 / report.lines_baseline.max(1) as f64;

    let mut text = String::new();
    let _ = writeln!(
        text,
        "freshness — {} ({} base vectors + {} held out, k={K}, ef={EF}, epoch every {} cycles)",
        full_data.name(),
        base_n,
        held,
        cfg.epoch.interval_cycles,
    );
    let _ = writeln!(text, "   {report}");
    let _ = writeln!(
        text,
        "   update throughput: {:.0} ops/s over {} cycles",
        update_tput, report.end_cycle,
    );
    let _ = writeln!(
        text,
        "   ET lines under churn: {} vs {} baseline ({:.1}% saved)",
        report.lines_fetched,
        report.lines_baseline,
        line_savings * 100.0,
    );
    let _ = writeln!(
        text,
        "   recall@{K}: churn {:.4} vs static rebuild {:.4} (epsilon {RECALL_EPSILON}): {}",
        recall.churn,
        recall.static_rebuild,
        if within { "within bound" } else { "REGRESSED" },
    );
    let _ = writeln!(
        text,
        "   snapshot: {} bytes, save/restore {} cycles each, byte-stable: {}, round-trip: {}, torn-write recovery: {}",
        snap.bytes,
        snap.save_cycles,
        if snap.byte_stable { "yes" } else { "NO" },
        if snap.round_trip_ok { "ok" } else { "BROKEN" },
        if snap.torn_recovered { "ok" } else { "BROKEN" },
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"experiment\": \"freshness\",");
    let _ = writeln!(json, "  \"scale\": \"{}\",", scale.as_str());
    let _ = writeln!(json, "  \"dataset\": {},", json_string(full_data.name()));
    let _ = writeln!(
        json,
        "  \"config\": {{\"seed\": {}, \"mem_clock_mhz\": {}, \"k\": {K}, \"ef\": {EF}, \
         \"base_vectors\": {base_n}, \"held_out\": {held}, \"queue_depth_limit\": {}, \
         \"epoch_interval_cycles\": {}, \"conservative_headroom\": {}}},",
        cfg.seed,
        cfg.mem_clock_mhz,
        cfg.queue_depth_limit,
        cfg.epoch.interval_cycles,
        json_f64(cfg.epoch.conservative_headroom),
    );
    let _ = writeln!(
        json,
        "  \"reads\": {{\"served\": {}, \"shed\": {}, \"latency_p50_cycles\": {}, \
         \"latency_p99_cycles\": {}, \"lines_fetched\": {}, \"lines_baseline\": {}, \
         \"line_savings_frac\": {}, \"conservative_fetches\": {}, \"et_mismatches\": {}}},",
        report.reads_served,
        report.reads_shed,
        report.read_latency.quantile(0.50),
        report.read_latency.quantile(0.99),
        report.lines_fetched,
        report.lines_baseline,
        json_f64(line_savings),
        report.conservative_fetches,
        report.et_mismatches,
    );
    let _ = writeln!(
        json,
        "  \"updates\": {{\"inserts_applied\": {}, \"deletes_applied\": {}, \"shed\": {}, \
         \"noop\": {}, \"latency_p99_cycles\": {}, \"throughput_per_sec\": {}}},",
        report.inserts_applied,
        report.deletes_applied,
        report.updates_shed,
        report.updates_noop,
        report.update_latency.quantile(0.99),
        json_f64(update_tput),
    );
    let _ = writeln!(
        json,
        "  \"epochs\": {{\"count\": {}, \"replans\": {}, \"purged_total\": {}, \
         \"replicas_shipped\": {}, \"pause_p50_cycles\": {}, \"pause_p99_cycles\": {}, \
         \"pause_max_cycles\": {}, \"runs\": [{}]}},",
        report.epochs.len(),
        report.replans(),
        report.total_purged(),
        report.replicas_shipped(),
        report.pause.quantile(0.50),
        report.pause.quantile(0.99),
        report.pause.max(),
        report
            .epochs
            .iter()
            .map(|e| {
                format!(
                    "{{\"epoch\": {}, \"purged\": {}, \"admitted\": {}, \
                     \"kept_conservative\": {}, \"replanned\": {}, \"pause_cycles\": {}}}",
                    e.epoch,
                    e.purged,
                    e.revalidated.admitted,
                    e.revalidated.kept_conservative,
                    e.revalidated.replanned,
                    e.pause_cycles,
                )
            })
            .collect::<Vec<_>>()
            .join(", "),
    );
    let _ = writeln!(
        json,
        "  \"recall\": {{\"k\": {K}, \"churn\": {}, \"static_rebuild\": {}, \
         \"epsilon\": {}, \"within_epsilon\": {within}}},",
        json_f64(recall.churn),
        json_f64(recall.static_rebuild),
        json_f64(RECALL_EPSILON),
    );
    let _ = writeln!(
        json,
        "  \"snapshot\": {{\"bytes\": {}, \"byte_stable\": {}, \"round_trip_ok\": {}, \
         \"torn_write_recovered\": {}, \"save_cycles\": {}, \"restore_cycles\": {}}},",
        snap.bytes,
        snap.byte_stable,
        snap.round_trip_ok,
        snap.torn_recovered,
        snap.save_cycles,
        snap.restore_cycles,
    );
    let _ = writeln!(
        json,
        "  \"results_fingerprint\": {},",
        json_string(&format!("{:016x}", report.results_fingerprint)),
    );
    let _ = writeln!(json, "  \"end_cycle\": {}", report.end_cycle);
    json.push_str("}\n");

    (text, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_experiment_holds_its_invariants() {
        let (t, j) = freshness_experiment(Scale::Quick);
        assert!(t.contains("within bound"), "recall regressed:\n{t}");
        assert!(t.contains("torn-write recovery: ok"), "{t}");
        assert!(t.contains("round-trip: ok"), "{t}");
        assert!(j.contains("\"experiment\": \"freshness\""));
        assert!(j.contains("\"et_mismatches\": 0"), "{j}");
        assert!(j.contains("\"within_epsilon\": true"), "{j}");
        assert!(j.contains("\"byte_stable\": true"), "{j}");
        assert!(j.contains("\"torn_write_recovered\": true"), "{j}");
    }

    #[test]
    fn quick_experiment_is_bit_identical_across_reruns() {
        let (t1, j1) = freshness_experiment(Scale::Quick);
        let (t2, j2) = freshness_experiment(Scale::Quick);
        assert_eq!(t1, t2, "text report must be bit-identical");
        assert_eq!(j1, j2, "json artifact must be bit-identical");
    }
}
