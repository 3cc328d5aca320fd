//! The `ops` experiment: the streaming operations plane replaying a
//! storm + churn scenario.
//!
//! Two halves share one [`OpsPlane`]-shaped harness:
//!
//! * **Serve storm** — the resilience experiment's scenario (a scripted
//!   single-rank-group outage over the second quarter of the arrival
//!   horizon) served with breakers, hedging, brownout admission, *and* a
//!   periodic maintenance pause, first untraced to derive the clean
//!   p99.9 tail threshold, then through an [`OpsPlane`]: windowed time
//!   series, a multi-window burn-rate alert timeline that must fire
//!   during the storm and clear after it, and a forensic digest for
//!   every completion breaching the threshold.
//! * **Freshness churn** — the churn loop (mixed read/update stream,
//!   epochs pausing the device) through a second plane, with the tail
//!   threshold derived from an untraced run over identical initial
//!   state.
//!
//! Both halves rerun untraced and compare served-results fingerprints:
//! the plane observes, never steers, so the artifact must report
//! `fingerprints_identical: true` twice. Everything is seeded and
//! integer-cycle — `BENCH_ops.json` and the exposition dump are
//! bit-identical across reruns and host thread counts.

use std::fmt::Write as _;

use ansmet_faults::StormPlan;
use ansmet_freshness::{
    run_churn, run_churn_with_sink, ChurnConfig, EpochConfig, LayoutArtifacts, MutableIndex,
    UpdateTenantSpec,
};
use ansmet_obs::{OpsConfig, OpsPlane, OpsReport, SloSpec};
use ansmet_serve::{
    generate_arrivals, ops_serve_config, run_serve, run_serve_with_sink, ArrivalProcess,
    MaintenancePlan, ResilienceConfig, TenantSpec,
};
use ansmet_sim::experiment::Scale;
use ansmet_sim::{run_design_throughput, Design, SystemConfig, Workload};
use ansmet_vecdata::{Dataset, SynthSpec};

/// One instrumented half of the scenario, distilled.
struct HalfOutcome {
    label: &'static str,
    tail_threshold_cycles: u64,
    fingerprints_identical: bool,
    report: OpsReport,
}

impl HalfOutcome {
    /// Digest count per attributed cause, in cause-name order.
    fn cause_histogram(&self) -> Vec<(&'static str, u64)> {
        let mut hist: Vec<(&'static str, u64)> = Vec::new();
        for d in &self.report.digests {
            let key = d.cause.as_str();
            match hist.iter_mut().find(|(k, _)| *k == key) {
                Some((_, n)) => *n += 1,
                None => hist.push((key, 1)),
            }
        }
        hist.sort_by_key(|(k, _)| *k);
        hist
    }

    fn render(&self, text: &mut String) {
        let _ = writeln!(
            text,
            "   {}: {} completions, tail threshold {} cycles, {} digests ({} dropped), traced results identical: {}",
            self.label,
            self.report.completed,
            self.tail_threshold_cycles,
            self.report.digests.len(),
            self.report.dropped_digests,
            if self.fingerprints_identical { "yes" } else { "NO" },
        );
        for (cause, n) in self.cause_histogram() {
            let _ = writeln!(text, "     cause {cause}: {n}");
        }
        for a in &self.report.alerts {
            let _ = writeln!(
                text,
                "     slo {}: first fire {}, last clear {}, firing at end: {}",
                a.slo,
                match a.first_fire() {
                    Some(c) => c.to_string(),
                    None => "never".into(),
                },
                match a.last_clear() {
                    Some(c) => c.to_string(),
                    None => "never".into(),
                },
                a.firing_at_end(),
            );
        }
    }

    fn to_json(&self, extra_fields: &str) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(
            s,
            "    \"tail_threshold_cycles\": {},\n    \"fingerprints_identical\": {},\n    \
             \"all_digests_attributed\": {},{}",
            self.tail_threshold_cycles,
            self.fingerprints_identical,
            self.report.all_digests_attributed(),
            extra_fields,
        );
        s.push_str("    \"ops\": ");
        s.push_str(&indent_tail(&self.report.to_json(), "    "));
        s.push_str("\n  }");
        s
    }
}

/// Re-indent every line after the first by `pad` so a nested JSON body
/// lines up inside its parent.
fn indent_tail(json: &str, pad: &str) -> String {
    let mut out = String::with_capacity(json.len());
    for (i, line) in json.lines().enumerate() {
        if i > 0 {
            out.push('\n');
            out.push_str(pad);
        }
        out.push_str(line);
    }
    out
}

/// The serve half: storm + resilience + maintenance through the plane.
#[allow(clippy::too_many_lines)]
fn serve_half(scale: Scale) -> (HalfOutcome, u64, u64, u64, MaintenancePlan) {
    let spec = scale.spec(SynthSpec::sift());
    let wl = Workload::prepare_shared(&spec, 10, None);
    let cfg = SystemConfig::default();
    let mem_clock = cfg.dram.clock_mhz;
    let queries = match scale {
        Scale::Quick => 60,
        Scale::Full => 300,
    };

    let capacity =
        run_design_throughput(Design::NdpEtOpt, &wl, &cfg, wl.traces.len()).qps(mem_clock);
    let per_query = (mem_clock as f64 * 1e6 / capacity.max(1e-9)) as u64;
    let slo_cycles = per_query * 32;
    let base = ops_serve_config(0x0B5E, capacity, queries, slo_cycles);

    // Storm over the second quarter of the arrival horizon (the
    // resilience experiment's envelope), maintenance pauses on a cadence
    // that lands some pauses inside it.
    let arrivals = generate_arrivals(&base.tenants, wl.queries.len(), base.seed, mem_clock);
    let horizon = arrivals.last().map(|a| a.cycle).unwrap_or(0).max(64);
    let (storm_start, storm_end) = (horizon / 4, horizon / 2);
    let storm = StormPlan::single_group_outage(0, storm_start, storm_end);
    let maintenance = MaintenancePlan {
        interval_cycles: (horizon / 5).max(1),
        pause_cycles: slo_cycles,
    };
    let storm_cfg = base
        .clone()
        .with_storm(storm)
        .with_resilience(ResilienceConfig::default())
        .with_maintenance(maintenance);

    // Clean untraced pass derives the p99.9 tail threshold the forensic
    // recorder arms on.
    let clean = run_serve(&wl, &cfg, &base);
    let tail_threshold = clean.total.p999.max(1);

    // Alert windows sized from the horizon: the slow window equals the
    // storm length (8 fast windows), so the burn rate both accumulates
    // inside the storm and drains after it.
    let fast = (horizon / 32).max(1);
    let slo = SloSpec {
        name: "serve_total_latency",
        threshold_cycles: slo_cycles,
        target: 0.9,
        fast_window_cycles: fast,
        slow_window_cycles: fast * 8,
        fire_burn: 2.0,
        clear_burn: 1.0,
        min_count: 4,
    };

    let mut plane = OpsPlane::new(OpsConfig {
        window_cycles: fast,
        slos: vec![slo],
        tail_threshold_cycles: tail_threshold,
        max_digests: 256,
    });
    let traced = run_serve_with_sink(&wl, &cfg, &storm_cfg, &mut plane);
    let untraced = run_serve(&wl, &cfg, &storm_cfg);
    let outcome = HalfOutcome {
        label: "serve storm",
        tail_threshold_cycles: tail_threshold,
        fingerprints_identical: traced.results_fingerprint == untraced.results_fingerprint,
        report: plane.finish(),
    };
    (outcome, storm_start, storm_end, slo_cycles, maintenance)
}

/// The churn half's configuration (the freshness experiment's stream
/// shape, re-seeded for this scenario).
fn churn_config(scale: Scale, mem_clock_mhz: u64) -> ChurnConfig {
    let (reads, ops) = match scale {
        Scale::Quick => (80, 60),
        Scale::Full => (400, 300),
    };
    ChurnConfig {
        seed: 0x0B5F,
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
        k: 10,
        ef: 64,
        queue_depth_limit: 128,
        epoch: EpochConfig {
            interval_cycles: 600_000,
            conservative_headroom: 0.02,
        },
    }
}

/// Build the churn half's initial state: live index over 80 % of the
/// dataset, the rest held out as the insert pool.
fn churn_state(scale: Scale) -> (MutableIndex, LayoutArtifacts, Vec<Vec<f32>>, Vec<Vec<f32>>) {
    let spec = scale.spec(SynthSpec::sift());
    let (full_data, queries) = spec.generate();
    let n = full_data.len();
    let base_n = n - n / 5;
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
    let index = MutableIndex::build_hnsw(base, ansmet_index::HnswParams::quick(), 0xF5E5);
    let layout = LayoutArtifacts::plan(&index, 0.01);
    (index, layout, queries, pending)
}

/// The churn half: epochs pausing the device under a mixed stream.
fn churn_half(scale: Scale) -> HalfOutcome {
    let sys = SystemConfig::default();
    let cfg = churn_config(scale, sys.dram.clock_mhz);

    // Untraced pass over fresh state derives the read-latency p99.9
    // threshold; the traced pass replays identical initial state.
    let (mut idx, mut layout, queries, pending) = churn_state(scale);
    let untraced = run_churn(&mut idx, &mut layout, &queries, &pending, &cfg);
    let tail_threshold = untraced.read_latency.quantile(0.999).max(1);

    let slo = SloSpec {
        name: "churn_read_latency",
        threshold_cycles: untraced.read_latency.quantile(0.99).max(1),
        target: 0.9,
        fast_window_cycles: cfg.epoch.interval_cycles / 4,
        slow_window_cycles: cfg.epoch.interval_cycles,
        fire_burn: 2.0,
        clear_burn: 1.0,
        min_count: 3,
    };
    let mut plane = OpsPlane::new(OpsConfig {
        window_cycles: cfg.epoch.interval_cycles / 4,
        slos: vec![slo],
        tail_threshold_cycles: tail_threshold,
        max_digests: 256,
    });
    let (mut idx2, mut layout2, queries2, pending2) = churn_state(scale);
    let traced = run_churn_with_sink(
        &mut idx2,
        &mut layout2,
        &queries2,
        &pending2,
        &cfg,
        &mut plane,
    );
    HalfOutcome {
        label: "freshness churn",
        tail_threshold_cycles: tail_threshold,
        fingerprints_identical: traced.results_fingerprint == untraced.results_fingerprint,
        report: plane.finish(),
    }
}

/// Run the ops experiment at `scale`; returns `(text, json, exposition)`
/// where `json` is the `BENCH_ops.json` artifact body and `exposition`
/// is the Prometheus text dump of both halves' run totals.
pub fn ops_experiment(scale: Scale) -> (String, String, String) {
    let (serve, storm_start, storm_end, slo_cycles, maintenance) = serve_half(scale);
    let churn = churn_half(scale);

    let alert = &serve.report.alerts[0];
    let fired_during_storm = alert
        .first_fire()
        .is_some_and(|c| c >= storm_start && c < storm_end);
    let cleared_after_storm =
        alert.last_clear().is_some_and(|c| c >= storm_end) && !alert.firing_at_end();

    let mut text = String::new();
    let _ = writeln!(
        text,
        "ops plane — storm on group 0 over [{storm_start}, {storm_end}), SLO {slo_cycles} cycles, \
         maintenance pause {} cycles every {}",
        maintenance.pause_cycles, maintenance.interval_cycles,
    );
    serve.render(&mut text);
    let _ = writeln!(
        text,
        "   alert fired during storm: {}, cleared after: {}",
        if fired_during_storm { "yes" } else { "NO" },
        if cleared_after_storm { "yes" } else { "NO" },
    );
    churn.render(&mut text);
    let _ = writeln!(
        text,
        "   digests attributed (no unknown cause): serve {}, churn {}",
        if serve.report.all_digests_attributed() {
            "yes"
        } else {
            "NO"
        },
        if churn.report.all_digests_attributed() {
            "yes"
        } else {
            "NO"
        },
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"experiment\": \"ops\",");
    let _ = writeln!(json, "  \"scale\": \"{}\",", scale.as_str());
    let _ = writeln!(json, "  \"slo_cycles\": {slo_cycles},");
    let _ = writeln!(
        json,
        "  \"storm\": {{\"group\": 0, \"start_cycle\": {storm_start}, \"end_cycle\": {storm_end}}},",
    );
    let _ = writeln!(
        json,
        "  \"maintenance\": {{\"interval_cycles\": {}, \"pause_cycles\": {}}},",
        maintenance.interval_cycles, maintenance.pause_cycles,
    );
    let serve_extra = format!(
        "\n    \"alert_fired_during_storm\": {fired_during_storm},\n    \
         \"alert_cleared_after_storm\": {cleared_after_storm},",
    );
    let _ = writeln!(json, "  \"serve\": {},", serve.to_json(&serve_extra));
    let _ = writeln!(json, "  \"churn\": {}", churn.to_json(""));
    json.push_str("}\n");

    let mut expo = String::new();
    expo.push_str("# ops experiment: serve storm pass\n");
    expo.push_str(&serve.report.exposition());
    expo.push_str("# ops experiment: freshness churn pass\n");
    expo.push_str(&churn.report.exposition());

    (text, json, expo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_ops_experiment_holds_its_invariants() {
        let (t, j, e) = ops_experiment(Scale::Quick);
        assert!(t.contains("traced results identical: yes"), "{t}");
        assert!(t.contains("alert fired during storm: yes"), "{t}");
        assert!(t.contains("cleared after: yes"), "{t}");
        assert!(
            t.contains("digests attributed (no unknown cause): serve yes, churn yes"),
            "{t}"
        );
        assert!(j.contains("\"experiment\": \"ops\""));
        assert!(j.contains("\"alert_fired_during_storm\": true"), "{j}");
        assert!(j.contains("\"alert_cleared_after_storm\": true"), "{j}");
        assert!(!j.contains("\"fingerprints_identical\": false"), "{j}");
        assert!(!j.contains("\"all_digests_attributed\": false"), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(e.contains("# TYPE"), "{e}");
        assert!(e.contains("ansmet_serve_total_cycles_count"), "{e}");
        assert!(e.contains("ansmet_churn_total_cycles_count"), "{e}");
    }

    #[test]
    fn quick_ops_experiment_is_bit_identical_across_reruns() {
        let (t1, j1, e1) = ops_experiment(Scale::Quick);
        let (t2, j2, e2) = ops_experiment(Scale::Quick);
        assert_eq!(t1, t2, "text report must be bit-identical");
        assert_eq!(j1, j2, "json artifact must be bit-identical");
        assert_eq!(e1, e2, "exposition must be bit-identical");
    }
}
