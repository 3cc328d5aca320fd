//! The `serve` and `resilience` experiments: multi-tenant open-loop
//! serving runs rendered as text and as the `BENCH_serving.json` /
//! `BENCH_resilience.json` artifacts.
//!
//! Neither is a paper experiment — `serve` answers the question the
//! paper's §5.2 wave model raises but cannot (what QPS can the NDP
//! designs sustain at a bounded p99 under realistic arrivals, batching,
//! and faults?), and `resilience` is the chaos/soak harness: a scripted
//! rank-group storm served unmitigated, with circuit breakers, and with
//! hedged offloads, reporting SLO attainment before/during/after the
//! storm and the measured MTTR.

use std::fmt::Write as _;

use ansmet_faults::{FaultRates, StormPlan};
use ansmet_sim::experiment::Scale;
use ansmet_sim::{run_design_throughput, Design, SystemConfig, Workload};
use ansmet_vecdata::SynthSpec;

use crate::arrival::{generate_arrivals, ArrivalProcess, TenantSpec};
use crate::engine::{run_serve, AdmissionConfig, BatchPolicy, FaultProfile, ServeConfig};
use crate::report::{cycles_to_ms, ServeReport};
use crate::resilience::ResilienceConfig;
use crate::sweep::sweep_qps;

/// Build the experiment's two-tenant serving config at roughly 60 % of
/// the estimated capacity: an interactive tenant (weight 4, Poisson,
/// tight SLO) and a bulk tenant (weight 1, bursty, loose SLO).
fn experiment_config(seed: u64, capacity_qps: f64, queries: usize, slo_cycles: u64) -> ServeConfig {
    let load = capacity_qps * 0.6;
    ServeConfig {
        seed,
        design: Design::NdpEtOpt,
        tenants: vec![
            TenantSpec {
                name: "interactive".into(),
                weight: 4,
                process: ArrivalProcess::Poisson { qps: load * 0.7 },
                slo_cycles,
                queries,
            },
            TenantSpec {
                name: "bulk".into(),
                weight: 1,
                process: ArrivalProcess::Bursty {
                    base_qps: load * 0.15,
                    burst_qps: load * 0.9,
                    period_cycles: 2_000_000,
                    burst_frac: 0.2,
                },
                slo_cycles: slo_cycles * 4,
                queries: queries / 2,
            },
        ],
        batch: BatchPolicy::default(),
        admission: AdmissionConfig {
            max_queue_depth: 128,
            deadline_cycles: Some(slo_cycles * 8),
        },
        faults: None,
        storm: None,
        resilience: None,
        maintenance: None,
    }
}

/// The `ops` experiment's serving config: the same two-tenant shape the
/// `serve`/`resilience` experiments use, sized from the measured
/// capacity, for the ops-plane storm scenario to decorate with storms,
/// resilience, and maintenance.
pub fn ops_serve_config(
    seed: u64,
    capacity_qps: f64,
    queries: usize,
    slo_cycles: u64,
) -> ServeConfig {
    experiment_config(seed, capacity_qps, queries, slo_cycles)
}

/// Run the serving experiment at `scale`; returns `(text, json)` where
/// `json` is the `BENCH_serving.json` artifact body.
pub fn serve_experiment(scale: Scale) -> (String, String) {
    let spec = scale.spec(SynthSpec::sift());
    let wl = Workload::prepare_shared(&spec, 10, None);
    let cfg = SystemConfig::default();
    let mem_clock = cfg.dram.clock_mhz;
    let queries = match scale {
        Scale::Quick => 80,
        Scale::Full => 400,
    };

    let capacity =
        run_design_throughput(Design::NdpEtOpt, &wl, &cfg, wl.traces.len()).qps(mem_clock);
    // SLO: generous multiple of the saturated per-query service time so
    // a healthy run attains it and queueing/faults measurably erode it.
    let per_query = (mem_clock as f64 * 1e6 / capacity.max(1e-9)) as u64;
    let slo_cycles = per_query * 32;
    let serve_cfg = experiment_config(0x5EED, capacity, queries, slo_cycles);

    let clean = run_serve(&wl, &cfg, &serve_cfg);
    // The faulted pass disables shedding so every query completes and the
    // returned-results fingerprint stays comparable: recovery must show up
    // purely as tail inflation, never as different answers.
    let mut faulted_cfg = serve_cfg.clone().with_faults(FaultProfile {
        rates: FaultRates::mixed(),
        seed: 0xFA11,
    });
    faulted_cfg.admission = AdmissionConfig {
        max_queue_depth: usize::MAX,
        deadline_cycles: None,
    };
    let faulted = run_serve(&wl, &cfg, &faulted_cfg);

    let sweep_points: Vec<f64> = [0.3, 0.6, 0.9, 1.2].iter().map(|f| capacity * f).collect();
    let sweep = sweep_qps(&wl, &cfg, &serve_cfg, &sweep_points, slo_cycles);

    let mut text = String::new();
    let _ = writeln!(
        text,
        "serving — {} ({} base queries, est. capacity {:.0} qps, SLO {} cycles = {:.4} ms)",
        wl.name,
        wl.queries.len(),
        capacity,
        slo_cycles,
        cycles_to_ms(slo_cycles, mem_clock),
    );
    text.push_str(&clean.render("serve (clean)"));
    text.push_str(&faulted.render("serve (faults: mixed)"));
    let _ = writeln!(
        text,
        "   fault tail inflation: p99 {} -> {} cycles ({:+.1}%), results identical: {}",
        clean.total.p99,
        faulted.total.p99,
        (faulted.total.p99 as f64 / clean.total.p99.max(1) as f64 - 1.0) * 100.0,
        if clean.results_fingerprint == faulted.results_fingerprint {
            "yes"
        } else {
            "NO"
        },
    );
    let _ = writeln!(text, "   qps sweep (target p99 {} cycles):", slo_cycles);
    for p in &sweep.points {
        let _ = writeln!(
            text,
            "     offered {:>9.0} qps -> achieved {:>9.0}, p99 {:>9} cycles, shed {:>5.1}%, slo {:>5.1}%",
            p.offered_qps,
            p.achieved_qps,
            p.p99_total_cycles,
            p.shed_rate * 100.0,
            p.slo_attainment * 100.0,
        );
    }
    let _ = writeln!(
        text,
        "     max sustainable: {}",
        match sweep.max_sustainable_qps {
            Some(q) => format!("{q:.0} qps"),
            None => "none (target missed at every point)".into(),
        }
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"experiment\": \"serve\",");
    let _ = writeln!(json, "  \"scale\": \"{}\",", scale.as_str());
    let _ = writeln!(json, "  \"dataset\": \"{}\",", wl.name);
    let _ = writeln!(json, "  \"estimated_capacity_qps\": {capacity:.3},");
    let _ = writeln!(json, "  \"slo_cycles\": {slo_cycles},");
    let _ = writeln!(json, "  \"report\": {},", clean.to_json());
    let _ = writeln!(json, "  \"faulted\": {},", faulted.to_json());
    let _ = writeln!(json, "  \"sweep\": {}", sweep.to_json());
    json.push_str("}\n");

    (text, json)
}

/// p99 total latency of the queries that arrived *during* the storm.
fn during_p99(r: &ServeReport) -> u64 {
    r.resilience
        .as_ref()
        .and_then(|res| res.storm)
        .map(|s| s.during.p99_cycles)
        .unwrap_or(0)
}

/// SLO attainment of the queries that arrived during the storm (for the
/// unmitigated pass, which carries no resilience report, this falls back
/// to the aggregate attainment).
fn storm_line(r: &ServeReport) -> String {
    match r.resilience.as_ref().and_then(|res| res.storm) {
        Some(s) => format!(
            "slo {:.1}% -> {:.1}% -> {:.1}%, during p99 {} cycles, mttr {}",
            s.before.slo_attainment() * 100.0,
            s.during.slo_attainment() * 100.0,
            s.after.slo_attainment() * 100.0,
            s.during.p99_cycles,
            match s.mttr_cycles {
                Some(c) => format!("{c} cycles"),
                None => "n/a".into(),
            },
        ),
        None => format!("aggregate slo {:.1}%", r.slo_attainment() * 100.0),
    }
}

/// Run the chaos/soak resilience experiment at `scale`; returns
/// `(text, json)` where `json` is the `BENCH_resilience.json` artifact
/// body.
///
/// Five passes over the same workload and arrival schedule: fault-free
/// baseline; a scripted single-group storm with only the per-query
/// retry/fallback model; the storm with circuit breakers (hedging off);
/// the storm with breakers *and* hedged offloads; and the storm with the
/// full layer plus brownout admission under the normal shedding config.
/// The first four disable shedding so every query completes and the
/// served-results fingerprint must be identical across them.
pub fn resilience_experiment(scale: Scale) -> (String, String) {
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
    let mut base = experiment_config(0xC1A0, capacity, queries, slo_cycles);
    // Fingerprint-compared passes complete everything.
    base.admission = AdmissionConfig {
        max_queue_depth: usize::MAX,
        deadline_cycles: None,
    };

    // Storm envelope: the second quarter of the arrival horizon, rank
    // group 0 hung throughout — derived from the schedule itself so both
    // scales exercise a mid-run outage with recovery headroom.
    let arrivals = generate_arrivals(&base.tenants, wl.queries.len(), base.seed, mem_clock);
    let horizon = arrivals.last().map(|a| a.cycle).unwrap_or(0).max(4);
    let (storm_start, storm_end) = (horizon / 4, horizon / 2);
    let storm = StormPlan::single_group_outage(0, storm_start, storm_end);

    let clean = run_serve(&wl, &cfg, &base);
    let unmitigated = run_serve(&wl, &cfg, &base.clone().with_storm(storm.clone()));
    let breaker = run_serve(
        &wl,
        &cfg,
        &base
            .clone()
            .with_storm(storm.clone())
            .with_resilience(ResilienceConfig::without_hedging()),
    );
    let hedged = run_serve(
        &wl,
        &cfg,
        &base
            .clone()
            .with_storm(storm.clone())
            .with_resilience(ResilienceConfig::default()),
    );
    // Brownout pass: the normal shedding admission config, so detected
    // capacity loss visibly tightens admission by tenant priority.
    let brownout = run_serve(
        &wl,
        &cfg,
        &experiment_config(0xC1A0, capacity, queries, slo_cycles)
            .with_storm(storm.clone())
            .with_resilience(ResilienceConfig::default()),
    );

    let fingerprints_identical = clean.results_fingerprint == unmitigated.results_fingerprint
        && clean.results_fingerprint == breaker.results_fingerprint
        && clean.results_fingerprint == hedged.results_fingerprint;

    let mut text = String::new();
    let _ = writeln!(
        text,
        "resilience — {} ({} base queries, est. capacity {:.0} qps, SLO {} cycles, storm on group 0 over [{storm_start}, {storm_end}))",
        wl.name,
        wl.queries.len(),
        capacity,
        slo_cycles,
    );
    text.push_str(&clean.render("resilience (clean)"));
    text.push_str(&unmitigated.render("resilience (storm, unmitigated)"));
    text.push_str(&breaker.render("resilience (storm + breakers)"));
    text.push_str(&hedged.render("resilience (storm + breakers + hedging)"));
    text.push_str(&brownout.render("resilience (storm + brownout admission)"));
    let _ = writeln!(
        text,
        "   storm windows (breakers):        {}",
        storm_line(&breaker)
    );
    let _ = writeln!(
        text,
        "   storm windows (hedged):          {}",
        storm_line(&hedged)
    );
    let _ = writeln!(
        text,
        "   during-storm p99: unmitigated {} cycles, breakers {}, hedged {} ({})",
        during_p99(&unmitigated),
        during_p99(&breaker),
        during_p99(&hedged),
        if during_p99(&hedged) <= during_p99(&breaker) {
            "hedging helps"
        } else {
            "hedging DID NOT help"
        },
    );
    let _ = writeln!(
        text,
        "   results identical across clean/storm passes: {}",
        if fingerprints_identical { "yes" } else { "NO" },
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"experiment\": \"resilience\",");
    let _ = writeln!(json, "  \"scale\": \"{}\",", scale.as_str());
    let _ = writeln!(json, "  \"dataset\": \"{}\",", wl.name);
    let _ = writeln!(json, "  \"estimated_capacity_qps\": {capacity:.3},");
    let _ = writeln!(json, "  \"slo_cycles\": {slo_cycles},");
    let _ = writeln!(
        json,
        "  \"storm\": {{\"group\": 0, \"start_cycle\": {storm_start}, \"end_cycle\": {storm_end}}},",
    );
    let _ = writeln!(
        json,
        "  \"fingerprints_identical\": {fingerprints_identical},"
    );
    let _ = writeln!(
        json,
        "  \"p99_during_storm\": {{\"unmitigated\": {}, \"breaker\": {}, \"hedged\": {}}},",
        during_p99(&unmitigated),
        during_p99(&breaker),
        during_p99(&hedged),
    );
    let _ = writeln!(json, "  \"clean\": {},", clean.to_json());
    let _ = writeln!(json, "  \"storm_unmitigated\": {},", unmitigated.to_json());
    let _ = writeln!(json, "  \"storm_breaker\": {},", breaker.to_json());
    let _ = writeln!(json, "  \"storm_hedged\": {},", hedged.to_json());
    let _ = writeln!(json, "  \"storm_brownout\": {}", brownout.to_json());
    json.push_str("}\n");

    (text, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_experiment_runs_and_is_deterministic() {
        let (t1, j1) = serve_experiment(Scale::Quick);
        assert!(t1.contains("serve (clean)"));
        assert!(t1.contains("qps sweep"));
        assert!(t1.contains("results identical: yes"), "{t1}");
        assert!(j1.contains("\"experiment\": \"serve\""));
        assert!(j1.contains("\"sweep\""));
        let (t2, j2) = serve_experiment(Scale::Quick);
        assert_eq!(t1, t2, "text report must be bit-identical");
        assert_eq!(j1, j2, "json artifact must be bit-identical");
    }

    #[test]
    fn quick_resilience_experiment_holds_its_invariants() {
        let (t, j) = resilience_experiment(Scale::Quick);
        assert!(
            t.contains("results identical across clean/storm passes: yes"),
            "storm passes must serve identical results:\n{t}"
        );
        assert!(t.contains("hedging helps"), "{t}");
        assert!(j.contains("\"experiment\": \"resilience\""));
        assert!(j.contains("\"fingerprints_identical\": true"));
        assert!(j.contains("\"storm_hedged\""));
        assert!(j.contains("\"mttr_cycles\""));
    }
}
