//! End-to-end contracts of the fleet-resilience layer:
//!
//! * a scripted rank-group storm never changes which neighbors a served
//!   query returns — the results fingerprint matches the fault-free run;
//! * the circuit breaker opens during the storm and closes after
//!   recovery, observable both in the resilience report and as obs
//!   events on the serving clock;
//! * hedged offloads lower the during-storm p99 versus breakers alone;
//! * brownout admission engages on detected capacity loss;
//! * the `resilience` experiment artifact is byte-identical across host
//!   thread counts;
//! * storm and fault scripts round-trip through their JSON fixtures.

use ansmet::serve::{
    run_serve, run_serve_with_sink, AdmissionConfig, ResilienceConfig, ServeConfig, ServeReport,
};
use ansmet::sim::{SystemConfig, Workload};
use ansmet::vecdata::SynthSpec;
use ansmet_faults::{FaultPlan, StormKind, StormPlan};
use ansmet_obs::{EventKind, TraceSink};

fn small_workload() -> Workload {
    Workload::prepare(&SynthSpec::sift().scaled(1500, 4), 10, Some(40))
}

/// A no-shed config: every offered query completes, so served-results
/// fingerprints are comparable across passes.
fn no_shed(mut cfg: ServeConfig) -> ServeConfig {
    cfg.admission = AdmissionConfig {
        max_queue_depth: usize::MAX,
        deadline_cycles: None,
    };
    cfg
}

/// A storm hanging rank group 0 over `[start, end)`.
fn outage(start: u64, end: u64) -> StormPlan {
    StormPlan::single_group_outage(0, start, end)
}

/// Sink collecting `(cycle, event-name)` pairs.
#[derive(Default)]
struct EventLog {
    events: Vec<(u64, &'static str)>,
}

impl EventLog {
    fn cycles_of(&self, name: &str) -> Vec<u64> {
        self.events
            .iter()
            .filter(|(_, n)| *n == name)
            .map(|(c, _)| *c)
            .collect()
    }
}

impl TraceSink for EventLog {
    fn enabled(&self) -> bool {
        true
    }
    fn event(&mut self, cycle: u64, kind: EventKind) {
        self.events.push((cycle, kind.name()));
    }
}

/// p99 total latency of the queries that arrived during the storm.
fn during_p99(r: &ServeReport) -> u64 {
    r.resilience
        .as_ref()
        .and_then(|res| res.storm)
        .expect("storm run carries storm windows")
        .during
        .p99_cycles
}

#[test]
fn storm_changes_timing_never_results_and_breakers_cycle() {
    let wl = small_workload();
    let sys = SystemConfig::default();
    let base = no_shed(ServeConfig::open_loop(0xD00F, 150_000.0, 80, 2_000_000));

    let clean = run_serve(&wl, &sys, &base);
    // Storm envelope: the second quarter of the fault-free makespan, so
    // arrivals continue well past the recovery instant.
    let (start, end) = (clean.makespan_cycles / 4, clean.makespan_cycles / 2);
    let cfg = base
        .clone()
        .with_storm(outage(start, end))
        .with_resilience(ResilienceConfig::default());
    let mut log = EventLog::default();
    let stormed = run_serve_with_sink(&wl, &sys, &cfg, &mut log);

    // Zero accuracy loss: same served set, same answers.
    assert_eq!(stormed.shed(), 0);
    assert_eq!(clean.completed(), stormed.completed());
    assert_eq!(
        clean.results_fingerprint, stormed.results_fingerprint,
        "storm changed returned neighbors"
    );

    // The breaker tripped during the storm and closed after recovery.
    let res = stormed.resilience.as_ref().expect("resilience configured");
    assert!(res.breaker_opens > 0, "breaker never opened");
    assert!(res.breaker_closes > 0, "breaker never closed");
    let opens = log.cycles_of("breaker_open");
    let closes = log.cycles_of("breaker_close");
    assert!(
        opens.iter().any(|&c| c >= start && c < end),
        "no breaker_open event inside the storm window [{start}, {end}): {opens:?}"
    );
    assert!(
        closes.iter().any(|&c| c >= end),
        "no breaker_close event at or after recovery {end}: {closes:?}"
    );
    assert!(!log.cycles_of("breaker_half_open").is_empty(), "no probes");

    // Storm windows and MTTR are reported.
    let st = res.storm.expect("storm windows");
    assert_eq!((st.start_cycle, st.end_cycle), (start, end));
    assert!(st.mttr_cycles.is_some(), "no close after recovery");
    assert!(res.fast_reroutes + res.fast_fallbacks > 0, "no fast paths");

    // Brownout tracked the open breaker even though nothing was shed.
    assert!(res.brownout_max_level >= 1, "brownout never engaged");
    assert!(!log.cycles_of("brownout").is_empty());
    assert_eq!(res.brownout_sheds, 0, "no-shed config must not shed");

    // The storm cost cycles.
    let rec = stormed.recovery.as_ref().expect("recovery counters");
    assert!(rec.timeouts > 0);
    assert!(rec.added_latency_cycles > 0);
    assert!(stormed.makespan_cycles >= clean.makespan_cycles);
}

#[test]
fn hedging_lowers_during_storm_p99() {
    let wl = small_workload();
    let sys = SystemConfig::default();
    let base = no_shed(ServeConfig::open_loop(0xD00F, 150_000.0, 80, 2_000_000));
    let clean = run_serve(&wl, &sys, &base);
    let storm = outage(clean.makespan_cycles / 4, clean.makespan_cycles / 2);

    let unhedged = run_serve(
        &wl,
        &sys,
        &base
            .clone()
            .with_storm(storm.clone())
            .with_resilience(ResilienceConfig::without_hedging()),
    );
    let hedged = run_serve(
        &wl,
        &sys,
        &base
            .clone()
            .with_storm(storm)
            .with_resilience(ResilienceConfig::default()),
    );

    let rec = hedged.recovery.as_ref().expect("recovery counters");
    assert!(rec.hedges > 0, "no hedges issued");
    assert!(rec.hedge_wins > 0, "no hedge ever won");
    assert_eq!(
        unhedged.recovery.as_ref().expect("recovery").hedges,
        0,
        "hedging disabled must not hedge"
    );

    assert!(
        during_p99(&hedged) < during_p99(&unhedged),
        "hedging must lower during-storm p99: hedged {} !< unhedged {}",
        during_p99(&hedged),
        during_p99(&unhedged),
    );

    // Both mitigations serve the same answers as each other.
    assert_eq!(hedged.results_fingerprint, unhedged.results_fingerprint);
    assert_eq!(hedged.results_fingerprint, clean.results_fingerprint);
}

#[test]
fn resilience_experiment_byte_stable_across_thread_counts() {
    use ansmet::sim::experiment::Scale;

    ansmet::sim::set_default_threads(1);
    let (t1, j1) = ansmet::serve::resilience_experiment(Scale::Quick);
    ansmet::sim::set_default_threads(4);
    let (t2, j2) = ansmet::serve::resilience_experiment(Scale::Quick);
    ansmet::sim::set_default_threads(1);

    assert_eq!(t1, t2, "text report diverged across thread counts");
    assert_eq!(j1, j2, "json artifact diverged across thread counts");
    assert!(j1.contains("\"experiment\": \"resilience\""));
    assert!(j1.contains("\"fingerprints_identical\": true"));
}

#[test]
fn storm_and_fault_fixtures_round_trip() {
    let src = include_str!("fixtures/storm_plan.json");
    let plan = StormPlan::from_json(src.trim()).expect("fixture parses");
    assert_eq!(plan.to_json(), src.trim(), "fixture is in canonical form");
    assert_eq!(plan.windows().len(), 2);
    assert_eq!(plan.fault_at(0, 100_000), Some(StormKind::Hang));
    assert_eq!(
        plan.fault_at(2, 300_000),
        Some(StormKind::Stall { cycles: 1_500 })
    );
    assert_eq!(plan.fault_at(0, 900_000), None, "recovery is exclusive");
    assert_eq!(plan.span(), Some((100_000, 900_000)));

    let fsrc = include_str!("fixtures/fault_plan.json");
    let fplan = FaultPlan::from_json(fsrc.trim()).expect("fixture parses");
    assert_eq!(fplan.to_json(), fsrc.trim(), "fixture is in canonical form");
    assert_eq!(fplan.events().len(), 6);
}
