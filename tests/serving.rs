//! End-to-end contracts of the online serving subsystem:
//!
//! * the full report — text and JSON — is bit-identical across runs and
//!   across host thread counts (seeded arrivals, event-ordered loop,
//!   integer histograms);
//! * fault injection inflates tail latency but never changes which
//!   neighbors a served query returns (same results fingerprint);
//! * overload engages admission control: queries shed, the report says
//!   so, and rates stay in bounds;
//! * SLO attainment behaves at the extremes (generous SLO at light load
//!   is met; attainment is always a valid fraction).

use ansmet::serve::{run_serve, AdmissionConfig, FaultProfile, ServeConfig};
use ansmet::sim::{SystemConfig, Workload};
use ansmet::vecdata::SynthSpec;
use ansmet_faults::FaultRates;

fn small_workload() -> Workload {
    Workload::prepare(&SynthSpec::sift().scaled(1500, 4), 10, Some(40))
}

/// A no-shed config: queue depth effectively unbounded, no deadline, so
/// every offered query completes regardless of how slow recovery gets.
fn no_shed(mut cfg: ServeConfig) -> ServeConfig {
    cfg.admission = AdmissionConfig {
        max_queue_depth: usize::MAX,
        deadline_cycles: None,
    };
    cfg
}

#[test]
fn report_bit_identical_across_runs_and_thread_counts() {
    let wl = small_workload();
    let sys = SystemConfig::default();
    let cfg = ServeConfig::open_loop(0xD1CE, 200_000.0, 60, 1_000_000);

    ansmet::sim::set_default_threads(1);
    let serial = run_serve(&wl, &sys, &cfg);
    let serial_again = run_serve(&wl, &sys, &cfg);
    ansmet::sim::set_default_threads(4);
    let parallel = run_serve(&wl, &sys, &cfg);
    ansmet::sim::set_default_threads(1);

    assert_eq!(serial, serial_again, "rerun diverged");
    assert_eq!(serial, parallel, "thread default changed the report");
    assert_eq!(serial.to_json(), parallel.to_json());
    assert_eq!(serial.render("t"), parallel.render("t"));
}

#[test]
fn faults_inflate_tail_latency_but_not_results() {
    let wl = small_workload();
    let sys = SystemConfig::default();
    let base = no_shed(ServeConfig::open_loop(0xBEEF, 150_000.0, 80, 2_000_000));

    let clean = run_serve(&wl, &sys, &base);
    let faulted_cfg = base.clone().with_faults(FaultProfile {
        rates: FaultRates::mixed(),
        seed: 0xFA11,
    });
    let faulted = run_serve(&wl, &sys, &faulted_cfg);

    // Nothing shed on either side, so both runs served every arrival.
    assert_eq!(clean.shed(), 0);
    assert_eq!(faulted.shed(), 0);
    assert_eq!(clean.completed(), faulted.completed());

    // Recovery happened and is visible in the tail…
    let rec = faulted.recovery.as_ref().expect("fault run has recovery");
    assert!(rec.injected.total() > 0, "no faults fired");
    assert!(rec.added_latency_cycles > 0, "recovery added no latency");
    assert!(
        faulted.total.p99 > clean.total.p99,
        "p99 {} !> clean {}",
        faulted.total.p99,
        clean.total.p99
    );
    assert!(faulted.total.max > clean.total.max);

    // …but the answers are the ones the clean run returned.
    assert_eq!(
        clean.results_fingerprint, faulted.results_fingerprint,
        "faults changed returned neighbors"
    );
    assert!(clean.recovery.is_none());
}

#[test]
fn overload_sheds_and_stays_in_bounds() {
    let wl = small_workload();
    let sys = SystemConfig::default();
    // Absurd offered load into a tiny queue: backpressure must engage.
    let mut cfg = ServeConfig::open_loop(7, 1e9, 120, 50_000);
    cfg.admission = AdmissionConfig {
        max_queue_depth: 4,
        deadline_cycles: Some(30_000),
    };
    let report = run_serve(&wl, &sys, &cfg);

    assert!(report.shed() > 0, "overload must shed");
    assert_eq!(report.completed() + report.shed(), report.offered());
    assert!(report.shed_rate() > 0.0 && report.shed_rate() <= 1.0);
    assert!(report.completed() > 0, "some queries must still be served");
    assert!((0.0..=1.0).contains(&report.slo_attainment()));
    let json = report.to_json();
    assert!(json.contains("\"shed\""));
    assert!(json.contains("\"shed_rate\""));
}

#[test]
fn generous_slo_at_light_load_is_fully_attained() {
    let wl = small_workload();
    let sys = SystemConfig::default();
    // Light load, SLO far beyond any plausible completion time.
    let cfg = ServeConfig::open_loop(3, 20_000.0, 40, u64::MAX / 2);
    let report = run_serve(&wl, &sys, &cfg);

    assert_eq!(report.shed(), 0);
    assert_eq!(report.completed(), report.offered());
    assert!(
        (report.slo_attainment() - 1.0).abs() < 1e-12,
        "attainment {}",
        report.slo_attainment()
    );
    for t in &report.tenants {
        assert!((t.slo_attainment() - 1.0).abs() < 1e-12);
    }
}
