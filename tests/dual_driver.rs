//! Cycle-for-cycle equivalence of the two NDP batch time-stepping
//! drivers: the event-wheel scheduler (production) and the per-cycle
//! tick reference. Full-pipeline runs — HNSW and IVF traversal, early
//! termination on and off, fault recovery under serving — must produce
//! identical results and identical flight recordings (including the
//! DRAM command stream) under either driver.

use std::sync::Mutex;

use ansmet::obs::FlightRecorder;
use ansmet::serve::{run_serve, FaultProfile, ServeConfig};
use ansmet::sim::workload::IndexKind;
use ansmet::sim::{
    run_design_traced, set_batch_driver, BatchDriver, Design, RunResult, SystemConfig,
    TraceOptions, Workload,
};
use ansmet::vecdata::SynthSpec;
use ansmet_faults::FaultRates;

/// The driver selector is process-global; tests that flip it must not
/// interleave.
static DRIVER_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` once per driver and return both outcomes, restoring the
/// default (wheel) driver afterwards.
fn under_both_drivers<T>(mut f: impl FnMut() -> T) -> (T, T) {
    let _guard = DRIVER_LOCK.lock().expect("driver lock poisoned");
    set_batch_driver(BatchDriver::Wheel);
    let wheel = f();
    set_batch_driver(BatchDriver::Tick);
    let tick = f();
    set_batch_driver(BatchDriver::Wheel);
    (wheel, tick)
}

/// Traced run (DRAM commands on) so the assertion covers the exact
/// command stream, not just aggregate cycle counts.
fn traced(design: Design, wl: &Workload, cfg: &SystemConfig) -> (RunResult, FlightRecorder) {
    let opts = TraceOptions {
        dram_commands: true,
        ..TraceOptions::default()
    };
    run_design_traced(design, wl, cfg, &opts)
}

fn assert_drivers_agree(wl: &Workload, designs: &[Design]) {
    let cfg = SystemConfig::default();
    for &design in designs {
        let ((rw, recw), (rt, rect)) = under_both_drivers(|| traced(design, wl, &cfg));
        assert_eq!(rw, rt, "{design:?}: results diverged between drivers");
        assert_eq!(
            recw, rect,
            "{design:?}: flight recording (command stream) diverged"
        );
    }
}

/// HNSW traversal, ET off (NdpBase) and on (NdpEtOpt, NdpEtDual).
#[test]
fn hnsw_pipeline_drivers_agree() {
    let wl = Workload::prepare(&SynthSpec::sift().scaled(700, 5), 10, Some(40));
    assert_drivers_agree(&wl, &[Design::NdpBase, Design::NdpEtOpt, Design::NdpEtDual]);
}

/// IVF traversal exercises centroid hops and a different offload shape.
#[test]
fn ivf_pipeline_drivers_agree() {
    let wl = Workload::prepare_with_index(
        &SynthSpec::gist().scaled(500, 4),
        10,
        Some(20),
        IndexKind::Ivf,
    );
    assert_drivers_agree(&wl, &[Design::NdpBase, Design::NdpEtOpt]);
}

/// The serving engine (wave model + fault recovery) sits on the same
/// batch driver; its full report must not depend on the driver either.
#[test]
fn serving_with_faults_drivers_agree() {
    let wl = Workload::prepare(&SynthSpec::sift().scaled(800, 4), 10, Some(40));
    let sys = SystemConfig::default();
    let serve =
        ServeConfig::open_loop(0xD0D0, 150_000.0, 48, 2_000_000).with_faults(FaultProfile {
            rates: FaultRates::mixed(),
            seed: 0xFA11,
        });
    let (rw, rt) = under_both_drivers(|| run_serve(&wl, &sys, &serve));
    assert_eq!(rw, rt, "serve report diverged between drivers");
    assert_eq!(rw.to_json(), rt.to_json());
}
