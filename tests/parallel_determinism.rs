//! The query-parallel timing replay must be invisible: any worker-thread
//! count has to produce bit-identical aggregate results, because queries
//! are independent traces replayed on private memory-system state and
//! merged in query order.

use ansmet::sim::experiment::Scale;
use ansmet::sim::{run_design, Design, Parallelism, SystemConfig, Workload};
use ansmet::vecdata::SynthSpec;

/// `run_design` with 4 worker threads returns exactly the serial result —
/// every field of [`ansmet::sim::RunResult`], including per-rank command
/// counts and load counters — across a representative design slice.
#[test]
fn run_design_bit_identical_across_thread_counts() {
    let wl = Workload::prepare(&SynthSpec::sift().scaled(600, 6), 10, Some(40));
    for design in [Design::CpuEt, Design::NdpBase, Design::NdpEtOpt] {
        let serial_cfg = SystemConfig {
            parallelism: Parallelism::Threads(1),
            ..SystemConfig::default()
        };
        let parallel_cfg = SystemConfig {
            parallelism: Parallelism::Threads(4),
            ..SystemConfig::default()
        };
        let serial = run_design(design, &wl, &serial_cfg);
        let parallel = run_design(design, &wl, &parallel_cfg);
        assert_eq!(serial, parallel, "{design:?} diverged across thread counts");
    }
}

/// More workers than queries must degrade gracefully (workers beyond the
/// query count simply find the work list empty).
#[test]
fn more_threads_than_queries_is_identical() {
    let wl = Workload::prepare(&SynthSpec::sift().scaled(400, 2), 10, Some(30));
    let serial_cfg = SystemConfig {
        parallelism: Parallelism::Threads(1),
        ..SystemConfig::default()
    };
    let wide_cfg = SystemConfig {
        parallelism: Parallelism::Threads(16),
        ..SystemConfig::default()
    };
    assert_eq!(
        run_design(Design::NdpEt, &wl, &serial_cfg),
        run_design(Design::NdpEt, &wl, &wide_cfg),
    );
}

/// Full quick-scale experiment reports — recall, latency breakdowns,
/// speedups, fault-recovery accounting — must not change with the
/// process-wide thread default. `faults` and `fig6` cover the degraded
/// path and the headline latency comparison respectively.
///
/// A workload prepared with its set-up steps overlapped (thread default
/// above 1) must equal one prepared serially.
///
/// All probes live in one test because `set_default_threads` is a
/// process-wide knob and the harness runs tests concurrently.
#[test]
fn quick_experiments_identical_across_thread_defaults() {
    use ansmet::sim::experiment as e;
    let spec = SynthSpec::deep().scaled(500, 4);

    ansmet::sim::set_default_threads(1);
    let faults_serial = e::faults(Scale::Quick);
    let fig6_serial = e::fig6(Scale::Quick, &[10]);
    let wl_serial = Workload::prepare(&spec, 10, None);

    ansmet::sim::set_default_threads(4);
    let faults_parallel = e::faults(Scale::Quick);
    let fig6_parallel = e::fig6(Scale::Quick, &[10]);
    let wl_overlapped = Workload::prepare(&spec, 10, None);
    ansmet::sim::set_default_threads(1);

    assert_eq!(faults_serial, faults_parallel, "faults report diverged");
    assert_eq!(fig6_serial, fig6_parallel, "fig6 report diverged");
    let (a, b) = (&wl_serial, &wl_overlapped);
    assert_eq!(a.ground_truth, b.ground_truth, "ground truth diverged");
    assert_eq!(a.profile, b.profile, "sampling profile diverged");
    assert_eq!((a.ef, &a.traces, &a.results), (b.ef, &b.traces, &b.results));
}
