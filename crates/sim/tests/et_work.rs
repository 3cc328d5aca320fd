//! `ansmet_core::{et_evaluations, et_bounds}` count the early-termination
//! engine's work: comparisons walked, and lower bounds computed. A latency
//! replay prepares each query once, so a plain or normal-format
//! comparison computes no bound before its first line, and no comparison
//! but a full-vector outlier one refines its last line. Counted the same
//! way, a replay that computed every comparison's first bound and its last
//! line's took 8,307, 104,740 and 76,232 bounds for the three cases below,
//! over the same walks.
//!
//! The counters are shared by every test in a process, so this file holds
//! a single test: no other evaluation can run between the reads.

use ansmet_core::{et_bounds, et_evaluations};
use ansmet_sim::{run_design, Design, Parallelism, SystemConfig, Workload};
use ansmet_vecdata::SynthSpec;

#[test]
fn et_work_is_counted_the_same_at_any_thread_count() {
    // SPACEV-like vectors share a common prefix, with outliers; a
    // GIST-like vector spans several ranks, so NDP designs evaluate it
    // in chunks.
    let spacev = Workload::prepare(&SynthSpec::spacev().scaled(400, 12), 10, Some(40));
    let gist = Workload::prepare(&SynthSpec::gist().scaled(300, 8), 10, Some(40));
    let cases = [
        ("spacev", &spacev, Design::NdpEtOpt, 4_079, 881),
        ("gist", &gist, Design::NdpEtOpt, 8_748, 92_057),
        ("gist", &gist, Design::CpuEtOpt, 1_949, 73_657),
    ];
    for threads in [1, 4] {
        let cfg = SystemConfig {
            parallelism: Parallelism::Threads(threads),
            ..SystemConfig::default()
        };
        for (name, wl, design, evaluations, bounds) in cases {
            let (e0, b0) = (et_evaluations(), et_bounds());
            run_design(design, wl, &cfg);
            assert_eq!(
                (et_evaluations() - e0, et_bounds() - b0),
                (evaluations, bounds),
                "{name} {design:?} at {threads} threads"
            );
        }
    }
}
