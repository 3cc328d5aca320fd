//! `run_design_shared` memo hits replay nothing, so they add nothing to
//! the process-wide replayed-query counter.
//!
//! The counter is shared by every test in a process, so this file holds
//! a single test: no other replay can run between the two reads.

use ansmet_sim::{queries_simulated, run_design_shared, Design, SystemConfig, Workload};
use ansmet_vecdata::SynthSpec;

#[test]
fn a_memo_hit_counts_no_replayed_queries() {
    let wl = Workload::prepare_shared(&SynthSpec::sift().scaled(300, 3), 10, Some(20));
    let cfg = SystemConfig::default();
    let n = wl.traces.len() as u64;
    assert!(n > 0);

    let q0 = queries_simulated();
    let miss = run_design_shared(Design::NdpEtOpt, &wl, &cfg);
    let q1 = queries_simulated();
    assert_eq!(q1 - q0, n, "a miss replays every query once");

    let hit = run_design_shared(Design::NdpEtOpt, &wl, &cfg);
    assert_eq!(queries_simulated() - q1, 0, "a hit replays nothing");
    assert_eq!(hit, miss);
}
