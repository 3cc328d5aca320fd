//! Pins the cycles behind Table 3: `run_design_throughput(NdpEtOpt, …, 16)`
//! at 8, 16, 32 and 64 NDP units, on small fixed SIFT- and GIST-like
//! workloads with twice as many queries as streams, so that finished
//! streams refill. Table 3 lands in no artifact, so without this test a
//! change to the wave executor could move it unnoticed.

use ansmet_sim::{run_design_throughput, Design, SystemConfig, Workload};
use ansmet_vecdata::SynthSpec;

fn cycles(spec: SynthSpec) -> Vec<u64> {
    let wl = Workload::prepare(&spec, 10, Some(40));
    [8usize, 16, 32, 64]
        .into_iter()
        .map(|units| {
            let cfg = SystemConfig::default().with_ndp_units(units);
            run_design_throughput(Design::NdpEtOpt, &wl, &cfg, 16).total_cycles
        })
        .collect()
}

#[test]
fn table3_cycles_are_pinned() {
    let sift = cycles(SynthSpec::sift().scaled(600, 32));
    let gist = cycles(SynthSpec::gist().scaled(400, 32));
    assert_eq!(sift, [49_364, 40_639, 36_126, 34_636], "SIFT-like");
    assert_eq!(gist, [580_351, 422_855, 354_129, 269_053], "GIST-like");
}
