//! `comparisons_planned` counts each comparison the planner evaluates: a
//! latency replay evaluates every non-centroid comparison of its query,
//! and a wave context evaluates a query's comparisons once, however often
//! the query is served.
//!
//! The counter is shared by every test in a process, so this file holds
//! a single test: no other planning can run between the reads.

use std::collections::BTreeSet;

use ansmet_index::HopKind;
use ansmet_serve::{generate_arrivals, run_serve, ServeConfig};
use ansmet_sim::workload::IndexKind;
use ansmet_sim::{comparisons_planned, run_design, Design, Parallelism, SystemConfig, Workload};
use ansmet_vecdata::SynthSpec;

/// Non-centroid comparisons of query `qi`: centroid distances are host
/// arithmetic, not planned comparisons.
fn comparisons(wl: &Workload, qi: usize) -> u64 {
    wl.traces[qi]
        .hops
        .iter()
        .filter(|h| h.kind != HopKind::Centroid)
        .map(|h| h.evals.len() as u64)
        .sum()
}

#[test]
fn every_evaluated_comparison_counts_once() {
    let wl =
        Workload::prepare_with_index(&SynthSpec::sift().scaled(400, 12), 10, None, IndexKind::Ivf);
    let centroid_hops = wl.traces[0]
        .hops
        .iter()
        .any(|h| h.kind == HopKind::Centroid);
    assert!(centroid_hops, "the IVF traces start with centroid hops");
    let all: u64 = (0..wl.traces.len()).map(|qi| comparisons(&wl, qi)).sum();
    assert!(all > 0);

    for threads in [1, 4] {
        let cfg = SystemConfig {
            parallelism: Parallelism::Threads(threads),
            ..SystemConfig::default()
        };
        let c0 = comparisons_planned();
        run_design(Design::NdpEtOpt, &wl, &cfg);
        assert_eq!(
            comparisons_planned() - c0,
            all,
            "run_design at {threads} threads"
        );
    }

    let cfg = SystemConfig::default();
    let serve = ServeConfig::open_loop(3, 20_000.0, 8, 2_000_000);
    let arrivals = generate_arrivals(
        &serve.tenants,
        wl.queries.len(),
        serve.seed,
        cfg.dram.clock_mhz,
    );
    let served: BTreeSet<usize> = arrivals.iter().map(|a| a.query).collect();
    assert!(served.len() < arrivals.len(), "some query is served twice");
    assert!(served.len() < wl.traces.len(), "some query is never served");
    let c0 = comparisons_planned();
    let report = run_serve(&wl, &cfg, &serve);
    let planned = comparisons_planned() - c0;
    assert_eq!(
        report.batched_queries,
        arrivals.len() as u64,
        "nothing was shed"
    );
    let expected: u64 = served.iter().map(|&qi| comparisons(&wl, qi)).sum();
    assert_eq!(planned, expected, "run_serve plans each served query once");
}
