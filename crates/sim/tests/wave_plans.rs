//! A `WaveContext` fills each query's early-termination plan on the
//! query's first execution and reads it afterwards. Reading a plan must
//! never change a batch: a sequence of batches executed on one shared
//! context costs, batch by batch, exactly what each batch costs on a
//! fresh context.
//!
//! Two workloads, both with hot-vector replication on (the default): a
//! GIST-like one, whose 960 FP32 dims split into four 1 KB sub-vectors
//! (the multi-chunk path), and a DEEP-like one with a single chunk.

use std::sync::OnceLock;

use ansmet_obs::NoopSink;
use ansmet_sim::{Design, SystemConfig, WaveContext, Workload};
use ansmet_vecdata::SynthSpec;
use proptest::prelude::*;

const QUERIES: usize = 6;

fn gist() -> &'static Workload {
    static WL: OnceLock<Workload> = OnceLock::new();
    WL.get_or_init(|| Workload::prepare(&SynthSpec::gist().scaled(200, QUERIES), 5, Some(10)))
}

fn deep() -> &'static Workload {
    static WL: OnceLock<Workload> = OnceLock::new();
    WL.get_or_init(|| Workload::prepare(&SynthSpec::deep().scaled(400, QUERIES), 5, Some(10)))
}

fn ndp_design(i: usize) -> Design {
    let ndp: Vec<Design> = Design::all().into_iter().filter(|d| d.is_ndp()).collect();
    ndp[i % ndp.len()]
}

/// Execute `batches` in order on one context and each on a fresh one.
fn reuse_matches_fresh(
    wl: &Workload,
    design: Design,
    batches: &[Vec<usize>],
) -> Result<(), TestCaseError> {
    let cfg = SystemConfig::default();
    let shared = WaveContext::new(design, wl, &cfg);
    for ids in batches {
        let reused = shared.execute_with_sink(ids, &mut NoopSink, 0);
        let fresh = WaveContext::new(design, wl, &cfg).execute_with_sink(ids, &mut NoopSink, 0);
        prop_assert_eq!(
            reused,
            fresh,
            "{:?} batch {:?} of {:?}",
            design,
            ids,
            batches
        );
    }
    Ok(())
}

#[test]
fn the_workloads_exercise_the_paths_under_test() {
    let cfg = SystemConfig::default();
    assert!(cfg.replicate_hot);
    for (wl, subvectors) in [(gist(), 4), (deep(), 1)] {
        let ctx = WaveContext::new(Design::NdpEtOpt, wl, &cfg);
        assert_eq!(ctx.partitioner().subvectors_per_vector(), subvectors);
        assert!(
            !wl.hot_ids().is_empty(),
            "{} has no replicated vectors",
            wl.name
        );
    }
}

proptest! {
    fn gist_plan_reuse_never_changes_a_batch(
        design in 0usize..6,
        batches in proptest::collection::vec(
            proptest::collection::vec(0usize..QUERIES, 1..5),
            1..4,
        ),
    ) {
        reuse_matches_fresh(gist(), ndp_design(design), &batches)?;
    }

    fn deep_plan_reuse_never_changes_a_batch(
        design in 0usize..6,
        batches in proptest::collection::vec(
            proptest::collection::vec(0usize..QUERIES, 1..5),
            1..4,
        ),
    ) {
        reuse_matches_fresh(deep(), ndp_design(design), &batches)?;
    }
}
