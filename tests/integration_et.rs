//! Cross-crate integration tests for the early-termination algorithm:
//! losslessness end-to-end across datasets, schedules, and prefix
//! elimination.

use ansmet::core::{
    optimize_dual_schedule, EtConfig, EtEngine, EtOracle, FetchSchedule, PrefixSpec,
    SamplingConfig, SamplingProfile,
};
use ansmet::index::{ExactOracle, Hnsw, HnswParams, Ivf, IvfParams};
use ansmet::vecdata::SynthSpec;

/// Every dataset profile × the simple schedule: search results are
/// bit-identical to exact search, and traffic shrinks.
#[test]
fn lossless_across_all_datasets() {
    for spec in SynthSpec::all_paper_datasets() {
        let (data, queries) = spec.scaled(600, 3).generate();
        let hnsw = Hnsw::build(&data, HnswParams::quick());
        let engine = EtEngine::new(
            &data,
            EtConfig::new(FetchSchedule::simple_heuristic(data.dtype())),
        );
        for q in &queries {
            let mut exact = ExactOracle::new(&data);
            let mut et = EtOracle::new(&engine, q).expect("query matches the data");
            let a = hnsw.search(q, 10, 50, &mut exact);
            let b = hnsw.search(q, 10, 50, &mut et);
            assert_eq!(a.ids(), b.ids(), "dataset {}", data.name());
            assert!(
                et.lines <= et.baseline_lines(),
                "dataset {}: ET may not fetch more than baseline",
                data.name()
            );
        }
    }
}

/// The fully-optimized pipeline (sampling → prefix → dual schedule) is
/// also lossless, including the outlier backup path.
#[test]
fn lossless_with_optimized_layout() {
    let (data, queries) = SynthSpec::gist().scaled(500, 3).generate();
    let profile = SamplingProfile::build(&data, &SamplingConfig::default().with_samples(60));
    let prefix = PrefixSpec::choose(&data, &profile.sample_ids, 0.001);
    let params = optimize_dual_schedule(
        data.dim(),
        data.dtype().bits(),
        prefix.len(),
        &profile.et_histogram,
        profile.never_frac,
    );
    let sched = params.schedule(data.dtype(), prefix.len());
    let cfg = if prefix.is_disabled() {
        EtConfig::new(sched)
    } else {
        EtConfig::with_prefix(sched, prefix)
    };
    let engine = EtEngine::new(&data, cfg);
    let hnsw = Hnsw::build(&data, HnswParams::quick());
    for q in &queries {
        let mut exact = ExactOracle::new(&data);
        let mut et = EtOracle::new(&engine, q).expect("query matches the data");
        let a = hnsw.search(q, 10, 40, &mut exact);
        let b = hnsw.search(q, 10, 40, &mut et);
        assert_eq!(a.ids(), b.ids());
    }
}

/// Early termination also applies to cluster-based indexes (§4.1 "early
/// termination also applies to other indexes including cluster-based").
#[test]
fn lossless_on_ivf() {
    let (data, queries) = SynthSpec::sift().scaled(600, 3).generate();
    let ivf = Ivf::build(&data, IvfParams::default());
    let engine = EtEngine::new(
        &data,
        EtConfig::new(FetchSchedule::simple_heuristic(data.dtype())),
    );
    let nprobe = (ivf.n_lists() / 3).max(1);
    for q in &queries {
        let mut exact = ExactOracle::new(&data);
        let mut et = EtOracle::new(&engine, q).expect("query matches the data");
        let a = ivf.search(q, 10, nprobe, &mut exact);
        let b = ivf.search(q, 10, nprobe, &mut et);
        assert_eq!(a.ids(), b.ids());
        assert!(et.pruned > 0, "IVF scans should prune heavily");
    }
}

/// Tighter beam widths (smaller k′) terminate earlier — the Fig. 8
/// observation that ET is more effective at small k′.
#[test]
fn smaller_ef_prunes_more() {
    let (data, queries) = SynthSpec::deep().scaled(800, 4).generate();
    let hnsw = Hnsw::build(&data, HnswParams::quick());
    let engine = EtEngine::new(
        &data,
        EtConfig::new(FetchSchedule::simple_heuristic(data.dtype())),
    );
    let frac = |ef: usize| -> f64 {
        let (mut lines, mut baseline) = (0, 0);
        for q in &queries {
            let mut o = EtOracle::new(&engine, q).expect("query matches the data");
            let _ = hnsw.search(q, 10, ef, &mut o);
            lines += o.lines;
            baseline += o.baseline_lines();
        }
        lines as f64 / baseline as f64
    };
    let tight = frac(12);
    let loose = frac(120);
    assert!(
        tight <= loose + 0.05,
        "tight beams should fetch proportionally less: {tight} vs {loose}"
    );
}

/// FP16 and BF16 storage (§5.1: the QSHR holds 256-dim FP16 queries) —
/// early termination stays lossless on half-precision datasets.
#[test]
fn lossless_on_half_precision() {
    use ansmet::vecdata::ElemType;
    for dtype in [ElemType::F16, ElemType::Bf16] {
        let (data, queries) = SynthSpec::deep()
            .with_dtype(dtype)
            .scaled(400, 3)
            .generate();
        assert_eq!(data.dtype(), dtype);
        let hnsw = Hnsw::build(&data, HnswParams::quick());
        let engine = EtEngine::new(&data, EtConfig::new(FetchSchedule::simple_heuristic(dtype)));
        for q in &queries {
            let mut exact = ExactOracle::new(&data);
            let mut et = EtOracle::new(&engine, q).expect("query matches the data");
            let a = hnsw.search(q, 10, 40, &mut exact);
            let b = hnsw.search(q, 10, 40, &mut et);
            assert_eq!(a.ids(), b.ids(), "dtype {dtype}");
        }
    }
}

/// Exact brute-force k-NN with ET returns the exhaustive answer
/// (§4.1: usable "in accurate search algorithms like kmeans and kNN").
#[test]
fn exact_scan_is_exact() {
    use ansmet::core::et_knn;
    use ansmet::vecdata::brute_force_knn;
    let (data, queries) = SynthSpec::gist().scaled(250, 3).generate();
    let engine = EtEngine::new(
        &data,
        EtConfig::new(FetchSchedule::simple_heuristic(data.dtype())),
    );
    for q in &queries {
        let (truth, _) = brute_force_knn(&data, q, 10);
        let scan = et_knn(&engine, q, 10);
        assert_eq!(scan.ids, truth);
        assert!(scan.traffic_fraction() < 1.0);
    }
}
