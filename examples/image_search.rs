//! Image-descriptor search (GIST-like, 960-dim FP32): the paper's best
//! case for ANSMET. Shows offline preprocessing — sampling, common-prefix
//! elimination, dual-granularity layout optimization, and the physical
//! transform — then compares fetch traffic.
//!
//! ```text
//! cargo run --release --example image_search
//! ```

use ansmet::core::{
    optimize_dual_schedule, EtConfig, EtEngine, EtOracle, PrefixSpec, SamplingConfig,
    SamplingProfile, TransformedDataset,
};
use ansmet::index::{DistanceOracle, Hnsw, HnswParams};
use ansmet::vecdata::SynthSpec;

fn main() {
    let (data, queries) = SynthSpec::gist().scaled(3_000, 10).generate();
    println!(
        "dataset: {} — {} × {} dims FP32, {} lines/vector naturally",
        data.name(),
        data.len(),
        data.dim(),
        data.vector_lines()
    );

    // Offline preprocessing (§4.2): sample 100 vectors.
    let profile = SamplingProfile::build(&data, &SamplingConfig::default());
    println!(
        "sampling: threshold {:.2}, mean termination at {:.1} bits, {:.0}% never terminate",
        profile.threshold,
        profile.mean_termination_bits().unwrap_or(f64::NAN),
        profile.never_frac * 100.0
    );

    // Outlier-aware common prefix elimination (0.1 % outlier budget).
    let prefix = PrefixSpec::choose(&data, &profile.sample_ids, 0.001);
    let stats = prefix.stats(&data);
    println!(
        "common prefix: {} bits eliminated, {:.2}% outlier elements, {:.1}% space saved",
        prefix.len(),
        stats.outlier_element_frac * 100.0,
        stats.saved_space_frac * 100.0
    );

    // Dual-granularity fetch optimization.
    let params = optimize_dual_schedule(
        data.dim(),
        data.dtype().bits(),
        prefix.len(),
        &profile.et_histogram,
        profile.never_frac,
    );
    let schedule = params.schedule(data.dtype(), prefix.len());
    println!(
        "schedule: n_C={} T_C={} n_F={} → steps {:?}",
        params.n_c,
        params.t_c,
        params.n_f,
        schedule.steps()
    );

    // Physical layout transform (the Table 4 preprocessing step).
    let t0 = std::time::Instant::now();
    let transformed = TransformedDataset::build(&data, schedule.clone());
    println!(
        "layout transform: {:.2} MB in {:.2} s",
        transformed.total_bytes() as f64 / 1e6,
        t0.elapsed().as_secs_f64()
    );

    // Online search with the optimized early termination.
    let hnsw = Hnsw::build(&data, HnswParams::quick());
    let et_cfg = if prefix.is_disabled() {
        EtConfig::new(schedule)
    } else {
        EtConfig::with_prefix(schedule, prefix)
    };
    let engine = EtEngine::new(&data, et_cfg);
    let (mut comparisons, mut pruned, mut lines, mut baseline, mut backup) = (0, 0, 0, 0, 0);
    for q in &queries {
        let mut oracle = EtOracle::new(&engine, q).expect("query matches the data");
        let top = hnsw.search(q, 10, 60, &mut oracle);
        assert_eq!(top.ids().len(), 10);
        comparisons += oracle.comparisons();
        pruned += oracle.pruned;
        lines += oracle.lines;
        baseline += oracle.baseline_lines();
        backup += oracle.backup_lines;
    }
    println!(
        "search: {} comparisons, {:.1}% early terminated, {:.1}% of baseline traffic ({} backup lines)",
        comparisons,
        100.0 * pruned as f64 / comparisons as f64,
        100.0 * lines as f64 / baseline as f64,
        backup,
    );
}
