//! Quickstart: build an HNSW index over a synthetic SIFT-like dataset,
//! search it exactly and with lossless early termination, and show the
//! fetch savings.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ansmet::core::{EtConfig, EtEngine, EtOracle, FetchSchedule};
use ansmet::index::{DistanceOracle, ExactOracle, Hnsw, HnswParams};
use ansmet::vecdata::{brute_force_knn, recall_at_k, SynthSpec};

fn main() {
    // 1. A SIFT-like dataset: 128-dim UINT8 vectors under L2.
    let (data, queries) = SynthSpec::sift().scaled(5_000, 20).generate();
    println!(
        "dataset: {} — {} vectors × {} dims ({}, {})",
        data.name(),
        data.len(),
        data.dim(),
        data.dtype(),
        data.metric()
    );

    // 2. Build the HNSW index (max degree 16, as in the paper).
    let hnsw = Hnsw::build(&data, HnswParams::quick());
    println!(
        "hnsw: {} layers, entry point {}",
        hnsw.layer_count(),
        hnsw.entry_point()
    );

    // 3. Search with the exact oracle and measure recall.
    let mut exact = ExactOracle::new(&data);
    let mut recall = 0.0;
    for q in &queries {
        let (truth, _) = brute_force_knn(&data, q, 10);
        let r = hnsw.search(q, 10, 80, &mut exact);
        recall += recall_at_k(&r.ids(), &truth, 10);
    }
    println!(
        "exact search: recall@10 = {:.3} ({} comparisons)",
        recall / queries.len() as f64,
        exact.comparisons()
    );

    // 4. The same searches through the hybrid early-termination engine:
    //    identical results, fewer 64 B fetches.
    let engine = EtEngine::new(
        &data,
        EtConfig::new(FetchSchedule::simple_heuristic(data.dtype())),
    );
    //    One oracle serves one query.
    let (mut pruned, mut comparisons, mut lines, mut baseline) = (0, 0, 0, 0);
    for q in &queries {
        let mut et = EtOracle::new(&engine, q).expect("query matches the data");
        let _ = hnsw.search(q, 10, 80, &mut et);
        pruned += et.pruned;
        comparisons += et.comparisons();
        lines += et.lines;
        baseline += et.baseline_lines();
    }
    println!(
        "early termination: {} of {} comparisons pruned, {} lines fetched vs {} baseline ({:.1}% saved)",
        pruned,
        comparisons,
        lines,
        baseline,
        100.0 * (1.0 - lines as f64 / baseline as f64)
    );

    // 5. Verify losslessness: both oracles return the same neighbors.
    let mut exact2 = ExactOracle::new(&data);
    let mut et2 = EtOracle::new(&engine, &queries[0]).expect("query matches the data");
    let a = hnsw.search(&queries[0], 10, 80, &mut exact2);
    let b = hnsw.search(&queries[0], 10, 80, &mut et2);
    assert_eq!(a.ids(), b.ids(), "early termination must be lossless");
    println!("losslessness check passed: identical top-10 for query 0");
}
