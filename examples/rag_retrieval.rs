//! Retrieval-augmented-generation style workload: cosine-similarity text
//! embeddings (GloVe-like), where the paper's partial-dimension-only
//! early termination fails but the hybrid bit-level scheme works.
//!
//! ```text
//! cargo run --release --example rag_retrieval
//! ```

use ansmet::core::{EtConfig, EtEngine, EtOracle, FetchSchedule};
use ansmet::index::{ExactOracle, Hnsw, HnswParams};
use ansmet::vecdata::{brute_force_knn, recall_at_k, Metric, SynthSpec};

fn main() {
    // Text-embedding corpus: 100-dim FP32 under cosine similarity (the
    // preprocessing folds cosine to inner product on normalized vectors).
    let mut spec = SynthSpec::glove().scaled(8_000, 25);
    spec.metric = Metric::Cosine;
    let (corpus, questions) = spec.generate();
    println!(
        "corpus: {} passages × {} dims, search metric after normalization: {}",
        corpus.len(),
        corpus.dim(),
        corpus.metric()
    );

    let hnsw = Hnsw::build(&corpus, HnswParams::quick());

    // Partial-dimension-only ET (prior work): no fetch can be skipped,
    // because unfetched FP32 dimensions make the IP bound −∞.
    let dim_engine = EtEngine::new(
        &corpus,
        EtConfig::new(FetchSchedule::full_width(corpus.dtype())),
    );
    // ANSMET's hybrid bit-level ET.
    let bit_engine = EtEngine::new(
        &corpus,
        EtConfig::new(FetchSchedule::simple_heuristic(corpus.dtype())),
    );

    let mut recall = 0.0;
    let mut dim_oracle_lines = 0u64;
    let mut bit_oracle_lines = 0u64;
    let mut baseline = 0u64;
    for q in &questions {
        let mut dim_o = EtOracle::new(&dim_engine, q).expect("query matches the corpus");
        let mut bit_o = EtOracle::new(&bit_engine, q).expect("query matches the corpus");
        let mut exact = ExactOracle::new(&corpus);
        let top = hnsw.search(q, 5, 60, &mut exact);
        let a = hnsw.search(q, 5, 60, &mut dim_o);
        let b = hnsw.search(q, 5, 60, &mut bit_o);
        assert_eq!(top.ids(), a.ids());
        assert_eq!(top.ids(), b.ids());
        dim_oracle_lines += dim_o.lines;
        bit_oracle_lines += bit_o.lines;
        baseline += bit_o.baseline_lines();
        let (truth, _) = brute_force_knn(&corpus, q, 5);
        recall += recall_at_k(&top.ids(), &truth, 5);
    }
    println!("retrieval recall@5: {:.3}", recall / questions.len() as f64);
    println!(
        "fetched 64B lines — partial-dimension ET: {dim_oracle_lines}, hybrid bit-level ET: {bit_oracle_lines} (baseline {baseline})"
    );
    println!(
        "hybrid saves {:.1}% of traffic where dimension-level ET saves {:.1}% — the paper's IP observation",
        100.0 * (1.0 - bit_oracle_lines as f64 / baseline as f64),
        100.0 * (1.0 - dim_oracle_lines as f64 / baseline as f64),
    );
}
