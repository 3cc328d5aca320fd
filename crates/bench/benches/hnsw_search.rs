//! End-to-end HNSW search benchmarks: exact oracle vs. early-terminating
//! oracle.
//!
//! Note the ET oracle is *slower in host wall-clock*: it simulates the
//! NDP unit's per-line bound refinement in software. Its benefit is the
//! memory traffic it avoids (reported by the `experiments` harness and
//! the oracle's line counters), which on the modeled hardware translates
//! to latency — this bench tracks the simulation overhead itself.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use ansmet_core::{EtConfig, EtEngine, EtOracle, FetchSchedule};
use ansmet_index::{ExactOracle, Hnsw, HnswParams};
use ansmet_vecdata::SynthSpec;

fn bench_search(c: &mut Criterion) {
    let (data, queries) = SynthSpec::sift().scaled(4000, 16).generate();
    let hnsw = Hnsw::build(&data, HnswParams::quick());
    let engine = EtEngine::new(
        &data,
        EtConfig::new(FetchSchedule::simple_heuristic(data.dtype())),
    );

    let mut group = c.benchmark_group("hnsw-search");
    group.bench_function("exact-oracle", |b| {
        b.iter(|| {
            let mut o = ExactOracle::new(&data);
            for q in &queries {
                black_box(hnsw.search(black_box(q), 10, 60, &mut o));
            }
        })
    });
    group.bench_function("et-oracle", |b| {
        b.iter(|| {
            for q in &queries {
                let mut o = EtOracle::new(&engine, q).expect("query matches the data");
                black_box(hnsw.search(black_box(q), 10, 60, &mut o));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_search);
criterion_main!(benches);
