//! Freshness microbenchmarks: streaming-insert throughput (incremental
//! HNSW insertion), tombstone + compaction cost, and snapshot save/load
//! round trips — the hot paths of the churn loop.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use ansmet_freshness::{load, save, EpochMeta, LayoutArtifacts, MutableIndex};
use ansmet_index::HnswParams;
use ansmet_vecdata::{Dataset, SynthSpec};

const LEVEL_SEED: u64 = 77;

/// A base index over the first `base` vectors plus the remaining
/// vectors as a pending insert pool.
fn setup(n: usize, base: usize) -> (Dataset, Vec<Vec<f32>>) {
    let (data, _) = SynthSpec::sift().scaled(n, 1).generate();
    let pending: Vec<Vec<f32>> = (base..n).map(|i| data.vector(i).to_vec()).collect();
    let base_data = Dataset::from_values(
        "bench",
        data.dtype(),
        data.metric(),
        data.dim(),
        (0..base).flat_map(|i| data.vector(i).to_vec()).collect(),
    );
    (base_data, pending)
}

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("freshness_insert");
    let (base, pending) = setup(1_200, 1_000);
    group.bench_function("hnsw-stream-200", |b| {
        b.iter(|| {
            let mut idx = MutableIndex::build_hnsw(base.clone(), HnswParams::quick(), LEVEL_SEED);
            for v in &pending {
                black_box(idx.insert(v));
            }
            idx.generation()
        })
    });
    group.finish();
}

fn bench_compact(c: &mut Criterion) {
    let mut group = c.benchmark_group("freshness_compact");
    let (base, _) = setup(1_000, 1_000);
    group.bench_function("hnsw-delete100-compact", |b| {
        b.iter(|| {
            let mut idx = MutableIndex::build_hnsw(base.clone(), HnswParams::quick(), LEVEL_SEED);
            for id in (0..1_000).step_by(10) {
                idx.delete(id);
            }
            black_box(idx.compact())
        })
    });
    group.finish();
}

fn bench_snapshot(c: &mut Criterion) {
    let mut group = c.benchmark_group("freshness_snapshot");
    let (base, _) = setup(1_000, 1_000);
    let idx = MutableIndex::build_hnsw(base, HnswParams::quick(), LEVEL_SEED);
    let layout = LayoutArtifacts::plan(&idx, 0.01);
    let meta = EpochMeta {
        epoch: 3,
        last_epoch_cycle: 1_000_000,
    };
    group.bench_function("save", |b| b.iter(|| black_box(save(&idx, &layout, &meta))));
    let blob = save(&idx, &layout, &meta);
    group.bench_function("load", |b| {
        b.iter(|| black_box(load(&blob).expect("clean blob loads")))
    });
    group.finish();
}

criterion_group!(benches, bench_insert, bench_compact, bench_snapshot);
criterion_main!(benches);
