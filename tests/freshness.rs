//! Cross-crate freshness properties: recall under churn never falls
//! meaningfully below a fresh rebuild over the same live set, early
//! termination stays bit-identical to exact search on mutated indexes,
//! and search scratch survives mutations without re-allocating.

use std::sync::OnceLock;

use ansmet::core::EtEngine;
use ansmet::freshness::{FreshEtOracle, LayoutArtifacts, MutableIndex};
use ansmet::index::{ExactOracle, HnswParams, SearchScratch};
use ansmet::vecdata::{Dataset, SynthSpec};

/// Churn recall may trail the fresh rebuild by at most this much.
const RECALL_EPS: f64 = 0.05;
const K: usize = 10;
const EF: usize = 80;
const LEVEL_SEED: u64 = 41;

struct Fixture {
    base: MutableIndex,
    pending: Vec<Vec<f32>>,
    queries: Vec<Vec<f32>>,
}

/// Shared 300-vector base index plus a 60-vector held-out insert pool.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (data, queries) = SynthSpec::sift().scaled(360, 4).generate();
        let pending = (300..360).map(|i| data.vector(i).to_vec()).collect();
        let base = Dataset::from_values(
            "churn-base",
            data.dtype(),
            data.metric(),
            data.dim(),
            (0..300).flat_map(|i| data.vector(i).to_vec()).collect(),
        );
        Fixture {
            base: MutableIndex::build_hnsw(base, HnswParams::quick(), LEVEL_SEED),
            pending,
            queries,
        }
    })
}

/// Apply a seeded churn burst: `inserts` from the pool, then `deletes`
/// spread over the live set, then (optionally) a compaction.
fn churn(idx: &mut MutableIndex, seed: u64, inserts: usize, deletes: usize, compact: bool) {
    let f = fixture();
    for i in 0..inserts {
        idx.insert(&f.pending[(seed as usize + i) % f.pending.len()]);
    }
    let mut x = seed | 1;
    for _ in 0..deletes {
        if idx.live_len() <= K + 2 {
            break;
        }
        // xorshift victim draw over live ids only.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let rank = (x % idx.live_len() as u64) as usize;
        let victim = (0..idx.len())
            .filter(|&id| idx.is_live(id))
            .nth(rank)
            .expect("rank bounded by live count");
        assert!(idx.delete(victim));
    }
    if compact {
        idx.compact();
    }
}

fn mean_recall(results: &[Vec<usize>], truth: &[Vec<usize>]) -> f64 {
    let mut acc = 0.0;
    for (got, want) in results.iter().zip(truth) {
        acc += got.iter().filter(|id| want.contains(id)).count() as f64 / want.len().max(1) as f64;
    }
    acc / results.len().max(1) as f64
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Search-after-{insert,delete,compact} recall never drops below
        /// the recall of an index freshly rebuilt over the identical live
        /// set, minus a fixed epsilon.
        fn churned_recall_tracks_a_fresh_rebuild(
            seed in 0u64..10_000,
            inserts in 1usize..60,
            deletes in 0usize..40,
            compact in 0u32..2,
        ) {
            let f = fixture();
            let mut idx = f.base.clone();
            churn(&mut idx, seed, inserts, deletes, compact == 1);

            let truth: Vec<Vec<usize>> = f
                .queries
                .iter()
                .map(|q| idx.live_ground_truth(q, K))
                .collect();
            let churned: Vec<Vec<usize>> = f
                .queries
                .iter()
                .map(|q| idx.search_exact(q, K, EF).ids())
                .collect();

            // Fresh rebuild over exactly the live vectors.
            let live = idx.live_ids();
            let data = idx.data();
            let compacted = Dataset::from_values(
                "rebuild",
                data.dtype(),
                data.metric(),
                data.dim(),
                live.iter().flat_map(|&id| data.vector(id).to_vec()).collect(),
            );
            let rebuilt =
                MutableIndex::build_hnsw(compacted, HnswParams::quick(), LEVEL_SEED);
            let statics: Vec<Vec<usize>> = f
                .queries
                .iter()
                .map(|q| {
                    rebuilt
                        .search_exact(q, K, EF)
                        .ids()
                        .into_iter()
                        .map(|local| live[local])
                        .collect()
                })
                .collect();

            let r_churn = mean_recall(&churned, &truth);
            let r_static = mean_recall(&statics, &truth);
            prop_assert!(
                r_churn >= r_static - RECALL_EPS,
                "churn recall {r_churn:.4} fell more than {RECALL_EPS} below rebuild {r_static:.4} \
                 (seed {seed}, +{inserts}/-{deletes}, compact {compact})"
            );
        }

        /// ET-on and ET-off return bit-identical ids on mutated indexes,
        /// both before and after epoch re-validation.
        fn et_is_bit_identical_on_mutated_indexes(
            seed in 0u64..10_000,
            inserts in 1usize..60,
            deletes in 0usize..40,
        ) {
            let f = fixture();
            let mut idx = f.base.clone();
            let mut layout = LayoutArtifacts::plan(&idx, 0.01);
            churn(&mut idx, seed, inserts, deletes, false);

            // Pass 1: the stale plan — fresh inserts served conservatively.
            {
                let engine = EtEngine::new(idx.data(), layout.et_config());
                let mut scratch = SearchScratch::new(idx.len());
                for q in &f.queries {
                    let mut et = FreshEtOracle::new(&engine, idx.conservative_flags(), q)
                        .expect("query matches the index");
                    let with_et = idx.search_with(q, K, EF, &mut et, &mut scratch);
                    let mut exact = ExactOracle::new(idx.data());
                    let without = idx.search_with(q, K, EF, &mut exact, &mut scratch);
                    prop_assert_eq!(
                        with_et.ids(),
                        without.ids(),
                        "ET diverged on the stale plan (seed {}, +{}/-{})",
                        seed,
                        inserts,
                        deletes
                    );
                }
            }

            // Pass 2: after compaction + re-validation (possibly re-planned).
            idx.compact();
            layout.revalidate(&mut idx, 0.02);
            let engine = EtEngine::new(idx.data(), layout.et_config());
            let mut scratch = SearchScratch::new(idx.len());
            for q in &f.queries {
                let mut et = FreshEtOracle::new(&engine, idx.conservative_flags(), q)
                    .expect("query matches the index");
                let with_et = idx.search_with(q, K, EF, &mut et, &mut scratch);
                let mut exact = ExactOracle::new(idx.data());
                let without = idx.search_with(q, K, EF, &mut exact, &mut scratch);
                prop_assert_eq!(
                    with_et.ids(),
                    without.ids(),
                    "ET diverged after re-validation (seed {}, +{}/-{})",
                    seed,
                    inserts,
                    deletes
                );
            }
        }
    }
}

/// Regression: one scratch allocation serves searches across inserts,
/// deletes, and compaction — the generation sync must resize in place
/// from its headroom, never re-allocate.
#[test]
fn scratch_survives_churn_without_reallocating() {
    let f = fixture();
    let mut idx = f.base.clone();
    let mut scratch = SearchScratch::with_headroom(idx.len(), f.pending.len().max(64));
    let mut oracle = ExactOracle::new(idx.data());
    idx.search_with(&f.queries[0], K, EF, &mut oracle, &mut scratch);

    for (i, v) in f.pending.iter().enumerate() {
        idx.insert(v);
        if i % 2 == 0 {
            idx.delete(i * 3 % 250);
        }
        let mut oracle = ExactOracle::new(idx.data());
        let r = idx.search_with(
            &f.queries[i % f.queries.len()],
            K,
            EF,
            &mut oracle,
            &mut scratch,
        );
        assert_eq!(r.ids().len(), K);
    }
    idx.compact();
    let mut oracle = ExactOracle::new(idx.data());
    idx.search_with(&f.queries[0], K, EF, &mut oracle, &mut scratch);
    assert_eq!(
        scratch.reallocations(),
        0,
        "scratch must grow from headroom, not re-allocate, across churn"
    );
}
