//! Snapshot round-trip tests against a committed on-disk fixture:
//! clean save/load is byte-stable, every single-bit flip and every
//! truncation of the fixture surfaces as a typed error, forged fields
//! with a recomputed checksum are a typed error or a servable index,
//! torn writes are detected and recovered through the fallback path, and
//! the committed v1 fixture still loads (format drift guard).
//!
//! Regenerate the fixture with
//! `cargo test -p ansmet --test freshness_snapshot -- --ignored`.

use std::path::PathBuf;

use ansmet::core::EtEngine;
use ansmet::freshness::{
    load, load_with_fallback, save, EpochMeta, FreshEtOracle, LayoutArtifacts, MutableIndex,
    SnapshotError,
};
use ansmet::index::{HnswParams, SearchScratch};
use ansmet::obs::fingerprint64;
use ansmet::vecdata::{Dataset, ElemType, Metric};
use ansmet_faults::snapshot::{flip_byte, torn_tail};

const FIXTURE: &str = "tests/fixtures/freshness_v1.snap";

/// The exact state the committed fixture was built from: a tiny dim-8
/// F16/L2 dataset (LCG values), 40 base vectors, 8 streamed inserts,
/// 3 deletes, one compaction.
fn fixture_state() -> (MutableIndex, LayoutArtifacts, EpochMeta) {
    let dim = 8;
    let n = 48;
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut val = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        ((x >> 40) as f64 / (1u64 << 24) as f64) as f32 * 4.0 - 2.0
    };
    let values: Vec<f32> = (0..n * dim).map(|_| val()).collect();
    let base: Vec<f32> = values[..40 * dim].to_vec();
    let pending: Vec<Vec<f32>> = (40..n)
        .map(|i| values[i * dim..(i + 1) * dim].to_vec())
        .collect();

    let data = Dataset::from_values("snap-fixture", ElemType::F16, Metric::L2, dim, base);
    let mut idx = MutableIndex::build_hnsw(data, HnswParams::quick(), 7);
    let mut layout = LayoutArtifacts::plan(&idx, 0.05);
    for v in &pending {
        idx.insert(v);
    }
    for id in [3, 11, 29] {
        idx.delete(id);
    }
    idx.compact();
    layout.revalidate(&mut idx, 1.0);
    let meta = EpochMeta {
        epoch: 1,
        last_epoch_cycle: 123_456,
    };
    (idx, layout, meta)
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../")
        .join(FIXTURE)
}

#[test]
fn clean_save_load_is_byte_stable() {
    let (idx, layout, meta) = fixture_state();
    let a = save(&idx, &layout, &meta);
    let b = save(&idx, &layout, &meta);
    assert_eq!(a, b, "two saves of identical state must be byte-identical");

    let snap = load(&a).expect("clean snapshot loads");
    assert_eq!(snap.meta, meta);
    assert_eq!(snap.index.live_len(), idx.live_len());
    assert_eq!(snap.index.generation(), idx.generation());
    let resaved = save(&snap.index, &snap.layout, &snap.meta);
    assert_eq!(a, resaved, "save(load(x)) must reproduce x byte for byte");
}

/// Any typed error is acceptable (header fields fail shape checks before
/// the checksum is even computed); silent success is not.
fn assert_typed(err: SnapshotError) {
    match err {
        SnapshotError::ChecksumMismatch { expected, actual } => assert_ne!(expected, actual),
        SnapshotError::BadMagic { .. }
        | SnapshotError::UnsupportedVersion { .. }
        | SnapshotError::Torn { .. }
        | SnapshotError::Truncated { .. }
        | SnapshotError::Malformed { .. } => {}
    }
}

#[test]
fn every_flipped_byte_is_a_typed_error() {
    let fixture = std::fs::read(fixture_path()).expect("committed fixture present");
    // Every single-bit flip is a typed error, or — should the bit carry
    // no information — loads a state that saves back to the fixture.
    for off in 0..fixture.len() {
        for bit in 0..8 {
            let mut corrupt = fixture.clone();
            flip_byte(&mut corrupt, off, 1 << bit);
            match load(&corrupt) {
                Err(err) => assert_typed(err),
                Ok(snap) => assert!(
                    save(&snap.index, &snap.layout, &snap.meta) == fixture,
                    "flipping bit {bit} of byte {off} loaded a different state"
                ),
            }
        }
    }
    // Every truncation is a typed error.
    for kept in 0..fixture.len() {
        let torn = torn_tail(&fixture, kept);
        assert_typed(load(&torn).expect_err("a truncated snapshot must not load"));
    }
}

/// Values written as a little-endian `u32` over every position of the
/// fixture: zero, small counts, and one wider than a byte.
const FORGED: [u32; 5] = [0, 1, 2, 7, 300];

#[test]
fn every_forged_field_is_a_typed_error_or_a_servable_index() {
    let fixture = std::fs::read(fixture_path()).expect("committed fixture present");
    // The checksum is recomputed after each write, so only the decoder's
    // validation stands between a forged field and the index.
    let body_end = fixture.len() - 8;
    let (mut served, mut rejected) = (0usize, 0usize);
    for off in 0..=body_end - 4 {
        for value in FORGED {
            let mut forged = fixture.clone();
            forged[off..off + 4].copy_from_slice(&value.to_le_bytes());
            let sum = fingerprint64(&forged[..body_end]);
            forged[body_end..].copy_from_slice(&sum.to_le_bytes());
            // Every error is typed; a load must serve both oracles alike.
            let Ok(snap) = load(&forged) else {
                rejected += 1;
                continue;
            };
            served += 1;
            let index = &snap.index;
            let q: Vec<f32> = (0..index.data().dim())
                .map(|i| i as f32 * 0.25 - 1.0)
                .collect();
            let exact = index.search_exact(&q, 5, 32);
            let engine = EtEngine::new(index.data(), snap.layout.et_config());
            let mut oracle = FreshEtOracle::new(&engine, index.conservative_flags(), &q)
                .expect("query matches the index");
            let mut scratch = SearchScratch::new(index.len());
            let et = index.search_with(&q, 5, 32, &mut oracle, &mut scratch);
            assert_eq!(
                et.ids(),
                exact.ids(),
                "{value} at byte {off}: ET and exact searches disagree"
            );
        }
    }
    // Both outcomes occur, so neither path is vacuous.
    assert!(
        served > 0 && rejected > 0,
        "{served} served, {rejected} rejected"
    );
}

#[test]
fn torn_write_is_recovered_from_the_fallback() {
    let (idx, layout, meta) = fixture_state();
    let blob = save(&idx, &layout, &meta);
    let torn = torn_tail(&blob, blob.len() / 3);
    assert!(matches!(
        load(&torn),
        Err(SnapshotError::Torn { .. } | SnapshotError::Truncated { .. })
    ));
    let (snap, used_fallback) =
        load_with_fallback(&torn, &blob).expect("fallback snapshot must recover");
    assert!(used_fallback);
    assert_eq!(snap.index.live_len(), idx.live_len());
}

#[test]
fn committed_v1_fixture_still_loads() {
    let bytes = std::fs::read(fixture_path())
        .expect("committed fixture present (regenerate with -- --ignored)");
    let snap = load(&bytes).expect("v1 fixture must keep loading");
    let (idx, layout, meta) = fixture_state();
    assert_eq!(snap.meta, meta);
    assert_eq!(snap.index.live_len(), idx.live_len());
    assert_eq!(snap.index.generation(), idx.generation());
    // The current encoder must still produce the committed bytes — any
    // format change requires a version bump, not a silent rewrite.
    assert_eq!(
        save(&idx, &layout, &meta),
        bytes,
        "snapshot format drifted without a version bump"
    );
    // And the restored index answers searches identically.
    let q: Vec<f32> = (0..8).map(|i| i as f32 * 0.25 - 1.0).collect();
    assert_eq!(
        snap.index.search_exact(&q, 5, 32).ids(),
        idx.search_exact(&q, 5, 32).ids()
    );
}

/// Writes the fixture; run explicitly after an intentional format bump.
#[test]
#[ignore = "regenerates the committed fixture"]
fn regenerate_fixture() {
    let (idx, layout, meta) = fixture_state();
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("create fixtures dir");
    std::fs::write(&path, save(&idx, &layout, &meta)).expect("write fixture");
}
