//! Pins the distances one HNSW build computes. The counters are
//! process-wide, so this file holds a single test.
//!
//! The build is paper-replay's DEEP-like workload (3,000 vectors, seed 1,
//! `ef_construction` 120). Before construction reused the distances its
//! candidates and links carry, the same build computed 6,754,966, counted
//! the same way: 1,225,737 of them recomputed a candidate's distance to the
//! new node during selection, and 858,976 a link's distance during an
//! overflow shrink.

use ansmet_index::{construction_distances, hnsw_builds, Hnsw, HnswParams};
use ansmet_vecdata::SynthSpec;

#[test]
fn one_deep_build_computes_a_pinned_number_of_distances() {
    let (data, _) = SynthSpec::deep().scaled(3_000, 1).with_seed(1).generate();
    let params = HnswParams {
        ef_construction: 120,
        ..HnswParams::default()
    };
    let (b0, d0) = (hnsw_builds(), construction_distances());
    Hnsw::build(&data, params);
    assert_eq!(hnsw_builds() - b0, 1);
    assert_eq!(construction_distances() - d0, 4_670_253);
}
