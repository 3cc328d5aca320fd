//! Pins the graphs HNSW construction builds: an FNV-1a fingerprint of the
//! entry point, the per-node levels and every link list, over each dtype
//! and metric the synthetic datasets cover, plus one index that took
//! streamed inserts, deletes and a compaction.
//!
//! A change to construction that is meant to be bit-identical (reusing a
//! distance instead of recomputing it, reusing scratch buffers) must leave
//! every value here unchanged. The values were recorded before construction
//! began reusing distances.

use ansmet_freshness::MutableIndex;
use ansmet_index::{Hnsw, HnswParams};
use ansmet_vecdata::{Dataset, Metric, SynthSpec};
use proptest::prelude::*;

/// FNV-1a over the little-endian bytes of each word.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: usize) {
        for b in (w as u64).to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Fingerprint of `(entry, levels, every link list)`.
fn fingerprint(h: &Hnsw) -> u64 {
    let mut f = Fnv(0xcbf2_9ce4_8422_2325);
    f.word(h.entry_point());
    f.word(h.len());
    for &level in h.levels() {
        f.word(level);
    }
    f.word(h.layer_count());
    for layer in 0..h.layer_count() {
        for node in 0..h.len() {
            let links = h.neighbors(layer, node);
            f.word(links.len());
            for link in links {
                f.word(link.id());
            }
        }
    }
    f.0
}

fn built(spec: SynthSpec, n: usize, params: HnswParams) -> u64 {
    let (data, _) = spec.scaled(n, 1).generate();
    fingerprint(&Hnsw::build(&data, params))
}

#[test]
fn sift_u8_graph_is_pinned() {
    let fp = built(SynthSpec::sift(), 1_200, HnswParams::quick());
    assert_eq!(
        fp, 0x4b4f_76ff_d398_0a04,
        "SIFT-like graph changed: {fp:#x}"
    );
}

#[test]
fn deep_f32_graph_is_pinned() {
    // The parameters `Workload::prepare` uses for datasets of ≤ 5,000.
    let params = HnswParams {
        ef_construction: 120,
        ..HnswParams::default()
    };
    let fp = built(SynthSpec::deep(), 1_500, params);
    assert_eq!(
        fp, 0xd332_15b9_8e1d_f280,
        "DEEP-like graph changed: {fp:#x}"
    );
}

#[test]
fn gist_960_dim_graph_is_pinned() {
    let fp = built(SynthSpec::gist(), 400, HnswParams::quick());
    assert_eq!(
        fp, 0xe362_7fac_a132_c231,
        "GIST-like graph changed: {fp:#x}"
    );
}

#[test]
fn spacev_i8_graph_with_a_wider_base_layer_is_pinned() {
    // m < m_max0: upper layers shrink at 8 links, the base layer at 16.
    let params = HnswParams {
        m: 8,
        m_max0: 16,
        ef_construction: 40,
        ..HnswParams::default()
    };
    let fp = built(SynthSpec::spacev(), 1_000, params);
    assert_eq!(
        fp, 0xbda0_f688_6935_f390,
        "SPACEV-like graph changed: {fp:#x}"
    );
}

#[test]
fn glove_ip_graph_is_pinned() {
    let fp = built(SynthSpec::glove(), 1_000, HnswParams::quick());
    assert_eq!(
        fp, 0x4bc8_8958_5b2c_949d,
        "GloVe-like graph changed: {fp:#x}"
    );
}

#[test]
fn streamed_inserts_deletes_and_compaction_are_pinned() {
    let (full, _) = SynthSpec::sift().scaled(900, 1).generate();
    let prefix = |n: usize| {
        Dataset::from_values(
            full.name(),
            full.dtype(),
            full.metric(),
            full.dim(),
            (0..n).flat_map(|i| full.vector(i).to_vec()).collect(),
        )
    };
    let mut index = MutableIndex::build_hnsw(prefix(600), HnswParams::quick(), 0xF5E5);
    for i in 600..750 {
        index.insert(full.vector(i));
    }
    // Tombstone every seventh id, the entry point among them.
    let entry = index.hnsw().entry_point();
    for id in (0..750).step_by(7).chain([entry]) {
        index.delete(id);
    }
    index.compact();
    for i in 750..900 {
        index.insert(full.vector(i));
    }
    let fp = fingerprint(index.hnsw());
    assert_eq!(fp, 0xc3ce_bdb2_b0df_f6fc, "streamed graph changed: {fp:#x}");
}

proptest! {
    /// A stored link distance stands in for a recomputed one only because
    /// each kernel returns the same bits whichever way round it is called.
    /// Lengths 1..200 cover the kernels' 8-lane blocks and their tails.
    fn distances_are_symmetric_bit_for_bit(
        dim in 1usize..200,
        a in proptest::collection::vec(-1.0e3f32..1.0e3, 200),
        b in proptest::collection::vec(-1.0e3f32..1.0e3, 200),
    ) {
        let (a, b) = (&a[..dim], &b[..dim]);
        for metric in [Metric::L2, Metric::Ip, Metric::Cosine] {
            let ab = metric.distance(a, b);
            let ba = metric.distance(b, a);
            prop_assert_eq!(ab.to_bits(), ba.to_bits(), "{:?}", metric);
        }
    }
}
