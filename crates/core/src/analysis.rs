//! Bit-prefix profiling (Fig. 3): prefix entropy and early-termination
//! frequency as functions of prefix length.

use std::collections::HashMap;

use ansmet_vecdata::Dataset;

use crate::encode::to_sortable;
use crate::kernel::{dispatch, element, missing_mask, Bound, Elem};

/// Shannon entropy (bits) of the top-`p`-bit prefix patterns, pooled over
/// all elements of the sampled vectors, for every `p` in `1..=bits`.
///
/// Low entropy at small `p` is the paper's *low-entropy range* (shared
/// prefixes); the entropy rises as bits become diverse.
pub fn prefix_entropy_profile(data: &Dataset, sample_ids: &[usize]) -> Vec<f64> {
    let dtype = data.dtype();
    let bits = dtype.bits();
    let mut out = Vec::with_capacity(bits as usize);
    // Collect sortable encodings once.
    let sortables: Vec<u32> = sample_ids
        .iter()
        .flat_map(|&id| data.raw_vector(id).iter().map(|&r| to_sortable(dtype, r)))
        .collect();
    let total = sortables.len() as f64;
    for p in 1..=bits {
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for &s in &sortables {
            *counts.entry(s >> (bits - p)).or_insert(0) += 1;
        }
        let h: f64 = counts
            .values()
            .map(|&c| {
                let f = c as f64 / total;
                -f * f.log2()
            })
            .sum();
        out.push(h);
    }
    out
}

/// Normalized prefix entropy: each entry divided by its prefix length, so
/// the profile is comparable across lengths (bits of surprise per prefix
/// bit, in `[0, 1]`).
pub fn normalized_prefix_entropy_profile(data: &Dataset, sample_ids: &[usize]) -> Vec<f64> {
    prefix_entropy_profile(data, sample_ids)
        .into_iter()
        .enumerate()
        .map(|(i, h)| h / (i + 1) as f64)
        .collect()
}

/// The first prefix length at which the distance lower bound between
/// stored vector `id` and `query` reaches `threshold`, or `None` if even
/// full knowledge stays in-bound.
///
/// All dimensions use the same prefix length `p`, matching the paper's
/// uniform fetch pattern across dimensions. The bound is monotone in `p`,
/// so a binary search finds the position in `O(log bits)` bound
/// evaluations, each one pass of the engine's element kernel over the
/// stored vector.
pub fn first_termination_position(
    data: &Dataset,
    id: usize,
    query: &[f32],
    threshold: f32,
) -> Option<u32> {
    let raw = data.raw_vector(id);
    dispatch!(data.dtype(), data.metric(), E, M => {
        first_termination::<E, M>(raw, query, threshold)
    })
}

fn first_termination<E: Elem, M: Bound>(raw: &[u32], query: &[f32], threshold: f32) -> Option<u32> {
    let bound_at = |p: u32| -> f64 {
        let ones = missing_mask(E::BITS, p);
        raw.iter()
            .zip(query)
            .map(|(&r, &q)| element::<E, M>(E::sortable(r), ones, q))
            .sum()
    };
    if bound_at(E::BITS) < threshold as f64 {
        return None;
    }
    let (mut lo, mut hi) = (0u32, E::BITS); // bound_at(hi) >= threshold
    while lo < hi {
        let mid = (lo + hi) / 2;
        if bound_at(mid) >= threshold as f64 {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(hi)
}

/// Early-termination frequency per prefix length (Fig. 3): entry `p-1` is
/// the fraction of sampled (vector, query) pairs whose first termination
/// happens exactly at prefix length `p`. Pairs that never terminate under
/// `threshold` contribute to no bucket.
pub fn et_frequency_profile(
    data: &Dataset,
    sample_ids: &[usize],
    queries: &[Vec<f32>],
    threshold: f32,
) -> Vec<f64> {
    let bits = data.dtype().bits() as usize;
    let mut counts = vec![0usize; bits + 1];
    let mut pairs = 0usize;
    for q in queries {
        for &id in sample_ids {
            pairs += 1;
            if let Some(p) = first_termination_position(data, id, q, threshold) {
                counts[p as usize] += 1;
            }
        }
    }
    let total = pairs.max(1) as f64;
    (1..=bits).map(|p| counts[p] as f64 / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::DistanceBounder;
    use crate::interval::ValueInterval;
    use ansmet_vecdata::{ElemType, Metric, SynthSpec};

    #[test]
    fn entropy_zero_for_constant_data() {
        let data = Dataset::from_values("c", ElemType::U8, Metric::L2, 4, vec![70.0; 40]);
        let ids: Vec<usize> = (0..10).collect();
        let h = prefix_entropy_profile(&data, &ids);
        assert!(h.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn entropy_monotone_nondecreasing() {
        let (data, _) = SynthSpec::deep().scaled(100, 1).generate();
        let ids: Vec<usize> = (0..50).collect();
        let h = prefix_entropy_profile(&data, &ids);
        for w in h.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "{:?}", w);
        }
    }

    #[test]
    fn float_data_has_low_entropy_head() {
        // DEEP/GIST-like data: sign+exponent bits shared → the first few
        // prefix lengths have much lower entropy than the tail (Fig. 3).
        let (data, _) = SynthSpec::gist().scaled(120, 1).generate();
        let ids: Vec<usize> = (0..100).collect();
        let h = normalized_prefix_entropy_profile(&data, &ids);
        assert!(h[0] < 0.7, "sign bit should be skewed, got {}", h[0]);
        assert!(h[2] < h[14], "entropy should grow into the mantissa");
    }

    #[test]
    fn termination_position_monotone_in_threshold() {
        let (data, queries) = SynthSpec::sift().scaled(60, 2).generate();
        let q = &queries[0];
        let d = data.distance_to(5, q);
        if d <= 0.0 {
            return;
        }
        let tight = first_termination_position(&data, 5, q, d * 0.3);
        let loose = first_termination_position(&data, 5, q, d * 0.9);
        match (tight, loose) {
            (Some(a), Some(b)) => assert!(a <= b),
            (Some(_), None) => {}
            (None, Some(_)) => panic!("loose terminated but tight did not"),
            (None, None) => {}
        }
    }

    #[test]
    fn no_termination_above_true_distance() {
        let (data, queries) = SynthSpec::deep().scaled(50, 1).generate();
        let q = &queries[0];
        let d = data.distance_to(3, q);
        assert_eq!(first_termination_position(&data, 3, q, d * 1.5 + 1.0), None);
    }

    #[test]
    fn termination_position_bound_property() {
        // At the returned position the bound ≥ threshold and at position−1
        // it is < threshold (first-termination semantics).
        let (data, queries) = SynthSpec::spacev().scaled(50, 2).generate();
        let bounder = DistanceBounder::new(data.metric());
        let dtype = data.dtype();
        let bits = dtype.bits();
        for q in &queries {
            for id in 0..10 {
                let d = data.distance_to(id, q);
                let thr = d * 0.5;
                if let Some(p) = first_termination_position(&data, id, q, thr) {
                    let bound = |pl: u32| -> f64 {
                        data.raw_vector(id)
                            .iter()
                            .zip(q)
                            .map(|(&r, &qq)| {
                                let s = to_sortable(dtype, r);
                                let prefix = if pl == 0 { 0 } else { s >> (bits - pl) };
                                bounder
                                    .contribution(ValueInterval::from_prefix(dtype, prefix, pl), qq)
                            })
                            .sum()
                    };
                    assert!(bound(p) >= thr as f64);
                    if p > 0 {
                        assert!(bound(p - 1) < thr as f64);
                    }
                }
            }
        }
    }

    #[test]
    fn frequency_profile_sums_at_most_one() {
        let (data, queries) = SynthSpec::sift().scaled(40, 4).generate();
        let ids: Vec<usize> = (0..20).collect();
        // Use a mid-range threshold.
        let thr = data.distance_to(0, &queries[0]);
        let f = et_frequency_profile(&data, &ids, &queries, thr);
        let sum: f64 = f.iter().sum();
        assert!(sum <= 1.0 + 1e-9);
        assert_eq!(f.len(), 8);
    }
}
