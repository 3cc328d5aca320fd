//! Distance metrics (§2.1 of the paper).
//!
//! All metrics are expressed so that **smaller is closer**:
//!
//! * [`Metric::L2`] — squared Euclidean distance (the square root is
//!   monotone and omitted, as in FAISS).
//! * [`Metric::Ip`] — negated inner product, `−Σ aᵢbᵢ`.
//! * [`Metric::Cosine`] — negated cosine similarity. The paper normalizes
//!   vectors during preprocessing, after which cosine equals [`Metric::Ip`];
//!   [`Metric::normalize_for_search`] performs that preprocessing.

/// Similarity metric, ordered so that smaller distances are closer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Squared Euclidean (L2²) distance.
    L2,
    /// Negated inner product.
    Ip,
    /// Negated cosine similarity.
    Cosine,
}

impl Metric {
    /// Distance between two vectors.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths (debug builds).
    pub fn distance(self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
        match self {
            Metric::L2 => l2_squared(a, b),
            Metric::Ip => -dot(a, b),
            Metric::Cosine => {
                // Single fused pass: dot, |a|² and |b|² together. Datasets
                // normalize during preprocessing (`searched_as` folds cosine
                // to IP), so this path only runs on raw, un-normalized input.
                let (ab, aa, bb) = dot_and_norms(a, b);
                let na = aa.sqrt();
                let nb = bb.sqrt();
                if na == 0.0 || nb == 0.0 {
                    0.0
                } else {
                    -ab / (na * nb)
                }
            }
        }
    }

    /// The metric actually used at search time after preprocessing:
    /// cosine becomes inner product on normalized vectors.
    pub fn searched_as(self) -> Metric {
        match self {
            Metric::Cosine => Metric::Ip,
            m => m,
        }
    }

    /// Preprocess a vector for search under this metric (normalizes for
    /// cosine; identity otherwise).
    pub fn normalize_for_search(self, v: &mut [f32]) {
        if self == Metric::Cosine {
            let n = dot(v, v).sqrt();
            if n > 0.0 {
                for x in v.iter_mut() {
                    *x /= n;
                }
            }
        }
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Metric::L2 => "L2",
            Metric::Ip => "IP",
            Metric::Cosine => "COS",
        };
        f.write_str(s)
    }
}

/// Squared Euclidean distance.
///
/// Blocked 8-wide loop with four independent accumulators so the compiler
/// can keep several FMA chains in flight (auto-vectorizes without a serial
/// reduction dependency).
pub fn l2_squared(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut acc = [0.0f32; 4];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for j in 0..4 {
            let d0 = xa[2 * j] - xb[2 * j];
            let d1 = xa[2 * j + 1] - xb[2 * j + 1];
            acc[j] += d0 * d0 + d1 * d1;
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x - y;
        tail += d * d;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Dot product (same blocked accumulation scheme as [`l2_squared`]).
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut acc = [0.0f32; 4];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for j in 0..4 {
            acc[j] += xa[2 * j] * xb[2 * j] + xa[2 * j + 1] * xb[2 * j + 1];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Fused `(a·b, a·a, b·b)` in one pass over the inputs — the cosine path
/// needs all three, and separate `dot` calls would stream both vectors
/// through the cache three times.
fn dot_and_norms(a: &[f32], b: &[f32]) -> (f32, f32, f32) {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut ab = [0.0f32; 4];
    let mut aa = [0.0f32; 4];
    let mut bb = [0.0f32; 4];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for j in 0..4 {
            let (a0, a1) = (xa[2 * j], xa[2 * j + 1]);
            let (b0, b1) = (xb[2 * j], xb[2 * j + 1]);
            ab[j] += a0 * b0 + a1 * b1;
            aa[j] += a0 * a0 + a1 * a1;
            bb[j] += b0 * b0 + b1 * b1;
        }
    }
    let (mut tab, mut taa, mut tbb) = (0.0f32, 0.0f32, 0.0f32);
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tab += x * y;
        taa += x * x;
        tbb += y * y;
    }
    (
        (ab[0] + ab[1]) + (ab[2] + ab[3]) + tab,
        (aa[0] + aa[1]) + (aa[2] + aa[3]) + taa,
        (bb[0] + bb[1]) + (bb[2] + bb[3]) + tbb,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn l2_of_identical_is_zero() {
        let v = [1.0, -2.0, 3.5];
        assert_eq!(Metric::L2.distance(&v, &v), 0.0);
    }

    #[test]
    fn l2_known_value() {
        // Paper §4: distance between (1,2,6,-1)... simplest check:
        // d²((1,2),(4,-2)) = 9 + 16 = 25.
        assert_eq!(Metric::L2.distance(&[1.0, 2.0], &[4.0, -2.0]), 25.0);
    }

    #[test]
    fn ip_smaller_is_closer() {
        let q = [1.0, 1.0];
        let near = [5.0, 5.0];
        let far = [0.1, 0.1];
        assert!(Metric::Ip.distance(&q, &near) < Metric::Ip.distance(&q, &far));
    }

    #[test]
    fn cosine_equals_ip_after_normalization() {
        let mut a = vec![3.0, 4.0];
        let mut b = vec![5.0, 12.0];
        let cos = Metric::Cosine.distance(&a, &b);
        Metric::Cosine.normalize_for_search(&mut a);
        Metric::Cosine.normalize_for_search(&mut b);
        let ip = Metric::Ip.distance(&a, &b);
        assert!((cos - ip).abs() < 1e-6);
    }

    #[test]
    fn cosine_self_is_minus_one() {
        let v = [0.6, 0.8];
        assert!((Metric::Cosine.distance(&v, &v) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn searched_as_folds_cosine() {
        assert_eq!(Metric::Cosine.searched_as(), Metric::Ip);
        assert_eq!(Metric::L2.searched_as(), Metric::L2);
        assert_eq!(Metric::Ip.searched_as(), Metric::Ip);
    }

    proptest! {
        #[test]
        fn l2_symmetry(a in proptest::collection::vec(-100.0f32..100.0, 8),
                       b in proptest::collection::vec(-100.0f32..100.0, 8)) {
            prop_assert_eq!(Metric::L2.distance(&a, &b), Metric::L2.distance(&b, &a));
        }

        #[test]
        fn l2_nonnegative(a in proptest::collection::vec(-100.0f32..100.0, 8),
                          b in proptest::collection::vec(-100.0f32..100.0, 8)) {
            prop_assert!(Metric::L2.distance(&a, &b) >= 0.0);
        }

        #[test]
        fn cosine_bounded(a in proptest::collection::vec(-100.0f32..100.0, 8),
                          b in proptest::collection::vec(-100.0f32..100.0, 8)) {
            let d = Metric::Cosine.distance(&a, &b);
            prop_assert!((-1.0001..=1.0001).contains(&d));
        }
    }
}
