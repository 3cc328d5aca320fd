//! Dataset container: canonical values plus raw storage bit patterns.

use crate::dtype::ElemType;
use crate::metric::Metric;

/// An in-memory vector dataset.
///
/// Stores each element twice: the canonical `f32` value (for distance
/// computation) and the raw storage bit pattern of the declared
/// [`ElemType`] (for bit-level early termination). The two are kept
/// consistent by construction: values are always `dtype.decode(raw)`.
#[derive(Debug, Clone)]
pub struct Dataset {
    name: String,
    dtype: ElemType,
    metric: Metric,
    dim: usize,
    values: Vec<f32>,
    raw: Vec<u32>,
}

impl Dataset {
    /// Build a dataset from canonical values, quantizing each element to
    /// `dtype`. For [`Metric::Cosine`] the vectors are normalized first
    /// (the paper's preprocessing) and the search metric becomes IP.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` is not a multiple of `dim`.
    pub fn from_values(
        name: impl Into<String>,
        dtype: ElemType,
        metric: Metric,
        dim: usize,
        mut values: Vec<f32>,
    ) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(
            values.len().is_multiple_of(dim),
            "value count {} is not a multiple of dim {}",
            values.len(),
            dim
        );
        if metric == Metric::Cosine {
            for chunk in values.chunks_mut(dim) {
                metric.normalize_for_search(chunk);
            }
        }
        let raw: Vec<u32> = values.iter().map(|&v| dtype.encode(v)).collect();
        // Re-decode so values match storage precision exactly.
        let values: Vec<f32> = raw.iter().map(|&r| dtype.decode(r)).collect();
        // Search under folded cosine (= IP) is only correct on unit
        // vectors; verify the normalization survived storage quantization.
        // F32 round-trips exactly, so the tolerance there is tight; other
        // dtypes are checked loosely (quantization perturbs the norm).
        #[cfg(debug_assertions)]
        if metric == Metric::Cosine {
            let tol = if dtype == ElemType::F32 { 1e-4 } else { 0.12 };
            for (i, chunk) in values.chunks(dim).enumerate() {
                let n2: f32 = crate::metric::dot(chunk, chunk);
                debug_assert!(
                    n2 == 0.0 || (n2 - 1.0).abs() < tol,
                    "cosine preprocessing left vector {i} with norm² {n2}"
                );
            }
        }
        Dataset {
            name: name.into(),
            dtype,
            metric: metric.searched_as(),
            dim,
            values,
            raw,
        }
    }

    /// Reconstruct a dataset from raw storage words (snapshot restore).
    ///
    /// Values are re-derived as `dtype.decode(raw)`, so the result is
    /// bit-identical to the dataset the words were taken from — no
    /// re-quantization round trip. `metric` must already be the *search*
    /// metric (cosine is folded to IP before a dataset ever reaches a
    /// snapshot), so no normalization is applied either.
    ///
    /// # Panics
    ///
    /// Panics if `raw.len()` is not a multiple of `dim`, or if `metric`
    /// is not in folded search form.
    pub fn from_raw(
        name: impl Into<String>,
        dtype: ElemType,
        metric: Metric,
        dim: usize,
        raw: Vec<u32>,
    ) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(
            raw.len().is_multiple_of(dim),
            "raw word count {} is not a multiple of dim {}",
            raw.len(),
            dim
        );
        assert_eq!(
            metric,
            metric.searched_as(),
            "from_raw expects the folded search metric"
        );
        let values: Vec<f32> = raw.iter().map(|&r| dtype.decode(r)).collect();
        Dataset {
            name: name.into(),
            dtype,
            metric,
            dim,
            values,
            raw,
        }
    }

    /// Dataset name (e.g. "SIFT").
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Element datatype.
    #[inline]
    pub fn dtype(&self) -> ElemType {
        self.dtype
    }

    /// Search-time distance metric (cosine is already folded to IP).
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Vector dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of vectors.
    pub fn len(&self) -> usize {
        self.values.len() / self.dim
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Canonical values of vector `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn vector(&self, i: usize) -> &[f32] {
        &self.values[i * self.dim..(i + 1) * self.dim]
    }

    /// Raw storage bit patterns of vector `i` (one LSB-aligned `u32` per
    /// element).
    #[inline]
    pub fn raw_vector(&self, i: usize) -> &[u32] {
        &self.raw[i * self.dim..(i + 1) * self.dim]
    }

    /// Size in bytes of one stored vector (natural, untransformed layout).
    pub fn vector_bytes(&self) -> usize {
        self.dim * self.dtype.bytes()
    }

    /// Number of 64 B lines one vector occupies in the natural layout.
    pub fn vector_lines(&self) -> usize {
        self.vector_bytes().div_ceil(64)
    }

    /// Iterate over vectors as value slices.
    pub fn iter(&self) -> impl Iterator<Item = &[f32]> + '_ {
        self.values.chunks(self.dim)
    }

    /// Distance between stored vector `i` and `query`.
    #[inline]
    pub fn distance_to(&self, i: usize, query: &[f32]) -> f32 {
        self.metric.distance(self.vector(i), query)
    }

    /// Append one vector (streaming ingest), quantizing through the
    /// dataset's dtype so values/raw stay consistent. Returns the new id.
    ///
    /// The metric is already the *search* metric (cosine was folded to IP
    /// at construction), so callers streaming into a cosine dataset must
    /// normalize before pushing — [`Metric::normalize_for_search`] under
    /// [`Metric::Ip`] does exactly that.
    ///
    /// # Panics
    ///
    /// Panics if `vector.len() != dim`.
    pub fn push_vector(&mut self, vector: &[f32]) -> usize {
        assert_eq!(
            vector.len(),
            self.dim,
            "pushed vector has dim {}, dataset is {}-dimensional",
            vector.len(),
            self.dim
        );
        let id = self.len();
        for &v in vector {
            let r = self.dtype.encode(v);
            self.raw.push(r);
            self.values.push(self.dtype.decode(r));
        }
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        Dataset::from_values(
            "t",
            ElemType::U8,
            Metric::L2,
            2,
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        )
    }

    #[test]
    fn shape_accessors() {
        let d = small();
        assert_eq!(d.len(), 3);
        assert_eq!(d.dim(), 2);
        assert!(!d.is_empty());
        assert_eq!(d.vector(1), &[3.0, 4.0]);
        assert_eq!(d.raw_vector(2), &[5, 6]);
        assert_eq!(d.vector_bytes(), 2);
        assert_eq!(d.vector_lines(), 1);
    }

    #[test]
    fn quantization_applied() {
        let d = Dataset::from_values("q", ElemType::U8, Metric::L2, 1, vec![2.7, 300.0]);
        assert_eq!(d.vector(0), &[3.0]);
        assert_eq!(d.vector(1), &[255.0]);
    }

    #[test]
    fn cosine_folds_to_ip_with_normalization() {
        let d = Dataset::from_values(
            "c",
            ElemType::F32,
            Metric::Cosine,
            2,
            vec![3.0, 4.0, 6.0, 8.0],
        );
        assert_eq!(d.metric(), Metric::Ip);
        // Both normalized to (0.6, 0.8).
        assert!((d.vector(0)[0] - 0.6).abs() < 1e-6);
        assert!((d.vector(1)[1] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn values_match_raw_decoding() {
        let d = Dataset::from_values(
            "f16",
            ElemType::F16,
            Metric::L2,
            2,
            vec![0.1, 0.2, 0.3, 0.4],
        );
        for i in 0..d.len() {
            for (v, r) in d.vector(i).iter().zip(d.raw_vector(i)) {
                assert_eq!(*v, ElemType::F16.decode(*r));
            }
        }
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn bad_shape_panics() {
        Dataset::from_values("bad", ElemType::U8, Metric::L2, 3, vec![1.0; 4]);
    }

    #[test]
    fn push_vector_quantizes_like_construction() {
        let mut d = small();
        let id = d.push_vector(&[7.4, 300.0]);
        assert_eq!(id, 3);
        assert_eq!(d.len(), 4);
        // Same U8 quantization as from_values: round + clamp.
        assert_eq!(d.vector(3), &[7.0, 255.0]);
        assert_eq!(d.raw_vector(3), &[7, 255]);
        // Pushing the same values as a fresh build yields identical bytes.
        let rebuilt = Dataset::from_values(
            "t",
            ElemType::U8,
            Metric::L2,
            2,
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.4, 300.0],
        );
        for i in 0..4 {
            assert_eq!(d.raw_vector(i), rebuilt.raw_vector(i));
        }
    }

    #[test]
    #[should_panic(expected = "dataset is 2-dimensional")]
    fn push_vector_wrong_dim_panics() {
        small().push_vector(&[1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_raw_round_trips_exactly() {
        let d = Dataset::from_values(
            "rt",
            ElemType::F16,
            Metric::Cosine,
            2,
            vec![0.1, 0.2, 0.3, 0.4],
        );
        let raw: Vec<u32> = (0..d.len())
            .flat_map(|i| d.raw_vector(i).to_vec())
            .collect();
        let r = Dataset::from_raw("rt", d.dtype(), d.metric(), d.dim(), raw);
        assert_eq!(r.metric(), Metric::Ip, "folded metric preserved");
        for i in 0..d.len() {
            assert_eq!(d.raw_vector(i), r.raw_vector(i));
            assert_eq!(d.vector(i), r.vector(i));
        }
    }

    #[test]
    #[should_panic(expected = "folded search metric")]
    fn from_raw_rejects_unfolded_cosine() {
        Dataset::from_raw("bad", ElemType::F32, Metric::Cosine, 2, vec![0, 0]);
    }

    #[test]
    fn gist_like_vector_lines() {
        let d = Dataset::from_values("g", ElemType::F32, Metric::L2, 960, vec![0.0; 960]);
        // 960 × 4 B = 3840 B = 60 lines.
        assert_eq!(d.vector_lines(), 60);
    }
}
