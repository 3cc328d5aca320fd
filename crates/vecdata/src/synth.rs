//! Seeded synthetic dataset generators matching the Table 2 workloads.
//!
//! Each generator reproduces the properties early termination depends on:
//! the distance metric, element datatype, dimensionality, and the
//! bit-prefix entropy profile (clustered values whose high bits share
//! common prefixes, as observed for DEEP/GIST in Fig. 3 of the paper).
//!
//! Vectors are drawn from a Gaussian mixture: `n_clusters` centers, each
//! vector a center plus i.i.d. noise. Queries are perturbations of database
//! vectors, so every query has genuinely near neighbors (as in real ANNS
//! workloads).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;
use crate::dtype::ElemType;
use crate::metric::Metric;

/// Specification for one synthetic dataset.
#[derive(Debug, Clone)]
pub struct SynthSpec {
    /// Dataset name (matches the paper's Table 2 names).
    pub name: String,
    /// Element datatype.
    pub dtype: ElemType,
    /// Distance metric.
    pub metric: Metric,
    /// Dimensionality.
    pub dim: usize,
    /// Number of database vectors.
    pub n_vectors: usize,
    /// Number of query vectors.
    pub n_queries: usize,
    /// Number of Gaussian mixture clusters.
    pub n_clusters: usize,
    /// Cluster center spread (range of center coordinates).
    pub center_low: f32,
    /// Upper bound of center coordinates.
    pub center_high: f32,
    /// Standard deviation of per-vector noise, as a fraction of the center
    /// range.
    pub noise_frac: f32,
    /// RNG seed (generation is fully deterministic).
    pub seed: u64,
}

impl SynthSpec {
    /// SIFT-like: L2, UINT8, 128-dim (paper: 1 M vectors / 10 K queries).
    pub fn sift() -> Self {
        SynthSpec {
            name: "SIFT".into(),
            dtype: ElemType::U8,
            metric: Metric::L2,
            dim: 128,
            n_vectors: 20_000,
            n_queries: 100,
            n_clusters: 64,
            center_low: 0.0,
            center_high: 160.0,
            noise_frac: 0.15,
            seed: 0x51F7,
        }
    }

    /// BigANN-like: L2, UINT8, 128-dim (paper: 1 B vectors).
    pub fn bigann() -> Self {
        SynthSpec {
            name: "BigANN".into(),
            n_vectors: 24_000,
            seed: 0xB16A,
            n_clusters: 96,
            ..SynthSpec::sift()
        }
    }

    /// SPACEV-like: L2, INT8, 100-dim (paper: 1 B vectors / 1 K queries).
    pub fn spacev() -> Self {
        SynthSpec {
            name: "SPACEV".into(),
            dtype: ElemType::I8,
            metric: Metric::L2,
            dim: 100,
            n_vectors: 24_000,
            n_queries: 100,
            n_clusters: 80,
            // Positively skewed with bounded magnitude, as in the
            // original SPACEV embeddings: the shared sign/magnitude bits
            // give the 2-3 bit common prefix the paper's Table 5 exploits
            // (sortable encodings stay within 0b10xx_xxxx).
            center_low: 12.0,
            center_high: 26.0,
            noise_frac: 0.18,
            seed: 0x59AC,
        }
    }

    /// DEEP-like: L2, FP32, 96-dim, unit-normalized CNN descriptors
    /// (paper: 1 B vectors / 10 K queries).
    pub fn deep() -> Self {
        SynthSpec {
            name: "DEEP".into(),
            dtype: ElemType::F32,
            metric: Metric::L2,
            dim: 96,
            n_vectors: 20_000,
            n_queries: 100,
            n_clusters: 64,
            center_low: -0.25,
            center_high: 0.25,
            noise_frac: 0.1,
            seed: 0xDEE9,
        }
    }

    /// GloVe-like: IP, FP32, 100-dim word embeddings
    /// (paper: 1.2 M vectors / 1 K queries).
    pub fn glove() -> Self {
        SynthSpec {
            name: "GloVe".into(),
            dtype: ElemType::F32,
            metric: Metric::Ip,
            dim: 100,
            n_vectors: 20_000,
            n_queries: 100,
            n_clusters: 72,
            center_low: -2.0,
            center_high: 2.0,
            noise_frac: 0.15,
            seed: 0x6107E,
        }
    }

    /// Txt2Img-like: IP, FP32, 200-dim cross-modal embeddings
    /// (paper: 1 B vectors / 10 K queries).
    pub fn txt2img() -> Self {
        SynthSpec {
            name: "Txt2Img".into(),
            dtype: ElemType::F32,
            metric: Metric::Ip,
            dim: 200,
            n_vectors: 12_000,
            n_queries: 64,
            n_clusters: 48,
            center_low: -0.5,
            center_high: 0.5,
            noise_frac: 0.12,
            seed: 0x7272,
        }
    }

    /// GIST-like: L2, FP32, 960-dim global image descriptors in [0, 1]
    /// (paper: 1 M vectors / 1 K queries).
    pub fn gist() -> Self {
        SynthSpec {
            name: "GIST".into(),
            dtype: ElemType::F32,
            metric: Metric::L2,
            dim: 960,
            n_vectors: 6_000,
            n_queries: 40,
            n_clusters: 32,
            center_low: 0.02,
            center_high: 0.8,
            noise_frac: 0.08,
            seed: 0x6157,
        }
    }

    /// All seven Table 2 workloads, in the paper's order.
    pub fn all_paper_datasets() -> Vec<SynthSpec> {
        vec![
            SynthSpec::sift(),
            SynthSpec::bigann(),
            SynthSpec::spacev(),
            SynthSpec::deep(),
            SynthSpec::glove(),
            SynthSpec::txt2img(),
            SynthSpec::gist(),
        ]
    }

    /// Override the database/query sizes (for tests and quick runs).
    pub fn scaled(mut self, n_vectors: usize, n_queries: usize) -> Self {
        self.n_vectors = n_vectors;
        self.n_queries = n_queries;
        self.n_clusters = self.n_clusters.min(n_vectors.max(1));
        self
    }

    /// Override the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the element datatype (e.g. FP16/BF16 variants of the
    /// FP32 workloads — the NDP unit supports them natively, §5.1).
    pub fn with_dtype(mut self, dtype: ElemType) -> Self {
        self.dtype = dtype;
        self
    }

    /// Generate the database and query set.
    pub fn generate(&self) -> (Dataset, Vec<Vec<f32>>) {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let range = self.center_high - self.center_low;
        let sigma = range * self.noise_frac;

        // Cluster centers.
        let centers: Vec<Vec<f32>> = (0..self.n_clusters)
            .map(|_| {
                (0..self.dim)
                    .map(|_| rng.gen_range(self.center_low..self.center_high))
                    .collect()
            })
            .collect();

        // Database vectors.
        let mut values = Vec::with_capacity(self.n_vectors * self.dim);
        for i in 0..self.n_vectors {
            let c = &centers[i % self.n_clusters];
            #[allow(clippy::needless_range_loop)] // indexed dimension-range loops read clearer here
            for d in 0..self.dim {
                values.push(c[d] + gaussian(&mut rng) * sigma);
            }
        }
        let data =
            Dataset::from_values(self.name.clone(), self.dtype, self.metric, self.dim, values);

        // Queries: perturbed database vectors.
        let mut queries = Vec::with_capacity(self.n_queries);
        for _ in 0..self.n_queries {
            let base = rng.gen_range(0..self.n_vectors.max(1));
            let mut q: Vec<f32> = data
                .vector(base)
                .iter()
                .map(|&v| v + gaussian(&mut rng) * sigma * 0.5)
                .collect();
            self.metric.normalize_for_search(&mut q);
            queries.push(q);
        }
        (data, queries)
    }
}

/// Standard normal sample via Box–Muller.
fn gaussian<R: Rng>(rng: &mut R) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let (a, qa) = SynthSpec::sift().scaled(100, 5).generate();
        let (b, qb) = SynthSpec::sift().scaled(100, 5).generate();
        assert_eq!(a.vector(7), b.vector(7));
        assert_eq!(qa[3], qb[3]);
    }

    #[test]
    fn different_seeds_differ() {
        let (a, _) = SynthSpec::sift().scaled(100, 5).generate();
        let (b, _) = SynthSpec::sift().scaled(100, 5).with_seed(99).generate();
        assert_ne!(a.vector(0), b.vector(0));
    }

    #[test]
    fn shapes_match_spec() {
        for spec in SynthSpec::all_paper_datasets() {
            let s = spec.scaled(50, 4);
            let (d, q) = s.generate();
            assert_eq!(d.len(), 50, "{}", s.name);
            assert_eq!(q.len(), 4);
            assert_eq!(d.dim(), s.dim);
            assert_eq!(d.dtype(), s.dtype);
        }
    }

    #[test]
    fn u8_values_in_range() {
        let (d, _) = SynthSpec::sift().scaled(200, 1).generate();
        for v in d.iter().flatten() {
            assert!((0.0..=255.0).contains(v));
        }
    }

    #[test]
    fn i8_values_in_range() {
        let (d, _) = SynthSpec::spacev().scaled(200, 1).generate();
        for v in d.iter().flatten() {
            assert!((-128.0..=127.0).contains(v));
        }
    }

    #[test]
    fn queries_have_near_neighbors() {
        let (d, q) = SynthSpec::deep().scaled(500, 10).generate();
        // The query's nearest DB vector should be far closer than a random
        // pair, since queries perturb DB vectors.
        let m = d.metric();
        for query in &q {
            let min = (0..d.len())
                .map(|i| m.distance(d.vector(i), query))
                .fold(f32::INFINITY, f32::min);
            let random = m.distance(d.vector(0), d.vector(250));
            assert!(min <= random.abs() + 1e-3);
        }
    }

    #[test]
    fn clustered_structure_exists() {
        // Vectors in the same cluster (i, i + n_clusters) should be closer
        // on average than vectors in different clusters.
        let spec = SynthSpec::deep().scaled(512, 1);
        let (d, _) = spec.generate();
        let k = spec.n_clusters;
        let same = Metric::L2.distance(d.vector(0), d.vector(k));
        let diff = Metric::L2.distance(d.vector(0), d.vector(1));
        assert!(same < diff);
    }
}
