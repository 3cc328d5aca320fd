//! Sampling-based preprocessing (§4.2, §7.3).
//!
//! A small sample of database vectors (100 by default) drives all offline
//! decisions: the threshold approximation (a percentile of the pairwise
//! distance distribution), the early-termination position distribution
//! (used for layout optimization and adaptive polling), and the KL
//! divergence diagnostics of Fig. 11.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use ansmet_vecdata::Dataset;

use crate::analysis::first_termination_position;

/// Parameters of the sampling pass.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingConfig {
    /// Number of sampled vectors (paper default: 100).
    pub n_samples: usize,
    /// Threshold percentile in the pairwise distance distribution.
    /// The paper empirically selects the boundary of the 10 % largest
    /// distances' complement — the 10 % percentile of §7.3's sweep.
    pub threshold_percentile: f64,
    /// RNG seed for sample selection.
    pub seed: u64,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig {
            n_samples: 100,
            threshold_percentile: 0.10,
            seed: 0xA17,
        }
    }
}

impl SamplingConfig {
    /// Override the sample count.
    pub fn with_samples(mut self, n: usize) -> Self {
        self.n_samples = n;
        self
    }

    /// Override the threshold percentile.
    pub fn with_percentile(mut self, p: f64) -> Self {
        self.threshold_percentile = p;
        self
    }
}

/// The output of the sampling pass.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingProfile {
    /// Sampled vector ids.
    pub sample_ids: Vec<usize>,
    /// Approximated early-termination threshold.
    pub threshold: f32,
    /// Distribution of first-termination prefix positions: entry `p`
    /// (0-based; position `p+1` bits) is the fraction of sampled pairs
    /// terminating exactly there.
    pub et_histogram: Vec<f64>,
    /// Fraction of pairs that never terminate under the threshold.
    pub never_frac: f64,
}

impl SamplingProfile {
    /// Run the sampling pass over `data`.
    ///
    /// # Panics
    ///
    /// Panics if the dataset has fewer than two vectors.
    pub fn build(data: &Dataset, cfg: &SamplingConfig) -> Self {
        assert!(data.len() >= 2, "need at least two vectors to sample");
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut ids: Vec<usize> = (0..data.len()).collect();
        ids.shuffle(&mut rng);
        ids.truncate(cfg.n_samples.max(2).min(data.len()));
        ids.sort_unstable();

        // Pairwise distance distribution.
        let mut dists = Vec::with_capacity(ids.len() * (ids.len() - 1) / 2);
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                dists.push(data.distance_to(a, data.vector(b)));
            }
        }
        dists.sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
        let threshold = percentile(&dists, cfg.threshold_percentile);

        // First-termination positions over sample pairs.
        let bits = data.dtype().bits() as usize;
        let mut hist = vec![0usize; bits];
        let mut never = 0usize;
        let mut pairs = 0usize;
        for &q in &ids {
            let query = data.vector(q);
            for &id in &ids {
                if id == q {
                    continue;
                }
                pairs += 1;
                match first_termination_position(data, id, query, threshold) {
                    Some(p) if p >= 1 => hist[(p as usize - 1).min(bits - 1)] += 1,
                    Some(_) => hist[0] += 1,
                    None => never += 1,
                }
            }
        }
        let total = pairs.max(1) as f64;
        SamplingProfile {
            sample_ids: ids,
            threshold,
            et_histogram: hist.into_iter().map(|c| c as f64 / total).collect(),
            never_frac: never as f64 / total,
        }
    }

    /// Mean first-termination position in bits (ignoring never-terminating
    /// pairs); `None` when nothing terminated.
    pub fn mean_termination_bits(&self) -> Option<f64> {
        let mass: f64 = self.et_histogram.iter().sum();
        if mass <= 0.0 {
            return None;
        }
        let weighted: f64 = self
            .et_histogram
            .iter()
            .enumerate()
            .map(|(i, &f)| (i + 1) as f64 * f)
            .sum();
        Some(weighted / mass)
    }
}

/// Value at `q` (0..=1) in a sorted slice (nearest-rank).
pub fn percentile(sorted: &[f32], q: f64) -> f32 {
    assert!(!sorted.is_empty(), "empty distribution");
    let q = q.clamp(0.0, 1.0);
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx]
}

/// Kullback–Leibler divergence `D(p ‖ q)` between two histograms
/// (normalized internally; zero-probability bins are smoothed).
pub fn kl_divergence(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "histogram length mismatch");
    const EPS: f64 = 1e-9;
    let sp: f64 = p.iter().sum::<f64>().max(EPS);
    let sq: f64 = q.iter().sum::<f64>().max(EPS);
    p.iter()
        .zip(q)
        .map(|(&pi, &qi)| {
            let pi = (pi / sp).max(EPS);
            let qi = (qi / sq).max(EPS);
            pi * (pi / qi).ln()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ansmet_vecdata::SynthSpec;

    #[test]
    fn percentile_basics() {
        let v = [1.0f32, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
    }

    #[test]
    fn kl_zero_for_identical() {
        let p = [0.25, 0.25, 0.5];
        assert!(kl_divergence(&p, &p).abs() < 1e-9);
    }

    #[test]
    fn kl_positive_for_different() {
        let p = [0.9, 0.1];
        let q = [0.1, 0.9];
        assert!(kl_divergence(&p, &q) > 0.5);
    }

    #[test]
    fn profile_shapes() {
        let (data, _) = SynthSpec::sift().scaled(200, 1).generate();
        let cfg = SamplingConfig::default().with_samples(20);
        let prof = SamplingProfile::build(&data, &cfg);
        assert_eq!(prof.sample_ids.len(), 20);
        assert_eq!(prof.et_histogram.len(), 8);
        let mass: f64 = prof.et_histogram.iter().sum::<f64>() + prof.never_frac;
        assert!((mass - 1.0).abs() < 1e-9, "mass {mass}");
        assert!(prof.threshold > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let (data, _) = SynthSpec::deep().scaled(150, 1).generate();
        let cfg = SamplingConfig::default().with_samples(15);
        let a = SamplingProfile::build(&data, &cfg);
        let b = SamplingProfile::build(&data, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn smaller_percentile_means_smaller_threshold() {
        let (data, _) = SynthSpec::sift().scaled(150, 1).generate();
        let lo = SamplingProfile::build(
            &data,
            &SamplingConfig::default()
                .with_samples(20)
                .with_percentile(0.05),
        );
        let hi = SamplingProfile::build(
            &data,
            &SamplingConfig::default()
                .with_samples(20)
                .with_percentile(0.5),
        );
        assert!(lo.threshold <= hi.threshold);
    }

    #[test]
    fn tighter_threshold_terminates_earlier() {
        let (data, _) = SynthSpec::sift().scaled(150, 1).generate();
        let lo = SamplingProfile::build(
            &data,
            &SamplingConfig::default()
                .with_samples(15)
                .with_percentile(0.05),
        );
        let hi = SamplingProfile::build(
            &data,
            &SamplingConfig::default()
                .with_samples(15)
                .with_percentile(0.9),
        );
        if let (Some(a), Some(b)) = (lo.mean_termination_bits(), hi.mean_termination_bits()) {
            assert!(a <= b + 1.0, "{a} vs {b}")
        }
    }
}
