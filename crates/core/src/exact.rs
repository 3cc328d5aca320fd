//! Early termination in *exact* search (§4.1: "our approach has no
//! accuracy loss, and can even be used in accurate search algorithms like
//! kmeans and kNN").
//!
//! Because the bound is a true lower bound, a brute-force k-NN scan or a
//! k-means assignment step can drop candidates the moment their bound
//! crosses the current best — returning exactly the exhaustive answer
//! while skipping most of the data.

use ansmet_index::{MaxDistHeap, Neighbor};

use crate::engine::EtEngine;

/// Result of an early-terminating exact scan.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactScan {
    /// Neighbor ids, closest first (identical to exhaustive search).
    pub ids: Vec<usize>,
    /// Matching distances.
    pub distances: Vec<f32>,
    /// 64 B lines fetched (including outlier backups).
    pub lines: u64,
    /// Lines an exhaustive full-fetch scan would have moved.
    pub baseline_lines: u64,
    /// Candidates early-terminated.
    pub pruned: u64,
}

impl ExactScan {
    /// Fraction of baseline traffic actually moved.
    pub fn traffic_fraction(&self) -> f64 {
        self.lines as f64 / self.baseline_lines.max(1) as f64
    }
}

/// Exact k-nearest-neighbor scan with early termination.
///
/// Returns the same ids and distances as
/// [`ansmet_vecdata::brute_force_knn`], in the same order.
///
/// # Panics
///
/// Panics if `k` is zero or if `query.len()` differs from the dataset
/// dimensionality.
pub fn et_knn(engine: &EtEngine<'_>, query: &[f32], k: usize) -> ExactScan {
    assert!(k > 0, "k must be positive");
    let data = engine.dataset();
    let k = k.min(data.len());
    let mut heap = MaxDistHeap::new(k);
    let mut et = engine
        .prepare(query)
        .expect("query length matches the dataset");
    let mut lines = 0u64;
    let mut pruned = 0u64;
    for id in 0..data.len() {
        let threshold = heap.threshold();
        let cost = et.evaluate(id, threshold);
        lines += cost.total_lines() as u64;
        if cost.pruned {
            pruned += 1;
            continue;
        }
        if let Some(d) = cost.effective_distance() {
            heap.push(Neighbor::new(d, id));
        }
    }
    let sorted = heap.into_sorted();
    ExactScan {
        ids: sorted.iter().map(|n| n.id).collect(),
        distances: sorted.iter().map(|n| n.dist).collect(),
        lines,
        baseline_lines: (data.len() * engine.full_lines()) as u64,
        pruned,
    }
}

/// Exact nearest-centroid assignment with early termination (the k-means
/// assignment step). `engine` must be built over the *centroid* dataset.
///
/// Returns `(centroid index, distance, scan stats)` — identical to an
/// exhaustive argmin.
pub fn et_assign(engine: &EtEngine<'_>, point: &[f32]) -> (usize, f32, ExactScan) {
    let scan = et_knn(engine, point, 1);
    (scan.ids[0], scan.distances[0], scan.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EtConfig;
    use crate::schedule::FetchSchedule;
    use ansmet_vecdata::{brute_force_knn, SynthSpec};

    #[test]
    fn et_knn_matches_brute_force_exactly() {
        for spec in [SynthSpec::sift(), SynthSpec::deep(), SynthSpec::glove()] {
            let (data, queries) = spec.scaled(400, 4).generate();
            let engine = EtEngine::new(
                &data,
                EtConfig::new(FetchSchedule::simple_heuristic(data.dtype())),
            );
            for q in &queries {
                let (truth_ids, truth_d) = brute_force_knn(&data, q, 10);
                let scan = et_knn(&engine, q, 10);
                assert_eq!(scan.ids, truth_ids, "dataset {}", data.name());
                for (a, b) in scan.distances.iter().zip(&truth_d) {
                    assert!((a - b).abs() <= b.abs() * 1e-5 + 1e-4);
                }
            }
        }
    }

    #[test]
    fn et_knn_saves_most_traffic() {
        let (data, queries) = SynthSpec::sift().scaled(800, 2).generate();
        let engine = EtEngine::new(
            &data,
            EtConfig::new(FetchSchedule::simple_heuristic(data.dtype())),
        );
        let scan = et_knn(&engine, &queries[0], 10);
        // In a full scan almost everything is far from the query: the
        // fetched fraction must drop well below 1.
        assert!(
            scan.traffic_fraction() < 0.8,
            "fraction {}",
            scan.traffic_fraction()
        );
        assert!(scan.pruned > data.len() as u64 / 2);
    }

    #[test]
    fn et_assign_matches_argmin() {
        let (data, queries) = SynthSpec::deep().scaled(64, 8).generate();
        let engine = EtEngine::new(
            &data,
            EtConfig::new(FetchSchedule::simple_heuristic(data.dtype())),
        );
        for q in &queries {
            let (truth, _) = brute_force_knn(&data, q, 1);
            let (idx, d, _) = et_assign(&engine, q);
            assert_eq!(idx, truth[0]);
            assert!((d - data.distance_to(idx, q)).abs() < 1e-4);
        }
    }

    #[test]
    fn k_clamped_to_dataset() {
        let (data, queries) = SynthSpec::sift().scaled(5, 1).generate();
        let engine = EtEngine::new(
            &data,
            EtConfig::new(FetchSchedule::simple_heuristic(data.dtype())),
        );
        let scan = et_knn(&engine, &queries[0], 100);
        assert_eq!(scan.ids.len(), 5);
    }
}
