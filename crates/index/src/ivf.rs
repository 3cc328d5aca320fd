//! IVF (inverted-file) cluster index with Lloyd's k-means, the paper's
//! representative cluster-based index (§2.1, Fig. 1).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ansmet_vecdata::Dataset;

use crate::heap::Neighbor;
use crate::oracle::{DistanceOracle, DistanceOutcome};
use crate::trace::{Eval, Hop, HopKind, SearchTrace};

/// IVF construction parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct IvfParams {
    /// Number of clusters (inverted lists). Defaults to `√n` when zero.
    pub n_lists: usize,
    /// Lloyd iterations.
    pub iterations: usize,
    /// RNG seed for centroid initialization.
    pub seed: u64,
}

impl Default for IvfParams {
    fn default() -> Self {
        IvfParams {
            n_lists: 0,
            iterations: 12,
            seed: 7,
        }
    }
}

/// The built IVF index.
#[derive(Debug, Clone)]
pub struct Ivf {
    centroids: Vec<Vec<f32>>,
    lists: Vec<Vec<usize>>,
}

impl Ivf {
    /// Build the index over `data` with k-means clustering.
    ///
    /// Clustering always uses L2 geometry (as FAISS does); list scanning
    /// uses the dataset's search metric.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn build(data: &Dataset, params: IvfParams) -> Self {
        assert!(!data.is_empty(), "cannot build IVF over an empty dataset");
        let n = data.len();
        let k = if params.n_lists == 0 {
            ((n as f64).sqrt().ceil() as usize).clamp(1, n)
        } else {
            params.n_lists.min(n)
        };
        let dim = data.dim();
        let mut rng = SmallRng::seed_from_u64(params.seed);

        // Initialize centroids from distinct random vectors.
        let mut centroids: Vec<Vec<f32>> = Vec::with_capacity(k);
        let mut chosen = std::collections::HashSet::new();
        while centroids.len() < k {
            let i = rng.gen_range(0..n);
            if chosen.insert(i) {
                centroids.push(data.vector(i).to_vec());
            }
        }

        let mut assignment = vec![0usize; n];
        for _ in 0..params.iterations {
            // Assign.
            #[allow(clippy::needless_range_loop)]
            // indexed loops over shared state read clearer here
            for i in 0..n {
                let v = data.vector(i);
                let mut best = 0;
                let mut best_d = f32::INFINITY;
                for (c, centroid) in centroids.iter().enumerate() {
                    let d = ansmet_vecdata::metric::l2_squared(v, centroid);
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                assignment[i] = best;
            }
            // Update.
            let mut sums = vec![vec![0.0f64; dim]; k];
            let mut counts = vec![0usize; k];
            #[allow(clippy::needless_range_loop)]
            // indexed loops over shared state read clearer here
            for i in 0..n {
                let c = assignment[i];
                counts[c] += 1;
                for (s, v) in sums[c].iter_mut().zip(data.vector(i)) {
                    *s += *v as f64;
                }
            }
            for c in 0..k {
                if counts[c] == 0 {
                    // Re-seed empty cluster from a random vector.
                    let i = rng.gen_range(0..n);
                    centroids[c] = data.vector(i).to_vec();
                } else {
                    for (cd, s) in centroids[c].iter_mut().zip(&sums[c]) {
                        *cd = (*s / counts[c] as f64) as f32;
                    }
                }
            }
        }

        // Final assignment into lists.
        let mut lists = vec![Vec::new(); k];
        for i in 0..n {
            let v = data.vector(i);
            let mut best = 0;
            let mut best_d = f32::INFINITY;
            for (c, centroid) in centroids.iter().enumerate() {
                let d = ansmet_vecdata::metric::l2_squared(v, centroid);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            lists[best].push(i);
        }

        Ivf { centroids, lists }
    }

    /// Number of inverted lists.
    pub fn n_lists(&self) -> usize {
        self.lists.len()
    }

    /// Members of list `c`.
    pub fn list(&self, c: usize) -> &[usize] {
        &self.lists[c]
    }

    /// Search the `nprobe` closest lists for the `k` nearest neighbors.
    pub fn search<O: DistanceOracle>(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        oracle: &mut O,
    ) -> crate::hnsw::SearchResult {
        let mut scratch = crate::scratch::SearchScratch::new(0);
        self.search_inner(query, k, nprobe, oracle, None, &mut scratch)
    }

    /// Search while recording the comparison trace.
    pub fn search_traced<O: DistanceOracle>(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        oracle: &mut O,
    ) -> (crate::hnsw::SearchResult, SearchTrace) {
        let mut scratch = crate::scratch::SearchScratch::new(0);
        self.search_traced_with(query, k, nprobe, oracle, &mut scratch)
    }

    /// [`Ivf::search_traced`] reusing caller-provided scratch buffers.
    pub fn search_traced_with<O: DistanceOracle>(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        oracle: &mut O,
        scratch: &mut crate::scratch::SearchScratch,
    ) -> (crate::hnsw::SearchResult, SearchTrace) {
        let mut t = SearchTrace::new();
        let r = self.search_inner(query, k, nprobe, oracle, Some(&mut t), scratch);
        (r, t)
    }

    fn search_inner<O: DistanceOracle>(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        oracle: &mut O,
        mut trace: Option<&mut SearchTrace>,
        scratch: &mut crate::scratch::SearchScratch,
    ) -> crate::hnsw::SearchResult {
        assert!(k > 0, "k must be positive");
        let nprobe = nprobe.clamp(1, self.lists.len());

        // Rank centroids (host-side work; centroids are replicated/cached).
        let order = &mut scratch.order;
        order.clear();
        order.extend(
            self.centroids
                .iter()
                .enumerate()
                .map(|(c, centroid)| (ansmet_vecdata::metric::l2_squared(query, centroid), c)),
        );
        order.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        if let Some(t) = trace.as_deref_mut() {
            let mut hop = Hop::new(HopKind::Centroid);
            for &(d, c) in order.iter() {
                hop.evals.push(Eval {
                    id: c,
                    threshold: f32::INFINITY,
                    distance: d,
                    accepted: true,
                });
            }
            t.hops.push(hop);
        }

        let results = &mut scratch.results;
        results.reset(k);
        for &(_, c) in order.iter().take(nprobe) {
            let mut hop = Hop::new(HopKind::ListScan);
            for &id in &self.lists[c] {
                let threshold = results.threshold();
                let out = oracle.evaluate(id, query, threshold);
                let d = out.distance().unwrap_or(f32::INFINITY);
                let accepted = match out {
                    DistanceOutcome::Exact(d) => results.push(Neighbor::new(d, id)),
                    DistanceOutcome::Pruned => false,
                };
                hop.evals.push(Eval {
                    id,
                    threshold,
                    distance: d,
                    accepted,
                });
            }
            if let Some(t) = trace.as_deref_mut() {
                if !hop.evals.is_empty() {
                    t.hops.push(hop);
                }
            }
        }
        results.drain_sorted_into(&mut scratch.sorted);
        crate::hnsw::SearchResult::from_neighbors(scratch.sorted.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ExactOracle;
    use ansmet_vecdata::{brute_force_knn, recall_at_k, SynthSpec};

    #[test]
    fn all_vectors_assigned_exactly_once() {
        let (data, _) = SynthSpec::sift().scaled(300, 1).generate();
        let ivf = Ivf::build(&data, IvfParams::default());
        let total: usize = (0..ivf.n_lists()).map(|c| ivf.list(c).len()).sum();
        assert_eq!(total, data.len());
        let mut seen = vec![false; data.len()];
        for c in 0..ivf.n_lists() {
            for &id in ivf.list(c) {
                assert!(!seen[id], "vector {id} in two lists");
                seen[id] = true;
            }
        }
    }

    #[test]
    fn full_probe_equals_brute_force() {
        let (data, queries) = SynthSpec::deep().scaled(250, 4).generate();
        let ivf = Ivf::build(&data, IvfParams::default());
        let mut o = ExactOracle::new(&data);
        for q in &queries {
            let (truth, _) = brute_force_knn(&data, q, 5);
            let r = ivf.search(q, 5, ivf.n_lists(), &mut o);
            assert_eq!(r.ids(), truth);
        }
    }

    #[test]
    fn recall_reasonable_with_partial_probe() {
        let (data, queries) = SynthSpec::sift().scaled(1000, 8).generate();
        let ivf = Ivf::build(&data, IvfParams::default());
        let mut o = ExactOracle::new(&data);
        let mut total = 0.0;
        let nprobe = (ivf.n_lists() / 4).max(1);
        for q in &queries {
            let (truth, _) = brute_force_knn(&data, q, 10);
            let r = ivf.search(q, 10, nprobe, &mut o);
            total += recall_at_k(&r.ids(), &truth, 10);
        }
        assert!(total / queries.len() as f64 > 0.6);
    }

    #[test]
    fn trace_records_centroids_and_scans() {
        let (data, queries) = SynthSpec::sift().scaled(300, 1).generate();
        let ivf = Ivf::build(&data, IvfParams::default());
        let mut o = ExactOracle::new(&data);
        let (_, t) = ivf.search_traced(&queries[0], 5, 3, &mut o);
        assert_eq!(t.hops[0].kind, HopKind::Centroid);
        let scans = t
            .hops
            .iter()
            .filter(|h| h.kind == HopKind::ListScan)
            .count();
        assert!((1..=3).contains(&scans));
        // Scanned comparisons match the oracle count.
        let scanned: usize = t
            .hops
            .iter()
            .filter(|h| h.kind == HopKind::ListScan)
            .map(|h| h.evals.len())
            .sum();
        assert_eq!(scanned as u64, o.comparisons());
    }

    #[test]
    fn explicit_list_count_respected() {
        let (data, _) = SynthSpec::sift().scaled(200, 1).generate();
        let ivf = Ivf::build(
            &data,
            IvfParams {
                n_lists: 10,
                ..IvfParams::default()
            },
        );
        assert_eq!(ivf.n_lists(), 10);
    }
}
