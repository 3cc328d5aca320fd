//! Prepared workloads: dataset + queries + index + functional search
//! traces + ground truth + sampling profile, shared by every design's
//! timing replay.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use ansmet_core::{SamplingConfig, SamplingProfile};
use ansmet_index::{ExactOracle, Hnsw, HnswParams, Ivf, IvfParams, SearchTrace};
use ansmet_vecdata::{recall::mean_recall_at_k, Dataset, GroundTruth, SynthSpec};

/// Which index structure drives the traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Hierarchical Navigable Small Worlds (the paper's main index).
    Hnsw,
    /// Inverted-file clustering (Fig. 1).
    Ivf,
}

/// A fully-prepared benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Dataset name (Table 2).
    pub name: String,
    /// The database.
    pub data: Dataset,
    /// Query vectors.
    pub queries: Vec<Vec<f32>>,
    /// The HNSW index (present for [`IndexKind::Hnsw`] workloads).
    pub hnsw: Option<Hnsw>,
    /// The IVF index (present for [`IndexKind::Ivf`] workloads).
    pub ivf: Option<Ivf>,
    /// Result-set size k.
    pub k: usize,
    /// Beam width (efSearch / k′) or nprobe, tuned for ≥ 80 % recall
    /// unless given.
    pub ef: usize,
    /// Functional per-query traces (exact search; identical across
    /// designs by the losslessness of early termination).
    pub traces: Vec<SearchTrace>,
    /// Per-query approximate result ids.
    pub results: Vec<Vec<usize>>,
    /// Exact ground truth.
    pub ground_truth: GroundTruth,
    /// Achieved recall@k.
    pub recall: f64,
    /// Sampling-based preprocessing profile (§4.2).
    pub profile: SamplingProfile,
    /// Outlier budget for prefix elimination (paper default 0.1 %).
    pub outlier_frac: f64,
    /// Wall-clock seconds spent building the index.
    pub graph_build_secs: f64,
}

impl Workload {
    /// Generate, index (HNSW), trace, and profile a workload.
    ///
    /// When `ef` is `None`, the beam width is tuned upward until
    /// recall@k ≥ 80 % (as the paper does).
    pub fn prepare(spec: &SynthSpec, k: usize, ef: Option<usize>) -> Workload {
        Self::prepare_with_index(spec, k, ef, IndexKind::Hnsw)
    }

    /// Memoized [`Workload::prepare`]: preparation is deterministic in
    /// `(spec, k, ef, kind)` (seeded generation, deterministic index
    /// build, exact traces), so identical requests return the same
    /// shared workload instead of rebuilding the index and profile.
    /// Experiment drivers that never mutate the workload (everything
    /// except the Fig. 8 `retrace` sweep) go through here; at quick
    /// scale this removes the dominant share of suite wall-clock.
    pub fn prepare_shared(spec: &SynthSpec, k: usize, ef: Option<usize>) -> Arc<Workload> {
        Self::prepare_shared_with_index(spec, k, ef, IndexKind::Hnsw)
    }

    /// An owned, mutable workload cloned from the shared cache.
    ///
    /// For experiments that mutate their workload (the Fig. 8 `retrace`
    /// sweep, query-mix rewrites): preparation goes through the
    /// memoized cache, so a spec another experiment already built costs
    /// one clone instead of a full index + profile rebuild, and the
    /// clone is bit-identical to a fresh [`Workload::prepare`].
    pub fn prepare_owned(spec: &SynthSpec, k: usize, ef: Option<usize>) -> Workload {
        (*Self::prepare_shared(spec, k, ef)).clone()
    }

    /// Memoized [`Workload::prepare_with_index`].
    pub fn prepare_shared_with_index(
        spec: &SynthSpec,
        k: usize,
        ef: Option<usize>,
        kind: IndexKind,
    ) -> Arc<Workload> {
        static CACHE: OnceLock<Mutex<HashMap<String, Arc<Workload>>>> = OnceLock::new();
        let key = format!("{spec:?}|k={k}|ef={ef:?}|{kind:?}");
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        if let Some(wl) = cache.lock().expect("workload cache poisoned").get(&key) {
            return Arc::clone(wl);
        }
        // Build outside the lock: preparation is the expensive part, and
        // a duplicate concurrent build is deterministic anyway — last
        // insert wins, both Arcs describe identical workloads.
        let wl = Arc::new(Self::prepare_with_index(spec, k, ef, kind));
        cache
            .lock()
            .expect("workload cache poisoned")
            .insert(key, Arc::clone(&wl));
        wl
    }

    /// Generate, index, trace, and profile with a chosen index kind.
    pub fn prepare_with_index(
        spec: &SynthSpec,
        k: usize,
        ef: Option<usize>,
        kind: IndexKind,
    ) -> Workload {
        let (data, queries) = spec.generate();
        Self::build(data, queries, k, ef, kind)
    }

    /// Assemble a workload from an existing dataset and query list (no
    /// synthetic generation): build the HNSW index, compute ground
    /// truth, profile, and run the functional traced searches at the
    /// given beam width.
    ///
    /// This is the entry point for *derived* workloads whose data is a
    /// slice of a larger dataset — the sharded cluster plane
    /// (`ansmet-cluster`) gives every shard its own index, traces, and
    /// sampling profile over its partition through here. The beam width
    /// is taken as given (no recall-driven tuning loop), so a caller
    /// that reuses a tuned monolithic `ef` gets bit-identical traces
    /// for the single-shard case.
    pub fn from_parts(data: Dataset, queries: Vec<Vec<f32>>, k: usize, ef: usize) -> Workload {
        Self::build(data, queries, k, Some(ef), IndexKind::Hnsw)
    }

    /// Index `data`, compute ground truth and the sampling profile, then
    /// the traces. With `ef: None` the beam width doubles from
    /// `max(k, 10)` until recall@k reaches 80 %.
    ///
    /// When [`crate::parallel::default_threads`] is above 1, ground truth
    /// and the profile are computed on a second thread while this one
    /// builds the index; at 1 every step runs here, one after the other.
    /// Each step is deterministic and reads only `data` and `queries`, so
    /// both orders prepare the same workload.
    fn build(
        data: Dataset,
        queries: Vec<Vec<f32>>,
        k: usize,
        ef: Option<usize>,
        kind: IndexKind,
    ) -> Workload {
        let index = || {
            let t0 = std::time::Instant::now();
            let built = match kind {
                IndexKind::Hnsw => {
                    let params = if data.len() <= 5_000 {
                        HnswParams {
                            ef_construction: 120,
                            ..HnswParams::default()
                        }
                    } else {
                        HnswParams::default()
                    };
                    (Some(Hnsw::build(&data, params)), None)
                }
                IndexKind::Ivf => (None, Some(Ivf::build(&data, IvfParams::default()))),
            };
            (built, t0.elapsed().as_secs_f64())
        };
        let truth_and_profile = || {
            let n_samples = 100.min(data.len() / 2).max(2);
            (
                GroundTruth::compute(&data, &queries, k),
                SamplingProfile::build(&data, &SamplingConfig::default().with_samples(n_samples)),
            )
        };
        let (((hnsw, ivf), graph_build_secs), (ground_truth, profile)) =
            if crate::parallel::default_threads() > 1 {
                std::thread::scope(|s| {
                    let side = s.spawn(truth_and_profile);
                    let built = index();
                    let side = side.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
                    (built, side)
                })
            } else {
                (index(), truth_and_profile())
            };

        let mut wl = Workload {
            name: data.name().to_string(),
            data,
            queries,
            hnsw,
            ivf,
            k,
            ef: ef.unwrap_or(k.max(10)),
            traces: Vec::new(),
            results: Vec::new(),
            ground_truth,
            recall: 0.0,
            profile,
            outlier_frac: 0.001,
            graph_build_secs,
        };
        loop {
            wl.retrace(wl.ef);
            if ef.is_some() || wl.recall >= 0.80 || wl.ef >= wl.data.len() {
                break;
            }
            wl.ef *= 2;
        }
        wl
    }

    /// Re-run the functional searches with a new beam width / nprobe,
    /// refreshing traces, results, and recall (used for the Fig. 8
    /// recall-QPS sweep).
    pub fn retrace(&mut self, ef: usize) {
        self.ef = ef;
        let mut traces = Vec::with_capacity(self.queries.len());
        let mut results = Vec::with_capacity(self.queries.len());
        let mut oracle = ExactOracle::new(&self.data);
        let mut scratch = ansmet_index::SearchScratch::new(self.data.len());
        for q in &self.queries {
            let (r, t) = match (&self.hnsw, &self.ivf) {
                (Some(h), _) => h.search_traced_with(q, self.k, ef, &mut oracle, &mut scratch),
                (None, Some(i)) => {
                    let nprobe = ef.clamp(1, i.n_lists());
                    i.search_traced_with(q, self.k, nprobe, &mut oracle, &mut scratch)
                }
                (None, None) => unreachable!("workload always has an index"),
            };
            results.push(r.ids());
            traces.push(t);
        }
        self.recall = mean_recall_at_k(&results, &self.ground_truth.ids, self.k);
        self.traces = traces;
        self.results = results;
    }

    /// Ids of the paper's "hot vectors": nodes of the upper HNSW layers
    /// (replicated to every rank group in §5.3). Empty for IVF, whose
    /// centroids are not database vectors.
    pub fn hot_ids(&self) -> Vec<usize> {
        match &self.hnsw {
            Some(h) => h.nodes_at_or_above_layer(1),
            None => Vec::new(),
        }
    }

    /// Mean comparisons per query (the paper reports e.g. 617 vectors per
    /// query for HNSW-SIFT).
    pub fn mean_evals_per_query(&self) -> f64 {
        let total: usize = self.traces.iter().map(SearchTrace::total_evals).sum();
        total as f64 / self.traces.len().max(1) as f64
    }

    /// Mean rejection rate across queries (Fig. 1's "rejected" fraction).
    pub fn mean_rejection_rate(&self) -> f64 {
        let s: f64 = self.traces.iter().map(SearchTrace::rejection_rate).sum();
        s / self.traces.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_small_sift() {
        let wl = Workload::prepare(&SynthSpec::sift().scaled(600, 4), 10, None);
        assert_eq!(wl.queries.len(), 4);
        assert_eq!(wl.traces.len(), 4);
        assert!(wl.recall >= 0.8, "recall {}", wl.recall);
        assert!(wl.mean_evals_per_query() > 10.0);
        assert!(wl.mean_rejection_rate() > 0.1);
        assert!(wl.graph_build_secs > 0.0);
        assert!(!wl.hot_ids().is_empty());
    }

    #[test]
    fn fixed_ef_is_respected() {
        let wl = Workload::prepare(&SynthSpec::sift().scaled(300, 2), 5, Some(17));
        assert_eq!(wl.ef, 17);
    }

    #[test]
    fn ivf_workload_traces() {
        let wl = Workload::prepare_with_index(
            &SynthSpec::sift().scaled(400, 3),
            10,
            None,
            IndexKind::Ivf,
        );
        assert!(wl.ivf.is_some());
        assert!(wl.hnsw.is_none());
        assert!(wl.recall >= 0.8, "recall {}", wl.recall);
        assert!(wl.hot_ids().is_empty());
    }

    #[test]
    fn from_parts_matches_prepare_at_fixed_ef() {
        let spec = SynthSpec::sift().scaled(400, 3);
        let wl = Workload::prepare(&spec, 10, Some(40));
        let (data, queries) = spec.generate();
        let parts = Workload::from_parts(data, queries, 10, 40);
        assert_eq!(parts.results, wl.results);
        assert_eq!(parts.recall, wl.recall);
        assert_eq!(parts.traces.len(), wl.traces.len());
        assert_eq!(parts.ef, 40);
    }

    #[test]
    fn retrace_changes_ef_and_recall() {
        let mut wl = Workload::prepare(&SynthSpec::sift().scaled(500, 3), 10, Some(10));
        let r_small = wl.recall;
        wl.retrace(120);
        assert_eq!(wl.ef, 120);
        assert!(wl.recall >= r_small);
    }
}
