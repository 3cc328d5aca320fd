//! Mutable wrapper over the static HNSW index: streaming inserts,
//! tombstone deletes, and compaction.
//!
//! [`MutableIndex`] owns the dataset plus its HNSW graph and keeps the
//! *read path unchanged*: searches go through the same `search_with`
//! machinery as the static index, with any [`DistanceOracle`].
//! Mutations are layered around it:
//!
//! * **Insert** appends to the dataset ([`Dataset::push_vector`]) and
//!   incrementally extends the graph. Insertion draws its layer from the
//!   same exponential distribution as construction (a dedicated
//!   streaming RNG). Every insert draws exactly one level, so
//!   `(level_seed, inserts)` pins the stream position and snapshots
//!   restore it exactly.
//! * **Delete** sets a tombstone. The vector stays in the graph until
//!   the next compaction; reads over-fetch by the number of unpurged
//!   tombstones and filter, so results never contain dead ids and recall
//!   over the live set is unaffected.
//! * **Compact** (run by the epoch manager) unlinks tombstoned nodes.
//!
//! Every mutation bumps a generation counter; searches hand it to
//! [`SearchScratch::sync_generation`] so scratch buffers (in particular
//! the epoch-based visited set) stay valid across mutations without
//! reallocation.

use ansmet_index::{
    BuildScratch, DistanceOracle, ExactOracle, Hnsw, HnswParams, Neighbor, SearchResult,
    SearchScratch,
};
use ansmet_vecdata::Dataset;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A dataset plus its HNSW graph, mutable online.
///
/// All mutations are deterministic: the same construction and mutation
/// sequence produces a bit-identical graph, dataset, and level-RNG
/// position on every run.
#[derive(Debug, Clone)]
pub struct MutableIndex {
    pub(crate) data: Dataset,
    pub(crate) hnsw: Hnsw,
    /// `true` for deleted ids (dead from the reader's perspective).
    pub(crate) tombstones: Vec<bool>,
    /// `true` for tombstoned ids already removed from the index
    /// structure by a past compaction.
    pub(crate) purged: Vec<bool>,
    /// `true` for ids served conservatively (exact full fetch) because
    /// the ANSMET layout artifacts have not been re-validated for them
    /// yet — fresh inserts until the next epoch. See `revalidate`.
    pub(crate) conservative: Vec<bool>,
    /// Bumped on every mutation; drives scratch revalidation.
    pub(crate) generation: u64,
    /// Seed of the streaming level RNG (HNSW level assignment).
    pub(crate) level_seed: u64,
    /// Total inserts applied over the index lifetime — also the number
    /// of levels drawn from the streaming RNG.
    pub(crate) inserts: u64,
    /// Total deletes applied over the index lifetime.
    pub(crate) deletes: u64,
    /// Tombstoned ids total (purged or not).
    dead: usize,
    /// Tombstoned ids still physically present in the index.
    unpurged_dead: usize,
    rng: SmallRng,
    /// Construction buffers shared by inserts and compaction.
    build_scratch: BuildScratch,
}

impl MutableIndex {
    /// Build an HNSW index over `data` and wrap it. `level_seed` seeds
    /// the *streaming* level RNG (independent of the build seed, so a
    /// snapshot can replay it without replaying the build).
    ///
    /// # Panics
    ///
    /// Panics as [`Hnsw::build`] does: on an empty dataset, or on `params`
    /// that fail [`HnswParams::validate`].
    pub fn build_hnsw(data: Dataset, params: HnswParams, level_seed: u64) -> Self {
        let hnsw = Hnsw::build(&data, params);
        let fresh = vec![false; data.len()];
        Self::restore(
            data,
            hnsw,
            fresh.clone(),
            fresh.clone(),
            fresh,
            0,
            level_seed,
            0,
            0,
        )
    }

    /// Rebuild from snapshot parts, replaying the level RNG past the
    /// `inserts` levels already drawn so subsequent inserts draw the
    /// same levels the original index would have.
    ///
    /// # Panics
    ///
    /// Panics if the graph or any flag vector disagrees with the dataset
    /// on length.
    #[allow(clippy::too_many_arguments)] // snapshot-restore constructor: one arg per persisted field
    pub(crate) fn restore(
        data: Dataset,
        hnsw: Hnsw,
        tombstones: Vec<bool>,
        purged: Vec<bool>,
        conservative: Vec<bool>,
        generation: u64,
        level_seed: u64,
        inserts: u64,
        deletes: u64,
    ) -> Self {
        let n = data.len();
        assert_eq!(
            hnsw.len(),
            n,
            "index covers {} vectors, dataset has {n}",
            hnsw.len()
        );
        assert_eq!(tombstones.len(), n, "tombstone flags out of shape");
        assert_eq!(purged.len(), n, "purge flags out of shape");
        assert_eq!(conservative.len(), n, "conservative flags out of shape");
        let mut rng = SmallRng::seed_from_u64(level_seed);
        for _ in 0..inserts {
            let _ = hnsw.params().sample_level(&mut rng);
        }
        let dead = tombstones.iter().filter(|&&t| t).count();
        let unpurged_dead = tombstones
            .iter()
            .zip(&purged)
            .filter(|&(&t, &p)| t && !p)
            .count();
        MutableIndex {
            data,
            hnsw,
            tombstones,
            purged,
            conservative,
            generation,
            level_seed,
            inserts,
            deletes,
            dead,
            unpurged_dead,
            rng,
            build_scratch: BuildScratch::new(n),
        }
    }

    /// The underlying dataset (live and tombstoned vectors interleaved).
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// The HNSW graph.
    pub fn hnsw(&self) -> &Hnsw {
        &self.hnsw
    }

    /// Total vectors ever stored (live + tombstoned).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the index holds no vectors at all.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Vectors a search may return.
    pub fn live_len(&self) -> usize {
        self.data.len() - self.dead
    }

    /// Whether `id` is present and not deleted.
    pub fn is_live(&self, id: usize) -> bool {
        id < self.tombstones.len() && !self.tombstones[id]
    }

    /// Ascending ids of all live vectors.
    pub fn live_ids(&self) -> Vec<usize> {
        (0..self.tombstones.len())
            .filter(|&i| !self.tombstones[i])
            .collect()
    }

    /// Mutation generation (bumped by insert/delete/compact).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Tombstoned vectors still physically inside the index structure
    /// (the read-path over-fetch margin).
    pub fn pending_dead(&self) -> usize {
        self.unpurged_dead
    }

    /// Per-id conservative-serving flags (see [`crate::FreshEtOracle`]).
    pub fn conservative_flags(&self) -> &[bool] {
        &self.conservative
    }

    /// Ids currently served conservatively.
    pub fn conservative_count(&self) -> usize {
        self.conservative.iter().filter(|&&c| c).count()
    }

    /// Total inserts applied over the index lifetime.
    pub fn insert_count(&self) -> u64 {
        self.inserts
    }

    /// Insert one vector; returns its id.
    ///
    /// The vector is quantized through the dataset dtype, the graph is
    /// extended incrementally, and the new id starts *conservative*: the
    /// ANSMET layout artifacts (prefix tables, fetch plan) were chosen
    /// before it existed, so until the next epoch re-validates it, early
    /// termination serves it with an exact full fetch.
    ///
    /// # Panics
    ///
    /// Panics if `vector.len()` differs from the dataset dimension.
    pub fn insert(&mut self, vector: &[f32]) -> usize {
        let id = self.data.push_vector(vector);
        self.tombstones.push(false);
        self.purged.push(false);
        self.conservative.push(true);
        let level = self.hnsw.params().sample_level(&mut self.rng);
        let node = self
            .hnsw
            .insert_point(&self.data, level, &mut self.build_scratch);
        debug_assert_eq!(node, id, "index and dataset ids diverged");
        self.inserts += 1;
        self.generation += 1;
        id
    }

    /// Tombstone `id`. Returns `false` when the id is out of range or
    /// already dead. The vector stays in the index until the next
    /// [`MutableIndex::compact`]; reads filter it immediately.
    ///
    /// # Panics
    ///
    /// Panics when asked to delete the last live vector (a graph index
    /// cannot repair an entry point with no survivors).
    pub fn delete(&mut self, id: usize) -> bool {
        if id >= self.tombstones.len() || self.tombstones[id] {
            return false;
        }
        assert!(self.live_len() > 1, "cannot tombstone the last live vector");
        self.tombstones[id] = true;
        self.dead += 1;
        self.unpurged_dead += 1;
        self.deletes += 1;
        self.generation += 1;
        true
    }

    /// Structurally remove tombstoned vectors from the graph; returns how
    /// many were purged. Called by the epoch manager; safe to call at any
    /// time.
    pub fn compact(&mut self) -> usize {
        let mut purged = 0;
        if self.unpurged_dead > 0 {
            let alive: Vec<bool> = self.tombstones.iter().map(|&t| !t).collect();
            for id in 0..self.tombstones.len() {
                if self.tombstones[id] && !self.purged[id] {
                    self.hnsw
                        .unlink(&self.data, id, &alive, &mut self.build_scratch);
                    self.purged[id] = true;
                    purged += 1;
                }
            }
            self.unpurged_dead = 0;
        }
        self.generation += 1;
        purged
    }

    /// Search the live set: `k` nearest live vectors through `oracle`.
    ///
    /// The underlying graph search over-fetches by the number of
    /// unpurged tombstones, then dead ids are filtered and the result
    /// truncated back to `k` — so results never contain deleted vectors
    /// and, because the filtering is oracle-independent, ET-on and
    /// ET-off searches stay bit-identical on mutated indexes. `ef` is
    /// the beam width (raised to the over-fetched `k` when smaller).
    pub fn search_with<O: DistanceOracle>(
        &self,
        query: &[f32],
        k: usize,
        ef: usize,
        oracle: &mut O,
        scratch: &mut SearchScratch,
    ) -> SearchResult {
        scratch.sync_generation(self.generation, self.data.len());
        let k_eff = k + self.unpurged_dead;
        let raw = self
            .hnsw
            .search_with(query, k_eff, ef.max(k_eff), oracle, scratch);
        let kept: Vec<Neighbor> = raw
            .neighbors()
            .iter()
            .filter(|n| !self.tombstones[n.id])
            .take(k)
            .copied()
            .collect();
        SearchResult::from_neighbors(kept)
    }

    /// [`MutableIndex::search_with`] through an exact (full-fetch)
    /// oracle, allocating fresh scratch.
    pub fn search_exact(&self, query: &[f32], k: usize, ef: usize) -> SearchResult {
        let mut oracle = ExactOracle::new(&self.data);
        let mut scratch = SearchScratch::new(self.data.len());
        self.search_with(query, k, ef, &mut oracle, &mut scratch)
    }

    /// Exact k-nearest over the live set by brute force (ground truth
    /// for recall-under-churn measurements). Ties break toward the lower
    /// id, matching the index search order.
    pub fn live_ground_truth(&self, query: &[f32], k: usize) -> Vec<usize> {
        let mut all: Vec<(f32, usize)> = (0..self.tombstones.len())
            .filter(|&i| !self.tombstones[i])
            .map(|i| (self.data.distance_to(i, query), i))
            .collect();
        all.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("non-finite distance in ground truth")
                .then(a.1.cmp(&b.1))
        });
        all.truncate(k);
        all.into_iter().map(|(_, i)| i).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ansmet_vecdata::SynthSpec;

    fn sift(n: usize, q: usize) -> (Dataset, Vec<Vec<f32>>) {
        SynthSpec::sift().scaled(n, q).generate()
    }

    fn hnsw_index(n: usize) -> (MutableIndex, Vec<Vec<f32>>) {
        let (data, queries) = sift(n, 4);
        (
            MutableIndex::build_hnsw(data, HnswParams::quick(), 7),
            queries,
        )
    }

    #[test]
    fn inserts_are_immediately_searchable() {
        let (data, _) = sift(300, 1);
        let held_out: Vec<Vec<f32>> = (260..300).map(|i| data.vector(i).to_vec()).collect();
        let base = Dataset::from_values(
            "t",
            data.dtype(),
            data.metric(),
            data.dim(),
            (0..260).flat_map(|i| data.vector(i).to_vec()).collect(),
        );
        let mut idx = MutableIndex::build_hnsw(base, HnswParams::quick(), 7);
        for v in &held_out {
            let id = idx.insert(v);
            let got = idx.search_exact(v, 1, 40);
            assert_eq!(got.ids()[0], id, "freshly inserted vector not nearest");
        }
        assert_eq!(idx.len(), 300);
        assert_eq!(idx.insert_count(), 40);
        assert_eq!(idx.conservative_count(), 40, "inserts start conservative");
    }

    #[test]
    fn deletes_disappear_before_compaction() {
        let (mut idx, queries) = hnsw_index(300);
        let victims: Vec<usize> = idx.search_exact(&queries[0], 5, 40).ids();
        for &v in &victims {
            assert!(idx.delete(v));
            assert!(!idx.delete(v), "double delete must be a no-op");
        }
        assert_eq!(idx.pending_dead(), 5);
        let after = idx.search_exact(&queries[0], 5, 40);
        for n in after.neighbors() {
            assert!(
                !victims.contains(&n.id),
                "tombstoned id {} served to a reader",
                n.id
            );
        }
        assert_eq!(after.neighbors().len(), 5, "over-fetch must refill to k");
    }

    #[test]
    fn compaction_purges_and_results_match_prefiltered() {
        let (mut idx, queries) = hnsw_index(300);
        for id in [3, 50, 77, 120, 250] {
            idx.delete(id);
        }
        let before = idx.search_exact(&queries[1], 10, 60);
        assert_eq!(idx.compact(), 5);
        assert_eq!(idx.pending_dead(), 0);
        let after = idx.search_exact(&queries[1], 10, 60);
        // Same live corpus, same oracle: the top results should agree
        // (compaction may perturb deep graph paths, but the nearest
        // neighbor is found by both).
        assert_eq!(before.ids()[0], after.ids()[0]);
        // Idempotent: a second compact purges nothing.
        assert_eq!(idx.compact(), 0);
    }

    #[test]
    fn compaction_counts_only_newly_purged_ids() {
        let (mut idx, _) = hnsw_index(200);
        idx.delete(3);
        idx.delete(9);
        assert_eq!(idx.compact(), 2);
        idx.delete(40);
        assert!(!idx.delete(9), "a purged id stays dead");
        assert_eq!(idx.compact(), 1, "earlier purges are not counted again");
        assert_eq!(idx.live_len(), 197);
    }

    #[test]
    fn scratch_survives_mutations_without_reallocating() {
        // Satellite regression: searching across an insert with the same
        // scratch must revalidate via the generation counter, not
        // reallocate.
        let (data, queries) = sift(200, 1);
        let extra: Vec<f32> = data.vector(0).to_vec();
        let mut idx = MutableIndex::build_hnsw(data, HnswParams::quick(), 3);
        let mut scratch = SearchScratch::with_headroom(idx.len(), 64);
        let a = {
            let mut oracle = ExactOracle::new(idx.data());
            idx.search_with(&queries[0], 5, 40, &mut oracle, &mut scratch)
        };
        let g0 = idx.generation();
        idx.insert(&extra);
        idx.delete(7);
        assert!(idx.generation() > g0);
        let mut oracle = ExactOracle::new(idx.data());
        let b = idx.search_with(&queries[0], 5, 40, &mut oracle, &mut scratch);
        assert_eq!(
            scratch.reallocations(),
            0,
            "mutation within headroom must not move scratch buffers"
        );
        assert!(!a.ids().is_empty() && !b.ids().is_empty());
        assert!(!b.ids().contains(&7), "deleted id served after mutation");
    }

    #[test]
    fn restore_replays_the_level_stream() {
        let (data, _) = sift(120, 1);
        let extra: Vec<Vec<f32>> = (0..6).map(|i| data.vector(i).to_vec()).collect();
        let mut a = MutableIndex::build_hnsw(data.clone(), HnswParams::quick(), 11);
        for v in &extra[..3] {
            a.insert(v);
        }
        let mut b = MutableIndex::restore(
            a.data.clone(),
            a.hnsw.clone(),
            a.tombstones.clone(),
            a.purged.clone(),
            a.conservative.clone(),
            a.generation,
            a.level_seed,
            a.inserts,
            a.deletes,
        );
        for v in &extra[3..] {
            let ia = a.insert(v);
            let ib = b.insert(v);
            assert_eq!(ia, ib);
            assert_eq!(
                a.hnsw().level(ia),
                b.hnsw().level(ib),
                "restored RNG diverged from the original level stream"
            );
        }
    }

    #[test]
    #[should_panic(expected = "last live vector")]
    fn deleting_everything_is_rejected() {
        let (data, _) = sift(3, 1);
        let mut idx = MutableIndex::build_hnsw(data, HnswParams::quick(), 1);
        for id in 0..3 {
            idx.delete(id);
        }
    }
}
