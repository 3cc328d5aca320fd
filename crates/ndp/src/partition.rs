//! Hybrid vertical/horizontal vector-data partitioning across ranks
//! (§5.3), plus hot-vector replication and load tracking.
//!
//! Hybrid partitioning first splits each vector by dimensions into
//! sub-vectors of at most `S` bytes assigned to the ranks of one *rank
//! group* (vertical), then distributes different vectors across rank
//! groups (horizontal). `Vertical` spreads one vector over all ranks;
//! `Horizontal` keeps each vector whole in a single rank. The paper finds
//! `S = 1 kB` optimal for ANSMET because early termination prefers longer
//! local sub-vectors (Fig. 12).

use std::collections::HashSet;

/// How vector data is spread across ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionScheme {
    /// Split every vector's dimensions over all ranks.
    Vertical,
    /// Each vector whole in one rank; vectors striped across ranks.
    Horizontal,
    /// Sub-vectors of at most `subvec_bytes` within a rank group;
    /// vectors striped across groups.
    Hybrid {
        /// Maximum sub-vector size in bytes (paper default 1024).
        subvec_bytes: usize,
    },
}

/// Where one sub-vector of a vector lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Global rank index.
    pub rank: usize,
    /// Dimension range held by that rank.
    pub dims: std::ops::Range<usize>,
}

/// Deterministic partitioner for one dataset geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioner {
    scheme: PartitionScheme,
    n_ranks: usize,
    dim: usize,
    dims_per_sub: usize,
    subvecs: usize,
    group_size: usize,
    groups: usize,
}

impl Partitioner {
    /// Build a partitioner for `n_ranks` ranks and vectors of `dim`
    /// elements of `elem_bytes` bytes each.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn new(scheme: PartitionScheme, n_ranks: usize, dim: usize, elem_bytes: usize) -> Self {
        assert!(
            n_ranks > 0 && dim > 0 && elem_bytes > 0,
            "degenerate geometry"
        );
        let (dims_per_sub, subvecs) = match scheme {
            PartitionScheme::Vertical => {
                let dps = dim.div_ceil(n_ranks).max(1);
                (dps, dim.div_ceil(dps))
            }
            PartitionScheme::Horizontal => (dim, 1),
            PartitionScheme::Hybrid { subvec_bytes } => {
                assert!(
                    subvec_bytes >= elem_bytes,
                    "sub-vector smaller than one element"
                );
                let dps = (subvec_bytes / elem_bytes).max(1).min(dim);
                (dps, dim.div_ceil(dps))
            }
        };
        let group_size = subvecs.min(n_ranks);
        let groups = (n_ranks / group_size).max(1);
        Partitioner {
            scheme,
            n_ranks,
            dim,
            dims_per_sub,
            subvecs,
            group_size,
            groups,
        }
    }

    /// The configured scheme.
    pub fn scheme(&self) -> PartitionScheme {
        self.scheme
    }

    /// Sub-vectors per vector.
    pub fn subvectors_per_vector(&self) -> usize {
        self.subvecs
    }

    /// Dimensions in each sub-vector (the last sub-vector may be smaller).
    pub fn dims_per_subvector(&self) -> usize {
        self.dims_per_sub
    }

    /// Number of rank groups (horizontal width).
    pub fn rank_groups(&self) -> usize {
        self.groups
    }

    /// Ranks per group (vertical width).
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// The rank group vector `id` belongs to.
    pub fn group_of(&self, id: usize) -> usize {
        id % self.groups
    }

    /// Placement of vector `id` in its home group.
    pub fn placement(&self, id: usize) -> Vec<Placement> {
        self.placement_in_group(id, self.group_of(id))
    }

    /// Placement of vector `id` served from a specific `group` (used for
    /// replicated hot vectors).
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn placement_in_group(&self, id: usize, group: usize) -> Vec<Placement> {
        assert!(group < self.groups, "group out of range");
        (0..self.subvecs)
            .map(|j| {
                let start = j * self.dims_per_sub;
                let end = ((j + 1) * self.dims_per_sub).min(self.dim);
                Placement {
                    rank: self.rank_in_group(id, group, j),
                    dims: start..end,
                }
            })
            .collect()
    }

    /// Global rank holding sub-vector `j` of vector `id` served from
    /// `group`, which must be below [`Partitioner::rank_groups`]. Only the
    /// rank depends on `id` and `group`: sub-vector `j` holds the same
    /// dimensions in every placement.
    pub fn rank_in_group(&self, id: usize, group: usize, j: usize) -> usize {
        debug_assert!(group < self.groups, "group out of range");
        // Sub-vectors beyond the group size wrap within the group (only
        // possible when subvecs > n_ranks).
        group * self.group_size + (j + id) % self.group_size
    }
}

/// Hot-vector replication (§5.3): a small set of index-identified hot
/// vectors (top HNSW layers / IVF centroids) replicated to every rank
/// group; at search time a replica in the least-loaded group serves the
/// comparison.
#[derive(Debug, Clone, Default)]
pub struct ReplicaSet {
    hot: HashSet<usize>,
}

impl ReplicaSet {
    /// Build from the hot vector ids.
    pub fn new(hot: impl IntoIterator<Item = usize>) -> Self {
        ReplicaSet {
            hot: hot.into_iter().collect(),
        }
    }

    /// Whether `id` is replicated.
    pub fn contains(&self, id: usize) -> bool {
        self.hot.contains(&id)
    }

    /// Number of replicated vectors.
    pub fn len(&self) -> usize {
        self.hot.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.hot.is_empty()
    }

    /// Extra storage for the replicas as a fraction of the dataset:
    /// `len × (groups − 1) / n_vectors`.
    pub fn extra_space_frac(&self, n_vectors: usize, groups: usize) -> f64 {
        if n_vectors == 0 {
            0.0
        } else {
            self.hot.len() as f64 * (groups.saturating_sub(1)) as f64 / n_vectors as f64
        }
    }

    /// The replicated ids in ascending order (snapshot / diff surface).
    pub fn sorted_ids(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = self.hot.iter().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Difference against a refreshed hot set: ids to newly replicate
    /// (`added`) and replicas to drop (`removed`), both sorted so replica
    /// refresh traffic is deterministic. The epoch manager uses this to
    /// ship only the delta to the rank groups instead of re-broadcasting
    /// the whole hot set.
    pub fn diff(&self, refreshed: &ReplicaSet) -> (Vec<usize>, Vec<usize>) {
        let mut added: Vec<usize> = refreshed.hot.difference(&self.hot).copied().collect();
        let mut removed: Vec<usize> = self.hot.difference(&refreshed.hot).copied().collect();
        added.sort_unstable();
        removed.sort_unstable();
        (added, removed)
    }

    /// Deterministic replica target for a vector homed in group `home`:
    /// the `attempt`-th alternative on the fixed probe ring
    /// `home+1, home+2, …` (mod `groups`, never `home` itself). Hedged
    /// offloads and breaker reroutes walk this ring so replica selection
    /// is a pure function of `(home, attempt)` — no RNG, no shared
    /// state, byte-stable across reruns and thread counts. Returns
    /// `None` when the fleet has a single group (nowhere to go).
    pub fn replica_group(home: usize, groups: usize, attempt: usize) -> Option<usize> {
        if groups <= 1 {
            return None;
        }
        let offset = 1 + attempt % (groups - 1);
        Some((home + offset) % groups)
    }

    /// The full deterministic failover ring for `home`: every alternative
    /// group in probe order (`home+1, home+2, …` mod `groups`, `home`
    /// excluded). Callers that must survive multi-group outages walk this
    /// chain until they find a healthy target; an empty chain means the
    /// fleet has nowhere to fail over to.
    pub fn failover_chain(home: usize, groups: usize) -> Vec<usize> {
        (0..groups.saturating_sub(1))
            .map(|attempt| {
                Self::replica_group(home, groups, attempt).expect("groups > 1 on a non-empty chain")
            })
            .collect()
    }
}

/// Per-rank load accounting (comparison tasks assigned), used both for
/// replica placement decisions and for the §5.3 imbalance-ratio metric.
#[derive(Debug, Clone)]
pub struct LoadTracker {
    loads: Vec<u64>,
    group_size: usize,
}

impl LoadTracker {
    /// Track `n_ranks` ranks grouped by `group_size`.
    pub fn new(n_ranks: usize, group_size: usize) -> Self {
        LoadTracker {
            loads: vec![0; n_ranks],
            group_size: group_size.max(1),
        }
    }

    /// Record `amount` units of work (64 B fetches) on `rank`.
    pub fn add(&mut self, rank: usize, amount: u64) {
        self.loads[rank] += amount;
    }

    /// The group with the least total load.
    pub fn least_loaded_group(&self) -> usize {
        let groups = self.loads.len() / self.group_size;
        (0..groups)
            .min_by_key(|&g| {
                self.loads[g * self.group_size..(g + 1) * self.group_size]
                    .iter()
                    .sum::<u64>()
            })
            .unwrap_or(0)
    }

    /// Per-rank loads.
    pub fn loads(&self) -> &[u64] {
        &self.loads
    }

    /// Max-to-average load ratio (the paper's imbalance metric: 1.49× on
    /// GIST without replication, 1.05× with).
    pub fn imbalance_ratio(&self) -> f64 {
        let max = *self.loads.iter().max().unwrap_or(&0) as f64;
        let avg = self.loads.iter().sum::<u64>() as f64 / self.loads.len().max(1) as f64;
        if avg == 0.0 {
            1.0
        } else {
            max / avg
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizontal_keeps_vector_whole() {
        let p = Partitioner::new(PartitionScheme::Horizontal, 32, 128, 1);
        assert_eq!(p.subvectors_per_vector(), 1);
        assert_eq!(p.rank_groups(), 32);
        let pl = p.placement(5);
        assert_eq!(pl.len(), 1);
        assert_eq!(pl[0].dims, 0..128);
        assert_eq!(pl[0].rank, 5);
    }

    #[test]
    fn vertical_spreads_over_all_ranks() {
        let p = Partitioner::new(PartitionScheme::Vertical, 8, 128, 4);
        assert_eq!(p.rank_groups(), 1);
        assert_eq!(p.group_size(), 8);
        let pl = p.placement(3);
        assert_eq!(pl.len(), 8);
        // Dims cover 0..128 without overlap.
        let mut covered = [false; 128];
        for q in &pl {
            for d in q.dims.clone() {
                assert!(!covered[d]);
                covered[d] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn hybrid_gist_paper_example() {
        // GIST: 960 × FP32 = 3840 B; S = 1 kB → 4 sub-vectors (256 dims
        // each), 8 groups of 4 ranks.
        let p = Partitioner::new(PartitionScheme::Hybrid { subvec_bytes: 1024 }, 32, 960, 4);
        assert_eq!(p.subvectors_per_vector(), 4);
        assert_eq!(p.group_size(), 4);
        assert_eq!(p.rank_groups(), 8);
        let pl = p.placement(10);
        // Group of id 10 = 10 % 8 = 2 → ranks 8..12.
        assert!(pl.iter().all(|q| (8..12).contains(&q.rank)));
        assert_eq!(pl[0].dims, 0..256);
        assert_eq!(pl[3].dims, 768..960);
    }

    #[test]
    fn hybrid_small_vector_degenerates_to_horizontal() {
        // SIFT: 128 B vector ≤ 1 kB sub-vector → one sub-vector per rank.
        let p = Partitioner::new(PartitionScheme::Hybrid { subvec_bytes: 1024 }, 32, 128, 1);
        assert_eq!(p.subvectors_per_vector(), 1);
        assert_eq!(p.rank_groups(), 32);
    }

    #[test]
    fn placements_stay_in_assigned_group() {
        let p = Partitioner::new(PartitionScheme::Hybrid { subvec_bytes: 512 }, 16, 256, 4);
        for id in 0..100 {
            let g = p.group_of(id);
            for q in p.placement(id) {
                assert_eq!(q.rank / p.group_size(), g);
            }
        }
    }

    #[test]
    fn every_group_splits_a_vector_into_the_same_dims() {
        let schemes = [
            PartitionScheme::Vertical,
            PartitionScheme::Horizontal,
            PartitionScheme::Hybrid { subvec_bytes: 1024 },
        ];
        for scheme in schemes {
            for n_ranks in [8, 32, 64] {
                for dim in [96, 128, 960] {
                    for elem_bytes in [1, 4] {
                        let p = Partitioner::new(scheme, n_ranks, dim, elem_bytes);
                        for id in 0..3 * n_ranks {
                            let home: Vec<_> =
                                p.placement(id).into_iter().map(|q| q.dims).collect();
                            for g in 0..p.rank_groups() {
                                let pl = p.placement_in_group(id, g);
                                let dims: Vec<_> = pl.iter().map(|q| q.dims.clone()).collect();
                                assert_eq!(dims, home, "{scheme:?} {n_ranks} {dim} {elem_bytes}");
                                for (j, q) in pl.iter().enumerate() {
                                    assert_eq!(q.rank, p.rank_in_group(id, g, j));
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn replica_set_space_accounting() {
        let r = ReplicaSet::new([1, 2, 3]);
        assert!(r.contains(2));
        assert!(!r.contains(9));
        assert_eq!(r.len(), 3);
        // 3 vectors × 7 extra copies / 1000 vectors.
        assert!((r.extra_space_frac(1000, 8) - 0.021).abs() < 1e-12);
    }

    #[test]
    fn replica_diff_is_sorted_and_minimal() {
        let old = ReplicaSet::new([1, 2, 3, 9]);
        let new = ReplicaSet::new([2, 3, 4, 0]);
        let (added, removed) = old.diff(&new);
        assert_eq!(added, vec![0, 4]);
        assert_eq!(removed, vec![1, 9]);
        // Identical sets produce an empty delta.
        let (a2, r2) = new.diff(&new.clone());
        assert!(a2.is_empty() && r2.is_empty());
    }

    #[test]
    fn replica_ring_skips_home_and_covers_all_alternatives() {
        let groups = 8;
        for home in 0..groups {
            let mut seen = HashSet::new();
            for attempt in 0..groups - 1 {
                let g = ReplicaSet::replica_group(home, groups, attempt).unwrap();
                assert_ne!(g, home, "ring never lands on the home group");
                seen.insert(g);
            }
            assert_eq!(seen.len(), groups - 1, "ring covers every alternative");
            // Past the ring length the walk wraps deterministically.
            assert_eq!(
                ReplicaSet::replica_group(home, groups, 0),
                ReplicaSet::replica_group(home, groups, groups - 1),
            );
        }
    }

    #[test]
    fn failover_chain_is_the_whole_ring_in_probe_order() {
        assert_eq!(ReplicaSet::failover_chain(1, 4), vec![2, 3, 0]);
        assert_eq!(ReplicaSet::failover_chain(3, 4), vec![0, 1, 2]);
        assert_eq!(ReplicaSet::failover_chain(0, 2), vec![1]);
        assert!(ReplicaSet::failover_chain(0, 1).is_empty());
        assert!(ReplicaSet::failover_chain(0, 0).is_empty());
    }

    #[test]
    fn replica_ring_single_group_has_nowhere_to_go() {
        assert_eq!(ReplicaSet::replica_group(0, 1, 0), None);
        assert_eq!(ReplicaSet::replica_group(0, 1, 5), None);
        assert_eq!(ReplicaSet::replica_group(0, 2, 0), Some(1));
        assert_eq!(ReplicaSet::replica_group(1, 2, 3), Some(0));
    }

    #[test]
    fn load_tracker_balancing() {
        let mut lt = LoadTracker::new(8, 2); // 4 groups of 2
        lt.add(0, 100);
        lt.add(1, 100);
        lt.add(2, 10);
        assert_eq!(lt.least_loaded_group(), 2);
        let r = lt.imbalance_ratio();
        assert!(r > 3.0, "imbalance {r}");
    }

    #[test]
    fn balanced_loads_ratio_one() {
        let mut lt = LoadTracker::new(4, 1);
        for r in 0..4 {
            lt.add(r, 50);
        }
        assert!((lt.imbalance_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_ranks_panics() {
        Partitioner::new(PartitionScheme::Horizontal, 0, 10, 1);
    }
}
