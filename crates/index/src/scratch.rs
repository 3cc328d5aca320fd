//! Reusable per-search and per-construction working memory.
//!
//! One beam search needs a visited set sized to the database, two heaps,
//! and (for IVF) a centroid ordering buffer. Allocating — and for the
//! visited set, zeroing — all of them per query dominates host-side
//! search time on small-k workloads; a [`SearchScratch`] threaded through
//! consecutive searches amortizes that setup to an O(1) epoch bump. A
//! [`BuildScratch`] does the same for every layer of every HNSW insert.

use ansmet_vecdata::Dataset;

use crate::heap::{MaxDistHeap, MinDistHeap, Neighbor};
use crate::hnsw::Link;
use crate::visited::VisitedSet;

/// Reusable buffers for HNSW construction: [`Hnsw::build`](crate::Hnsw::build),
/// [`Hnsw::insert_point`](crate::Hnsw::insert_point) and
/// [`Hnsw::unlink`](crate::Hnsw::unlink).
///
/// The greedy descent, the beam search and the neighbor selection of
/// every layer of every insert run on these buffers, so construction
/// allocates only the link lists it keeps. The heaps grow with use: a
/// large `ef_construction` reserves nothing up front.
#[derive(Debug, Clone)]
pub struct BuildScratch {
    /// Visited markers for ids `0..n` (epoch-cleared per layer search).
    pub(crate) visited: VisitedSet,
    /// The beam search's candidate set.
    pub(crate) candidates: MinDistHeap,
    /// The beam search's bounded result set.
    pub(crate) results: MaxDistHeap,
    /// The last beam's results, closest first: the next layer's entry
    /// points and the new node's neighbor candidates.
    pub(crate) found: Vec<Neighbor>,
    /// Candidates of a re-selection over one node's links, each carrying
    /// its distance to that node.
    pub(crate) pool: Vec<Neighbor>,
    /// Distances computed since the last flush to the process-wide count.
    pub(crate) distances: u64,
}

impl BuildScratch {
    /// Create a scratch for an index of up to `n` vectors (grown by
    /// [`Hnsw::insert_point`](crate::Hnsw::insert_point) as ids are
    /// appended).
    pub fn new(n: usize) -> Self {
        BuildScratch {
            visited: VisitedSet::new(n),
            candidates: MinDistHeap::new(),
            results: MaxDistHeap::new(1),
            found: Vec::new(),
            pool: Vec::new(),
            distances: 0,
        }
    }

    /// The distance from vector `id` of `data` to `query`, counted.
    pub(crate) fn distance(&mut self, data: &Dataset, id: usize, query: &[f32]) -> f32 {
        self.distances += 1;
        data.distance_to(id, query)
    }

    /// Start a re-selection pool from one node's links.
    pub(crate) fn pool_links(&mut self, links: &[Link]) {
        self.pool.clear();
        self.pool.extend(links.iter().map(Link::neighbor));
    }
}

impl Default for BuildScratch {
    fn default() -> Self {
        Self::new(0)
    }
}

/// Reusable buffers for [`Hnsw::search_with`](crate::Hnsw::search_with)
/// and [`Ivf::search_traced_with`](crate::Ivf::search_traced_with).
///
/// A scratch is tied to no particular index: capacities grow on demand,
/// so one scratch may serve searches over different datasets. Results are
/// bit-identical to the allocating entry points.
///
/// Under online mutation the scratch is *generation-aware*: a mutable
/// index bumps its generation on every insert/delete, and
/// [`SearchScratch::sync_generation`] grows the visited set in place
/// (preserving its epoch state) instead of reallocating — searching
/// across an insert costs zero reallocations.
#[derive(Debug)]
pub struct SearchScratch {
    /// Visited markers for ids `0..n` (epoch-cleared).
    pub(crate) visited: VisitedSet,
    /// The unbounded candidate (search) set.
    pub(crate) candidates: MinDistHeap,
    /// The bounded result set (rebounded to ef / k per search).
    pub(crate) results: MaxDistHeap,
    /// Sorted drain buffer for the result set.
    pub(crate) sorted: Vec<Neighbor>,
    /// IVF centroid ordering: `(distance, list)` pairs.
    pub(crate) order: Vec<(f32, usize)>,
    /// Index generation this scratch last synced against (0 = never).
    generation: u64,
    /// Full visited-set reallocations performed (regression telemetry:
    /// mutation-driven growth must not show up here).
    reallocations: u64,
}

impl SearchScratch {
    /// Create a scratch for searches over up to `n` vectors (grown
    /// automatically if a larger index is searched later).
    pub fn new(n: usize) -> Self {
        SearchScratch {
            visited: VisitedSet::new(n),
            candidates: MinDistHeap::new(),
            results: MaxDistHeap::new(1),
            sorted: Vec::new(),
            order: Vec::new(),
            generation: 0,
            reallocations: 0,
        }
    }

    /// A scratch with visited-set headroom for `reserve` ids beyond the
    /// current `n`, so mutation-driven growth up to the reserve line
    /// stays in place (zero reallocations across inserts).
    pub fn with_headroom(n: usize, reserve: usize) -> Self {
        let mut s = Self::new(n);
        s.visited.reserve_ids(n + reserve);
        s
    }

    /// Make sure the visited set covers ids `0..n`, growing in place
    /// (the epoch-based visited state stays valid across growth).
    pub(crate) fn ensure_ids(&mut self, n: usize) {
        if self.visited.grow(n) {
            self.reallocations += 1;
        }
    }

    /// Sync the scratch against a mutable index's generation counter:
    /// when the index mutated since the last search, the visited set is
    /// grown to cover `n` ids — in place while reserved headroom lasts,
    /// with existing epoch state preserved either way. No-op when the
    /// generation is unchanged.
    pub fn sync_generation(&mut self, generation: u64, n: usize) {
        if self.generation != generation {
            self.generation = generation;
            self.ensure_ids(n);
        }
    }

    /// The index generation this scratch last synced against.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Full visited-set reallocations since creation (generation-driven
    /// growth is in-place and does not count).
    pub fn reallocations(&self) -> u64 {
        self.reallocations
    }
}

impl Default for SearchScratch {
    fn default() -> Self {
        Self::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_on_demand() {
        let mut s = SearchScratch::new(4);
        s.ensure_ids(2);
        assert_eq!(s.visited.capacity(), 4);
        s.ensure_ids(100);
        assert_eq!(s.visited.capacity(), 100);
    }

    #[test]
    fn generation_sync_grows_in_place() {
        let mut s = SearchScratch::with_headroom(10, 32);
        s.sync_generation(1, 10);
        assert_eq!(s.generation(), 1);
        // Mutation appended two ids: in-place growth, no reallocation.
        s.sync_generation(2, 12);
        assert_eq!(s.visited.capacity(), 12);
        assert_eq!(s.reallocations(), 0);
        // Same generation: no-op.
        s.sync_generation(2, 50);
        assert_eq!(s.visited.capacity(), 12);
        // Past the reserve line the growth is a (counted) reallocation.
        s.sync_generation(3, 4096);
        assert_eq!(s.reallocations(), 1);
    }
}
