//! Hierarchical Navigable Small Worlds (HNSW) graph index [Malkov &
//! Yashunin 2020], the paper's representative ANNS index.
//!
//! Construction follows the original algorithm: exponentially-distributed
//! level assignment, greedy descent through upper layers, beam search with
//! `efConstruction` at insertion layers, and the distance-based neighbor
//! selection heuristic. Search uses greedy beam search with a bounded
//! result set whose maximum distance is the early-termination threshold.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ansmet_vecdata::Dataset;

use crate::heap::Neighbor;
use crate::oracle::{DistanceOracle, DistanceOutcome};
use crate::scratch::BuildScratch;
use crate::trace::{Eval, Hop, HopKind, SearchTrace};

static BUILDS: AtomicU64 = AtomicU64::new(0);
static CONSTRUCTION_DISTANCES: AtomicU64 = AtomicU64::new(0);

/// [`Hnsw::build`] calls since process start.
pub fn hnsw_builds() -> u64 {
    BUILDS.load(Ordering::Relaxed)
}

/// Distances HNSW construction computed since process start: every
/// [`Hnsw::build`], [`Hnsw::insert_point`] and [`Hnsw::unlink`]. Each call
/// adds its tally once, when it returns.
pub fn construction_distances() -> u64 {
    CONSTRUCTION_DISTANCES.load(Ordering::Relaxed)
}

/// Add the distances `scratch` tallied since its last flush.
fn record_distances(scratch: &mut BuildScratch) {
    CONSTRUCTION_DISTANCES.fetch_add(std::mem::take(&mut scratch.distances), Ordering::Relaxed);
}

/// Bound on the deepest level [`HnswParams::sample_level`] may draw. The
/// paper's `1 / ln M` multiplier reaches 51 at `M = 2`; a larger
/// multiplier would make builds and inserts allocate layers without bound.
pub const MAX_LEVEL: f64 = 64.0;

/// HNSW construction parameters (§6 of the paper: `efConstruction = 500`,
/// maximum degree 16).
#[derive(Debug, Clone, PartialEq)]
pub struct HnswParams {
    /// Connections made per node per layer (M).
    pub m: usize,
    /// Maximum degree kept at the base layer.
    pub m_max0: usize,
    /// Beam width during construction.
    pub ef_construction: usize,
    /// RNG seed for level assignment.
    pub seed: u64,
    /// Level multiplier; defaults to `1 / ln(M)`.
    pub level_mult: Option<f64>,
}

impl Default for HnswParams {
    fn default() -> Self {
        HnswParams {
            m: 16,
            m_max0: 16,
            ef_construction: 500,
            seed: 42,
            level_mult: None,
        }
    }
}

impl HnswParams {
    /// Faster construction for tests.
    pub fn quick() -> Self {
        HnswParams {
            ef_construction: 60,
            ..HnswParams::default()
        }
    }

    /// The effective level multiplier (`1 / ln(M)` unless overridden).
    pub fn effective_level_mult(&self) -> f64 {
        self.level_mult.unwrap_or(1.0 / (self.m as f64).ln())
    }

    /// Maximum degree kept on `layer`: `m_max0` at the base, `m` above.
    pub(crate) fn m_max(&self, layer: usize) -> usize {
        if layer == 0 {
            self.m_max0
        } else {
            self.m
        }
    }

    /// Check that construction can run on these parameters: `m`, `m_max0`
    /// and `ef_construction` are positive, and every level
    /// [`sample_level`](HnswParams::sample_level) can draw lies in
    /// `[0, MAX_LEVEL)`.
    ///
    /// # Errors
    ///
    /// Names the first zero parameter, or the multiplier and the deepest
    /// level it draws when that level is out of range: `m = 1` without an
    /// override (`1 / ln 1` is infinite), or a negative, NaN or oversized
    /// override.
    pub fn validate(&self) -> Result<(), String> {
        for (name, value) in [
            ("m", self.m),
            ("m_max0", self.m_max0),
            ("ef_construction", self.ef_construction),
        ] {
            if value == 0 {
                return Err(format!("hnsw {name} must be positive"));
            }
        }
        // `sample_level` floors `-ln(u) · mult` for `u` in `[ε, 1)`.
        let mult = self.effective_level_mult();
        let deepest = -f64::EPSILON.ln() * mult;
        if (0.0..MAX_LEVEL).contains(&deepest) {
            Ok(())
        } else {
            Err(format!(
                "hnsw level multiplier {mult} draws levels up to {deepest}"
            ))
        }
    }

    /// Draw one exponentially-distributed layer assignment. Build and
    /// online insertion share this so a streamed index has the same level
    /// distribution as a rebuilt one.
    pub fn sample_level<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        (-u.ln() * self.effective_level_mult()).floor() as usize
    }
}

/// Result of one search: the k nearest found, closest first.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    neighbors: Vec<Neighbor>,
}

impl SearchResult {
    /// Build a result from pre-sorted (closest-first) neighbors.
    pub fn from_neighbors(neighbors: Vec<Neighbor>) -> Self {
        debug_assert!(neighbors.windows(2).all(|w| w[0] <= w[1]));
        SearchResult { neighbors }
    }

    /// Neighbor ids, closest first.
    pub fn ids(&self) -> Vec<usize> {
        self.neighbors.iter().map(|n| n.id).collect()
    }

    /// `(distance, id)` pairs, closest first.
    pub fn neighbors(&self) -> &[Neighbor] {
        &self.neighbors
    }
}

/// One directed link of the graph: the neighbor's id and its distance to
/// the node that holds the link.
///
/// Construction computes that distance when it makes the link, and every
/// later re-selection over the node's links (the overflow shrink, the
/// bridging of an unlinked node) reads it instead of recomputing it. The
/// distance kernels return the same bits whichever way round they are
/// called, so the stored distance equals a recomputed one (DESIGN §7.3).
/// A link takes 8 bytes, the size of a `usize` id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    id: u32,
    dist: f32,
}

impl Link {
    fn new(n: Neighbor) -> Self {
        Link {
            id: u32::try_from(n.id).expect("HNSW node ids fit in u32"),
            dist: n.dist,
        }
    }

    /// The neighbor's id.
    pub fn id(&self) -> usize {
        self.id as usize
    }

    /// The neighbor's distance to the node holding the link.
    pub fn dist(&self) -> f32 {
        self.dist
    }

    pub(crate) fn neighbor(&self) -> Neighbor {
        Neighbor::new(self.dist, self.id())
    }
}

/// The built HNSW index.
#[derive(Debug, Clone)]
pub struct Hnsw {
    /// Adjacency lists: `links[layer][node]` (empty when the node is not
    /// present on that layer).
    links: Vec<Vec<Vec<Link>>>,
    /// Highest layer of each node.
    levels: Vec<usize>,
    /// Entry point (node on the top layer).
    entry: usize,
    params: HnswParams,
}

impl Hnsw {
    /// Build the index over `data`.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty, or if `params` fails
    /// [`HnswParams::validate`] (for example `m = 1` without a level
    /// multiplier), before any level is drawn. Links store `u32` ids, so
    /// an id above `u32::MAX` panics too.
    pub fn build(data: &Dataset, params: HnswParams) -> Self {
        assert!(!data.is_empty(), "cannot build HNSW over an empty dataset");
        if let Err(e) = params.validate() {
            panic!("cannot build HNSW: {e}");
        }
        let n = data.len();
        let mut rng = SmallRng::seed_from_u64(params.seed);

        // Pre-draw levels so the layer count is known.
        let levels: Vec<usize> = (0..n).map(|_| params.sample_level(&mut rng)).collect();
        let max_level = levels.iter().copied().max().unwrap_or(0);
        let mut index = Hnsw {
            links: vec![vec![Vec::new(); n]; max_level + 1],
            levels,
            entry: 0,
            params,
        };

        let mut scratch = BuildScratch::new(n);
        for node in 1..n {
            index.insert(data, node, &mut scratch);
            if index.levels[node] > index.levels[index.entry] {
                index.entry = node;
            }
        }
        BUILDS.fetch_add(1, Ordering::Relaxed);
        record_distances(&mut scratch);
        index
    }

    /// Link `node` into the graph: greedy descent to its level, then a
    /// beam search and Malkov's selection on each of its layers, with the
    /// reverse links shrunk back to the layer's degree bound.
    fn insert(&mut self, data: &Dataset, node: usize, s: &mut BuildScratch) {
        let query = data.vector(node);
        let node_level = self.levels[node];
        let entry_level = self.levels[self.entry];
        let mut curr = Neighbor::new(s.distance(data, self.entry, query), self.entry);

        // Greedy descent above the insertion level: each round scans the
        // links of the node it started from.
        for layer in (node_level + 1..=entry_level).rev() {
            loop {
                let from = curr.id;
                for link in &self.links[layer][from] {
                    let d = s.distance(data, link.id(), query);
                    if d < curr.dist {
                        curr = Neighbor::new(d, link.id());
                    }
                }
                if curr.id == from {
                    break;
                }
            }
        }

        // Beam search and connect at each layer from min(node_level,
        // entry_level) down; each layer's beam seeds the next.
        s.found.clear();
        s.found.push(curr);
        for layer in (0..=node_level.min(entry_level)).rev() {
            self.search_layer_build(data, query, layer, s);
            let own = &mut self.links[layer][node];
            select_neighbors(data, node, &s.found, self.params.m, own, &mut s.distances);
            for i in 0..self.links[layer][node].len() {
                let link = self.links[layer][node][i];
                let back = Neighbor::new(link.dist, node);
                let list = &mut self.links[layer][link.id()];
                if list.len() < self.params.m_max(layer) {
                    list.push(Link::new(back));
                } else {
                    // Shrink with the same heuristic, over the full list
                    // and the new link, so the list never outgrows its
                    // bound (nor its allocation).
                    s.pool_links(list);
                    s.pool.push(back);
                    self.relink(data, layer, link.id(), s);
                }
            }
        }
    }

    /// Construction-time beam search on one layer with exact distances,
    /// from the entry points in `s.found`. Leaves the `ef_construction`
    /// nearest nodes found in `s.found`, closest first.
    fn search_layer_build(
        &self,
        data: &Dataset,
        query: &[f32],
        layer: usize,
        s: &mut BuildScratch,
    ) {
        s.visited.clear();
        s.candidates.clear();
        s.results.reset(self.params.ef_construction);
        for &e in &s.found {
            if s.visited.insert(e.id) {
                s.candidates.push(e);
                s.results.push(e);
            }
        }
        while let Some(c) = s.candidates.pop() {
            if c.dist > s.results.threshold() {
                break;
            }
            for link in &self.links[layer][c.id] {
                let nb = link.id();
                if !s.visited.insert(nb) {
                    continue;
                }
                let d = s.distance(data, nb, query);
                if d < s.results.threshold() {
                    let n = Neighbor::new(d, nb);
                    s.candidates.push(n);
                    s.results.push(n);
                }
            }
        }
        s.results.drain_sorted_into(&mut s.found);
    }

    /// Replace `node`'s links on `layer` by Malkov's selection over
    /// `s.pool`: its links, each carrying its stored distance, plus any
    /// candidates the caller appended with theirs. The overflow shrink and
    /// the bridging of an unlinked node both go through here.
    fn relink(&mut self, data: &Dataset, layer: usize, node: usize, s: &mut BuildScratch) {
        s.pool.sort();
        let links = &mut self.links[layer][node];
        links.clear();
        let m_max = self.params.m_max(layer);
        select_neighbors(data, node, &s.pool, m_max, links, &mut s.distances);
    }

    /// Search for the `k` nearest neighbors with beam width `ef` (the
    /// paper's k′ / efSearch).
    pub fn search<O: DistanceOracle>(
        &self,
        query: &[f32],
        k: usize,
        ef: usize,
        oracle: &mut O,
    ) -> SearchResult {
        let mut scratch = crate::scratch::SearchScratch::new(self.len());
        self.search_inner(query, k, ef, oracle, None, &mut scratch)
    }

    /// [`Hnsw::search`] reusing caller-provided scratch buffers
    /// (bit-identical results, no per-query allocation).
    pub fn search_with<O: DistanceOracle>(
        &self,
        query: &[f32],
        k: usize,
        ef: usize,
        oracle: &mut O,
        scratch: &mut crate::scratch::SearchScratch,
    ) -> SearchResult {
        self.search_inner(query, k, ef, oracle, None, scratch)
    }

    /// Search while recording the full comparison trace.
    pub fn search_traced<O: DistanceOracle>(
        &self,
        query: &[f32],
        k: usize,
        ef: usize,
        oracle: &mut O,
    ) -> (SearchResult, SearchTrace) {
        let mut scratch = crate::scratch::SearchScratch::new(self.len());
        self.search_traced_with(query, k, ef, oracle, &mut scratch)
    }

    /// [`Hnsw::search_traced`] reusing caller-provided scratch buffers.
    pub fn search_traced_with<O: DistanceOracle>(
        &self,
        query: &[f32],
        k: usize,
        ef: usize,
        oracle: &mut O,
        scratch: &mut crate::scratch::SearchScratch,
    ) -> (SearchResult, SearchTrace) {
        let mut trace = SearchTrace::new();
        let r = self.search_inner(query, k, ef, oracle, Some(&mut trace), scratch);
        (r, trace)
    }

    fn search_inner<O: DistanceOracle>(
        &self,
        query: &[f32],
        k: usize,
        ef: usize,
        oracle: &mut O,
        mut trace: Option<&mut SearchTrace>,
        scratch: &mut crate::scratch::SearchScratch,
    ) -> SearchResult {
        assert!(k > 0, "k must be positive");
        let ef = ef.max(k);
        let entry_level = self.levels[self.entry];
        let mut curr = self.entry;

        // Evaluate the entry point.
        let mut curr_dist = match oracle.evaluate(curr, query, f32::INFINITY) {
            DistanceOutcome::Exact(d) => d,
            DistanceOutcome::Pruned => f32::INFINITY,
        };
        if let Some(t) = trace.as_deref_mut() {
            let mut hop = Hop::new(HopKind::UpperLayer);
            hop.evals.push(Eval {
                id: curr,
                threshold: f32::INFINITY,
                distance: curr_dist,
                accepted: true,
            });
            t.hops.push(hop);
        }

        // Greedy descent through upper layers.
        for layer in (1..=entry_level).rev() {
            loop {
                let mut improved = false;
                let mut hop = Hop::new(HopKind::UpperLayer);
                for nb in self.links[layer][curr].iter().map(Link::id) {
                    let out = oracle.evaluate(nb, query, curr_dist);
                    let d = out.distance().unwrap_or(f32::INFINITY);
                    let accepted = d < curr_dist;
                    hop.evals.push(Eval {
                        id: nb,
                        threshold: curr_dist,
                        distance: d,
                        accepted,
                    });
                    if accepted {
                        curr = nb;
                        curr_dist = d;
                        improved = true;
                    }
                }
                if let Some(t) = trace.as_deref_mut() {
                    if !hop.evals.is_empty() {
                        t.hops.push(hop);
                    }
                }
                if !improved {
                    break;
                }
            }
        }

        // Beam search at the base layer, on reused scratch buffers.
        scratch.ensure_ids(self.levels.len());
        let visited = &mut scratch.visited;
        visited.clear();
        visited.insert(curr);
        let candidates = &mut scratch.candidates;
        candidates.clear();
        let results = &mut scratch.results;
        results.reset(ef);
        let start = Neighbor::new(curr_dist, curr);
        candidates.push(start);
        results.push(start);

        while let Some(c) = candidates.pop() {
            if c.dist > results.threshold() {
                break;
            }
            let mut hop = Hop::new(HopKind::BaseLayer);
            for nb in self.links[0][c.id].iter().map(Link::id) {
                if !visited.insert(nb) {
                    continue;
                }
                let threshold = results.threshold();
                let out = oracle.evaluate(nb, query, threshold);
                let d = out.distance().unwrap_or(f32::INFINITY);
                let accepted = out.accepted(threshold);
                hop.evals.push(Eval {
                    id: nb,
                    threshold,
                    distance: d,
                    accepted,
                });
                if accepted {
                    let n = Neighbor::new(d, nb);
                    candidates.push(n);
                    results.push(n);
                }
            }
            if let Some(t) = trace.as_deref_mut() {
                if !hop.evals.is_empty() {
                    t.hops.push(hop);
                }
            }
        }

        results.drain_sorted_into(&mut scratch.sorted);
        scratch.sorted.truncate(k);
        SearchResult {
            neighbors: scratch.sorted.clone(),
        }
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.links.len()
    }

    /// Entry point node id.
    pub fn entry_point(&self) -> usize {
        self.entry
    }

    /// Nodes present on `layer` and above — the paper's "hot vectors"
    /// replicated across rank groups (§5.3 replicates the top HNSW layers).
    pub fn nodes_at_or_above_layer(&self, layer: usize) -> Vec<usize> {
        (0..self.levels.len())
            .filter(|&i| self.levels[i] >= layer)
            .collect()
    }

    /// Neighbors of `node` on `layer`.
    pub fn neighbors(&self, layer: usize, node: usize) -> &[Link] {
        &self.links[layer][node]
    }

    /// Construction parameters.
    pub fn params(&self) -> &HnswParams {
        &self.params
    }

    /// Highest layer of `node`.
    pub fn level(&self, node: usize) -> usize {
        self.levels[node]
    }

    /// Per-node highest layers (snapshot surface).
    pub fn levels(&self) -> &[usize] {
        &self.levels
    }

    /// Incrementally insert the vector with id `self.len()` — which must
    /// already be appended to `data` — at the pre-sampled `level` (see
    /// [`HnswParams::sample_level`]). Runs the same descent / beam /
    /// neighbor-selection pipeline as [`Hnsw::build`], so a streamed
    /// index obeys the same degree bounds as a rebuilt one. `scratch` is
    /// grown to cover the new id. Returns the new node's id.
    ///
    /// # Panics
    ///
    /// Panics if `data` does not hold exactly one vector beyond the
    /// indexed prefix.
    pub fn insert_point(
        &mut self,
        data: &Dataset,
        level: usize,
        scratch: &mut BuildScratch,
    ) -> usize {
        assert_eq!(
            data.len(),
            self.levels.len() + 1,
            "insert_point expects data to hold exactly the indexed vectors plus the new one"
        );
        let node = self.levels.len();
        self.levels.push(level);
        while self.links.len() <= level {
            self.links.push(vec![Vec::new(); node]);
        }
        for layer in self.links.iter_mut() {
            layer.resize(node + 1, Vec::new());
        }
        scratch.visited.grow(node + 1);
        self.insert(data, node, scratch);
        if level > self.levels[self.entry] {
            self.entry = node;
        }
        record_distances(scratch);
        node
    }

    /// Detach `node` from the graph (tombstone purge): every link to it
    /// is removed and the holes are bridged by re-running the neighbor
    /// selection heuristic over each affected node's surviving links plus
    /// the removed node's other neighbors. `alive[i]` marks ids that are
    /// still servable (bridges never route through other tombstones).
    /// Only the bridge candidates' distances are computed; the surviving
    /// links carry theirs.
    ///
    /// The node's id stays allocated — its vector remains in `data` so
    /// ids are stable — but it becomes unreachable from any search.
    ///
    /// # Panics
    ///
    /// Panics if `node` is the entry point and no alive node remains to
    /// take over as entry.
    pub fn unlink(
        &mut self,
        data: &Dataset,
        node: usize,
        alive: &[bool],
        scratch: &mut BuildScratch,
    ) {
        let node_level = self.levels[node];
        let mut affected: Vec<usize> = Vec::new();
        for layer in 0..=node_level {
            let own = std::mem::take(&mut self.links[layer][node]);
            // The graph is directed after overflow shrinking, so the
            // nodes linking *to* `node` are a superset of its own list:
            // sweep the whole layer (compaction-time cost, not serve-time).
            affected.clear();
            for (i, lnk) in self.links[layer].iter_mut().enumerate() {
                if let Some(pos) = lnk.iter().position(|l| l.id() == node) {
                    lnk.remove(pos);
                    affected.push(i);
                }
            }
            for &nb in &affected {
                if !alive[nb] {
                    continue;
                }
                // Bridge candidates: surviving links plus the removed
                // node's other (alive) neighbors.
                scratch.pool_links(&self.links[layer][nb]);
                let nb_vec = data.vector(nb);
                for x in own.iter().map(Link::id) {
                    if x != nb && alive[x] && !scratch.pool.iter().any(|c| c.id == x) {
                        let d = scratch.distance(data, x, nb_vec);
                        scratch.pool.push(Neighbor::new(d, x));
                    }
                }
                self.relink(data, layer, nb, scratch);
            }
        }
        record_distances(scratch);
        if node == self.entry {
            let mut best: Option<usize> = None;
            for (i, &ok) in alive.iter().enumerate() {
                if !ok || i == node {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some(b) => self.levels[i] > self.levels[b],
                };
                if better {
                    best = Some(i);
                }
            }
            self.entry =
                best.expect("unlinked the entry point with no alive node left to take over");
        }
    }

    /// Reassemble an index over `data` from snapshot parts: `links[layer]
    /// [node]` lists neighbor ids, and each link's distance is recomputed
    /// here, once.
    ///
    /// # Panics
    ///
    /// Panics if the parts are structurally inconsistent (layer widths,
    /// node count against `data`, a link or the entry out of range, entry
    /// below the top occupied layer).
    pub fn from_parts(
        data: &Dataset,
        links: Vec<Vec<Vec<usize>>>,
        levels: Vec<usize>,
        entry: usize,
        params: HnswParams,
    ) -> Self {
        let n = levels.len();
        assert!(n > 0, "snapshot holds an empty HNSW");
        assert_eq!(n, data.len(), "snapshot HNSW does not cover the dataset");
        assert!(
            links.iter().all(|layer| layer.len() == n),
            "snapshot layer width does not match node count"
        );
        assert!(entry < n, "snapshot entry point out of range");
        assert!(
            levels[entry] < links.len(),
            "snapshot entry level exceeds layer count"
        );
        let links = links
            .into_iter()
            .map(|layer| {
                layer
                    .into_iter()
                    .enumerate()
                    .map(|(node, ids)| {
                        let v = data.vector(node);
                        ids.into_iter()
                            .map(|id| {
                                assert!(id < n, "snapshot link {id} out of range");
                                Link::new(Neighbor::new(data.distance_to(id, v), id))
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        Hnsw {
            links,
            levels,
            entry,
            params,
        }
    }
}

/// Malkov's distance-based neighbor selection heuristic: take the
/// candidates in ascending distance, keeping one only if it is closer to
/// `node` than to every already-kept neighbor (encourages diverse
/// directions). `sorted` is closest first and each candidate carries its
/// distance to `node`, so only the candidate-to-kept distances are
/// computed; `distances` counts them. Appends at most `m` links to `kept`,
/// which must start empty.
fn select_neighbors(
    data: &Dataset,
    node: usize,
    sorted: &[Neighbor],
    m: usize,
    kept: &mut Vec<Link>,
    distances: &mut u64,
) {
    debug_assert!(kept.is_empty() && sorted.windows(2).all(|w| w[0] <= w[1]));
    for c in sorted {
        if c.id == node {
            continue;
        }
        if kept.len() >= m {
            break;
        }
        let c_vec = data.vector(c.id);
        let ok = kept.iter().all(|r| {
            *distances += 1;
            c.dist < data.metric().distance(c_vec, data.vector(r.id()))
        });
        if ok {
            kept.push(Link::new(*c));
        }
    }
    // Fill remaining slots with nearest unkept candidates (hnswlib's
    // keepPruned behavior) so low-degree nodes stay connected.
    if kept.len() < m {
        for c in sorted {
            if kept.len() >= m {
                break;
            }
            if c.id != node && !kept.iter().any(|r| r.id() == c.id) {
                kept.push(Link::new(*c));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ExactOracle;
    use ansmet_vecdata::{brute_force_knn, recall_at_k, SynthSpec};

    #[test]
    fn search_finds_exact_neighbor_of_db_vector() {
        let (data, _) = SynthSpec::sift().scaled(400, 1).generate();
        let hnsw = Hnsw::build(&data, HnswParams::quick());
        let mut o = ExactOracle::new(&data);
        // Query = a database vector: its own id must be the top result.
        let r = hnsw.search(data.vector(123), 1, 40, &mut o);
        assert_eq!(r.ids()[0], 123);
        assert_eq!(r.neighbors()[0].dist, 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot build HNSW: hnsw level multiplier inf")]
    fn m_of_one_is_rejected_before_any_level_is_drawn() {
        // 1 / ln 1 is infinite: every drawn level would saturate.
        let (data, _) = SynthSpec::sift().scaled(20, 1).generate();
        let params = HnswParams {
            m: 1,
            level_mult: None,
            ..HnswParams::quick()
        };
        Hnsw::build(&data, params);
    }

    #[test]
    fn level_range_check_rejects_unbounded_multipliers() {
        assert!(HnswParams::default().validate().is_ok());
        let with = |m, level_mult| HnswParams {
            m,
            level_mult,
            ..HnswParams::default()
        };
        // 1 / ln 2 draws at most level 51.
        assert!(with(2, None).validate().is_ok());
        for bad in [
            with(1, None),
            with(16, Some(-1.0)),
            with(16, Some(f64::NAN)),
            with(16, Some(2.0)),
        ] {
            let e = bad.validate().expect_err("out-of-range levels");
            assert!(e.contains("level multiplier"), "{e}");
        }
    }

    #[test]
    fn zero_degrees_and_beam_widths_are_rejected() {
        for (name, bad) in [
            (
                "m",
                HnswParams {
                    m: 0,
                    ..HnswParams::default()
                },
            ),
            (
                "m_max0",
                HnswParams {
                    m_max0: 0,
                    ..HnswParams::default()
                },
            ),
            (
                "ef_construction",
                HnswParams {
                    ef_construction: 0,
                    ..HnswParams::default()
                },
            ),
        ] {
            let e = bad.validate().expect_err("zero parameter");
            assert_eq!(e, format!("hnsw {name} must be positive"));
        }
    }

    #[test]
    fn links_carry_their_distance_to_the_holder() {
        let (data, _) = SynthSpec::deep().scaled(300, 1).generate();
        let hnsw = Hnsw::build(&data, HnswParams::quick());
        for layer in 0..hnsw.layer_count() {
            for node in 0..hnsw.len() {
                for link in hnsw.neighbors(layer, node) {
                    let d = data.distance_to(node, data.vector(link.id()));
                    assert_eq!(link.dist().to_bits(), d.to_bits());
                }
            }
        }
    }

    #[test]
    fn recall_is_high_with_reasonable_ef() {
        let (data, queries) = SynthSpec::deep().scaled(800, 8).generate();
        let hnsw = Hnsw::build(&data, HnswParams::quick());
        let mut o = ExactOracle::new(&data);
        let mut total = 0.0;
        for q in &queries {
            let (truth, _) = brute_force_knn(&data, q, 10);
            let r = hnsw.search(q, 10, 100, &mut o);
            total += recall_at_k(&r.ids(), &truth, 10);
        }
        let recall = total / queries.len() as f64;
        assert!(recall >= 0.8, "recall {recall} too low");
    }

    #[test]
    fn degrees_bounded() {
        let (data, _) = SynthSpec::sift().scaled(600, 1).generate();
        let p = HnswParams::quick();
        let hnsw = Hnsw::build(&data, p.clone());
        for layer in 0..hnsw.layer_count() {
            for node in 0..data.len() {
                let max = if layer == 0 { p.m_max0 } else { p.m };
                assert!(
                    hnsw.neighbors(layer, node).len() <= max,
                    "layer {layer} node {node} degree {}",
                    hnsw.neighbors(layer, node).len()
                );
            }
        }
    }

    #[test]
    fn trace_counts_match_oracle() {
        let (data, queries) = SynthSpec::sift().scaled(400, 1).generate();
        let hnsw = Hnsw::build(&data, HnswParams::quick());
        let mut o = ExactOracle::new(&data);
        let (_, trace) = hnsw.search_traced(&queries[0], 10, 50, &mut o);
        assert_eq!(trace.total_evals() as u64, o.comparisons());
        assert!(trace.total_evals() > 10);
        // The paper's Fig. 1 observation: many comparisons are rejected.
        assert!(trace.rejection_rate() > 0.2, "{}", trace.rejection_rate());
    }

    #[test]
    fn trace_thresholds_monotone_nonincreasing_at_base() {
        let (data, queries) = SynthSpec::deep().scaled(500, 1).generate();
        let hnsw = Hnsw::build(&data, HnswParams::quick());
        let mut o = ExactOracle::new(&data);
        let (_, trace) = hnsw.search_traced(&queries[0], 10, 30, &mut o);
        let mut last = f32::INFINITY;
        for hop in trace.hops.iter().filter(|h| h.kind == HopKind::BaseLayer) {
            for e in &hop.evals {
                assert!(e.threshold <= last || last == f32::INFINITY);
                last = e.threshold;
            }
        }
    }

    #[test]
    fn entry_point_on_top_layer() {
        let (data, _) = SynthSpec::sift().scaled(1000, 1).generate();
        let hnsw = Hnsw::build(&data, HnswParams::quick());
        let top = hnsw.layer_count() - 1;
        let tops = hnsw.nodes_at_or_above_layer(top);
        assert!(tops.contains(&hnsw.entry_point()));
    }

    #[test]
    fn deterministic_build_and_search() {
        let (data, queries) = SynthSpec::sift().scaled(300, 2).generate();
        let a = Hnsw::build(&data, HnswParams::quick());
        let b = Hnsw::build(&data, HnswParams::quick());
        let mut oa = ExactOracle::new(&data);
        let mut ob = ExactOracle::new(&data);
        assert_eq!(
            a.search(&queries[0], 5, 50, &mut oa).ids(),
            b.search(&queries[0], 5, 50, &mut ob).ids()
        );
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let data = ansmet_vecdata::Dataset::from_values(
            "e",
            ansmet_vecdata::ElemType::F32,
            ansmet_vecdata::Metric::L2,
            4,
            vec![],
        );
        Hnsw::build(&data, HnswParams::default());
    }

    /// A dataset holding the first `n` vectors of `full` (same dtype,
    /// metric, dim), for streaming the rest in.
    fn prefix_of(full: &ansmet_vecdata::Dataset, n: usize) -> ansmet_vecdata::Dataset {
        let values: Vec<f32> = (0..n).flat_map(|i| full.vector(i).to_vec()).collect();
        ansmet_vecdata::Dataset::from_values(
            full.name().to_string(),
            full.dtype(),
            full.metric(),
            full.dim(),
            values,
        )
    }

    #[test]
    fn streamed_inserts_keep_build_invariants() {
        let (full, _) = SynthSpec::sift().scaled(500, 1).generate();
        let p = HnswParams::quick();
        let mut data = prefix_of(&full, 400);
        let mut hnsw = Hnsw::build(&data, p.clone());
        let mut rng = SmallRng::seed_from_u64(99);
        let mut scratch = BuildScratch::new(data.len());
        for i in 400..500 {
            let id = data.push_vector(full.vector(i));
            assert_eq!(id, i);
            let level = p.sample_level(&mut rng);
            assert_eq!(hnsw.insert_point(&data, level, &mut scratch), i);
        }
        assert_eq!(hnsw.len(), 500);
        // Same degree bounds as a fresh build.
        for layer in 0..hnsw.layer_count() {
            let max = if layer == 0 { p.m_max0 } else { p.m };
            for node in 0..hnsw.len() {
                assert!(hnsw.neighbors(layer, node).len() <= max);
            }
        }
        // The entry point sits on the top occupied layer.
        let top = (0..hnsw.len())
            .map(|n| hnsw.level(n))
            .max()
            .expect("non-empty");
        assert_eq!(hnsw.level(hnsw.entry_point()), top);
        // Every streamed vector is findable as its own nearest neighbor.
        let mut o = ExactOracle::new(&data);
        for i in [400, 450, 499] {
            let r = hnsw.search(data.vector(i), 1, 60, &mut o);
            assert_eq!(r.ids()[0], i, "streamed vector {i} not reachable");
        }
    }

    #[test]
    fn unlink_makes_node_unreachable() {
        let (data, _) = SynthSpec::sift().scaled(300, 1).generate();
        let mut hnsw = Hnsw::build(&data, HnswParams::quick());
        let victim = 123;
        let mut alive = vec![true; data.len()];
        alive[victim] = false;
        hnsw.unlink(&data, victim, &alive, &mut BuildScratch::default());
        for layer in 0..hnsw.layer_count() {
            assert!(hnsw.neighbors(layer, victim).is_empty());
            for node in 0..data.len() {
                assert!(
                    !hnsw.neighbors(layer, node).iter().any(|l| l.id() == victim),
                    "layer {layer} node {node} still links the unlinked node"
                );
            }
        }
        let mut o = ExactOracle::new(&data);
        let r = hnsw.search(data.vector(victim), 5, 60, &mut o);
        assert!(!r.ids().contains(&victim));
    }

    #[test]
    fn unlink_entry_point_repairs_entry() {
        let (data, _) = SynthSpec::sift().scaled(400, 1).generate();
        let mut hnsw = Hnsw::build(&data, HnswParams::quick());
        let e = hnsw.entry_point();
        let mut alive = vec![true; data.len()];
        alive[e] = false;
        hnsw.unlink(&data, e, &alive, &mut BuildScratch::default());
        assert_ne!(hnsw.entry_point(), e);
        let probe = (e + 1) % data.len();
        let mut o = ExactOracle::new(&data);
        let r = hnsw.search(data.vector(probe), 1, 60, &mut o);
        assert_eq!(r.ids()[0], probe);
    }

    #[test]
    fn from_parts_round_trips_search() {
        let (data, queries) = SynthSpec::sift().scaled(300, 2).generate();
        let a = Hnsw::build(&data, HnswParams::quick());
        let links: Vec<Vec<Vec<usize>>> = (0..a.layer_count())
            .map(|l| {
                (0..a.len())
                    .map(|n| a.neighbors(l, n).iter().map(Link::id).collect())
                    .collect()
            })
            .collect();
        let b = Hnsw::from_parts(
            &data,
            links,
            a.levels().to_vec(),
            a.entry_point(),
            a.params().clone(),
        );
        let mut oa = ExactOracle::new(&data);
        let mut ob = ExactOracle::new(&data);
        assert_eq!(
            a.search(&queries[0], 5, 50, &mut oa).neighbors(),
            b.search(&queries[0], 5, 50, &mut ob).neighbors()
        );
        // The recomputed link distances equal the ones construction kept.
        for l in 0..a.layer_count() {
            for n in 0..a.len() {
                assert_eq!(a.neighbors(l, n), b.neighbors(l, n));
            }
        }
    }

    #[test]
    fn upper_layer_shrinks() {
        let (data, _) = SynthSpec::sift().scaled(2000, 1).generate();
        let hnsw = Hnsw::build(&data, HnswParams::quick());
        if hnsw.layer_count() > 1 {
            let l0 = hnsw.nodes_at_or_above_layer(0).len();
            let l1 = hnsw.nodes_at_or_above_layer(1).len();
            assert!(l1 < l0);
            assert!(l1 > 0);
        }
    }
}
