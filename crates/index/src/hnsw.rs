//! Hierarchical Navigable Small Worlds (HNSW) graph index [Malkov &
//! Yashunin 2020], the paper's representative ANNS index.
//!
//! Construction follows the original algorithm: exponentially-distributed
//! level assignment, greedy descent through upper layers, beam search with
//! `efConstruction` at insertion layers, and the distance-based neighbor
//! selection heuristic. Search uses greedy beam search with a bounded
//! result set whose maximum distance is the early-termination threshold.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ansmet_vecdata::Dataset;

use crate::heap::{MaxDistHeap, MinDistHeap, Neighbor};
use crate::oracle::{DistanceOracle, DistanceOutcome};
use crate::trace::{Eval, Hop, HopKind, SearchTrace};
use crate::visited::VisitedSet;

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

    /// Check that every level [`sample_level`](HnswParams::sample_level)
    /// can draw lies in `[0, MAX_LEVEL)`.
    ///
    /// # Errors
    ///
    /// Names the multiplier and the deepest level it draws when that level
    /// is out of range: `m = 1` without an override (`1 / ln 1` is
    /// infinite), or a negative, NaN or oversized override.
    pub fn check_levels(&self) -> Result<(), String> {
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

/// The built HNSW index.
#[derive(Debug, Clone)]
pub struct Hnsw {
    /// Adjacency lists: `links[layer][node]` (empty when the node is not
    /// present on that layer).
    links: Vec<Vec<Vec<usize>>>,
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
    /// [`HnswParams::check_levels`] (for example `m = 1` without a level
    /// multiplier), before any level is drawn.
    pub fn build(data: &Dataset, params: HnswParams) -> Self {
        assert!(!data.is_empty(), "cannot build HNSW over an empty dataset");
        if let Err(e) = params.check_levels() {
            panic!("cannot build HNSW: {e}");
        }
        let n = data.len();
        let mut rng = SmallRng::seed_from_u64(params.seed);

        // Pre-draw levels so the layer count is known.
        let levels: Vec<usize> = (0..n).map(|_| params.sample_level(&mut rng)).collect();
        let max_level = levels.iter().copied().max().unwrap_or(0);
        let mut index = Hnsw {
            links: vec![vec![Vec::new(); n]; max_level + 1],
            levels: levels.clone(),
            entry: 0,
            params,
        };

        let mut top_so_far = levels[0];
        index.entry = 0;
        let mut visited = VisitedSet::new(n);
        #[allow(clippy::needless_range_loop)] // indexed dimension-range loops read clearer here
        for node in 1..n {
            index.insert(data, node, &mut visited);
            if levels[node] > top_so_far {
                top_so_far = levels[node];
                index.entry = node;
            }
        }
        index
    }

    fn insert(&mut self, data: &Dataset, node: usize, visited: &mut VisitedSet) {
        let query = data.vector(node);
        let node_level = self.levels[node];
        let entry_level = self.levels[self.entry];
        let mut curr = self.entry;
        let mut curr_dist = data.distance_to(curr, query);

        // Greedy descent above the insertion level.
        for layer in (node_level + 1..=entry_level).rev() {
            loop {
                let mut improved = false;
                // Clone to avoid borrow issues; degree ≤ m_max0.
                let neigh = self.links[layer][curr].clone();
                for nb in neigh {
                    let d = data.distance_to(nb, query);
                    if d < curr_dist {
                        curr = nb;
                        curr_dist = d;
                        improved = true;
                    }
                }
                if !improved {
                    break;
                }
            }
        }

        // Beam search and connect at each layer from min(node_level, entry_level) down.
        let mut entry_points = vec![Neighbor::new(curr_dist, curr)];
        for layer in (0..=node_level.min(entry_level)).rev() {
            let found = self.search_layer_build(data, query, &entry_points, layer, visited);
            let m_max = if layer == 0 {
                self.params.m_max0
            } else {
                self.params.m
            };
            let selected = self.select_neighbors(data, node, &found, self.params.m);
            for &nb in &selected {
                self.links[layer][node].push(nb);
                self.links[layer][nb].push(node);
                if self.links[layer][nb].len() > m_max {
                    // Shrink with the same heuristic.
                    let cands: Vec<Neighbor> = self.links[layer][nb]
                        .iter()
                        .map(|&x| Neighbor::new(data.distance_to(x, data.vector(nb)), x))
                        .collect();
                    let kept = self.select_neighbors(data, nb, &cands, m_max);
                    self.links[layer][nb] = kept;
                }
            }
            entry_points = found;
        }
    }

    /// Construction-time beam search on one layer with exact distances.
    fn search_layer_build(
        &self,
        data: &Dataset,
        query: &[f32],
        entries: &[Neighbor],
        layer: usize,
        visited: &mut VisitedSet,
    ) -> Vec<Neighbor> {
        visited.clear();
        let ef = self.params.ef_construction;
        let mut candidates = MinDistHeap::new();
        let mut results = MaxDistHeap::new(ef);
        for &e in entries {
            if visited.insert(e.id) {
                candidates.push(e);
                results.push(e);
            }
        }
        while let Some(c) = candidates.pop() {
            if c.dist > results.threshold() {
                break;
            }
            for &nb in &self.links[layer][c.id] {
                if !visited.insert(nb) {
                    continue;
                }
                let d = data.distance_to(nb, query);
                if d < results.threshold() {
                    let n = Neighbor::new(d, nb);
                    candidates.push(n);
                    results.push(n);
                }
            }
        }
        results.into_sorted()
    }

    /// Malkov's distance-based neighbor selection heuristic: take
    /// candidates in ascending distance, keeping one only if it is closer
    /// to the new node than to every already-kept neighbor (encourages
    /// diverse directions).
    fn select_neighbors(
        &self,
        data: &Dataset,
        node: usize,
        candidates: &[Neighbor],
        m: usize,
    ) -> Vec<usize> {
        let mut sorted: Vec<Neighbor> = candidates.to_vec();
        sorted.sort();
        let mut kept: Vec<usize> = Vec::with_capacity(m);
        for c in &sorted {
            if c.id == node {
                continue;
            }
            if kept.len() >= m {
                break;
            }
            let c_vec = data.vector(c.id);
            let d_cq = data.metric().distance(c_vec, data.vector(node));
            let ok = kept
                .iter()
                .all(|&r| d_cq < data.metric().distance(c_vec, data.vector(r)));
            if ok {
                kept.push(c.id);
            }
        }
        // Fill remaining slots with nearest unkept candidates (hnswlib's
        // keepPruned behavior) so low-degree nodes stay connected.
        if kept.len() < m {
            for c in &sorted {
                if kept.len() >= m {
                    break;
                }
                if c.id != node && !kept.contains(&c.id) {
                    kept.push(c.id);
                }
            }
        }
        kept
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
                for &nb in &self.links[layer][curr] {
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
            for &nb in &self.links[0][c.id] {
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
    pub fn neighbors(&self, layer: usize, node: usize) -> &[usize] {
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
    /// index obeys the same degree bounds as a rebuilt one. Returns the
    /// new node's id.
    ///
    /// # Panics
    ///
    /// Panics if `data` does not hold exactly one vector beyond the
    /// indexed prefix.
    pub fn insert_point(
        &mut self,
        data: &Dataset,
        level: usize,
        visited: &mut VisitedSet,
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
        visited.grow(node + 1);
        self.insert(data, node, visited);
        if level > self.levels[self.entry] {
            self.entry = node;
        }
        node
    }

    /// Detach `node` from the graph (tombstone purge): every link to it
    /// is removed and the holes are bridged by re-running the neighbor
    /// selection heuristic over each affected node's surviving links plus
    /// the removed node's other neighbors. `alive[i]` marks ids that are
    /// still servable (bridges never route through other tombstones).
    ///
    /// The node's id stays allocated — its vector remains in `data` so
    /// ids are stable — but it becomes unreachable from any search.
    ///
    /// # Panics
    ///
    /// Panics if `node` is the entry point and no alive node remains to
    /// take over as entry.
    pub fn unlink(&mut self, data: &Dataset, node: usize, alive: &[bool]) {
        let node_level = self.levels[node];
        for layer in 0..=node_level {
            let own = std::mem::take(&mut self.links[layer][node]);
            let m_max = if layer == 0 {
                self.params.m_max0
            } else {
                self.params.m
            };
            // The graph is directed after overflow shrinking, so the
            // nodes linking *to* `node` are a superset of its own list:
            // sweep the whole layer (compaction-time cost, not serve-time).
            let mut affected: Vec<usize> = Vec::new();
            for (i, lnk) in self.links[layer].iter_mut().enumerate() {
                if let Some(pos) = lnk.iter().position(|&x| x == node) {
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
                let mut pool: Vec<usize> = self.links[layer][nb].clone();
                for &x in &own {
                    if x != nb && alive[x] && !pool.contains(&x) {
                        pool.push(x);
                    }
                }
                let nb_vec = data.vector(nb);
                let cands: Vec<Neighbor> = pool
                    .iter()
                    .map(|&x| Neighbor::new(data.distance_to(x, nb_vec), x))
                    .collect();
                self.links[layer][nb] = self.select_neighbors(data, nb, &cands, m_max);
            }
        }
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

    /// Reassemble an index from snapshot parts.
    ///
    /// # Panics
    ///
    /// Panics if the parts are structurally inconsistent (layer widths,
    /// entry out of range, entry below the top occupied layer).
    pub fn from_parts(
        links: Vec<Vec<Vec<usize>>>,
        levels: Vec<usize>,
        entry: usize,
        params: HnswParams,
    ) -> Self {
        assert!(!levels.is_empty(), "snapshot holds an empty HNSW");
        assert!(
            links.iter().all(|layer| layer.len() == levels.len()),
            "snapshot layer width does not match node count"
        );
        assert!(entry < levels.len(), "snapshot entry point out of range");
        assert!(
            levels[entry] < links.len(),
            "snapshot entry level exceeds layer count"
        );
        Hnsw {
            links,
            levels,
            entry,
            params,
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
        assert!(HnswParams::default().check_levels().is_ok());
        let with = |m, level_mult| HnswParams {
            m,
            level_mult,
            ..HnswParams::default()
        };
        // 1 / ln 2 draws at most level 51.
        assert!(with(2, None).check_levels().is_ok());
        for bad in [
            with(1, None),
            with(16, Some(-1.0)),
            with(16, Some(f64::NAN)),
            with(16, Some(2.0)),
        ] {
            let e = bad.check_levels().expect_err("out-of-range levels");
            assert!(e.contains("level multiplier"), "{e}");
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
        let mut visited = VisitedSet::new(data.len());
        for i in 400..500 {
            let id = data.push_vector(full.vector(i));
            assert_eq!(id, i);
            let level = p.sample_level(&mut rng);
            assert_eq!(hnsw.insert_point(&data, level, &mut visited), i);
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
        hnsw.unlink(&data, victim, &alive);
        for layer in 0..hnsw.layer_count() {
            assert!(hnsw.neighbors(layer, victim).is_empty());
            for node in 0..data.len() {
                assert!(
                    !hnsw.neighbors(layer, node).contains(&victim),
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
        hnsw.unlink(&data, e, &alive);
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
            .map(|l| (0..a.len()).map(|n| a.neighbors(l, n).to_vec()).collect())
            .collect();
        let b = Hnsw::from_parts(
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
