//! Scatter-gather routing with cross-shard early-termination bound
//! propagation, scheduled on the unified event wheel.
//!
//! One query fans out to its relevant shards (all of them under hash
//! routing; centroid-distance order under k-means, with provably
//! irrelevant shards skipped outright). Each visited shard replays its
//! functional trace hop by hop through its own ANSMET [`EtEngine`]; as
//! hops complete, their candidates stream into the global top-k and
//! tighten the ET thresholds of *still-running* shards. The timing is
//! a single [`EventWheel`] per query — shard wakeups pop in `(cycle,
//! shard id)` order, so the interleaving (and therefore every byte of
//! the report) is a pure function of the inputs. Each visited shard
//! prepares the query once for its engine ([`EtEngine::prepare`]) and
//! evaluates every comparison of the visit through it.
//!
//! # Soundness of the tightened thresholds
//!
//! Shard `s`'s replay uses `threshold = min(trace threshold,
//! foreign_bound(s))`, where `foreign_bound(s)` is strictly above the
//! kth distance among candidates streamed from *other* shards (see
//! [`GlobalTopK::safe_bound`]). That kth never goes below the final
//! global kth distance, and the ANSMET engine only prunes when the true
//! distance provably reaches the threshold — so no member of the final
//! global top-k can ever be pruned. The router re-verifies the claim at
//! runtime instead of trusting it: `et_mismatches` counts (a) pruned
//! evaluations whose recorded true distance was below the threshold in
//! force, (b) base-layer or list-scan evaluations that were pruned yet
//! whose id appears in the final merged top-k, and (c) any divergence
//! between the merged result over visited shards and the reference merge
//! over *all* shards. Check (b) skips upper-layer hops: greedy descent
//! prunes against the current best distance, so the base layer may later
//! accept the same vector legitimately.

use ansmet_core::{EtEngine, EtQuery};
use ansmet_host::CYCLES_PER_LINE;
use ansmet_index::{HopKind, Neighbor};
use ansmet_obs::{EventKind, TraceSink};
use ansmet_sim::EventWheel;
use ansmet_vecdata::Metric;

use crate::merge::{merge_partials, GlobalTopK};
use crate::partition::RoutingPolicy;
use crate::serving::{ClusterFleet, DispatchPath};
use crate::shard::ShardSet;

/// Router cost-model and fan-out knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    /// Shard fan-out lanes: at most this many shards in flight per
    /// query (models the host's scatter-gather issue width).
    pub max_concurrent_shards: usize,
    /// Fixed cycles per hop (task dispatch plus host-side heap and
    /// traversal work between dependency barriers).
    pub hop_overhead_cycles: u64,
    /// Cycles per 64 B transformed-layout line on the NDP path.
    pub cycles_per_line: u64,
    /// Cycles per candidate folded into the final global top-k merge.
    pub merge_cycles_per_candidate: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            max_concurrent_shards: 4,
            hop_overhead_cycles: 300,
            cycles_per_line: 12,
            merge_cycles_per_candidate: 32,
        }
    }
}

/// Everything one routed query produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryOutcome {
    /// The merged global top-k (closest first, id tie-break).
    pub merged: Vec<Neighbor>,
    /// Scatter → merge completion, in memory cycles.
    pub latency_cycles: u64,
    /// Shards that actually replayed their trace.
    pub shards_visited: usize,
    /// Shards proven irrelevant by the ball bound and never dispatched.
    pub shards_skipped: usize,
    /// Distance comparisons replayed across all visited shards.
    pub evals: u64,
    /// Comparisons the (tightened) ET engine pruned.
    pub pruned_evals: u64,
    /// NDP-path 64 B lines fetched with cross-shard bound propagation.
    pub ndp_lines_with_bound: u64,
    /// NDP-path lines the same evals cost at their local trace
    /// thresholds (the no-propagation baseline).
    pub ndp_lines_independent: u64,
    /// Natural-layout lines fetched by host-fallback shard visits.
    pub host_lines: u64,
    /// Shard visits served by a replica group.
    pub replica_dispatches: u64,
    /// Shard visits served by the host's exact path.
    pub host_dispatches: u64,
    /// Timeout / redirect penalty cycles paid before first hops.
    pub penalty_cycles: u64,
    /// Soundness violations detected (must stay 0; see module docs).
    pub et_mismatches: u64,
}

impl QueryOutcome {
    /// Lines saved by cross-shard bound propagation on the NDP path.
    pub fn saved_lines(&self) -> u64 {
        self.ndp_lines_independent
            .saturating_sub(self.ndp_lines_with_bound)
    }
}

/// Running totals over a stream of routed queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Queries routed.
    pub queries: u64,
    /// Sum of per-query latencies.
    pub latency_total: u64,
    /// Worst per-query latency.
    pub max_latency: u64,
    /// Total shard visits.
    pub shards_visited: u64,
    /// Total ball-bound shard skips.
    pub shards_skipped: u64,
    /// Total comparisons replayed.
    pub evals: u64,
    /// Total pruned comparisons.
    pub pruned_evals: u64,
    /// Total NDP lines with bound propagation.
    pub ndp_lines_with_bound: u64,
    /// Total NDP lines at local thresholds (baseline).
    pub ndp_lines_independent: u64,
    /// Total host-fallback natural-layout lines.
    pub host_lines: u64,
    /// Total replica-served shard visits.
    pub replica_dispatches: u64,
    /// Total host-served shard visits.
    pub host_dispatches: u64,
    /// Total penalty cycles.
    pub penalty_cycles: u64,
    /// Total soundness violations (must stay 0).
    pub et_mismatches: u64,
}

impl RouterStats {
    /// Fold one query's outcome into the totals.
    pub fn absorb(&mut self, o: &QueryOutcome) {
        self.queries += 1;
        self.latency_total += o.latency_cycles;
        self.max_latency = self.max_latency.max(o.latency_cycles);
        self.shards_visited += o.shards_visited as u64;
        self.shards_skipped += o.shards_skipped as u64;
        self.evals += o.evals;
        self.pruned_evals += o.pruned_evals;
        self.ndp_lines_with_bound += o.ndp_lines_with_bound;
        self.ndp_lines_independent += o.ndp_lines_independent;
        self.host_lines += o.host_lines;
        self.replica_dispatches += o.replica_dispatches;
        self.host_dispatches += o.host_dispatches;
        self.penalty_cycles += o.penalty_cycles;
        self.et_mismatches += o.et_mismatches;
    }

    /// Fraction of baseline NDP lines eliminated by cross-shard bound
    /// propagation (0 when nothing ran on the NDP path).
    pub fn bound_saved_frac(&self) -> f64 {
        if self.ndp_lines_independent == 0 {
            0.0
        } else {
            1.0 - self.ndp_lines_with_bound as f64 / self.ndp_lines_independent as f64
        }
    }

    /// Mean per-query latency in cycles.
    pub fn mean_latency_cycles(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.latency_total as f64 / self.queries as f64
        }
    }

    /// Fraction of comparisons pruned by the (tightened) ET engine.
    pub fn pruned_frac(&self) -> f64 {
        if self.evals == 0 {
            0.0
        } else {
            self.pruned_evals as f64 / self.evals as f64
        }
    }
}

impl std::fmt::Display for RouterStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "queries={} mean_latency={:.0}cy visited={} skipped={} \
             saved_frac={:.4} pruned_frac={:.4} mismatches={}",
            self.queries,
            self.mean_latency_cycles(),
            self.shards_visited,
            self.shards_skipped,
            self.bound_saved_frac(),
            self.pruned_frac(),
            self.et_mismatches
        )
    }
}

/// Relative slack on the ball-bound skip test, absorbing the f32
/// rounding between the centroid distance (computed in f32 by the
/// metric kernel) and the f64 radii.
const SKIP_MARGIN: f64 = 1e-5;

/// In-flight state of one shard's visit.
#[derive(Debug)]
struct Run {
    path: DispatchPath,
    next_hop: usize,
    /// Candidates from the hop that finishes at the next wakeup,
    /// published to the global/foreign accumulators at that instant.
    pending: Vec<Neighbor>,
}

/// The scatter-gather router: per-shard ANSMET engines plus the
/// cost-model configuration, reused across queries.
pub struct Router<'a> {
    set: &'a ShardSet,
    cfg: RouterConfig,
    engines: Vec<EtEngine<'a>>,
}

impl<'a> Router<'a> {
    /// Build one ET engine per shard over the shard set.
    pub fn new(set: &'a ShardSet, cfg: RouterConfig) -> Self {
        let engines = set
            .shards
            .iter()
            .map(|s| EtEngine::new(&s.workload.data, s.et.clone()))
            .collect();
        Router { set, cfg, engines }
    }

    /// The router configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// Route query `qi` through the fleet: scatter to shards, replay
    /// hops with tightened thresholds, merge, and verify soundness.
    pub fn route<S: TraceSink>(
        &mut self,
        qi: usize,
        fleet: &mut ClusterFleet,
        sink: &mut S,
    ) -> QueryOutcome {
        let set = self.set;
        let cfg = &self.cfg;
        let n_shards = set.len();
        let k = set.k;
        let query = &set.queries[qi];
        let metric = set.shards[0].workload.data.metric();

        let order: Vec<usize> = match set.assignment.policy {
            RoutingPolicy::Hash => (0..n_shards).collect(),
            RoutingPolicy::KMeans => set.assignment.ranked_by_centroid(metric, query),
        };

        let mut out = QueryOutcome::default();
        let mut runs: Vec<Option<Run>> = (0..n_shards).map(|_| None).collect();
        // The query prepared for each shard's engine, on its first NDP hop.
        let mut prepared: Vec<Option<EtQuery<'_, '_>>> = (0..n_shards).map(|_| None).collect();
        let mut global = GlobalTopK::new(k);
        let mut foreign: Vec<GlobalTopK> = (0..n_shards).map(|_| GlobalTopK::new(k)).collect();
        let mut wheel = EventWheel::new(0);
        let mut next_idx = 0usize;
        let mut inflight = 0usize;
        let mut visited: Vec<usize> = Vec::new();
        let mut pruned_ids: Vec<usize> = Vec::new();
        let mut max_finish = 0u64;

        fill_lanes(
            set,
            cfg,
            metric,
            query,
            &order,
            0,
            &mut next_idx,
            &mut inflight,
            &mut runs,
            &global,
            &mut wheel,
            fleet,
            &mut out,
            sink,
        );

        while let Some(w) = wheel.pop_next() {
            let s = w.token as usize;
            let c = w.cycle;
            // Publish the hop that just finished: its candidates enter
            // the global top-k and every *other* shard's foreign bound.
            let run = runs[s].as_mut().expect("scheduled shard has a run");
            for n in run.pending.drain(..) {
                global.offer(n);
                for (t, f) in foreign.iter_mut().enumerate() {
                    if t != s {
                        f.offer(n);
                    }
                }
            }
            let shard = &set.shards[s];
            let trace = &shard.workload.traces[qi];
            if run.next_hop >= trace.hops.len() {
                // Shard visit complete: free the lane and dispatch the
                // next ranked shard, which now sees the tightened heap.
                inflight -= 1;
                visited.push(s);
                max_finish = max_finish.max(c);
                sink.sample(c, "cluster.inflight_shards", inflight as u64);
                fill_lanes(
                    set,
                    cfg,
                    metric,
                    query,
                    &order,
                    c,
                    &mut next_idx,
                    &mut inflight,
                    &mut runs,
                    &global,
                    &mut wheel,
                    fleet,
                    &mut out,
                    sink,
                );
                continue;
            }
            let hop = &trace.hops[run.next_hop];
            run.next_hop += 1;
            out.evals += hop.evals.len() as u64;
            let duration = match run.path {
                DispatchPath::HostFallback => {
                    // Host exact path: natural layout, no early
                    // termination, no bound savings.
                    let lines = shard.workload.data.vector_lines() as u64 * hop.evals.len() as u64;
                    out.host_lines += lines;
                    for eval in &hop.evals {
                        run.pending
                            .push(Neighbor::new(eval.distance, shard.global_id(eval.id)));
                    }
                    cfg.hop_overhead_cycles + lines * CYCLES_PER_LINE
                }
                DispatchPath::Primary | DispatchPath::Replica(_) => {
                    let mut hop_lines = 0u64;
                    let mut hop_saved = 0u64;
                    let et = prepared[s].get_or_insert_with(|| {
                        self.engines[s]
                            .prepare(query)
                            .expect("shard queries match the shard data")
                    });
                    for eval in &hop.evals {
                        let fb = foreign[s].safe_bound();
                        // A tightened evaluation also prices the trace
                        // threshold, from the same walk of its bounds.
                        let (threshold_used, cost, independent) = if fb < eval.threshold {
                            let [cost, baseline] = et.evaluate_pair(eval.id, [fb, eval.threshold]);
                            (fb, cost, baseline.total_lines() as u64)
                        } else {
                            let cost = et.evaluate(eval.id, eval.threshold);
                            (eval.threshold, cost, cost.total_lines() as u64)
                        };
                        let with_bound = cost.total_lines() as u64;
                        hop_lines += with_bound;
                        hop_saved += independent.saturating_sub(with_bound);
                        out.ndp_lines_with_bound += with_bound;
                        out.ndp_lines_independent += independent;
                        if cost.pruned {
                            out.pruned_evals += 1;
                            // Only final-result hops feed check (b)
                            // (see the module docs).
                            if matches!(hop.kind, HopKind::BaseLayer | HopKind::ListScan) {
                                pruned_ids.push(shard.global_id(eval.id));
                            }
                            // Soundness (a): a pruned comparison's true
                            // distance must be at or above the
                            // threshold that was in force.
                            if eval.distance < threshold_used {
                                out.et_mismatches += 1;
                            }
                        }
                        run.pending
                            .push(Neighbor::new(eval.distance, shard.global_id(eval.id)));
                    }
                    if hop_saved > 0 {
                        sink.event(
                            c,
                            EventKind::BoundPropagated {
                                shard: s as u32,
                                saved_lines: hop_saved.min(u32::MAX as u64) as u32,
                            },
                        );
                        sink.counter("cluster.saved_lines", hop_saved);
                    }
                    cfg.hop_overhead_cycles + hop_lines * cfg.cycles_per_line
                }
            };
            wheel.schedule(c + duration, s as u32);
        }

        // Merge the visited shards' functional partials; verify against
        // the reference merge over *all* shards (soundness (c): ball
        // skips must never change the answer). Each shard's partial is
        // computed once; the merge does not depend on order.
        let mut partials: Vec<Vec<Neighbor>> =
            (0..n_shards).map(|s| set.shard_partial(s, qi)).collect();
        let reference = merge_partials(k, &partials);
        let visited_partials: Vec<Vec<Neighbor>> = visited
            .iter()
            .map(|&s| std::mem::take(&mut partials[s]))
            .collect();
        let merged = merge_partials(k, &visited_partials);
        if merged != reference {
            out.et_mismatches += 1;
        }
        // Soundness (b): a pruned comparison must never be a member of
        // the final global top-k.
        for n in &merged {
            if pruned_ids.contains(&n.id) {
                out.et_mismatches += 1;
            }
        }
        let candidates: u64 = visited_partials.iter().map(|p| p.len() as u64).sum();
        out.latency_cycles = max_finish + cfg.merge_cycles_per_candidate * candidates;
        out.shards_visited = visited.len();
        out.merged = merged;
        out
    }
}

impl std::fmt::Debug for Router<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("shards", &self.set.len())
            .field("cfg", &self.cfg)
            .finish()
    }
}

/// Fill free fan-out lanes starting at `cycle`: walk the remaining
/// ranked shards, ball-skip the provably irrelevant ones, route the
/// rest through the fleet, and schedule their first wakeups.
#[allow(clippy::too_many_arguments)]
fn fill_lanes<S: TraceSink>(
    set: &ShardSet,
    cfg: &RouterConfig,
    metric: Metric,
    query: &[f32],
    order: &[usize],
    cycle: u64,
    next_idx: &mut usize,
    inflight: &mut usize,
    runs: &mut [Option<Run>],
    global: &GlobalTopK,
    wheel: &mut EventWheel,
    fleet: &mut ClusterFleet,
    out: &mut QueryOutcome,
    sink: &mut S,
) {
    while *inflight < cfg.max_concurrent_shards.max(1) && *next_idx < order.len() {
        let s = order[*next_idx];
        *next_idx += 1;
        // Ball-bound skip: sound only once the global heap is full (the
        // kth distance is then an upper bound on the final kth, which
        // only tightens as more candidates merge).
        if global.len() >= set.k {
            if let Some(lb) = set.assignment.ball_lower_bound(metric, s, query) {
                let kth = global.kth() as f64;
                if lb > kth * (1.0 + SKIP_MARGIN) + SKIP_MARGIN {
                    out.shards_skipped += 1;
                    sink.event(cycle, EventKind::ShardSkipped { shard: s as u32 });
                    sink.counter("cluster.shards_skipped", 1);
                    continue;
                }
            }
        }
        let (path, penalty) = fleet.dispatch(s, cycle, sink);
        out.penalty_cycles += penalty;
        match path {
            DispatchPath::Replica(_) => out.replica_dispatches += 1,
            DispatchPath::HostFallback => out.host_dispatches += 1,
            DispatchPath::Primary => {}
        }
        runs[s] = Some(Run {
            path,
            next_hop: 0,
            pending: Vec::new(),
        });
        *inflight += 1;
        sink.sample(cycle, "cluster.inflight_shards", *inflight as u64);
        wheel.schedule(cycle + penalty, s as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ansmet_faults::StormPlan;
    use ansmet_obs::NoopSink;
    use ansmet_vecdata::SynthSpec;

    fn build(shards: usize, policy: RoutingPolicy) -> ShardSet {
        let (data, queries) = SynthSpec::sift().scaled(400, 4).generate();
        ShardSet::build(&data, &queries, 10, 40, shards, policy, 7)
    }

    fn route_all(set: &ShardSet, fleet: &mut ClusterFleet) -> (RouterStats, Vec<Vec<Neighbor>>) {
        let mut router = Router::new(set, RouterConfig::default());
        let mut stats = RouterStats::default();
        let mut merged = Vec::new();
        for qi in 0..set.queries.len() {
            let o = router.route(qi, fleet, &mut NoopSink);
            stats.absorb(&o);
            merged.push(o.merged);
        }
        (stats, merged)
    }

    #[test]
    fn hash_routing_is_sound_and_saves_lines() {
        let set = build(3, RoutingPolicy::Hash);
        let (stats, merged) = route_all(&set, &mut ClusterFleet::healthy(3));
        assert_eq!(stats.et_mismatches, 0);
        assert_eq!(stats.shards_visited, 3 * set.queries.len() as u64);
        assert!(
            stats.ndp_lines_with_bound < stats.ndp_lines_independent,
            "cross-shard bounds must save lines: {} vs {}",
            stats.ndp_lines_with_bound,
            stats.ndp_lines_independent
        );
        // The merged set matches a flat merge of all shard partials.
        for (qi, m) in merged.iter().enumerate() {
            let all: Vec<Vec<Neighbor>> =
                (0..set.len()).map(|s| set.shard_partial(s, qi)).collect();
            assert_eq!(*m, merge_partials(set.k, &all));
            assert_eq!(m.len(), set.k);
        }
    }

    #[test]
    fn upper_layer_prunes_never_count_as_mismatches() {
        // Greedy upper-layer descent prunes against the current best, so
        // a vector it prunes can legitimately enter the base layer's
        // result. This configuration has such a vector; it must not
        // count toward check (b).
        let (data, queries) = SynthSpec::sift().scaled(1_000, 32).with_seed(7).generate();
        for (shards, policy) in [(4, RoutingPolicy::Hash), (8, RoutingPolicy::KMeans)] {
            let set = ShardSet::build(&data, &queries, 10, 40, shards, policy, 7);
            let (stats, _) = route_all(&set, &mut ClusterFleet::healthy(shards));
            assert_eq!(stats.et_mismatches, 0, "{shards} {policy:?} shards");
        }
    }

    #[test]
    fn inner_product_routing_is_sound() {
        // Inner-product distances are negative, so the foreign bound must
        // step toward +∞ from a negative kth.
        let (data, queries) = SynthSpec::glove().scaled(400, 8).generate();
        for policy in [RoutingPolicy::Hash, RoutingPolicy::KMeans] {
            let set = ShardSet::build(&data, &queries, 10, 40, 4, policy, 7);
            let (stats, merged) = route_all(&set, &mut ClusterFleet::healthy(4));
            assert_eq!(stats.et_mismatches, 0, "{policy:?}");
            assert!(stats.pruned_evals > 0, "{policy:?}: the bound engaged");
            for (qi, m) in merged.iter().enumerate() {
                let all: Vec<Vec<Neighbor>> =
                    (0..set.len()).map(|s| set.shard_partial(s, qi)).collect();
                assert_eq!(*m, merge_partials(set.k, &all), "{policy:?} query {qi}");
            }
        }
    }

    #[test]
    fn single_shard_has_no_foreign_bound_savings() {
        let set = build(1, RoutingPolicy::Hash);
        let (stats, _) = route_all(&set, &mut ClusterFleet::healthy(1));
        assert_eq!(stats.et_mismatches, 0);
        assert_eq!(
            stats.ndp_lines_with_bound, stats.ndp_lines_independent,
            "S=1 has no foreign candidates, so no tightening"
        );
        assert_eq!(stats.shards_skipped, 0);
    }

    #[test]
    fn kmeans_skips_never_change_the_answer() {
        let set = build(4, RoutingPolicy::KMeans);
        let (stats, merged) = route_all(&set, &mut ClusterFleet::healthy(4));
        assert_eq!(stats.et_mismatches, 0, "skips and bounds stay lossless");
        for (qi, m) in merged.iter().enumerate() {
            let all: Vec<Vec<Neighbor>> =
                (0..set.len()).map(|s| set.shard_partial(s, qi)).collect();
            assert_eq!(*m, merge_partials(set.k, &all));
        }
    }

    #[test]
    fn routing_is_deterministic_across_router_instances() {
        let set = build(4, RoutingPolicy::Hash);
        let (a, merged_a) = route_all(&set, &mut ClusterFleet::healthy(4));
        let (b, merged_b) = route_all(&set, &mut ClusterFleet::healthy(4));
        assert_eq!(a, b);
        assert_eq!(merged_a, merged_b);
    }

    #[test]
    fn lane_limit_serializes_the_fan_out() {
        let set = build(4, RoutingPolicy::Hash);
        let mut wide = Router::new(&set, RouterConfig::default());
        let mut narrow = Router::new(
            &set,
            RouterConfig {
                max_concurrent_shards: 1,
                ..RouterConfig::default()
            },
        );
        let w = wide.route(0, &mut ClusterFleet::healthy(4), &mut NoopSink);
        let n = narrow.route(0, &mut ClusterFleet::healthy(4), &mut NoopSink);
        assert_eq!(w.merged, n.merged, "lanes change timing, not answers");
        assert!(
            n.latency_cycles > w.latency_cycles,
            "serialized visits must be slower: {} vs {}",
            n.latency_cycles,
            w.latency_cycles
        );
    }

    #[test]
    fn router_surfaces_events_and_counters_through_the_sink() {
        #[derive(Default)]
        struct Capture {
            bound_events: u64,
            saved_lines: u64,
            inflight_samples: u64,
        }
        impl TraceSink for Capture {
            fn enabled(&self) -> bool {
                true
            }
            fn event(&mut self, _cycle: u64, kind: EventKind) {
                if matches!(kind, EventKind::BoundPropagated { .. }) {
                    self.bound_events += 1;
                }
            }
            fn counter(&mut self, name: &'static str, delta: u64) {
                if name == "cluster.saved_lines" {
                    self.saved_lines += delta;
                }
            }
            fn sample(&mut self, _cycle: u64, name: &'static str, _value: u64) {
                if name == "cluster.inflight_shards" {
                    self.inflight_samples += 1;
                }
            }
        }

        let set = build(3, RoutingPolicy::Hash);
        let mut router = Router::new(&set, RouterConfig::default());
        let mut fleet = ClusterFleet::healthy(3);
        let mut sink = Capture::default();
        let mut saved = 0u64;
        for qi in 0..set.queries.len() {
            saved += router.route(qi, &mut fleet, &mut sink).saved_lines();
        }
        assert!(
            sink.bound_events > 0,
            "bound propagation must be observable"
        );
        assert_eq!(sink.saved_lines, saved, "counter mirrors the outcome");
        assert!(sink.inflight_samples > 0, "queue depth is sampled");
    }

    /// Every field of every `QueryOutcome`, in query order.
    fn outcomes_fingerprint(set: &ShardSet, fleet: &mut ClusterFleet) -> u64 {
        let mut router = Router::new(set, RouterConfig::default());
        let mut fp = ansmet_obs::Fnv64::new();
        for qi in 0..set.queries.len() {
            let o = router.route(qi, fleet, &mut NoopSink);
            fleet.advance(o.latency_cycles);
            for n in &o.merged {
                fp.write_u64(n.id as u64);
                fp.write_u64(u64::from(n.dist.to_bits()));
            }
            for v in [
                o.latency_cycles,
                o.shards_visited as u64,
                o.shards_skipped as u64,
                o.evals,
                o.pruned_evals,
                o.ndp_lines_with_bound,
                o.ndp_lines_independent,
                o.host_lines,
                o.replica_dispatches,
                o.host_dispatches,
                o.penalty_cycles,
                o.et_mismatches,
            ] {
                fp.write_u64(v);
            }
        }
        fp.finish()
    }

    /// The router's outcomes equal those of the router that evaluated
    /// every comparison from the query slice, before each visited shard
    /// prepared its query: the fingerprints were recorded from that
    /// router. The cases cover L2 and inner product, plain, normal and
    /// outlier vectors, hash and k-means routing, and a dark shard.
    #[test]
    fn outcomes_match_the_query_slice_router() {
        let cases = [
            (
                "sift hash 3",
                SynthSpec::sift(),
                3,
                RoutingPolicy::Hash,
                false,
                11_715_242_259_234_116_552,
            ),
            (
                "sift kmeans 4",
                SynthSpec::sift(),
                4,
                RoutingPolicy::KMeans,
                false,
                16_442_580_496_009_629_177,
            ),
            (
                "sift hash 4 storm",
                SynthSpec::sift(),
                4,
                RoutingPolicy::Hash,
                true,
                8_629_489_785_760_265_015,
            ),
            (
                "deep kmeans 4",
                SynthSpec::deep(),
                4,
                RoutingPolicy::KMeans,
                false,
                15_639_543_265_690_072_073,
            ),
            (
                "spacev hash 4",
                SynthSpec::spacev(),
                4,
                RoutingPolicy::Hash,
                false,
                15_718_622_983_828_664_940,
            ),
            (
                "glove hash 4",
                SynthSpec::glove(),
                4,
                RoutingPolicy::Hash,
                false,
                10_127_829_938_966_374_086,
            ),
        ];
        let mut prefixed = 0;
        for (name, spec, shards, policy, storm, want) in cases {
            let (data, queries) = spec.scaled(400, 6).generate();
            let set = ShardSet::build(&data, &queries, 10, 40, shards, policy, 7);
            prefixed += set
                .shards
                .iter()
                .filter(|s| s.et.prefix.as_ref().is_some_and(|p| !p.is_disabled()))
                .count();
            let mut fleet = if storm {
                let outage = StormPlan::single_group_outage(0, 0, u64::MAX);
                ClusterFleet::new(shards, crate::serving::FleetConfig::default(), outage)
            } else {
                ClusterFleet::healthy(shards)
            };
            let got = outcomes_fingerprint(&set, &mut fleet);
            assert_eq!(got, want, "{name}");
        }
        assert!(prefixed > 0, "some shard eliminates a common prefix");
    }

    #[test]
    fn storm_failover_keeps_results_identical() {
        let set = build(4, RoutingPolicy::Hash);
        let (healthy, merged_h) = route_all(&set, &mut ClusterFleet::healthy(4));
        let storm = StormPlan::single_group_outage(0, 0, u64::MAX);
        let mut fleet = ClusterFleet::new(4, crate::serving::FleetConfig::default(), storm);
        let (stormy, merged_s) = route_all(&set, &mut fleet);
        assert_eq!(merged_h, merged_s, "failover must not change answers");
        assert_eq!(stormy.et_mismatches, 0);
        assert!(
            stormy.replica_dispatches > 0,
            "shard 0 reroutes to a replica"
        );
        assert!(stormy.penalty_cycles > healthy.penalty_cycles);
    }
}
