//! Multi-stream throughput simulation.
//!
//! [`run_design`](crate::timing::run_design) measures single-query
//! latency: one search thread, one hop in flight. Real deployments run
//! one query per host core (Table 1: 16 cores), so the rank-level
//! parallelism of many NDP units is only exercised when several queries'
//! comparison batches are in flight together — which is where the
//! paper's Table 3 scaling (8 → 64 units) comes from.
//!
//! This module models that regime with *wave scheduling*: up to
//! `streams` queries progress in lock-step; each wave merges one hop
//! from every active query into a single NDP batch executed on the
//! shared memory system. Host-side costs of different streams run on
//! different cores, and waves in a real system are de-synchronized, so a
//! wave charges the mean of its streams' serial host work, not their sum.
//!
//! How many lines a comparison fetches per rank depends only on its
//! query, so a [`WaveContext`] evaluates early termination once per
//! query and comparison: the query's first execution fills its plan, and
//! every later execution in the same context reads it.

use std::sync::OnceLock;

use ansmet_core::NoopEtObserver;
use ansmet_dram::MemorySystem;
use ansmet_index::HopKind;
use ansmet_ndp::{LoadTracker, Partitioner};

use ansmet_obs::{NoopSink, TraceSink};

use crate::config::SystemConfig;
use crate::design::Design;
use crate::timing::{row_buffer_delta, run_ndp_batch, BatchScratch, RunPrep, SubTask};
use crate::workload::Workload;

/// Result of a throughput run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputResult {
    /// The design simulated.
    pub design: Design,
    /// Wall-clock memory cycles to finish every query.
    pub total_cycles: u64,
    /// Number of queries completed.
    pub queries: usize,
    /// Concurrent streams used.
    pub streams: usize,
}

impl ThroughputResult {
    /// Queries per second at `mem_clock_mhz`.
    pub fn qps(&self, mem_clock_mhz: u64) -> f64 {
        let secs = self.total_cycles as f64 / (mem_clock_mhz as f64 * 1e6);
        self.queries as f64 / secs.max(1e-12)
    }
}

/// Cycle accounting for one executed wave batch.
///
/// Returned by [`WaveContext::execute_with_sink`]: `total_cycles` is how
/// long the batch occupied the NDP device, and `per_query_cycles[i]` is
/// the cycle (relative to batch start) at which the `i`-th query of the
/// batch retired — its last hop's wave closed and its results were polled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchExecution {
    /// Device-occupancy cycles for the whole batch.
    pub total_cycles: u64,
    /// Per-query retire cycle, aligned with the `query_ids` argument.
    pub per_query_cycles: Vec<u64>,
}

/// Prepared wave-model state for one `(design, workload, config)`
/// triple, reusable across many batches.
///
/// The offline throughput experiment runs one big batch over the whole
/// workload; the online serving layer (`ansmet-serve`) forms small
/// dynamic batches from queued arrivals and executes each through
/// [`WaveContext::execute_with_sink`]. Each execution replays the batch on
/// fresh memory/NDP state, so a batch's cost depends only on its member
/// queries — never on what the device ran before. That independence is
/// the serving determinism contract.
///
/// The context is the latency replay's prep: both executors plan every
/// comparison through the same planner and differ only in what they charge.
/// It also holds one early-termination plan per query, filled on the
/// query's first execution. A plan is a pure function of its query, so
/// reading it changes no batch's cost.
pub struct WaveContext<'a> {
    prep: RunPrep<'a>,
    /// One plan per trace of the workload.
    plans: Vec<OnceLock<QueryPlan>>,
}

/// What the wave reads of one query's comparisons: the lines each chunk
/// fetches and the backup lines, in trace order. Centroid hops, which the
/// host computes, hold no entries.
///
/// `resumed` is not kept: the wave does not charge residual rounds.
struct QueryPlan {
    /// Lines per chunk, one entry per chunk of the prep per comparison.
    lines: Vec<u16>,
    /// Backup lines, one entry per comparison.
    backup: Vec<u16>,
    /// Index of each hop's first comparison, plus the end of the last.
    hop_start: Vec<u32>,
}

impl QueryPlan {
    /// Evaluate every comparison of query `qi` once, as the wave charges
    /// it: with no observer.
    fn fill(prep: &RunPrep, qi: usize) -> QueryPlan {
        let trace = &prep.workload.traces[qi];
        let query = &prep.workload.queries[qi];
        let evals: usize = trace
            .hops
            .iter()
            .filter(|h| h.kind != HopKind::Centroid)
            .map(|h| h.evals.len())
            .sum();
        let mut plan = QueryPlan {
            lines: Vec::with_capacity(evals * prep.chunks.len()),
            backup: Vec::with_capacity(evals),
            hop_start: Vec::with_capacity(trace.hops.len() + 1),
        };
        let narrow = |n: usize| u16::try_from(n).expect("a chunk's lines fit in u16");
        let offset = |n: usize| u32::try_from(n).expect("a trace's comparisons fit in u32");
        let mut et = prep.prepare(query);
        for hop in &trace.hops {
            plan.hop_start.push(offset(plan.backup.len()));
            if hop.kind == HopKind::Centroid {
                continue;
            }
            for e in &hop.evals {
                let m = prep.evaluate(e, et.as_mut(), &mut NoopEtObserver);
                plan.lines.extend(m.lines.iter().map(|&l| narrow(l)));
                plan.backup.push(narrow(m.backup_lines));
            }
        }
        plan.hop_start.push(offset(evals));
        crate::parallel::record_comparisons(evals as u64);
        plan
    }

    /// Lines per chunk (`chunks` entries per comparison) and backup lines
    /// of hop `h`'s comparisons.
    fn hop(&self, h: usize, chunks: usize) -> (&[u16], &[u16]) {
        let (a, b) = (self.hop_start[h] as usize, self.hop_start[h + 1] as usize);
        (&self.lines[a * chunks..b * chunks], &self.backup[a..b])
    }
}

impl<'a> WaveContext<'a> {
    /// Prepare the wave executor.
    ///
    /// # Panics
    ///
    /// Panics for CPU designs (their throughput is `cores ×` the latency
    /// result, already contention-modeled).
    pub fn new(design: Design, workload: &'a Workload, config: &'a SystemConfig) -> Self {
        assert!(design.is_ndp(), "throughput waves model the NDP designs");
        WaveContext {
            prep: RunPrep::new(design, workload, config),
            plans: workload.traces.iter().map(|_| OnceLock::new()).collect(),
        }
    }

    /// How the vectors are spread over the ranks.
    pub fn partitioner(&self) -> &Partitioner {
        &self.prep.partitioner
    }

    /// Query `qi`'s plan, filled on first use.
    fn plan(&self, qi: usize) -> &QueryPlan {
        self.plans[qi].get_or_init(|| QueryPlan::fill(&self.prep, qi))
    }

    /// Execute the queries named by `query_ids` (indices into the
    /// workload's trace list) as one cohort of lock-step waves on fresh
    /// device state, all in flight together from cycle 0.
    ///
    /// A [`TraceSink`] rides along: per-wave DRAM row-buffer outcome
    /// deltas are emitted as [`RowBuffer`](ansmet_obs::EventKind::RowBuffer)
    /// events rebased to `base_cycle` (the caller's serving-clock dispatch
    /// cycle). The sink observes, never steers: the result is the same for
    /// every sink, and snapshot work is skipped entirely when the sink is
    /// disabled.
    ///
    /// # Panics
    ///
    /// Panics if `query_ids` is empty or any index is out of range.
    pub fn execute_with_sink<S: TraceSink>(
        &self,
        query_ids: &[usize],
        sink: &mut S,
        base_cycle: u64,
    ) -> BatchExecution {
        assert!(!query_ids.is_empty(), "empty batch");
        self.execute_streams(query_ids, query_ids.len(), sink, base_cycle)
    }

    /// Execute `query_ids` with at most `streams` in flight at once;
    /// finished streams refill from the remaining ids in order.
    fn execute_streams<S: TraceSink>(
        &self,
        query_ids: &[usize],
        streams: usize,
        sink: &mut S,
        base_cycle: u64,
    ) -> BatchExecution {
        assert!(streams > 0, "need at least one stream");
        let prep = &self.prep;
        let workload = prep.workload;
        let config = prep.config;
        let mem_clock = config.dram.clock_mhz;
        let cpu = &config.cpu;
        let ranks = config.ndp_units();
        let chunks = prep.chunks.len();

        let mut loads = LoadTracker::new(ranks, prep.partitioner.group_size());
        let mut mem = MemorySystem::new(config.dram.clone());

        // Stream cursors in admission order: (position in `query_ids`, hop
        // index). Row `pos` of `uploaded` marks the ranks the query at
        // `pos` has been uploaded to.
        let mut next_pos = 0usize;
        let mut cursors: Vec<(usize, usize)> = Vec::with_capacity(streams.min(query_ids.len()));
        let mut uploaded = vec![false; query_ids.len() * ranks];
        let mut req_base = 0u64;
        let mut clock = 0u64;
        let mut batch = BatchScratch::new();
        let mut subs: Vec<SubTask> = Vec::new();
        let mut retire = vec![0u64; query_ids.len()];

        loop {
            // Refill streams.
            while cursors.len() < streams && next_pos < query_ids.len() {
                cursors.push((next_pos, 0));
                next_pos += 1;
            }
            if cursors.is_empty() {
                break;
            }

            // Build one wave: the current hop of every stream. Host work of
            // different streams runs on different cores; set-query uploads
            // overlap the fetch batch (§5.2). Waves in a real system are
            // de-synchronized, so serial host work is charged at its mean.
            let mut host_serial_sum = 0u64;
            let mut upload_max = 0u64;
            subs.clear();
            for &(pos, hop_idx) in &cursors {
                let qi = query_ids[pos];
                let hop = &workload.traces[qi].hops[hop_idx];
                let accepted = hop.evals.iter().filter(|e| e.accepted).count();
                let mut host = cpu.hop_cycles(hop.evals.len(), accepted);
                let mut upload = 0u64;
                if hop.kind == HopKind::Centroid {
                    host +=
                        cpu.distance_compute_cycles(prep.natural_lines) * hop.evals.len() as u64;
                } else {
                    let (lines, backup) = self.plan(qi).hop(hop_idx, chunks);
                    let uploaded = &mut uploaded[pos * ranks..(pos + 1) * ranks];
                    for ((e, lines), &backup) in
                        hop.evals.iter().zip(lines.chunks_exact(chunks)).zip(backup)
                    {
                        let group = prep.place(e.id, lines, &mut loads);
                        prep.push_subtasks(e.id, group, lines, backup.into(), &mut subs);
                        for (rank, _) in prep.rank_lines(e.id, group, lines) {
                            if !uploaded[rank] {
                                uploaded[rank] = true;
                                upload += cpu.query_upload_cycles(prep.query_bytes);
                            }
                        }
                    }
                    host += cpu.offload_cycles(hop.evals.len().max(1));
                }
                host_serial_sum += cpu.to_mem_cycles(host, mem_clock);
                upload_max = upload_max.max(cpu.to_mem_cycles(upload, mem_clock));
            }

            clock += host_serial_sum / cursors.len() as u64;
            if !subs.is_empty() {
                let t0 = clock.max(mem.now());
                let stats_before = if sink.enabled() {
                    Some(mem.stats().clone())
                } else {
                    None
                };
                let finish = run_ndp_batch(
                    &mut mem,
                    &mut subs,
                    ansmet_ndp::qshr::QSHRS_PER_UNIT,
                    &mut req_base,
                    t0,
                    &mut NoopSink,
                    t0,
                    &mut batch,
                )
                .max(t0 + upload_max);
                if let Some(s0) = stats_before {
                    row_buffer_delta(sink, base_cycle + finish, &s0, mem.stats());
                }
                // One poll round closes the wave (streams poll in parallel on
                // their own cores).
                clock = finish + cpu.to_mem_cycles(cpu.poll_cycles(), mem_clock);
                if mem.now() < clock && !mem.busy() {
                    mem.fast_forward_to(clock).expect("idle fast-forward");
                }
                clock = clock.max(mem.now());
            }

            // Advance streams; retire finished queries at the close of
            // the wave that executed their last hop.
            cursors.retain_mut(|(pos, hop_idx)| {
                if *hop_idx + 1 < workload.traces[query_ids[*pos]].hops.len() {
                    *hop_idx += 1;
                    return true;
                }
                retire[*pos] = clock.max(1);
                false
            });
        }

        crate::parallel::record_mem_cycles(&mem);
        BatchExecution {
            total_cycles: clock.max(1),
            per_query_cycles: retire,
        }
    }
}

/// Run `design` over `workload` with up to `streams` concurrent query
/// streams (NDP designs only).
///
/// # Panics
///
/// Panics for CPU designs (their throughput is `cores ×` the latency
/// result, already contention-modeled) or `streams == 0`.
pub fn run_design_throughput(
    design: Design,
    workload: &Workload,
    config: &SystemConfig,
    streams: usize,
) -> ThroughputResult {
    let ctx = WaveContext::new(design, workload, config);
    let n_queries = workload.traces.len();
    let ids: Vec<usize> = (0..n_queries).collect();
    let exec = ctx.execute_streams(&ids, streams, &mut NoopSink, 0);
    ThroughputResult {
        design,
        total_cycles: exec.total_cycles,
        queries: n_queries,
        streams,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ansmet_vecdata::SynthSpec;

    #[test]
    fn more_streams_more_throughput() {
        let wl = Workload::prepare(&SynthSpec::sift().scaled(600, 6), 10, Some(40));
        let cfg = SystemConfig::default();
        let one = run_design_throughput(Design::NdpBase, &wl, &cfg, 1);
        let many = run_design_throughput(Design::NdpBase, &wl, &cfg, 8);
        assert!(
            many.qps(2400) > one.qps(2400),
            "8 streams {:.0} qps vs 1 stream {:.0} qps",
            many.qps(2400),
            one.qps(2400)
        );
    }

    #[test]
    fn more_units_help_under_load() {
        let wl = Workload::prepare(&SynthSpec::gist().scaled(400, 6), 10, Some(40));
        let r8 = run_design_throughput(
            Design::NdpEtOpt,
            &wl,
            &SystemConfig::default().with_ndp_units(8),
            16,
        );
        let r32 = run_design_throughput(
            Design::NdpEtOpt,
            &wl,
            &SystemConfig::default().with_ndp_units(32),
            16,
        );
        assert!(
            r32.total_cycles <= r8.total_cycles,
            "32 units {} vs 8 units {}",
            r32.total_cycles,
            r8.total_cycles
        );
    }

    #[test]
    fn context_is_shared_across_threads() {
        fn sync<T: Sync>() {}
        sync::<WaveContext<'static>>();
    }

    #[test]
    #[should_panic(expected = "NDP designs")]
    fn cpu_design_rejected() {
        let wl = Workload::prepare(&SynthSpec::sift().scaled(200, 1), 10, Some(20));
        run_design_throughput(Design::CpuBase, &wl, &SystemConfig::default(), 4);
    }
}
