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
//! different cores, so a wave pays only the slowest stream's host work.

use std::collections::HashSet;

use ansmet_core::NoopEtObserver;
use ansmet_dram::MemorySystem;
use ansmet_index::HopKind;
use ansmet_ndp::{LoadTracker, Partitioner};

use ansmet_obs::{NoopSink, TraceSink};

use crate::config::SystemConfig;
use crate::design::Design;
use crate::timing::{row_buffer_delta, run_ndp_batch, BatchScratch, PlanScratch, RunPrep, SubTask};
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
pub struct WaveContext<'a> {
    prep: RunPrep<'a>,
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
        }
    }

    /// How the vectors are spread over the ranks.
    pub fn partitioner(&self) -> &Partitioner {
        &self.prep.partitioner
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

        let mut loads = LoadTracker::new(config.ndp_units(), prep.partitioner.group_size());
        let mut mem = MemorySystem::new(config.dram.clone());

        // Stream cursors: (position in `query_ids`, hop index).
        let mut next_pos = 0usize;
        let mut cursors: Vec<(usize, usize)> = Vec::new();
        let mut uploaded: HashSet<(usize, usize)> = HashSet::new();
        let mut req_base = 0u64;
        let mut clock = 0u64;
        let mut plan_scratch = PlanScratch::default();
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
            for (pos, hop_idx) in cursors.iter_mut() {
                let qi = query_ids[*pos];
                let trace = &workload.traces[qi];
                let hop = &trace.hops[*hop_idx];
                let query = &workload.queries[qi];
                let accepted = hop.evals.iter().filter(|e| e.accepted).count();
                let mut host = cpu.hop_cycles(hop.evals.len(), accepted);
                let mut upload = 0u64;
                if hop.kind == HopKind::Centroid {
                    host +=
                        cpu.distance_compute_cycles(prep.natural_lines) * hop.evals.len() as u64;
                } else {
                    for e in &hop.evals {
                        let p = prep.plan_eval(
                            e,
                            query,
                            &mut loads,
                            &mut plan_scratch,
                            &mut NoopEtObserver,
                        );
                        prep.push_subtasks(&p, &mut subs);
                        for (rank, _) in p.rank_lines() {
                            if uploaded.insert((*pos, rank)) {
                                upload += cpu.query_upload_cycles(prep.query_bytes);
                            }
                        }
                    }
                    let evals = hop.evals.len();
                    host += cpu.offload_cycles(evals.max(1));
                }
                host_serial_sum += cpu.to_mem_cycles(host, mem_clock);
                upload_max = upload_max.max(cpu.to_mem_cycles(upload, mem_clock));
            }

            clock += host_serial_sum / cursors.len().max(1) as u64;
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
            cursors = cursors
                .into_iter()
                .filter_map(|(pos, hop_idx)| {
                    if hop_idx + 1 < workload.traces[query_ids[pos]].hops.len() {
                        Some((pos, hop_idx + 1))
                    } else {
                        retire[pos] = clock.max(1);
                        None
                    }
                })
                .collect();
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
    #[should_panic(expected = "NDP designs")]
    fn cpu_design_rejected() {
        let wl = Workload::prepare(&SynthSpec::sift().scaled(200, 1), 10, Some(20));
        run_design_throughput(Design::CpuBase, &wl, &SystemConfig::default(), 4);
    }
}
