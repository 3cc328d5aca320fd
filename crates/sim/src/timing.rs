//! Trace-driven timing simulation of one design over one workload.
//!
//! Every query's functional trace is replayed hop by hop. A hop is a
//! dependency barrier (the greedy search pops one candidate, evaluates
//! its neighbors, then updates the heaps). Within a hop, comparisons run
//! in parallel: on the CPU designs through the channel-shared host port,
//! on the NDP designs through per-rank QSHRs issuing rank-local fetches.
//! All data movement goes through the cycle-accurate DDR5 simulator.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

use ansmet_core::{EtEngine, EtObserver};
use ansmet_dram::{AccessKind, CommandKind, Location, MemorySystem, Port, Request};
use ansmet_host::CYCLES_PER_LINE;
use ansmet_index::HopKind;
use ansmet_ndp::qshr::QSHRS_PER_UNIT;
use ansmet_ndp::{
    LoadTracker, Partitioner, PollingPolicy, PollingStats, ReplicaSet, CONVENTIONAL_POLL_PERIOD,
};
use ansmet_obs::{
    DramCommandKind, EventKind, FlightRecorder, NoopSink, Phase, QueryRecorder, RecorderConfig,
    TraceSink,
};

use crate::config::SystemConfig;
use crate::design::{Design, DesignPlan};
use crate::events::{EventWheel, Wakeup};
use crate::workload::Workload;

/// Per-query latency breakdown (Fig. 9 buckets), in memory cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryBreakdown {
    /// Host-side index traversal and result sorting.
    pub traversal: u64,
    /// NDP task offloading (query upload + set-search commands).
    pub offload: u64,
    /// Distance comparison (memory fetches + arithmetic).
    pub dist_comp: u64,
    /// Result collection (polling delay + processing).
    pub result_collect: u64,
}

impl QueryBreakdown {
    /// Total cycles.
    pub fn total(&self) -> u64 {
        self.traversal + self.offload + self.dist_comp + self.result_collect
    }

    fn add(&mut self, other: &QueryBreakdown) {
        self.traversal += other.traversal;
        self.offload += other.offload;
        self.dist_comp += other.dist_comp;
        self.result_collect += other.result_collect;
    }
}

impl std::fmt::Display for QueryBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "traversal {} + offload {} + dist_comp {} + result_collect {} = {} cycles",
            self.traversal,
            self.offload,
            self.dist_comp,
            self.result_collect,
            self.total()
        )
    }
}

/// Result of running one design over a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The design simulated.
    pub design: Design,
    /// Total memory-clock cycles over all queries.
    pub total_cycles: u64,
    /// Summed latency breakdown.
    pub breakdown: QueryBreakdown,
    /// 64 B lines fetched for comparisons that were accepted.
    pub effectual_lines: u64,
    /// Lines fetched for comparisons that were rejected.
    pub ineffectual_lines: u64,
    /// Extra backup-recheck lines (prefix-elimination outliers).
    pub backup_lines: u64,
    /// Comparisons early-terminated before the full fetch.
    pub pruned_evals: u64,
    /// Total comparisons replayed.
    pub total_evals: u64,
    /// Host CPU busy cycles (CPU clock domain), for energy.
    pub host_cpu_cycles: u64,
    /// Lines processed by NDP compute units, for energy.
    pub ndp_compute_lines: u64,
    /// Per-rank command counters from the DRAM simulator.
    pub rank_counts: Vec<(u64, u64, u64, u64, u64)>,
    /// Per-rank comparison-line loads (imbalance analysis, §5.3).
    pub rank_loads: Vec<u64>,
    /// Poll commands issued.
    pub polls: u64,
    /// Number of queries.
    pub queries: usize,
}

impl RunResult {
    /// Mean per-query latency in memory cycles.
    pub fn cycles_per_query(&self) -> f64 {
        self.total_cycles as f64 / self.queries.max(1) as f64
    }

    /// Mean per-query latency in nanoseconds (2400 MHz memory clock).
    pub fn ns_per_query(&self, mem_clock_mhz: u64) -> f64 {
        self.cycles_per_query() * 1000.0 / mem_clock_mhz as f64
    }

    /// Queries per second of one search stream.
    pub fn qps(&self, mem_clock_mhz: u64) -> f64 {
        1e9 / self.ns_per_query(mem_clock_mhz)
    }

    /// All lines moved (including backups).
    pub fn total_lines(&self) -> u64 {
        self.effectual_lines + self.ineffectual_lines + self.backup_lines
    }

    /// Fetch utilization: fraction of moved data that served accepted
    /// comparisons (Fig. 10).
    pub fn fetch_utilization(&self) -> f64 {
        let t = self.total_lines();
        if t == 0 {
            0.0
        } else {
            self.effectual_lines as f64 / t as f64
        }
    }
}

impl std::fmt::Display for RunResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?}: {} queries, {} cycles ({:.0} cycles/query), {} lines moved \
             ({:.1}% effectual), {}/{} evals pruned",
            self.design,
            self.queries,
            self.total_cycles,
            self.cycles_per_query(),
            self.total_lines(),
            self.fetch_utilization() * 100.0,
            self.pruned_evals,
            self.total_evals,
        )
    }
}

/// Map a rank-local line index to a physical address in `rank`
/// (global rank id). Consecutive lines fill a row (row hits), and
/// consecutive vectors spread across banks.
fn rank_line_addr(mem: &MemorySystem, global_rank: usize, line_idx: u64) -> u64 {
    let cfg = mem.config();
    let channel = global_rank % cfg.channels;
    let rank = global_rank / cfg.channels;
    let col = (line_idx % cfg.columns as u64) as usize;
    let tmp = line_idx / cfg.columns as u64;
    let bank = (tmp % cfg.banks_per_group as u64) as usize;
    let tmp = tmp / cfg.banks_per_group as u64;
    let bank_group = (tmp % cfg.bank_groups as u64) as usize;
    let row = ((tmp / cfg.bank_groups as u64) % cfg.rows as u64) as usize;
    mem.addr_map().encode(Location {
        channel,
        rank,
        bank_group,
        bank,
        row,
        column: col,
    })
}

/// One comparison sub-task bound for one rank.
#[derive(Debug, Clone)]
pub(crate) struct SubTask {
    rank: usize,
    lines_left: usize,
    next_line: u64,
    compute_delay: u64,
    /// When the next fetch may issue.
    ready_at: u64,
    outstanding: Option<u64>,
    finished_at: Option<u64>,
}

impl SubTask {
    /// Create a sub-task fetching `lines` 64 B lines from `rank`
    /// starting at rank-local line index `base`.
    pub(crate) fn new(rank: usize, lines: usize, base: u64, compute_delay: u64) -> Self {
        SubTask {
            rank,
            lines_left: lines,
            next_line: base,
            compute_delay,
            ready_at: 0,
            outstanding: None,
            finished_at: None,
        }
    }
}

/// Which driver advances time inside each NDP batch that [`run_design`]
/// replays.
///
/// Both produce bit-identical results; `Tick` is the original
/// scan-every-sub-each-cycle reference kept for equivalence testing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchDriver {
    /// Event-wheel driver: wakeups (compute-gap expiries, admissions)
    /// are scheduled explicitly and dead spans are jumped. The default.
    Wheel,
    /// Reference driver: rescans every sub-task at every visited cycle.
    Tick,
}

static BATCH_DRIVER: AtomicU8 = AtomicU8::new(0);

/// Select the batch time-stepping driver process-wide. Test hook for
/// wheel-vs-tick equivalence runs; production code never calls this.
#[doc(hidden)]
pub fn set_batch_driver(driver: BatchDriver) {
    BATCH_DRIVER.store(driver as u8, Ordering::Relaxed);
}

/// The currently selected batch driver.
pub fn batch_driver() -> BatchDriver {
    match BATCH_DRIVER.load(Ordering::Relaxed) {
        0 => BatchDriver::Wheel,
        _ => BatchDriver::Tick,
    }
}

/// Executes the per-hop batch on the NDP units; returns the cycle when
/// the last sub-task finished.
///
/// QSHR occupancy transitions (allocate on admission, free on
/// completion) are reported to `sink` with event times rebased to
/// `trace_base + (cycle - t0)`, so they land inside the caller's
/// attribution-clock `dist_comp` span. With a [`NoopSink`] the calls
/// monomorphize to nothing.
///
/// With the `dual-driver` feature, every call additionally replays the
/// batch on the tick-driven reference and asserts the two drivers agree
/// on every observable: finish cycle, memory clock, stats, per-rank
/// command counts, request-id cursor, and each sub-task's completion
/// cycle.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_ndp_batch<S: TraceSink>(
    mem: &mut MemorySystem,
    subs: &mut [SubTask],
    qshrs_per_rank: usize,
    req_base: &mut u64,
    t0: u64,
    sink: &mut S,
    trace_base: u64,
) -> u64 {
    #[cfg(feature = "dual-driver")]
    let reference = {
        let mut mem_ref = mem.clone();
        let mut subs_ref: Vec<SubTask> = subs.to_vec();
        let mut req_ref = *req_base;
        let fin = run_ndp_batch_tick(
            &mut mem_ref,
            &mut subs_ref,
            qshrs_per_rank,
            &mut req_ref,
            t0,
            &mut NoopSink,
            trace_base,
        );
        (mem_ref, subs_ref, req_ref, fin)
    };

    let finish = match batch_driver() {
        BatchDriver::Wheel => {
            run_ndp_batch_wheel(mem, subs, qshrs_per_rank, req_base, t0, sink, trace_base)
        }
        BatchDriver::Tick => {
            run_ndp_batch_tick(mem, subs, qshrs_per_rank, req_base, t0, sink, trace_base)
        }
    };

    #[cfg(feature = "dual-driver")]
    {
        let (mem_ref, subs_ref, req_ref, fin_ref) = reference;
        assert_eq!(finish, fin_ref, "dual-driver: finish cycle diverged");
        assert_eq!(mem.now(), mem_ref.now(), "dual-driver: clock diverged");
        assert_eq!(*req_base, req_ref, "dual-driver: request ids diverged");
        assert_eq!(mem.stats(), mem_ref.stats(), "dual-driver: stats diverged");
        assert_eq!(
            mem.rank_command_counts(),
            mem_ref.rank_command_counts(),
            "dual-driver: command counts diverged"
        );
        for (i, (s, r)) in subs.iter().zip(&subs_ref).enumerate() {
            assert_eq!(
                s.finished_at, r.finished_at,
                "dual-driver: sub-task {i} completion diverged"
            );
        }
    }

    finish
}

/// Event-wheel batch driver. Each visited cycle costs O(due wakeups +
/// completions) instead of the reference driver's O(all sub-tasks):
/// compute-gap expiries live in an [`EventWheel`], unadmitted sub-tasks
/// wait in per-rank queues scanned only when a QSHR frees, and the skip
/// target is `min(DRAM event horizon, wheel.next_due())`.
///
/// Cycle-for-cycle equivalent to [`run_ndp_batch_tick`] by construction:
/// fetches enqueue at the same cycles (admission order is ascending
/// sub-index, retries after a queue-full block happen at the very next
/// cycle), ticks and skips interleave identically, and sink events fire
/// in the same order at the same rebased times.
#[allow(clippy::too_many_arguments)]
fn run_ndp_batch_wheel<S: TraceSink>(
    mem: &mut MemorySystem,
    subs: &mut [SubTask],
    qshrs_per_rank: usize,
    req_base: &mut u64,
    t0: u64,
    sink: &mut S,
    trace_base: u64,
) -> u64 {
    debug_assert!(mem.now() <= t0 || !mem.busy());
    if mem.now() < t0 {
        mem.fast_forward_to(t0).expect("idle fast-forward");
    }
    let mut finish_max = t0;
    // Zero-line sub-tasks finish immediately.
    for s in subs.iter_mut() {
        s.ready_at = s.ready_at.max(t0);
        if s.lines_left == 0 {
            s.finished_at = Some(t0);
        }
    }
    let n_ranks_total = mem.config().total_ranks();
    let mut active_per_rank = vec![0usize; n_ranks_total];
    // Unadmitted sub-tasks per rank, in ascending sub-index order (the
    // reference driver's admission scan order).
    let mut waiting: Vec<VecDeque<u32>> = vec![VecDeque::new(); n_ranks_total];
    let mut remaining = 0usize;
    for (i, s) in subs.iter().enumerate() {
        if s.finished_at.is_none() {
            waiting[s.rank].push_back(i as u32);
            remaining += 1;
        }
    }
    // Sub-tasks ready to issue a fetch this cycle (admitted, no
    // outstanding request, compute gap elapsed). Queue-full failures
    // stay and retry at the next cycle.
    let mut issuable: Vec<u32> = Vec::new();
    // Compute-gap expiries of admitted sub-tasks.
    let mut wheel = EventWheel::new(mem.now());
    let mut due: Vec<Wakeup> = Vec::new();
    // Request id → sub index; batch ids are sequential, so a Vec indexed
    // by `id - id_base` replaces the reference driver's hash map.
    let id_base = *req_base;
    let mut inflight: Vec<u32> = Vec::new();
    // QSHR slots only free at completions, so the admission scan runs at
    // the first cycle and after any completion — never in between.
    let mut admit_scan = true;
    let mut admitted_now: Vec<(u32, u32)> = Vec::new();

    while remaining > 0 {
        let now = mem.now();
        // Wake admitted sub-tasks whose compute gap elapsed.
        wheel.pop_due(now, &mut due);
        for w in &due {
            issuable.push(w.token);
        }
        if admit_scan {
            admit_scan = false;
            admitted_now.clear();
            for (rank, q) in waiting.iter_mut().enumerate() {
                while active_per_rank[rank] < qshrs_per_rank {
                    match q.pop_front() {
                        Some(i) => {
                            active_per_rank[rank] += 1;
                            admitted_now.push((i, active_per_rank[rank] as u32));
                        }
                        None => break,
                    }
                }
            }
            // Emit admissions in ascending sub-index order across ranks,
            // matching the reference driver's single scan.
            admitted_now.sort_unstable();
            let at = trace_base + (now - t0);
            for &(i, active) in &admitted_now {
                let s = &subs[i as usize];
                sink.event(
                    at,
                    EventKind::QshrAlloc {
                        rank: s.rank as u32,
                        active,
                    },
                );
                sink.event(
                    at,
                    EventKind::GroupFetch {
                        rank: s.rank as u32,
                        lines: s.lines_left as u32,
                    },
                );
                sink.gauge_max("ndp.qshr_active_max", active as u64);
                issuable.push(i);
            }
        }
        // Issue fetches in ascending sub-index order; a full rank queue
        // blocks the sub (and suppresses the skip) until the next cycle.
        let mut blocked = false;
        if !issuable.is_empty() {
            issuable.sort_unstable();
            issuable.retain(|&iu| {
                let addr = {
                    let s = &subs[iu as usize];
                    debug_assert!(s.outstanding.is_none() && s.lines_left > 0 && s.ready_at <= now);
                    rank_line_addr(mem, s.rank, s.next_line)
                };
                let id = *req_base;
                let req = Request::new(id, AccessKind::Read, addr, Port::Ndp);
                if mem.enqueue(req).is_ok() {
                    *req_base += 1;
                    subs[iu as usize].outstanding = Some(id);
                    inflight.push(iu);
                    false
                } else {
                    blocked = true;
                    true
                }
            });
        }
        mem.tick();
        let now = mem.now();
        let responses = mem.take_completed();
        if responses.is_empty() && !blocked {
            // Dead cycles until the DRAM model can act again or a compute
            // gap elapses — jump straight there.
            mem.skip_to_event(wheel.next_due().unwrap_or(u64::MAX));
        }
        for resp in responses {
            let iu = inflight[(resp.id - id_base) as usize];
            let s = &mut subs[iu as usize];
            debug_assert_eq!(s.outstanding, Some(resp.id));
            s.outstanding = None;
            s.lines_left -= 1;
            s.next_line += 1;
            s.ready_at = now + s.compute_delay;
            if s.lines_left == 0 {
                let done = s.ready_at;
                s.finished_at = Some(done);
                finish_max = finish_max.max(done);
                active_per_rank[s.rank] -= 1;
                remaining -= 1;
                admit_scan = true;
                sink.event(
                    trace_base + (done - t0),
                    EventKind::QshrFree {
                        rank: s.rank as u32,
                        active: active_per_rank[s.rank] as u32,
                    },
                );
            } else {
                wheel.schedule(s.ready_at, iu);
            }
        }
    }
    // Let the memory system settle past the final compute.
    if mem.now() < finish_max && !mem.busy() {
        mem.fast_forward_to(finish_max).expect("idle fast-forward");
    }
    finish_max
}

/// Tick-driven reference batch driver: the original implementation,
/// kept always-compiled as the equivalence oracle for the wheel driver
/// (see [`BatchDriver`] and the `dual-driver` feature).
#[allow(clippy::too_many_arguments)]
fn run_ndp_batch_tick<S: TraceSink>(
    mem: &mut MemorySystem,
    subs: &mut [SubTask],
    qshrs_per_rank: usize,
    req_base: &mut u64,
    t0: u64,
    sink: &mut S,
    trace_base: u64,
) -> u64 {
    debug_assert!(mem.now() <= t0 || !mem.busy());
    if mem.now() < t0 {
        mem.fast_forward_to(t0).expect("idle fast-forward");
    }
    let mut finish_max = t0;
    // Zero-line sub-tasks finish immediately.
    for s in subs.iter_mut() {
        s.ready_at = s.ready_at.max(t0);
        if s.lines_left == 0 {
            s.finished_at = Some(t0);
        }
    }
    let n_ranks_total = mem.config().total_ranks();
    let mut active_per_rank = vec![0usize; n_ranks_total];
    let mut admitted: Vec<bool> = subs.iter().map(|s| s.finished_at.is_some()).collect();
    let mut inflight: HashMap<u64, usize> = HashMap::new();
    let mut remaining = subs.iter().filter(|s| s.finished_at.is_none()).count();

    while remaining > 0 {
        let now = mem.now();
        // Admit waiting sub-tasks up to the QSHR limit, then issue fetches.
        // Track the earliest compute-gap expiry among admitted sub-tasks
        // so the event skip below never jumps past an issuable fetch.
        let mut wake = u64::MAX;
        let mut blocked = false;
        for (i, s) in subs.iter_mut().enumerate() {
            if s.finished_at.is_some() {
                continue;
            }
            if !admitted[i] {
                if active_per_rank[s.rank] < qshrs_per_rank {
                    active_per_rank[s.rank] += 1;
                    admitted[i] = true;
                    let at = trace_base + (now - t0);
                    sink.event(
                        at,
                        EventKind::QshrAlloc {
                            rank: s.rank as u32,
                            active: active_per_rank[s.rank] as u32,
                        },
                    );
                    sink.event(
                        at,
                        EventKind::GroupFetch {
                            rank: s.rank as u32,
                            lines: s.lines_left as u32,
                        },
                    );
                    sink.gauge_max("ndp.qshr_active_max", active_per_rank[s.rank] as u64);
                } else {
                    continue;
                }
            }
            if s.outstanding.is_none() && s.lines_left > 0 {
                if s.ready_at <= now {
                    let addr = rank_line_addr(mem, s.rank, s.next_line);
                    let id = *req_base;
                    let req = Request::new(id, AccessKind::Read, addr, Port::Ndp);
                    if mem.enqueue(req).is_ok() {
                        *req_base += 1;
                        s.outstanding = Some(id);
                        inflight.insert(id, i);
                    } else {
                        blocked = true;
                    }
                } else {
                    wake = wake.min(s.ready_at);
                }
            }
        }
        mem.tick();
        let now = mem.now();
        let responses = mem.take_completed();
        if responses.is_empty() && !blocked {
            // Dead cycles until the DRAM model can act again or a compute
            // gap elapses — jump straight there.
            mem.skip_to_event(wake);
        }
        for resp in responses {
            if let Some(&i) = inflight.get(&resp.id) {
                inflight.remove(&resp.id);
                let s = &mut subs[i];
                s.outstanding = None;
                s.lines_left -= 1;
                s.next_line += 1;
                s.ready_at = now + s.compute_delay;
                if s.lines_left == 0 {
                    let done = s.ready_at;
                    s.finished_at = Some(done);
                    finish_max = finish_max.max(done);
                    active_per_rank[s.rank] -= 1;
                    remaining -= 1;
                    sink.event(
                        trace_base + (done - t0),
                        EventKind::QshrFree {
                            rank: s.rank as u32,
                            active: active_per_rank[s.rank] as u32,
                        },
                    );
                }
            }
        }
    }
    // Let the memory system settle past the final compute.
    if mem.now() < finish_max && !mem.busy() {
        mem.fast_forward_to(finish_max).expect("idle fast-forward");
    }
    finish_max
}

/// Immutable per-run state shared (read-only) by all worker threads.
struct RunPrep<'a> {
    design: Design,
    workload: &'a Workload,
    config: &'a SystemConfig,
    partitioner: Partitioner,
    engine: Option<EtEngine<'a>>,
    replicas: ReplicaSet,
    polling: PollingPolicy,
    natural_lines: usize,
    full_lines: usize,
    ndp_compute_delay: u64,
    query_bytes: usize,
    elem_bytes: usize,
    mem_clock: u64,
}

impl<'a> RunPrep<'a> {
    fn new(design: Design, workload: &'a Workload, config: &'a SystemConfig) -> Self {
        let data = &workload.data;
        let dim = data.dim();
        let elem_bytes = data.dtype().bytes();

        // NDP-side structures.
        let partitioner = Partitioner::new(config.partition, config.ndp_units(), dim, elem_bytes);
        let layout_dim = if design.is_ndp() {
            partitioner.dims_per_subvector()
        } else {
            dim
        };
        let plan = DesignPlan::build_for_layout(design, workload, layout_dim);
        let engine = plan
            .et
            .as_ref()
            .map(|et| EtEngine::new(&workload.data, et.clone()));
        let natural_lines = data.vector_lines();
        let mem_clock = config.dram.clock_mhz;

        let replicas = if config.replicate_hot && design.is_ndp() {
            ReplicaSet::new(workload.hot_ids())
        } else {
            ReplicaSet::new([])
        };

        // Compute delay per fetched line in memory cycles. The 16 lanes
        // consume elements while the burst streams in and while the next
        // fetch's DRAM access latency elapses, so only the reduce/compare
        // tail gates the decision to issue the next fetch.
        let ndp_compute_delay = config
            .compute
            .to_mem_cycles(config.compute.reduce_cycles, mem_clock)
            .max(1);

        // Polling policy.
        let polling = config.polling.clone().unwrap_or_else(|| {
            let hist = line_histogram(&plan, workload, natural_lines);
            PollingPolicy::Adaptive {
                latency_histogram: hist,
                cycles_per_line: CYCLES_PER_LINE,
                task_overhead: 50 + ndp_compute_delay,
                retry_period: 60,
            }
        });

        // Lines one full (non-terminated) comparison fetches.
        let full_lines = engine
            .as_ref()
            .map(|e| e.full_lines())
            .unwrap_or(natural_lines);

        RunPrep {
            design,
            workload,
            config,
            partitioner,
            engine,
            replicas,
            polling,
            natural_lines,
            full_lines,
            ndp_compute_delay,
            query_bytes: (dim * elem_bytes).min(1024),
            elem_bytes,
            mem_clock,
        }
    }
}

/// Per-query simulation output, merged in query order so aggregates are
/// independent of worker scheduling.
#[derive(Debug, Default)]
struct QueryStats {
    breakdown: QueryBreakdown,
    effectual_lines: u64,
    ineffectual_lines: u64,
    backup_lines: u64,
    pruned_evals: u64,
    total_evals: u64,
    host_cpu_cycles: u64,
    ndp_compute_lines: u64,
    polls: u64,
    rank_counts: Vec<(u64, u64, u64, u64, u64)>,
    rank_loads: Vec<u64>,
}

/// Fold one query's stats into the aggregate. Addition is performed in
/// query order, so serial and parallel runs produce bit-identical results.
fn merge_query(agg: &mut RunResult, qs: QueryStats) {
    agg.total_cycles += qs.breakdown.total();
    agg.breakdown.add(&qs.breakdown);
    agg.effectual_lines += qs.effectual_lines;
    agg.ineffectual_lines += qs.ineffectual_lines;
    agg.backup_lines += qs.backup_lines;
    agg.pruned_evals += qs.pruned_evals;
    agg.total_evals += qs.total_evals;
    agg.host_cpu_cycles += qs.host_cpu_cycles;
    agg.ndp_compute_lines += qs.ndp_compute_lines;
    agg.polls += qs.polls;
    if agg.rank_counts.is_empty() {
        agg.rank_counts = qs.rank_counts;
    } else {
        for (a, b) in agg.rank_counts.iter_mut().zip(&qs.rank_counts) {
            a.0 += b.0;
            a.1 += b.1;
            a.2 += b.2;
            a.3 += b.3;
            a.4 += b.4;
        }
    }
    if agg.rank_loads.is_empty() {
        agg.rank_loads = qs.rank_loads;
    } else {
        for (a, b) in agg.rank_loads.iter_mut().zip(&qs.rank_loads) {
            *a += b;
        }
    }
}

/// Run `f` for every index in `0..n`, sharded over `threads` workers,
/// returning results in index order.
///
/// Work-stealing only changes *which worker* runs an index, never the
/// index's inputs or the merge order, so callers folding the returned
/// vector left-to-right get bit-identical aggregates for every thread
/// count.
fn replay_ordered<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut parts: Vec<(usize, T)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let f = &f;
                let next = &next;
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let qi = next.fetch_add(1, Ordering::Relaxed);
                        if qi >= n {
                            break;
                        }
                        out.push((qi, f(qi)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("simulation worker panicked"))
            .collect()
    });
    parts.sort_by_key(|p| p.0);
    parts.into_iter().map(|(_, t)| t).collect()
}

fn empty_result(design: Design, queries: usize) -> RunResult {
    RunResult {
        design,
        total_cycles: 0,
        breakdown: QueryBreakdown::default(),
        effectual_lines: 0,
        ineffectual_lines: 0,
        backup_lines: 0,
        pruned_evals: 0,
        total_evals: 0,
        host_cpu_cycles: 0,
        ndp_compute_lines: 0,
        rank_counts: Vec::new(),
        rank_loads: Vec::new(),
        polls: 0,
        queries,
    }
}

/// Run `design` over `workload` under `config`.
///
/// Queries are independent traces replayed on private per-query memory
/// state, so they shard freely across worker threads
/// (`config.parallelism`); per-query stats are merged in query order, so
/// the result is bit-identical for every thread count.
pub fn run_design(design: Design, workload: &Workload, config: &SystemConfig) -> RunResult {
    let prep = RunPrep::new(design, workload, config);
    let n = workload.traces.len();
    let mut agg = empty_result(design, workload.queries.len());
    let threads = config.parallelism.resolve().min(n.max(1));
    for qs in replay_ordered(n, threads, |qi| run_query(&prep, qi)) {
        merge_query(&mut agg, qs);
    }
    crate::parallel::record_queries(n as u64);
    agg
}

/// Memoized [`run_design`] for cache-resident workloads.
///
/// Replay is a pure function of `(design, workload, config)`, and the
/// experiment suite re-runs many identical combinations (the energy,
/// speedup, and fetch-utilization figures all replay the same designs
/// over the same datasets under the default config). The workload is
/// identified by its [`Arc`](std::sync::Arc) pointer — sound because
/// shared workloads live forever in the [`Workload::prepare_shared`]
/// cache and are immutable behind the `Arc` — and the config by its
/// `Debug` rendering.
///
/// Hits still count toward [`crate::parallel::queries_simulated`] (the
/// queries were logically replayed) but add no DRAM tick/skip cycles
/// (no simulation actually ran).
pub fn run_design_shared(
    design: Design,
    workload: &std::sync::Arc<Workload>,
    config: &SystemConfig,
) -> RunResult {
    use std::sync::{Arc, Mutex, OnceLock};
    type Key = (usize, Design, String);
    static CACHE: OnceLock<Mutex<HashMap<Key, RunResult>>> = OnceLock::new();
    let key = (
        Arc::as_ptr(workload) as usize,
        design,
        format!("{config:?}"),
    );
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(r) = cache.lock().expect("run cache poisoned").get(&key) {
        crate::parallel::record_queries(workload.traces.len() as u64);
        return r.clone();
    }
    let r = run_design(design, workload, config);
    cache
        .lock()
        .expect("run cache poisoned")
        .insert(key, r.clone());
    r
}

/// Tracing knobs for [`run_design_traced`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceOptions {
    /// Per-query retention caps for the flight recorder.
    pub recorder: RecorderConfig,
    /// Record individual DRAM commands as trace events (high volume;
    /// bounded by the event ring, which drops oldest-first).
    pub dram_commands: bool,
}

/// [`run_design`] with a per-query flight recorder attached.
///
/// Each query records into its own [`QueryRecorder`] shard; traces are
/// folded into the returned [`FlightRecorder`] in query order, so the
/// recording — like the [`RunResult`] — is bit-identical across thread
/// counts. The returned `RunResult` is byte-for-byte the same as an
/// untraced [`run_design`] of the same inputs: instrumentation observes
/// the replay, never steers it.
pub fn run_design_traced(
    design: Design,
    workload: &Workload,
    config: &SystemConfig,
    opts: &TraceOptions,
) -> (RunResult, FlightRecorder) {
    let prep = RunPrep::new(design, workload, config);
    let n = workload.traces.len();
    let mut agg = empty_result(design, workload.queries.len());
    let mut recorder = FlightRecorder::new();
    let threads = config.parallelism.resolve().min(n.max(1));
    let parts = replay_ordered(n, threads, |qi| {
        let mut rec = QueryRecorder::new(qi, opts.recorder);
        let qs = run_query_sink(&prep, qi, &mut rec, opts.dram_commands);
        let total = qs.breakdown.total();
        (qs, rec.finish(total))
    });
    for (qs, trace) in parts {
        merge_query(&mut agg, qs);
        recorder.push(trace);
    }
    crate::parallel::record_queries(n as u64);
    (agg, recorder)
}

/// Emit a `phase` span of `d` cycles on the attribution clock and
/// advance it. Pairing every `QueryBreakdown` increment with exactly one
/// call makes the recorded spans tile `[0, breakdown.total())` — phase
/// sums equal end-to-end cycles by construction.
fn span_adv<S: TraceSink>(sink: &mut S, att: &mut u64, phase: Phase, d: u64) {
    if d > 0 {
        sink.span(phase, *att, *att + d);
    }
    *att += d;
}

/// Forwards ET engine callbacks as trace events stamped at `cycle`.
struct SinkEtObserver<'a, S> {
    sink: &'a mut S,
    cycle: u64,
}

impl<S: TraceSink> EtObserver for SinkEtObserver<'_, S> {
    fn terminated(&mut self, lines: usize, planned: usize) {
        self.sink.event(
            self.cycle,
            EventKind::EtTerminated {
                lines: lines as u32,
                planned: planned as u32,
            },
        );
    }

    fn backup_recheck(&mut self, lines: usize) {
        self.sink.event(
            self.cycle,
            EventKind::EtBackup {
                lines: lines as u32,
            },
        );
    }
}

fn obs_command_kind(kind: CommandKind) -> DramCommandKind {
    match kind {
        CommandKind::Activate => DramCommandKind::Activate,
        CommandKind::Precharge => DramCommandKind::Precharge,
        CommandKind::Read => DramCommandKind::Read,
        CommandKind::Write => DramCommandKind::Write,
        CommandKind::Refresh => DramCommandKind::Refresh,
    }
}

/// Drain the DRAM command trace into `sink`, rebasing issue cycles from
/// memory time (`t_ref`) onto the attribution clock (`att_base`).
fn drain_dram_commands<S: TraceSink>(
    mem: &mut MemorySystem,
    sink: &mut S,
    att_base: u64,
    t_ref: u64,
) {
    for r in mem.take_command_trace() {
        sink.event(
            att_base + r.cycle.saturating_sub(t_ref),
            EventKind::DramCommand {
                kind: obs_command_kind(r.kind),
                channel: r.channel as u16,
                rank: r.rank as u16,
            },
        );
    }
}

/// Emit the row-buffer outcome delta between two stats snapshots.
pub(crate) fn row_buffer_delta<S: TraceSink>(
    sink: &mut S,
    at: u64,
    s0: &ansmet_dram::MemoryStats,
    s1: &ansmet_dram::MemoryStats,
) {
    let hits = s1.row_hits - s0.row_hits;
    let misses = s1.row_misses - s0.row_misses;
    let conflicts = s1.row_conflicts - s0.row_conflicts;
    if hits + misses + conflicts > 0 {
        sink.event(
            at,
            EventKind::RowBuffer {
                hits: hits as u32,
                misses: misses as u32,
                conflicts: conflicts as u32,
            },
        );
    }
}

/// Replay one query's trace on fresh per-query memory/NDP state.
///
/// Purity is the determinism contract: everything mutated here (memory
/// system, load tracker, request ids, the adaptive-polling EWMA) is local
/// to this call, so the result depends only on `(prep, qi)` — never on
/// which other queries ran before or concurrently.
fn run_query(prep: &RunPrep, qi: usize) -> QueryStats {
    run_query_sink(prep, qi, &mut NoopSink, false)
}

/// [`run_query`] with a [`TraceSink`] riding along.
///
/// The sink observes the replay — spans on a per-query attribution
/// clock mirroring every [`QueryBreakdown`] increment, point events for
/// ET outcomes, QSHR occupancy, polling, row-buffer behavior and
/// (opt-in) individual DRAM commands — but never influences it: with
/// [`NoopSink`] every call monomorphizes to nothing and the returned
/// stats are bit-identical to the untraced replay.
fn run_query_sink<S: TraceSink>(
    prep: &RunPrep,
    qi: usize,
    sink: &mut S,
    dram_commands: bool,
) -> QueryStats {
    let config = prep.config;
    let workload = prep.workload;
    let design = prep.design;
    let cpu = &config.cpu;
    let mem_clock = prep.mem_clock;
    let engine = &prep.engine;
    let natural_lines = prep.natural_lines;
    let full_lines = prep.full_lines;
    let ndp_compute_delay = prep.ndp_compute_delay;
    let query_bytes = prep.query_bytes;
    let elem_bytes = prep.elem_bytes;
    let partitioner = &prep.partitioner;
    let replicas = &prep.replicas;
    let polling = &prep.polling;

    let mut mem = MemorySystem::new(config.dram.clone());
    let trace_dram = dram_commands && sink.enabled();
    if trace_dram {
        mem.enable_command_trace();
    }
    let mut loads = LoadTracker::new(config.ndp_units(), partitioner.group_size());
    let mut qs = QueryStats::default();
    let mut req_base: u64 = 0;
    let mut et_scratch = ansmet_core::EtScratch::new();
    // Running estimate of per-hop batch latency for adaptive polling,
    // seeded from the sampling-profile expectation and refined with an
    // exponential moving average of observed batches (the sampled
    // distribution fixes the shape; the EWMA absorbs service-time
    // queueing the offline model cannot see). Reset per query so results
    // do not depend on query execution order.
    let mut batch_ewma: f64 = polling.expected_batch_latency(1) as f64;

    let trace = &workload.traces[qi];
    let query = &workload.queries[qi];
    let mut clock = mem.now();
    let mut bd = QueryBreakdown::default();
    // Attribution clock: advances only with `bd` increments, so the
    // emitted spans partition `[0, bd.total())` exactly.
    let mut att: u64 = 0;
    let mut uploaded = vec![false; config.ndp_units()];

    if let Some(eng) = engine {
        sink.event(
            0,
            EventKind::EtPlan {
                full_lines: eng.full_lines() as u32,
                natural_lines: natural_lines as u32,
            },
        );
    }

    for hop in &trace.hops {
        // Host traversal work for this hop.
        let accepted = hop.evals.iter().filter(|e| e.accepted).count();
        let hop_cpu = cpu.hop_cycles(hop.evals.len(), accepted);
        qs.host_cpu_cycles += hop_cpu;
        let hop_mem = cpu.to_mem_cycles(hop_cpu, mem_clock);
        clock += hop_mem;
        bd.traversal += hop_mem;
        span_adv(sink, &mut att, Phase::Traversal, hop_mem);

        if hop.evals.is_empty() {
            continue;
        }
        // Centroid hops are host-side arithmetic on cached centroids.
        if hop.kind == HopKind::Centroid {
            let c = cpu.distance_compute_cycles(natural_lines) * hop.evals.len() as u64;
            qs.host_cpu_cycles += c;
            let m = cpu.to_mem_cycles(c, mem_clock);
            clock += m;
            bd.traversal += m;
            span_adv(sink, &mut att, Phase::Traversal, m);
            continue;
        }

        // Per-eval fetch plans.
        struct EvalPlanned {
            id: usize,
            lines_by_placement: Vec<(usize, usize)>, // (rank, lines)
            backup: usize,
        }
        let mut planned: Vec<EvalPlanned> = Vec::with_capacity(hop.evals.len());
        let mut resumed = false;
        for e in &hop.evals {
            let placements = if replicas.contains(e.id) {
                partitioner.placement_in_group(e.id, loads.least_loaded_group())
            } else {
                partitioner.placement(e.id)
            };
            let mut lines_by_placement = Vec::with_capacity(placements.len());
            let mut backup = 0usize;
            let mut pruned = false;
            if placements.len() == 1 || !design.is_ndp() {
                // Whole vector evaluated in one place (CPU designs
                // always see the whole vector).
                let (lines, bk, pr) = match &engine {
                    None => (natural_lines, 0, false),
                    Some(eng) => {
                        let mut ob = SinkEtObserver {
                            sink: &mut *sink,
                            cycle: att,
                        };
                        let c =
                            eng.evaluate_obs(e.id, query, e.threshold, &mut et_scratch, &mut ob);
                        (c.lines, c.backup_lines, c.pruned)
                    }
                };
                pruned = pr;
                backup = bk;
                let rank = placements[0].rank;
                lines_by_placement.push((rank, lines));
            } else {
                // Vertical sub-vectors: local ET with proportional
                // threshold shares, aggregated soundly by the host
                // (see `etplan`).
                match &engine {
                    None => {
                        for p in &placements {
                            let lines = (p.dims.len() * elem_bytes).div_ceil(64);
                            lines_by_placement.push((p.rank, lines));
                        }
                    }
                    Some(eng) => {
                        let chunks: Vec<std::ops::Range<usize>> =
                            placements.iter().map(|p| p.dims.clone()).collect();
                        let mut ob = SinkEtObserver {
                            sink: &mut *sink,
                            cycle: att,
                        };
                        let m = crate::etplan::evaluate_chunked_obs(
                            eng,
                            e.id,
                            query,
                            &chunks,
                            e.threshold,
                            &mut et_scratch,
                            &mut ob,
                        );
                        pruned = m.pruned;
                        backup = m.backup_lines;
                        resumed |= m.resumed;
                        for (p, l) in placements.iter().zip(&m.lines) {
                            lines_by_placement.push((p.rank, *l));
                        }
                    }
                }
            }
            let total: usize = lines_by_placement.iter().map(|&(_, l)| l).sum::<usize>() + backup;
            if e.accepted {
                qs.effectual_lines += (total - backup) as u64;
            } else {
                qs.ineffectual_lines += (total - backup) as u64;
            }
            qs.backup_lines += backup as u64;
            qs.total_evals += 1;
            if pruned {
                qs.pruned_evals += 1;
            }
            qs.ndp_compute_lines += total as u64;
            for &(rank, lines) in &lines_by_placement {
                loads.add(rank, lines as u64);
            }
            planned.push(EvalPlanned {
                id: e.id,
                lines_by_placement,
                backup,
            });
        }
        if design.is_ndp() {
            // Offload: upload query to first-touched ranks, then
            // set-search writes (≤ 8 tasks each).
            let mut tasks_per_rank: HashMap<usize, usize> = HashMap::new();
            for p in &planned {
                for &(rank, _) in &p.lines_by_placement {
                    *tasks_per_rank.entry(rank).or_insert(0) += 1;
                }
            }
            // §5.2: set-search is issued before set-query, so the
            // NDP unit starts fetching the search vector while the
            // query uploads — the upload overlaps the batch below.
            let mut offload_cpu = 0u64;
            let mut upload_cpu = 0u64;
            for (&rank, &tasks) in &tasks_per_rank {
                if !uploaded[rank] {
                    uploaded[rank] = true;
                    upload_cpu += cpu.query_upload_cycles(query_bytes);
                }
                offload_cpu += cpu.offload_cycles(tasks);
            }
            qs.host_cpu_cycles += offload_cpu + upload_cpu;
            let offload_mem = cpu.to_mem_cycles(offload_cpu, mem_clock);
            let upload_mem = cpu.to_mem_cycles(upload_cpu, mem_clock);
            clock += offload_mem;
            bd.offload += offload_mem;
            span_adv(sink, &mut att, Phase::Offload, offload_mem);

            // Build sub-tasks and execute.
            let mut subs: Vec<SubTask> = Vec::new();
            for p in &planned {
                for (pi, &(rank, lines)) in p.lines_by_placement.iter().enumerate() {
                    let base =
                        (p.id as u64) * (full_lines as u64 + natural_lines as u64 + 2) + pi as u64;
                    subs.push(SubTask::new(
                        rank,
                        lines + if pi == 0 { p.backup } else { 0 },
                        base,
                        ndp_compute_delay,
                    ));
                }
            }
            let rb0 = if sink.enabled() {
                Some(mem.stats().clone())
            } else {
                None
            };
            let t0 = clock.max(mem.now());
            // Batch events are rebased to the attribution clock at the
            // start of the dist_comp span emitted below.
            let att_batch = att;
            let mut finish = run_ndp_batch(
                &mut mem,
                &mut subs,
                QSHRS_PER_UNIT,
                &mut req_base,
                t0,
                sink,
                att_batch,
            );
            // The overlapped query upload may outlast the fetches.
            let mut upload_extra = 0;
            if t0 + upload_mem > finish {
                let extra = t0 + upload_mem - finish;
                finish += extra;
                bd.offload += extra;
                upload_extra = extra;
                if mem.now() < finish && !mem.busy() {
                    mem.fast_forward_to(finish).expect("idle fast-forward");
                }
            }
            // A residual round is an extra host round-trip: the host
            // polls the partial bounds, re-offloads to the terminated
            // ranks, and waits for another rank-local fetch burst.
            if resumed {
                finish +=
                    cpu.to_mem_cycles(cpu.offload_cycles(8) + cpu.poll_cycles(), mem_clock) + 200;
                if mem.now() < finish && !mem.busy() {
                    mem.fast_forward_to(finish).expect("idle fast-forward");
                }
                sink.event(att_batch + (finish - t0), EventKind::EtResumed);
            }
            bd.dist_comp += finish - t0;
            // dist_comp first so the batch's rebased events fall inside
            // it; the upload-overshoot share of offload follows.
            span_adv(sink, &mut att, Phase::DistComp, finish - t0);
            span_adv(sink, &mut att, Phase::Offload, upload_extra);
            if trace_dram {
                drain_dram_commands(&mut mem, sink, att_batch, t0);
            }
            if let Some(s0) = rb0 {
                let s1 = mem.stats().clone();
                row_buffer_delta(sink, att, &s0, &s1);
            }

            // Polling. Tasks on one rank occupy distinct QSHRs and
            // run in parallel, so the expected batch latency is that
            // of one task; stragglers are caught by the retry period.
            let actual = finish - t0;
            let stats = match &polling {
                PollingPolicy::Conventional { .. } => polling.observe(1, actual),
                PollingPolicy::Adaptive { retry_period, .. } => {
                    // Poll slightly ahead of the expectation and let
                    // short retries catch the tail: wasted delay stays
                    // below one retry period on average. The first
                    // poll never waits longer than the conventional
                    // period, so adaptive polling cannot lose to it on
                    // short batches either.
                    let first = (batch_ewma.ceil() as u64).min(CONVENTIONAL_POLL_PERIOD);
                    batch_ewma = 0.7 * batch_ewma + 0.3 * actual as f64;
                    PollingStats::observe_at(first, (*retry_period).min(40), actual)
                }
            };
            qs.polls += stats.polls as u64;
            // Intermediate "not ready" polls only read a status word;
            // result parsing happens once, on the final poll.
            let poll_cpu = cpu.costs.offload_command * (stats.polls as u64 - 1) + cpu.poll_cycles();
            qs.host_cpu_cycles += poll_cpu;
            let observe_abs = t0 + stats.observed_at;
            let after_poll = observe_abs + cpu.to_mem_cycles(poll_cpu, mem_clock);
            bd.result_collect += after_poll - finish;
            span_adv(sink, &mut att, Phase::ResultCollect, after_poll - finish);
            sink.event(
                att,
                EventKind::PollRounds {
                    polls: stats.polls,
                    wasted: stats.wasted_delay.min(u32::MAX as u64) as u32,
                },
            );
            clock = after_poll;
            if mem.now() < clock && !mem.busy() {
                mem.fast_forward_to(clock).expect("idle fast-forward");
            }
            clock = clock.max(mem.now());
        } else {
            // CPU path: comparisons execute serially on one core;
            // within one comparison the vector lines stream with
            // memory-level parallelism. Two additional effects make
            // the host memory-bound as in the paper's measurements:
            // every vector fetch traverses the cache hierarchy (an
            // LLC miss costs its lookup latency before DRAM), and the
            // four channels are shared by all sixteen active cores,
            // so per-core streaming bandwidth is capped at
            // channels/cores of the peak.
            let hop_start = clock;
            let att_hop = att;
            let mem_hop0 = mem.now();
            let rb0 = if sink.enabled() {
                Some(mem.stats().clone())
            } else {
                None
            };
            let llc_mem = cpu.to_mem_cycles(60, mem_clock);
            let burst = config.dram.timing.burst_cycles;
            let contention = cpu.cores as u64 * burst / config.dram.channels as u64;
            for p in &planned {
                let lines: usize =
                    p.lines_by_placement.iter().map(|&(_, l)| l).sum::<usize>() + p.backup;
                if lines > 0 {
                    if mem.now() < clock && !mem.busy() {
                        mem.fast_forward_to(clock).expect("idle fast-forward");
                    }
                    let start = mem.now();
                    let base_line = (p.id as u64) * (full_lines as u64 + natural_lines as u64 + 2);
                    for l in 0..lines as u64 {
                        let addr = (base_line + l) * 64;
                        let req = Request::new(req_base, AccessKind::Read, addr, Port::Host);
                        req_base += 1;
                        let accepted = mem.enqueue(req).is_ok();
                        debug_assert!(accepted, "host fetch dropped: queue full after wait");
                        let _ = accepted;
                        // Respect queue capacity. Queue slots free only
                        // at command-issue events, so skipping dead
                        // cycles between them is exact.
                        mem.advance_until_accept((base_line + l + 1) * 64, Port::Host);
                    }
                    mem.drain_all();
                    mem.take_completed();
                    let drained = mem.now() - start;
                    let bw_floor = lines as u64 * contention;
                    clock += drained.max(bw_floor) + llc_mem;
                    if mem.now() < clock && !mem.busy() {
                        mem.fast_forward_to(clock).expect("idle fast-forward");
                    }
                    clock = clock.max(mem.now());
                }
                let c = cpu.distance_compute_cycles(lines.max(1));
                qs.host_cpu_cycles += c;
                clock += cpu.to_mem_cycles(c, mem_clock);
            }
            bd.dist_comp += clock - hop_start;
            span_adv(sink, &mut att, Phase::DistComp, clock - hop_start);
            if trace_dram {
                drain_dram_commands(&mut mem, sink, att_hop, mem_hop0);
            }
            if let Some(s0) = rb0 {
                let s1 = mem.stats().clone();
                row_buffer_delta(sink, att, &s0, &s1);
            }
        }
    }

    let _ = clock;
    debug_assert_eq!(att, bd.total(), "attribution clock mirrors breakdown");
    sink.counter("replay.queries", 1);
    sink.counter("replay.evals", qs.total_evals);
    sink.counter("replay.evals_pruned", qs.pruned_evals);
    sink.counter("replay.lines_effectual", qs.effectual_lines);
    sink.counter("replay.lines_ineffectual", qs.ineffectual_lines);
    sink.counter("replay.lines_backup", qs.backup_lines);
    sink.counter("replay.polls", qs.polls);
    sink.counter("replay.host_cpu_cycles", qs.host_cpu_cycles);
    {
        let st = mem.stats();
        sink.counter("dram.row_hits", st.row_hits);
        sink.counter("dram.row_misses", st.row_misses);
        sink.counter("dram.row_conflicts", st.row_conflicts);
    }
    sink.record("replay.query_cycles", bd.total());
    qs.breakdown = bd;
    qs.rank_counts = mem.rank_command_counts();
    qs.rank_loads = loads.loads().to_vec();
    crate::parallel::record_mem_cycles(&mem);
    qs
}

/// Translate the sampled termination histogram (bit positions) into a
/// per-comparison line-count histogram under the design's schedule.
fn line_histogram(plan: &DesignPlan, workload: &Workload, natural_lines: usize) -> Vec<(u64, f64)> {
    let dim = workload.data.dim();
    match &plan.et {
        None => vec![(natural_lines as u64, 1.0)],
        Some(et) => {
            let sched = &et.schedule;
            let cumulative = sched.cumulative_bits();
            let prefix = sched.prefix_len();
            let mut hist: HashMap<u64, f64> = HashMap::new();
            let full = sched.total_lines(dim) as u64;
            for (i, &p) in workload.profile.et_histogram.iter().enumerate() {
                if p <= 0.0 {
                    continue;
                }
                let bits = (i + 1) as u32;
                let payload = bits.saturating_sub(prefix);
                // Lines until the payload position is covered.
                let mut lines = 0u64;
                for (s, &c) in cumulative.iter().enumerate() {
                    lines += sched.lines_in_step(s, dim) as u64;
                    if c >= payload {
                        break;
                    }
                }
                *hist.entry(lines.min(full)).or_insert(0.0) += p;
            }
            if workload.profile.never_frac > 0.0 {
                *hist.entry(full).or_insert(0.0) += workload.profile.never_frac;
            }
            let mut v: Vec<(u64, f64)> = hist.into_iter().collect();
            v.sort_by_key(|&(l, _)| l);
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ansmet_vecdata::SynthSpec;

    fn small_workload() -> Workload {
        Workload::prepare(&SynthSpec::sift().scaled(500, 2), 10, Some(40))
    }

    #[test]
    fn ndp_base_beats_cpu_base() {
        let wl = small_workload();
        let cfg = SystemConfig::default();
        let cpu = run_design(Design::CpuBase, &wl, &cfg);
        let ndp = run_design(Design::NdpBase, &wl, &cfg);
        assert!(
            ndp.total_cycles < cpu.total_cycles,
            "NDP {} vs CPU {}",
            ndp.total_cycles,
            cpu.total_cycles
        );
    }

    #[test]
    fn et_reduces_lines_and_cycles() {
        let wl = small_workload();
        let cfg = SystemConfig::default();
        let base = run_design(Design::NdpBase, &wl, &cfg);
        let et = run_design(Design::NdpEt, &wl, &cfg);
        assert!(et.total_lines() < base.total_lines());
        assert!(et.pruned_evals > 0);
        // SIFT is the paper's weakest ET case (~10 % gain); on a tiny test
        // workload allow a small noise band around parity.
        assert!(et.total_cycles as f64 <= base.total_cycles as f64 * 1.05);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let wl = small_workload();
        let cfg = SystemConfig::default();
        let r = run_design(Design::NdpEtOpt, &wl, &cfg);
        assert_eq!(r.breakdown.total(), r.total_cycles);
        assert!(r.breakdown.traversal > 0);
        assert!(r.breakdown.dist_comp > 0);
    }

    #[test]
    fn fetch_utilization_improves_with_et() {
        let wl = small_workload();
        let cfg = SystemConfig::default();
        let base = run_design(Design::NdpBase, &wl, &cfg);
        let opt = run_design(Design::NdpEtOpt, &wl, &cfg);
        assert!(
            opt.fetch_utilization() >= base.fetch_utilization(),
            "{} vs {}",
            opt.fetch_utilization(),
            base.fetch_utilization()
        );
    }

    #[test]
    fn traced_run_matches_untraced_and_attributes_every_cycle() {
        let wl = small_workload();
        let cfg = SystemConfig::default();
        let plain = run_design(Design::NdpEtOpt, &wl, &cfg);
        let (traced, rec) =
            run_design_traced(Design::NdpEtOpt, &wl, &cfg, &TraceOptions::default());
        // Instrumentation observes, never steers.
        assert_eq!(plain, traced);
        assert_eq!(rec.queries.len(), wl.traces.len());
        // Phase sums tile each query's end-to-end latency exactly.
        let refs: Vec<&ansmet_obs::QueryTrace> = rec.queries.iter().collect();
        ansmet_obs::attribution_check(&refs).expect("spans tile total cycles");
        // The run-wide shard saw every query.
        assert_eq!(
            rec.metrics.counter("replay.queries"),
            wl.traces.len() as u64
        );
        assert!(rec.metrics.counter("replay.evals") > 0);
    }

    #[test]
    fn dram_command_trace_events_present_when_enabled() {
        let wl = small_workload();
        let cfg = SystemConfig::default();
        let opts = TraceOptions {
            dram_commands: true,
            ..TraceOptions::default()
        };
        let (_, rec) = run_design_traced(Design::NdpEt, &wl, &cfg, &opts);
        let has_cmd = rec.queries.iter().any(|t| {
            t.events
                .iter()
                .any(|e| matches!(e.kind, ansmet_obs::EventKind::DramCommand { .. }))
        });
        assert!(has_cmd, "expected DRAM command events");
    }

    #[test]
    fn rank_loads_populated_for_ndp() {
        let wl = small_workload();
        let cfg = SystemConfig::default();
        let r = run_design(Design::NdpBase, &wl, &cfg);
        assert_eq!(r.rank_loads.len(), 32);
        assert!(r.rank_loads.iter().sum::<u64>() > 0);
    }
}
