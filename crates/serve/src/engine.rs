//! The online serving engine: admission control, weighted-fair queueing,
//! dynamic batch formation, and simulated execution on the NDP device.
//!
//! The engine advances a single simulated clock (memory cycles). Queries
//! arrive open-loop from [`generate_arrivals`]; an admission controller
//! sheds on queue-depth backpressure and expired deadlines; a
//! weighted-fair queue picks which admitted queries join the next batch;
//! a dynamic batch former dispatches when the batch fills, the oldest
//! query has lingered long enough, or no more arrivals are coming; and
//! each dispatched batch executes through the wave model
//! ([`WaveContext`]) of the cycle-level simulator.
//!
//! Determinism: the loop is strictly event-ordered, every tie is broken
//! by `(tag, tenant, seq)`, batches execute on fresh device state, and
//! the recorded latencies feed integer histograms — so one seed and one
//! config produce one bit-identical report, independent of host thread
//! count or run-to-run jitter (enforced by `tests/serving.rs`).

use std::collections::VecDeque;

use ansmet_faults::{FaultInjector, FaultPlan, FaultRates, StormPlan};
use ansmet_obs::{EventKind, LatencyHistogram, NoopSink, Phase, TraceSink};
use ansmet_sim::{Design, EventWheel, SystemConfig, WaveContext, Workload};

use crate::arrival::{generate_arrivals, Arrival, TenantSpec};
use crate::report::{ServeReport, TenantReport};
use crate::resilience::{FleetState, ResilienceConfig, WindowStats};

/// Dynamic batch-formation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Most queries one batch may carry.
    pub max_batch: usize,
    /// Longest the oldest queued query may wait for co-batchees, in
    /// memory cycles, before the batch dispatches part-full.
    pub max_linger_cycles: u64,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 8,
            max_linger_cycles: 4_000,
        }
    }
}

/// Admission-control policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Queue-depth backpressure: an arrival finding this many queries
    /// already queued is shed immediately.
    pub max_queue_depth: usize,
    /// Optional per-query deadline in cycles: a query still queued this
    /// long after arrival is shed at dispatch time instead of executed
    /// (it could no longer meet any SLO, so executing it wastes device
    /// time that fresher queries need).
    pub deadline_cycles: Option<u64>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_queue_depth: 256,
            deadline_cycles: None,
        }
    }
}

/// Fault-injection profile for a serving run. The host recovers under
/// [`RetryPolicy::default_ndp`](ansmet_host::RetryPolicy::default_ndp).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Per-operation fault probabilities.
    pub rates: FaultRates,
    /// Seed for the generated [`FaultPlan`].
    pub seed: u64,
}

/// Full configuration of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Seed for arrival generation (and query selection).
    pub seed: u64,
    /// The hardware design serving the traffic (NDP designs only).
    pub design: Design,
    /// The tenants sharing the device.
    pub tenants: Vec<TenantSpec>,
    /// Batch-formation policy.
    pub batch: BatchPolicy,
    /// Admission-control policy.
    pub admission: AdmissionConfig,
    /// Optional fault injection (recovery shows up as tail latency).
    pub faults: Option<FaultProfile>,
    /// Optional scripted sustained-degradation storm (rank groups sick
    /// over serving-clock windows).
    pub storm: Option<StormPlan>,
    /// Optional fleet-resilience layer (health tracking, circuit
    /// breakers, hedged offloads, brownout admission).
    pub resilience: Option<ResilienceConfig>,
    /// Optional scheduled maintenance: periodic compaction-style pauses
    /// that hold the device (models the freshness tier's epoch work on
    /// the serving path). `None` leaves the engine bit-identical to the
    /// pre-maintenance behavior.
    pub maintenance: Option<MaintenancePlan>,
}

/// Periodic device-pause schedule (compaction / re-validation work).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaintenancePlan {
    /// Cycles between pause opportunities. The pause fires at the first
    /// scheduling decision at or after each due cycle.
    pub interval_cycles: u64,
    /// Cycles the device is held per pause.
    pub pause_cycles: u64,
}

impl ServeConfig {
    /// A single-tenant Poisson workload: `queries` arrivals at `qps`
    /// with SLO `slo_cycles`, served by `NdpEtOpt`.
    pub fn open_loop(seed: u64, qps: f64, queries: usize, slo_cycles: u64) -> Self {
        ServeConfig {
            seed,
            design: Design::NdpEtOpt,
            tenants: vec![TenantSpec {
                name: "default".into(),
                weight: 1,
                process: crate::arrival::ArrivalProcess::Poisson { qps },
                slo_cycles,
                queries,
            }],
            batch: BatchPolicy::default(),
            admission: AdmissionConfig::default(),
            faults: None,
            storm: None,
            resilience: None,
            maintenance: None,
        }
    }

    /// The same config with every tenant's offered load scaled so the
    /// aggregate nominal rate becomes `total_qps` (ratios preserved).
    ///
    /// # Panics
    ///
    /// Panics if the current aggregate nominal rate is zero.
    pub fn with_total_qps(&self, total_qps: f64, mem_clock_mhz: u64) -> Self {
        let current: f64 = self
            .tenants
            .iter()
            .map(|t| t.process.nominal_qps(mem_clock_mhz))
            .sum();
        assert!(current > 0.0, "aggregate offered load is zero");
        let factor = total_qps / current;
        let mut out = self.clone();
        for t in &mut out.tenants {
            t.process = t.process.scaled(factor);
        }
        out
    }

    /// The same config with fault injection enabled.
    pub fn with_faults(mut self, profile: FaultProfile) -> Self {
        self.faults = Some(profile);
        self
    }

    /// The same config with a scripted storm enabled.
    pub fn with_storm(mut self, storm: StormPlan) -> Self {
        self.storm = Some(storm);
        self
    }

    /// The same config with the fleet-resilience layer enabled.
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = Some(resilience);
        self
    }

    /// The same config with scheduled maintenance pauses enabled.
    pub fn with_maintenance(mut self, plan: MaintenancePlan) -> Self {
        self.maintenance = Some(plan);
        self
    }
}

/// Serve-clock timer tokens (agents on the shared [`EventWheel`]).
const WAKE_ARRIVAL: u32 = 0;
const WAKE_DEVICE_FREE: u32 = 1;
const WAKE_LINGER: u32 = 2;

/// A query waiting in its tenant's queue.
#[derive(Debug, Clone, Copy)]
struct Queued {
    arrival: Arrival,
    /// WFQ finish tag; dispatch order is ascending `(tag, tenant, seq)`.
    tag: u64,
}

/// Per-tenant running tallies.
#[derive(Debug, Default, Clone)]
struct TenantTally {
    offered: u64,
    shed_queue: u64,
    shed_deadline: u64,
    completed: u64,
    slo_attained: u64,
    total: LatencyHistogram,
}

/// FNV-1a over the served queries' neighbor ids, in arrival order.
///
/// Faults must never change *what* a query returns, only *when* — so a
/// faulted run over the same served set hashes to the same fingerprint.
fn results_fingerprint(served: &[Option<usize>], workload: &Workload) -> u64 {
    let mut h = ansmet_obs::Fnv64::new();
    for q in served.iter().flatten() {
        h.write_u64(*q as u64 + 1);
        for &id in &workload.results[*q] {
            h.write_u64(id as u64);
        }
    }
    h.finish()
}

/// Run one online serving simulation.
///
/// # Panics
///
/// Panics on an empty tenant list, a CPU design, a zero batch size, or
/// a workload with no queries.
pub fn run_serve(workload: &Workload, config: &SystemConfig, serve: &ServeConfig) -> ServeReport {
    run_serve_with_sink(workload, config, serve, &mut NoopSink)
}

/// [`run_serve`] with a [`TraceSink`] riding along.
///
/// Spans are stamped on the serving clock (absolute memory cycles):
/// each completed query contributes a queue span from arrival to
/// dispatch, an execute span for its wave retirement, and — under fault
/// injection — a recovery span covering its penalty. Point events mark
/// batch formation, sheds, and recovery retries/CRC rejections/host
/// fallbacks. The sink observes the run, never steers it: with
/// [`NoopSink`] the report is bit-identical to [`run_serve`].
///
/// # Panics
///
/// Panics on an empty tenant list, a CPU design, a zero batch size, or
/// a workload with no queries.
pub fn run_serve_with_sink<S: TraceSink>(
    workload: &Workload,
    config: &SystemConfig,
    serve: &ServeConfig,
    sink: &mut S,
) -> ServeReport {
    assert!(serve.batch.max_batch > 0, "zero batch size");
    assert!(!workload.queries.is_empty(), "empty workload");
    let mem_clock = config.dram.clock_mhz;
    let arrivals = generate_arrivals(
        &serve.tenants,
        workload.queries.len(),
        serve.seed,
        mem_clock,
    );
    let ctx = WaveContext::new(serve.design, workload, config);
    let partitioner = ctx.partitioner();

    let make_injector = |f: &FaultProfile| {
        let evals: u64 = workload
            .traces
            .iter()
            .map(|t| t.total_evals() as u64)
            .sum::<u64>();
        // Upper-bound ops per rank: every arrival replays a trace, plus
        // retry re-offloads.
        let per_rank = (arrivals.len() as u64 * evals * 2)
            / (config.ndp_units() as u64).max(1)
            / (workload.traces.len() as u64).max(1)
            + 64;
        let plan = FaultPlan::random(f.seed, config.ndp_units(), per_rank, f.rates);
        FaultInjector::new(plan)
    };
    // Every faulted or stormed run prices recovery through the fleet
    // state; a clean run builds none and walks no traces for penalties.
    // The resilience report exists only when a storm or the resilience
    // layer was asked for.
    let fleet_layer = serve.storm.is_some() || serve.resilience.is_some();
    let mut fleet = (fleet_layer || serve.faults.is_some()).then(|| {
        FleetState::new(
            partitioner,
            workload.data.vector_lines() as u64,
            serve.faults.as_ref().map(make_injector),
            serve.storm.clone().unwrap_or_else(StormPlan::none),
            serve.resilience,
        )
    });
    let storm_span = serve.storm.as_ref().and_then(StormPlan::span);
    let window_of = |cycle: u64| -> usize {
        match storm_span {
            Some((start, _)) if cycle < start => 0,
            Some((_, end)) if cycle < end => 1,
            _ => 2,
        }
    };
    let mut window_stats = [WindowStats::default(); 3];
    let mut window_hists = [
        LatencyHistogram::new(),
        LatencyHistogram::new(),
        LatencyHistogram::new(),
    ];
    let top_weight = serve.tenants.iter().map(|t| t.weight).max().unwrap_or(1);

    // Per-tenant FIFO queues; WFQ tags assigned at admission.
    let n_tenants = serve.tenants.len();
    let mut queues: Vec<VecDeque<Queued>> = vec![VecDeque::new(); n_tenants];
    let mut wfq = crate::wfq::WfqState::new(n_tenants);
    let mut queued_total = 0usize;
    let mut tallies: Vec<TenantTally> = vec![TenantTally::default(); n_tenants];

    let mut queue_hist = LatencyHistogram::new();
    let mut exec_hist = LatencyHistogram::new();
    let mut total_hist = LatencyHistogram::new();
    let mut served: Vec<Option<usize>> = vec![None; arrivals.len()];

    let mut ev = 0usize; // next un-admitted arrival
    let mut now = 0u64;
    let mut device_free = 0u64;
    let mut batches = 0u64;
    let mut batched_queries = 0u64;
    let mut makespan = 0u64;
    // All serve-clock timers (next arrival, device-free, batch linger)
    // register wakeups here; the loop advances by popping the earliest.
    // Exactly one timer is armed per idle decision, so the pop returns
    // the same cycle the pre-wheel code computed inline.
    let mut timers = EventWheel::new(0);
    let mut next_maintenance = serve.maintenance.map(|p| p.interval_cycles);
    let mut maintenance_epoch = 0u32;

    loop {
        // Brownout: detected capacity loss (open breakers) tightens
        // admission before this round. High-priority (top-weight)
        // tenants are shifted half as hard.
        let brownout = match &mut fleet {
            Some(fl) => fl.brownout_level(now, sink),
            None => 0,
        };
        let shift_of = |weight: u64| -> u32 {
            if weight >= top_weight {
                brownout / 2
            } else {
                brownout
            }
        };
        // Admit everything that has arrived by `now`.
        while ev < arrivals.len() && arrivals[ev].cycle <= now {
            let a = arrivals[ev];
            let tally = &mut tallies[a.tenant];
            tally.offered += 1;
            window_stats[window_of(a.cycle)].offered += 1;
            let depth_limit = (serve.admission.max_queue_depth
                >> shift_of(serve.tenants[a.tenant].weight))
            .max(1);
            if queued_total >= depth_limit {
                tally.shed_queue += 1;
                sink.event(a.cycle, EventKind::Shed { deadline: false });
                if brownout > 0 {
                    if let Some(fl) = &mut fleet {
                        fl.brownout_sheds += 1;
                    }
                }
            } else {
                let tag = wfq.admit_tag(a.tenant, serve.tenants[a.tenant].weight);
                queues[a.tenant].push_back(Queued { arrival: a, tag });
                queued_total += 1;
            }
            ev += 1;
        }
        if queued_total == 0 {
            if ev >= arrivals.len() {
                break;
            }
            timers.schedule(arrivals[ev].cycle.max(now), WAKE_ARRIVAL);
            now = timers.pop_next().expect("arrival timer armed").cycle;
            continue;
        }
        sink.sample(now, "serve.queue_depth", queued_total as u64);
        if device_free > now {
            // Queries arriving while the device is busy are admitted
            // retroactively at their own arrival cycle, so the wakeup
            // jumps straight to device-free.
            timers.schedule(device_free, WAKE_DEVICE_FREE);
            now = timers.pop_next().expect("device timer armed").cycle;
            continue;
        }
        // Scheduled maintenance holds the idle device before the next
        // batch forms (the pause fires at the first decision point at or
        // after its due cycle).
        if let (Some(plan), Some(due)) = (serve.maintenance, next_maintenance) {
            if now >= due {
                sink.event(
                    now,
                    EventKind::CompactionPause {
                        epoch: maintenance_epoch,
                        cycles: plan.pause_cycles.min(u32::MAX as u64) as u32,
                    },
                );
                maintenance_epoch += 1;
                device_free = now + plan.pause_cycles;
                // The next pause is due one interval after this one
                // *ends*, so serving always resumes between pauses even
                // when the pause is longer than the interval.
                next_maintenance = Some(device_free + plan.interval_cycles);
                continue;
            }
        }
        // Batch-formation decision.
        let oldest = queues
            .iter()
            .filter_map(|q| q.front())
            .map(|q| q.arrival.cycle)
            .min()
            .expect("non-empty queues");
        let ready = queued_total >= serve.batch.max_batch
            || ev >= arrivals.len()
            || now >= oldest.saturating_add(serve.batch.max_linger_cycles);
        if !ready {
            let wake = arrivals[ev]
                .cycle
                .min(oldest.saturating_add(serve.batch.max_linger_cycles));
            timers.schedule(wake.max(now + 1), WAKE_LINGER);
            now = timers.pop_next().expect("linger timer armed").cycle;
            continue;
        }

        // Pop up to max_batch queries in WFQ order, shedding expired
        // deadlines as they surface.
        let mut batch: Vec<Queued> = Vec::with_capacity(serve.batch.max_batch);
        while batch.len() < serve.batch.max_batch {
            let Some(t) = crate::wfq::WfqState::next_tenant(
                queues
                    .iter()
                    .enumerate()
                    .filter_map(|(t, q)| q.front().map(|h| (t, h.tag))),
            ) else {
                break;
            };
            let q = queues[t].pop_front().expect("non-empty");
            queued_total -= 1;
            wfq.advance_to(q.tag);
            if let Some(dl) = serve.admission.deadline_cycles {
                let dl = (dl >> shift_of(serve.tenants[t].weight)).max(1);
                if now > q.arrival.cycle.saturating_add(dl) {
                    tallies[t].shed_deadline += 1;
                    sink.event(now, EventKind::Shed { deadline: true });
                    if brownout > 0 {
                        if let Some(fl) = &mut fleet {
                            fl.brownout_sheds += 1;
                        }
                    }
                    continue;
                }
            }
            batch.push(q);
        }
        if batch.is_empty() {
            continue; // everything popped had expired
        }

        // Execute the batch on fresh device state.
        let ids: Vec<usize> = batch.iter().map(|q| q.arrival.query).collect();
        let exec = ctx.execute_with_sink(&ids, sink, now);
        batches += 1;
        batched_queries += batch.len() as u64;
        sink.event(
            now,
            EventKind::BatchFormed {
                size: batch.len() as u32,
            },
        );

        // Fault-recovery penalties stretch individual completions and
        // hold the device (the wave's close waits for recovery).
        let mut max_penalty = 0u64;
        let penalties: Vec<u64> = match &mut fleet {
            Some(fl) => batch
                .iter()
                .map(|q| {
                    let p = fl.query_penalty(workload, q.arrival.query, partitioner, now, sink);
                    max_penalty = max_penalty.max(p);
                    p
                })
                .collect(),
            None => vec![0; batch.len()],
        };

        for ((q, &retire), &penalty) in batch.iter().zip(&exec.per_query_cycles).zip(&penalties) {
            let completion = now + retire + penalty;
            let queue_cycles = now - q.arrival.cycle;
            let exec_cycles = retire + penalty;
            let total = completion - q.arrival.cycle;
            queue_hist.record(queue_cycles);
            exec_hist.record(exec_cycles);
            total_hist.record(total);
            sink.event(
                completion,
                EventKind::QueryComplete {
                    query: q.arrival.query as u32,
                    tenant: q.arrival.tenant as u32,
                },
            );
            if queue_cycles > 0 {
                sink.span(Phase::Queue, q.arrival.cycle, now);
            }
            if retire > 0 {
                sink.span(Phase::Execute, now, now + retire);
            }
            if penalty > 0 {
                sink.span(Phase::Recovery, now + retire, completion);
            }
            sink.record("serve.queue_cycles", queue_cycles);
            sink.record("serve.exec_cycles", exec_cycles);
            sink.record("serve.total_cycles", total);
            let tally = &mut tallies[q.arrival.tenant];
            tally.completed += 1;
            tally.total.record(total);
            let w = window_of(q.arrival.cycle);
            window_stats[w].completed += 1;
            window_hists[w].record(total);
            if total <= serve.tenants[q.arrival.tenant].slo_cycles {
                tally.slo_attained += 1;
                window_stats[w].slo_attained += 1;
            }
            makespan = makespan.max(completion);
            served[arrival_index(&arrivals, q.arrival)] = Some(q.arrival.query);
        }
        device_free = now + exec.total_cycles + max_penalty;
    }

    sink.counter("serve.batches", batches);
    sink.counter("serve.batched_queries", batched_queries);
    sink.counter(
        "serve.shed_queue",
        tallies.iter().map(|t| t.shed_queue).sum(),
    );
    sink.counter(
        "serve.shed_deadline",
        tallies.iter().map(|t| t.shed_deadline).sum(),
    );
    sink.counter("serve.completed", tallies.iter().map(|t| t.completed).sum());
    sink.gauge_max("serve.makespan_cycles", makespan);

    let recovery = fleet.as_ref().map(FleetState::recovery_report);
    let resilience = fleet.filter(|_| fleet_layer).map(|fl| {
        fl.resilience_report(storm_span.map(|(start, end)| {
            for (i, h) in window_hists.iter().enumerate() {
                window_stats[i].p99_cycles = h.quantile(0.99);
            }
            (
                start,
                end,
                window_stats[0],
                window_stats[1],
                window_stats[2],
            )
        }))
    });
    let fingerprint = results_fingerprint(&served, workload);
    let tenants = serve
        .tenants
        .iter()
        .zip(tallies)
        .map(|(spec, t)| {
            TenantReport::new(
                spec,
                t.offered,
                t.shed_queue,
                t.shed_deadline,
                t.completed,
                t.slo_attained,
                &t.total,
                makespan,
                mem_clock,
            )
        })
        .collect();

    ServeReport::new(
        serve,
        mem_clock,
        makespan,
        batches,
        batched_queries,
        &queue_hist,
        &exec_hist,
        &total_hist,
        tenants,
        recovery,
        resilience,
        fingerprint,
    )
}

/// Position of `a` in the sorted arrival list (unique by
/// `(cycle, tenant, seq)`).
fn arrival_index(arrivals: &[Arrival], a: Arrival) -> usize {
    arrivals
        .binary_search_by_key(&(a.cycle, a.tenant, a.seq), |x| (x.cycle, x.tenant, x.seq))
        .expect("arrival came from this list")
}
