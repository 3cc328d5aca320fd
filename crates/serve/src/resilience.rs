//! Fleet-level resilience: the serving tier's one fault-recovery path,
//! plus cross-query rank-group health, circuit breakers, hedged
//! offloads, and brownout admission control.
//!
//! Every faulted or stormed serving run prices recovery here. Without
//! the resilience layer the fleet state only replays the offload
//! protocol per comparison — timeout, CRC rejection, bounded backoff
//! retry, exact host fallback — which survives transient faults but
//! rediscovers a *persistently* sick rank group anew on every
//! query: each one burns its full retry budget against a unit that has
//! been hung for a million cycles. A [`ResilienceConfig`] adds NDP
//! health management *across* queries on the serving clock:
//!
//! * a [`HealthTracker`] (EWMA failure rates + consecutive-failure
//!   counters, `ansmet-host`) drives a closed → open → half-open circuit
//!   breaker per rank group; while a breaker is open, offloads skip the
//!   group entirely — rerouting to a replica group or falling straight
//!   back to host compute, without waiting out a poll deadline;
//! * *hedged offloads*: when a batch times out on its primary group and
//!   hedging is enabled, the host re-issues it to a replica group after
//!   a histogram-derived hedge delay (p95 of observed service times,
//!   floored at 512 cycles, capped below the timeout window) and takes
//!   the first valid CRC-checked result;
//! * *brownout* admission: on detected capacity loss (open breakers) the
//!   serving tier tightens queue-depth and deadline shedding by tenant
//!   priority — degrading *admission*, never *answers*;
//! * scripted [`StormPlan`]s from `ansmet-faults` model the sustained
//!   degradation all of this exists for.
//!
//! The zero-accuracy-loss contract is preserved by construction: every
//! path (reroute, hedge, fallback) returns the same distances a
//! fault-free run computes, so served results stay fingerprint-identical
//! — faults and storms cost cycles, never answers. Everything is integer
//! arithmetic on the serving clock: one config and seed produce
//! byte-identical reports at any host thread count.

use std::fmt::Write as _;

use ansmet_faults::{ComputeFault, FaultInjector, FaultKind, StormKind, StormPlan};
use ansmet_host::{
    BreakerConfig, BreakerState, BreakerTransition, HealthTracker, RetryPolicy, CYCLES_PER_LINE,
    TASK_OVERHEAD_CYCLES, TIMEOUT_PENALTY_CYCLES,
};
use ansmet_index::HopKind;
use ansmet_ndp::{Partitioner, ReplicaSet, ResultPayload, CONVENTIONAL_POLL_PERIOD};
use ansmet_obs::{EventKind, LatencyHistogram, TraceSink};
use ansmet_sim::{RecoveryReport, Workload};

use crate::report::cycles_to_ms;

/// Floor on the hedge delay, in cycles: the delay never drops below
/// this even when observed service times are tiny.
const HEDGE_MIN_DELAY_CYCLES: u64 = 512;
/// Observed-service samples required before the p95-derived hedge delay
/// replaces the floor.
const HEDGE_WARMUP_SAMPLES: u64 = 32;
/// Highest brownout level: each open breaker raises the level by one,
/// saturating here.
const BROWNOUT_MAX_LEVEL: u32 = 3;

/// Configuration of the resilience layer. Turning the layer on also
/// turns on brownout admission and assumes every shard is fully
/// replicated across rank groups (the serving deployment model), so any
/// offload can re-route. Every rank group's circuit breaker follows
/// [`BreakerConfig::default`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Whether timed-out offloads are hedged to a replica group.
    pub hedging: bool,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig { hedging: true }
    }
}

impl ResilienceConfig {
    /// The default layer with hedging switched off (breakers and
    /// brownout only) — the control arm of the hedging comparison.
    pub fn without_hedging() -> Self {
        ResilienceConfig { hedging: false }
    }
}

/// Latency/SLO tallies for one storm phase (before / during / after).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowStats {
    /// Queries that arrived in the window.
    pub offered: u64,
    /// Of those, queries completed.
    pub completed: u64,
    /// Of those, completions within their tenant's SLO.
    pub slo_attained: u64,
    /// p99 total latency of the window's completions, in cycles.
    pub p99_cycles: u64,
}

impl WindowStats {
    /// SLO attainment over the window's offered queries (sheds count as
    /// misses).
    pub fn slo_attainment(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.slo_attained as f64 / self.offered as f64
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"offered\": {}, \"completed\": {}, \"slo_attained\": {}, \
             \"slo_attainment\": {:.6}, \"p99_cycles\": {}}}",
            self.offered,
            self.completed,
            self.slo_attained,
            self.slo_attainment(),
            self.p99_cycles,
        )
    }
}

/// Outcome of a scripted storm: SLO attainment before/during/after the
/// storm envelope plus the measured recovery time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormOutcome {
    /// First cycle of the storm envelope.
    pub start_cycle: u64,
    /// Recovery instant t′ (exclusive end of the envelope).
    pub end_cycle: u64,
    /// Arrivals before the storm.
    pub before: WindowStats,
    /// Arrivals during the storm.
    pub during: WindowStats,
    /// Arrivals after recovery.
    pub after: WindowStats,
    /// Mean time to repair: cycles from t′ until the last breaker close
    /// at or after t′ (`None` when no breaker closed after the storm —
    /// e.g. it never opened).
    pub mttr_cycles: Option<u64>,
}

/// Aggregate resilience-layer outcome of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    /// Breaker open transitions (including re-opens).
    pub breaker_opens: u64,
    /// Breaker close transitions.
    pub breaker_closes: u64,
    /// Every breaker transition, in observation order.
    pub transitions: Vec<BreakerTransition>,
    /// Half-open probes let through.
    pub probes: u64,
    /// Open-breaker offloads rerouted to a replica group without waiting
    /// out a timeout.
    pub fast_reroutes: u64,
    /// Open-breaker offloads sent straight to host compute.
    pub fast_fallbacks: u64,
    /// Final derived hedge delay, in cycles.
    pub hedge_delay_cycles: u64,
    /// Highest brownout level reached.
    pub brownout_max_level: u32,
    /// Queries shed while the brownout level was above zero.
    pub brownout_sheds: u64,
    /// Storm-phase tallies when a storm was scripted.
    pub storm: Option<StormOutcome>,
}

impl ResilienceReport {
    /// Append the human-readable summary lines to a report rendering.
    pub fn render_into(&self, s: &mut String, mem_clock_mhz: u64) {
        let _ = writeln!(
            s,
            "   resilience: {} opens, {} closes, {} probes, {} fast reroutes, {} fast fallbacks, hedge delay {} cycles, brownout max level {} ({} sheds)",
            self.breaker_opens,
            self.breaker_closes,
            self.probes,
            self.fast_reroutes,
            self.fast_fallbacks,
            self.hedge_delay_cycles,
            self.brownout_max_level,
            self.brownout_sheds,
        );
        if let Some(st) = &self.storm {
            let _ = writeln!(
                s,
                "   storm [{}, {}): slo {:.1}% -> {:.1}% -> {:.1}% (before/during/after), p99 {} -> {} -> {} cycles, mttr {}",
                st.start_cycle,
                st.end_cycle,
                st.before.slo_attainment() * 100.0,
                st.during.slo_attainment() * 100.0,
                st.after.slo_attainment() * 100.0,
                st.before.p99_cycles,
                st.during.p99_cycles,
                st.after.p99_cycles,
                match st.mttr_cycles {
                    Some(c) => format!("{} cycles ({:.4} ms)", c, cycles_to_ms(c, mem_clock_mhz)),
                    None => "n/a".into(),
                },
            );
        }
    }

    /// Serialize to a JSON object (hand-rolled, deterministic).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push('{');
        let _ = write!(
            s,
            "\"breaker_opens\": {}, \"breaker_closes\": {}, \"probes\": {}, \
             \"fast_reroutes\": {}, \"fast_fallbacks\": {}, \"hedge_delay_cycles\": {}, \
             \"brownout_max_level\": {}, \"brownout_sheds\": {}, \"transitions\": [",
            self.breaker_opens,
            self.breaker_closes,
            self.probes,
            self.fast_reroutes,
            self.fast_fallbacks,
            self.hedge_delay_cycles,
            self.brownout_max_level,
            self.brownout_sheds,
        );
        for (i, t) in self.transitions.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{{\"cycle\": {}, \"group\": {}, \"to\": \"{}\"}}",
                t.cycle,
                t.group,
                t.to.as_str()
            );
        }
        s.push(']');
        if let Some(st) = &self.storm {
            let _ = write!(
                s,
                ", \"storm\": {{\"start_cycle\": {}, \"end_cycle\": {}, \"mttr_cycles\": {}, \
                 \"before\": {}, \"during\": {}, \"after\": {}}}",
                st.start_cycle,
                st.end_cycle,
                match st.mttr_cycles {
                    Some(c) => c.to_string(),
                    None => "null".into(),
                },
                st.before.json(),
                st.during.json(),
                st.after.json(),
            );
        }
        s.push('}');
        s
    }
}

/// Why one offload attempt failed (or how it succeeded).
enum Attempt {
    /// The batch completed; `extra` penalty cycles beyond the fault-free
    /// execution, `service` the observed end-to-end service time fed to
    /// the hedge-delay histogram.
    Ok { extra: u64, service: u64 },
    /// The poll deadline would pass with no completion (hang, drop, or a
    /// storm-hung group).
    TimedOut,
    /// The payload arrived `stall` cycles late and failed its CRC.
    Corrupt { stall: u64 },
}

/// Shared fleet state for one serving run: the storm script, the
/// optional point-fault injector, the health tracker, and the hedge
/// histogram, plus every resilience counter.
pub(crate) struct FleetState {
    injector: Option<FaultInjector>,
    storm: StormPlan,
    health: Option<HealthTracker>,
    hedging: bool,
    n_groups: usize,
    group_size: usize,
    natural_lines: u64,
    service_hist: LatencyHistogram,
    brownout_level: u32,
    brownout_max_level: u32,
    pub(crate) brownout_sheds: u64,
    probes: u64,
    fast_reroutes: u64,
    fast_fallbacks: u64,
    rec: RecoveryReport,
}

impl FleetState {
    /// Assemble the fleet state for one run over vectors of
    /// `natural_lines` 64 B lines. `resilience: None` keeps the
    /// breakers/hedging/brownout machinery off (recovery then relies
    /// purely on per-offload retries).
    pub(crate) fn new(
        partitioner: &Partitioner,
        natural_lines: u64,
        injector: Option<FaultInjector>,
        storm: StormPlan,
        resilience: Option<ResilienceConfig>,
    ) -> Self {
        let n_groups = partitioner.rank_groups();
        FleetState {
            injector,
            storm,
            health: resilience.map(|_| HealthTracker::new(n_groups, BreakerConfig::default())),
            hedging: resilience.is_some_and(|r| r.hedging),
            n_groups,
            group_size: partitioner.group_size(),
            natural_lines,
            service_hist: LatencyHistogram::new(),
            brownout_level: 0,
            brownout_max_level: 0,
            brownout_sheds: 0,
            probes: 0,
            fast_reroutes: 0,
            fast_fallbacks: 0,
            rec: RecoveryReport::default(),
        }
    }

    /// The first replica-ring group that would currently accept work
    /// (`None` on a single-group fleet).
    fn healthy_replica(&self, home: usize) -> Option<usize> {
        (0..self.n_groups.saturating_sub(1))
            .filter_map(|a| ReplicaSet::replica_group(home, self.n_groups, a))
            .find(|&g| match &self.health {
                Some(h) => h.would_accept(g),
                None => true,
            })
    }

    /// The current hedge delay: p95 of observed service times once
    /// enough samples exist, floored at [`HEDGE_MIN_DELAY_CYCLES`], capped
    /// below the timeout window (a hedge that fires after the timeout
    /// would never win the race).
    fn hedge_delay(&self) -> u64 {
        let derived = if self.service_hist.count() >= HEDGE_WARMUP_SAMPLES {
            self.service_hist.quantile(0.95)
        } else {
            0
        };
        derived.clamp(HEDGE_MIN_DELAY_CYCLES, TIMEOUT_PENALTY_CYCLES / 2)
    }

    /// Re-evaluate the brownout level from the breaker population,
    /// emitting a [`EventKind::Brownout`] event on change. Returns the
    /// current level (always 0 without the resilience layer).
    pub(crate) fn brownout_level<S: TraceSink>(&mut self, now: u64, sink: &mut S) -> u32 {
        let Some(h) = &self.health else {
            return 0;
        };
        let level = (h.open_groups() as u32).min(BROWNOUT_MAX_LEVEL);
        if level != self.brownout_level {
            self.brownout_level = level;
            self.brownout_max_level = self.brownout_max_level.max(level);
            sink.event(now, EventKind::Brownout { level });
        }
        level
    }

    /// One offload attempt against `group` at effective cycle `at`:
    /// consult the storm script first (sustained degradation), then the
    /// point-fault injector's offload, compute, and poll steps in
    /// protocol order. A compute stall delays the payload, so it is
    /// charged even when the payload then fails its CRC.
    fn attempt<S: TraceSink>(&mut self, group: usize, at: u64, sink: &mut S) -> Attempt {
        self.rec.offloads += 1;
        let lead = group * self.group_size;
        let mut extra = match self.storm.fault_at(group, at) {
            Some(StormKind::Hang) => return Attempt::TimedOut,
            Some(StormKind::Stall { cycles }) => cycles,
            None => 0,
        };
        if let Some(inj) = &mut self.injector {
            if inj.drop_instruction(lead) {
                return Attempt::TimedOut;
            }
            match inj.compute_fault(lead) {
                ComputeFault::None => {}
                ComputeFault::Stall(e) => extra += e,
                ComputeFault::Hang => return Attempt::TimedOut,
            }
            let mut p = ResultPayload::encode(&[0.0]);
            match inj.poll_fault(lead, &mut p) {
                Some(FaultKind::CorruptResult { .. }) | Some(FaultKind::LostResult) => {
                    self.rec.crc_rejections += 1;
                    sink.event(at + extra, EventKind::CrcRejected { rank: lead as u32 });
                    return Attempt::Corrupt { stall: extra };
                }
                Some(FaultKind::PollMiss) => {
                    // Stale not-done data: one more conventional poll
                    // period catches up.
                    self.rec.poll_misses += 1;
                    extra += CONVENTIONAL_POLL_PERIOD;
                }
                _ => {}
            }
        }
        Attempt::Ok {
            extra,
            service: TASK_OVERHEAD_CYCLES + self.natural_lines * CYCLES_PER_LINE + extra,
        }
    }

    fn record_success<S: TraceSink>(&mut self, group: usize, at: u64, sink: &mut S) {
        if let Some(h) = &mut self.health {
            if let Some(t) = h.record_success(group, at) {
                sink.event(
                    at,
                    EventKind::BreakerClose {
                        group: t.group as u32,
                    },
                );
            }
        }
    }

    fn record_failure<S: TraceSink>(&mut self, group: usize, at: u64, sink: &mut S) {
        if let Some(h) = &mut self.health {
            if let Some(t) = h.record_failure(group, at) {
                sink.event(
                    at,
                    EventKind::BreakerOpen {
                        group: t.group as u32,
                    },
                );
            }
        }
    }

    /// Exact host fallback: the host computes the distance itself.
    fn host_fallback<S: TraceSink>(
        &mut self,
        group: usize,
        at: u64,
        penalty: &mut u64,
        sink: &mut S,
    ) {
        self.rec.host_fallbacks += 1;
        *penalty += self.natural_lines * CYCLES_PER_LINE;
        sink.event(
            at + *penalty,
            EventKind::HostFallback {
                rank: (group * self.group_size) as u32,
                lines: self.natural_lines as u32,
            },
        );
    }

    /// Penalty cycles for one comparison homed in rank group `home` and
    /// dispatched at serving cycle `at`, on top of its fault-free
    /// execution time.
    fn eval_penalty<S: TraceSink>(&mut self, home: usize, at: u64, sink: &mut S) -> u64 {
        self.rec.comparisons += 1;
        let retry = RetryPolicy::default_ndp();
        let mut penalty = 0u64;
        let mut group = home;

        // Breaker gate: an open breaker means the driver does not wait
        // out a poll deadline at all — it reroutes or host-computes
        // immediately. A breaker past its cooldown promotes to half-open
        // here and this offload becomes the probe.
        if let Some(h) = &mut self.health {
            let before = h.state(group);
            if h.admits(group, at) {
                if before == BreakerState::Open {
                    self.probes += 1;
                    sink.event(
                        at,
                        EventKind::BreakerHalfOpen {
                            group: group as u32,
                        },
                    );
                }
            } else {
                self.rec.breaker_fast_paths += 1;
                match self.healthy_replica(group) {
                    Some(alt) => {
                        self.fast_reroutes += 1;
                        penalty += TASK_OVERHEAD_CYCLES;
                        group = alt;
                    }
                    None => {
                        self.fast_fallbacks += 1;
                        self.host_fallback(group, at, &mut penalty, sink);
                        return penalty;
                    }
                }
            }
        }

        let mut attempt_no = 0u32;
        loop {
            match self.attempt(group, at + penalty, sink) {
                Attempt::Ok { extra, service } => {
                    penalty += extra;
                    self.service_hist.record(service);
                    self.record_success(group, at + penalty, sink);
                    return penalty;
                }
                Attempt::TimedOut => {
                    self.rec.timeouts += 1;
                    self.record_failure(group, at + penalty, sink);
                    // Hedge the still-pending batch to a replica group;
                    // a win costs the hedge delay plus one re-issue
                    // instead of the whole timeout window.
                    if self.hedging {
                        if let Some(target) = self.healthy_replica(group) {
                            let delay = self.hedge_delay();
                            self.rec.hedges += 1;
                            sink.event(
                                at + penalty + delay,
                                EventKind::HedgeIssued {
                                    from: group as u32,
                                    to: target as u32,
                                },
                            );
                            match self.attempt(target, at + penalty + delay, sink) {
                                Attempt::Ok { extra, service } => {
                                    self.rec.hedge_wins += 1;
                                    penalty += delay + TASK_OVERHEAD_CYCLES + extra;
                                    sink.event(
                                        at + penalty,
                                        EventKind::HedgeWin { to: target as u32 },
                                    );
                                    self.service_hist.record(service);
                                    self.record_success(target, at + penalty, sink);
                                    return penalty;
                                }
                                Attempt::TimedOut => {
                                    // The hedge raced the primary's
                                    // timeout window and also lost; no
                                    // extra wall-clock beyond it.
                                    self.rec.timeouts += 1;
                                    self.record_failure(target, at + penalty, sink);
                                }
                                Attempt::Corrupt { .. } => {
                                    self.record_failure(target, at + penalty, sink);
                                }
                            }
                        }
                    }
                    penalty += TIMEOUT_PENALTY_CYCLES;
                }
                Attempt::Corrupt { stall } => {
                    penalty += stall;
                    self.record_failure(group, at + penalty, sink);
                }
            }
            if retry.exhausted(attempt_no) {
                self.host_fallback(group, at, &mut penalty, sink);
                return penalty;
            }
            penalty += retry.backoff(attempt_no);
            self.rec.retries += 1;
            sink.event(
                at + penalty,
                EventKind::RecoveryRetry {
                    rank: (group * self.group_size) as u32,
                    attempt: attempt_no,
                },
            );
            attempt_no += 1;
            // Retry away from a group the breaker now distrusts.
            if self.health.as_ref().is_some_and(|h| !h.would_accept(group)) {
                if let Some(alt) = self.healthy_replica(group) {
                    group = alt;
                    self.rec.reoffloads += 1;
                }
            }
        }
    }

    /// Total penalty cycles for one query's trace dispatched at `at`,
    /// also tallied as added latency in the recovery report.
    pub(crate) fn query_penalty<S: TraceSink>(
        &mut self,
        workload: &Workload,
        query: usize,
        partitioner: &Partitioner,
        at: u64,
        sink: &mut S,
    ) -> u64 {
        let mut penalty = 0u64;
        for hop in &workload.traces[query].hops {
            if hop.kind == HopKind::Centroid {
                continue; // host-side arithmetic; no offload to fault
            }
            for e in &hop.evals {
                penalty += self.eval_penalty(partitioner.group_of(e.id), at + penalty, sink);
            }
        }
        self.rec.added_latency_cycles += penalty;
        penalty
    }

    /// The recovery counters with the injector's tallies folded in.
    pub(crate) fn recovery_report(&self) -> RecoveryReport {
        let mut r = self.rec;
        if let Some(inj) = &self.injector {
            r.injected = *inj.stats();
        }
        r
    }

    /// Mean time to repair relative to the storm's recovery instant t′.
    fn mttr_cycles(&self, storm_end: u64) -> Option<u64> {
        let h = self.health.as_ref()?;
        h.transitions()
            .iter()
            .filter(|t| t.to == BreakerState::Closed && t.cycle >= storm_end)
            .map(|t| t.cycle - storm_end)
            .next_back()
    }

    /// Assemble the resilience report. `windows` carries the per-phase
    /// tallies when a storm was scripted.
    pub(crate) fn resilience_report(
        &self,
        windows: Option<(u64, u64, WindowStats, WindowStats, WindowStats)>,
    ) -> ResilienceReport {
        let (opens, closes, transitions) = match &self.health {
            Some(h) => (h.opens(), h.closes(), h.transitions().to_vec()),
            None => (0, 0, Vec::new()),
        };
        ResilienceReport {
            breaker_opens: opens,
            breaker_closes: closes,
            transitions,
            probes: self.probes,
            fast_reroutes: self.fast_reroutes,
            fast_fallbacks: self.fast_fallbacks,
            hedge_delay_cycles: self.hedge_delay(),
            brownout_max_level: self.brownout_max_level,
            brownout_sheds: self.brownout_sheds,
            storm: windows.map(|(start, end, before, during, after)| StormOutcome {
                start_cycle: start,
                end_cycle: end,
                before,
                during,
                after,
                mttr_cycles: self.mttr_cycles(end),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ansmet_faults::{FaultEvent, FaultPlan};
    use ansmet_ndp::PartitionScheme;
    use ansmet_obs::NoopSink;

    /// Sink keeping the cycles of CRC-rejection events.
    #[derive(Default)]
    struct CrcLog(Vec<u64>);

    impl TraceSink for CrcLog {
        fn enabled(&self) -> bool {
            true
        }
        fn event(&mut self, cycle: u64, kind: EventKind) {
            if let EventKind::CrcRejected { .. } = kind {
                self.0.push(cycle);
            }
        }
    }

    #[test]
    fn stall_before_corrupt_payload_is_charged() {
        // Rank 0's first offload stalls, then its payload fails the CRC;
        // the retry (rank 0's second operation) is clean.
        const STALL: u64 = 1_000;
        let plan = FaultPlan::new(vec![
            FaultEvent {
                rank: 0,
                at: 0,
                kind: FaultKind::Stall { cycles: STALL },
            },
            FaultEvent {
                rank: 0,
                at: 0,
                kind: FaultKind::CorruptResult { bit: 7 },
            },
        ]);
        let partitioner = Partitioner::new(PartitionScheme::Horizontal, 4, 128, 4);
        let injector = Some(FaultInjector::new(plan));
        let mut fleet = FleetState::new(&partitioner, 8, injector, StormPlan::none(), None);
        let mut log = CrcLog::default();
        let dispatch = 10_000;

        let penalty = fleet.eval_penalty(0, dispatch, &mut log);

        assert_eq!(penalty, STALL + RetryPolicy::default_ndp().backoff(0));
        assert_eq!(log.0, vec![dispatch + STALL]);
        let rec = fleet.recovery_report();
        assert_eq!((rec.crc_rejections, rec.retries), (1, 1));
    }

    #[test]
    fn open_breaker_with_no_replica_is_a_fast_fallback() {
        // One rank group, hung for the whole run: the first comparison
        // times out until the breaker opens, and with no replica to
        // reroute to, every later one goes straight to host compute.
        let partitioner = Partitioner::new(PartitionScheme::Vertical, 4, 128, 4);
        assert_eq!(partitioner.rank_groups(), 1);
        let storm = StormPlan::single_group_outage(0, 0, u64::MAX);
        let resilience = Some(ResilienceConfig::default());
        let mut fleet = FleetState::new(&partitioner, 8, None, storm, resilience);
        for _ in 0..10 {
            fleet.eval_penalty(0, 1_000, &mut NoopSink);
        }
        let rec = fleet.recovery_report();
        assert_eq!((rec.breaker_fast_paths, rec.host_fallbacks), (9, 10));
        let report = fleet.resilience_report(None);
        assert_eq!((report.fast_reroutes, report.fast_fallbacks), (0, 9));
    }

    #[test]
    fn open_breaker_with_a_healthy_replica_is_a_fast_reroute() {
        // Four rank groups, group 0 hung for the whole run: once its
        // breaker opens, comparisons homed there skip straight to a
        // replica group and never fall back to host compute.
        let partitioner = Partitioner::new(PartitionScheme::Horizontal, 4, 128, 4);
        assert_eq!(partitioner.rank_groups(), 4);
        let storm = StormPlan::single_group_outage(0, 0, u64::MAX);
        let resilience = Some(ResilienceConfig::without_hedging());
        let mut fleet = FleetState::new(&partitioner, 8, None, storm, resilience);
        for _ in 0..10 {
            fleet.eval_penalty(0, 1_000, &mut NoopSink);
        }
        let rec = fleet.recovery_report();
        assert_eq!(rec.host_fallbacks, 0);
        assert!(rec.breaker_fast_paths > 0, "the breaker never opened");
        let report = fleet.resilience_report(None);
        assert_eq!(
            (report.fast_reroutes, report.fast_fallbacks),
            (rec.breaker_fast_paths, 0)
        );
    }

    #[test]
    fn window_stats_attainment() {
        let w = WindowStats {
            offered: 10,
            completed: 8,
            slo_attained: 6,
            p99_cycles: 1_000,
        };
        assert!((w.slo_attainment() - 0.6).abs() < 1e-12);
        assert_eq!(WindowStats::default().slo_attainment(), 1.0);
        assert!(w.json().contains("\"p99_cycles\": 1000"));
    }

    #[test]
    fn report_json_is_stable() {
        let r = ResilienceReport {
            breaker_opens: 2,
            breaker_closes: 1,
            transitions: vec![BreakerTransition {
                cycle: 100,
                group: 0,
                to: BreakerState::Open,
            }],
            probes: 3,
            fast_reroutes: 4,
            fast_fallbacks: 5,
            hedge_delay_cycles: 512,
            brownout_max_level: 1,
            brownout_sheds: 0,
            storm: Some(StormOutcome {
                start_cycle: 1_000,
                end_cycle: 2_000,
                before: WindowStats::default(),
                during: WindowStats::default(),
                after: WindowStats::default(),
                mttr_cycles: Some(250),
            }),
        };
        let j = r.to_json();
        assert_eq!(j, r.clone().to_json());
        assert!(j.contains("\"mttr_cycles\": 250"));
        assert!(j.contains("\"to\": \"open\""));
        let mut s = String::new();
        r.render_into(&mut s, 2400);
        assert!(s.contains("resilience:"));
        assert!(s.contains("mttr 250 cycles"));
    }

    #[test]
    fn without_hedging_disables_only_hedging() {
        let r = ResilienceConfig::without_hedging();
        assert!(!r.hedging);
        assert!(ResilienceConfig::default().hedging);
    }
}
