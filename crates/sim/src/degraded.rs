//! Degraded-mode functional runner: whole searches through the NDP
//! offload protocol under injected faults, with host-side recovery.
//!
//! [`FaultyNdpOracle`] implements [`DistanceOracle`] by pushing every
//! comparison through the same protocol the hardware uses: a DDR-encoded
//! set-search instruction to the vector's home rank group, the unit's
//! early-terminating distance pipeline (modeled by [`EtEngine`], exactly
//! as the timing replay charges it), and a CRC-protected result payload
//! retrieved under a deadline-bounded polling loop. A [`FaultInjector`]
//! perturbs each step; the host recovers by retrying with bounded
//! exponential backoff ([`RetryPolicy`]), re-offloading replicated
//! vectors to a healthy rank group, and — once the budget is exhausted —
//! computing the distance itself with the very same engine.
//!
//! Because the healthy NDP model and the host fallback share one
//! deterministic evaluation path, a recovered search returns results
//! bit-identical to a fault-free run: faults cost cycles (tallied in
//! [`RecoveryReport`]), never accuracy. The integration tests in
//! `tests/fault_recovery.rs` assert exactly that.

use ansmet_core::{EtEngine, EtError, EtQuery};
use ansmet_faults::{ComputeFault, FaultInjector, FaultKind, FaultPlan, FaultStats};
use ansmet_host::{RetryPolicy, CYCLES_PER_LINE, TASK_OVERHEAD_CYCLES};
use ansmet_index::{DistanceOracle, DistanceOutcome};
use ansmet_ndp::qshr::RESULT_INVALID;
use ansmet_ndp::{
    LoadTracker, NdpInstruction, Partitioner, PollOutcome, PollingPolicy, ReplicaSet,
    ResultPayload, SearchTask,
};
use ansmet_vecdata::recall::mean_recall_at_k;

use crate::config::SystemConfig;
use crate::design::{Design, DesignPlan};
use crate::report::Table;
use crate::workload::Workload;

/// Timeouts a rank group accumulates before re-offloads avoid it.
const QUARANTINE_STRIKES: u32 = 2;

/// Counters of everything the host did to survive the injected faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Distance comparisons evaluated.
    pub comparisons: u64,
    /// Set-search batches issued (including retries and re-offloads).
    pub offloads: u64,
    /// Re-issued batches (after a timeout or CRC rejection).
    pub retries: u64,
    /// Retries redirected to a different (healthy) rank group.
    pub reoffloads: u64,
    /// Comparisons the host computed itself after exhausting retries.
    pub host_fallbacks: u64,
    /// Batches declared lost at the poll deadline.
    pub timeouts: u64,
    /// Polled payloads rejected by the host's CRC check.
    pub crc_rejections: u64,
    /// Transient stale polls absorbed by one extra poll.
    pub poll_misses: u64,
    /// Hedged offloads issued to a replica group while the primary was
    /// still pending (serving tier only).
    pub hedges: u64,
    /// Hedges whose replica returned the first valid result.
    pub hedge_wins: u64,
    /// Offloads rerouted or host-computed *without* waiting out a
    /// timeout because the target group's circuit breaker was open
    /// (serving tier only).
    pub breaker_fast_paths: u64,
    /// Recovery cycles added on top of the fault-free execution (backoff
    /// waits, abandoned poll windows, wasted poll delay, fallback
    /// compute).
    pub added_latency_cycles: u64,
    /// Rank groups quarantined for repeated timeouts.
    pub quarantined_groups: usize,
    /// What the injector actually injected.
    pub injected: FaultStats,
}

impl RecoveryReport {
    /// Whether any recovery action was taken.
    pub fn any_recovery(&self) -> bool {
        self.retries + self.host_fallbacks + self.crc_rejections + self.timeouts + self.poll_misses
            > 0
    }

    /// Render as a two-column text table for experiment output.
    pub fn render(&self, title: &str) -> String {
        let mut t = Table::new(title, &["event", "count"]);
        let rows: [(&str, u64); 13] = [
            ("comparisons", self.comparisons),
            ("offloads", self.offloads),
            ("faults injected", self.injected.total()),
            ("timeouts", self.timeouts),
            ("crc rejections", self.crc_rejections),
            ("poll misses absorbed", self.poll_misses),
            ("retries", self.retries),
            ("re-offloads", self.reoffloads),
            ("hedges issued", self.hedges),
            ("hedge wins", self.hedge_wins),
            ("breaker fast paths", self.breaker_fast_paths),
            ("host fallbacks", self.host_fallbacks),
            ("added latency (cycles)", self.added_latency_cycles),
        ];
        for (name, v) in rows {
            t.row(vec![name.to_string(), v.to_string()]);
        }
        t.row(vec![
            "quarantined groups".to_string(),
            self.quarantined_groups.to_string(),
        ]);
        t.render()
    }
}

/// Why one offload attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttemptError {
    /// The poll deadline passed with no completion (drop, hang, or a
    /// stall beyond the deadline).
    TimedOut,
    /// The polled payload failed its CRC.
    Corrupt,
}

/// A [`DistanceOracle`] that routes every comparison through the
/// (fault-injected) NDP protocol and recovers on the host.
///
/// Its recovery state spans queries, so one oracle serves a whole run:
/// [`FaultyNdpOracle::serve`] names the query each search compares
/// against.
#[derive(Debug)]
pub struct FaultyNdpOracle<'a> {
    engine: &'a EtEngine<'a>,
    /// The query being served, prepared once.
    query: Option<EtQuery<'a, 'a>>,
    partitioner: &'a Partitioner,
    replicas: &'a ReplicaSet,
    injector: FaultInjector,
    retry: RetryPolicy,
    polling: PollingPolicy,
    loads: LoadTracker,
    strikes: Vec<u32>,
    report: RecoveryReport,
}

impl<'a> FaultyNdpOracle<'a> {
    /// Build the oracle. `engine` models the rank-side distance pipeline
    /// (and serves as the host fallback); `replicas` names the vectors
    /// present in every rank group and therefore re-offloadable.
    pub fn new(
        engine: &'a EtEngine<'a>,
        partitioner: &'a Partitioner,
        replicas: &'a ReplicaSet,
        plan: FaultPlan,
        retry: RetryPolicy,
        polling: PollingPolicy,
    ) -> Self {
        let groups = partitioner.rank_groups();
        FaultyNdpOracle {
            engine,
            query: None,
            partitioner,
            replicas,
            injector: FaultInjector::new(plan),
            retry,
            polling,
            loads: LoadTracker::new(groups * partitioner.group_size(), partitioner.group_size()),
            strikes: vec![0; groups],
            report: RecoveryReport::default(),
        }
    }

    /// Serve `query` next: the oracle prepares it once
    /// ([`EtEngine::prepare`]) and compares every vector it is asked about
    /// against it until the next call. Recovery state carries over.
    ///
    /// # Errors
    ///
    /// Rejects a query whose length differs from the dataset
    /// dimensionality.
    pub fn serve(&mut self, query: &'a [f32]) -> Result<(), EtError> {
        self.query = Some(self.engine.prepare(query)?);
        Ok(())
    }

    /// The recovery counters, with the injector's tallies folded in.
    pub fn report(&self) -> RecoveryReport {
        let mut r = self.report;
        r.injected = *self.injector.stats();
        r.quarantined_groups = self
            .strikes
            .iter()
            .filter(|&&s| s >= QUARANTINE_STRIKES)
            .count();
        r
    }

    /// The least-loaded non-quarantined group other than `avoid`, if any.
    fn healthy_alternative(&self, avoid: usize) -> Option<usize> {
        let gs = self.partitioner.group_size();
        (0..self.partitioner.rank_groups())
            .filter(|&g| g != avoid && self.strikes[g] < QUARANTINE_STRIKES)
            .min_by_key(|&g| self.loads.loads()[g * gs..(g + 1) * gs].iter().sum::<u64>())
    }

    /// One offload attempt of a single-task batch to `group`: encode the
    /// instruction, let the injector perturb each step, poll under the
    /// deadline, and CRC-check the returned payload. `value` is what the
    /// healthy unit writes into the result slot; `lines` its fetch count.
    fn offload_once(
        &mut self,
        group: usize,
        qshr: u8,
        id: usize,
        threshold: f32,
        value: f32,
        lines: u64,
    ) -> Result<f32, AttemptError> {
        let lead_rank = group * self.partitioner.group_size();
        let instr = NdpInstruction::SetSearch {
            qshr,
            tasks: vec![SearchTask {
                addr: id as u32,
                threshold,
            }],
        };
        let (addr, payload) = instr.encode();
        self.report.offloads += 1;
        self.loads.add(lead_rank, lines.max(1));

        let delivered = !self.injector.drop_instruction(lead_rank)
            && NdpInstruction::decode(addr, &payload).is_some();
        let actual = if delivered {
            let healthy = TASK_OVERHEAD_CYCLES + lines * CYCLES_PER_LINE;
            match self.injector.compute_fault(lead_rank) {
                ComputeFault::None => Some(healthy),
                ComputeFault::Stall(extra) => Some(healthy + extra),
                ComputeFault::Hang => None,
            }
        } else {
            None
        };

        let deadline = self.polling.deadline(1);
        match self.polling.observe_with_deadline(1, actual, deadline) {
            PollOutcome::Completed(stats) => {
                self.report.added_latency_cycles += stats.wasted_delay;
                let mut p = ResultPayload::encode(&[value]);
                match self.injector.poll_fault(lead_rank, &mut p) {
                    Some(FaultKind::LostResult) => {
                        // The slot was never written: it still holds the
                        // initialization sentinel with no CRC, which the
                        // decoder rejects instead of mistaking it for a
                        // pruned task (or a distance of garbage bytes).
                        let off = ResultPayload::SLOTS_OFF;
                        p[off..off + 4].copy_from_slice(&RESULT_INVALID.to_le_bytes());
                        p[off + 4] = 0;
                    }
                    Some(FaultKind::PollMiss) => {
                        // Stale not-done data: one extra poll catches up.
                        self.report.poll_misses += 1;
                        self.report.added_latency_cycles += self
                            .polling
                            .poll_time(1, stats.polls)
                            .saturating_sub(stats.observed_at);
                    }
                    _ => {}
                }
                match ResultPayload::decode(qshr, &p) {
                    Ok(vals) if vals.len() == 1 => Ok(vals[0]),
                    Ok(_) | Err(_) => Err(AttemptError::Corrupt),
                }
            }
            PollOutcome::TimedOut {
                polls: _,
                gave_up_at,
            } => {
                self.report.added_latency_cycles += gave_up_at;
                Err(AttemptError::TimedOut)
            }
        }
    }
}

fn outcome_of(value: f32) -> DistanceOutcome {
    if value == RESULT_INVALID {
        DistanceOutcome::Pruned
    } else {
        DistanceOutcome::Exact(value)
    }
}

impl DistanceOracle for FaultyNdpOracle<'_> {
    /// # Panics
    ///
    /// Panics if no query is served ([`FaultyNdpOracle::serve`]).
    fn evaluate(&mut self, id: usize, query: &[f32], threshold: f32) -> DistanceOutcome {
        let et = self
            .query
            .as_mut()
            .expect("FaultyNdpOracle::serve names the query first");
        debug_assert!(et.serves(query), "the oracle serves the query it prepared");
        self.report.comparisons += 1;
        let qshr = (self.report.comparisons % 32) as u8;
        // What the healthy unit computes: the engine *is* the model of
        // the rank-side distance pipeline, so the value below is what a
        // fault-free run would return for this comparison.
        let cost = et.evaluate(id, threshold);
        let value = cost.effective_distance().unwrap_or(RESULT_INVALID);
        let lines = cost.total_lines() as u64;

        let mut group = self.partitioner.group_of(id);
        let mut retries_done = 0u32;
        loop {
            match self.offload_once(group, qshr, id, threshold, value, lines) {
                Ok(v) => return outcome_of(v),
                Err(failure) => {
                    let timed_out = failure == AttemptError::TimedOut;
                    if timed_out {
                        self.report.timeouts += 1;
                        self.strikes[group] += 1;
                    } else {
                        self.report.crc_rejections += 1;
                    }
                    if self.retry.exhausted(retries_done) {
                        // Exact fallback: the host computes the distance
                        // itself through the same engine, so the final
                        // outcome is bit-identical to the fault-free run.
                        self.report.host_fallbacks += 1;
                        self.report.added_latency_cycles += lines * CYCLES_PER_LINE;
                        return outcome_of(value);
                    }
                    self.report.added_latency_cycles += self.retry.backoff(retries_done);
                    self.report.retries += 1;
                    retries_done += 1;
                    // A timed-out group is suspect; replicated vectors
                    // can retry in a healthy group instead.
                    if timed_out && self.replicas.contains(id) {
                        if let Some(g) = self.healthy_alternative(group) {
                            if g != group {
                                group = g;
                                self.report.reoffloads += 1;
                            }
                        }
                    }
                }
            }
        }
    }

    fn comparisons(&self) -> u64 {
        self.report.comparisons
    }
}

/// Result of one degraded-mode run over a whole workload.
#[derive(Debug)]
pub struct DegradedRunResult {
    /// Per-query top-k ids.
    pub results: Vec<Vec<usize>>,
    /// Recall@k against the exact ground truth.
    pub recall: f64,
    /// What recovery cost.
    pub report: RecoveryReport,
}

/// Run every query of `workload` through the fault-tolerant NDP path
/// under `plan`, recovering with `retry`.
///
/// Uses the `NdpEtOpt` design's early-termination configuration and the
/// system's partitioning; hot vectors are replicated per
/// `config.replicate_hot` (enabling re-offload for them). When
/// `config.polling` is `None` the conventional fixed-period policy is
/// used (the adaptive policy's histogram lives in the timing replay).
pub fn run_degraded(
    workload: &Workload,
    config: &SystemConfig,
    plan: FaultPlan,
    retry: RetryPolicy,
) -> DegradedRunResult {
    let et = DesignPlan::build(Design::NdpEtOpt, workload)
        .et
        .expect("NDP design defines an ET config");
    let engine = EtEngine::new(&workload.data, et);
    let partitioner = Partitioner::new(
        config.partition,
        config.ndp_units(),
        workload.data.dim(),
        workload.data.dtype().bytes(),
    );
    let replicas = if config.replicate_hot {
        ReplicaSet::new(workload.hot_ids())
    } else {
        ReplicaSet::default()
    };
    let polling = config
        .polling
        .clone()
        .unwrap_or_else(PollingPolicy::conventional_100ns);
    let mut oracle = FaultyNdpOracle::new(&engine, &partitioner, &replicas, plan, retry, polling);

    let mut results = Vec::with_capacity(workload.queries.len());
    for q in &workload.queries {
        oracle.serve(q).expect("workload queries match the dataset");
        let (r, _trace) = match (&workload.hnsw, &workload.ivf) {
            (Some(h), _) => h.search_traced(q, workload.k, workload.ef, &mut oracle),
            (None, Some(i)) => {
                let nprobe = workload.ef.clamp(1, i.n_lists());
                i.search_traced(q, workload.k, nprobe, &mut oracle)
            }
            (None, None) => unreachable!("workload always has an index"),
        };
        results.push(r.ids());
    }
    let recall = mean_recall_at_k(&results, &workload.ground_truth.ids, workload.k);
    DegradedRunResult {
        results,
        recall,
        report: oracle.report(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ansmet_core::{EtConfig, FetchSchedule};
    use ansmet_faults::{FaultEvent, FaultRates};
    use ansmet_ndp::PartitionScheme;
    use ansmet_vecdata::SynthSpec;

    fn small_workload() -> Workload {
        Workload::prepare(&SynthSpec::sift().scaled(400, 2), 10, Some(40))
    }

    #[test]
    fn fault_free_run_matches_functional_results() {
        let wl = small_workload();
        let cfg = SystemConfig::default();
        let run = run_degraded(&wl, &cfg, FaultPlan::none(), RetryPolicy::default_ndp());
        assert_eq!(run.results, wl.results, "lossless ET through the protocol");
        assert!((run.recall - wl.recall).abs() < 1e-12);
        assert!(!run.report.any_recovery(), "{:?}", run.report);
        assert_eq!(run.report.injected.total(), 0);
        assert!(run.report.offloads >= run.report.comparisons);
    }

    #[test]
    fn random_faults_never_change_results() {
        let wl = small_workload();
        let cfg = SystemConfig::default();
        let clean = run_degraded(&wl, &cfg, FaultPlan::none(), RetryPolicy::default_ndp());
        for seed in [3u64, 17] {
            let plan = FaultPlan::random(seed, cfg.ndp_units(), 200, FaultRates::mixed());
            assert!(!plan.is_empty());
            let faulty = run_degraded(&wl, &cfg, plan, RetryPolicy::default_ndp());
            assert_eq!(faulty.results, clean.results, "seed {seed}");
            assert!(
                faulty.report.any_recovery(),
                "seed {seed}: faults must bite"
            );
            assert!(faulty.report.added_latency_cycles > 0);
        }
    }

    #[test]
    fn lost_result_slot_is_rejected_by_crc() {
        // A never-written slot (sentinel bytes, zero CRC) must not decode
        // as a legitimate pruned result.
        let mut p = ResultPayload::encode(&[1.5f32]);
        let off = ResultPayload::SLOTS_OFF;
        p[off..off + 4].copy_from_slice(&RESULT_INVALID.to_le_bytes());
        p[off + 4] = 0;
        assert!(ResultPayload::decode(0, &p).is_err());
    }

    /// Direct oracle test: a hang on the home rank of a replicated vector
    /// must re-offload to a healthy group and still return the exact
    /// fault-free outcome.
    #[test]
    fn hang_reoffloads_replicated_vector() {
        let (data, queries) = SynthSpec::sift().scaled(64, 1).generate();
        let engine = EtEngine::new(
            &data,
            EtConfig::new(FetchSchedule::uniform(data.dtype(), 4)),
        );
        // Horizontal over 8 ranks: group_of(id) = id % 8, group_size 1.
        let part = Partitioner::new(
            PartitionScheme::Horizontal,
            8,
            data.dim(),
            data.dtype().bytes(),
        );
        let id = 3usize;
        let home_rank = part.group_of(id) * part.group_size();
        let replicas = ReplicaSet::new([id]);
        // Hang the home rank's first few computes so every local retry
        // also fails until the re-offload leaves the group.
        let plan = FaultPlan::new(
            (0..4)
                .map(|at| FaultEvent {
                    rank: home_rank,
                    at,
                    kind: FaultKind::Hang,
                })
                .collect(),
        );
        let mut oracle = FaultyNdpOracle::new(
            &engine,
            &part,
            &replicas,
            plan,
            RetryPolicy::default_ndp(),
            PollingPolicy::conventional_100ns(),
        );
        oracle.serve(&queries[0]).expect("query matches the data");
        let got = oracle.evaluate(id, &queries[0], f32::INFINITY);
        let want = engine.evaluate(id, &queries[0], f32::INFINITY);
        assert_eq!(got.distance(), want.distance);
        let r = oracle.report();
        assert!(r.timeouts >= 1);
        assert!(r.reoffloads >= 1, "{r:?}");
        assert_eq!(r.host_fallbacks, 0, "re-offload must succeed: {r:?}");
    }

    /// A non-replicated vector on a dead rank exhausts its retries and
    /// falls back to the host — with the exact same distance.
    #[test]
    fn dead_rank_falls_back_to_host() {
        let (data, queries) = SynthSpec::sift().scaled(64, 1).generate();
        let engine = EtEngine::new(
            &data,
            EtConfig::new(FetchSchedule::uniform(data.dtype(), 4)),
        );
        let part = Partitioner::new(
            PartitionScheme::Horizontal,
            8,
            data.dim(),
            data.dtype().bytes(),
        );
        let id = 5usize;
        let home_rank = part.group_of(id) * part.group_size();
        let replicas = ReplicaSet::default();
        let plan = FaultPlan::new(
            (0..8)
                .map(|at| FaultEvent {
                    rank: home_rank,
                    at,
                    kind: FaultKind::Hang,
                })
                .collect(),
        );
        let retry = RetryPolicy::default_ndp();
        let mut oracle = FaultyNdpOracle::new(
            &engine,
            &part,
            &replicas,
            plan,
            retry,
            PollingPolicy::conventional_100ns(),
        );
        oracle.serve(&queries[0]).expect("query matches the data");
        let got = oracle.evaluate(id, &queries[0], f32::INFINITY);
        let want = engine.evaluate(id, &queries[0], f32::INFINITY);
        assert_eq!(got.distance(), want.distance);
        let r = oracle.report();
        assert_eq!(r.host_fallbacks, 1);
        assert_eq!(r.retries, retry.max_retries as u64);
        assert_eq!(r.reoffloads, 0, "nothing to re-offload without replicas");
        assert!(r.added_latency_cycles >= retry.total_backoff());
    }

    /// Corrupt payloads are retried on the same rank and recover once the
    /// one-shot fault has fired.
    #[test]
    fn corrupt_payload_retries_in_place() {
        let (data, queries) = SynthSpec::sift().scaled(64, 1).generate();
        let engine = EtEngine::new(
            &data,
            EtConfig::new(FetchSchedule::uniform(data.dtype(), 4)),
        );
        let part = Partitioner::new(
            PartitionScheme::Horizontal,
            8,
            data.dim(),
            data.dtype().bytes(),
        );
        let id = 2usize;
        let home_rank = part.group_of(id) * part.group_size();
        let replicas = ReplicaSet::default();
        // Flip a bit inside slot 0's protected bytes on the first poll.
        let plan = FaultPlan::new(vec![FaultEvent {
            rank: home_rank,
            at: 0,
            kind: FaultKind::CorruptResult {
                bit: (ResultPayload::SLOTS_OFF as u16) * 8 + 1,
            },
        }]);
        let mut oracle = FaultyNdpOracle::new(
            &engine,
            &part,
            &replicas,
            plan,
            RetryPolicy::default_ndp(),
            PollingPolicy::conventional_100ns(),
        );
        oracle.serve(&queries[0]).expect("query matches the data");
        let got = oracle.evaluate(id, &queries[0], f32::INFINITY);
        let want = engine.evaluate(id, &queries[0], f32::INFINITY);
        assert_eq!(got.distance(), want.distance);
        let r = oracle.report();
        assert_eq!(r.crc_rejections, 1);
        assert_eq!(r.retries, 1);
        assert_eq!(r.host_fallbacks, 0);
    }

    /// A group with exactly `QUARANTINE_STRIKES` timeouts is no longer a
    /// re-offload target; one strike below the threshold it still is.
    #[test]
    fn group_at_exact_strike_threshold_is_avoided() {
        let (data, _queries) = SynthSpec::sift().scaled(64, 1).generate();
        let engine = EtEngine::new(
            &data,
            EtConfig::new(FetchSchedule::uniform(data.dtype(), 4)),
        );
        let part = Partitioner::new(
            PartitionScheme::Horizontal,
            8,
            data.dim(),
            data.dtype().bytes(),
        );
        let replicas = ReplicaSet::default();
        let mut oracle = FaultyNdpOracle::new(
            &engine,
            &part,
            &replicas,
            FaultPlan::none(),
            RetryPolicy::default_ndp(),
            PollingPolicy::conventional_100ns(),
        );
        // One strike short of quarantine: group 0 (least index, all loads
        // zero) is still the preferred alternative.
        oracle.strikes[0] = QUARANTINE_STRIKES - 1;
        assert_eq!(oracle.healthy_alternative(1), Some(0));
        // Exactly at the threshold: group 0 is skipped.
        oracle.strikes[0] = QUARANTINE_STRIKES;
        assert_eq!(oracle.healthy_alternative(1), Some(2));
        assert_eq!(oracle.report().quarantined_groups, 1);
        // Quarantining everything except the group under suspicion
        // leaves nowhere to go.
        for g in 0..part.rank_groups() {
            if g != 1 {
                oracle.strikes[g] = QUARANTINE_STRIKES;
            }
        }
        assert_eq!(oracle.healthy_alternative(1), None);
    }

    /// A replicated vector in a single-group fleet has no alternative
    /// group: recovery must fall back to host compute rather than spin
    /// re-offloading to the same dead group.
    #[test]
    fn single_group_replica_falls_back_to_host() {
        let (data, queries) = SynthSpec::sift().scaled(64, 1).generate();
        let engine = EtEngine::new(
            &data,
            EtConfig::new(FetchSchedule::uniform(data.dtype(), 4)),
        );
        // Vertical partitioning: one group spanning all ranks.
        let part = Partitioner::new(
            PartitionScheme::Vertical,
            8,
            data.dim(),
            data.dtype().bytes(),
        );
        assert_eq!(part.rank_groups(), 1);
        let id = 4usize;
        let replicas = ReplicaSet::new([id]);
        let plan = FaultPlan::new(
            (0..8)
                .map(|at| FaultEvent {
                    rank: 0,
                    at,
                    kind: FaultKind::Hang,
                })
                .collect(),
        );
        let retry = RetryPolicy::default_ndp();
        let mut oracle = FaultyNdpOracle::new(
            &engine,
            &part,
            &replicas,
            plan,
            retry,
            PollingPolicy::conventional_100ns(),
        );
        oracle.serve(&queries[0]).expect("query matches the data");
        let got = oracle.evaluate(id, &queries[0], f32::INFINITY);
        let want = engine.evaluate(id, &queries[0], f32::INFINITY);
        assert_eq!(got.distance(), want.distance, "accuracy survives");
        let r = oracle.report();
        assert_eq!(r.host_fallbacks, 1, "{r:?}");
        assert_eq!(r.reoffloads, 0, "no alternative group exists");
        assert_eq!(
            r.retries, retry.max_retries as u64,
            "budget bounds the spin"
        );
    }

    #[test]
    fn report_renders() {
        let mut r = RecoveryReport {
            comparisons: 10,
            offloads: 12,
            retries: 2,
            host_fallbacks: 1,
            ..RecoveryReport::default()
        };
        r.injected.hangs = 1;
        let s = r.render("recovery");
        assert!(s.contains("== recovery =="));
        assert!(s.contains("host fallbacks"));
        assert!(s.contains("re-offloads"));
        assert!(r.any_recovery());
    }
}
