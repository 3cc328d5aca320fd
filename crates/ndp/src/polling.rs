//! Result polling (§5.4).
//!
//! The host retrieves NDP results by polling QSHRs with DDR READs.
//! Conventional polling uses a fixed period; ANSMET's adaptive polling
//! estimates each batch's completion time from the sampled
//! early-termination latency distribution (the same preprocessing as
//! §4.2) and issues the first poll at the expected completion time,
//! falling back to a short retry period afterwards.

/// The paper's conventional poll period: 100 ns ≈ 240 memory cycles at
/// DDR5-4800.
pub const CONVENTIONAL_POLL_PERIOD: u64 = 240;

/// When to poll an offloaded batch.
#[derive(Debug, Clone, PartialEq)]
pub enum PollingPolicy {
    /// Fixed-period polling (the paper's conventional baseline:
    /// 100 ns ≈ 240 memory cycles).
    Conventional {
        /// Poll period in memory cycles.
        period: u64,
    },
    /// First poll at the estimated completion time, then short retries.
    Adaptive {
        /// Expected per-task latency distribution: `(lines, probability)`
        /// pairs from the sampling profile.
        latency_histogram: Vec<(u64, f64)>,
        /// Memory cycles per fetched line (service time estimate).
        cycles_per_line: u64,
        /// Fixed task overhead in cycles.
        task_overhead: u64,
        /// Retry period after the first poll misses.
        retry_period: u64,
    },
}

impl PollingPolicy {
    /// The paper's conventional 100 ns policy at 2400 MHz.
    pub fn conventional_100ns() -> Self {
        PollingPolicy::Conventional {
            period: CONVENTIONAL_POLL_PERIOD,
        }
    }

    /// Expected number of lines per comparison under the histogram.
    pub fn expected_lines(&self) -> f64 {
        match self {
            PollingPolicy::Conventional { .. } => 0.0,
            PollingPolicy::Adaptive {
                latency_histogram, ..
            } => {
                let mass: f64 = latency_histogram.iter().map(|(_, p)| p).sum();
                if mass <= 0.0 {
                    return 0.0;
                }
                latency_histogram
                    .iter()
                    .map(|&(l, p)| l as f64 * p)
                    .sum::<f64>()
                    / mass
            }
        }
    }

    /// Expected completion time (cycles after issue) of a batch of
    /// `tasks` comparisons processed sequentially in one QSHR.
    ///
    /// For multiple tasks the expectations add (the paper: "for multiple
    /// tasks, we use the addition of their distributions").
    pub fn expected_batch_latency(&self, tasks: usize) -> u64 {
        match self {
            PollingPolicy::Conventional { period } => *period,
            PollingPolicy::Adaptive {
                cycles_per_line,
                task_overhead,
                ..
            } => {
                let per_task =
                    self.expected_lines() * *cycles_per_line as f64 + *task_overhead as f64;
                (per_task * tasks as f64).ceil() as u64
            }
        }
    }

    /// Cycle (relative to batch issue) of the `attempt`-th poll
    /// (0-based).
    pub fn poll_time(&self, tasks: usize, attempt: u32) -> u64 {
        match self {
            PollingPolicy::Conventional { period } => period * (attempt as u64 + 1),
            PollingPolicy::Adaptive { retry_period, .. } => {
                self.expected_batch_latency(tasks) + retry_period * attempt as u64
            }
        }
    }

    /// Number of polls needed and the completion-observation delay, given
    /// the batch actually finished `actual` cycles after issue.
    pub fn observe(&self, tasks: usize, actual: u64) -> PollingStats {
        let mut attempt = 0u32;
        loop {
            let t = self.poll_time(tasks, attempt);
            if t >= actual {
                return PollingStats {
                    polls: attempt + 1,
                    observed_at: t,
                    wasted_delay: t - actual,
                };
            }
            attempt += 1;
            if attempt > 1_000_000 {
                // Defensive bound; retry periods are ≥ 1 cycle in practice.
                return PollingStats {
                    polls: attempt,
                    observed_at: actual,
                    wasted_delay: 0,
                };
            }
        }
    }
}

/// Outcome of polling one batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollingStats {
    /// DDR READ polls issued (each costs a host command + data burst).
    pub polls: u32,
    /// Cycle (after issue) at which the host observed completion.
    pub observed_at: u64,
    /// Cycles between actual completion and observation.
    pub wasted_delay: u64,
}

impl PollingStats {
    /// Stats for an explicit schedule: first poll at `first`, retries
    /// every `retry` cycles, for a batch that actually finished at
    /// `actual` (all relative to issue). This is the closed form of
    /// [`PollingPolicy::observe`] used when the caller maintains its own
    /// first-poll estimate (e.g. the replay core's per-query EWMA).
    pub fn observe_at(first: u64, retry: u64, actual: u64) -> PollingStats {
        let retry = retry.max(1);
        if first >= actual {
            return PollingStats {
                polls: 1,
                observed_at: first,
                wasted_delay: first - actual,
            };
        }
        let extra = (actual - first).div_ceil(retry);
        let observed = first + extra * retry;
        PollingStats {
            polls: 1 + extra as u32,
            observed_at: observed,
            wasted_delay: observed - actual,
        }
    }
}

/// Completion deadline for one offloaded batch: the host declares the
/// batch lost when either bound is hit, instead of polling forever into
/// a stalled or hung NDP unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollDeadline {
    /// Cycles after batch issue at which the batch is declared lost.
    pub cycles: u64,
    /// Maximum poll attempts before declaring the batch lost.
    pub max_polls: u32,
}

/// Outcome of polling one batch under a deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollOutcome {
    /// The batch was observed complete in time.
    Completed(PollingStats),
    /// The deadline (cycle budget or poll budget) passed first.
    TimedOut {
        /// Polls issued before giving up.
        polls: u32,
        /// Cycle (after issue) at which the host gave up.
        gave_up_at: u64,
    },
}

impl PollOutcome {
    /// The completion stats, if the batch finished in time.
    pub fn completed(&self) -> Option<PollingStats> {
        match self {
            PollOutcome::Completed(s) => Some(*s),
            PollOutcome::TimedOut { .. } => None,
        }
    }
}

impl PollingPolicy {
    /// The default deadline for a batch of `tasks` comparisons: several
    /// times the expected completion time plus fixed slack, so healthy
    /// stragglers are never declared lost, and a bounded poll count so a
    /// hung unit cannot absorb unlimited DDR commands.
    pub fn deadline(&self, tasks: usize) -> PollDeadline {
        let expected = self.expected_batch_latency(tasks).max(1);
        PollDeadline {
            cycles: expected.saturating_mul(8).saturating_add(2_000),
            max_polls: 64,
        }
    }

    /// Poll under a deadline. `actual` is the cycle (after issue) at
    /// which the batch really finished, or `None` for a batch that never
    /// completes (hung unit, dropped instruction).
    pub fn observe_with_deadline(
        &self,
        tasks: usize,
        actual: Option<u64>,
        deadline: PollDeadline,
    ) -> PollOutcome {
        let mut attempt = 0u32;
        loop {
            let t = self.poll_time(tasks, attempt);
            if t > deadline.cycles || attempt >= deadline.max_polls {
                return PollOutcome::TimedOut {
                    polls: attempt,
                    gave_up_at: t.min(deadline.cycles),
                };
            }
            if let Some(a) = actual {
                if t >= a {
                    return PollOutcome::Completed(PollingStats {
                        polls: attempt + 1,
                        observed_at: t,
                        wasted_delay: t - a,
                    });
                }
            }
            attempt += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adaptive() -> PollingPolicy {
        PollingPolicy::Adaptive {
            latency_histogram: vec![(2, 0.5), (4, 0.3), (16, 0.2)],
            cycles_per_line: 50,
            task_overhead: 60,
            retry_period: 60,
        }
    }

    #[test]
    fn expected_lines_weighted() {
        let p = adaptive();
        let e = p.expected_lines();
        assert!((e - (2.0 * 0.5 + 4.0 * 0.3 + 16.0 * 0.2)).abs() < 1e-9);
    }

    #[test]
    fn batch_latency_adds_over_tasks() {
        let p = adaptive();
        assert_eq!(p.expected_batch_latency(4), 4 * p.expected_batch_latency(1));
    }

    #[test]
    fn conventional_polls_many_times_for_long_batches() {
        let p = PollingPolicy::conventional_100ns();
        let s = p.observe(8, 2000);
        assert_eq!(s.polls, 9); // ceil(2000/240) = 9 polls
        assert!(s.wasted_delay < 240);
    }

    #[test]
    fn adaptive_first_poll_near_actual() {
        let p = adaptive();
        let expect = p.expected_batch_latency(8);
        // If the batch finishes exactly on expectation, one poll suffices
        // with zero waste.
        let s = p.observe(8, expect);
        assert_eq!(s.polls, 1);
        assert_eq!(s.wasted_delay, 0);
    }

    #[test]
    fn adaptive_beats_conventional_on_polls() {
        let p = adaptive();
        let c = PollingPolicy::conventional_100ns();
        let actual = p.expected_batch_latency(8) + 30;
        let sa = p.observe(8, actual);
        let sc = c.observe(8, actual);
        assert!(sa.polls < sc.polls, "{} vs {}", sa.polls, sc.polls);
    }

    #[test]
    fn early_finish_costs_waiting() {
        let p = adaptive();
        let expect = p.expected_batch_latency(4);
        let s = p.observe(4, expect / 2);
        assert_eq!(s.polls, 1);
        assert_eq!(s.wasted_delay, expect - expect / 2);
    }

    #[test]
    fn deadline_clears_healthy_batches() {
        for p in [adaptive(), PollingPolicy::conventional_100ns()] {
            let dl = p.deadline(8);
            // A batch finishing on expectation (or a bit late) completes
            // well inside the deadline.
            for slack in [0, 17, 100] {
                let actual = p.expected_batch_latency(8) + slack;
                let got = p.observe_with_deadline(8, Some(actual), dl);
                let direct = p.observe(8, actual);
                assert_eq!(got, PollOutcome::Completed(direct));
            }
        }
    }

    #[test]
    fn hung_batch_times_out() {
        let p = adaptive();
        let dl = p.deadline(4);
        let got = p.observe_with_deadline(4, None, dl);
        match got {
            PollOutcome::TimedOut { polls, gave_up_at } => {
                assert!(polls > 0, "at least one poll before giving up");
                assert!(polls <= dl.max_polls);
                assert!(gave_up_at <= dl.cycles);
            }
            PollOutcome::Completed(_) => panic!("hung batch cannot complete"),
        }
        assert!(got.completed().is_none());
    }

    #[test]
    fn stalled_batch_past_deadline_times_out() {
        let p = adaptive();
        let dl = p.deadline(2);
        // Finishes eventually, but far beyond the deadline (stalled unit).
        let got = p.observe_with_deadline(2, Some(dl.cycles * 10), dl);
        assert!(matches!(got, PollOutcome::TimedOut { .. }));
    }

    #[test]
    fn poll_budget_bounds_ddr_traffic() {
        let p = PollingPolicy::Conventional { period: 1 };
        let dl = PollDeadline {
            cycles: u64::MAX,
            max_polls: 5,
        };
        let got = p.observe_with_deadline(1, None, dl);
        assert_eq!(
            got,
            PollOutcome::TimedOut {
                polls: 5,
                gave_up_at: 6
            }
        );
    }

    #[test]
    fn observe_at_matches_policy_schedule() {
        // An explicit (first, retry) schedule agrees with the policy's
        // own observe() when fed the same parameters.
        let p = PollingPolicy::Conventional { period: 240 };
        for actual in [1u64, 239, 240, 241, 2000] {
            let direct = p.observe(1, actual);
            let explicit = PollingStats::observe_at(240, 240, actual);
            assert_eq!(direct, explicit, "actual={actual}");
        }
        // On-time batch: one poll, waste is the overshoot.
        let s = PollingStats::observe_at(100, 40, 70);
        assert_eq!(s.polls, 1);
        assert_eq!(s.observed_at, 100);
        assert_eq!(s.wasted_delay, 30);
        // Late batch: retries until observed.
        let s = PollingStats::observe_at(100, 40, 190);
        assert_eq!(s.polls, 4); // 100, 140, 180, 220
        assert_eq!(s.observed_at, 220);
    }

    #[test]
    fn empty_histogram_degenerates() {
        let p = PollingPolicy::Adaptive {
            latency_histogram: vec![],
            cycles_per_line: 50,
            task_overhead: 60,
            retry_period: 60,
        };
        assert_eq!(p.expected_lines(), 0.0);
        assert_eq!(p.expected_batch_latency(2), 120);
    }
}
