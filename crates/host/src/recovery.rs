//! Host-side recovery policy for offloaded NDP work.
//!
//! When an offloaded batch times out (stalled or hung unit, dropped
//! instruction) or its polled result payload fails its CRC, the host
//! driver retries under a [`RetryPolicy`]: each retry waits an
//! exponentially growing but capped backoff before the batch is
//! re-issued, and a bounded retry budget guarantees the driver eventually
//! stops trusting the NDP path and computes the affected distances itself
//! (the exact-fallback guarantee — faults cost cycles, never accuracy).
//!
//! The cycle costs of that protocol are defined here once; every plane
//! that prices recovery (`sim::degraded`, the serving tier's fleet state,
//! the cluster router and its failover) charges these same constants.

/// Cycles one abandoned poll window costs when an offload times out
/// (dropped instruction, hung unit, or a storm-hung group).
pub const TIMEOUT_PENALTY_CYCLES: u64 = 4_096;

/// Memory cycles per fetched 64 B line: the NDP service-time estimate
/// and the host's exact-fallback recompute cost per line.
pub const CYCLES_PER_LINE: u64 = 60;

/// Fixed per-task overhead in cycles (instruction parse + QSHR setup +
/// compute-pipeline drain), also charged for re-routing a batch to
/// another rank group.
pub const TASK_OVERHEAD_CYCLES: u64 = 110;

/// Bounded exponential-backoff retry policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed after the initial attempt (0 disables retrying:
    /// the first failure goes straight to host fallback).
    pub max_retries: u32,
    /// Backoff before the first retry, in memory cycles.
    pub base_backoff: u64,
    /// Upper bound on any single backoff, in memory cycles.
    pub max_backoff: u64,
}

impl RetryPolicy {
    /// The default NDP recovery policy: three retries backing off from
    /// 256 cycles, each wait capped at 16 k cycles (≈ 6.7 µs at DDR5-4800
    /// — long enough for a refresh storm to drain, short enough that a
    /// dead rank costs less than a handful of comparisons).
    pub fn default_ndp() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: 256,
            max_backoff: 16_384,
        }
    }

    /// No retries: every failure falls back to the host immediately.
    pub fn no_retries() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: 0,
            max_backoff: 0,
        }
    }

    /// Backoff before the `attempt`-th retry (0-based):
    /// `base_backoff · 2^attempt`, saturating, capped at `max_backoff`.
    pub fn backoff(&self, attempt: u32) -> u64 {
        let factor = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
        self.base_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
    }

    /// Whether `retries_done` retries have exhausted the budget.
    pub fn exhausted(&self, retries_done: u32) -> bool {
        retries_done >= self.max_retries
    }

    /// Total backoff cycles if the whole budget is consumed (the
    /// worst-case recovery delay one batch can add before fallback).
    pub fn total_backoff(&self) -> u64 {
        (0..self.max_retries).fold(0u64, |acc, a| acc.saturating_add(self.backoff(a)))
    }
}

impl std::fmt::Display for RetryPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.max_retries == 0 {
            write!(f, "no retries (immediate host fallback)")
        } else {
            write!(
                f,
                "{} retries, backoff {}..{} cycles (worst case {})",
                self.max_retries,
                self.base_backoff,
                self.max_backoff,
                self.total_backoff()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_until_cap() {
        let p = RetryPolicy {
            max_retries: 10,
            base_backoff: 100,
            max_backoff: 1_000,
        };
        assert_eq!(p.backoff(0), 100);
        assert_eq!(p.backoff(1), 200);
        assert_eq!(p.backoff(2), 400);
        assert_eq!(p.backoff(3), 800);
        assert_eq!(p.backoff(4), 1_000, "capped");
        assert_eq!(p.backoff(63), 1_000);
        assert_eq!(p.backoff(200), 1_000, "huge attempts saturate at the cap");
    }

    #[test]
    fn budget_exhaustion() {
        let p = RetryPolicy::default_ndp();
        assert!(!p.exhausted(0));
        assert!(!p.exhausted(2));
        assert!(p.exhausted(3));
        assert!(p.exhausted(99));
    }

    #[test]
    fn no_retries_policy() {
        let p = RetryPolicy::no_retries();
        assert!(p.exhausted(0));
        assert_eq!(p.backoff(0), 0);
        assert_eq!(p.total_backoff(), 0);
    }

    #[test]
    fn total_backoff_sums_the_schedule() {
        let p = RetryPolicy {
            max_retries: 3,
            base_backoff: 256,
            max_backoff: 16_384,
        };
        assert_eq!(p.total_backoff(), 256 + 512 + 1024);
    }

    #[test]
    fn default_is_bounded() {
        let p = RetryPolicy::default_ndp();
        // The worst-case added delay of one failing batch stays far below
        // a millisecond of DDR5-4800 cycles.
        assert!(p.total_backoff() < 2_400_000);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// For every policy, the backoff schedule is monotone
            /// non-decreasing in the attempt number and never exceeds the
            /// configured bound — including huge attempt counts where the
            /// doubling saturates.
            fn backoff_monotone_and_capped(
                base in 0u64..1_000_000,
                cap in 0u64..100_000_000,
                attempts in 1u32..200,
            ) {
                let p = RetryPolicy {
                    max_retries: attempts,
                    base_backoff: base,
                    max_backoff: cap,
                };
                let mut prev = 0u64;
                for a in 0..attempts {
                    let b = p.backoff(a);
                    prop_assert!(b >= prev, "attempt {a}: {b} < {prev}");
                    prop_assert!(b <= cap, "attempt {a}: {b} exceeds cap {cap}");
                    prev = b;
                }
                // Saturated attempts stay at the cap (or 0 base forever).
                let saturated = if base == 0 { 0 } else { cap };
                prop_assert_eq!(p.backoff(63), saturated);
                prop_assert_eq!(p.backoff(200), saturated);
                prop_assert!(p.total_backoff() <= (attempts as u64).saturating_mul(cap));
            }

            /// The retry budget is exhausted exactly at `max_retries`,
            /// never before.
            fn exhaustion_boundary(retries in 0u32..100) {
                let p = RetryPolicy {
                    max_retries: retries,
                    base_backoff: 7,
                    max_backoff: 70,
                };
                if retries > 0 {
                    prop_assert!(!p.exhausted(retries - 1));
                }
                prop_assert!(p.exhausted(retries));
                prop_assert!(p.exhausted(retries + 1));
            }
        }
    }
}
