//! Host CPU timing model for the ANSMET reproduction (Table 1): a
//! 16-core, 3.2 GHz out-of-order host with an analytical per-operation
//! cost model for the search phases the CPU executes — index traversal,
//! heap maintenance, SIMD distance computation, NDP task offloading, and
//! result collection — plus the per-rank-group health tracking and
//! recovery costs of the fault-tolerant offload path.
//!
//! No cache is simulated. The CPU replay in `ansmet-sim` charges every
//! vector fetch a fixed 60-CPU-cycle LLC lookup before DRAM, as if the
//! 8 MB LLC always missed.

pub mod cpu;
pub mod health;
pub mod recovery;

pub use cpu::{CpuModel, HostCosts};
pub use health::{BreakerConfig, BreakerState, BreakerTransition, HealthTracker, EWMA_SCALE};
pub use recovery::{RetryPolicy, CYCLES_PER_LINE, TASK_OVERHEAD_CYCLES, TIMEOUT_PENALTY_CYCLES};
