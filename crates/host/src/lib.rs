//! Host CPU timing model for the ANSMET reproduction (Table 1): a
//! 16-core, 3.2 GHz out-of-order host with a three-level cache hierarchy
//! (64 kB L1, 1 MB L2, 8 MB LLC) and an analytical per-operation cost
//! model for the search phases the CPU executes — index traversal, heap
//! maintenance, SIMD distance computation, NDP task offloading, and
//! result collection.
//!
//! # Example
//!
//! ```
//! use ansmet_host::{CacheHierarchy, CacheConfig, AccessResult};
//!
//! let mut caches = CacheHierarchy::new(CacheConfig::table1());
//! let first = caches.access(0x4000);
//! assert_eq!(first, AccessResult::Miss);
//! let second = caches.access(0x4000);
//! assert_eq!(second, AccessResult::Hit { level: 1 });
//! ```

pub mod cache;
pub mod cpu;
pub mod health;
pub mod recovery;

pub use cache::{AccessResult, Cache, CacheConfig, CacheHierarchy};
pub use cpu::{CpuModel, HostCosts};
pub use health::{BreakerConfig, BreakerState, BreakerTransition, HealthTracker, EWMA_SCALE};
pub use recovery::{RetryPolicy, CYCLES_PER_LINE, TASK_OVERHEAD_CYCLES, TIMEOUT_PENALTY_CYCLES};
