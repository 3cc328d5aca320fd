//! The ANSMET NDP hardware model (§5 of the paper): per-rank NDP units in
//! the DIMM buffer chip, query status handling registers (QSHRs),
//! DDR-encoded NDP instructions, the distance computing unit, hybrid
//! vertical/horizontal data partitioning with hot-vector replication, and
//! adaptive result polling.
//!
//! Timing is composed in `ansmet-sim`; this crate provides the structural
//! and behavioral models plus their parameters.
//!
//! # Example
//!
//! ```
//! use ansmet_ndp::{Partitioner, PartitionScheme};
//!
//! // GIST vectors (960 × FP32 = 3840 B) across 32 ranks with the paper's
//! // best hybrid granularity of 1 kB → groups of 4 ranks.
//! let p = Partitioner::new(PartitionScheme::Hybrid { subvec_bytes: 1024 }, 32, 960, 4);
//! assert_eq!(p.subvectors_per_vector(), 4);
//! assert_eq!(p.rank_groups(), 8);
//! let placement = p.placement(7);
//! assert_eq!(placement.len(), 4);
//! ```

pub mod compute;
pub mod error;
pub mod instruction;
pub mod lrdimm;
pub mod partition;
pub mod polling;
pub mod qshr;
pub mod unit;

pub use compute::ComputeUnit;
pub use error::NdpError;
pub use instruction::{crc8, ConfigPayload, NdpInstruction, ResultPayload, SearchTask};
pub use lrdimm::{LrdimmConfig, LrdimmUnit};
pub use partition::{LoadTracker, PartitionScheme, Partitioner, Placement, ReplicaSet};
pub use polling::{
    PollDeadline, PollOutcome, PollingPolicy, PollingStats, CONVENTIONAL_POLL_PERIOD,
};
pub use qshr::{Qshr, QshrFile, QshrState};
pub use unit::{NdpUnit, TaskOutcome};
