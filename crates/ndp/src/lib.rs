//! The ANSMET NDP hardware model (§5 of the paper): the parameters and
//! placement policies that `ansmet-sim` composes into cycle-level timing.
//!
//! - [`partition`]: hybrid vertical/horizontal data partitioning across
//!   ranks, hot-vector replication and per-rank load tracking (§5.3).
//! - [`polling`]: conventional and adaptive result polling (§5.4).
//! - [`compute`]: the distance computing unit's timing, power and area
//!   (Fig. 5d).
//! - [`instruction`]: the DDR-encoded set-search instruction and the
//!   CRC-protected result payload a poll returns (Fig. 5e).
//! - [`qshr`]: the query status handling register file's sizes (Fig. 5c).
//! - [`error`]: the typed error a corrupt polled result raises.
//!
//! This crate depends on no other workspace crate; the instruction-level
//! behaviour of the units (QSHR occupancy, fetches, early termination) is
//! modelled in `ansmet-sim`'s batch driver.
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
pub mod partition;
pub mod polling;
pub mod qshr;

pub use compute::ComputeUnit;
pub use error::NdpError;
pub use instruction::{crc8, NdpInstruction, ResultPayload, SearchTask};
pub use partition::{LoadTracker, PartitionScheme, Partitioner, Placement, ReplicaSet};
pub use polling::{
    PollDeadline, PollOutcome, PollingPolicy, PollingStats, CONVENTIONAL_POLL_PERIOD,
};
