//! Full-system ANSMET simulator: composes the DRAM simulator, the host
//! CPU model, the NDP hardware model, and the early-termination engine
//! into the nine evaluated designs of the paper (§6), and provides the
//! experiment drivers that regenerate every table and figure of §7.
//!
//! The methodology is trace-driven: each query executes once
//! *functionally* (HNSW/IVF beam search with exact distances, recording a
//! [`ansmet_index::SearchTrace`]), and the trace is then *replayed* on the
//! timing substrate once per design — charging each comparison exactly the
//! 64 B lines that design's fetch schedule and early-termination rule
//! would move, through the cycle-accurate DDR5 model. This is sound
//! because ANSMET's early termination is lossless: every design visits
//! the same vectors and produces the same results; only the data movement
//! and timing differ.
//!
//! # Example
//!
//! ```no_run
//! use ansmet_vecdata::SynthSpec;
//! use ansmet_sim::{Design, SystemConfig, Workload};
//!
//! let wl = Workload::prepare(&SynthSpec::sift().scaled(2000, 4), 10, None);
//! let cfg = SystemConfig::default();
//! let base = ansmet_sim::run_design(Design::CpuBase, &wl, &cfg);
//! let ndp = ansmet_sim::run_design(Design::NdpEtOpt, &wl, &cfg);
//! assert!(ndp.total_cycles < base.total_cycles);
//! ```

pub mod config;
pub mod degraded;
pub mod design;
pub mod energy;
pub mod error;
pub mod etplan;
pub mod events;
pub mod experiment;
pub mod parallel;
pub mod report;
pub mod throughput;
pub mod timing;
pub mod workload;

pub use config::{Parallelism, SystemConfig};
pub use degraded::{run_degraded, DegradedRunResult, FaultyNdpOracle, RecoveryReport};
pub use design::{Design, DesignPlan, EtKind};
pub use energy::{EnergyBreakdown, SystemEnergyModel};
pub use error::AnsmetError;
pub use events::{EventWheel, Wakeup};
pub use parallel::{
    comparisons_planned, cycles_simulated, cycles_skipped, default_threads, queries_simulated,
    set_default_threads,
};
pub use throughput::{run_design_throughput, BatchExecution, ThroughputResult, WaveContext};
pub use timing::{
    batch_driver, run_design, run_design_shared, run_design_traced, set_batch_driver, BatchDriver,
    QueryBreakdown, RunResult, TraceOptions,
};
pub use workload::Workload;
