//! The ANSMET hybrid partial-dimension / partial-bit early-termination
//! algorithm (§4 of the paper) — the paper's primary contribution.
//!
//! The pipeline:
//!
//! 1. [`encode`] maps every element type to an **order-preserving sortable
//!    encoding**, so that a known bit *prefix* confines the element's value
//!    to a contiguous interval.
//! 2. [`interval`] + [`bound`] turn per-dimension intervals into a
//!    **conservative distance lower bound** (the paper's missing-bit rules
//!    for L2 and inner-product, generalized).
//! 3. [`schedule`] describes the transformed data layout as a sequence of
//!    per-dimension bit steps packed into 64 B lines; [`layout`] performs
//!    the physical bit-plane packing and recovery.
//! 4. [`prefix`] implements outlier-aware common-prefix elimination
//!    (Fig. 4), [`analysis`] the prefix-entropy / ET-frequency profiling
//!    (Fig. 3), [`sampling`] the sampling-based preprocessing, and
//!    [`planner`] the dual-granularity fetch optimization (n_C, T_C, n_F).
//! 5. [`engine`] ties it together: given a vector id, a query, and the
//!    current threshold, it simulates the fetch-by-fetch lower-bound
//!    refinement and reports how many 64 B lines were fetched and whether
//!    the comparison early-terminated — with **no accuracy loss**.
//!
//! # Example
//!
//! ```
//! use ansmet_vecdata::SynthSpec;
//! use ansmet_core::{EtConfig, EtEngine, FetchSchedule};
//!
//! let (data, queries) = SynthSpec::sift().scaled(200, 2).generate();
//! let cfg = EtConfig::new(FetchSchedule::uniform(data.dtype(), 4));
//! let engine = EtEngine::new(&data, cfg);
//! let cost = engine.evaluate(0, &queries[0], 100.0);
//! assert!(cost.lines <= engine.full_lines());
//! ```

pub mod analysis;
pub mod bound;
pub mod encode;
pub mod engine;
pub mod error;
pub mod exact;
pub mod interval;
mod kernel;
pub mod layout;
pub mod observe;
pub mod planner;
pub mod prefix;
pub mod sampling;
pub mod schedule;

pub use analysis::{et_frequency_profile, prefix_entropy_profile};
pub use bound::DistanceBounder;
pub use encode::{from_sortable, sortable_to_value, to_sortable};
pub use engine::{
    et_bounds, et_evaluations, EtConfig, EtEngine, EtOracle, EtQuery, EtScratch, EvalCost,
};
pub use error::EtError;
pub use exact::{et_assign, et_knn, ExactScan};
pub use interval::ValueInterval;
pub use layout::{TransformedDataset, TransformedVector};
pub use observe::{EtObserver, NoopEtObserver};
pub use planner::{optimize_dual_schedule, DualParams};
pub use prefix::PrefixSpec;
pub use sampling::{SamplingConfig, SamplingProfile};
pub use schedule::{FetchSchedule, LinePlan};
