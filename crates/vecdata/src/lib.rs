//! Vector datasets, element types, distance metrics, synthetic generators,
//! and ground-truth utilities for the ANSMET reproduction.
//!
//! The paper evaluates seven public datasets (Table 2). Billion-scale
//! originals are not available here, so [`synth`] provides seeded synthetic
//! generators that match each dataset's *metric, element datatype,
//! dimension, and bit-level statistical shape* at a reduced scale — the
//! properties that early-termination effectiveness actually depends on.
//!
//! # Example
//!
//! ```
//! use ansmet_vecdata::{SynthSpec, Metric};
//!
//! let (data, queries) = SynthSpec::sift().scaled(1000, 10).generate();
//! assert_eq!(data.dim(), 128);
//! assert_eq!(data.len(), 1000);
//! assert_eq!(queries.len(), 10);
//! let d = data.metric().distance(data.vector(0), &queries[0]);
//! assert!(d >= 0.0 || data.metric() != Metric::L2);
//! ```

pub mod dataset;
pub mod dtype;
pub mod ground_truth;
pub mod metric;
pub mod recall;
pub mod synth;

pub use dataset::Dataset;
pub use dtype::ElemType;
pub use ground_truth::{brute_force_knn, GroundTruth};
pub use metric::Metric;
pub use recall::recall_at_k;
pub use synth::SynthSpec;
