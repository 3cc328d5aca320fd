//! ANNS index substrates for the ANSMET reproduction: HNSW (graph-based)
//! and IVF (cluster-based), per §2.1 of the paper.
//!
//! Both indexes evaluate candidate distances through a [`DistanceOracle`],
//! which lets the same search code run with exact distances, with
//! early-terminating distance comparison, or with instrumented fetch
//! counting. Searches can also record a [`SearchTrace`] — the exact
//! sequence of distance-comparison batches with their thresholds — which
//! the system simulator replays on the timing substrate.
//!
//! # Example
//!
//! ```
//! use ansmet_vecdata::SynthSpec;
//! use ansmet_index::{Hnsw, HnswParams, ExactOracle};
//!
//! let (data, queries) = SynthSpec::sift().scaled(500, 2).generate();
//! let hnsw = Hnsw::build(&data, HnswParams::default());
//! let mut oracle = ExactOracle::new(&data);
//! let result = hnsw.search(&queries[0], 10, 50, &mut oracle);
//! assert_eq!(result.ids().len(), 10);
//! ```

pub mod heap;
pub mod hnsw;
pub mod ivf;
pub mod oracle;
pub mod scratch;
pub mod trace;
pub mod visited;

pub use heap::{MaxDistHeap, MinDistHeap, Neighbor};
pub use hnsw::{Hnsw, HnswParams, SearchResult};
pub use ivf::{Ivf, IvfParams};
pub use oracle::{DistanceOracle, DistanceOutcome, ExactOracle};
pub use scratch::SearchScratch;
pub use trace::{Eval, Hop, HopKind, SearchTrace};
pub use visited::VisitedSet;
