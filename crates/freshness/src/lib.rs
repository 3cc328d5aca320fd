//! Index freshness for the ANSMET simulator: online inserts/deletes,
//! epoch snapshots, and churn-aware serving.
//!
//! The offline stack ([`ansmet_sim`]) and the serving layer
//! ([`ansmet_serve`]) both assume a *static* index: the dataset, graph,
//! and the ANSMET layout-optimizer artifacts (dual-granularity fetch
//! plan, common-prefix tables, hot-vector replica sets) are frozen at
//! build time. Real deployments churn. This crate adds the freshness
//! regime on top of the same deterministic machinery:
//!
//! * [`mutable`] — [`MutableIndex`]: streaming inserts (incremental HNSW
//!   insertion with the build's level distribution) and tombstone
//!   deletes behind a wrapper the existing search paths consume
//!   unchanged.
//! * [`oracle`] — [`FreshEtOracle`]: early termination that serves
//!   not-yet-revalidated vectors with a conservative exact full fetch,
//!   so ET bounds stay correct under churn.
//! * [`revalidate`] — [`LayoutArtifacts`]: the frozen layout plan plus
//!   epoch re-validation, which admits fresh vectors whose prefix/
//!   outlier assumptions still hold, re-plans when too many do not, and
//!   refreshes the hot-vector replica set.
//! * [`epoch`] — [`EpochManager`]: background compaction (tombstone
//!   purge) plus re-validation on a fixed cycle cadence, with a
//!   deterministic pause-cost model.
//! * [`snapshot`] — a checksummed, versioned binary snapshot of index +
//!   layout plan + epoch metadata, with torn-write detection and
//!   recovery-on-load from a fallback snapshot.
//! * [`serving`] — a mixed read/write serving loop: seeded update
//!   tenants share the WFQ admission machinery with query tenants,
//!   epochs fire on the event wheel, and every read is served through
//!   both the ET and the exact oracle to prove losslessness in flight.
//! * [`experiment`] — the `freshness` experiment driver emitting
//!   `BENCH_freshness.json`.
//!
//! Determinism contract: seeded arrivals and level draws, integer cycle
//! arithmetic, and canonical orderings (sorted replica sets) make every
//! report a pure function of its config — bit-identical across reruns
//! and host thread counts.

pub mod epoch;
pub mod experiment;
pub mod mutable;
pub mod oracle;
pub mod revalidate;
pub mod serving;
pub mod snapshot;

pub use epoch::{EpochConfig, EpochManager, EpochReport};
pub use experiment::freshness_experiment;
pub use mutable::MutableIndex;
pub use oracle::FreshEtOracle;
pub use revalidate::{LayoutArtifacts, RevalidationReport};
pub use serving::{
    run_churn, run_churn_with_sink, ChurnConfig, ChurnReport, UpdateOp, UpdateTenantSpec,
};
pub use snapshot::{load, load_with_fallback, save, EpochMeta, Snapshot, SnapshotError};
