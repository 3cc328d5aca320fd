//! Online serving layer for the ANSMET simulator.
//!
//! The offline experiments (`ansmet-sim`) replay a fixed query list as
//! fast as the simulated hardware allows — they measure *latency* and
//! *saturated throughput*, but say nothing about serving behavior under
//! real traffic: arrival bursts, queueing, batching policy, overload, or
//! the p99 a deployment could promise. This crate adds that missing
//! regime on top of the same cycle-level machinery:
//!
//! * [`arrival`] — open-loop load generation: seeded Poisson, bursty,
//!   and trace-driven arrival processes over multi-tenant query streams.
//! * [`engine`] — the serving loop: admission control (queue-depth
//!   backpressure, per-query deadlines, load shedding), weighted-fair
//!   per-tenant queueing, and a dynamic batch former (max batch size /
//!   max linger) feeding NDP wave batches through
//!   [`ansmet_sim::WaveContext`].
//! * [`report`] — p50/p95/p99/p99.9 for queue/execute/total latency
//!   (from `ansmet_obs`'s log-bucketed integer latency histograms),
//!   achieved QPS, shed rate, and SLO attainment, as text and
//!   deterministic JSON (`BENCH_serving.json`).
//! * [`sweep`] — QPS sweep finding the max sustainable throughput at a
//!   p99 target.
//! * [`resilience`] — the one fault-recovery path (per-offload timeout,
//!   CRC rejection, backoff retry, exact host fallback) and the
//!   fleet-level layer on top of it: per-rank-group circuit breakers fed
//!   by EWMA health tracking, hedged offloads with a histogram-derived
//!   hedge delay, brownout admission control, and scripted storm
//!   evaluation (SLO before/during/after, MTTR).
//! * [`experiment`] — the `serve` and `resilience` experiment drivers
//!   for the bench binary.
//!
//! Fault integration: a [`FaultProfile`] routes every comparison's
//! offload through the `ansmet-faults` injector and the fleet state in
//! [`resilience`] charges the host's retry/backoff/fallback recovery as
//! extra cycles on the affected queries — degraded-mode recovery
//! becomes *measurable tail inflation* while the returned neighbors
//! stay bit-identical (the recovery path is lossless, see
//! `ansmet_sim::degraded`).
//!
//! Determinism contract: seeded arrivals, integer WFQ virtual time,
//! fresh device state per batch, and integer histograms make the whole
//! report a pure function of `(workload, config, serve config)` — the
//! same seed produces a bit-identical `BENCH_serving.json` on every run
//! and at every host thread count.
//!
//! # Example
//!
//! ```no_run
//! use ansmet_serve::{run_serve, ServeConfig};
//! use ansmet_sim::{SystemConfig, Workload};
//! use ansmet_vecdata::SynthSpec;
//!
//! let wl = Workload::prepare(&SynthSpec::sift().scaled(2000, 4), 10, None);
//! let cfg = SystemConfig::default();
//! let serve = ServeConfig::open_loop(42, 50_000.0, 200, 2_000_000);
//! let report = run_serve(&wl, &cfg, &serve);
//! println!("{}", report.render("serve"));
//! assert!(report.slo_attainment() > 0.0);
//! ```

pub mod arrival;
pub mod engine;
pub mod experiment;
pub mod report;
pub mod resilience;
pub mod sweep;
pub mod wfq;

pub use arrival::{generate_arrivals, Arrival, ArrivalProcess, TenantSpec};
pub use engine::{
    run_serve, run_serve_with_sink, AdmissionConfig, BatchPolicy, FaultProfile, MaintenancePlan,
    ServeConfig,
};
pub use experiment::{ops_serve_config, resilience_experiment, serve_experiment};
pub use report::{cycles_to_ms, PercentileSummary, ServeReport, TenantReport};
pub use resilience::{ResilienceConfig, ResilienceReport, StormOutcome, WindowStats};
pub use sweep::{sweep_qps, QpsSweep, SweepPoint};
pub use wfq::{WfqState, WFQ_SCALE};
