//! Process-wide parallelism default and simulation counters.
//!
//! Experiment entry points construct [`crate::SystemConfig`] internally,
//! so the `--threads` flag of the experiments binary is plumbed through a
//! process-wide default that [`crate::config::Parallelism::Auto`]
//! resolves to. Explicit [`crate::config::Parallelism::Threads`] values
//! bypass the default entirely.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(1);
static QUERIES_SIMULATED: AtomicU64 = AtomicU64::new(0);
static CYCLES_SIMULATED: AtomicU64 = AtomicU64::new(0);
static CYCLES_SKIPPED: AtomicU64 = AtomicU64::new(0);
static COMPARISONS_PLANNED: AtomicU64 = AtomicU64::new(0);

/// Set the thread count `Parallelism::Auto` resolves to (clamped ≥ 1).
pub fn set_default_threads(n: usize) {
    DEFAULT_THREADS.store(n.max(1), Ordering::Relaxed);
}

/// The thread count `Parallelism::Auto` currently resolves to.
pub fn default_threads() -> usize {
    DEFAULT_THREADS.load(Ordering::Relaxed)
}

/// Total queries replayed by [`crate::run_design`] since process start.
/// Monotonic; benchmark harnesses read deltas around timed sections to
/// derive queries-per-second.
pub fn queries_simulated() -> u64 {
    QUERIES_SIMULATED.load(Ordering::Relaxed)
}

pub(crate) fn record_queries(n: u64) {
    QUERIES_SIMULATED.fetch_add(n, Ordering::Relaxed);
}

/// DRAM cycles actually stepped (`tick` calls) since process start,
/// summed over every memory system the simulator instantiated.
pub fn cycles_simulated() -> u64 {
    CYCLES_SIMULATED.load(Ordering::Relaxed)
}

/// DRAM cycles the event machinery jumped over without ticking since
/// process start. `skipped / (simulated + skipped)` is the fraction of
/// simulated time that cost nothing — the skip-effectiveness number the
/// timing report records per experiment.
pub fn cycles_skipped() -> u64 {
    CYCLES_SKIPPED.load(Ordering::Relaxed)
}

/// Comparisons whose early-termination outcome the planner evaluated
/// since process start: every non-centroid comparison a latency replay
/// runs, and every comparison of a query plan the wave executor fills.
/// A wave that reads a filled plan adds nothing, and neither does a
/// [`crate::run_design_shared`] memo hit.
pub fn comparisons_planned() -> u64 {
    COMPARISONS_PLANNED.load(Ordering::Relaxed)
}

/// Add one query replay's or one plan fill's comparison tally, so that
/// replay workers touch the atomic once per query, not per comparison.
pub(crate) fn record_comparisons(n: u64) {
    COMPARISONS_PLANNED.fetch_add(n, Ordering::Relaxed);
}

/// Fold one retired memory system's tick/skip counters into the
/// process-wide totals. Sums are order-independent, so parallel replay
/// reports the same totals as serial.
pub(crate) fn record_mem_cycles(mem: &ansmet_dram::MemorySystem) {
    CYCLES_SIMULATED.fetch_add(mem.cycles_ticked(), Ordering::Relaxed);
    CYCLES_SKIPPED.fetch_add(mem.cycles_skipped(), Ordering::Relaxed);
}
