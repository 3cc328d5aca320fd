//! Query status handling register (QSHR, Fig. 5c) parameters.
//!
//! Each NDP unit holds 32 QSHRs. A QSHR stores one query, an array of
//! eight comparison tasks and their result distances; tasks within a QSHR
//! process sequentially while different QSHRs issue memory accesses in
//! parallel. `ansmet-sim` models that concurrency cycle by cycle; the
//! constants here are the register-file sizes that it and the result
//! wire format share.

/// Result sentinel: "invalid MAX value" before a task finishes (§5.2).
pub const RESULT_INVALID: f32 = f32::MAX;

/// Tasks per QSHR.
pub const TASKS_PER_QSHR: usize = 8;

/// QSHRs per NDP unit.
pub const QSHRS_PER_UNIT: usize = 32;
