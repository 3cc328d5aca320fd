//! The simulator-level error hierarchy.
//!
//! [`AnsmetError`] unifies the per-crate typed errors ([`MemoryError`],
//! [`NdpError`], [`EtError`]) with the fault-recovery conditions the host
//! driver itself raises (poll deadlines, exhausted retry budgets), so
//! recovery code threads one error type through the whole stack.

use std::error::Error;
use std::fmt;

use ansmet_core::EtError;
use ansmet_dram::MemoryError;
use ansmet_ndp::NdpError;

/// Any recoverable error in the simulated ANSMET stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnsmetError {
    /// A memory-system protocol error.
    Memory(MemoryError),
    /// An NDP-unit protocol or data-integrity error.
    Ndp(NdpError),
    /// An evaluation-engine misuse error.
    Et(EtError),
    /// A polled batch missed its completion deadline (stalled or hung
    /// NDP unit).
    DeadlineExceeded {
        /// The rank whose batch timed out.
        rank: usize,
        /// The deadline, in cycles after batch issue.
        deadline: u64,
    },
    /// The bounded retry budget ran out without a healthy completion.
    RetriesExhausted {
        /// The rank the batch was last offloaded to.
        rank: usize,
        /// Retries attempted (not counting the initial offload).
        attempts: u32,
    },
}

impl fmt::Display for AnsmetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnsmetError::Memory(e) => write!(f, "memory: {e}"),
            AnsmetError::Ndp(e) => write!(f, "ndp: {e}"),
            AnsmetError::Et(e) => write!(f, "et: {e}"),
            AnsmetError::DeadlineExceeded { rank, deadline } => {
                write!(
                    f,
                    "rank {rank}: poll deadline of {deadline} cycles exceeded"
                )
            }
            AnsmetError::RetriesExhausted { rank, attempts } => {
                write!(
                    f,
                    "rank {rank}: retry budget exhausted after {attempts} attempts"
                )
            }
        }
    }
}

impl Error for AnsmetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AnsmetError::Memory(e) => Some(e),
            AnsmetError::Ndp(e) => Some(e),
            AnsmetError::Et(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MemoryError> for AnsmetError {
    fn from(e: MemoryError) -> Self {
        AnsmetError::Memory(e)
    }
}

impl From<NdpError> for AnsmetError {
    fn from(e: NdpError) -> Self {
        AnsmetError::Ndp(e)
    }
}

impl From<EtError> for AnsmetError {
    fn from(e: EtError) -> Self {
        AnsmetError::Et(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_and_sources() {
        let e: AnsmetError = NdpError::CorruptHeader { qshr: 4 }.into();
        assert!(e.to_string().contains("ndp: CRC mismatch"));
        assert!(e.source().is_some());
        let e = AnsmetError::RetriesExhausted {
            rank: 2,
            attempts: 3,
        };
        assert!(e.to_string().contains("exhausted"));
        assert!(e.source().is_none());
    }
}
