//! Typed errors for recoverable NDP data-integrity violations.
//!
//! A polled result payload that fails its CRC is recoverable on the host
//! side — the fault-tolerant driver retries, re-offloads, or falls back to
//! host compute — so it surfaces as an [`NdpError`] value rather than a
//! panic.

use std::error::Error;
use std::fmt;

/// A recoverable NDP data-integrity error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NdpError {
    /// A polled result slot failed its CRC check (corrupted on the DDR
    /// return path or in QSHR storage).
    CorruptResult {
        /// The polled QSHR.
        qshr: u8,
        /// The corrupt task slot within the result array.
        slot: usize,
    },
    /// A polled result payload's header (slot count) failed its CRC
    /// check, so no slot can be trusted.
    CorruptHeader {
        /// The polled QSHR.
        qshr: u8,
    },
}

impl fmt::Display for NdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NdpError::CorruptResult { qshr, slot } => {
                write!(f, "CRC mismatch in QSHR {qshr} result slot {slot}")
            }
            NdpError::CorruptHeader { qshr } => {
                write!(f, "CRC mismatch in QSHR {qshr} result header")
            }
        }
    }
}

impl Error for NdpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = NdpError::CorruptResult { qshr: 3, slot: 5 };
        assert!(e.to_string().contains("CRC"));
        assert!(e.to_string().contains("slot 5"));
        let e = NdpError::CorruptHeader { qshr: 9 };
        assert!(e.to_string().contains("QSHR 9"));
        assert!(e.to_string().contains("header"));
    }

    #[test]
    fn is_a_std_error_without_a_source() {
        let e: Box<dyn Error> = Box::new(NdpError::CorruptHeader { qshr: 1 });
        assert!(e.source().is_none());
        assert_eq!(e.to_string(), "CRC mismatch in QSHR 1 result header");
    }
}
