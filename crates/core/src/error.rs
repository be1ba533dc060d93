//! Error type for DSM operations.

use std::fmt;
use std::io;

use megammap_tiered::DmshError;

/// Errors surfaced by MegaMmap operations.
#[derive(Debug)]
pub enum MmError {
    /// The vector key is not a valid URL.
    BadKey(String),
    /// A vector with this key already exists with incompatible parameters.
    Incompatible(String),
    /// The vector does not exist.
    NoSuchVector(String),
    /// Index out of bounds.
    OutOfBounds {
        /// The offending index.
        index: u64,
        /// The vector length at the time.
        len: u64,
    },
    /// An access violated the active transaction's declared intent.
    TxViolation(String),
    /// The DMSH and backend are both unable to hold the data.
    Capacity(String),
    /// Backend I/O failed.
    Io(io::Error),
    /// An internal invariant did not hold (a bug, not an environment
    /// failure). Fault-path code returns this instead of panicking so a
    /// single bad page cannot take down the whole process.
    Internal(&'static str),
    /// A backend (or peer) is unreachable and bounded retries were
    /// exhausted. Transient: `retry_at` carries the virtual time the
    /// outage is expected to lift (`None` when the fault plan marks it
    /// permanent), so callers can park the operation instead of spinning.
    Unavailable {
        /// What was unreachable (backend key, node, ...).
        what: String,
        /// Virtual time the outage lifts, if known.
        retry_at: Option<u64>,
    },
}

impl MmError {
    /// Whether retrying later could succeed (typed retry classification
    /// for the recovery layers).
    pub fn is_transient(&self) -> bool {
        matches!(self, MmError::Unavailable { retry_at: Some(_), .. })
    }
}

impl fmt::Display for MmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MmError::BadKey(k) => write!(f, "bad vector key: {k}"),
            MmError::Incompatible(m) => write!(f, "incompatible vector: {m}"),
            MmError::NoSuchVector(k) => write!(f, "no such vector: {k}"),
            MmError::OutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds (len {len})")
            }
            MmError::TxViolation(m) => write!(f, "transaction violation: {m}"),
            MmError::Capacity(m) => write!(f, "capacity exhausted: {m}"),
            MmError::Io(e) => write!(f, "backend I/O error: {e}"),
            MmError::Internal(m) => write!(f, "internal invariant violated: {m}"),
            MmError::Unavailable { what, retry_at: Some(t) } => {
                write!(f, "{what} unavailable (transient, heals at {t} ns)")
            }
            MmError::Unavailable { what, retry_at: None } => {
                write!(f, "{what} unavailable (permanent)")
            }
        }
    }
}

impl std::error::Error for MmError {}

impl From<io::Error> for MmError {
    fn from(e: io::Error) -> Self {
        MmError::Io(e)
    }
}

impl From<DmshError> for MmError {
    fn from(e: DmshError) -> Self {
        MmError::Capacity(e.to_string())
    }
}

impl From<megammap_formats::url::UrlError> for MmError {
    fn from(e: megammap_formats::url::UrlError) -> Self {
        MmError::BadKey(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MmError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = MmError::OutOfBounds { index: 10, len: 4 };
        assert_eq!(e.to_string(), "index 10 out of bounds (len 4)");
        let e: MmError = io::Error::other("boom").into();
        assert!(e.to_string().contains("boom"));
        let e: MmError = DmshError::Full { requested: 7 }.into();
        assert!(matches!(e, MmError::Capacity(_)));
    }

    #[test]
    fn unavailable_classifies_transient() {
        let t = MmError::Unavailable { what: "obj://b/k".into(), retry_at: Some(9) };
        assert!(t.is_transient());
        assert!(t.to_string().contains("heals at 9"));
        let p = MmError::Unavailable { what: "obj://b/k".into(), retry_at: None };
        assert!(!p.is_transient());
        assert!(p.to_string().contains("permanent"));
    }
}
