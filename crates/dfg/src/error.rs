//! Error type for dataflow-graph construction.

use std::fmt;

/// Convenience alias.
pub(crate) type Result<T> = std::result::Result<T, DfgError>;

/// Errors produced while building or transforming a dataflow graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfgError {
    /// A combinational cycle through wires/nodes (no register on the path).
    CombCycle(String),
    /// Reference to an undefined signal.
    Undefined(String),
    /// A width-inference failure bubbled up from the FIRRTL layer.
    Type(String),
}

impl fmt::Display for DfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfgError::CombCycle(name) => write!(f, "combinational cycle through {name}"),
            DfgError::Undefined(name) => write!(f, "undefined reference: {name}"),
            DfgError::Type(msg) => write!(f, "type error: {msg}"),
        }
    }
}

impl std::error::Error for DfgError {}

impl From<rteaal_firrtl::FirrtlError> for DfgError {
    fn from(err: rteaal_firrtl::FirrtlError) -> Self {
        DfgError::Type(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        for e in [
            DfgError::CombCycle("w".into()),
            DfgError::Undefined("x".into()),
            DfgError::Type("t".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
