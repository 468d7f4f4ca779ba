//! Error type shared by the FIRRTL frontend.

use std::fmt;

/// Convenience alias used throughout the crate.
pub(crate) type Result<T> = std::result::Result<T, FirrtlError>;

/// Errors produced while parsing, building, type-checking, or lowering a
/// FIRRTL circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FirrtlError {
    /// Lexical or syntactic error with a 1-based line number.
    Parse { line: usize, msg: String },
    /// Type or width error.
    Type(String),
    /// Reference to an undefined signal, module, or memory port.
    Undefined(String),
    /// A name was defined twice in the same scope.
    Duplicate(String),
    /// Structural error while lowering (e.g. combinational cycle,
    /// unconnected wire, instance cycle).
    Lower(String),
}

impl fmt::Display for FirrtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FirrtlError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            FirrtlError::Type(msg) => write!(f, "type error: {msg}"),
            FirrtlError::Undefined(name) => write!(f, "undefined reference: {name}"),
            FirrtlError::Duplicate(name) => write!(f, "duplicate definition: {name}"),
            FirrtlError::Lower(msg) => write!(f, "lowering error: {msg}"),
        }
    }
}

impl std::error::Error for FirrtlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs = [
            FirrtlError::Parse {
                line: 3,
                msg: "bad token".into(),
            },
            FirrtlError::Type("oops".into()),
            FirrtlError::Undefined("x".into()),
            FirrtlError::Duplicate("y".into()),
            FirrtlError::Lower("cycle".into()),
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }
}
