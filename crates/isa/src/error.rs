//! Error type of the ISA crate.

use std::error::Error;
use std::fmt;

/// Errors produced while constructing or resolving programs and
/// instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsaError {
    /// A register name could not be parsed.
    UnknownRegister(String),
    /// A condition-code suffix could not be parsed.
    UnknownCondition(String),
    /// A code label was referenced but never defined.
    UndefinedLabel(String),
    /// A code label was defined twice.
    DuplicateLabel(String),
    /// A data symbol was referenced but never defined.
    UndefinedSymbol(String),
    /// A data symbol was defined twice.
    DuplicateSymbol(String),
    /// A branch/call/fork target is outside the program.
    TargetOutOfRange {
        /// Index of the offending instruction.
        at: usize,
        /// The resolved, out-of-range target.
        target: usize,
        /// Number of instructions in the program.
        len: usize,
    },
    /// An instruction uses an operand combination the ISA does not allow
    /// (e.g. a memory-to-memory `mov`).
    InvalidOperands {
        /// Mnemonic of the offending instruction.
        mnemonic: &'static str,
        /// Human readable explanation.
        reason: String,
    },
}

impl fmt::Display for IsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsaError::UnknownRegister(name) => write!(f, "unknown register `{name}`"),
            IsaError::UnknownCondition(name) => write!(f, "unknown condition code `{name}`"),
            IsaError::UndefinedLabel(name) => write!(f, "undefined label `{name}`"),
            IsaError::DuplicateLabel(name) => write!(f, "label `{name}` defined more than once"),
            IsaError::UndefinedSymbol(name) => write!(f, "undefined data symbol `{name}`"),
            IsaError::DuplicateSymbol(name) => {
                write!(f, "data symbol `{name}` defined more than once")
            }
            IsaError::TargetOutOfRange { at, target, len } => write!(
                f,
                "instruction {at} targets index {target}, but the program has {len} instructions"
            ),
            IsaError::InvalidOperands { mnemonic, reason } => {
                write!(f, "invalid operands for `{mnemonic}`: {reason}")
            }
        }
    }
}

impl Error for IsaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_nonempty() {
        let errors = [
            IsaError::UnknownRegister("%zz".into()),
            IsaError::UndefinedLabel("loop".into()),
            IsaError::TargetOutOfRange {
                at: 3,
                target: 99,
                len: 10,
            },
            IsaError::DuplicateSymbol("t".into()),
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
        }
    }
}
