//! Errors of the streaming trace pipeline.

use std::error::Error;
use std::fmt;

use parsecs_machine::MachineError;

/// Errors produced while building a [`crate::TraceArena`].
///
/// The arena packs trace indices, section ids and column offsets into
/// `u32`s (and a dependence's provenance into its producer's word) to
/// stay under its per-instruction memory budget; a run that legitimately
/// outgrows one of
/// those packings — possible from a few hundred million dynamic
/// instructions on — is reported as [`TraceError::CapacityExceeded`]
/// instead of aborting the process mid-run, so drivers can fail the one
/// run and keep serving.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// The functional execution feeding the pipeline failed (load error,
    /// out of fuel, bad access).
    Machine(MachineError),
    /// The trace outgrew one of the arena's packed-index capacities.
    CapacityExceeded {
        /// Which packing overflowed (`"instructions"`, `"sections"`,
        /// `"dependences"`, `"writes"`).
        resource: &'static str,
        /// The maximum number of `resource` the arena can hold.
        limit: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Machine(e) => write!(f, "functional execution failed: {e}"),
            TraceError::CapacityExceeded { resource, limit } => write!(
                f,
                "trace arena capacity exceeded: more than {limit} {resource} \
                 (the packed columns index {resource} with 32-bit offsets)"
            ),
        }
    }
}

impl Error for TraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceError::Machine(e) => Some(e),
            TraceError::CapacityExceeded { .. } => None,
        }
    }
}

impl From<MachineError> for TraceError {
    fn from(e: MachineError) -> TraceError {
        TraceError::Machine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e = TraceError::CapacityExceeded {
            resource: "dependences",
            limit: u32::MAX as u64,
        };
        assert!(e.to_string().contains("dependences"));
        assert!(e.to_string().contains("capacity exceeded"));
        let e: TraceError = MachineError::OutOfFuel { steps: 3 }.into();
        assert!(e.to_string().contains('3'));
    }
}
