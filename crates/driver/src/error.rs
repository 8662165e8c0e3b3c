//! Driver errors.

use std::error::Error;
use std::fmt;

use parsecs_core::SimError;
use parsecs_machine::MachineError;

/// Errors produced while executing a program through a backend.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DriverError {
    /// The reference machine failed (load error, out of fuel, bad access).
    Machine(MachineError),
    /// The many-core simulator failed.
    Sim(SimError),
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::Machine(e) => write!(f, "machine: {e}"),
            DriverError::Sim(e) => write!(f, "simulator: {e}"),
        }
    }
}

impl Error for DriverError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DriverError::Machine(e) => Some(e),
            DriverError::Sim(e) => Some(e),
        }
    }
}

impl From<MachineError> for DriverError {
    fn from(e: MachineError) -> DriverError {
        DriverError::Machine(e)
    }
}

impl From<SimError> for DriverError {
    fn from(e: SimError) -> DriverError {
        DriverError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e: DriverError = MachineError::OutOfFuel { steps: 7 }.into();
        assert!(e.to_string().contains('7'));
        let e: DriverError = SimError::Config("no cores".into()).into();
        assert!(e.to_string().contains("no cores"));
    }
}
