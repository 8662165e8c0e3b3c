//! Simulation errors.

use std::error::Error;
use std::fmt;

use parsecs_check::CheckReport;
use parsecs_machine::MachineError;
use parsecs_trace::TraceError;

/// Errors produced while preparing or running a many-core simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The functional pre-execution of the program failed.
    Machine(MachineError),
    /// The streaming trace pipeline failed — in particular
    /// [`TraceError::CapacityExceeded`] when a 100M+-instruction run
    /// outgrows the arena's packed `u32` columns (reported as an error
    /// instead of aborting mid-run).
    Trace(TraceError),
    /// The configuration is invalid (e.g. zero cores).
    Config(String),
    /// The pre-simulation static analysis ([`crate::SimConfig::validate`])
    /// found the trace arena structurally invalid; the full report with
    /// the typed violations is attached.
    Invariant(Box<CheckReport>),
    /// The timing model broke down: the engine stopped making progress,
    /// an instruction came out of it unresolved, a core's cycle
    /// attribution did not tile the run, or a validated run broke a
    /// contract of its static report, on a trace the structural checks
    /// accept. Always a simulator (or analyzer) bug, never a property of
    /// the program.
    Diverged {
        /// What went wrong: `"deadlocked with no pending event"`,
        /// `"did not converge"`, `"left an instruction unresolved"`,
        /// `"split a core's cycles into buckets that do not sum to
        /// total_cycles"`, or on a validated run the broken report
        /// contract:
        /// `"undercut the static critical path"`,
        /// `"bounded the schedule below the static critical path"`,
        /// `"undercut the certified schedule bound"` or
        /// `"forced a stall release on a run proven to progress"`.
        reason: &'static str,
        /// Simulated cycle at which the engine gave up.
        cycle: u64,
        /// Instructions whose timing had been resolved by then.
        resolved: u64,
        /// Instructions in the trace.
        instructions: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Machine(e) => write!(f, "functional execution failed: {e}"),
            SimError::Trace(e) => write!(f, "trace pipeline failed: {e}"),
            SimError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::Invariant(report) => write!(f, "trace invariants violated: {report}"),
            SimError::Diverged {
                reason,
                cycle,
                resolved,
                instructions,
            } => write!(
                f,
                "simulation {reason} at cycle {cycle} \
                 ({resolved} of {instructions} instructions resolved)"
            ),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Machine(e) => Some(e),
            SimError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MachineError> for SimError {
    fn from(e: MachineError) -> SimError {
        SimError::Machine(e)
    }
}

/// A machine failure inside the pipeline stays a [`SimError::Machine`]
/// (callers match on fuel exhaustion there); only genuine pipeline
/// conditions surface as [`SimError::Trace`].
impl From<TraceError> for SimError {
    fn from(e: TraceError) -> SimError {
        match e {
            TraceError::Machine(e) => SimError::Machine(e),
            other => SimError::Trace(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = SimError::Config("no cores".into());
        assert!(e.to_string().contains("no cores"));
        let e: SimError = MachineError::OutOfFuel { steps: 5 }.into();
        assert!(e.to_string().contains("5"));
    }

    #[test]
    fn trace_errors_convert_preserving_machine_causes() {
        // A machine failure wrapped by the pipeline unwraps back to
        // SimError::Machine...
        let e: SimError = TraceError::Machine(MachineError::OutOfFuel { steps: 7 }).into();
        assert_eq!(e, SimError::Machine(MachineError::OutOfFuel { steps: 7 }));
        // ...while a capacity overflow stays a typed trace error.
        let e: SimError = TraceError::CapacityExceeded {
            resource: "dependences",
            limit: 42,
        }
        .into();
        assert!(matches!(e, SimError::Trace(_)));
        assert!(e.to_string().contains("capacity"));
    }

    #[test]
    fn diverged_reports_reason_and_progress() {
        let e = SimError::Diverged {
            reason: "did not converge",
            cycle: 99,
            resolved: 3,
            instructions: 7,
        };
        let s = e.to_string();
        assert!(s.contains("did not converge"), "{s}");
        assert!(s.contains("cycle 99"), "{s}");
        assert!(s.contains("3 of 7"), "{s}");
        assert!(e.source().is_none());
    }
}
