//! The dynamic instruction stream.
//!
//! Each executed instruction, with the architectural locations it read
//! and wrote, is streamed to a [`TraceSink`]. The stream feeds the ILP
//! limit analysis (`parsecs-ilp`), which reimplements the methodology
//! behind Figure 7 of the paper, and the section splitter used by the
//! many-core model (`parsecs-trace`).

use std::fmt;

use parsecs_isa::Reg;

/// An architectural location that can carry a dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Location {
    /// A general purpose register.
    Reg(Reg),
    /// The arithmetic flags, treated as a single renamable location.
    Flags,
    /// A 64-bit data-memory word at an absolute address.
    Mem(u64),
}

impl Location {
    /// Whether the location is the stack pointer register.
    pub fn is_stack_pointer(&self) -> bool {
        matches!(self, Location::Reg(Reg::Rsp))
    }

    /// Whether the location is a memory word.
    pub fn is_mem(&self) -> bool {
        matches!(self, Location::Mem(_))
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Reg(r) => write!(f, "{r}"),
            Location::Flags => write!(f, "flags"),
            Location::Mem(a) => write!(f, "[{a:#x}]"),
        }
    }
}

/// Coarse classification of a dynamic instruction, used by the section
/// splitter and the statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// Any instruction that is not one of the kinds below.
    Other,
    /// A `call`.
    Call,
    /// A `ret`.
    Ret,
    /// A `fork` (section creation).
    Fork,
    /// An `endfork` (section termination).
    EndFork,
    /// A `halt`.
    Halt,
}

/// One executed instruction as streamed to a [`TraceSink`], borrowing the
/// machine's scratch buffers instead of owning per-instruction
/// allocations.
///
/// A step is only valid for the duration of the [`TraceSink::record`]
/// call; a sink that needs to keep the data copies what it needs.
#[derive(Debug, Clone, Copy)]
pub struct TraceStep<'a> {
    /// Position in the dynamic trace (0-based).
    pub seq: u64,
    /// Static instruction index.
    pub ip: usize,
    /// Mnemonic, for display and debugging.
    pub mnemonic: &'static str,
    /// Locations read by the instruction, sorted and deduplicated
    /// (registers, then flags, then memory words — the [`Location`]
    /// order).
    pub reads: &'a [Location],
    /// Locations written by the instruction, sorted and deduplicated.
    pub writes: &'a [Location],
    /// Whether the instruction changes control flow.
    pub is_control: bool,
    /// Whether the instruction is stack-pointer bookkeeping.
    pub updates_stack_pointer: bool,
    /// Classification.
    pub kind: TraceKind,
    /// The value emitted by an `out` instruction, if any.
    pub out_value: Option<u64>,
}

/// A consumer of the dynamic instruction stream.
///
/// [`crate::Machine::run_with_sink`] pushes every retired instruction
/// into a sink as it executes. The dynamic trace is never materialised:
/// each consumer (the streaming sectioner of `parsecs-trace`, the ILP
/// scheduler of `parsecs-ilp`) keeps only what it needs, so no
/// per-instruction `Vec`s and no event vector growing to millions of
/// entries are ever built.
pub trait TraceSink {
    /// Consumes one retired instruction.
    fn record(&mut self, step: &TraceStep<'_>);

    /// Whether the sink still wants instructions. When a sink reports
    /// `false` (e.g. it hit a capacity limit and would only discard
    /// further steps), [`crate::Machine::run_with_sink`] stops the run at
    /// that point and returns the outcome so far instead of executing the
    /// rest of the program into a discarding sink. Defaults to `true`.
    fn wants_more(&self) -> bool {
        true
    }
}

/// Mutable references forward, so sinks can be passed down call chains
/// without re-wrapping.
impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    fn record(&mut self, step: &TraceStep<'_>) {
        (**self).record(step);
    }

    fn wants_more(&self) -> bool {
        (**self).wants_more()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn location_classification() {
        assert!(Location::Reg(Reg::Rsp).is_stack_pointer());
        assert!(!Location::Reg(Reg::Rax).is_stack_pointer());
        assert!(Location::Mem(8).is_mem());
        assert!(!Location::Flags.is_mem());
        assert_eq!(Location::Mem(16).to_string(), "[0x10]");
        assert_eq!(Location::Reg(Reg::Rax).to_string(), "%rax");
    }
}
