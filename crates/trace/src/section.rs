//! The section and dependence vocabulary of the execution model.
//!
//! A *section* (§4.1 of the paper) is a run of dynamically contiguous
//! instructions: it starts when a `fork` creates it and ends at the first
//! `endfork` it reaches. Sections are **totally ordered**; concatenating
//! them in that order rebuilds the sequential trace of the run, which is
//! what lets renaming match every consumer with the closest preceding
//! producer.
//!
//! These types used to live in `parsecs-core`; they moved here so that
//! the streaming trace pipeline (which produces them) sits below the
//! timing simulator (which consumes them). `parsecs-core` re-exports
//! them, so downstream paths are unchanged.

use std::fmt;

use parsecs_machine::Location;

/// Identifier of a section, equal to its position in the total order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SectionId(pub usize);

impl fmt::Display for SectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "section {}", self.0 + 1)
    }
}

/// One section: a contiguous range of the sequential trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionSpan {
    /// The section's identity and position in the total order.
    pub id: SectionId,
    /// Index (in the sequential trace) of the section's first instruction.
    pub start: usize,
    /// One past the index of the section's last instruction.
    pub end: usize,
    /// The section that forked this one, and the trace index of that fork.
    /// `None` for the initial section.
    pub creator: Option<(SectionId, usize)>,
    /// Static instruction index at which the section starts fetching.
    pub start_ip: usize,
}

impl SectionSpan {
    /// Number of dynamic instructions in the section.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the section is empty (never happens for well-formed runs,
    /// kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }
}

/// Where a source value comes from, as seen by the renaming hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// Produced by an earlier instruction of the same section: the local
    /// renaming hits and the value is read from the core's RRM/MRM.
    Local {
        /// Trace index of the producer.
        producer: usize,
    },
    /// Produced by an instruction of an earlier section hosted (in
    /// general) on another core: a renaming request travels backward along
    /// the section order and the value is exported back. The producer's
    /// section is not stored with it: read it off the arena,
    /// `arena.section(producer)`.
    Remote {
        /// Trace index of the producer.
        producer: usize,
    },
    /// Carried by the section-creation message: the stack pointer and the
    /// non-volatile registers are copied at `fork`, so the value is already
    /// in the local register file when the section starts.
    ForkCopy,
    /// A register that was never written: its (zero) value is available
    /// immediately.
    InitialRegister,
    /// A memory word never written by the program: the renaming request
    /// reaches the oldest section and is served by the loader / data memory
    /// hierarchy.
    InitialMemory,
}

/// A source operand of a dynamic instruction together with its provenance:
/// the record-level input of [`crate::TraceArena::push_record`], which
/// stores only the provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceDep {
    /// The architectural location being read.
    pub location: Location,
    /// Where its value comes from.
    pub kind: SourceKind,
}
