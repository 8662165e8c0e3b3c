//! Typed diagnostics for broken arena invariants.

use std::fmt;

/// One violated structural invariant, with the arena indices needed to
/// locate it. Every variant's `Display` leads with the indices in the
/// same `record {seq}` / `section {id}` / `dep {j}` vocabulary, so a
/// report composes into uniform diagnostics regardless of which pass
/// found the problem.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum InvariantViolation {
    /// The section spans do not tile the record range `[0, n)` in total
    /// order: a span starts somewhere other than where the previous one
    /// ended, is inverted, overruns the trace, or its stored id differs
    /// from its position.
    SectionSpanBroken {
        /// Position of the offending span in the section list.
        section: usize,
        /// Where the span had to start for the tiling to hold.
        expected_start: usize,
        /// The span's recorded start.
        start: usize,
        /// The span's recorded end.
        end: usize,
    },
    /// A record's section column disagrees with the span that contains
    /// its trace position.
    SectionColumnMismatch {
        /// The record's trace index.
        seq: usize,
        /// What the section column says.
        recorded: usize,
        /// The section whose span contains `seq`.
        containing: usize,
    },
    /// A section's creator link is malformed: the fork lies at or after
    /// the section start, names the wrong section, or is not a fork.
    CreatorBroken {
        /// The created section.
        section: usize,
        /// The creator section the link claims.
        creator_section: usize,
        /// The fork's claimed trace index.
        fork_seq: usize,
    },
    /// A fixed-width column desynchronised from the record count (an
    /// unclosed `begin_record`, a missing sentinel, a dangling mnemonic
    /// id, …).
    ColumnBroken {
        /// Which column.
        column: &'static str,
        /// The index (record, offset or length) at which it breaks.
        index: usize,
        /// What about it is broken.
        detail: &'static str,
    },
    /// A record's dependence slice `[start, end)` is inverted, overruns
    /// the shared dependence column, or claims more register-class
    /// sources than it holds entries.
    DepSliceBroken {
        /// The record's trace index.
        seq: usize,
        /// The slice's start offset.
        start: usize,
        /// The slice's end offset.
        end: usize,
        /// The claimed register-class prefix length.
        reg: usize,
        /// The shared dependence column's length.
        limit: usize,
    },
    /// A packed dependence decodes inconsistently. The arena validator
    /// reports a producer index out of range or in the wrong section for
    /// its local/remote tag; the location check ([`crate::LocationCheck`])
    /// reports a provenance that does not fit the class of the location
    /// it reads, and a record whose dependence count or register-class
    /// prefix differs from its step's reads.
    DepPackingBroken {
        /// The consumer's trace index.
        seq: usize,
        /// Position of the dependence within the consumer's slice.
        dep: usize,
        /// What about the packing is broken.
        detail: &'static str,
    },
    /// A producer at or after its consumer: the trace order must be a
    /// topological order of the dependence DAG, so every producer index
    /// strictly precedes its consumer.
    DependenceCycle {
        /// The consumer's trace index.
        seq: usize,
        /// Position of the dependence within the consumer's slice.
        dep: usize,
        /// The claimed producer's trace index.
        producer: usize,
    },
    /// The single-writer renaming discipline is broken: the dependence
    /// does not name the closest preceding writer of its location (or
    /// mis-tags the provenance the sectioner would have assigned). Found
    /// by the location check ([`crate::LocationCheck`]), which sees the
    /// locations the arena does not store.
    WriterDiscipline {
        /// The consumer's trace index.
        seq: usize,
        /// Position of the dependence within the consumer's slice.
        dep: usize,
        /// The producer the dependence claims (`None` for initial /
        /// fork-copy provenance).
        claimed: Option<usize>,
        /// The closest preceding writer the replay found (`None` if the
        /// location was never written).
        actual: Option<usize>,
    },
}

fn opt(seq: Option<usize>) -> String {
    match seq {
        Some(seq) => format!("record {seq}"),
        None => "no writer".to_string(),
    }
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::SectionSpanBroken {
                section,
                expected_start,
                start,
                end,
            } => write!(
                f,
                "section {section}: span [{start}, {end}) does not tile the trace \
                 (expected to start at record {expected_start})"
            ),
            InvariantViolation::SectionColumnMismatch {
                seq,
                recorded,
                containing,
            } => write!(
                f,
                "record {seq}: section column says {recorded} but the span tiling \
                 places it in section {containing}"
            ),
            InvariantViolation::CreatorBroken {
                section,
                creator_section,
                fork_seq,
            } => write!(
                f,
                "section {section}: creator link (section {creator_section}, \
                 fork at record {fork_seq}) is malformed"
            ),
            InvariantViolation::ColumnBroken {
                column,
                index,
                detail,
            } => write!(f, "column {column} at index {index}: {detail}"),
            InvariantViolation::DepSliceBroken {
                seq,
                start,
                end,
                reg,
                limit,
            } => write!(
                f,
                "record {seq}: dep slice [{start}, {end}) with {reg} register-class \
                 sources does not fit the shared column of length {limit}"
            ),
            InvariantViolation::DepPackingBroken { seq, dep, detail } => {
                write!(f, "record {seq} dep {dep}: {detail}")
            }
            InvariantViolation::DependenceCycle { seq, dep, producer } => write!(
                f,
                "record {seq} dep {dep}: producer {producer} does not strictly \
                 precede its consumer (trace order must be topological)"
            ),
            InvariantViolation::WriterDiscipline {
                seq,
                dep,
                claimed,
                actual,
            } => write!(
                f,
                "record {seq} dep {dep}: claims {} but the closest preceding \
                 writer is {}",
                opt(*claimed),
                opt(*actual)
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_lead_with_arena_indices() {
        let cases: Vec<(InvariantViolation, &str)> = vec![
            (
                InvariantViolation::SectionSpanBroken {
                    section: 3,
                    expected_start: 10,
                    start: 12,
                    end: 9,
                },
                "section 3",
            ),
            (
                InvariantViolation::SectionColumnMismatch {
                    seq: 7,
                    recorded: 1,
                    containing: 2,
                },
                "record 7",
            ),
            (
                InvariantViolation::CreatorBroken {
                    section: 2,
                    creator_section: 5,
                    fork_seq: 40,
                },
                "section 2",
            ),
            (
                InvariantViolation::ColumnBroken {
                    column: "dep_off",
                    index: 4,
                    detail: "missing trailing sentinel",
                },
                "column dep_off",
            ),
            (
                InvariantViolation::DepSliceBroken {
                    seq: 9,
                    start: 30,
                    end: 28,
                    reg: 1,
                    limit: 64,
                },
                "record 9",
            ),
            (
                InvariantViolation::DepPackingBroken {
                    seq: 5,
                    dep: 1,
                    detail: "producer index out of range",
                },
                "record 5 dep 1",
            ),
            (
                InvariantViolation::DependenceCycle {
                    seq: 6,
                    dep: 0,
                    producer: 6,
                },
                "record 6 dep 0",
            ),
            (
                InvariantViolation::WriterDiscipline {
                    seq: 8,
                    dep: 2,
                    claimed: Some(1),
                    actual: Some(4),
                },
                "record 8 dep 2",
            ),
        ];
        for (violation, prefix) in cases {
            let text = violation.to_string();
            assert!(
                text.starts_with(prefix),
                "{text:?} does not lead with {prefix:?}"
            );
        }
    }
}
