//! The invariant validator: pure passes over the raw arena columns.
//!
//! The passes run in dependency order — column shape first (so later
//! passes may index the fixed-width columns), then section tiling, then
//! the dependence slices and the producer each 4-byte provenance word
//! names. The arena stores no location, so the single-writer renaming
//! discipline is not replayed here: [`crate::LocationCheck`] checks it
//! while the trace streams.

use parsecs_machine::TraceKind;
use parsecs_trace::{SourceKind, TraceArena};

use crate::violation::InvariantViolation;

/// Bounded violation sink: diagnostics past the cap are counted, not
/// stored, so a systematically corrupt chip-scale arena cannot make the
/// report itself unbounded.
#[derive(Debug)]
pub(crate) struct Collector {
    pub(crate) out: Vec<InvariantViolation>,
    pub(crate) truncated: bool,
    cap: usize,
}

impl Collector {
    pub(crate) fn new(cap: usize) -> Collector {
        Collector {
            out: Vec::new(),
            truncated: false,
            cap,
        }
    }

    pub(crate) fn push(&mut self, violation: InvariantViolation) {
        if self.out.len() < self.cap {
            self.out.push(violation);
        } else {
            self.truncated = true;
        }
    }
}

/// Checks that every fixed-width column has one entry per record, that
/// the offset column carries its sentinels and that every mnemonic id
/// names a table entry. Returns `false` when later passes must not index
/// the columns.
pub(crate) fn column_shape(arena: &TraceArena, col: &mut Collector) -> bool {
    let raw = arena.raw();
    let n = raw.ip.len();
    let before = col.out.len();
    let per_record: [(&'static str, usize); 4] = [
        ("mnemonic_id", raw.mnemonic_id.len()),
        ("section", raw.section.len()),
        ("kind_flags", raw.kind_flags.len()),
        ("reg_deps", raw.reg_deps.len()),
    ];
    for (column, len) in per_record {
        if len != n {
            col.push(InvariantViolation::ColumnBroken {
                column,
                index: len,
                detail: "length differs from the record count",
            });
        }
    }
    if raw.dep_off.len() != n + 1 {
        col.push(InvariantViolation::ColumnBroken {
            column: "dep_off",
            index: raw.dep_off.len(),
            detail: "expected one offset per record plus a trailing sentinel",
        });
    } else {
        if raw.dep_off[0] != 0 {
            col.push(InvariantViolation::ColumnBroken {
                column: "dep_off",
                index: 0,
                detail: "first offset is not zero",
            });
        }
        if raw.dep_off[n] as usize != raw.deps.len() {
            col.push(InvariantViolation::ColumnBroken {
                column: "dep_off",
                index: n,
                detail: "trailing sentinel differs from the shared slice's length",
            });
        }
    }
    for (seq, &id) in raw.mnemonic_id.iter().enumerate() {
        if id as usize >= raw.mnemonics.len() {
            col.push(InvariantViolation::ColumnBroken {
                column: "mnemonic_id",
                index: seq,
                detail: "id points past the mnemonic table",
            });
        }
    }
    col.out.len() == before && !col.truncated
}

/// Checks that the section spans tile `[0, n)` in total order, that the
/// per-record section column agrees with the tiling, and that every
/// creator link names a fork in an earlier section.
pub(crate) fn sections(arena: &TraceArena, col: &mut Collector) {
    let raw = arena.raw();
    let n = arena.len();
    let spans = arena.sections();
    let mut expected = 0usize;
    for (i, span) in spans.iter().enumerate() {
        let well_formed =
            span.id.0 == i && span.start == expected && span.end >= span.start && span.end <= n;
        if !well_formed {
            col.push(InvariantViolation::SectionSpanBroken {
                section: i,
                expected_start: expected,
                start: span.start,
                end: span.end,
            });
        }
        // Resynchronise so one bad span yields one diagnostic, not a
        // cascade over every span after it.
        expected = span.end.clamp(expected, n);
        if well_formed {
            for seq in span.start..span.end {
                let recorded = raw.section[seq] as usize;
                if recorded != i {
                    col.push(InvariantViolation::SectionColumnMismatch {
                        seq,
                        recorded,
                        containing: i,
                    });
                }
            }
        }
        if let Some((creator, fork_seq)) = span.creator {
            let linked = creator.0 < i
                && fork_seq < span.start
                && fork_seq < n
                && raw.section[fork_seq] as usize == creator.0
                && arena.kind(fork_seq) == TraceKind::Fork;
            if !linked {
                col.push(InvariantViolation::CreatorBroken {
                    section: i,
                    creator_section: creator.0,
                    fork_seq,
                });
            }
        }
    }
    if expected != n {
        // Trailing records no span covers (or, if the spans overran, the
        // loop above already reported them; `clamp` keeps `expected ≤ n`).
        col.push(InvariantViolation::SectionSpanBroken {
            section: spans.len(),
            expected_start: expected,
            start: n,
            end: n,
        });
    }
}

/// Checks every record's dependence slice bounds, the producer each
/// provenance word names (in range, and in the consumer's section exactly
/// when the word is local), and the acyclicity topological invariant
/// (producer strictly precedes consumer in trace order).
pub(crate) fn deps(arena: &TraceArena, col: &mut Collector) {
    let raw = arena.raw();
    let n = arena.len();
    for seq in 0..n {
        let start = raw.dep_off[seq] as usize;
        let end = raw.dep_off[seq + 1] as usize;
        let reg = raw.reg_deps[seq] as usize;
        if start > end || end > raw.deps.len() || reg > end - start {
            col.push(InvariantViolation::DepSliceBroken {
                seq,
                start,
                end,
                reg,
                limit: raw.deps.len(),
            });
            continue;
        }
        for (dep, packed) in raw.deps[start..end].iter().enumerate() {
            let kind = packed.kind();
            let (SourceKind::Local { producer } | SourceKind::Remote { producer }) = kind else {
                continue;
            };
            if producer >= n {
                col.push(InvariantViolation::DepPackingBroken {
                    seq,
                    dep,
                    detail: "producer index out of range",
                });
                continue;
            }
            if producer >= seq {
                col.push(InvariantViolation::DependenceCycle { seq, dep, producer });
                continue;
            }
            let same_section = raw.section[producer] == raw.section[seq];
            let remote = matches!(kind, SourceKind::Remote { .. });
            if !remote && !same_section {
                col.push(InvariantViolation::DepPackingBroken {
                    seq,
                    dep,
                    detail: "local producer in a different section",
                });
            }
            if remote && same_section {
                col.push(InvariantViolation::DepPackingBroken {
                    seq,
                    dep,
                    detail: "remote producer in the consumer's own section",
                });
            }
        }
    }
}
