//! The invariant validator: pure passes over the raw arena columns.
//!
//! The passes run in dependency order — column shape first (so later
//! passes may index the fixed-width columns), then section tiling, then
//! the dependence slices and their packings (4-byte provenance words,
//! plus the packed locations on a full arena), and finally (full arenas
//! only, and only once everything structural is clean) a replay of the
//! sectioner's single-writer renaming discipline.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use parsecs_isa::Reg;
use parsecs_machine::TraceKind;
use parsecs_trace::{AddrHasher, SourceKind, TraceArena};

use crate::violation::InvariantViolation;

/// Mirrors of the arena's packed-location tags (low three bits of a
/// packed location). Pinned against [`TraceArena::push_dep`] by the
/// `packing_constants_match_the_arena` test, so an encoding change in the
/// arena fails loudly here instead of silently passing corrupt packings.
/// Provenance words need no mirror: every word decodes
/// ([`parsecs_trace::PackedDep::kind`]), so what is checked is the
/// producer it names.
pub(crate) const LOC_MEM: u64 = 0;
pub(crate) const LOC_REG: u64 = 1;
pub(crate) const LOC_FLAGS: u64 = 2;

/// Bounded violation sink: diagnostics past the cap are counted, not
/// stored, so a systematically corrupt chip-scale arena cannot make the
/// report itself unbounded.
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
/// the offset columns carry their sentinels, and that the location
/// columns (`dep_locs` and the write columns) match the arena's
/// lean-ness. Returns `false` when later passes must not index the
/// columns.
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
    let dep_locs_expected = if arena.records_locations() {
        raw.deps.len()
    } else {
        0
    };
    if raw.dep_locs.len() != dep_locs_expected {
        col.push(InvariantViolation::ColumnBroken {
            column: "dep_locs",
            index: raw.dep_locs.len(),
            detail: "expected one location per dependence on a full arena, none on a lean one",
        });
    }
    if arena.records_locations() {
        if raw.write_off.len() != n + 1 {
            col.push(InvariantViolation::ColumnBroken {
                column: "write_off",
                index: raw.write_off.len(),
                detail: "expected one offset per record plus a trailing sentinel",
            });
        } else {
            if raw.write_off[0] != 0 {
                col.push(InvariantViolation::ColumnBroken {
                    column: "write_off",
                    index: 0,
                    detail: "first offset is not zero",
                });
            }
            if raw.write_off[n] as usize != raw.writes.len() {
                col.push(InvariantViolation::ColumnBroken {
                    column: "write_off",
                    index: n,
                    detail: "trailing sentinel differs from the shared slice's length",
                });
            }
            for seq in 0..n {
                if raw.write_off[seq] > raw.write_off[seq + 1] {
                    col.push(InvariantViolation::ColumnBroken {
                        column: "write_off",
                        index: seq,
                        detail: "offsets are not monotone",
                    });
                }
            }
        }
        for (index, &w) in raw.writes.iter().enumerate() {
            if !valid_location(w) {
                col.push(InvariantViolation::ColumnBroken {
                    column: "writes",
                    index,
                    detail: "invalid packed location",
                });
            }
        }
    } else if raw.write_off != [0] || !raw.writes.is_empty() {
        col.push(InvariantViolation::ColumnBroken {
            column: "write_off",
            index: raw.writes.len(),
            detail: "lean arenas must keep the write columns empty",
        });
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

fn valid_location(packed: u64) -> bool {
    match packed & 7 {
        LOC_MEM => true,
        LOC_REG => (packed >> 3) < Reg::COUNT as u64,
        LOC_FLAGS => packed == LOC_FLAGS,
        _ => false,
    }
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

/// Checks every record's dependence slice bounds, every packing, and the
/// acyclicity topological invariant (producer strictly precedes consumer
/// in trace order). A lean arena stores no locations, so there only the
/// location-tag checks are skipped; everything about the provenance word
/// (its producer's range and section) is still checked.
pub(crate) fn deps(arena: &TraceArena, col: &mut Collector) {
    let raw = arena.raw();
    let n = arena.len();
    let full = arena.records_locations();
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
            // `column_shape` vouches for one location per dep on a full
            // arena.
            let loc = full.then(|| raw.dep_locs[start + dep]);
            let tag = loc.map(|loc| loc & 7);
            if let Some(loc) = loc {
                let reg_class = dep < reg;
                let loc_detail = match loc & 7 {
                    LOC_MEM if reg_class => Some("memory location in the register-class slice"),
                    LOC_REG | LOC_FLAGS if !reg_class => {
                        Some("register-class location in the memory slice")
                    }
                    LOC_REG if (loc >> 3) >= Reg::COUNT as u64 => {
                        Some("register index out of range")
                    }
                    LOC_FLAGS if loc != LOC_FLAGS => Some("flags location carries stray bits"),
                    LOC_MEM | LOC_REG | LOC_FLAGS => None,
                    _ => Some("invalid location tag"),
                };
                if let Some(detail) = loc_detail {
                    col.push(InvariantViolation::DepPackingBroken { seq, dep, detail });
                }
            }
            let kind = packed.kind();
            match kind {
                SourceKind::Local { producer } | SourceKind::Remote { producer } => {
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
                SourceKind::ForkCopy if tag.is_some_and(|tag| tag != LOC_REG) => {
                    col.push(InvariantViolation::DepPackingBroken {
                        seq,
                        dep,
                        detail: "fork-copy provenance on a non-register location",
                    });
                }
                SourceKind::InitialRegister if tag == Some(LOC_MEM) => {
                    col.push(InvariantViolation::DepPackingBroken {
                        seq,
                        dep,
                        detail: "initial-register provenance on a memory location",
                    });
                }
                SourceKind::InitialMemory if tag.is_some_and(|tag| tag != LOC_MEM) => {
                    col.push(InvariantViolation::DepPackingBroken {
                        seq,
                        dep,
                        detail: "initial-memory provenance on a register-class location",
                    });
                }
                SourceKind::ForkCopy | SourceKind::InitialRegister | SourceKind::InitialMemory => {}
            }
        }
    }
}

/// `(producer trace index, producer section)`; `u32::MAX` marks an
/// unwritten location — the sectioner's own convention.
const NO_WRITER: (u32, u32) = (u32::MAX, u32::MAX);
const FLAGS_SLOT: usize = Reg::COUNT;

/// Replays the sectioner's renaming (`StreamingSectioner::resolve`)
/// against the recorded writes and checks every dependence names exactly
/// the producer — and carries exactly the provenance — the replay
/// derives. Requires a full arena (lean arenas drop the write columns)
/// and structurally clean columns; the caller gates on both.
pub(crate) fn writer_discipline(arena: &TraceArena, col: &mut Collector) {
    let raw = arena.raw();
    let n = arena.len();
    let spans = arena.sections();
    let mut reg_writer = [NO_WRITER; Reg::COUNT + 1];
    let mut mem_writer: HashMap<u64, (u32, u32), BuildHasherDefault<AddrHasher>> =
        HashMap::default();
    for seq in 0..n {
        let current = raw.section[seq];
        let has_creator = spans[current as usize].creator.is_some();
        let deps = raw.dep_off[seq] as usize..raw.dep_off[seq + 1] as usize;
        for (dep, (packed, &loc)) in raw.deps[deps.clone()]
            .iter()
            .zip(&raw.dep_locs[deps])
            .enumerate()
        {
            let tag = loc & 7;
            let writer = match tag {
                LOC_REG => reg_writer[(loc >> 3) as usize],
                LOC_FLAGS => reg_writer[FLAGS_SLOT],
                _ => mem_writer.get(&loc).copied().unwrap_or(NO_WRITER),
            };
            let expected = if writer == NO_WRITER {
                if tag == LOC_MEM {
                    SourceKind::InitialMemory
                } else {
                    SourceKind::InitialRegister
                }
            } else if writer.1 == current {
                SourceKind::Local {
                    producer: writer.0 as usize,
                }
            } else {
                let copied = tag == LOC_REG && Reg::ALL[(loc >> 3) as usize].is_fork_copied();
                if copied && has_creator {
                    SourceKind::ForkCopy
                } else {
                    SourceKind::Remote {
                        producer: writer.0 as usize,
                    }
                }
            };
            let kind = packed.kind();
            if kind != expected {
                let claimed = match kind {
                    SourceKind::Local { producer } | SourceKind::Remote { producer } => {
                        Some(producer)
                    }
                    _ => None,
                };
                col.push(InvariantViolation::WriterDiscipline {
                    seq,
                    dep,
                    claimed,
                    actual: (writer != NO_WRITER).then_some(writer.0 as usize),
                });
            }
        }
        let writes = &raw.writes[raw.write_off[seq] as usize..raw.write_off[seq + 1] as usize];
        for &w in writes {
            let writer = (seq as u32, current);
            match w & 7 {
                LOC_REG => reg_writer[(w >> 3) as usize] = writer,
                LOC_FLAGS => reg_writer[FLAGS_SLOT] = writer,
                _ => {
                    mem_writer.insert(w, writer);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use parsecs_machine::Location;
    use parsecs_trace::PackedDep;

    use super::*;

    /// Pins the mirrored tag constants to the arena's actual encoding.
    #[test]
    fn packing_constants_match_the_arena() {
        let cases = [
            (Location::Mem(0x40), 0x40 | LOC_MEM),
            (
                Location::Reg(Reg::Rbx),
                ((Reg::Rbx.index() as u64) << 3) | LOC_REG,
            ),
            (Location::Flags, LOC_FLAGS),
        ];
        for (location, packed) in cases {
            let mut arena = TraceArena::new();
            arena.push_dep(PackedDep::new(SourceKind::InitialRegister), location);
            assert_eq!(arena.raw().dep_locs, &[packed][..], "{location:?}");
        }
    }
}
