//! The location check: the sectioner's renaming, replayed while the
//! trace streams.
//!
//! The arena stores no architectural location, so the single-writer
//! renaming discipline cannot be replayed from it afterwards. Instead a
//! [`LocationCheck`] sits beside the [`StreamingSectioner`] as the
//! machine's sink: after each step the sectioner records, it replays the
//! step's reads against its own last-writer table and compares the
//! dependences the sectioner just appended. It also compares the step
//! with the arena's [`InsnEntry`] for its static instruction, which the
//! sectioner set from that instruction's first step only: the kind, the
//! control, load and store flags, the register-class read count and the
//! mnemonic. It shares no renaming code with the sectioner, the same
//! discipline as the workspace's timing oracle.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use parsecs_isa::{Program, Reg};
use parsecs_machine::{Location, Machine, TraceKind, TraceSink, TraceStep};
use parsecs_trace::{
    AddrHasher, InsnEntry, PackedDep, SourceKind, StreamingSectioner, TraceArena, TraceError,
};

use crate::validate::Collector;
use crate::violation::InvariantViolation;
use crate::{CheckReport, MAX_VIOLATIONS};

/// `(writer trace index, writer section)`; `u32::MAX` marks an
/// unwritten location.
const NO_WRITER: (u32, u32) = (u32::MAX, u32::MAX);
const FLAGS_SLOT: usize = Reg::COUNT;

/// A [`TraceSink`] that wraps a [`StreamingSectioner`] and checks every
/// dependence it resolves against a replay of the renaming over the real
/// read and written locations (see the module docs). Build a validated
/// run's arena through [`LocationCheck::from_program`].
#[derive(Debug)]
pub struct LocationCheck {
    sectioner: StreamingSectioner,
    replay: Replay,
}

/// The replay's state: its own last-writer table and section count.
#[derive(Debug)]
struct Replay {
    /// Last writer of each register-class slot: the sixteen registers,
    /// then the flags.
    reg_writer: [(u32, u32); Reg::COUNT + 1],
    /// Last writer of each data-memory word.
    mem_writer: HashMap<u64, (u32, u32), BuildHasherDefault<AddrHasher>>,
    /// Trace index of the next record.
    seq: usize,
    /// Section of the next record.
    section: u32,
    /// Whether a fork created that section: only a created section
    /// receives fork-copied registers.
    created: bool,
    /// Forks whose created section has not started yet.
    pending_forks: usize,
    col: Collector,
}

impl LocationCheck {
    /// A check over `sectioner`, which builds the arena.
    pub fn new(sectioner: StreamingSectioner) -> LocationCheck {
        LocationCheck {
            sectioner,
            replay: Replay {
                reg_writer: [NO_WRITER; Reg::COUNT + 1],
                mem_writer: HashMap::default(),
                seq: 0,
                section: 0,
                created: false,
                pending_forks: 0,
                col: Collector::new(MAX_VIOLATIONS),
            },
        }
    }

    /// [`parsecs_trace::TraceArena::from_program`] through a location
    /// check: the arena is the same, and the report lists every
    /// dependence the replay disagrees with.
    ///
    /// # Errors
    ///
    /// The errors of [`parsecs_trace::TraceArena::from_program`].
    pub fn from_program(
        program: &Program,
        fuel: u64,
    ) -> Result<(TraceArena, CheckReport), TraceError> {
        let mut machine = Machine::load(program)?;
        let mut sink = LocationCheck::new(StreamingSectioner::reserved(program, fuel));
        let outcome = machine.run_with_sink(fuel, &mut sink)?;
        sink.finish(outcome.outputs)
    }

    /// Checks what is recorded for the next record, `step`: its
    /// dependences `deps`, in the order of `step.reads`, and the `entry`
    /// of its static instruction, whose mnemonic id names `mnemonic`.
    /// [`TraceSink::record`] calls it with what the sectioner just
    /// appended; corpora call it with doctored dependences and entries.
    pub fn check(
        &mut self,
        step: &TraceStep<'_>,
        deps: &[PackedDep],
        entry: InsnEntry,
        mnemonic: &str,
    ) {
        self.replay.check(step, deps, entry, mnemonic);
    }

    /// Finishes the sectioner's arena and returns it with the check's
    /// report (bounds, progress and schedule left `None`: those passes
    /// need the finished arena and a chip).
    ///
    /// # Errors
    ///
    /// The errors of [`StreamingSectioner::finish`].
    pub fn finish(self, outputs: Vec<u64>) -> Result<(TraceArena, CheckReport), TraceError> {
        let arena = self.sectioner.finish(outputs)?;
        let col = self.replay.col;
        let report = CheckReport {
            violations: col.out,
            truncated: col.truncated,
            bounds: None,
            progress: None,
            schedule: None,
            instructions: arena.len(),
            sections: arena.sections().len(),
        };
        Ok((arena, report))
    }
}

impl TraceSink for LocationCheck {
    fn record(&mut self, step: &TraceStep<'_>) {
        let seq = self.sectioner.arena().len();
        self.sectioner.record(step);
        let arena = self.sectioner.arena();
        // A step past the halt, or past a capacity error, is not
        // recorded, so there is nothing to check.
        if arena.len() > seq {
            let entry = arena.raw().insns[step.ip];
            self.replay
                .check(step, arena.sources(seq), entry, arena.mnemonic(seq));
        }
    }

    fn wants_more(&self) -> bool {
        self.sectioner.wants_more()
    }
}

impl Replay {
    fn violation(&mut self, dep: usize, detail: &'static str) {
        self.col.push(InvariantViolation::DepPackingBroken {
            seq: self.seq,
            dep,
            detail,
        });
    }

    fn check(
        &mut self,
        step: &TraceStep<'_>,
        deps: &[PackedDep],
        entry: InsnEntry,
        mnemonic: &str,
    ) {
        let seq = self.seq;
        if deps.len() != step.reads.len() {
            self.violation(
                deps.len().min(step.reads.len()),
                "dependence count differs from the step's reads",
            );
        }
        if entry.reg_deps() != step.reads.iter().filter(|l| !l.is_mem()).count() {
            self.violation(
                entry.reg_deps(),
                "register-class prefix differs from the step's reads",
            );
        }
        let static_facts = [
            (
                entry.kind() == step.kind,
                "kind differs from a step of the instruction",
            ),
            (
                entry.is_control() == step.is_control,
                "control flag differs from a step of the instruction",
            ),
            (
                entry.is_load() == step.reads.iter().any(Location::is_mem),
                "load flag differs from a step of the instruction",
            ),
            (
                entry.is_store() == step.writes.iter().any(Location::is_mem),
                "store flag differs from a step of the instruction",
            ),
            (
                mnemonic == step.mnemonic,
                "mnemonic differs from a step of the instruction",
            ),
        ];
        for (agrees, detail) in static_facts {
            if !agrees {
                self.col.push(InvariantViolation::ColumnBroken {
                    column: "insns",
                    index: step.ip,
                    detail,
                });
            }
        }
        for (dep, (packed, &loc)) in deps.iter().zip(step.reads).enumerate() {
            let kind = packed.kind();
            let class = match kind {
                SourceKind::ForkCopy if !matches!(loc, Location::Reg(_)) => {
                    Some("fork-copy provenance on a non-register location")
                }
                SourceKind::InitialRegister if loc.is_mem() => {
                    Some("initial-register provenance on a memory location")
                }
                SourceKind::InitialMemory if !loc.is_mem() => {
                    Some("initial-memory provenance on a register-class location")
                }
                _ => None,
            };
            if let Some(detail) = class {
                self.violation(dep, detail);
                continue;
            }
            let writer = match loc {
                Location::Reg(r) => self.reg_writer[r.index()],
                Location::Flags => self.reg_writer[FLAGS_SLOT],
                Location::Mem(addr) => self.mem_writer.get(&addr).copied().unwrap_or(NO_WRITER),
            };
            let expected = if writer == NO_WRITER {
                if loc.is_mem() {
                    SourceKind::InitialMemory
                } else {
                    SourceKind::InitialRegister
                }
            } else if writer.1 == self.section {
                SourceKind::Local {
                    producer: writer.0 as usize,
                }
            } else if self.created && matches!(loc, Location::Reg(r) if r.is_fork_copied()) {
                SourceKind::ForkCopy
            } else {
                SourceKind::Remote {
                    producer: writer.0 as usize,
                }
            };
            if kind != expected {
                let claimed = match kind {
                    SourceKind::Local { producer } | SourceKind::Remote { producer } => {
                        Some(producer)
                    }
                    _ => None,
                };
                self.col.push(InvariantViolation::WriterDiscipline {
                    seq,
                    dep,
                    claimed,
                    actual: (writer != NO_WRITER).then_some(writer.0 as usize),
                });
            }
        }
        let writer = (seq as u32, self.section);
        for &loc in step.writes {
            match loc {
                Location::Reg(r) => self.reg_writer[r.index()] = writer,
                Location::Flags => self.reg_writer[FLAGS_SLOT] = writer,
                Location::Mem(addr) => {
                    self.mem_writer.insert(addr, writer);
                }
            }
        }
        // Sections end at an `endfork` or the halt; the next one was
        // created by the latest fork whose section has not started.
        match step.kind {
            TraceKind::Fork => self.pending_forks += 1,
            TraceKind::EndFork | TraceKind::Halt => {
                self.section += 1;
                self.created = step.kind == TraceKind::EndFork && self.pending_forks > 0;
                if self.created {
                    self.pending_forks -= 1;
                }
            }
            _ => {}
        }
        self.seq += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RAX: Location = Location::Reg(Reg::Rax);
    const RSP: Location = Location::Reg(Reg::Rsp);
    const WORD: Location = Location::Mem(0x40);

    fn step<'a>(kind: TraceKind, reads: &'a [Location], writes: &'a [Location]) -> TraceStep<'a> {
        TraceStep {
            seq: 0,
            ip: 0,
            mnemonic: "movq",
            reads,
            writes,
            is_control: false,
            updates_stack_pointer: false,
            kind,
            out_value: None,
        }
    }

    fn dep(kind: SourceKind) -> PackedDep {
        PackedDep::new(kind)
    }

    /// The entry of `step`'s instruction, claiming `reg_deps`
    /// register-class reads.
    fn entry_with(step: &TraceStep<'_>, reg_deps: usize) -> InsnEntry {
        let e = InsnEntry::of_step(step, 0);
        InsnEntry::new(
            0,
            e.kind(),
            e.is_control(),
            e.is_load(),
            e.is_store(),
            reg_deps,
        )
    }

    /// The check's violations on a doctored stream of `(step, deps)`,
    /// each record's entry taken from its step.
    fn violations(stream: &[(TraceStep<'_>, Vec<PackedDep>)]) -> Vec<InvariantViolation> {
        let mut check = LocationCheck::new(StreamingSectioner::new());
        for (step, deps) in stream {
            check.check(step, deps, InsnEntry::of_step(step, 0), step.mnemonic);
        }
        check.finish(vec![]).expect("fits").1.violations
    }

    fn packing(seq: usize, dep: usize, detail: &'static str) -> InvariantViolation {
        InvariantViolation::DepPackingBroken { seq, dep, detail }
    }

    #[test]
    fn the_checked_arena_is_the_sectioners_and_clean() {
        let program = parsecs_asm::assemble(
            "t:    .quad 4, 2
             main: movq $t, %rdi
                   subq $8, %rsp
                   movq $1, (%rsp)
                   fork leaf
                   addq (%rsp), %rax
                   out  %rax
                   halt
             leaf: movq (%rdi), %rax
                   addq 8(%rdi), %rax
                   movq %rsp, %rbx
                   endfork",
        )
        .expect("assembles");
        let (arena, report) = LocationCheck::from_program(&program, 1_000).expect("runs");
        assert!(report.is_clean(), "{report}");
        assert_eq!(
            arena,
            TraceArena::from_program(&program, 1_000).expect("runs")
        );
        assert_eq!(
            (report.instructions, report.sections),
            (arena.len(), arena.sections().len())
        );
        // The leaf runs in main's section (records 4–7); the continuation
        // the fork created reads the leaf's %rax as a remote dependence,
        // %rsp as a fork copy and the stack word main wrote as a remote
        // dependence.
        assert_eq!(arena.section_sizes(), [8, 3]);
        assert_eq!(
            arena.reg_sources(8),
            &[
                dep(SourceKind::Remote { producer: 5 }),
                dep(SourceKind::ForkCopy)
            ]
        );
        assert_eq!(
            arena.mem_sources(8),
            &[dep(SourceKind::Remote { producer: 2 })]
        );
    }

    #[test]
    fn provenances_must_fit_their_location_class() {
        let flags = [Location::Flags];
        let stream = [
            (
                step(TraceKind::Other, &flags, &[]),
                vec![dep(SourceKind::ForkCopy)],
            ),
            (
                step(TraceKind::Other, &[WORD], &[]),
                vec![dep(SourceKind::InitialRegister)],
            ),
            (
                step(TraceKind::Other, &[RAX], &[]),
                vec![dep(SourceKind::InitialMemory)],
            ),
        ];
        assert_eq!(
            violations(&stream),
            [
                packing(0, 0, "fork-copy provenance on a non-register location"),
                packing(1, 0, "initial-register provenance on a memory location"),
                packing(
                    2,
                    0,
                    "initial-memory provenance on a register-class location"
                ),
            ]
        );
    }

    #[test]
    fn every_read_needs_one_dependence_in_its_class() {
        let initial = dep(SourceKind::InitialRegister);
        let mut check = LocationCheck::new(StreamingSectioner::new());
        let two_regs = step(TraceKind::Other, &[RAX, RSP], &[]);
        check.check(&two_regs, &[initial], entry_with(&two_regs, 2), "movq");
        let reg_and_word = step(TraceKind::Other, &[RAX, WORD], &[]);
        check.check(
            &reg_and_word,
            &[initial, dep(SourceKind::InitialMemory)],
            entry_with(&reg_and_word, 2),
            "movq",
        );
        assert_eq!(
            check.finish(vec![]).expect("fits").1.violations,
            [
                packing(0, 1, "dependence count differs from the step's reads"),
                packing(1, 2, "register-class prefix differs from the step's reads"),
            ]
        );
    }

    /// The sectioner sets an instruction's entry from its first step
    /// only; every step of it must then agree with the entry's kind,
    /// flags and mnemonic.
    #[test]
    fn every_step_must_agree_with_its_instructions_entry() {
        let load = step(TraceKind::Other, &[RAX, WORD], &[]);
        let entry = InsnEntry::of_step(&load, 0);
        let with = |kind, control, is_load, is_store| {
            InsnEntry::new(0, kind, control, is_load, is_store, 1)
        };
        let initial = [
            dep(SourceKind::InitialRegister),
            dep(SourceKind::InitialMemory),
        ];
        let mut check = LocationCheck::new(StreamingSectioner::new());
        for (entry, mnemonic) in [
            (entry, "movq"),
            (with(TraceKind::Call, false, true, false), "movq"),
            (with(TraceKind::Other, true, true, false), "movq"),
            (with(TraceKind::Other, false, false, false), "movq"),
            (with(TraceKind::Other, false, true, true), "movq"),
            (entry, "addq"),
        ] {
            check.check(&load, &initial, entry, mnemonic);
        }
        let column = |detail| InvariantViolation::ColumnBroken {
            column: "insns",
            index: 0,
            detail,
        };
        assert_eq!(
            check.finish(vec![]).expect("fits").1.violations,
            [
                column("kind differs from a step of the instruction"),
                column("control flag differs from a step of the instruction"),
                column("load flag differs from a step of the instruction"),
                column("store flag differs from a step of the instruction"),
                column("mnemonic differs from a step of the instruction"),
            ]
        );
    }

    /// Only a section a fork created receives fork-copied registers: a
    /// section after an `endfork` with no fork pending reads them from
    /// their writer.
    #[test]
    fn fork_copies_reach_only_created_sections() {
        let copy = dep(SourceKind::ForkCopy);
        let stream = [
            (step(TraceKind::Fork, &[], &[RSP]), vec![]),
            (step(TraceKind::EndFork, &[], &[]), vec![]),
            // The section the fork created.
            (step(TraceKind::EndFork, &[RSP], &[]), vec![copy]),
            // A section no fork created.
            (step(TraceKind::Other, &[RSP], &[]), vec![copy]),
        ];
        assert_eq!(
            violations(&stream),
            [InvariantViolation::WriterDiscipline {
                seq: 3,
                dep: 0,
                claimed: None,
                actual: Some(0),
            }]
        );
    }

    #[test]
    fn memory_words_are_renamed_like_registers() {
        let local = dep(SourceKind::Local { producer: 0 });
        let stream = [
            (step(TraceKind::Other, &[], &[WORD]), vec![]),
            (step(TraceKind::Other, &[WORD], &[]), vec![local]),
            (
                step(TraceKind::Other, &[Location::Mem(0x48)], &[]),
                vec![local],
            ),
        ];
        assert_eq!(
            violations(&stream),
            [InvariantViolation::WriterDiscipline {
                seq: 2,
                dep: 0,
                claimed: Some(0),
                actual: None,
            }]
        );
    }

    #[test]
    fn the_report_stays_bounded() {
        let wrong = vec![dep(SourceKind::Local { producer: 0 })];
        let stream: Vec<_> = (0..MAX_VIOLATIONS + 1)
            .map(|_| (step(TraceKind::Other, &[RAX], &[]), wrong.clone()))
            .collect();
        let mut check = LocationCheck::new(StreamingSectioner::new());
        for (step, deps) in &stream {
            check.check(step, deps, InsnEntry::of_step(step, 0), step.mnemonic);
        }
        let report = check.finish(vec![]).expect("fits").1;
        assert_eq!(report.violations.len(), MAX_VIOLATIONS);
        assert!(report.truncated && !report.is_clean());
    }
}
