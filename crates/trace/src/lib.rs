//! # parsecs-trace — the streaming arena-backed trace pipeline
//!
//! The many-core model consumes a *sectioned, dependence-annotated* trace
//! of the program's functional run. This crate produces one in a single
//! pass: the reference machine streams each retired instruction into a
//! [`StreamingSectioner`] (a [`parsecs_machine::TraceSink`]), which
//! splits the run into the paper's totally-ordered sections, renames
//! every destination and resolves every source to its producer on the
//! fly — appending into a flat struct-of-arrays [`TraceArena`] instead of
//! allocating a record per instruction.
//!
//! Compared with a two-pass pipeline (materialise every executed
//! instruction with its location lists, then post-process the lot with
//! the sequential analysis), the streaming pipeline:
//!
//! * never builds an intermediate trace (two `Vec`s per instruction);
//! * keeps the per-instruction metadata in flat columns and the
//!   dependences in **one shared 4-byte-packed slice** indexed by
//!   `(offset, len)` ranges, and no architectural location at all —
//!   21–28 bytes per instruction on the benchmark programs, where the
//!   record representation costs ~250–350;
//! * looks registers up in a flat array and memory words in a
//!   multiply-shift-hashed table, instead of SipHashing `Location` keys.
//!
//! The output is held record-for-record identical to the sequential
//! analysis by a differential property test in the workspace root.
//!
//! ## Example
//!
//! ```
//! use parsecs_trace::TraceArena;
//!
//! let program = parsecs_asm::assemble(
//!     "t:   .quad 4, 2
//!      main: movq $t, %rdi
//!            fork leaf
//!            out  %rax
//!            halt
//!      leaf: movq (%rdi), %rax
//!            addq 8(%rdi), %rax
//!            endfork",
//! ).expect("assembles");
//! let arena = TraceArena::from_program(&program, 1_000).expect("runs");
//! assert_eq!(arena.outputs(), &[6]);
//! assert_eq!(arena.sections().len(), 2);
//! assert!(arena.bytes_per_instruction() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod error;
mod section;
mod stream;

pub use arena::{PackedDep, RawColumns, TraceArena};
pub use error::TraceError;
pub use section::{SectionId, SectionSpan, SourceDep, SourceKind};
pub use stream::{AddrHasher, StreamingSectioner};

#[cfg(test)]
mod tests {
    use parsecs_isa::Reg;
    use parsecs_machine::{Location, Machine, TraceKind, TraceSink, TraceStep};

    use super::*;

    /// The paper's running example: Figure 5 preceded by a tiny `main`.
    fn sum_fork_program(data: &[u64]) -> parsecs_isa::Program {
        let quads: Vec<String> = data.iter().map(u64::to_string).collect();
        let src = format!(
            "t:   .quad {}
             main: movq $t, %rdi
                   movq ${}, %rsi
                   fork sum
                   out  %rax
                   halt
             sum:  cmpq $2, %rsi
                   ja .L2
                   movq (%rdi), %rax
                   jne .L1
                   addq 8(%rdi), %rax
             .L1:  endfork
             .L2:  movq %rsi, %rbx
                   shrq %rsi
                   fork sum
                   subq $8, %rsp
                   movq %rax, 0(%rsp)
                   leaq (%rdi,%rsi,8), %rdi
                   subq %rsi, %rbx
                   movq %rbx, %rsi
                   fork sum
                   addq 0(%rsp), %rax
                   addq $8, %rsp
                   endfork",
            quads.join(", "),
            data.len(),
        );
        parsecs_asm::assemble(&src).expect("sum program assembles")
    }

    fn sectioned(data: &[u64]) -> TraceArena {
        TraceArena::from_program(&sum_fork_program(data), 1_000_000).expect("runs")
    }

    /// A sectioner that also logs the locations each record reads, which
    /// the arena does not store.
    struct LocationLog {
        sectioner: StreamingSectioner,
        reads: Vec<Vec<Location>>,
    }

    impl TraceSink for LocationLog {
        fn record(&mut self, step: &TraceStep<'_>) {
            self.sectioner.record(step);
            self.reads.push(step.reads.to_vec());
        }
    }

    /// The arena of the sum program over `data`, with each record's reads.
    fn sectioned_with_reads(data: &[u64]) -> (TraceArena, Vec<Vec<Location>>) {
        let mut log = LocationLog {
            sectioner: StreamingSectioner::new(),
            reads: Vec::new(),
        };
        let outcome = Machine::load(&sum_fork_program(data))
            .expect("loads")
            .run_with_sink(1_000_000, &mut log)
            .expect("runs");
        let arena = log.sectioner.finish(outcome.outputs).expect("fits");
        assert_eq!(arena.len(), log.reads.len(), "the run ends at its halt");
        (arena, log.reads)
    }

    /// The provenance of record `seq`'s source on `location`: the
    /// record's dependences are in the order of its reads.
    fn source_on(
        (arena, reads): &(TraceArena, Vec<Vec<Location>>),
        seq: usize,
        location: Location,
    ) -> SourceKind {
        let at = reads[seq]
            .iter()
            .position(|&l| l == location)
            .unwrap_or_else(|| panic!("reads {location:?}"));
        arena.sources(seq)[at].kind()
    }

    #[test]
    fn streaming_matches_the_papers_sections() {
        // Figure 4 / Figure 6: five sections of 11, 16, 12, 3 and 3
        // instructions. Our initial section additionally carries the 3
        // `main` instructions before the first fork, and the continuation
        // of `main` (out, halt) forms a final 2-instruction section.
        let arena = sectioned(&[4, 2, 6, 4, 5]);
        assert_eq!(arena.outputs(), &[21]);
        assert_eq!(arena.sections().len(), 6);
        assert_eq!(arena.section_sizes(), vec![3 + 11, 16, 12, 3, 3, 2]);
        assert_eq!(arena.len(), 45 + 5);
        assert_eq!(arena.longest_section(), 16);
        // The first section starts at `main`, is not created by anyone.
        assert_eq!(arena.sections()[0].creator, None);
        // Section 2 (paper numbering) is created by the first `fork` of the
        // initial section.
        let (creator, fork_seq) = arena.sections()[1].creator.unwrap();
        assert_eq!(creator, SectionId(0));
        assert_eq!(arena.kind(fork_seq), TraceKind::Fork);
        // Sections are contiguous and ordered.
        for w in arena.sections().windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        // The paper's 1-based `s-i` instruction names.
        assert_eq!(arena.name(0), "1-1");
        assert_eq!(
            arena.name(arena.len() - 1),
            format!("{}-{}", arena.sections().len(), 2)
        );
    }

    #[test]
    fn creator_always_precedes_created_section() {
        let arena = sectioned(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        for span in arena.sections() {
            if let Some((creator, fork_seq)) = span.creator {
                assert!(creator < span.id, "{creator:?} must precede {:?}", span.id);
                assert!(fork_seq < span.start);
            }
        }
    }

    #[test]
    fn every_instruction_belongs_to_exactly_one_section() {
        let arena = sectioned(&[3, 1, 4, 1, 5, 9, 2, 6]);
        let total: usize = arena.section_sizes().iter().sum();
        assert_eq!(total, arena.len());
        for seq in 0..arena.len() {
            let span = &arena.sections()[arena.section(seq).0];
            assert!(seq >= span.start && seq < span.end);
            assert_eq!(arena.index_in_section(seq), seq - span.start);
        }
    }

    #[test]
    fn rax_of_the_resume_comes_from_the_preceding_section() {
        // Instruction 2-2 of Figure 6 (movq %rax, 0(%rsp)) consumes the rax
        // produced by the last instruction of the recursive descent hosted
        // in section 1 — the canonical remote renaming example of §4.2.
        let logged = sectioned_with_reads(&[4, 2, 6, 4, 5]);
        let arena = &logged.0;
        let section2 = arena.sections()[1].start;
        let store = section2 + 1;
        assert_eq!(arena.mnemonic(store), "movq");
        assert!(arena.is_store(store));
        match source_on(&logged, store, Location::Reg(Reg::Rax)) {
            SourceKind::Remote { producer } => {
                assert_eq!(arena.section(producer), SectionId(0));
            }
            other => panic!("expected a remote source, found {other:?}"),
        }
        // Its %rsp comes from the `subq $8, %rsp` just before it (2-1),
        // i.e. a local renaming hit.
        assert!(matches!(
            source_on(&logged, store, Location::Reg(Reg::Rsp)),
            SourceKind::Local { .. }
        ));
        // The array pointer %rdi used by 2-3 (leaq) was written by `main`
        // before the creating fork, so it arrives with the section-creation
        // message: the fork copy.
        let lea = section2 + 2;
        assert_eq!(arena.mnemonic(lea), "leaq");
        assert_eq!(
            source_on(&logged, lea, Location::Reg(Reg::Rdi)),
            SourceKind::ForkCopy
        );
    }

    #[test]
    fn final_sum_reads_memory_written_by_an_earlier_section() {
        // Instruction 5-1 of Figure 6 (addq 0(%rsp), %rax) reads the stack
        // word written by instruction 2-2: memory renaming across sections.
        let arena = sectioned(&[4, 2, 6, 4, 5]);
        let add = arena.sections()[4].start;
        assert_eq!(arena.mnemonic(add), "addq");
        assert!(arena.is_load(add));
        match arena.mem_sources(add)[0].kind() {
            SourceKind::Remote { producer } => {
                assert_eq!(arena.section(producer), SectionId(1));
                assert_eq!(arena.mnemonic(producer), "movq");
            }
            other => panic!("expected a remote memory source, found {other:?}"),
        }
    }

    #[test]
    fn array_loads_come_from_the_loader() {
        let arena = sectioned(&[4, 2, 6, 4, 5]);
        // The first load of t[0] has no in-program producer: it is served
        // by the loader / data memory hierarchy.
        let load = (0..arena.len())
            .find(|&seq| arena.is_load(seq) && !arena.mem_sources(seq).is_empty())
            .expect("some load exists");
        assert!(matches!(
            arena.mem_sources(load)[0].kind(),
            SourceKind::InitialMemory | SourceKind::Remote { .. }
        ));
        let initial_loads = (0..arena.len())
            .flat_map(|seq| arena.mem_sources(seq))
            .filter(|d| d.kind() == SourceKind::InitialMemory)
            .count();
        assert_eq!(
            initial_loads, 5,
            "each of the five array elements is loaded once"
        );
    }

    #[test]
    fn call_based_program_is_a_single_section() {
        let program = parsecs_asm::assemble(
            "main: movq $3, %rdi
                   call f
                   out %rax
                   halt
             f:    movq %rdi, %rax
                   imulq %rdi, %rax
                   ret",
        )
        .unwrap();
        let arena = TraceArena::from_program(&program, 1_000).unwrap();
        assert_eq!(arena.sections().len(), 1);
        assert_eq!(arena.outputs(), &[9]);
        assert_eq!(arena.section_sizes(), vec![7]);
    }

    #[test]
    fn scaling_matches_the_papers_formula() {
        // §5: for 5·2^n elements the fork run executes 45·2^n + 14·(2^n−1)
        // instructions (excluding our 5-instruction main/out/halt wrapper:
        // 3 before the first fork, 2 in the final section).
        for n in 0..4u32 {
            let elements = 5 * (1usize << n);
            let data: Vec<u64> = (0..elements as u64).collect();
            let arena = sectioned(&data);
            let expected = 45 * (1u64 << n) + 14 * ((1u64 << n) - 1);
            assert_eq!(arena.len() as u64, expected + 5, "for {elements} elements");
            assert_eq!(arena.outputs(), &[data.iter().sum::<u64>()]);
        }
    }

    #[test]
    fn packed_deps_roundtrip() {
        let last = arena::MAX_RECORDS as usize - 1;
        let mut kinds = Vec::new();
        for producer in [0, last] {
            kinds.push(SourceKind::Local { producer });
            kinds.push(SourceKind::Remote { producer });
        }
        kinds.extend([
            SourceKind::InitialMemory,
            SourceKind::ForkCopy,
            SourceKind::InitialRegister,
        ]);
        for &kind in &kinds {
            assert_eq!(PackedDep::new(kind).kind(), kind, "{kind:?}");
        }
        // One word per dependence: the producer's section is the arena's
        // `section` column, not a second word.
        assert_eq!(std::mem::size_of::<PackedDep>(), 4);
        // The words round-trip through the arena's dependence column.
        let mut arena = TraceArena::new();
        arena.begin_record(0, 0, SectionId(0), TraceKind::Other, false, true, false);
        for &kind in &kinds {
            arena.push_dep(PackedDep::new(kind));
        }
        arena.end_record(kinds.len());
        assert!(arena.sources(0).iter().map(PackedDep::kind).eq(kinds));
    }

    #[test]
    fn arena_exposes_loads_stores_and_dep_classes() {
        let program = parsecs_asm::assemble(
            "t:   .quad 3
             main: movq $t, %rdi
                   movq (%rdi), %rax
                   addq $1, %rax
                   movq %rax, (%rdi)
                   halt",
        )
        .unwrap();
        let arena = TraceArena::from_program(&program, 100).unwrap();
        assert_eq!(arena.len(), 5);
        // The load reads %rdi (register class) and t[0] (memory class).
        assert!(arena.is_load(1));
        assert!(!arena.is_store(1));
        assert_eq!(arena.reg_sources(1).len(), 1);
        assert_eq!(arena.mem_sources(1).len(), 1);
        assert_eq!(
            arena.mem_sources(1)[0].kind(),
            SourceKind::InitialMemory,
            "first load of t[0] is served by the loader"
        );
        // The store writes t[0] and reads the incremented %rax locally.
        assert!(arena.is_store(3));
        assert!(matches!(
            arena.reg_sources(3)[0].kind(),
            SourceKind::Local { producer: 2 }
        ));
        // The second load-style source of the add resolves to the movq.
        assert_eq!(arena.mnemonic(3), "movq");
        assert_eq!(arena.kind(4), TraceKind::Halt);
        assert_eq!(arena.name(0), "1-1");
    }

    #[test]
    fn memory_accounting_is_far_below_the_record_representation() {
        let data: Vec<u64> = (1..=40).collect();
        let arena = TraceArena::from_program(&sum_fork_program(&data), 1_000_000).unwrap();
        assert!(arena.len() > 300);
        let per_insn = arena.bytes_per_instruction();
        assert!(
            per_insn < 120.0,
            "arena footprint {per_insn:.1} B/insn exceeds the 120 B budget"
        );
        assert!(arena.memory_bytes() > 0);
    }

    #[test]
    fn empty_and_trailing_traces_are_handled() {
        let empty = StreamingSectioner::new().finish(vec![]).expect("fits");
        assert!(empty.is_empty());
        assert!(empty.sections().is_empty());
        assert_eq!(empty.bytes_per_instruction(), 0.0);
    }
}
