//! The single-pass streaming sectioner.
//!
//! [`StreamingSectioner`] is a [`TraceSink`]: the reference machine pushes
//! each retired instruction into it, and the sink splits the run into
//! sections, renames every destination and resolves every source to its
//! producer **on the fly**, appending straight into a [`TraceArena`]. The
//! result is identical, record for record, to running the machine to
//! completion and post-processing the materialised trace with a two-pass
//! sequential analysis — a property held by a differential proptest
//! against such an oracle in the workspace's tests — but the pipeline never
//! builds the event vector, never allocates per instruction, and looks
//! registers up in a flat array instead of hashing `Location` keys. The
//! locations themselves drive the renaming and are then dropped: the
//! arena stores none. A sink that wraps the sectioner can still see them
//! — `parsecs-check`'s `LocationCheck` replays the renaming over each
//! step as it streams.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use parsecs_isa::{Effects, Inst, Operand, Program, Reg};
use parsecs_machine::{Location, Machine, TraceKind, TraceSink, TraceStep};

use crate::{InsnEntry, PackedDep, SectionId, SectionSpan, SourceKind, TraceArena, TraceError};

/// A multiply-xorshift hasher for the memory last-writer table: the keys
/// are 8-aligned data addresses, so the default SipHash's collision
/// resistance buys nothing and its per-lookup cost dominates the
/// sectioner's profile. (splitmix64's finalizer — the same mixer the
/// workspace uses for dataset generation.)
#[derive(Default)]
pub struct AddrHasher(u64);

impl Hasher for AddrHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // FNV-1a fallback; the map only ever hashes u64 keys.
        let mut h = self.0 ^ 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        self.0 = h;
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }
}

type AddrMap<V> = HashMap<u64, V, BuildHasherDefault<AddrHasher>>;

/// `(producer trace index, producer section)`; `u32::MAX` marks an
/// unwritten location.
const NO_WRITER: (u32, u32) = (u32::MAX, u32::MAX);

/// Register-file slots tracked by the flat last-writer array: the sixteen
/// registers plus the flags.
const REG_SLOTS: usize = Reg::COUNT + 1;
const FLAGS_SLOT: usize = Reg::COUNT;

/// Upper bounds on `(reads.len(), writes.len())` of any step of `inst`:
/// the distinct registers read (written), plus the flags, plus one per
/// memory word loaded (stored). The memory counts come from the
/// operands, which say how many words a step touches; [`Effects::mem`]
/// only says whether it loads or stores at all, and reports the two
/// words of `pushq 8(%rdi)` as one read-modify-write access.
fn step_bound(inst: &Inst) -> (usize, usize) {
    let mem = |op: &Operand| usize::from(op.is_mem());
    let (loads, stores) = match inst {
        Inst::Mov { src, dst } => (mem(src), mem(dst)),
        Inst::Push { src } => (mem(src), 1),
        Inst::Pop { dst } => (1, mem(dst)),
        Inst::Alu { src, dst, .. } => (mem(src) + mem(dst), mem(dst)),
        Inst::Unary { dst, .. } => (mem(dst), mem(dst)),
        Inst::Cmp { src, dst } | Inst::Test { src, dst } => (mem(src) + mem(dst), 0),
        Inst::Out { src } => (mem(src), 0),
        Inst::Call { .. } => (0, 1),
        Inst::Ret => (1, 0),
        Inst::Lea { .. }
        | Inst::Jmp { .. }
        | Inst::Jcc { .. }
        | Inst::Fork { .. }
        | Inst::EndFork
        | Inst::Nop
        | Inst::Halt => (0, 0),
    };
    let distinct = |regs: &[Reg]| {
        regs.iter()
            .fold(0u32, |set, r| set | 1 << r.index())
            .count_ones() as usize
    };
    let e = Effects::of(inst);
    (
        distinct(&e.reg_reads) + usize::from(e.reads_flags) + loads,
        distinct(&e.reg_writes) + usize::from(e.writes_flags) + stores,
    )
}

/// The streaming sectioner (see the module docs). Feed it through
/// [`parsecs_machine::Machine::run_with_sink`] — or any [`TraceStep`]
/// stream in trace order — then call [`StreamingSectioner::finish`].
#[derive(Debug)]
pub struct StreamingSectioner {
    arena: TraceArena,
    /// Fork sites whose created section has not started yet, as
    /// `(creator section, fork trace index)` — the creator stack of the
    /// depth-first total order.
    pending: Vec<(SectionId, usize)>,
    /// Creator of the section currently being recorded.
    current_creator: Option<(SectionId, usize)>,
    /// Trace index at which the current section started.
    current_start: usize,
    /// Static instruction index of the current section's first record.
    current_start_ip: usize,
    /// Set once a `halt` ends the run; later steps are ignored, matching
    /// the sequential analysis (which stops sectioning at the halt).
    halted: bool,
    /// Last writer of each register-file slot.
    reg_writer: [(u32, u32); REG_SLOTS],
    /// Last writer of each data-memory word.
    mem_writer: AddrMap<(u32, u32)>,
    /// [`step_bound`] of each static instruction, when the program is
    /// known up front (empty otherwise); every recorded step is
    /// debug-checked against it.
    step_bounds: Vec<(usize, usize)>,
    /// First capacity overflow hit while recording, if any. Once set the
    /// sink discards further steps and [`StreamingSectioner::finish`]
    /// returns the error instead of a truncated arena.
    error: Option<TraceError>,
}

impl Default for StreamingSectioner {
    fn default() -> StreamingSectioner {
        StreamingSectioner::new()
    }
}

impl StreamingSectioner {
    /// A fresh sectioner with an empty arena.
    pub fn new() -> StreamingSectioner {
        StreamingSectioner {
            arena: TraceArena::new(),
            pending: Vec::new(),
            current_creator: None,
            current_start: 0,
            current_start_ip: 0,
            halted: false,
            reg_writer: [NO_WRITER; REG_SLOTS],
            mem_writer: AddrMap::default(),
            step_bounds: Vec::new(),
            error: None,
        }
    }

    /// A fresh sectioner whose arena is reserved once for a run of
    /// `program` within `fuel` steps: a run records at most `fuel`
    /// instructions, each with at most as many reads as the most any of
    /// `program`'s instructions can make. The
    /// columns are then written in place instead of being copied as they
    /// grow; the finished arena is the same either way.
    pub fn reserved(program: &Program, fuel: u64) -> StreamingSectioner {
        let mut sectioner = StreamingSectioner::new();
        sectioner.step_bounds = program.insns().iter().map(step_bound).collect();
        let reads = sectioner.step_bounds.iter().map(|&(r, _)| r).max();
        sectioner
            .arena
            .reserve_for_run(fuel, reads.unwrap_or(0), program.insns().len());
        sectioner
    }

    /// Closes the trailing section (for traces that end without a
    /// terminator — cannot happen for halting programs, kept for
    /// robustness), trims every column to its payload and returns the
    /// finished arena. Before the trim a column's capacity may include
    /// space reserved for the whole run or growth slack; after it,
    /// [`TraceArena::memory_bytes`] is the arena's footprint, the same on
    /// every path.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::CapacityExceeded`] when the recorded trace
    /// outgrew one of the arena's packed-index capacities; the partially
    /// built arena is discarded.
    pub fn finish(mut self, outputs: Vec<u64>) -> Result<TraceArena, TraceError> {
        if let Some(error) = self.error {
            return Err(error);
        }
        let n = self.arena.len();
        if self.current_start < n && self.arena.sections().last().map(|s| s.end).unwrap_or(0) < n {
            let id = SectionId(self.arena.sections().len());
            self.arena.push_section(SectionSpan {
                id,
                start: self.current_start,
                end: n,
                creator: self.current_creator,
                start_ip: self.current_start_ip,
            });
        }
        self.arena.set_outputs(outputs);
        self.arena.shrink_to_fit();
        Ok(self.arena)
    }

    /// The arena built so far (for inspection; normally use `finish`).
    pub fn arena(&self) -> &TraceArena {
        &self.arena
    }

    /// Resolves one read against the last-writer state, exactly as the
    /// sequential analysis does.
    #[inline]
    fn resolve(&self, loc: Location, current: u32) -> PackedDep {
        let writer = match loc {
            Location::Reg(r) => self.reg_writer[r.index()],
            Location::Flags => self.reg_writer[FLAGS_SLOT],
            Location::Mem(addr) => self.mem_writer.get(&addr).copied().unwrap_or(NO_WRITER),
        };
        let kind = if writer == NO_WRITER {
            match loc {
                Location::Mem(_) => SourceKind::InitialMemory,
                _ => SourceKind::InitialRegister,
            }
        } else if writer.1 == current {
            SourceKind::Local {
                producer: writer.0 as usize,
            }
        } else {
            // The stack pointer and the paper's non-volatile registers are
            // copied into the section-creation message, so a forked
            // section reads them from its own register file.
            let copied = match loc {
                Location::Reg(r) => r.is_fork_copied(),
                _ => false,
            };
            if copied && self.current_creator.is_some() {
                SourceKind::ForkCopy
            } else {
                SourceKind::Remote {
                    producer: writer.0 as usize,
                }
            }
        };
        PackedDep::new(kind)
    }
}

impl TraceSink for StreamingSectioner {
    /// Once a capacity error latches, the sectioner would only discard
    /// steps — telling the machine to stop saves functionally executing
    /// the rest of a multi-hundred-million-instruction program into a
    /// dead sink.
    fn wants_more(&self) -> bool {
        self.error.is_none()
    }

    fn record(&mut self, step: &TraceStep<'_>) {
        if self.halted || self.error.is_some() {
            return;
        }
        // Capacity guard: a trace that outgrows the packed `u32` columns
        // (possible from a few hundred million instructions on) becomes a
        // typed error at `finish` instead of an abort mid-run.
        if let Err(e) = self.arena.capacity_for(step.reads.len()) {
            self.error = Some(e);
            return;
        }
        debug_assert!(
            self.step_bounds.get(step.ip).is_none_or(
                |&(reads, writes)| step.reads.len() <= reads && step.writes.len() <= writes
            ),
            "step at ip {} exceeds its static read/write bound",
            step.ip
        );
        let i = self.arena.len();
        let current = self.arena.sections().len() as u32;
        if i == self.current_start {
            self.current_start_ip = step.ip;
        }

        // What the program fixes for this static instruction is stored
        // once, from its first step; the location check compares every
        // later step with it.
        if !self.arena.has_insn(step.ip) {
            let id = self.arena.intern_mnemonic(step.mnemonic);
            self.arena.set_insn(step.ip, InsnEntry::of_step(step, id));
        }
        debug_assert!(
            {
                let set = self.arena.raw().insns[step.ip];
                set == InsnEntry::of_step(step, set.mnemonic_id())
            },
            "step at ip {} disagrees with its instruction's entry",
            step.ip
        );

        // Resolve sources in read order. `reads` is sorted and
        // `Location` orders registers before the flags before memory
        // words, so this is register-class deps first, then memory deps —
        // the order the sequential analysis emits.
        self.arena
            .begin_record(step.ip, SectionId(current as usize));
        for &loc in step.reads {
            let dep = self.resolve(loc, current);
            self.arena.push_dep(dep);
        }
        self.arena.end_record();

        // This instruction becomes the last writer of everything it
        // wrote (after its own reads resolved against the previous
        // writers).
        for &loc in step.writes {
            let writer = (i as u32, current);
            match loc {
                Location::Reg(r) => self.reg_writer[r.index()] = writer,
                Location::Flags => self.reg_writer[FLAGS_SLOT] = writer,
                Location::Mem(addr) => {
                    self.mem_writer.insert(addr, writer);
                }
            }
        }

        // Section bookkeeping.
        match step.kind {
            TraceKind::Fork => {
                self.pending.push((SectionId(current as usize), i));
            }
            TraceKind::EndFork | TraceKind::Halt => {
                self.arena.push_section(SectionSpan {
                    id: SectionId(current as usize),
                    start: self.current_start,
                    end: i + 1,
                    creator: self.current_creator,
                    start_ip: self.current_start_ip,
                });
                self.current_start = i + 1;
                self.current_creator = match step.kind {
                    TraceKind::EndFork => self.pending.pop(),
                    _ => None,
                };
                if step.kind == TraceKind::Halt {
                    // A halt ends the whole run; anything the machine
                    // would execute past it (nothing, for the reference
                    // semantics) is not sectioned.
                    self.halted = true;
                }
            }
            _ => {}
        }
    }
}

impl TraceArena {
    /// Runs `program` functionally through the streaming pipeline: the
    /// reference machine executes with a [`StreamingSectioner`] sink, so
    /// sectioning, renaming and dependence resolution happen in the same
    /// single pass as the execution — no intermediate trace is ever
    /// materialised. The sink is [`StreamingSectioner::reserved`] for a
    /// run of `fuel` instructions.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Machine`] if the functional execution fails
    /// or does not halt within `fuel` instructions, and
    /// [`TraceError::CapacityExceeded`] if the trace outgrows the arena's
    /// packed columns.
    pub fn from_program(program: &Program, fuel: u64) -> Result<TraceArena, TraceError> {
        let mut machine = Machine::load(program)?;
        let mut sink = StreamingSectioner::reserved(program, fuel);
        let outcome = machine.run_with_sink(fuel, &mut sink)?;
        sink.finish(outcome.outputs)
    }
}

#[cfg(test)]
mod tests {
    use parsecs_workloads::{scale, sum};

    use super::*;

    /// A sink that forwards to a sectioner after asserting that every
    /// step stays within its instruction's [`step_bound`].
    struct Bounded {
        inner: StreamingSectioner,
        bounds: Vec<(usize, usize)>,
        /// Steps that touched two distinct memory words.
        two_word_steps: usize,
    }

    impl TraceSink for Bounded {
        fn wants_more(&self) -> bool {
            self.inner.wants_more()
        }

        fn record(&mut self, step: &TraceStep<'_>) {
            let (reads, writes) = self.bounds[step.ip];
            assert!(
                step.reads.len() <= reads && step.writes.len() <= writes,
                "{} at ip {} reads {:?} and writes {:?}, bound ({reads}, {writes})",
                step.mnemonic,
                step.ip,
                step.reads,
                step.writes
            );
            let mut words: Vec<&Location> = step
                .reads
                .iter()
                .chain(step.writes)
                .filter(|l| l.is_mem())
                .collect();
            words.sort_unstable();
            words.dedup();
            if words.len() == 2 {
                self.two_word_steps += 1;
            }
            self.inner.record(step);
        }
    }

    /// Runs `program` through a [`Bounded`] sink; returns how many steps
    /// touched two distinct memory words.
    fn run_bounded(program: &Program, fuel: u64) -> usize {
        let mut sink = Bounded {
            inner: StreamingSectioner::new(),
            bounds: program.insns().iter().map(step_bound).collect(),
            two_word_steps: 0,
        };
        let outcome = Machine::load(program)
            .expect("loads")
            .run_with_sink(fuel, &mut sink)
            .expect("halts");
        let arena = sink.inner.finish(outcome.outputs).expect("fits");
        assert_eq!(
            arena,
            TraceArena::from_program(program, fuel).expect("runs")
        );
        sink.two_word_steps
    }

    #[test]
    fn every_scale_shape_stays_within_its_static_bound() {
        let data = sum::dataset(3, 3);
        let shapes = [
            (sum::fork_program(&data), 10_000),
            (sum::call_program(&data), 10_000),
            (
                scale::histogram_program(200, 8, 5),
                scale::histogram_fuel(200, 8),
            ),
            (scale::tree_sum_program(100, 1), scale::tree_sum_fuel(100)),
            (scale::chain_sum_program(50, 5), scale::chain_sum_fuel(50)),
            (
                scale::synth_histogram_program(500, 16, 1),
                scale::synth_histogram_fuel(500, 16),
            ),
            (
                scale::fan_chain_program(8, 6, 5),
                scale::fan_chain_fuel(8, 6),
            ),
        ];
        for (program, fuel) in &shapes {
            run_bounded(program, *fuel);
        }
    }

    /// `pushq`/`popq` with a memory operand load one word and store
    /// another in one instruction, which [`Effects::mem`] reports as a
    /// single read-modify-write access.
    #[test]
    fn two_memory_operand_forms_stay_within_their_static_bound() {
        let program = parsecs_asm::assemble(
            "t:    .quad 1, 2, 3, 4
             main: movq $t, %rdi
                   pushq 8(%rdi)
                   popq 16(%rdi)
                   addq %rdi, 24(%rdi)
                   cmpq 16(%rdi), %rax
                   call f
                   out  16(%rdi)
                   halt
             f:    pushq (%rdi)
                   popq 8(%rdi)
                   ret",
        )
        .expect("assembles");
        assert_eq!(run_bounded(&program, 100), 4);
        let push = &program.insns()[program.entry() + 1];
        assert_eq!(step_bound(push), (3, 2), "rdi, rsp, t[1]; rsp, stack slot");
    }
}
