//! The sequential executor.

use parsecs_isa::{AluOp, Effects, Flags, Inst, Operand, Program, Reg};

use crate::cpu::CpuState;
use crate::memory::Memory;
use crate::{Location, MachineError, TraceKind, TraceSink, TraceStep};

/// The result of a completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Values emitted by `out` instructions, in program order.
    pub outputs: Vec<u64>,
    /// Number of dynamic instructions executed.
    pub instructions: u64,
    /// Number of dynamic loads.
    pub loads: u64,
    /// Number of dynamic stores.
    pub stores: u64,
}

/// A saved continuation used to give `fork` programs a sequential,
/// depth-first semantics (the paper's section total order).
#[derive(Debug, Clone)]
struct Continuation {
    resume_ip: usize,
    saved_callee: Vec<(Reg, u64)>,
}

/// The register and flag locations of one static instruction, built once
/// at load from its [`Effects`]: each list sorted and deduplicated, so a
/// traced step only appends its memory words (which sort after every
/// register and the flags in the [`Location`] order).
#[derive(Debug, Clone)]
struct StaticLocations {
    reads: Vec<Location>,
    writes: Vec<Location>,
    is_control: bool,
    updates_stack_pointer: bool,
}

impl StaticLocations {
    fn of(inst: &Inst) -> StaticLocations {
        let effects = Effects::of(inst);
        let list = |regs: &[Reg], flags: bool| {
            let mut list: Vec<Location> = regs.iter().map(|&r| Location::Reg(r)).collect();
            list.sort_unstable();
            list.dedup();
            if flags {
                list.push(Location::Flags);
            }
            list
        };
        StaticLocations {
            reads: list(&effects.reg_reads, effects.reads_flags),
            writes: list(&effects.reg_writes, effects.writes_flags),
            is_control: effects.is_control,
            updates_stack_pointer: effects.updates_stack_pointer,
        }
    }
}

/// The sink [`Machine::run`] names for its type parameter; it is never
/// given a step.
struct NoSink;

impl TraceSink for NoSink {
    fn record(&mut self, _step: &TraceStep<'_>) {}
}

/// The sequential reference machine.
///
/// See the [crate documentation](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Machine {
    program: Program,
    /// The register and flag locations of each static instruction,
    /// computed once at load; a traced step copies them and appends its
    /// memory words.
    locations: Vec<StaticLocations>,
    cpu: CpuState,
    memory: Memory,
    outputs: Vec<u64>,
    continuations: Vec<Continuation>,
    steps: u64,
    loads: u64,
    stores: u64,
    halted: bool,
    /// Reusable scratch for the locations of the current step, so the
    /// streaming trace path performs no per-instruction allocation.
    scratch_reads: Vec<Location>,
    scratch_writes: Vec<Location>,
    scratch_mem_reads: Vec<u64>,
    scratch_mem_writes: Vec<u64>,
}

/// The state one step mutates while it holds its instruction by reference
/// from the machine's program: the CPU, the memory and the memory words
/// the step reads and writes.
struct StepContext<'m> {
    ip: usize,
    cpu: &'m mut CpuState,
    memory: &'m mut Memory,
    mem_reads: &'m mut Vec<u64>,
    mem_writes: &'m mut Vec<u64>,
}

impl StepContext<'_> {
    fn read_operand(&mut self, op: &Operand) -> Result<u64, MachineError> {
        match op {
            Operand::Imm(v) => Ok(*v as u64),
            Operand::Reg(r) => Ok(self.cpu.get(*r)),
            Operand::Mem(m) => {
                let addr = self.cpu.effective_address(m);
                self.load_word(addr)
            }
            Operand::Sym(name) => Err(parsecs_isa::IsaError::UndefinedSymbol(name.clone()).into()),
        }
    }

    fn write_operand(&mut self, op: &Operand, value: u64) -> Result<(), MachineError> {
        match op {
            Operand::Reg(r) => {
                self.cpu.set(*r, value);
                Ok(())
            }
            Operand::Mem(m) => {
                let addr = self.cpu.effective_address(m);
                self.store_word(addr, value)
            }
            Operand::Imm(_) | Operand::Sym(_) => Err(parsecs_isa::IsaError::InvalidOperands {
                mnemonic: "store",
                reason: "destination must be a register or memory".into(),
            }
            .into()),
        }
    }

    fn load_word(&mut self, addr: u64) -> Result<u64, MachineError> {
        if !Memory::is_aligned(addr) {
            return Err(MachineError::UnalignedAccess { addr, ip: self.ip });
        }
        self.mem_reads.push(addr);
        Ok(self.memory.read(addr))
    }

    fn store_word(&mut self, addr: u64, value: u64) -> Result<(), MachineError> {
        if !Memory::is_aligned(addr) {
            return Err(MachineError::UnalignedAccess { addr, ip: self.ip });
        }
        self.mem_writes.push(addr);
        self.memory.write(addr, value);
        Ok(())
    }
}

/// Appends the memory words `words` to `list` as [`Location::Mem`]s,
/// sorted and deduplicated among themselves (`words` is sorted in place).
fn push_words(list: &mut Vec<Location>, words: &mut [u64]) {
    words.sort_unstable();
    let mut last = None;
    for &word in words.iter() {
        if last != Some(word) {
            list.push(Location::Mem(word));
            last = Some(word);
        }
    }
}

impl Machine {
    /// Loads a program: initialises memory from its data segment and places
    /// the instruction pointer at the entry point.
    ///
    /// # Errors
    ///
    /// Returns an error if the program is empty.
    pub fn load(program: &Program) -> Result<Machine, MachineError> {
        if program.is_empty() {
            return Err(MachineError::InvalidIp { ip: 0, len: 0 });
        }
        let mut memory = Memory::new();
        for (addr, value) in program.data_words() {
            memory.write(addr, value);
        }
        Ok(Machine {
            locations: program.insns().iter().map(StaticLocations::of).collect(),
            program: program.clone(),
            cpu: CpuState::at_entry(program.entry()),
            memory,
            outputs: Vec::new(),
            continuations: Vec::new(),
            steps: 0,
            loads: 0,
            stores: 0,
            halted: false,
            scratch_reads: Vec::new(),
            scratch_writes: Vec::new(),
            scratch_mem_reads: Vec::new(),
            scratch_mem_writes: Vec::new(),
        })
    }

    /// Runs until `halt` (or outermost `endfork`).
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::OutOfFuel`] if the program does not halt
    /// within `fuel` instructions, or any execution error.
    pub fn run(&mut self, fuel: u64) -> Result<Outcome, MachineError> {
        self.run_inner(fuel, None::<&mut NoSink>)
    }

    /// Runs until halt, streaming every retired instruction into `sink`.
    ///
    /// This is the front of every trace consumer: the sink sees each
    /// instruction exactly once, borrowing the machine's scratch buffers
    /// ([`TraceStep`]), so tracing adds no per-instruction allocation. A
    /// sink whose [`TraceSink::wants_more`] turns `false` (it hit a
    /// capacity limit and would only discard further steps) stops the run
    /// at that point; the outcome so far is returned and the sink's own
    /// finishing step reports the condition.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::run`].
    pub fn run_with_sink<S: TraceSink>(
        &mut self,
        fuel: u64,
        sink: &mut S,
    ) -> Result<Outcome, MachineError> {
        self.run_inner(fuel, Some(sink))
    }

    fn run_inner<S: TraceSink>(
        &mut self,
        fuel: u64,
        mut sink: Option<&mut S>,
    ) -> Result<Outcome, MachineError> {
        let mut remaining = fuel;
        while !self.halted {
            // A stopped sink ends the run before any further instruction
            // (and before the fuel check: no instruction is about to be
            // executed, so reporting OutOfFuel here would mask the
            // sink's own condition, e.g. a latched capacity error).
            if let Some(sink) = sink.as_ref() {
                if !sink.wants_more() {
                    break;
                }
            }
            if remaining == 0 {
                return Err(MachineError::OutOfFuel { steps: self.steps });
            }
            remaining -= 1;
            self.step(sink.as_deref_mut())?;
        }
        Ok(Outcome {
            outputs: self.outputs.clone(),
            instructions: self.steps,
            loads: self.loads,
            stores: self.stores,
        })
    }

    /// Executes the instruction at the instruction pointer, streaming it
    /// to `sink` when present.
    fn step<S: TraceSink>(&mut self, sink: Option<&mut S>) -> Result<(), MachineError> {
        let ip = self.cpu.ip;
        let inst = self.program.get(ip).ok_or(MachineError::InvalidIp {
            ip,
            len: self.program.len(),
        })?;
        // The instruction stays borrowed from `program` while the step
        // mutates the disjoint CPU, memory and scratch fields.
        self.scratch_mem_reads.clear();
        self.scratch_mem_writes.clear();
        let mut ctx = StepContext {
            ip,
            cpu: &mut self.cpu,
            memory: &mut self.memory,
            mem_reads: &mut self.scratch_mem_reads,
            mem_writes: &mut self.scratch_mem_writes,
        };
        let mut out_value = None;
        let mut next_ip = ip + 1;
        let mut kind = TraceKind::Other;

        match inst {
            Inst::Mov { src, dst } => {
                let v = ctx.read_operand(src)?;
                ctx.write_operand(dst, v)?;
            }
            Inst::Lea { addr, dst } => {
                let ea = ctx.cpu.effective_address(addr);
                ctx.cpu.set(*dst, ea);
            }
            Inst::Push { src } => {
                let v = ctx.read_operand(src)?;
                let rsp = ctx.cpu.get(Reg::Rsp).wrapping_sub(8);
                ctx.cpu.set(Reg::Rsp, rsp);
                ctx.store_word(rsp, v)?;
            }
            Inst::Pop { dst } => {
                let rsp = ctx.cpu.get(Reg::Rsp);
                let v = ctx.load_word(rsp)?;
                ctx.cpu.set(Reg::Rsp, rsp.wrapping_add(8));
                ctx.write_operand(dst, v)?;
            }
            Inst::Alu { op, src, dst } => {
                let s = ctx.read_operand(src)?;
                let d = ctx.read_operand(dst)?;
                let result = op.apply(d, s);
                ctx.cpu.flags = match op {
                    AluOp::Add => Flags::from_add(d, s),
                    AluOp::Sub => Flags::from_sub(d, s),
                    _ => Flags::from_logic(result),
                };
                ctx.write_operand(dst, result)?;
            }
            Inst::Unary { op, dst } => {
                let d = ctx.read_operand(dst)?;
                let result = op.apply(d);
                ctx.cpu.flags = match op {
                    parsecs_isa::UnaryOp::Neg => Flags::from_sub(0, d),
                    parsecs_isa::UnaryOp::Not => ctx.cpu.flags,
                    parsecs_isa::UnaryOp::Inc => Flags::from_add(d, 1),
                    parsecs_isa::UnaryOp::Dec => Flags::from_sub(d, 1),
                };
                ctx.write_operand(dst, result)?;
            }
            Inst::Cmp { src, dst } => {
                let s = ctx.read_operand(src)?;
                let d = ctx.read_operand(dst)?;
                ctx.cpu.flags = Flags::from_sub(d, s);
            }
            Inst::Test { src, dst } => {
                let s = ctx.read_operand(src)?;
                let d = ctx.read_operand(dst)?;
                ctx.cpu.flags = Flags::from_logic(d & s);
            }
            Inst::Jmp { target } => {
                next_ip = target.resolved()?;
            }
            Inst::Jcc { cond, target } => {
                if cond.eval(ctx.cpu.flags) {
                    next_ip = target.resolved()?;
                }
            }
            Inst::Call { target } => {
                kind = TraceKind::Call;
                let rsp = ctx.cpu.get(Reg::Rsp).wrapping_sub(8);
                ctx.cpu.set(Reg::Rsp, rsp);
                ctx.store_word(rsp, (ip + 1) as u64)?;
                next_ip = target.resolved()?;
            }
            Inst::Ret => {
                kind = TraceKind::Ret;
                let rsp = ctx.cpu.get(Reg::Rsp);
                let ret = ctx.load_word(rsp)?;
                ctx.cpu.set(Reg::Rsp, rsp.wrapping_add(8));
                next_ip = ret as usize;
            }
            Inst::Fork { target } => {
                kind = TraceKind::Fork;
                // Depth-first sequentialisation: the callee path runs now;
                // the forked continuation resumes at the next instruction
                // with the callee-saved registers (and %rsp) as they are at
                // the fork, exactly the register set the paper copies into
                // the section-creation message.
                self.continuations.push(Continuation {
                    resume_ip: ip + 1,
                    saved_callee: ctx.cpu.fork_copied(),
                });
                next_ip = target.resolved()?;
            }
            Inst::EndFork => {
                kind = TraceKind::EndFork;
                match self.continuations.pop() {
                    Some(cont) => {
                        for (r, v) in cont.saved_callee {
                            ctx.cpu.set(r, v);
                        }
                        next_ip = cont.resume_ip;
                    }
                    None => {
                        // The outermost flow ended: the run is complete.
                        self.halted = true;
                    }
                }
            }
            Inst::Out { src } => {
                let v = ctx.read_operand(src)?;
                self.outputs.push(v);
                out_value = Some(v);
            }
            Inst::Nop => {}
            Inst::Halt => {
                kind = TraceKind::Halt;
                self.halted = true;
            }
        }

        self.steps += 1;
        self.loads += self.scratch_mem_reads.len() as u64;
        self.stores += self.scratch_mem_writes.len() as u64;

        if let Some(sink) = sink {
            let mnemonic = inst.mnemonic();
            self.record_step(sink, ip, mnemonic, kind, out_value);
        }

        if self.halted {
            return Ok(());
        }
        if next_ip >= self.program.len() {
            return Err(MachineError::InvalidIp {
                ip: next_ip,
                len: self.program.len(),
            });
        }
        self.cpu.ip = next_ip;
        Ok(())
    }

    /// Assembles the sorted, deduplicated location lists of the step just
    /// executed (into the machine's scratch buffers) and streams it to
    /// `sink`: the instruction's prebuilt register and flag lists, then
    /// the step's memory words.
    fn record_step<S: TraceSink>(
        &mut self,
        sink: &mut S,
        ip: usize,
        mnemonic: &'static str,
        kind: TraceKind,
        out_value: Option<u64>,
    ) {
        let locations = &self.locations[ip];
        let reads = &mut self.scratch_reads;
        reads.clear();
        reads.extend_from_slice(&locations.reads);
        push_words(reads, &mut self.scratch_mem_reads);
        let writes = &mut self.scratch_writes;
        writes.clear();
        writes.extend_from_slice(&locations.writes);
        push_words(writes, &mut self.scratch_mem_writes);
        sink.record(&TraceStep {
            seq: self.steps - 1,
            ip,
            mnemonic,
            reads,
            writes,
            is_control: locations.is_control,
            updates_stack_pointer: locations.updates_stack_pointer,
            kind,
            out_value,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsecs_asm::assemble;
    use proptest::prelude::*;

    fn run_source(src: &str) -> Outcome {
        let program = assemble(src).expect("assembles");
        let mut m = Machine::load(&program).expect("loads");
        m.run(1_000_000).expect("halts")
    }

    /// A sink whose `wants_more` turns false stops the run at that point
    /// (the streaming sectioner uses this to abandon a run whose trace
    /// outgrew the arena, instead of executing the rest into a discarding
    /// sink).
    #[test]
    fn a_saturated_sink_stops_the_run_early() {
        struct Limited {
            seen: usize,
            cap: usize,
        }
        impl TraceSink for Limited {
            fn record(&mut self, _step: &TraceStep<'_>) {
                self.seen += 1;
            }
            fn wants_more(&self) -> bool {
                self.seen < self.cap
            }
        }
        let program = assemble(
            "main: movq $0, %rax
             loop: addq $1, %rax
                   cmpq $100, %rax
                   jne loop
                   out  %rax
                   halt",
        )
        .expect("assembles");
        let mut sink = Limited { seen: 0, cap: 10 };
        let mut m = Machine::load(&program).expect("loads");
        let outcome = m.run_with_sink(1_000_000, &mut sink).expect("stops early");
        assert_eq!(sink.seen, 10);
        assert_eq!(outcome.instructions, 10);
        assert!(outcome.outputs.is_empty(), "never reached the out");

        // The sink stop takes precedence over fuel exhaustion: a sink
        // saturated on the final fueled step reports its own condition,
        // not OutOfFuel.
        let mut sink = Limited { seen: 0, cap: 10 };
        let mut m = Machine::load(&program).expect("loads");
        let outcome = m.run_with_sink(10, &mut sink).expect("stop, not OutOfFuel");
        assert_eq!(outcome.instructions, 10);
    }

    #[test]
    fn arithmetic_and_output() {
        let out = run_source(
            "main: movq $40, %rax
                   addq $2, %rax
                   movq $10, %rbx
                   imulq %rbx, %rax
                   out  %rax
                   halt",
        );
        assert_eq!(out.outputs, vec![420]);
        assert_eq!(out.instructions, 6);
    }

    #[test]
    fn loads_stores_and_lea() {
        let out = run_source(
            "t:    .quad 7, 11, 13
             main: movq $t, %rdi
                   movq $2, %rsi
                   movq (%rdi,%rsi,8), %rax   # rax = t[2] = 13
                   leaq 8(%rdi), %rbx         # rbx = &t[1]
                   movq (%rbx), %rcx          # rcx = 11
                   addq %rcx, %rax
                   movq %rax, 16(%rdi)        # t[2] = 24
                   movq (%rdi,%rsi,8), %rdx
                   out  %rdx
                   halt",
        );
        assert_eq!(out.outputs, vec![24]);
        assert_eq!(out.loads, 3);
        assert_eq!(out.stores, 1);
    }

    #[test]
    fn conditional_branch_loop() {
        // Sum the integers 1..=10 with a countdown loop.
        let out = run_source(
            "main: movq $10, %rcx
                   movq $0, %rax
             loop: addq %rcx, %rax
                   subq $1, %rcx
                   jne  loop
                   out  %rax
                   halt",
        );
        assert_eq!(out.outputs, vec![55]);
    }

    #[test]
    fn call_and_ret() {
        let out = run_source(
            "main:   movq $5, %rdi
                     call square
                     out  %rax
                     halt
             square: movq %rdi, %rax
                     imulq %rdi, %rax
                     ret",
        );
        assert_eq!(out.outputs, vec![25]);
    }

    #[test]
    fn recursive_call_version_of_sum_matches_rust() {
        let data = [4u64, 2, 6, 4, 5, 1, 9, 3];
        let quads: Vec<String> = data.iter().map(u64::to_string).collect();
        let src = format!(
            "t:   .quad {}
             main: movq $t, %rdi
                   movq ${}, %rsi
                   call sum
                   out  %rax
                   halt
             sum:  cmpq $2, %rsi
                   ja .L2
                   movq (%rdi), %rax
                   jne .L1
                   addq 8(%rdi), %rax
             .L1:  ret
             .L2:  pushq %rbx
                   pushq %rdi
                   pushq %rsi
                   shrq %rsi
                   call sum
                   popq %rbx
                   pushq %rbx
                   subq $8, %rsp
                   movq %rax, 0(%rsp)
                   leaq (%rdi,%rsi,8), %rdi
                   subq %rsi, %rbx
                   movq %rbx, %rsi
                   call sum
                   addq 0(%rsp), %rax
                   addq $8, %rsp
                   popq %rsi
                   popq %rdi
                   popq %rbx
                   ret",
            quads.join(", "),
            data.len(),
        );
        let out = run_source(&src);
        assert_eq!(out.outputs, vec![data.iter().sum::<u64>()]);
    }

    #[test]
    fn fork_version_of_sum_matches_call_version() {
        let data = [4u64, 2, 6, 4, 5];
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
        let out = run_source(&src);
        assert_eq!(out.outputs, vec![21]);
    }

    #[test]
    fn fork_as_main_flow_halts_on_outermost_endfork() {
        let out = run_source(
            "main: movq $1, %rax
                   fork child
                   out %rax
                   endfork
             child: addq $41, %rax
                   endfork",
        );
        // The child runs first (depth-first), then the continuation prints.
        assert_eq!(out.outputs, vec![42]);
    }

    /// A sink that owns a copy of every step's location lists and kind.
    #[derive(Default)]
    struct Recorded(Vec<(Vec<Location>, Vec<Location>, TraceKind)>);

    impl TraceSink for Recorded {
        fn record(&mut self, step: &TraceStep<'_>) {
            self.0
                .push((step.reads.to_vec(), step.writes.to_vec(), step.kind));
        }
    }

    #[test]
    fn steps_carry_their_locations() {
        let program = assemble(
            "t:   .quad 3
             main: movq $t, %rdi
                   movq (%rdi), %rax
                   addq $1, %rax
                   movq %rax, (%rdi)
                   halt",
        )
        .unwrap();
        let mut steps = Recorded::default();
        let mut m = Machine::load(&program).unwrap();
        let outcome = m.run_with_sink(100, &mut steps).unwrap();
        assert_eq!(outcome.instructions, 5);
        assert_eq!(steps.0.len(), 5);
        let (load_reads, load_writes, _) = &steps.0[1];
        assert!(load_reads.contains(&Location::Mem(parsecs_isa::DATA_BASE)));
        assert!(load_writes.contains(&Location::Reg(Reg::Rax)));
        let (_, store_writes, _) = &steps.0[3];
        assert!(store_writes.contains(&Location::Mem(parsecs_isa::DATA_BASE)));
        assert_eq!(outcome.loads, 1);
        assert_eq!(outcome.stores, 1);
        let halts = steps
            .0
            .iter()
            .filter(|(_, _, kind)| *kind == TraceKind::Halt);
        assert_eq!(halts.count(), 1);
    }

    /// A sink that checks every step's location lists against the
    /// per-step construction they replace: the instruction's
    /// [`Effects`] registers and flags plus the step's memory words,
    /// sorted and deduplicated together.
    struct ListOracle<'p> {
        program: &'p Program,
        steps: usize,
    }

    impl ListOracle<'_> {
        fn rebuilt(regs: &[Reg], flags: bool, step_list: &[Location]) -> Vec<Location> {
            let mut list: Vec<Location> = regs.iter().map(|&r| Location::Reg(r)).collect();
            if flags {
                list.push(Location::Flags);
            }
            list.extend(step_list.iter().copied().filter(Location::is_mem));
            list.sort_unstable();
            list.dedup();
            list
        }
    }

    impl TraceSink for ListOracle<'_> {
        fn record(&mut self, step: &TraceStep<'_>) {
            for list in [step.reads, step.writes] {
                assert!(
                    list.windows(2).all(|w| w[0] < w[1]),
                    "{} at ip {}: {list:?} is not strictly ascending",
                    step.mnemonic,
                    step.ip
                );
            }
            let effects = Effects::of(&self.program.insns()[step.ip]);
            assert_eq!(
                step.reads,
                Self::rebuilt(&effects.reg_reads, effects.reads_flags, step.reads),
                "{} at ip {} reads",
                step.mnemonic,
                step.ip
            );
            assert_eq!(
                step.writes,
                Self::rebuilt(&effects.reg_writes, effects.writes_flags, step.writes),
                "{} at ip {} writes",
                step.mnemonic,
                step.ip
            );
            assert_eq!(step.is_control, effects.is_control);
            assert_eq!(step.updates_stack_pointer, effects.updates_stack_pointer);
            self.steps += 1;
        }
    }

    #[test]
    fn prebuilt_location_lists_match_the_per_step_construction() {
        use parsecs_workloads::{scale, sum};

        let data = sum::dataset(3, 3);
        let two_memory_operands = assemble(
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
            (two_memory_operands, 100),
        ];
        for (program, fuel) in &shapes {
            let mut oracle = ListOracle { program, steps: 0 };
            let outcome = Machine::load(program)
                .expect("loads")
                .run_with_sink(*fuel, &mut oracle)
                .expect("halts");
            assert_eq!(oracle.steps as u64, outcome.instructions);
        }
    }

    #[test]
    fn out_of_fuel_is_reported() {
        let program = assemble("main: jmp main").unwrap();
        let mut m = Machine::load(&program).unwrap();
        assert_eq!(
            m.run(10).unwrap_err(),
            MachineError::OutOfFuel { steps: 10 }
        );
    }

    #[test]
    fn falling_off_the_program_is_reported() {
        let program = assemble("main: nop\n nop").unwrap();
        let mut m = Machine::load(&program).unwrap();
        let err = m.run(10).unwrap_err();
        assert!(matches!(err, MachineError::InvalidIp { .. }));
    }

    #[test]
    fn unaligned_access_is_reported() {
        let program = assemble("main: movq $3, %rdi\n movq (%rdi), %rax\n halt").unwrap();
        let mut m = Machine::load(&program).unwrap();
        let err = m.run(10).unwrap_err();
        assert_eq!(err, MachineError::UnalignedAccess { addr: 3, ip: 1 });
    }

    #[test]
    fn empty_program_is_rejected() {
        let program = assemble("").unwrap();
        assert!(Machine::load(&program).is_err());
    }

    proptest! {
        #[test]
        fn alu_matches_native_semantics(a in any::<i64>(), b in any::<i64>()) {
            let src = format!(
                "main: movq ${a}, %rax
                       movq ${b}, %rbx
                       movq %rax, %rcx
                       addq %rbx, %rcx
                       out  %rcx
                       movq %rax, %rcx
                       subq %rbx, %rcx
                       out  %rcx
                       movq %rax, %rcx
                       imulq %rbx, %rcx
                       out  %rcx
                       movq %rax, %rcx
                       xorq %rbx, %rcx
                       out  %rcx
                       halt"
            );
            let out = run_source(&src);
            prop_assert_eq!(out.outputs[0], a.wrapping_add(b) as u64);
            prop_assert_eq!(out.outputs[1], a.wrapping_sub(b) as u64);
            prop_assert_eq!(out.outputs[2], a.wrapping_mul(b) as u64);
            prop_assert_eq!(out.outputs[3], (a ^ b) as u64);
        }

        #[test]
        fn branch_decisions_match_rust_comparisons(a in -1000i64..1000, b in -1000i64..1000) {
            let src = format!(
                "main: movq ${a}, %rax
                       cmpq ${b}, %rax
                       jg   greater
                       out  $0
                       halt
                 greater: out $1
                       halt"
            );
            let out = run_source(&src);
            prop_assert_eq!(out.outputs[0], (a > b) as u64);
        }
    }
}
