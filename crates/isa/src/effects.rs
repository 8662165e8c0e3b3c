//! Architectural read/write effects of instructions.
//!
//! The reference machine (`parsecs-machine`), which hands each step's
//! read and write sets to its trace sinks (the ILP limit analyzer among
//! them), and the streaming sectioner (`parsecs-trace`) both need to
//! know, for every instruction, which registers it reads and writes,
//! whether it reads or writes the flags, and how it touches memory.
//! Centralising this analysis here keeps the two consistent.

use crate::{Inst, Operand, Reg};

/// How an instruction accesses data memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemEffect {
    /// No data-memory access.
    None,
    /// One 64-bit load.
    Load,
    /// One 64-bit store.
    Store,
    /// A read-modify-write access to a single location (e.g.
    /// `addq %rax, 0(%rsp)`).
    LoadStore,
}

impl MemEffect {
    /// Whether the instruction loads from memory.
    pub(crate) fn loads(self) -> bool {
        matches!(self, MemEffect::Load | MemEffect::LoadStore)
    }
}

/// The architectural effects of one instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Effects {
    /// Registers read (sources and address registers).
    pub reg_reads: Vec<Reg>,
    /// Registers written.
    pub reg_writes: Vec<Reg>,
    /// Whether the arithmetic flags are read (conditional branches).
    pub reads_flags: bool,
    /// Whether the arithmetic flags are written.
    pub writes_flags: bool,
    /// Data-memory behaviour.
    pub mem: MemEffect,
    /// Whether the instruction changes control flow.
    pub is_control: bool,
    /// Whether the only purpose of the register writes is stack-pointer
    /// bookkeeping (`push`/`pop`/`call`/`ret` rsp updates, or an ALU
    /// operation whose destination is `%rsp`).
    ///
    /// The paper (following Goossens & Parello 2013) singles these out as
    /// the dominant source of *parasitic* serialisation; the parallel-model
    /// ILP measurement excludes them.
    pub updates_stack_pointer: bool,
}

impl Effects {
    /// Computes the effects of an instruction.
    pub fn of(inst: &Inst) -> Effects {
        let mut e = Effects {
            reg_reads: Vec::new(),
            reg_writes: Vec::new(),
            reads_flags: false,
            writes_flags: false,
            mem: MemEffect::None,
            is_control: inst.is_control(),
            updates_stack_pointer: false,
        };

        let read_operand = |e: &mut Effects, op: &Operand, loads: bool| {
            e.reg_reads.extend(op.source_regs());
            if op.is_mem() && loads {
                e.mem = match e.mem {
                    MemEffect::None => MemEffect::Load,
                    other => other,
                };
            }
        };

        match inst {
            Inst::Mov { src, dst } => {
                read_operand(&mut e, src, true);
                e.write_operand(dst, false);
            }
            Inst::Lea { addr, dst } => {
                e.reg_reads.extend(addr.regs());
                e.reg_writes.push(*dst);
            }
            Inst::Push { src } => {
                read_operand(&mut e, src, true);
                e.reg_reads.push(Reg::Rsp);
                e.reg_writes.push(Reg::Rsp);
                e.mem = if e.mem.loads() {
                    MemEffect::LoadStore
                } else {
                    MemEffect::Store
                };
                e.updates_stack_pointer = true;
            }
            Inst::Pop { dst } => {
                e.reg_reads.push(Reg::Rsp);
                e.reg_writes.push(Reg::Rsp);
                e.mem = MemEffect::Load;
                e.write_operand(dst, true);
                e.updates_stack_pointer = true;
            }
            Inst::Alu { src, dst, .. } => {
                read_operand(&mut e, src, true);
                // The destination is both read and written.
                e.reg_reads.extend(dst.source_regs());
                e.write_operand(dst, true);
                e.writes_flags = true;
                if dst.as_reg() == Some(Reg::Rsp) {
                    e.updates_stack_pointer = true;
                }
            }
            Inst::Unary { dst, .. } => {
                e.reg_reads.extend(dst.source_regs());
                e.write_operand(dst, true);
                e.writes_flags = true;
                if dst.as_reg() == Some(Reg::Rsp) {
                    e.updates_stack_pointer = true;
                }
            }
            Inst::Cmp { src, dst } | Inst::Test { src, dst } => {
                read_operand(&mut e, src, true);
                read_operand(&mut e, dst, true);
                e.writes_flags = true;
            }
            Inst::Jmp { .. } => {}
            Inst::Jcc { .. } => {
                e.reads_flags = true;
            }
            Inst::Call { .. } => {
                e.reg_reads.push(Reg::Rsp);
                e.reg_writes.push(Reg::Rsp);
                e.mem = MemEffect::Store;
                e.updates_stack_pointer = true;
            }
            Inst::Ret => {
                e.reg_reads.push(Reg::Rsp);
                e.reg_writes.push(Reg::Rsp);
                e.mem = MemEffect::Load;
                e.updates_stack_pointer = true;
            }
            Inst::Fork { .. } => {
                // The forked section receives the stack pointer and the
                // non-volatile registers; the fork therefore reads them.
                e.reg_reads.push(Reg::Rsp);
                for r in Reg::ALL {
                    if r.is_fork_copied() && r != Reg::Rsp {
                        e.reg_reads.push(r);
                    }
                }
            }
            Inst::EndFork | Inst::Nop | Inst::Halt => {}
            Inst::Out { src } => {
                read_operand(&mut e, src, true);
            }
        }
        e
    }

    fn write_operand(&mut self, op: &Operand, rmw: bool) {
        match op {
            Operand::Reg(r) => self.reg_writes.push(*r),
            Operand::Mem(m) => {
                self.reg_reads.extend(m.regs());
                // A read-modify-write destination, or a store following an
                // earlier load by the same instruction, both loads and stores.
                self.mem = if rmw || self.mem.loads() {
                    MemEffect::LoadStore
                } else {
                    MemEffect::Store
                };
            }
            Operand::Imm(_) | Operand::Sym(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AluOp, Cond, MemRef, Target, UnaryOp};

    fn effects(inst: Inst) -> Effects {
        Effects::of(&inst)
    }

    #[test]
    fn mov_register_to_register() {
        let e = effects(Inst::Mov {
            src: Operand::Reg(Reg::Rsi),
            dst: Operand::Reg(Reg::Rbx),
        });
        assert_eq!(e.reg_reads, vec![Reg::Rsi]);
        assert_eq!(e.reg_writes, vec![Reg::Rbx]);
        assert_eq!(e.mem, MemEffect::None);
        assert!(!e.writes_flags && !e.reads_flags && !e.is_control);
        assert!(!e.updates_stack_pointer);
    }

    #[test]
    fn mov_load_and_store() {
        let load = effects(Inst::Mov {
            src: Operand::mem(Reg::Rdi, 0),
            dst: Operand::Reg(Reg::Rax),
        });
        assert_eq!(load.mem, MemEffect::Load);
        assert_eq!(load.reg_reads, vec![Reg::Rdi]);
        assert_eq!(load.reg_writes, vec![Reg::Rax]);

        let store = effects(Inst::Mov {
            src: Operand::Reg(Reg::Rax),
            dst: Operand::mem(Reg::Rsp, 0),
        });
        assert_eq!(store.mem, MemEffect::Store);
        assert_eq!(store.reg_reads, vec![Reg::Rax, Reg::Rsp]);
        assert!(store.reg_writes.is_empty());
    }

    #[test]
    fn alu_memory_destination_is_rmw() {
        let e = effects(Inst::Alu {
            op: AluOp::Add,
            src: Operand::Reg(Reg::Rax),
            dst: Operand::mem(Reg::Rsp, 0),
        });
        assert_eq!(e.mem, MemEffect::LoadStore);
        assert!(e.writes_flags);
    }

    #[test]
    fn alu_memory_source_loads() {
        // addq 0(%rsp), %rax — instruction 2-12/5-1 of the paper's Figure 6.
        let e = effects(Inst::Alu {
            op: AluOp::Add,
            src: Operand::mem(Reg::Rsp, 0),
            dst: Operand::Reg(Reg::Rax),
        });
        assert_eq!(e.mem, MemEffect::Load);
        assert_eq!(e.reg_reads, vec![Reg::Rsp, Reg::Rax]);
        assert_eq!(e.reg_writes, vec![Reg::Rax]);
    }

    #[test]
    fn stack_pointer_classification() {
        assert!(
            effects(Inst::Push {
                src: Operand::Reg(Reg::Rbx)
            })
            .updates_stack_pointer
        );
        assert!(
            effects(Inst::Pop {
                dst: Operand::Reg(Reg::Rbx)
            })
            .updates_stack_pointer
        );
        assert!(
            effects(Inst::Call {
                target: Target::label("f")
            })
            .updates_stack_pointer
        );
        assert!(effects(Inst::Ret).updates_stack_pointer);
        let sub_rsp = effects(Inst::Alu {
            op: AluOp::Sub,
            src: Operand::imm(8),
            dst: Operand::Reg(Reg::Rsp),
        });
        assert!(sub_rsp.updates_stack_pointer);
        let sub_rbx = effects(Inst::Alu {
            op: AluOp::Sub,
            src: Operand::Reg(Reg::Rsi),
            dst: Operand::Reg(Reg::Rbx),
        });
        assert!(!sub_rbx.updates_stack_pointer);
    }

    #[test]
    fn push_pop_call_ret_touch_memory_and_rsp() {
        let push = effects(Inst::Push {
            src: Operand::Reg(Reg::Rbx),
        });
        assert_eq!(push.mem, MemEffect::Store);
        assert!(push.reg_reads.contains(&Reg::Rsp));
        assert_eq!(push.reg_writes, vec![Reg::Rsp]);

        let pop = effects(Inst::Pop {
            dst: Operand::Reg(Reg::Rbx),
        });
        assert_eq!(pop.mem, MemEffect::Load);
        assert_eq!(pop.reg_writes, vec![Reg::Rsp, Reg::Rbx]);

        let call = effects(Inst::Call {
            target: Target::label("f"),
        });
        assert_eq!(call.mem, MemEffect::Store);
        assert!(call.is_control);

        let ret = effects(Inst::Ret);
        assert_eq!(ret.mem, MemEffect::Load);
        assert!(ret.is_control);
    }

    #[test]
    fn branch_reads_flags_compare_writes_them() {
        let cmp = effects(Inst::Cmp {
            src: Operand::imm(2),
            dst: Operand::Reg(Reg::Rsi),
        });
        assert!(cmp.writes_flags && !cmp.reads_flags);
        assert_eq!(cmp.mem, MemEffect::None);

        let ja = effects(Inst::Jcc {
            cond: Cond::A,
            target: Target::label(".L2"),
        });
        assert!(ja.reads_flags && !ja.writes_flags);
        assert!(ja.is_control);

        let jmp = effects(Inst::Jmp {
            target: Target::label(".L1"),
        });
        assert!(!jmp.reads_flags && jmp.is_control);
    }

    #[test]
    fn fork_reads_nonvolatile_state_endfork_reads_nothing() {
        let fork = effects(Inst::Fork {
            target: Target::label("sum"),
        });
        assert!(fork.is_control);
        assert!(fork.reg_reads.contains(&Reg::Rsp));
        assert!(fork.reg_reads.contains(&Reg::Rbx));
        assert!(fork.reg_reads.contains(&Reg::R15));
        assert!(
            !fork.reg_reads.contains(&Reg::Rax),
            "volatile registers are not copied"
        );
        assert!(fork.reg_writes.is_empty());
        assert_eq!(
            fork.mem,
            MemEffect::None,
            "fork does not save a return address"
        );

        let end = effects(Inst::EndFork);
        assert!(end.is_control);
        assert!(end.reg_reads.is_empty() && end.reg_writes.is_empty());
    }

    #[test]
    fn lea_does_not_touch_memory() {
        let e = effects(Inst::Lea {
            addr: MemRef::base_index_scale(Reg::Rdi, Reg::Rsi, 8, 0),
            dst: Reg::Rdi,
        });
        assert_eq!(e.mem, MemEffect::None);
        assert_eq!(e.reg_reads, vec![Reg::Rdi, Reg::Rsi]);
        assert_eq!(e.reg_writes, vec![Reg::Rdi]);
        assert!(!e.writes_flags);
    }

    #[test]
    fn unary_and_out() {
        let inc = effects(Inst::Unary {
            op: UnaryOp::Inc,
            dst: Operand::Reg(Reg::Rcx),
        });
        assert_eq!(inc.reg_reads, vec![Reg::Rcx]);
        assert_eq!(inc.reg_writes, vec![Reg::Rcx]);
        assert!(inc.writes_flags);

        let out = effects(Inst::Out {
            src: Operand::Reg(Reg::Rax),
        });
        assert_eq!(out.reg_reads, vec![Reg::Rax]);
        assert!(out.reg_writes.is_empty());
        assert!(!out.is_control);
    }

    #[test]
    fn mem_effect_predicates() {
        assert!(MemEffect::Load.loads());
        assert!(!MemEffect::Store.loads());
        assert!(MemEffect::LoadStore.loads());
        assert!(!MemEffect::None.loads());
    }
}
