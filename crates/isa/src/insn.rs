//! The instruction set, including the paper's `fork`/`endfork` extension.

use std::fmt;

use crate::{Cond, IsaError, MemRef, Operand, Reg};

/// A control-flow target: a symbolic label, and its instruction index once
/// the label has been resolved.
///
/// Code addresses in the parsecs machine are *instruction indices*, not
/// byte addresses.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Target {
    /// Symbolic name, kept for pretty-printing even after resolution.
    pub label: String,
    /// Absolute instruction index, present after resolution.
    pub index: Option<usize>,
}

impl Target {
    /// A symbolic, unresolved target.
    pub fn label(name: impl Into<String>) -> Target {
        Target {
            label: name.into(),
            index: None,
        }
    }

    /// The resolved instruction index.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::UndefinedLabel`] when the target is still
    /// symbolic.
    pub fn resolved(&self) -> Result<usize, IsaError> {
        self.index
            .ok_or_else(|| IsaError::UndefinedLabel(self.label.clone()))
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label)
    }
}

/// Binary ALU operations of the form `op src, dst` (`dst = dst op src`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum AluOp {
    Add,
    Sub,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Sar,
    Imul,
}

impl AluOp {
    /// gas mnemonic with the `q` (64-bit) suffix.
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "addq",
            AluOp::Sub => "subq",
            AluOp::And => "andq",
            AluOp::Or => "orq",
            AluOp::Xor => "xorq",
            AluOp::Shl => "shlq",
            AluOp::Shr => "shrq",
            AluOp::Sar => "sarq",
            AluOp::Imul => "imulq",
        }
    }

    /// Applies the operation to two 64-bit values, returning the result.
    pub fn apply(self, dst: u64, src: u64) -> u64 {
        match self {
            AluOp::Add => dst.wrapping_add(src),
            AluOp::Sub => dst.wrapping_sub(src),
            AluOp::And => dst & src,
            AluOp::Or => dst | src,
            AluOp::Xor => dst ^ src,
            AluOp::Shl => dst.wrapping_shl((src & 63) as u32),
            AluOp::Shr => dst.wrapping_shr((src & 63) as u32),
            AluOp::Sar => ((dst as i64).wrapping_shr((src & 63) as u32)) as u64,
            AluOp::Imul => (dst as i64).wrapping_mul(src as i64) as u64,
        }
    }
}

/// Unary read-modify-write operations on a single operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum UnaryOp {
    Neg,
    Not,
    Inc,
    Dec,
}

impl UnaryOp {
    /// gas mnemonic with the `q` suffix.
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            UnaryOp::Neg => "negq",
            UnaryOp::Not => "notq",
            UnaryOp::Inc => "incq",
            UnaryOp::Dec => "decq",
        }
    }

    /// Applies the operation to a 64-bit value.
    pub fn apply(self, v: u64) -> u64 {
        match self {
            UnaryOp::Neg => (v as i64).wrapping_neg() as u64,
            UnaryOp::Not => !v,
            UnaryOp::Inc => v.wrapping_add(1),
            UnaryOp::Dec => v.wrapping_sub(1),
        }
    }
}

/// A single machine instruction.
///
/// Operand order follows gas/AT&T syntax: the **rightmost** operand is the
/// destination, matching the paper's listings.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Inst {
    /// `movq src, dst` — copy a 64-bit value.
    Mov {
        /// Source operand (immediate, register, memory or data symbol).
        src: Operand,
        /// Destination operand (register or memory).
        dst: Operand,
    },
    /// `leaq addr, dst` — compute an effective address without accessing
    /// memory.
    Lea {
        /// The address expression.
        addr: MemRef,
        /// Destination register.
        dst: Reg,
    },
    /// `pushq src` — decrement `%rsp` by 8 and store `src`.
    Push {
        /// Pushed value.
        src: Operand,
    },
    /// `popq dst` — load from `(%rsp)` and increment `%rsp` by 8.
    Pop {
        /// Destination operand (register or memory).
        dst: Operand,
    },
    /// Binary ALU operation `op src, dst` (`dst = dst op src`), setting
    /// the flags.
    Alu {
        /// The operation.
        op: AluOp,
        /// Source operand.
        src: Operand,
        /// Destination operand (also read).
        dst: Operand,
    },
    /// Unary read-modify-write operation, setting the flags.
    Unary {
        /// The operation.
        op: UnaryOp,
        /// Operand, both read and written.
        dst: Operand,
    },
    /// `cmpq src, dst` — set flags according to `dst - src`.
    Cmp {
        /// Right-hand side of the comparison.
        src: Operand,
        /// Left-hand side of the comparison.
        dst: Operand,
    },
    /// `testq src, dst` — set flags according to `dst & src`.
    Test {
        /// Right-hand side.
        src: Operand,
        /// Left-hand side.
        dst: Operand,
    },
    /// Unconditional jump.
    Jmp {
        /// Jump target.
        target: Target,
    },
    /// Conditional jump.
    Jcc {
        /// Branch condition.
        cond: Cond,
        /// Jump target.
        target: Target,
    },
    /// `call target` — push the return address and jump.
    Call {
        /// Callee entry point.
        target: Target,
    },
    /// `ret` — pop the return address and jump to it.
    Ret,
    /// `fork target` — the paper's section-creating instruction.
    ///
    /// Unlike `call`, no return address is saved: the *current* section
    /// continues at `target` (the callee path) while a *new* section is
    /// created that starts at the next instruction (the resume path) with a
    /// copy of the stack pointer and the non-volatile registers.
    Fork {
        /// Callee entry point.
        target: Target,
    },
    /// `endfork` — ends the current section. Unlike `ret`, control is not
    /// transferred anywhere: the hosting core simply dequeues its next
    /// section-creation message.
    EndFork,
    /// `out src` — append a 64-bit value to the machine's observation
    /// channel. Used by the workloads to expose results without modelling
    /// I/O devices.
    Out {
        /// The observed value.
        src: Operand,
    },
    /// No operation.
    Nop,
    /// Stop the machine (end of the whole run).
    Halt,
}

impl Inst {
    /// The gas mnemonic of the instruction.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Inst::Mov { .. } => "movq",
            Inst::Lea { .. } => "leaq",
            Inst::Push { .. } => "pushq",
            Inst::Pop { .. } => "popq",
            Inst::Alu { op, .. } => op.mnemonic(),
            Inst::Unary { op, .. } => op.mnemonic(),
            Inst::Cmp { .. } => "cmpq",
            Inst::Test { .. } => "testq",
            Inst::Jmp { .. } => "jmp",
            Inst::Jcc { .. } => "jcc",
            Inst::Call { .. } => "call",
            Inst::Ret => "ret",
            Inst::Fork { .. } => "fork",
            Inst::EndFork => "endfork",
            Inst::Out { .. } => "out",
            Inst::Nop => "nop",
            Inst::Halt => "halt",
        }
    }

    /// Whether the instruction changes the control flow (jump, branch,
    /// call, ret, fork, endfork, halt).
    pub(crate) fn is_control(&self) -> bool {
        matches!(
            self,
            Inst::Jmp { .. }
                | Inst::Jcc { .. }
                | Inst::Call { .. }
                | Inst::Ret
                | Inst::Fork { .. }
                | Inst::EndFork
                | Inst::Halt
        )
    }

    /// The control-flow target, if the instruction has one.
    pub fn target(&self) -> Option<&Target> {
        match self {
            Inst::Jmp { target }
            | Inst::Jcc { target, .. }
            | Inst::Call { target }
            | Inst::Fork { target } => Some(target),
            _ => None,
        }
    }

    /// Mutable access to the control-flow target, if any. Used by label
    /// resolution.
    pub(crate) fn target_mut(&mut self) -> Option<&mut Target> {
        match self {
            Inst::Jmp { target }
            | Inst::Jcc { target, .. }
            | Inst::Call { target }
            | Inst::Fork { target } => Some(target),
            _ => None,
        }
    }

    /// Checks structural validity of the operand combination.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::InvalidOperands`] for combinations the machine
    /// refuses to execute, such as memory-to-memory moves, immediate
    /// destinations, or a data-symbol destination.
    pub(crate) fn validate(&self) -> Result<(), IsaError> {
        let invalid = |reason: String| IsaError::InvalidOperands {
            mnemonic: self.mnemonic(),
            reason,
        };
        let check_dst = |dst: &Operand| -> Result<(), IsaError> {
            match dst {
                Operand::Imm(_) => Err(invalid("destination cannot be an immediate".into())),
                Operand::Sym(_) => Err(invalid("destination cannot be a data symbol".into())),
                _ => Ok(()),
            }
        };
        match self {
            Inst::Mov { src, dst } | Inst::Alu { src, dst, .. } => {
                check_dst(dst)?;
                if src.is_mem() && dst.is_mem() {
                    return Err(invalid(
                        "memory-to-memory operations are not allowed".into(),
                    ));
                }
                Ok(())
            }
            Inst::Cmp { src, dst } | Inst::Test { src, dst } => {
                if src.is_mem() && dst.is_mem() {
                    return Err(invalid(
                        "memory-to-memory operations are not allowed".into(),
                    ));
                }
                Ok(())
            }
            Inst::Pop { dst } | Inst::Unary { dst, .. } => check_dst(dst),
            _ => Ok(()),
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Mov { src, dst } => write!(f, "movq    {src}, {dst}"),
            Inst::Lea { addr, dst } => write!(f, "leaq    {addr}, {dst}"),
            Inst::Push { src } => write!(f, "pushq   {src}"),
            Inst::Pop { dst } => write!(f, "popq    {dst}"),
            Inst::Alu { op, src, dst } => write!(f, "{:<7} {src}, {dst}", op.mnemonic()),
            Inst::Unary { op, dst } => write!(f, "{:<7} {dst}", op.mnemonic()),
            Inst::Cmp { src, dst } => write!(f, "cmpq    {src}, {dst}"),
            Inst::Test { src, dst } => write!(f, "testq   {src}, {dst}"),
            Inst::Jmp { target } => write!(f, "jmp     {target}"),
            Inst::Jcc { cond, target } => write!(f, "j{:<6} {target}", cond.suffix()),
            Inst::Call { target } => write!(f, "call    {target}"),
            Inst::Ret => write!(f, "ret"),
            Inst::Fork { target } => write!(f, "fork    {target}"),
            Inst::EndFork => write!(f, "endfork"),
            Inst::Out { src } => write!(f, "out     {src}"),
            Inst::Nop => write!(f, "nop"),
            Inst::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rax() -> Operand {
        Operand::Reg(Reg::Rax)
    }

    #[test]
    fn display_matches_paper_listings() {
        // Lines from Figure 2 of the paper.
        let cmp = Inst::Cmp {
            src: Operand::imm(2),
            dst: Operand::Reg(Reg::Rsi),
        };
        assert_eq!(cmp.to_string(), "cmpq    $2, %rsi");
        let ja = Inst::Jcc {
            cond: Cond::A,
            target: Target::label(".L2"),
        };
        assert_eq!(ja.to_string(), "ja      .L2");
        let mov = Inst::Mov {
            src: Operand::mem(Reg::Rdi, 0),
            dst: rax(),
        };
        assert_eq!(mov.to_string(), "movq    (%rdi), %rax");
        let add = Inst::Alu {
            op: AluOp::Add,
            src: Operand::mem(Reg::Rdi, 8),
            dst: rax(),
        };
        assert_eq!(add.to_string(), "addq    8(%rdi), %rax");
        let lea = Inst::Lea {
            addr: MemRef::base_index_scale(Reg::Rdi, Reg::Rsi, 8, 0),
            dst: Reg::Rdi,
        };
        assert_eq!(lea.to_string(), "leaq    (%rdi,%rsi,8), %rdi");
        let fork = Inst::Fork {
            target: Target::label("sum"),
        };
        assert_eq!(fork.to_string(), "fork    sum");
        assert_eq!(Inst::EndFork.to_string(), "endfork");
        let shr = Inst::Alu {
            op: AluOp::Shr,
            src: Operand::imm(1),
            dst: Operand::Reg(Reg::Rsi),
        };
        assert_eq!(shr.to_string(), "shrq    $1, %rsi");
    }

    #[test]
    fn control_classification() {
        assert!(Inst::Ret.is_control());
        assert!(Inst::Halt.is_control());
        assert!(Inst::Fork {
            target: Target::label("f")
        }
        .is_control());
        assert!(Inst::EndFork.is_control());
        assert!(!Inst::Nop.is_control());
        assert!(!Inst::Mov {
            src: rax(),
            dst: Operand::Reg(Reg::Rbx)
        }
        .is_control());
    }

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.apply(3, 4), 7);
        assert_eq!(AluOp::Sub.apply(3, 4), u64::MAX);
        assert_eq!(AluOp::Shr.apply(5, 1), 2);
        assert_eq!(AluOp::Sar.apply((-8i64) as u64, 1), (-4i64) as u64);
        assert_eq!(
            AluOp::Shl.apply(1, 65),
            2,
            "shift count is masked to 6 bits"
        );
        assert_eq!(AluOp::Imul.apply(7, 6), 42);
        assert_eq!(AluOp::Imul.apply((-7i64) as u64, 6), (-42i64) as u64);
        assert_eq!(UnaryOp::Neg.apply(5), (-5i64) as u64);
        assert_eq!(UnaryOp::Not.apply(0), u64::MAX);
        assert_eq!(UnaryOp::Inc.apply(u64::MAX), 0);
        assert_eq!(UnaryOp::Dec.apply(0), u64::MAX);
    }

    #[test]
    fn validation_rejects_bad_operand_combinations() {
        let mem = Operand::mem(Reg::Rsp, 0);
        let bad_mov = Inst::Mov {
            src: mem.clone(),
            dst: mem.clone(),
        };
        assert!(bad_mov.validate().is_err());
        let bad_dst = Inst::Mov {
            src: rax(),
            dst: Operand::imm(3),
        };
        assert!(bad_dst.validate().is_err());
        let bad_pop = Inst::Pop {
            dst: Operand::sym("t"),
        };
        assert!(bad_pop.validate().is_err());
        let good = Inst::Alu {
            op: AluOp::Add,
            src: mem,
            dst: rax(),
        };
        assert!(good.validate().is_ok());
        assert!(Inst::Ret.validate().is_ok());
    }

    #[test]
    fn target_resolution() {
        let t = Target::label("sum");
        assert_eq!(t.resolved(), Err(IsaError::UndefinedLabel("sum".into())));
        assert_eq!(t.to_string(), "sum");
        let resolved = Target {
            label: "sum".into(),
            index: Some(3),
        };
        assert_eq!(resolved.resolved().unwrap(), 3);
        assert_eq!(resolved.to_string(), "sum");
    }
}
