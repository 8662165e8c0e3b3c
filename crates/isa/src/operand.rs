//! Instruction operands: immediates, registers, memory references and data
//! symbols.

use std::fmt;

use crate::Reg;

/// A memory reference of the form `disp(base, index, scale)`, mirroring the
/// x86 addressing mode the paper's listings use (`8(%rdi)`,
/// `(%rdi,%rsi,8)`, `0(%rsp)` …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Base register, if any.
    pub base: Option<Reg>,
    /// Index register, if any.
    pub index: Option<Reg>,
    /// Scale applied to the index register (1, 2, 4 or 8).
    pub scale: u8,
    /// Constant displacement.
    pub disp: i64,
}

impl MemRef {
    /// A `disp(base)` reference.
    pub fn base_disp(base: Reg, disp: i64) -> MemRef {
        MemRef {
            base: Some(base),
            index: None,
            scale: 1,
            disp,
        }
    }

    /// A `disp(base, index, scale)` reference.
    pub fn base_index_scale(base: Reg, index: Reg, scale: u8, disp: i64) -> MemRef {
        MemRef {
            base: Some(base),
            index: Some(index),
            scale,
            disp,
        }
    }

    /// An absolute reference (`disp` only), used for global data accesses.
    pub fn absolute(disp: i64) -> MemRef {
        MemRef {
            base: None,
            index: None,
            scale: 1,
            disp,
        }
    }

    /// Registers read to form the effective address.
    pub(crate) fn regs(&self) -> impl Iterator<Item = Reg> + '_ {
        self.base.into_iter().chain(self.index)
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.disp != 0 || (self.base.is_none() && self.index.is_none()) {
            write!(f, "{}", self.disp)?;
        }
        match (self.base, self.index) {
            (None, None) => Ok(()),
            (Some(b), None) => write!(f, "({b})"),
            (base, Some(i)) => {
                write!(f, "(")?;
                if let Some(b) = base {
                    write!(f, "{b}")?;
                }
                write!(f, ",{i},{})", self.scale)
            }
        }
    }
}

/// An instruction operand.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Operand {
    /// An immediate constant (`$42`).
    Imm(i64),
    /// A register (`%rax`).
    Reg(Reg),
    /// A memory reference (`8(%rdi)`).
    Mem(MemRef),
    /// The address of a data symbol (`$t`), resolved to an absolute
    /// immediate by symbol resolution in [`crate::ProgramBuilder`].
    Sym(String),
}

impl Operand {
    /// Shorthand for an immediate operand.
    pub fn imm(value: i64) -> Operand {
        Operand::Imm(value)
    }

    /// Shorthand for a `disp(base)` memory operand.
    pub fn mem(base: Reg, disp: i64) -> Operand {
        Operand::Mem(MemRef::base_disp(base, disp))
    }

    /// Shorthand for a `disp(base, index, scale)` memory operand.
    pub fn mem_scaled(base: Reg, index: Reg, scale: u8, disp: i64) -> Operand {
        Operand::Mem(MemRef::base_index_scale(base, index, scale, disp))
    }

    /// Shorthand for a data-symbol address operand.
    pub fn sym(name: impl Into<String>) -> Operand {
        Operand::Sym(name.into())
    }

    /// Returns the register if the operand is a plain register.
    pub(crate) fn as_reg(&self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(*r),
            _ => None,
        }
    }

    /// Whether this operand reads or writes memory.
    pub fn is_mem(&self) -> bool {
        matches!(self, Operand::Mem(_))
    }

    /// Registers read when this operand is used as a *source*.
    pub(crate) fn source_regs(&self) -> Vec<Reg> {
        match self {
            Operand::Imm(_) | Operand::Sym(_) => Vec::new(),
            Operand::Reg(r) => vec![*r],
            Operand::Mem(m) => m.regs().collect(),
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Operand {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Operand {
        Operand::Imm(v)
    }
}

impl From<MemRef> for Operand {
    fn from(m: MemRef) -> Operand {
        Operand::Mem(m)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Imm(v) => write!(f, "${v}"),
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Mem(m) => write!(f, "{m}"),
            Operand::Sym(s) => write!(f, "${s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_gas_syntax() {
        assert_eq!(Operand::imm(2).to_string(), "$2");
        assert_eq!(Operand::Reg(Reg::Rsi).to_string(), "%rsi");
        assert_eq!(Operand::mem(Reg::Rdi, 8).to_string(), "8(%rdi)");
        assert_eq!(Operand::mem(Reg::Rsp, 0).to_string(), "(%rsp)");
        assert_eq!(
            Operand::mem_scaled(Reg::Rdi, Reg::Rsi, 8, 0).to_string(),
            "(%rdi,%rsi,8)"
        );
        assert_eq!(
            Operand::mem_scaled(Reg::Rdi, Reg::Rsi, 8, 16).to_string(),
            "16(%rdi,%rsi,8)"
        );
        assert_eq!(Operand::Mem(MemRef::absolute(0x40)).to_string(), "64");
        assert_eq!(Operand::sym("t").to_string(), "$t");
    }

    #[test]
    fn source_and_address_registers() {
        let op = Operand::mem_scaled(Reg::Rdi, Reg::Rsi, 8, 0);
        assert_eq!(op.source_regs(), vec![Reg::Rdi, Reg::Rsi]);
        assert_eq!(Operand::Reg(Reg::Rax).source_regs(), vec![Reg::Rax]);
        assert!(Operand::imm(7).source_regs().is_empty());
    }

    #[test]
    fn conversions() {
        assert_eq!(Operand::from(Reg::Rbx), Operand::Reg(Reg::Rbx));
        assert_eq!(Operand::from(5i64), Operand::Imm(5));
        let m = MemRef::base_disp(Reg::Rdi, 8);
        assert_eq!(Operand::from(m), Operand::Mem(m));
        assert_eq!(Operand::Reg(Reg::Rax).as_reg(), Some(Reg::Rax));
        assert_eq!(Operand::imm(1).as_reg(), None);
    }
}
