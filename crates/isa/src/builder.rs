//! An ergonomic builder for hand-written programs.
//!
//! The builder is used by the workload generators and by the mini-C
//! compiler's code emitter. It collects instructions, labels and data
//! objects and produces a resolved [`Program`].

use std::collections::BTreeMap;

use crate::{AluOp, Cond, DataItem, Inst, IsaError, Operand, Program, Target, UnaryOp};

/// Incrementally builds a [`Program`].
///
/// # Example
///
/// ```
/// use parsecs_isa::{ProgramBuilder, Operand, Reg, AluOp};
///
/// let mut b = ProgramBuilder::new();
/// b.label("main");
/// b.movq(Operand::imm(40), Reg::Rax);
/// b.alu(AluOp::Add, Operand::imm(2), Reg::Rax);
/// b.out(Reg::Rax);
/// b.halt();
/// let program = b.build().expect("valid program");
/// assert_eq!(program.len(), 4);
/// ```
#[derive(Debug, Default, Clone)]
pub struct ProgramBuilder {
    insns: Vec<Inst>,
    labels: BTreeMap<String, usize>,
    pending_errors: Vec<IsaError>,
    data: Vec<DataItem>,
    data_offset: u64,
    fresh_label: usize,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Defines a code label at the current position.
    pub fn label(&mut self, name: impl Into<String>) -> &mut Self {
        let name = name.into();
        if self.labels.insert(name.clone(), self.insns.len()).is_some() {
            self.pending_errors.push(IsaError::DuplicateLabel(name));
        }
        self
    }

    /// Returns a fresh, unique label name with the given prefix.
    pub fn fresh_label(&mut self, prefix: &str) -> String {
        let name = format!(".{prefix}_{}", self.fresh_label);
        self.fresh_label += 1;
        name
    }

    /// Appends a 64-bit-word array to the data segment under `name`.
    pub fn global_data(&mut self, name: impl Into<String>, words: &[u64]) -> &mut Self {
        let name = name.into();
        if self.data.iter().any(|d| d.name == name) {
            self.pending_errors.push(IsaError::DuplicateSymbol(name));
            return self;
        }
        let item = DataItem {
            name,
            offset: self.data_offset,
            words: words.to_vec(),
        };
        self.data_offset += 8 * words.len().max(1) as u64;
        self.data.push(item);
        self
    }

    /// Reserves `words` zero-initialised 64-bit words under `name`.
    pub fn global_zeroed(&mut self, name: impl Into<String>, words: usize) -> &mut Self {
        let zeros = vec![0u64; words];
        self.global_data(name, &zeros)
    }

    /// Appends a raw instruction.
    pub fn push(&mut self, inst: Inst) -> &mut Self {
        self.insns.push(inst);
        self
    }

    // ---- convenience emitters -------------------------------------------

    /// `movq src, dst`
    pub fn movq(&mut self, src: impl Into<Operand>, dst: impl Into<Operand>) -> &mut Self {
        self.push(Inst::Mov {
            src: src.into(),
            dst: dst.into(),
        })
    }

    /// `pushq src`
    pub fn pushq(&mut self, src: impl Into<Operand>) -> &mut Self {
        self.push(Inst::Push { src: src.into() })
    }

    /// `popq dst`
    pub fn popq(&mut self, dst: impl Into<Operand>) -> &mut Self {
        self.push(Inst::Pop { dst: dst.into() })
    }

    /// Binary ALU operation `op src, dst`.
    pub fn alu(
        &mut self,
        op: AluOp,
        src: impl Into<Operand>,
        dst: impl Into<Operand>,
    ) -> &mut Self {
        self.push(Inst::Alu {
            op,
            src: src.into(),
            dst: dst.into(),
        })
    }

    /// `subq src, dst`
    pub fn subq(&mut self, src: impl Into<Operand>, dst: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::Sub, src, dst)
    }

    /// Unary operation on `dst`.
    pub fn unary(&mut self, op: UnaryOp, dst: impl Into<Operand>) -> &mut Self {
        self.push(Inst::Unary {
            op,
            dst: dst.into(),
        })
    }

    /// `cmpq src, dst`
    pub fn cmpq(&mut self, src: impl Into<Operand>, dst: impl Into<Operand>) -> &mut Self {
        self.push(Inst::Cmp {
            src: src.into(),
            dst: dst.into(),
        })
    }

    /// `jmp label`
    pub fn jmp(&mut self, label: impl Into<String>) -> &mut Self {
        self.push(Inst::Jmp {
            target: Target::label(label),
        })
    }

    /// `jcc label`
    pub fn jcc(&mut self, cond: Cond, label: impl Into<String>) -> &mut Self {
        self.push(Inst::Jcc {
            cond,
            target: Target::label(label),
        })
    }

    /// `call label`
    pub fn call(&mut self, label: impl Into<String>) -> &mut Self {
        self.push(Inst::Call {
            target: Target::label(label),
        })
    }

    /// `ret`
    pub fn ret(&mut self) -> &mut Self {
        self.push(Inst::Ret)
    }

    /// `fork label`
    pub fn fork(&mut self, label: impl Into<String>) -> &mut Self {
        self.push(Inst::Fork {
            target: Target::label(label),
        })
    }

    /// `endfork`
    pub fn endfork(&mut self) -> &mut Self {
        self.push(Inst::EndFork)
    }

    /// `out src`
    pub fn out(&mut self, src: impl Into<Operand>) -> &mut Self {
        self.push(Inst::Out { src: src.into() })
    }

    /// `halt`
    pub fn halt(&mut self) -> &mut Self {
        self.push(Inst::Halt)
    }

    /// Finalises the program: resolves labels and data symbols and
    /// validates every instruction.
    ///
    /// # Errors
    ///
    /// Returns the first structural error encountered while building
    /// (duplicate labels/symbols) or while resolving (undefined labels or
    /// symbols, out-of-range targets, invalid operand combinations).
    pub fn build(&self) -> Result<Program, IsaError> {
        if let Some(err) = self.pending_errors.first() {
            return Err(err.clone());
        }
        Program::new(self.insns.clone(), self.labels.clone(), self.data.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reg;

    #[test]
    fn duplicate_label_is_reported() {
        let mut b = ProgramBuilder::new();
        b.label("x");
        b.push(Inst::Nop);
        b.label("x");
        b.halt();
        assert_eq!(b.build().unwrap_err(), IsaError::DuplicateLabel("x".into()));
    }

    #[test]
    fn duplicate_symbol_is_reported() {
        let mut b = ProgramBuilder::new();
        b.global_data("t", &[1]);
        b.global_data("t", &[2]);
        b.halt();
        assert_eq!(
            b.build().unwrap_err(),
            IsaError::DuplicateSymbol("t".into())
        );
    }

    #[test]
    fn fresh_labels_are_unique() {
        let mut b = ProgramBuilder::new();
        let l1 = b.fresh_label("loop");
        let l2 = b.fresh_label("loop");
        assert_ne!(l1, l2);
    }

    #[test]
    fn data_layout_is_contiguous() {
        let mut b = ProgramBuilder::new();
        b.global_data("a", &[1, 2]);
        b.global_zeroed("b", 3);
        b.global_data("c", &[9]);
        b.halt();
        let p = b.build().unwrap();
        let a = p.data_address("a").unwrap();
        let bb = p.data_address("b").unwrap();
        let c = p.data_address("c").unwrap();
        assert_eq!(bb, a + 16);
        assert_eq!(c, bb + 24);
        assert_eq!(p.data_size(), 48);
    }

    #[test]
    fn builder_emits_the_paper_idioms() {
        let mut b = ProgramBuilder::new();
        b.label("sum");
        b.cmpq(Operand::imm(2), Reg::Rsi);
        b.jcc(Cond::A, ".L2");
        b.movq(Operand::mem(Reg::Rdi, 0), Reg::Rax);
        b.jcc(Cond::Ne, ".L1");
        b.alu(AluOp::Add, Operand::mem(Reg::Rdi, 8), Reg::Rax);
        b.label(".L1");
        b.endfork();
        b.label(".L2");
        b.movq(Reg::Rsi, Reg::Rbx);
        b.alu(AluOp::Shr, Operand::imm(1), Reg::Rsi);
        b.fork("sum");
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.len(), 10);
        assert_eq!(p.labels()[".L2"], 6);
        assert_eq!(p.get(8).unwrap().target().unwrap().resolved().unwrap(), 0);
    }
}
