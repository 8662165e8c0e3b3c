//! Label-resolved program container.

use std::collections::BTreeMap;
use std::fmt;

use crate::{Inst, IsaError, Operand, DATA_BASE};

/// One initialised data object in the program's data segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataItem {
    /// Symbol name (e.g. `"t"`).
    pub name: String,
    /// Byte offset of the object inside the data segment.
    pub offset: u64,
    /// Initial 64-bit words.
    pub words: Vec<u64>,
}

impl DataItem {
    /// Absolute virtual address of the object.
    pub(crate) fn address(&self) -> u64 {
        DATA_BASE + self.offset
    }
}

/// A complete program: instructions, code labels, and an initialised data
/// segment with named symbols.
///
/// Code addresses are instruction indices. The entry point defaults to the
/// `main` label (or instruction 0 when there is no `main`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    insns: Vec<Inst>,
    labels: BTreeMap<String, usize>,
    data: Vec<DataItem>,
    entry: usize,
}

impl Program {
    /// Builds a program from parts and resolves every symbolic target and
    /// data symbol.
    ///
    /// # Errors
    ///
    /// Returns an error if a label or data symbol is undefined, a target is
    /// out of range, or an instruction has invalid operands.
    pub(crate) fn new(
        insns: Vec<Inst>,
        labels: BTreeMap<String, usize>,
        data: Vec<DataItem>,
    ) -> Result<Program, IsaError> {
        let entry = labels.get("main").copied().unwrap_or(0);
        let mut program = Program {
            insns,
            labels,
            data,
            entry,
        };
        program.resolve()?;
        Ok(program)
    }

    /// Resolves symbolic branch targets and data symbols in place and
    /// validates every instruction.
    fn resolve(&mut self) -> Result<(), IsaError> {
        let len = self.insns.len();
        let labels = self.labels.clone();
        let symbols: BTreeMap<String, u64> = self
            .data
            .iter()
            .map(|d| (d.name.clone(), d.address()))
            .collect();

        for (at, inst) in self.insns.iter_mut().enumerate() {
            inst.validate()?;
            if let Some(target) = inst.target_mut() {
                if target.index.is_none() {
                    let index = *labels
                        .get(&target.label)
                        .ok_or_else(|| IsaError::UndefinedLabel(target.label.clone()))?;
                    target.index = Some(index);
                }
                let index = target.index.expect("just resolved");
                if index >= len {
                    return Err(IsaError::TargetOutOfRange {
                        at,
                        target: index,
                        len,
                    });
                }
            }
            // Resolve data symbols to absolute immediates.
            resolve_symbols(inst, &symbols)?;
        }
        if self.entry >= len && len != 0 {
            return Err(IsaError::TargetOutOfRange {
                at: 0,
                target: self.entry,
                len,
            });
        }
        Ok(())
    }

    /// The instructions of the program.
    pub fn insns(&self) -> &[Inst] {
        &self.insns
    }

    /// The instruction at `index`, if any.
    pub fn get(&self, index: usize) -> Option<&Inst> {
        self.insns.get(index)
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// Entry point (instruction index).
    pub fn entry(&self) -> usize {
        self.entry
    }

    /// The code labels, sorted by name.
    pub fn labels(&self) -> &BTreeMap<String, usize> {
        &self.labels
    }

    /// The label attached to an instruction index, if any (first label in
    /// alphabetical order when several share the index).
    pub(crate) fn label_at(&self, index: usize) -> Option<&str> {
        self.labels
            .iter()
            .find(|(_, i)| **i == index)
            .map(|(name, _)| name.as_str())
    }

    /// The initialised data objects.
    pub fn data(&self) -> &[DataItem] {
        &self.data
    }

    /// Looks up a data symbol's absolute address.
    pub fn data_address(&self, name: &str) -> Option<u64> {
        self.data
            .iter()
            .find(|d| d.name == name)
            .map(|d| d.address())
    }

    /// Total size of the initialised data segment, in bytes.
    pub fn data_size(&self) -> u64 {
        self.data
            .iter()
            .map(|d| d.offset + 8 * d.words.len() as u64)
            .max()
            .unwrap_or(0)
    }

    /// Iterates over `(address, initial value)` pairs of the data segment.
    pub fn data_words(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.data.iter().flat_map(|d| {
            d.words
                .iter()
                .enumerate()
                .map(move |(i, w)| (d.address() + 8 * i as u64, *w))
        })
    }
}

fn resolve_symbols(inst: &mut Inst, symbols: &BTreeMap<String, u64>) -> Result<(), IsaError> {
    let fix = |op: &mut Operand| -> Result<(), IsaError> {
        if let Operand::Sym(name) = op {
            let addr = symbols
                .get(name.as_str())
                .ok_or_else(|| IsaError::UndefinedSymbol(name.clone()))?;
            *op = Operand::Imm(*addr as i64);
        }
        Ok(())
    };
    match inst {
        Inst::Mov { src, dst }
        | Inst::Alu { src, dst, .. }
        | Inst::Cmp { src, dst }
        | Inst::Test { src, dst } => {
            fix(src)?;
            fix(dst)?;
        }
        Inst::Push { src } | Inst::Out { src } => fix(src)?,
        Inst::Pop { dst } | Inst::Unary { dst, .. } => fix(dst)?,
        _ => {}
    }
    Ok(())
}

impl fmt::Display for Program {
    /// Pretty-prints the program in the gas-like layout of the paper's
    /// listings: labels in the left margin, one instruction per line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for item in &self.data {
            let words: Vec<String> = item.words.iter().map(u64::to_string).collect();
            writeln!(f, "{}: .quad {}", item.name, words.join(", "))?;
        }
        for (i, inst) in self.insns.iter().enumerate() {
            let label = self
                .label_at(i)
                .map(|l| format!("{l}:"))
                .unwrap_or_default();
            writeln!(f, "{label:<8}{inst}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AluOp, Cond, ProgramBuilder, Reg, Target};

    fn sample() -> Program {
        let mut b = ProgramBuilder::new();
        b.global_data("t", &[10, 20, 30]);
        b.label("main");
        b.movq(Operand::sym("t"), Reg::Rdi);
        b.movq(Operand::imm(3), Reg::Rsi);
        b.label("loop");
        b.alu(AluOp::Sub, Operand::imm(1), Reg::Rsi);
        b.jcc(Cond::Ne, "loop");
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn labels_and_entry_resolve() {
        let p = sample();
        assert_eq!(p.len(), 5);
        assert_eq!(p.entry(), 0);
        assert_eq!(p.labels()["loop"], 2);
        assert_eq!(p.label_at(2), Some("loop"));
        assert_eq!(p.label_at(4), None);
        let target = p.get(3).unwrap().target().unwrap();
        assert_eq!(target.resolved().unwrap(), 2);
    }

    #[test]
    fn data_symbols_resolve_to_addresses() {
        let p = sample();
        assert_eq!(p.data_address("t"), Some(DATA_BASE));
        assert_eq!(p.data_size(), 24);
        let words: Vec<(u64, u64)> = p.data_words().collect();
        assert_eq!(
            words,
            vec![(DATA_BASE, 10), (DATA_BASE + 8, 20), (DATA_BASE + 16, 30)]
        );
        // The `$t` operand became an absolute immediate.
        match p.get(0).unwrap() {
            Inst::Mov {
                src: Operand::Imm(v),
                ..
            } => assert_eq!(*v as u64, DATA_BASE),
            other => panic!("unexpected instruction {other:?}"),
        }
    }

    #[test]
    fn undefined_label_is_rejected() {
        let insns = vec![Inst::Jmp {
            target: Target::label("nowhere"),
        }];
        let err = Program::new(insns, BTreeMap::new(), Vec::new()).unwrap_err();
        assert_eq!(err, IsaError::UndefinedLabel("nowhere".into()));
    }

    #[test]
    fn undefined_symbol_is_rejected() {
        let insns = vec![Inst::Mov {
            src: Operand::sym("ghost"),
            dst: Operand::Reg(Reg::Rax),
        }];
        let err = Program::new(insns, BTreeMap::new(), Vec::new()).unwrap_err();
        assert_eq!(err, IsaError::UndefinedSymbol("ghost".into()));
    }

    #[test]
    fn out_of_range_target_is_rejected() {
        let insns = vec![Inst::Jmp {
            target: Target {
                label: "far".into(),
                index: Some(10),
            },
        }];
        let err = Program::new(insns, BTreeMap::new(), Vec::new()).unwrap_err();
        assert!(matches!(err, IsaError::TargetOutOfRange { target: 10, .. }));
    }

    #[test]
    fn invalid_operands_are_rejected_at_build_time() {
        let mem = Operand::mem(Reg::Rsp, 0);
        let insns = vec![Inst::Mov {
            src: mem.clone(),
            dst: mem,
        }];
        assert!(matches!(
            Program::new(insns, BTreeMap::new(), Vec::new()),
            Err(IsaError::InvalidOperands { .. })
        ));
    }

    #[test]
    fn display_shows_labels_and_data() {
        let p = sample();
        let text = p.to_string();
        assert!(text.contains("t:"));
        assert!(text.contains(".quad 10"));
        assert!(text.contains("main:"));
        assert!(text.contains("loop:"));
        assert!(text.contains("subq"));
    }

    #[test]
    fn entry_defaults_to_main() {
        let mut b = ProgramBuilder::new();
        b.push(Inst::Nop);
        b.label("main");
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.entry(), 1);
    }
}
