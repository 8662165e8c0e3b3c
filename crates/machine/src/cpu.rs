//! Architectural CPU state: registers, flags, instruction pointer.

use parsecs_isa::{Flags, MemRef, Reg, STACK_TOP};

/// The architectural register state of one flow of control.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CpuState {
    regs: [u64; Reg::COUNT],
    /// Arithmetic flags.
    pub(crate) flags: Flags,
    /// Instruction pointer (instruction index).
    pub(crate) ip: usize,
}

impl CpuState {
    /// A fresh state: all registers zero except `%rsp`, which points to
    /// [`STACK_TOP`], flags cleared, `ip` at `entry`.
    pub(crate) fn at_entry(entry: usize) -> CpuState {
        let mut s = CpuState {
            regs: [0; Reg::COUNT],
            flags: Flags::default(),
            ip: entry,
        };
        s.set(Reg::Rsp, STACK_TOP);
        s
    }

    /// Reads a register.
    pub(crate) fn get(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes a register.
    pub(crate) fn set(&mut self, r: Reg, value: u64) {
        self.regs[r.index()] = value;
    }

    /// Computes the effective address of a memory reference with the
    /// current register values.
    pub(crate) fn effective_address(&self, m: &MemRef) -> u64 {
        let base = m.base.map(|r| self.get(r)).unwrap_or(0);
        let index = m.index.map(|r| self.get(r)).unwrap_or(0);
        base.wrapping_add(index.wrapping_mul(m.scale as u64))
            .wrapping_add(m.disp as u64)
    }

    /// Snapshot of the registers copied to a forked section (the stack
    /// pointer plus the paper's non-volatile set, see
    /// [`Reg::is_fork_copied`]).
    pub(crate) fn fork_copied(&self) -> Vec<(Reg, u64)> {
        Reg::ALL
            .into_iter()
            .filter(|r| r.is_fork_copied())
            .map(|r| (r, self.get(r)))
            .collect()
    }
}

impl Default for CpuState {
    fn default() -> CpuState {
        CpuState::at_entry(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_state_has_stack_pointer() {
        let s = CpuState::at_entry(3);
        assert_eq!(s.ip, 3);
        assert_eq!(s.get(Reg::Rsp), STACK_TOP);
        assert_eq!(s.get(Reg::Rax), 0);
    }

    #[test]
    fn effective_address_combines_base_index_scale_disp() {
        let mut s = CpuState::default();
        s.set(Reg::Rdi, 0x1000);
        s.set(Reg::Rsi, 3);
        let m = MemRef::base_index_scale(Reg::Rdi, Reg::Rsi, 8, 16);
        assert_eq!(s.effective_address(&m), 0x1000 + 24 + 16);
        let m = MemRef::base_disp(Reg::Rdi, -8);
        assert_eq!(s.effective_address(&m), 0x1000 - 8);
        let m = MemRef::absolute(0x2000);
        assert_eq!(s.effective_address(&m), 0x2000);
    }
}
