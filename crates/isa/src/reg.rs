//! General purpose registers and their calling-convention classification.

use std::fmt;
use std::str::FromStr;

use crate::IsaError;

/// The sixteen 64-bit general purpose registers of the parsecs machine.
///
/// The set mirrors x86-64; the paper's listings only use `rax`, `rbx`,
/// `rdi`, `rsi` and `rsp`, but the compiler backend and the workloads use
/// the full set.
///
/// # Example
///
/// ```
/// use parsecs_isa::Reg;
/// assert!(Reg::Rbx.is_callee_saved());
/// assert!(!Reg::Rax.is_callee_saved());
/// assert_eq!(Reg::Rsp.to_string(), "%rsp");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum Reg {
    Rax,
    Rbx,
    Rcx,
    Rdx,
    Rsi,
    Rdi,
    Rbp,
    Rsp,
    R8,
    R9,
    R10,
    R11,
    R12,
    R13,
    R14,
    R15,
}

impl Reg {
    /// All registers in index order.
    pub const ALL: [Reg; 16] = [
        Reg::Rax,
        Reg::Rbx,
        Reg::Rcx,
        Reg::Rdx,
        Reg::Rsi,
        Reg::Rdi,
        Reg::Rbp,
        Reg::Rsp,
        Reg::R8,
        Reg::R9,
        Reg::R10,
        Reg::R11,
        Reg::R12,
        Reg::R13,
        Reg::R14,
        Reg::R15,
    ];

    /// Number of architectural registers.
    pub const COUNT: usize = 16;

    /// Dense index of the register, `0..16`.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`Reg::index`].
    ///
    /// Returns `None` when `index >= 16`.
    pub fn from_index(index: usize) -> Option<Reg> {
        Reg::ALL.get(index).copied()
    }

    /// Callee-saved ("non volatile") registers per the System V AMD64 ABI.
    ///
    /// The paper's `fork` copies exactly these registers (plus the stack
    /// pointer) to the forked section, replacing the stack save/restore
    /// pairs of the `call` version.
    pub fn is_callee_saved(self) -> bool {
        matches!(
            self,
            Reg::Rbx | Reg::Rbp | Reg::Rsp | Reg::R12 | Reg::R13 | Reg::R14 | Reg::R15
        )
    }

    /// Registers copied to a forked section by the paper's `fork`
    /// instruction.
    ///
    /// The paper copies "the stack pointer and the set of non volatile
    /// registers" and, in its running example, counts `%rdi` and `%rsi`
    /// among them (they are the registers the original call-based code
    /// saves and restores around calls). We therefore copy the callee-saved
    /// registers *plus* the argument registers; only the result register
    /// `%rax` and the scratch registers `%r10`/`%r11` are emptied and must
    /// be obtained through renaming — which is exactly the paper's
    /// `%rax` forwarding example.
    pub fn is_fork_copied(self) -> bool {
        self.is_callee_saved() || Reg::ARG_REGS.contains(&self)
    }

    /// The registers used to pass the first six integer arguments.
    pub const ARG_REGS: [Reg; 6] = [Reg::Rdi, Reg::Rsi, Reg::Rdx, Reg::Rcx, Reg::R8, Reg::R9];

    /// gas-style name without the `%` sigil (e.g. `"rax"`).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Reg::Rax => "rax",
            Reg::Rbx => "rbx",
            Reg::Rcx => "rcx",
            Reg::Rdx => "rdx",
            Reg::Rsi => "rsi",
            Reg::Rdi => "rdi",
            Reg::Rbp => "rbp",
            Reg::Rsp => "rsp",
            Reg::R8 => "r8",
            Reg::R9 => "r9",
            Reg::R10 => "r10",
            Reg::R11 => "r11",
            Reg::R12 => "r12",
            Reg::R13 => "r13",
            Reg::R14 => "r14",
            Reg::R15 => "r15",
        }
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.name())
    }
}

impl FromStr for Reg {
    type Err = IsaError;

    /// Parses a register name with or without the leading `%`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let name = s.strip_prefix('%').unwrap_or(s);
        Reg::ALL
            .iter()
            .copied()
            .find(|r| r.name() == name)
            .ok_or_else(|| IsaError::UnknownRegister(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for (i, r) in Reg::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
            assert_eq!(Reg::from_index(i), Some(*r));
        }
        assert_eq!(Reg::from_index(16), None);
    }

    #[test]
    fn parse_roundtrip() {
        for r in Reg::ALL {
            assert_eq!(r.to_string().parse::<Reg>().unwrap(), r);
            assert_eq!(r.name().parse::<Reg>().unwrap(), r);
        }
        assert!("xyz".parse::<Reg>().is_err());
        assert!("%xmm0".parse::<Reg>().is_err());
    }

    #[test]
    fn sysv_volatility() {
        let callee_saved: Vec<Reg> = Reg::ALL
            .into_iter()
            .filter(|r| r.is_callee_saved())
            .collect();
        assert_eq!(
            callee_saved,
            vec![
                Reg::Rbx,
                Reg::Rbp,
                Reg::Rsp,
                Reg::R12,
                Reg::R13,
                Reg::R14,
                Reg::R15
            ]
        );
    }

    #[test]
    fn arg_registers_are_volatile() {
        for r in Reg::ARG_REGS.into_iter().chain([Reg::Rax]) {
            assert!(!r.is_callee_saved(), "{r} must be volatile");
        }
    }

    #[test]
    fn fork_copied_set_matches_the_paper() {
        // The paper's example copies rbx, rdi, rsi and the stack pointer;
        // the result register rax travels through renaming instead.
        for r in [Reg::Rbx, Reg::Rdi, Reg::Rsi, Reg::Rsp, Reg::Rbp, Reg::R12] {
            assert!(r.is_fork_copied(), "{r} must be copied at fork");
        }
        for r in [Reg::Rax, Reg::R10, Reg::R11] {
            assert!(!r.is_fork_copied(), "{r} must be emptied at fork");
        }
    }
}
