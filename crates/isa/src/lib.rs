//! # parsecs-isa — the instruction set of the parsecs machine
//!
//! This crate defines the x86-64-style instruction set used throughout the
//! `parsecs` reproduction of *"Toward a Core Design to Distribute an
//! Execution on a Many-Core Processor"* (PaCT 2015).
//!
//! The paper presents its execution model on x86-64 (gas syntax) listings
//! extended with two new instructions, `fork` and `endfork`, which replace
//! `call`/`ret` pairs to let the hardware split a run into *sections*.
//! This crate provides:
//!
//! * [`Reg`] — the sixteen general purpose registers with their System V
//!   volatility classification (the paper copies non-volatile registers to
//!   the forked path).
//! * [`Operand`], [`MemRef`] — immediates, registers and
//!   `disp(base, index, scale)` memory references.
//! * [`Inst`] — the instruction set, including [`Inst::Fork`] and
//!   [`Inst::EndFork`].
//! * [`Effects`] — per-instruction architectural read/write sets, shared by
//!   the reference machine and the streaming sectioner.
//! * [`Program`] and [`ProgramBuilder`] — label-resolved program containers.
//!
//! ## Example
//!
//! ```
//! use parsecs_isa::{ProgramBuilder, Reg, Operand};
//!
//! let mut b = ProgramBuilder::new();
//! b.global_data("t", &[1, 2, 3]);
//! b.label("main");
//! b.movq(Operand::sym("t"), Reg::Rdi);
//! b.movq(Operand::mem(Reg::Rdi, 8), Reg::Rax);
//! b.out(Reg::Rax);
//! b.halt();
//! let program = b.build().expect("labels resolve");
//! assert_eq!(program.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod effects;
mod error;
mod flags;
mod insn;
mod operand;
mod program;
mod reg;

pub use builder::ProgramBuilder;
pub use effects::{Effects, MemEffect};
pub use error::IsaError;
pub use flags::{Cond, Flags};
pub use insn::{AluOp, Inst, Target, UnaryOp};
pub use operand::{MemRef, Operand};
pub use program::{DataItem, Program};
pub use reg::Reg;

/// Base virtual address of the initialized data segment used by the loader
/// and by [`ProgramBuilder`] symbol resolution.
pub const DATA_BASE: u64 = 0x1000_0000;

/// Initial stack pointer value used by the reference machine and the
/// many-core simulator. The stack grows towards lower addresses.
pub const STACK_TOP: u64 = 0x7fff_ff00;
