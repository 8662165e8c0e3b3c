//! # parsecs-machine — the sequential reference machine
//!
//! This crate executes [`parsecs_isa::Program`]s the way a conventional
//! single-core processor would, and streams each executed instruction
//! into a [`TraceSink`]. It is the *substrate* of the reproduction:
//!
//! * it provides the reference semantics against which the many-core
//!   section simulator (`parsecs-core`) is validated;
//! * its instruction stream feeds the ILP limit analyzer (`parsecs-ilp`),
//!   i.e. the methodology behind Figure 7 of the paper, and the streaming
//!   sectioner (`parsecs-trace`);
//! * it gives `fork`/`endfork` programs a *sequentialised* depth-first
//!   semantics (the paper's section total order), so that fork-transformed
//!   programs can be checked for functional equivalence with their
//!   `call`/`ret` originals.
//!
//! ## Example
//!
//! ```
//! use parsecs_machine::Machine;
//!
//! let program = parsecs_asm::assemble(
//!     "t:    .quad 4, 2, 6, 4, 5
//!      main: movq $t, %rdi
//!            movq (%rdi), %rax
//!            addq 8(%rdi), %rax
//!            out  %rax
//!            halt",
//! ).expect("assembles");
//! let mut machine = Machine::load(&program)?;
//! let outcome = machine.run(1_000)?;
//! assert_eq!(outcome.outputs, vec![6]);
//! # Ok::<(), parsecs_machine::MachineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cpu;
mod error;
mod exec;
mod memory;
mod trace;

pub use error::MachineError;
pub use exec::{Machine, Outcome};
pub use trace::{Location, TraceKind, TraceSink, TraceStep};
