//! # parsecs-asm — a gas-syntax assembler for the parsecs ISA
//!
//! The paper's listings are written in AT&T/gas syntax (`addq 8(%rdi),
//! %rax`, rightmost operand is the destination). This crate turns that text
//! into a [`parsecs_isa::Program`] with [`assemble`] (labels, `.quad`
//! data, the full instruction set including `fork`/`endfork`). A
//! program's `Display` output assembles back to the same program.
//!
//! ## Example
//!
//! ```
//! let source = r#"
//!     t:      .quad 4, 2, 6, 4, 5
//!     main:   movq $t, %rdi
//!             movq $5, %rsi
//!             movq (%rdi), %rax
//!             addq 8(%rdi), %rax
//!             out  %rax
//!             halt
//! "#;
//! let program = parsecs_asm::assemble(source)?;
//! assert_eq!(program.len(), 6);
//! assert_eq!(program.data_address("t"), Some(parsecs_isa::DATA_BASE));
//! # Ok::<(), parsecs_asm::AsmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod parse;

pub use error::AsmError;
pub use parse::assemble;
