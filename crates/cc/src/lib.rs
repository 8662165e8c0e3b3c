//! # parsecs-cc — a mini-C compiler targeting the parsecs ISA
//!
//! The paper's promise is that *unchanged C programs* can run in parallel
//! once `call`/`ret` are replaced by `fork`/`endfork` and the hardware
//! distributes the resulting sections. This crate provides the compiler
//! side of that story for a small, C-like language ("mini-C"):
//!
//! * a lexer, parser and semantic checker for functions, `var`
//!   declarations, assignments, array indexing, `if`/`while`/`return`,
//!   calls and the usual integer operators;
//! * a code generator producing [`parsecs_isa::Program`]s with a
//!   conventional `call`/`ret` backend ([`Backend::Calls`]);
//! * the paper's **fork transformation** ([`Backend::Forks`]): every call
//!   becomes a `fork`, every return an `endfork`, and the generated code
//!   relies on register copy at fork plus register/memory renaming for all
//!   cross-section communication — exactly the Figure 2 → Figure 5
//!   rewrite, applied mechanically to whole programs.
//!
//! ## Example
//!
//! ```
//! use parsecs_cc::{compile, Backend, CompileOptions};
//! use parsecs_machine::Machine;
//!
//! let source = r#"
//!     fn square(x) { return x * x; }
//!     fn main() { out(square(6) + 6); }
//! "#;
//! let options = CompileOptions::new(Backend::Calls);
//! let program = compile(source, &options)?;
//! let mut machine = Machine::load(&program).unwrap();
//! assert_eq!(machine.run(10_000).unwrap().outputs, vec![42]);
//! # Ok::<(), parsecs_cc::CcError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod codegen;
mod error;
mod lexer;
mod parser;
mod sema;

pub use codegen::{Backend, CompileOptions};
pub use error::CcError;

use parsecs_isa::Program;

/// Compiles a mini-C source text into a machine program.
///
/// # Errors
///
/// Returns a [`CcError`] for lexical, syntactic or semantic errors, or if
/// code generation produces an invalid program (which indicates a bug and
/// is reported rather than panicking).
pub fn compile(source: &str, options: &CompileOptions) -> Result<Program, CcError> {
    let tokens = lexer::lex(source)?;
    let items = parser::parse(&tokens)?;
    sema::check(&items, options)?;
    codegen::generate(&items, options)
}
