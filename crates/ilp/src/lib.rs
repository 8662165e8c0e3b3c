//! # parsecs-ilp — trace-based ILP limit analysis
//!
//! This crate reimplements the methodology behind Figure 7 of
//! *"Toward a Core Design to Distribute an Execution on a Many-Core
//! Processor"* (PaCT 2015): stream a program's run through an
//! [`IlpScheduler`], which schedules every instruction at the earliest
//! cycle allowed by a configurable set of dependences, and report the
//! resulting instruction-level parallelism (instructions / cycles). The
//! run is never materialised: the scheduler is a
//! [`parsecs_machine::TraceSink`] that keeps only its location tables,
//! so one pass schedules any number of models.
//!
//! The paper contrasts two models:
//!
//! * the **sequential oracle** ([`IlpModel::sequential_oracle`]): unlimited
//!   register renaming and perfect branch prediction, but no memory
//!   renaming and full stack-pointer dependences — the "ultimate
//!   performance of actual out-of-order speculative processors" (the blue
//!   `seq` bars, ILP ≈ 3–6);
//! * the **parallel ideal** ([`IlpModel::parallel_ideal`]): every
//!   destination (registers *and* memory) renamed, control computed rather
//!   than predicted, stack-pointer dependences excluded — only
//!   producer→consumer dependences remain (the numbered bars, ILP in the
//!   hundreds to hundreds of thousands).
//!
//! ## Example
//!
//! ```
//! use parsecs_ilp::{IlpModel, IlpScheduler};
//! use parsecs_machine::Machine;
//!
//! let program = parsecs_asm::assemble(
//!     "main: movq $1, %rax
//!            movq $2, %rbx
//!            movq $3, %rcx
//!            addq %rax, %rbx
//!            addq %rax, %rcx
//!            halt",
//! ).expect("assembles");
//! let mut scheduler =
//!     IlpScheduler::new([IlpModel::parallel_ideal(), IlpModel::sequential_oracle()]);
//! Machine::load(&program)?.run_with_sink(1_000, &mut scheduler)?;
//! let results = scheduler.finish();
//! let (parallel, sequential) = (&results[0], &results[1]);
//! assert!(parallel.ilp >= sequential.ilp);
//! # Ok::<(), parsecs_machine::MachineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyzer;
mod distance;
mod location_map;
mod model;

pub use analyzer::{IlpResult, IlpScheduler};
pub use distance::{DependenceDistances, DistanceHistogram};
pub use model::IlpModel;
