//! # parsecs-core — the sectioned parallel execution model
//!
//! This crate implements the contribution of *"Toward a Core Design to
//! Distribute an Execution on a Many-Core Processor"* (Goossens, Parello,
//! Porada, Rahmoune — PaCT 2015): an execution model that distributes a
//! single sequential program over the cores of a many-core chip by cutting
//! its run into **sections** at `fork`/`endfork` instructions, and a
//! cycle-level model of the six-stage core pipeline the paper proposes
//! (fetch-decode / register-rename / execute-write-back / address-rename /
//! memory-access / retire).
//!
//! The main entry points are:
//!
//! * [`TraceArena::from_program`] (re-exported from `parsecs-trace`) —
//!   runs a fork program through the streaming sectioner, which splits
//!   its dynamic trace into the paper's totally-ordered sections and
//!   resolves every producer→consumer pair (register *and* memory
//!   renaming);
//! * [`ManyCoreSim`] — the event-driven timing model over that arena
//!   ([`ManyCoreSim::simulate_arena`], [`ManyCoreSim::simulate_arena_probed`]):
//!   sections are placed on cores, each
//!   core fetches one instruction per cycle along its current section and
//!   computes control instead of predicting it, remote operands are
//!   obtained through renaming requests travelling over the NoC, and each
//!   section retires in order. The result is a per-instruction, per-stage
//!   cycle table — the reproduction of the paper's Figure 10 — plus
//!   aggregate fetch/retire IPC.
//! * [`analytic`] — the closed-form §5 model of the `sum` example
//!   (instruction count, fetch time, retirement time).
//!
//! ## Example
//!
//! ```
//! use parsecs_core::{ManyCoreSim, SimConfig, TraceArena};
//!
//! // The paper's Figure 5: sum with fork/endfork, summing 5 elements.
//! let program = parsecs_asm::assemble(
//!     "t:   .quad 4, 2, 6, 4, 5
//!      main: movq $t, %rdi
//!            movq $5, %rsi
//!            fork sum
//!            out  %rax
//!            halt
//!      sum:  cmpq $2, %rsi
//!            ja .L2
//!            movq (%rdi), %rax
//!            jne .L1
//!            addq 8(%rdi), %rax
//!      .L1:  endfork
//!      .L2:  movq %rsi, %rbx
//!            shrq %rsi
//!            fork sum
//!            subq $8, %rsp
//!            movq %rax, 0(%rsp)
//!            leaq (%rdi,%rsi,8), %rdi
//!            subq %rsi, %rbx
//!            movq %rbx, %rsi
//!            fork sum
//!            addq 0(%rsp), %rax
//!            addq $8, %rsp
//!            endfork",
//! ).expect("assembles");
//! let arena = TraceArena::from_program(&program, 10_000).expect("runs");
//! let result = ManyCoreSim::new(SimConfig::default())
//!     .simulate_arena(&arena)
//!     .expect("simulates");
//! assert_eq!(result.outputs, vec![21]);
//! assert!(result.stats.sections >= 5);
//! assert!(result.stats.fetch_ipc > 1.0, "parallel fetch exceeds one instruction per cycle");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
mod chip;
mod config;
mod drain;
mod error;
mod placement;
mod schedule;
mod sim;
mod timing;

pub use config::SimConfig;
pub use error::SimError;
pub use placement::{ChipView, Placement, SectionDeps};
pub use sim::{ManyCoreSim, SimResult};
pub use timing::{format_figure10, InstTiming, SimStats, StageTable};
// The static-analysis vocabulary of `parsecs-check`; re-exported so
// callers of the validated simulation paths ([`SimConfig::validate`],
// [`SimResult::check`], [`SimError::Invariant`]) can consume the reports
// without a separate dependency.
pub use parsecs_check::{
    bound_schedule, check_arena, prove_progress, BindingTerm, CheckReport, ChipModel,
    InvariantViolation, Progress, ScheduleBounds, StaticBounds, WaitEdge, WaitKind,
};
// The streaming trace pipeline and the section/dependence vocabulary
// this crate's engine consumes; re-exported so simulator callers can
// build arenas without a separate dependency.
pub use parsecs_trace::{
    PackedDep, SectionId, SectionSpan, SourceDep, SourceKind, StreamingSectioner, TraceArena,
    TraceError,
};
// The telemetry vocabulary of `parsecs-obs`; re-exported so callers of
// the probed simulation paths ([`ManyCoreSim::simulate_arena_probed`],
// [`SimStats::attribution`]) can consume probes and breakdowns without a
// separate dependency.
pub use parsecs_obs::{
    ChromeTraceWriter, CoreBreakdown, CountingProbe, CycleAttribution, NoopProbe, SimProbe,
    StallCause, TickGauges,
};
