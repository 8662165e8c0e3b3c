//! # parsecs — Parallel Sections Execution
//!
//! A reproduction of *"Toward a Core Design to Distribute an Execution on a
//! Many-Core Processor"* (Goossens, Parello, Porada, Rahmoune — PaCT 2015).
//!
//! This facade crate re-exports the workspace crates so that examples and
//! integration tests can use a single dependency:
//!
//! * [`isa`] — the x86-64-style instruction set with the paper's
//!   `fork`/`endfork` extension.
//! * [`asm`] — gas-syntax assembler and pretty printer.
//! * [`machine`] — sequential reference machine, streaming each executed
//!   instruction into a [`machine::TraceSink`].
//! * [`trace`] — the streaming arena-backed trace pipeline: the machine
//!   streams retired instructions into a sectioner that renames and
//!   resolves dependences on the fly, into flat [`trace::TraceArena`]
//!   columns.
//! * [`check`] — static analysis over trace arenas: the invariant
//!   validator, the dependence-DAG critical-path / ILP-width bounds the
//!   simulator is grounded against, the config-aware progress prover
//!   ([`check::Progress`]) and the schedule analyzer
//!   ([`check::ScheduleBounds`]) whose certified NoC/placement-weighted
//!   lower bound every validated run must meet.
//! * [`ilp`] — streaming ILP limit analysis (the paper's Figure 7
//!   methodology): a sink that schedules the machine's run under several
//!   dependence models in one pass.
//! * [`noc`] — network-on-chip substrate.
//! * [`obs`] — zero-cost telemetry: the [`obs::SimProbe`] hook trait the
//!   simulator is monomorphized over, exact per-core
//!   [`obs::CycleAttribution`], and the Perfetto-loadable
//!   [`obs::ChromeTraceWriter`].
//! * [`core`] — the paper's contribution: the sectioned parallel execution
//!   model, its many-core six-stage-pipeline simulator, and the closed
//!   [`core::Placement`] set of policies deciding which core hosts each
//!   section.
//! * [`cc`] — a mini-C compiler with the call→fork transformation.
//! * [`workloads`] — the sum running example and the ten PBBS-analog
//!   benchmarks.
//! * [`driver`] — **the front door**: one [`driver::ExecutionBackend`]
//!   abstraction over the three engines (one call,
//!   `execute_fueled(&program, fuel)`).
//!
//! ## Quickstart
//!
//! Run the paper's Figure 5 program once on each engine and compare the
//! uniform [`driver::RunReport`]s:
//!
//! ```
//! use parsecs::driver::{ExecutionBackend, IlpBackend, ManyCoreBackend, SequentialBackend};
//! use parsecs::workloads::sum;
//!
//! let program = sum::fork_program(&[4, 2, 6, 4, 5]);
//! let backends: [&dyn ExecutionBackend; 3] = [
//!     &SequentialBackend,
//!     &IlpBackend::parallel_ideal(),
//!     &ManyCoreBackend::with_cores(8),
//! ];
//! let reports: Vec<_> = backends
//!     .iter()
//!     .map(|backend| backend.execute_fueled(&program, 100_000))
//!     .collect::<Result<_, _>>()
//!     .expect("all three engines run");
//! for report in &reports {
//!     assert_eq!(report.outputs, vec![21]);
//! }
//! // The many-core simulator fetches in parallel; the reference machine
//! // fetches one instruction per cycle.
//! assert!(reports[2].fetch_ipc > reports[0].fetch_ipc);
//! ```
//!
//! And sweep a design space (here: the chip-size axis), one run per
//! chip:
//!
//! ```
//! use parsecs::driver::{ExecutionBackend, ManyCoreBackend};
//! use parsecs::workloads::sum;
//!
//! let program = sum::fork_program(&(1..=20).collect::<Vec<u64>>());
//! for cores in [1, 4, 16] {
//!     let report = ManyCoreBackend::with_cores(cores).execute_fueled(&program, 100_000)?;
//!     assert_eq!(report.outputs, vec![210]);
//! }
//! # Ok::<(), parsecs::driver::DriverError>(())
//! ```

#![forbid(unsafe_code)]

pub use parsecs_asm as asm;
pub use parsecs_cc as cc;
pub use parsecs_check as check;
pub use parsecs_core as core;
pub use parsecs_driver as driver;
pub use parsecs_ilp as ilp;
pub use parsecs_isa as isa;
pub use parsecs_machine as machine;
pub use parsecs_noc as noc;
pub use parsecs_obs as obs;
pub use parsecs_trace as trace;
pub use parsecs_workloads as workloads;
