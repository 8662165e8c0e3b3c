//! # parsecs-driver — one API over the three engines
//!
//! The paper's evaluation runs the *same* programs through three engines:
//! the sequential reference machine (Figures 2–4), the trace-based ILP
//! limit analyzer (Figure 7), and the many-core sectioned simulator
//! (Figure 10, §5). This crate gives those engines one uniform surface:
//!
//! * [`ExecutionBackend`] — `execute_fueled(&Program, fuel) -> RunReport`,
//!   implemented by [`SequentialBackend`], [`IlpBackend`] and
//!   [`ManyCoreBackend`];
//! * [`RunReport`] — the shared result shape (outputs, dynamic
//!   instruction count, cycles, fetch/retire IPC) plus a typed
//!   [`ReportDetail`] carrying each engine's extras.
//!
//! ## Example: one program, all three engines
//!
//! ```
//! use parsecs_driver::{ExecutionBackend, IlpBackend, ManyCoreBackend, SequentialBackend};
//! use parsecs_workloads::sum;
//!
//! let program = sum::fork_program(&[4, 2, 6, 4, 5]);
//! let backends: [&dyn ExecutionBackend; 3] = [
//!     &SequentialBackend,
//!     &IlpBackend::parallel_ideal(),
//!     &ManyCoreBackend::with_cores(8),
//! ];
//! for backend in backends {
//!     let report = backend.execute_fueled(&program, 100_000)?;
//!     println!("{report}");
//!     assert_eq!(report.outputs, vec![21]);
//! }
//! # Ok::<(), parsecs_driver::DriverError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod error;
mod report;

pub use backend::{ExecutionBackend, IlpBackend, ManyCoreBackend, SequentialBackend};
pub use error::DriverError;
pub use report::{ReportDetail, RunReport};
