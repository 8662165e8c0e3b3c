//! Zero-cost simulator telemetry.
//!
//! The simulator engine in `parsecs-core` is instrumented with a
//! [`SimProbe`] trait whose hooks sit at the event loop's hot seams:
//! section begin/park/requeue/retire, fetch stalls with a typed
//! [`StallCause`], NoC send/deliver, drain rounds and fetch walks. The
//! probe is a *generic parameter*, not a trait object: every engine entry
//! point is monomorphized per probe type, and the default [`NoopProbe`]
//! (with [`SimProbe::ENABLED`]` = false`) compiles every hook — and the
//! computation of its arguments — out of the binary. A `NoopProbe` run is
//! bit-identical to an uninstrumented build and within noise of its
//! performance; `repro_perf` gates this with a dedicated guard row.
//!
//! Two consumers ship with the crate:
//!
//! - [`CycleAttribution`] — an exact per-core accumulator splitting every
//!   core's `total_cycles` into additive busy / stalled-by-cause / parked
//!   / idle buckets (surfaced on `SimStats` and the bench JSON).
//! - [`ChromeTraceWriter`] — streams section-lifetime spans and fork
//!   flows as Chrome `trace_event` JSON loadable in Perfetto
//!   (`repro_perf --trace-out trace.json`).
//!
//! This crate is a leaf: hooks speak plain `usize`/`u64` ids so the probe
//! layer never depends on the engine types it observes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod attribution;
pub(crate) mod chrome;
pub(crate) mod probe;

pub use attribution::{CoreBreakdown, CycleAttribution};
pub use chrome::ChromeTraceWriter;
pub use probe::{CountingProbe, NoopProbe, SimProbe, StallCause, TickGauges};
