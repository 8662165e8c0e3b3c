//! The shared run report every backend produces.

use std::fmt;

use parsecs_core::SimResult;
use parsecs_ilp::IlpResult;

/// Engine-specific extras attached to a [`RunReport`].
#[derive(Debug, Clone, PartialEq)]
pub enum ReportDetail {
    /// The sequential reference machine, which has nothing to add to the
    /// shared fields.
    Sequential,
    /// The schedule produced by the ILP limit analyzer.
    Ilp(IlpResult),
    /// The full per-instruction timing of the many-core simulator
    /// (boxed to keep every report small; a recording run's stage table
    /// is columnar, 19 B/instruction more than a stats-only run, and
    /// `SimResult::timings` builds its rows on demand). For a
    /// **stats-only** run (`SimConfig::record_timings` off) the stage
    /// table is empty (`SimResult::timings_recorded` is false) —
    /// aggregate statistics are exact, but `SimResult::timings` and
    /// `SimResult::section_timings` yield no rows.
    Sim(Box<SimResult>),
}

/// What every backend reports about one program execution.
///
/// The shared fields mean the same thing across engines — `outputs` are
/// the values emitted by `out` instructions, `instructions` the dynamic
/// instruction count, `cycles` the number of cycles to the last
/// retirement under that engine's timing model — so reports from
/// different backends are directly comparable. Engine-specific extras
/// live in [`RunReport::detail`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Name of the backend that produced the report.
    pub backend: String,
    /// Values emitted by `out` instructions, in program order.
    pub outputs: Vec<u64>,
    /// Number of dynamic instructions executed.
    pub instructions: u64,
    /// Cycles to the last retirement under the backend's timing model.
    pub cycles: u64,
    /// Instructions fetched per cycle.
    pub fetch_ipc: f64,
    /// Instructions retired per cycle.
    pub retire_ipc: f64,
    /// Engine-specific extras.
    pub detail: ReportDetail,
}

impl RunReport {
    /// Cycles to the last *fetch*: the many-core simulator distinguishes
    /// fetch completion from retirement; the other engines fetch one
    /// instruction per modelled cycle.
    pub fn fetch_cycles(&self) -> u64 {
        match &self.detail {
            ReportDetail::Sim(sim) => sim.stats.fetch_cycles,
            ReportDetail::Sequential => self.instructions,
            ReportDetail::Ilp(_) => self.cycles,
        }
    }

    /// The ILP schedule, when the backend is the analyzer.
    pub fn ilp(&self) -> Option<&IlpResult> {
        match &self.detail {
            ReportDetail::Ilp(r) => Some(r),
            _ => None,
        }
    }

    /// The simulator result, when the backend is the many-core model: its
    /// `stats` (cycle attribution, footprint, NoC traffic), the
    /// stage table, and a validated run's static-analysis `check` report.
    pub fn sim(&self) -> Option<&SimResult> {
        match &self.detail {
            ReportDetail::Sim(r) => Some(r.as_ref()),
            _ => None,
        }
    }
}

impl fmt::Display for RunReport {
    /// One line: backend, instruction count, cycles, IPCs and outputs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<28} {:>10} insns {:>9} cycles  fetch IPC {:>8.2}  retire IPC {:>8.2}  outputs {:?}",
            self.backend,
            self.instructions,
            self.cycles,
            self.fetch_ipc,
            self.retire_ipc,
            self.outputs
        )
    }
}
