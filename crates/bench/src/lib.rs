//! # parsecs-bench — the reproduction harness
//!
//! One binary per evaluation artefact of the paper (run them with
//! `cargo run -p parsecs-bench --release --bin <name>`):
//!
//! | binary | paper artefact |
//! |--------|----------------|
//! | `repro_table1` | Table 1 — the ten PBBS benchmarks |
//! | `repro_fig3_fig6_traces` | Figures 3, 4 and 6 — the sum traces and sections |
//! | `repro_fig7_ilp` | Figure 7 — sequential vs parallel ILP across datasets |
//! | `repro_fig10_timing` | Figure 10 — per-stage timing of `sum(t,5)` on one core per section |
//! | `repro_sec5_analytic` | §5 — closed-form model vs simulated fetch/retire IPC |
//! | `repro_ablation` | design-choice ablations (cores, NoC latency, placement, fetch stalls), run as one `Sweep`; `--json [PATH]` emits `BENCH_sweep.json` |
//! | `repro_perf` | event-driven engine wall clock on ≥1M-instruction workloads, plus the streaming front-end pipeline time and arena footprint; `--json [PATH]` emits `BENCH_sim.json` |
//!
//! This crate's library exposes the small amount of shared code the
//! binaries use — dataset sweeps and ILP measurement for a workload,
//! the [`json`] emission module every `BENCH_*.json` goes through, the
//! [`harness`] the perf bins measure with (flags, best-of timer, Chrome
//! trace, gates), and the [`AttributionTotals`] cycle-telemetry summary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod json;

use parsecs_cc::Backend;
use parsecs_ilp::{IlpModel, IlpResult, IlpScheduler};
use parsecs_machine::Machine;
use parsecs_obs::{CoreBreakdown, StallCause};
use parsecs_workloads::pbbs::Benchmark;

/// Fuel used for running the embedded benchmarks.
pub(crate) const TRACE_FUEL: u64 = 2_000_000_000;

/// Chip-wide sums of the per-core cycle attribution table
/// ([`parsecs_core::SimStats::attribution`]): where the whole chip's
/// `cores × total_cycles` budget went, additive across the four buckets
/// (`busy + stalled + parked + idle == cores × total_cycles`).
///
/// `repro_perf` surfaces these sums — plus the fetch-slot occupancy — on
/// every `BENCH_sim.json` row through
/// [`AttributionTotals::append_fields`]; the benchmark reads the same
/// sums.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AttributionTotals {
    /// Cycles with an instruction fetch (or section dequeue) in a slot.
    pub busy: u64,
    /// In-place stall cycles, split by [`StallCause`] (indexed by
    /// [`StallCause::index`]).
    pub stalled: [u64; StallCause::COUNT],
    /// Cycles with only parked sections on a core.
    pub parked: u64,
    /// Cycles with an empty, section-less core.
    pub idle: u64,
}

impl AttributionTotals {
    /// Sums the per-core breakdowns into chip-wide totals.
    pub fn from_cores(attribution: &[CoreBreakdown]) -> AttributionTotals {
        let mut totals = AttributionTotals::default();
        for core in attribution {
            totals.busy += core.busy;
            for (sum, &cycles) in totals.stalled.iter_mut().zip(&core.stalled) {
                *sum += cycles;
            }
            totals.parked += core.parked;
            totals.idle += core.idle;
        }
        totals
    }

    /// Total in-place stall cycles across all causes.
    pub fn stalled_total(&self) -> u64 {
        self.stalled.iter().sum()
    }

    /// Appends the shared cycle-telemetry fields to a JSON row:
    /// `occupancy` (four decimals), the four bucket totals, and a nested
    /// `stall_cycles_by_cause` object keyed by [`StallCause::name`].
    pub fn append_fields(&self, row: json::Obj, occupancy: f64) -> json::Obj {
        let by_cause = StallCause::ALL
            .iter()
            .fold(json::Obj::new(), |obj, cause| {
                obj.field(cause.name(), self.stalled[cause.index()])
            })
            .build();
        row.fixed("occupancy", occupancy, 4)
            .field("busy_cycles", self.busy)
            .field("stall_cycles", self.stalled_total())
            .field("stall_cycles_by_cause", by_cause)
            .field("parked_cycles", self.parked)
            .field("idle_cycles", self.idle)
    }
}

/// The ILP of one benchmark instance under both of the paper's models.
#[derive(Debug, Clone, PartialEq)]
pub struct IlpRow {
    /// Benchmark measured.
    pub benchmark: Benchmark,
    /// Problem size (elements / nodes / points).
    pub size: usize,
    /// Dynamic instructions in the trace.
    pub instructions: u64,
    /// Parallel-model ILP (the paper's numbered bars).
    pub parallel_ilp: f64,
    /// Sequential-oracle ILP (the paper's `seq` bars).
    pub sequential_ilp: f64,
}

/// Measures one benchmark instance under the paper's two ILP models.
///
/// The expensive part — the oracle-checked functional run — happens once:
/// the reference machine streams it into one [`IlpScheduler`] that
/// schedules both models side by side.
///
/// # Panics
///
/// Panics if the embedded benchmark fails to compile or run, or disagrees
/// with its Rust oracle — all would be bugs in the workload definitions.
pub fn ilp_row(benchmark: Benchmark, size: usize, seed: u64) -> IlpRow {
    let program = benchmark
        .program(size, seed, Backend::Calls)
        .expect("embedded benchmarks compile");
    let mut scheduler =
        IlpScheduler::new([IlpModel::parallel_ideal(), IlpModel::sequential_oracle()]);
    let outcome = Machine::load(&program)
        .and_then(|mut machine| machine.run_with_sink(TRACE_FUEL, &mut scheduler))
        .expect("programs halt");
    assert_eq!(
        outcome.outputs,
        benchmark.expected(size, seed),
        "{} disagrees with its oracle",
        benchmark.name()
    );
    let [parallel, sequential] =
        <[IlpResult; 2]>::try_from(scheduler.finish()).expect("one result per model");
    IlpRow {
        benchmark,
        size,
        instructions: parallel.instructions,
        parallel_ilp: parallel.ilp,
        sequential_ilp: sequential.ilp,
    }
}

/// The geometric dataset sweep used by the Figure 7 reproduction: the paper
/// uses eleven sizes from 1 M to 1 G dynamic instructions; we scale the
/// sweep down (`count` sizes starting at `base`, doubling), keeping the
/// doubling structure.
pub fn dataset_sweep(base: usize, count: usize) -> Vec<usize> {
    (0..count).map(|i| base << i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_totals_sum_cores_and_emit_the_shared_schema() {
        let mut a = CoreBreakdown {
            busy: 10,
            parked: 2,
            idle: 3,
            ..CoreBreakdown::default()
        };
        a.stalled[StallCause::RemoteRegister.index()] = 5;
        let mut b = CoreBreakdown {
            busy: 7,
            idle: 12,
            ..CoreBreakdown::default()
        };
        b.stalled[StallCause::RemoteMemory.index()] = 1;
        let totals = AttributionTotals::from_cores(&[a, b]);
        assert_eq!(totals.busy, 17);
        assert_eq!(totals.stalled_total(), 6);
        assert_eq!(totals.parked, 2);
        assert_eq!(totals.idle, 15);
        let row = totals.append_fields(json::Obj::new(), 0.42).build();
        assert!(row.contains("\"occupancy\": 0.4200"));
        assert!(row.contains("\"stall_cycles\": 6"));
        assert!(row.contains("\"remote_register\": 5"));
        assert!(row.contains("\"idle_cycles\": 15"));
    }

    #[test]
    fn sweep_doubles() {
        assert_eq!(dataset_sweep(16, 4), vec![16, 32, 64, 128]);
    }

    #[test]
    fn ilp_row_reproduces_the_papers_ordering() {
        let row = ilp_row(Benchmark::IntegerSort, 48, 1);
        assert!(row.parallel_ilp > row.sequential_ilp);
        assert!(row.instructions > 100);
    }
}
