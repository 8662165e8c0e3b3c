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
//! | `repro_ablation` | design-choice ablations (cores, NoC latency, placement, fetch stalls), run as a parallel `Sweep`; `--json [PATH]` emits `BENCH_sweep.json` |
//! | `repro_perf` | event-driven vs cycle-stepping engine wall clock on ≥1M-instruction workloads, plus the streaming front-end pipeline time and arena footprint; `--json [PATH]` emits `BENCH_sim.json` |
//! | `repro_scale` | the 256–1024-core, ≥10M-instruction scale table over the streaming arena pipeline; `--json [PATH]` emits `BENCH_scale.json` |
//!
//! The benches (`cargo bench -p parsecs-bench`) measure the throughput of
//! the three engines themselves (reference machine, ILP analyzer,
//! many-core simulator) so regressions in the reproduction infrastructure
//! are visible.
//!
//! This crate's library exposes the small amount of shared code the
//! binaries use — dataset sweeps and ILP measurement for a workload,
//! the [`json`] emission module every `BENCH_*.json` goes through, the
//! [`harness`] the perf bins measure with (flags, best-of timer, Chrome
//! trace, gates), and the [`AttributionTotals`] cycle-telemetry summary —
//! built on the unified [`parsecs_driver`] backends.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod json;

use parsecs_cc::Backend;
use parsecs_core::{CoreBreakdown, StallCause};
use parsecs_driver::{ExecutionBackend, SequentialBackend};
use parsecs_ilp::{analyze, IlpModel};
use parsecs_machine::Trace;
use parsecs_workloads::pbbs::Benchmark;

/// Fuel used for tracing the embedded benchmarks.
pub const TRACE_FUEL: u64 = 2_000_000_000;

/// Chip-wide sums of the per-core cycle attribution table
/// ([`parsecs_core::SimStats::attribution`]): where the whole chip's
/// `cores × total_cycles` budget went, additive across the four buckets
/// (`busy + stalled + parked + idle == cores × total_cycles`).
///
/// The scale binaries surface these sums — plus the fetch-slot
/// occupancy — on every JSON row through
/// [`AttributionTotals::append_fields`], so the telemetry schema stays
/// identical across `BENCH_sim.json` and `BENCH_scale.json`.
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

/// Traces one benchmark instance through the [`SequentialBackend`].
///
/// # Panics
///
/// Panics if the embedded benchmark fails to compile or run, or disagrees
/// with its Rust oracle — all would be bugs in the workload definitions.
pub fn trace_benchmark(benchmark: Benchmark, size: usize, seed: u64) -> Trace {
    let program = benchmark
        .program(size, seed, Backend::Calls)
        .expect("embedded benchmarks compile");
    let report = SequentialBackend
        .execute_fueled(&program, TRACE_FUEL)
        .expect("programs halt");
    assert_eq!(
        report.outputs,
        benchmark.expected(size, seed),
        "{} disagrees with its oracle",
        benchmark.name()
    );
    match report.detail {
        parsecs_driver::ReportDetail::Trace(trace) => trace,
        other => unreachable!("sequential backend always yields a trace, got {other:?}"),
    }
}

/// Measures one benchmark instance under the paper's two ILP models.
///
/// The expensive part — the oracle-checked functional trace — runs once
/// (through [`trace_benchmark`]); both models then schedule the same
/// trace.
///
/// # Panics
///
/// Panics if the embedded benchmark fails to compile or run, or disagrees
/// with its Rust oracle — all would be bugs in the workload definitions.
pub fn ilp_row(benchmark: Benchmark, size: usize, seed: u64) -> IlpRow {
    let trace = trace_benchmark(benchmark, size, seed);
    let parallel = analyze(&trace, &IlpModel::parallel_ideal());
    let sequential = analyze(&trace, &IlpModel::sequential_oracle());
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

/// Spearman rank correlation between two paired samples, with average
/// ranks for ties — the score `arena_check` gates the list-schedule
/// predictor on (`predicted_cycles` vs measured cycles).
///
/// Returns `None` when the samples are shorter than two pairs, have
/// mismatched lengths, or either side is constant (rank variance zero —
/// correlation is undefined there).
pub fn spearman(a: &[f64], b: &[f64]) -> Option<f64> {
    if a.len() != b.len() || a.len() < 2 {
        return None;
    }
    let ra = average_ranks(a);
    let rb = average_ranks(b);
    pearson(&ra, &rb)
}

/// Average (fractional) ranks of `values`, 1-based; tied values share
/// the mean of the rank range they occupy.
fn average_ranks(values: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&i, &j| values[i].partial_cmp(&values[j]).expect("finite samples"));
    let mut ranks = vec![0.0; values.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        // Positions i..=j (0-based) share the average of ranks i+1..=j+1.
        let shared = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            ranks[idx] = shared;
        }
        i = j + 1;
    }
    ranks
}

/// Pearson correlation of two equal-length samples; `None` when either
/// side has zero variance.
fn pearson(a: &[f64], b: &[f64]) -> Option<f64> {
    let n = a.len() as f64;
    let mean_a = a.iter().sum::<f64>() / n;
    let mean_b = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut var_a = 0.0;
    let mut var_b = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - mean_a) * (y - mean_b);
        var_a += (x - mean_a).powi(2);
        var_b += (y - mean_b).powi(2);
    }
    if var_a == 0.0 || var_b == 0.0 {
        return None;
    }
    Some(cov / (var_a * var_b).sqrt())
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
    fn spearman_scores_monotone_and_reversed_relations() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let up = [10.0, 20.0, 25.0, 70.0, 300.0];
        let down = [5.0, 4.0, 3.0, 2.0, 1.0];
        assert_eq!(spearman(&a, &up), Some(1.0));
        assert_eq!(spearman(&a, &down), Some(-1.0));
        // Monotone up to one swapped pair: high but below 1.
        let nearly = [10.0, 20.0, 70.0, 25.0, 300.0];
        let rho = spearman(&a, &nearly).expect("defined");
        assert!(rho > 0.8 && rho < 1.0, "rho {rho}");
    }

    #[test]
    fn spearman_averages_tied_ranks() {
        let a = [1.0, 2.0, 2.0, 3.0];
        let b = [1.0, 2.5, 2.5, 4.0];
        let rho = spearman(&a, &b).expect("defined");
        assert!((rho - 1.0).abs() < 1e-12, "tied ranks align exactly: {rho}");
        assert_eq!(average_ranks(&a), vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn spearman_is_undefined_on_degenerate_samples() {
        assert_eq!(spearman(&[1.0], &[2.0]), None);
        assert_eq!(spearman(&[1.0, 2.0], &[3.0]), None);
        assert_eq!(spearman(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn ilp_row_reproduces_the_papers_ordering() {
        let row = ilp_row(Benchmark::IntegerSort, 48, 1);
        assert!(row.parallel_ilp > row.sequential_ilp);
        assert!(row.instructions > 100);
    }

    #[test]
    fn trace_benchmark_yields_the_full_trace() {
        let trace = trace_benchmark(Benchmark::IntegerSort, 48, 1);
        assert!(trace.len() > 100);
    }
}
