//! The point of the unified driver: the three engines are
//! interchangeable on *what* a program computes, and differ only in the
//! timing model. Functional agreement is asserted across workloads,
//! dataset sizes and backends; the chip-size axis is swept and must
//! never slow the simulated run down.

use parsecs::cc::Backend;
use parsecs::driver::{
    DriverError, ExecutionBackend, IlpBackend, ManyCoreBackend, RunReport, SequentialBackend,
};
use parsecs::isa::Program;
use parsecs::workloads::pbbs::Benchmark;
use parsecs::workloads::{scale, sum};

/// Runs `program` on each backend in turn, failing fast.
fn run_all(
    program: &Program,
    fuel: u64,
    backends: &[&dyn ExecutionBackend],
) -> Result<Vec<RunReport>, DriverError> {
    backends
        .iter()
        .map(|backend| backend.execute_fueled(program, fuel))
        .collect()
}

/// `SimStats::forced_stall_releases` of a many-core report (the engine
/// always reports 0); 0 for the other backends.
fn forced_stall_releases(report: &RunReport) -> u64 {
    report
        .sim()
        .map_or(0, |result| result.stats.forced_stall_releases)
}

fn fork_workloads(size: usize) -> Vec<(String, Program)> {
    let data: Vec<u64> = (1..=size as u64).collect();
    vec![
        (format!("sum-{size}"), sum::fork_program(&data)),
        (
            format!("quicksort-{size}"),
            Benchmark::ComparisonSort
                .program(size, 5, Backend::Forks)
                .expect("compiles"),
        ),
        (
            format!("kruskal-{size}"),
            Benchmark::Mst
                .program(size, 5, Backend::Forks)
                .expect("compiles"),
        ),
    ]
}

#[test]
fn all_three_backends_report_identical_outputs_across_sizes() {
    for size in [12, 24, 48] {
        for (label, program) in fork_workloads(size) {
            let reports = run_all(
                &program,
                500_000_000,
                &[
                    &SequentialBackend,
                    &IlpBackend::parallel_ideal(),
                    &ManyCoreBackend::with_cores(16),
                ],
            )
            .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(reports.len(), 3);
            let reference = &reports[0].outputs;
            assert!(!reference.is_empty(), "{label}: no outputs");
            for report in &reports[1..] {
                assert_eq!(
                    &report.outputs, reference,
                    "{label}: {} disagrees with sequential",
                    report.backend
                );
                // No stall is ever released out of order: a deadlock is
                // refused as an error, never reported with timings.
                assert_eq!(
                    forced_stall_releases(report),
                    0,
                    "{label}: {} needed forced stall releases",
                    report.backend
                );
            }
        }
    }
}

#[test]
fn fork_heavy_histogram_runs_cleanly_through_the_driver() {
    // The unsorted histogram's cross-section writer chains used to lean
    // on the forced-stall-release heuristic (~1 release per key at
    // benchmark scale). Under the in-order handoff model the run must
    // complete: the engine refuses a deadlock as `SimError::Diverged`
    // ("deadlocked with no pending event"), which fails the run here.
    let (keys, buckets, seed) = (300, 8, 11);
    let program = scale::histogram_program(keys, buckets, seed);
    for cores in [1, 4, 64] {
        let report = ManyCoreBackend::with_cores(cores)
            .execute_fueled(&program, 10_000_000)
            .unwrap_or_else(|e| panic!("{cores} cores: {e}"));
        assert_eq!(
            report.outputs,
            scale::histogram_expected(keys, buckets, seed),
            "{cores} cores"
        );
        assert_eq!(forced_stall_releases(&report), 0, "{cores} cores");
    }
}

#[test]
fn sum_outputs_also_match_the_oracle_under_every_backend() {
    let data = sum::dataset(3, 11);
    let program = sum::fork_program(&data);
    let reports = run_all(
        &program,
        1_000_000,
        &[
            &SequentialBackend,
            &IlpBackend::sequential_oracle(),
            &ManyCoreBackend::with_cores(8),
        ],
    )
    .expect("runs");
    for report in &reports {
        assert_eq!(report.outputs, sum::expected(&data), "{}", report.backend);
    }
}

#[test]
fn seven_point_core_sweep_cycles_never_increase() {
    let data: Vec<u64> = (1..=40).collect();
    let program = sum::fork_program(&data);

    let mut previous_fetch = u64::MAX;
    let mut previous_total = u64::MAX;
    for cores in [1, 2, 4, 8, 16, 32, 64] {
        let report = ManyCoreBackend::with_cores(cores)
            .execute_fueled(&program, 1_000_000)
            .unwrap_or_else(|e| panic!("{cores} cores: {e}"));
        assert_eq!(report.outputs, vec![820], "{}", report.backend);
        assert_eq!(
            forced_stall_releases(&report),
            0,
            "{}: forced stall releases",
            report.backend
        );
        let fetch = report.fetch_cycles();
        assert!(
            fetch <= previous_fetch,
            "{}: fetch cycles went up ({previous_fetch} -> {fetch})",
            report.backend
        );
        assert!(
            report.cycles <= previous_total,
            "{}: total cycles went up ({previous_total} -> {})",
            report.backend,
            report.cycles
        );
        previous_fetch = fetch;
        previous_total = report.cycles;
    }
}
