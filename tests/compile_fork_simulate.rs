//! End-to-end pipeline tests: mini-C source → compiler → (call | fork)
//! backends → reference machine / many-core simulator, checked against the
//! Rust oracles.

use parsecs::cc::Backend;
use parsecs::core::{check_arena, TraceArena};
use parsecs::driver::{ExecutionBackend, ManyCoreBackend, SequentialBackend};
use parsecs::workloads::pbbs::Benchmark;

#[test]
fn fork_compiled_benchmarks_simulate_to_the_oracle_result() {
    // The recursive benchmarks are where the fork transformation actually
    // creates sections; run them through the full many-core model.
    for benchmark in [Benchmark::ComparisonSort, Benchmark::Mst] {
        let program = benchmark.program(24, 5, Backend::Forks).unwrap();
        let report = ManyCoreBackend::with_cores(32)
            .execute_fueled(&program, 50_000_000)
            .unwrap();
        assert_eq!(
            report.outputs,
            benchmark.expected(24, 5),
            "{}",
            benchmark.name()
        );
        let stats = &report.sim().unwrap().stats;
        assert!(
            stats.sections > 4,
            "{} should fork sections",
            benchmark.name()
        );
        assert!(stats.cores_used > 1);
    }
}

#[test]
fn loop_based_benchmarks_also_run_on_the_many_core_model() {
    // Loop-only kernels stay a single section: the simulator must still
    // produce the right answer and an at-most-1 fetch IPC.
    let benchmark = Benchmark::Matching;
    let program = benchmark.program(32, 2, Backend::Forks).unwrap();
    let report = ManyCoreBackend::with_cores(8)
        .execute_fueled(&program, 50_000_000)
        .unwrap();
    assert_eq!(report.outputs, benchmark.expected(32, 2));
    assert_eq!(report.sim().unwrap().stats.sections, 1);
    assert!(report.fetch_ipc <= 1.0);
}

#[test]
fn call_and_fork_backends_agree_for_every_benchmark() {
    for benchmark in Benchmark::ALL {
        let call = benchmark.program(20, 9, Backend::Calls).unwrap();
        let fork = benchmark.program(20, 9, Backend::Forks).unwrap();
        let a = SequentialBackend
            .execute_fueled(&call, 500_000_000)
            .unwrap();
        let b = SequentialBackend
            .execute_fueled(&fork, 500_000_000)
            .unwrap();
        assert_eq!(
            a.outputs,
            b.outputs,
            "{} backends disagree",
            benchmark.name()
        );
        assert_eq!(
            a.outputs,
            benchmark.expected(20, 9),
            "{} oracle disagrees",
            benchmark.name()
        );
    }
}

#[test]
fn renaming_is_single_assignment_for_fork_compiled_programs() {
    let program = Benchmark::ComparisonSort
        .program(20, 1, Backend::Forks)
        .unwrap();
    let arena = TraceArena::from_program(&program, 10_000_000).unwrap();
    // The writer-discipline replay re-derives every producer from the
    // written locations and checks the resolved one against it.
    let report = check_arena(&arena);
    assert!(report.is_clean(), "{:?}", report.first_violation());
    let writes: usize = (0..arena.len()).map(|seq| arena.written(seq).count()).sum();
    assert!(writes > 0);
}
