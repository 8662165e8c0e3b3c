//! The Figure 7 methodology on one benchmark: run a PBBS-analog workload
//! through one `IlpBackend` per dependence model of the paper, plus the
//! dependence-distance distribution that motivates multiple instruction
//! pointers.
//!
//! Run with `cargo run --release --example ilp_study [size]`.

use parsecs::cc::Backend;
use parsecs::driver::{ExecutionBackend, IlpBackend, SequentialBackend};
use parsecs::ilp::{DependenceDistances, IlpModel};
use parsecs::machine::Machine;
use parsecs::workloads::pbbs::Benchmark;

fn main() {
    let size: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(96);
    let benchmark = Benchmark::ComparisonSort;
    println!("benchmark: {} (n = {size})", benchmark.name());

    let program = benchmark
        .program(size, 1, Backend::Calls)
        .expect("compiles");
    let backends: [&dyn ExecutionBackend; 5] = [
        &SequentialBackend,
        &IlpBackend::new("in-order", IlpModel::in_order()),
        &IlpBackend::new("speculative-2K-64w", IlpModel::speculative_core()),
        &IlpBackend::sequential_oracle(),
        &IlpBackend::parallel_ideal(),
    ];
    let fuel = 1_000_000_000;
    let reports: Vec<_> = backends
        .iter()
        .map(|backend| backend.execute_fueled(&program, fuel))
        .collect::<Result<_, _>>()
        .expect("halts");
    assert_eq!(
        reports[0].outputs,
        benchmark.expected(size, 1),
        "oracle check"
    );
    println!("dynamic instructions: {}", reports[0].instructions);

    for report in &reports[1..] {
        println!(
            "{:<40} cycles {:>8}  ILP {:>8.2}  peak/cycle {:>6}",
            report.backend,
            report.cycles,
            report.fetch_ipc,
            report.ilp().expect("ilp backend").peak_parallelism
        );
    }

    let mut distances = DependenceDistances::new(true);
    Machine::load(&program)
        .and_then(|mut machine| machine.run_with_sink(fuel, &mut distances))
        .expect("halts");
    let distances = distances.finish();
    println!(
        "\ntrue dependences: {} (max distance {} instructions, {:.1}% at distance >= 64)",
        distances.total(),
        distances.max_distance(),
        100.0 * distances.fraction_at_least(64)
    );
}
