//! Integration tests for the Figure 7 reproduction: the qualitative claims
//! of §3 must hold on the PBBS-analog workloads.

use parsecs::cc::Backend;
use parsecs::driver::{ExecutionBackend, IlpBackend};
use parsecs::workloads::pbbs::{Benchmark, Catalog};

fn ilp_pair(benchmark: Benchmark, size: usize) -> (f64, f64, u64) {
    let program = benchmark.program(size, 1, Backend::Calls).unwrap();
    let run = |backend: IlpBackend| backend.execute_fueled(&program, 1_000_000_000).unwrap();
    let (parallel, sequential) = (
        run(IlpBackend::parallel_ideal()),
        run(IlpBackend::sequential_oracle()),
    );
    assert_eq!(parallel.outputs, benchmark.expected(size, 1));
    let parallel = parallel.ilp().expect("ilp detail");
    let sequential = sequential.ilp().expect("ilp detail");
    (parallel.ilp, sequential.ilp, parallel.instructions)
}

#[test]
fn table1_catalog_is_complete() {
    let table = Catalog::table1();
    assert_eq!(table.len(), 10);
    let names: Vec<&str> = table.iter().map(|b| b.name()).collect();
    assert!(names.contains(&"breadthFirstSearch/ndBFS"));
    assert!(names.contains(&"minSpanningTree/parallelKruskal"));
}

#[test]
fn parallel_model_ilp_dwarfs_the_sequential_oracle_on_every_benchmark() {
    for benchmark in Benchmark::ALL {
        let (parallel, sequential, instructions) = ilp_pair(benchmark, 40);
        assert!(
            instructions > 1_000,
            "{}: trace too small",
            benchmark.name()
        );
        assert!(
            parallel >= 3.0 * sequential,
            "{}: parallel ILP {parallel:.1} should dwarf sequential {sequential:.1}",
            benchmark.name()
        );
        // The paper's sequential-oracle ILP sits between 3.2 and 5.6; our
        // smaller kernels land in a similar single-digit band.
        assert!(
            (1.0..16.0).contains(&sequential),
            "{}: sequential {sequential}",
            benchmark.name()
        );
    }
}

#[test]
fn data_parallel_benchmarks_gain_ilp_with_the_dataset() {
    // The paper observes the parallel-run ILP growing with the dataset for
    // the data-parallel benchmarks. Our kernels are written with sequential
    // loops, so the effect is milder; require growth for the most clearly
    // data-parallel analogue (nearest neighbours) and non-collapse for the
    // others.
    let (small, _, _) = ilp_pair(Benchmark::NearestNeighbors, 24);
    let (large, _, _) = ilp_pair(Benchmark::NearestNeighbors, 96);
    assert!(
        large > 1.5 * small,
        "nearest neighbours: {small:.1} -> {large:.1}"
    );

    for benchmark in [Benchmark::Bfs, Benchmark::Mis, Benchmark::RemoveDuplicates] {
        let (small, _, _) = ilp_pair(benchmark, 24);
        let (large, _, _) = ilp_pair(benchmark, 96);
        assert!(
            large > 0.8 * small,
            "{}: parallel ILP should not collapse with size ({small:.1} -> {large:.1})",
            benchmark.name()
        );
    }
}
