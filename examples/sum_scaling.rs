//! Section 5 of the paper: how the fork-based sum scales when the data
//! size doubles — the closed-form analytic model against the many-core
//! simulator, swept over the dataset axis.
//!
//! Run with `cargo run --release --example sum_scaling [max_n]`.

use parsecs::core::analytic;
use parsecs::driver::Sweep;
use parsecs::workloads::sum;

fn main() {
    let max_n: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(5);

    // One labelled program per dataset doubling — a dataset-size grid fanned
    // over one backend configuration.
    let mut sweep = Sweep::new(100_000_000).manycore_cores(&[128]);
    for n in 0..=max_n {
        sweep = sweep.program(format!("n={n}"), sum::fork_program(&sum::dataset(n, 1)));
    }
    let points = sweep.run();

    println!(
        "{:>3} {:>9} {:>12} {:>12} {:>12} {:>12}",
        "n", "elements", "instructions", "fetch (sim)", "retire (sim)", "fetch IPC"
    );
    for (n, point) in points.iter().enumerate() {
        let model = analytic::sum_model(n as u32);
        let report = point.report().expect("simulates");
        assert_eq!(report.outputs, sum::expected(&sum::dataset(n as u32, 1)));
        println!(
            "{:>3} {:>9} {:>12} {:>12} {:>12} {:>12.1}",
            n,
            model.elements,
            report.instructions,
            report.fetch_cycles(),
            report.cycles,
            report.fetch_ipc
        );
    }
    println!("\nanalytic model for comparison (paper §5): fetch = 30 + 12n, retire = 43 + 15n");
}
