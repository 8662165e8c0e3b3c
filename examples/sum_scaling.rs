//! Section 5 of the paper: how the fork-based sum scales when the data
//! size doubles — the closed-form analytic model against the many-core
//! simulator, one run per dataset size.
//!
//! Run with `cargo run --release --example sum_scaling [max_n]`.

use parsecs::core::analytic;
use parsecs::driver::{ExecutionBackend, ManyCoreBackend};
use parsecs::workloads::sum;

fn main() {
    let max_n: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(5);

    // One run per dataset doubling, all on the same 128-core chip.
    let backend = ManyCoreBackend::with_cores(128);
    println!(
        "{:>3} {:>9} {:>12} {:>12} {:>12} {:>12}",
        "n", "elements", "instructions", "fetch (sim)", "retire (sim)", "fetch IPC"
    );
    for n in 0..=max_n {
        let model = analytic::sum_model(n);
        let data = sum::dataset(n, 1);
        let report = backend
            .execute_fueled(&sum::fork_program(&data), 100_000_000)
            .expect("simulates");
        assert_eq!(report.outputs, sum::expected(&data));
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
