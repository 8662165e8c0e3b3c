//! Quickstart: one program, all three engines, one uniform report each.
//!
//! Runs the paper's Figure 2 program (the recursive vector sum) through
//! the sequential reference machine, the ILP limit analyzer and the
//! many-core sectioned simulator through the one `ExecutionBackend` call,
//! `execute_fueled`, printing one
//! `RunReport` line per backend — then shows the Figure 5 fork rewrite
//! beating sequential fetch on the same chip.
//!
//! Run with `cargo run --release --example quickstart`.

use parsecs::driver::{ExecutionBackend, IlpBackend, ManyCoreBackend, SequentialBackend};
use parsecs::workloads::sum;

fn main() {
    let data = [4u64, 2, 6, 4, 5];

    println!("== Figure 2 sum (call version) on all three backends ==");
    let call = sum::call_program(&data);
    let backends: [&dyn ExecutionBackend; 3] = [
        &SequentialBackend,
        &IlpBackend::parallel_ideal(),
        &ManyCoreBackend::with_cores(8),
    ];
    for backend in backends {
        let report = backend.execute_fueled(&call, 100_000).expect("runs");
        println!("{report}");
    }

    println!("\n== Figure 5 sum (fork version) on the many-core chip ==");
    let fork = sum::fork_program(&data);
    let report = ManyCoreBackend::with_cores(8)
        .execute_fueled(&fork, 100_000)
        .expect("simulates");
    println!("{report}");
    assert!(report.fetch_ipc > 1.0, "forked sections fetch in parallel");
}
