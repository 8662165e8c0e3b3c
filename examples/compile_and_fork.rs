//! The whole pipeline the paper envisions: take an unchanged (mini-)C
//! program, compile it once with a conventional `call`/`ret` backend and
//! once with the paper's fork transformation, check both compute the same
//! result, and show how the fork version spreads over the cores of the
//! simulated many-core chip.
//!
//! Run with `cargo run --release --example compile_and_fork [elements]`.

use parsecs::cc::{compile, Backend, CompileOptions};
use parsecs::driver::{ExecutionBackend, ManyCoreBackend, SequentialBackend};

const SOURCE: &str = "
fn sum(t, n) {
    if (n == 1) { return t[0]; } else { }
    if (n == 2) { return t[0] + t[1]; } else { }
    var half = n >> 1;
    return sum(t, half) + sum(t + 8 * half, n - half);
}
fn main() { out(sum(values, n_elements[0])); }
";

fn main() {
    let elements: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(64);
    let data: Vec<u64> = (1..=elements as u64).collect();
    let expected: u64 = data.iter().sum();

    let options = |backend| {
        CompileOptions::new(backend)
            .with_data("values", data.clone())
            .with_data("n_elements", vec![elements as u64])
    };

    // Conventional compilation and sequential execution.
    let call_program = compile(SOURCE, &options(Backend::Calls)).expect("compiles");
    let sequential = SequentialBackend
        .execute_fueled(&call_program, 100_000_000)
        .expect("halts");
    println!(
        "call backend : {} dynamic instructions, result {:?}",
        sequential.instructions, sequential.outputs
    );
    assert_eq!(sequential.outputs, vec![expected]);

    // The paper's rewrite: calls become forks, returns become endforks.
    let fork_program = compile(SOURCE, &options(Backend::Forks)).expect("compiles");
    let report = ManyCoreBackend::with_cores(64)
        .execute_fueled(&fork_program, 100_000_000)
        .expect("simulates");
    assert_eq!(report.outputs, vec![expected]);
    let stats = &report.sim().expect("many-core detail").stats;
    println!(
        "fork backend : {} dynamic instructions in {} sections on {} cores",
        report.instructions, stats.sections, stats.cores_used
    );
    println!(
        "               fetch IPC {:.1}, retire IPC {:.1} (a single core fetches at most 1 IPC)",
        report.fetch_ipc, report.retire_ipc
    );
    println!(
        "               remote renaming requests: {} register, {} memory; {} loader accesses",
        stats.remote_register_requests, stats.remote_memory_requests, stats.dmh_accesses
    );
}
