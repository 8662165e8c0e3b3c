//! Regenerates the §5 analytical evaluation of the paper: the closed-form
//! instruction count, fetch time and retirement time of `sum` over `5·2ⁿ`
//! elements, next to the many-core simulator's measured values.
//!
//! Pass the maximum doubling exponent on the command line
//! (`repro_sec5_analytic [max_n]`, default 6 → up to 320 elements).

use parsecs_core::analytic;
use parsecs_driver::{ExecutionBackend, ManyCoreBackend};
use parsecs_workloads::sum;

fn main() {
    let max_n: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(6);

    println!("Section 5: analytic model vs many-core simulation for sum(5*2^n)");
    println!(
        "{:>3} {:>9} {:>12} {:>12} {:>11} {:>11} {:>11} {:>11} {:>9} {:>9}",
        "n",
        "elements",
        "insns(anl)",
        "insns(sim)",
        "fetch(anl)",
        "fetch(sim)",
        "ret(anl)",
        "ret(sim)",
        "fIPC(anl)",
        "fIPC(sim)"
    );
    for n in 0..=max_n {
        let model = analytic::sum_model(n);
        let data = sum::dataset(n, 7);
        let program = sum::fork_program(&data);
        let cores = (model.elements as usize).clamp(8, 256);
        let report = ManyCoreBackend::with_cores(cores)
            .execute_fueled(&program, 100_000_000)
            .expect("simulates");
        assert_eq!(report.outputs, sum::expected(&data));
        println!(
            "{:>3} {:>9} {:>12} {:>12} {:>11} {:>11} {:>11} {:>11} {:>9.1} {:>9.1}",
            n,
            model.elements,
            model.instructions,
            report.instructions - 5,
            model.fetch_cycles,
            report.fetch_cycles(),
            model.retire_cycles,
            report.cycles,
            model.fetch_ipc(),
            report.fetch_ipc,
        );
    }
    println!();
    println!(
        "Paper's headline row (n = 8, 1280 elements): 15 090 instructions fetched in 126 cycles\n\
         (~120 IPC) and retired in 163 cycles (~92 IPC). Shapes to check: simulated instruction\n\
         counts equal the closed form exactly; fetch and retire cycles grow linearly in n\n\
         (i.e. logarithmically in the data size) while the instruction count doubles, so the\n\
         fetch/retire IPC roughly doubles per step, as in the paper."
    );
}
