//! Regenerates Figure 10 of the paper: the cycle-by-cycle execution timing
//! of `sum(t,5)` with one section per core, printed as one table per core
//! with the six pipeline-stage columns (fd rr ew ar ma ret).

use parsecs_core::format_figure10;
use parsecs_driver::{ExecutionBackend, ManyCoreBackend};
use parsecs_workloads::sum;

fn main() {
    let data = [4u64, 2, 6, 4, 5];
    let program = sum::fork_program(&data);
    let report = ManyCoreBackend::with_cores(8)
        .execute_fueled(&program, 100_000)
        .expect("simulates");
    let result = report.sim().expect("many-core backend carries a SimResult");

    println!("Figure 10: execution timing of the sum(t,5) run");
    println!(
        "(paper: 45 instructions fetched by cycle 30 and retired by cycle 43 on 5 cores;\n\
         this run adds a 5-instruction main wrapper and a 6th section for it)"
    );
    println!();
    print!("{}", format_figure10(result));
    println!("sections           : {}", result.stats.sections);
    println!("cores used         : {}", result.stats.cores_used);
    println!("last fetch cycle   : {}", result.stats.fetch_cycles);
    println!("last retire cycle  : {}", result.stats.total_cycles);
    println!("fetch IPC          : {:.2}", report.fetch_ipc);
    println!("retire IPC         : {:.2}", report.retire_ipc);
    println!(
        "remote reg requests: {}",
        result.stats.remote_register_requests
    );
    println!(
        "remote mem requests: {}",
        result.stats.remote_memory_requests
    );
    println!("loader/DMH accesses: {}", result.stats.dmh_accesses);
    println!("outputs            : {:?}", report.outputs);
}
