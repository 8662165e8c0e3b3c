//! Regenerates Figures 3, 4 and 6 of the paper: the 59-instruction
//! sequential trace of `sum(t,5)` (call version), its call tree summarised
//! as section sizes, and the 45-instruction parallel trace split into five
//! sections.

use parsecs_core::TraceArena;
use parsecs_workloads::sum;

fn main() {
    let data = [4u64, 2, 6, 4, 5];

    // Figure 3: the call-version trace, one numbered line per dynamic
    // instruction, read off the arena.
    let call = TraceArena::from_program(&sum::call_program(&data), 100_000).expect("runs");
    println!(
        "Figure 3: sequential trace of sum(t,5) — {} instructions",
        call.len() - 5
    );
    println!("(59 in the paper; the count excludes the 5-instruction main/out/halt wrapper)");
    for seq in 0..call.len() {
        println!(
            "{:>5}  [{:>4}] {}",
            seq + 1,
            call.ip(seq),
            call.mnemonic(seq)
        );
    }
    println!();

    // Figures 4 and 6: the fork-version sections.
    let fork = sum::fork_program(&data);
    let arena = TraceArena::from_program(&fork, 100_000).expect("runs");
    println!(
        "Figure 4/6: parallel run of sum(t,5) — {} instructions in {} sections",
        arena.len() - 5,
        arena.sections().len()
    );
    println!("(45 instructions in 5 sections in the paper, longest section 16)");
    for span in arena.sections() {
        let creator = span
            .creator
            .map(|(s, seq)| format!("forked by {} at trace index {}", s, seq))
            .unwrap_or_else(|| "initial section".to_string());
        println!("  {}: {} instructions ({creator})", span.id, span.len());
        for seq in span.start..span.end {
            println!("    {:>6}  {}", arena.name(seq), arena.mnemonic(seq));
        }
    }
    println!(
        "result: {:?} (expected {:?})",
        arena.outputs(),
        sum::expected(&data)
    );
}
