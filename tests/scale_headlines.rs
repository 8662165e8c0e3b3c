//! The two chip-scale cells too large for the tier-1 suite, run on
//! demand in release:
//!
//! ```sh
//! cargo test --release --test scale_headlines -- --ignored --nocapture
//! ```
//!
//! * **Chip-size scaling.** `synth_histogram` 700k×4096 in full mode,
//!   one arena simulated at 512 and then 1024 cores: the 1024-core run
//!   may take at most [`SCALING_BAR`] times the 512-core run's wall
//!   clock. An engine whose per-core state is pointer-chased structs
//!   gets *slower* as the modeled chip doubles; this gate keeps that
//!   inversion out.
//! * **The 100M-instruction cell.** `fan_chain` 1024×6600 at 1024 cores,
//!   stats-only over its arena: at least 100M instructions, the
//!   oracle's outputs, no forced stall release, and both footprint bars.
//!
//! Both cells run in one test, one after the other, so the timed cell
//! never shares the host with the large one. `--nocapture` prints each
//! cell's wall clock and footprint.

use std::time::Instant;

use parsecs::core::{ManyCoreSim, SimConfig, SimResult};
use parsecs::trace::TraceArena;
use parsecs::workloads::scale;

/// The 1024-core run may take at most this multiple of the 512-core
/// run's simulate time on the same arena.
const SCALING_BAR: f64 = 1.25;

/// Arena footprint bar, in bytes per instruction: the bar of the tier-1
/// twin in `tests/check_invariants.rs`.
const ARENA_BYTES_PER_INSN: f64 = 30.5;

/// Total footprint bar of a stats-only run over its arena (arena plus
/// simulator state), in bytes per instruction: the bar of the tier-1
/// twin in `tests/check_invariants.rs`.
const STATS_ONLY_BYTES_PER_INSN: f64 = 47.0;

/// Runs `build` and returns its result with the wall time in seconds.
fn timed<T>(build: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let result = build();
    (result, start.elapsed().as_secs_f64())
}

/// Simulates `arena` on `config`, checks the outputs, the deadlock
/// detector and the arena bar, prints the cell and returns the result
/// with its simulate time in seconds.
fn run_cell(
    name: &str,
    arena: &TraceArena,
    config: SimConfig,
    expected: &[u64],
) -> (SimResult, f64) {
    let cores = config.cores;
    let (result, sim_s) = timed(|| {
        ManyCoreSim::new(config)
            .simulate_arena(arena)
            .expect("simulates")
    });
    assert_eq!(result.outputs, expected, "{name} @{cores}c: outputs differ");
    assert_eq!(
        result.stats.forced_stall_releases, 0,
        "{name} @{cores}c: the deadlock detector forced a release"
    );
    let arena_per_insn = result.stats.trace_bytes_per_instruction();
    assert!(
        arena_per_insn <= ARENA_BYTES_PER_INSN,
        "{name} @{cores}c: arena {arena_per_insn:.1} B/insn exceeds {ARENA_BYTES_PER_INSN}"
    );
    println!(
        "{name} @{cores}c: {} insns, {} sections, simulate {sim_s:.2} s, {} cycles, \
         fetch IPC {:.1}, arena {arena_per_insn:.1} B/insn, total {:.1} B/insn",
        result.stats.instructions,
        result.stats.sections,
        result.stats.total_cycles,
        result.stats.fetch_ipc,
        result.total_bytes_per_instruction(),
    );
    (result, sim_s)
}

#[test]
#[ignore = "about a minute in release and 5 GB; run with --ignored"]
fn chip_scale_cells_scale_and_fit() {
    let seed = 7;

    let (keys, buckets) = (700_000, 4096);
    let name = format!("synth_histogram-{keys}x{buckets}");
    let (arena, pre_s) = timed(|| {
        TraceArena::from_program(
            &scale::synth_histogram_program(keys, buckets, seed),
            scale::synth_histogram_fuel(keys, buckets),
        )
        .expect("halts within fuel")
    });
    println!("{name}: pre-execution {pre_s:.2} s");
    let expected = scale::synth_histogram_expected(keys, buckets, seed);
    let (_, at_512) = run_cell(&name, &arena, SimConfig::with_cores(512), &expected);
    let (_, at_1024) = run_cell(&name, &arena, SimConfig::with_cores(1024), &expected);
    println!(
        "{name}: 1024/512-core simulate time {:.2}x (bar {SCALING_BAR}x)",
        at_1024 / at_512
    );
    assert!(
        at_1024 <= SCALING_BAR * at_512,
        "{name}: 1024 cores took {at_1024:.2} s against {at_512:.2} s at 512, \
         above the {SCALING_BAR}x chip-size scaling bar"
    );
    drop(arena);

    let (chains, links) = (1024, 6600);
    let name = format!("fan_chain-{chains}x{links}");
    let (arena, pre_s) = timed(|| {
        TraceArena::from_program(
            &scale::fan_chain_program(chains, links, seed),
            scale::fan_chain_fuel(chains, links),
        )
        .expect("halts within fuel")
    });
    println!("{name}: pre-execution {pre_s:.2} s");
    let (result, _) = run_cell(
        &name,
        &arena,
        SimConfig::with_cores(1024).stats_only(),
        &scale::fan_chain_expected(chains, links, seed),
    );
    assert!(
        result.stats.instructions >= 100_000_000,
        "{name}: only {} instructions",
        result.stats.instructions
    );
    let total = result.total_bytes_per_instruction();
    assert!(
        total <= STATS_ONLY_BYTES_PER_INSN,
        "{name}: stats-only total {total:.1} B/insn exceeds {STATS_ONLY_BYTES_PER_INSN}"
    );
}
