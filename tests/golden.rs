//! Behaviour lock: simulated results pinned to recorded values.
//!
//! The engine differentials compare two engines that share the resolver,
//! stall table, chip columns and placement, so a change in shared code
//! moves both together and passes them. This table does not move: each
//! row fixes what one round-robin run simulates — cycle counts, the
//! per-core section peak and a hash of the placement — for a miniature of
//! each benchmark program shape, under both engines and both stats modes.
//!
//! Every event-engine cell is also run at `threads = 4` (the
//! cluster-sharded engine with its forked walk and drain) and validated
//! (the full static analysis first). Both must reproduce the sequential
//! run exactly, apart from the fork verdict and the attached report, so
//! the table pins those modes too.
//!
//! [`DRIVER_GOLDEN`] pins the same thing one layer up, through the
//! driver's `execute_fueled`: the paper's sum example on every backend,
//! with a hash of its Figure 10 table, and the §5 doubling sweep.
//!
//! A failing row prints the whole recomputed table in source form. Paste
//! it over the table only when the timing change is intended and
//! reviewed.

use parsecs::core::{format_figure10, ManyCoreSim, NoopProbe, SimConfig, SimResult, TraceArena};
use parsecs::driver::{
    ExecutionBackend, IlpBackend, ManyCoreBackend, RunReport, SequentialBackend,
};
use parsecs::isa::Program;
use parsecs::workloads::{scale, sum};

/// One pinned run: `(shape, engine, stats_only, total_cycles,
/// fetch_cycles, peak_sections_per_core, core_of_fnv)`. The engine is
/// `"event"` (event-driven) or `"reference"` (the cycle-stepping twin);
/// `core_of_fnv` is FNV-1a over `SimResult::core_of`, one little-endian
/// `u64` per section.
type Row = (&'static str, &'static str, bool, u64, u64, usize, u64);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("fan_chain 128x26", "event", false, 1579, 1534, 28, 0xeba3_bb2e_997d_2dc5),
    ("fan_chain 128x26", "reference", false, 1579, 1534, 28, 0xeba3_bb2e_997d_2dc5),
    ("fan_chain 128x26", "event", true, 1579, 1534, 28, 0xeba3_bb2e_997d_2dc5),
    ("fan_chain 128x26", "reference", true, 1579, 1534, 28, 0xeba3_bb2e_997d_2dc5),
    ("synth_histogram 3300x512", "event", false, 25890, 22493, 8, 0x3727_c8f9_7248_6325),
    ("synth_histogram 3300x512", "reference", false, 25890, 22493, 8, 0x3727_c8f9_7248_6325),
    ("synth_histogram 3300x512", "event", true, 25890, 22493, 8, 0x3727_c8f9_7248_6325),
    ("synth_histogram 3300x512", "reference", true, 25890, 22493, 8, 0x3727_c8f9_7248_6325),
];

const SEED: u64 = 7;

/// The benchmark's two program shapes at miniature size, with the chip
/// each runs on: `(name, program, fuel, oracle outputs, cores)`.
fn shapes() -> [(&'static str, Program, u64, Vec<u64>, usize); 2] {
    [
        (
            "fan_chain 128x26",
            scale::fan_chain_program(128, 26, SEED),
            scale::fan_chain_fuel(128, 26),
            scale::fan_chain_expected(128, 26, SEED),
            128,
        ),
        (
            "synth_histogram 3300x512",
            scale::synth_histogram_program(3_300, 512, SEED),
            scale::synth_histogram_fuel(3_300, 512),
            scale::synth_histogram_expected(3_300, 512, SEED),
            32,
        ),
    ]
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

fn row(shape: &'static str, engine: &'static str, stats_only: bool, result: &SimResult) -> Row {
    (
        shape,
        engine,
        stats_only,
        result.stats.total_cycles,
        result.stats.fetch_cycles,
        result.stats.peak_sections_per_core,
        fnv1a(
            result
                .core_of
                .iter()
                .flat_map(|core| (core.0 as u64).to_le_bytes()),
        ),
    )
}

/// Checks that `other` reproduces the sequential event run `sequential`
/// in every field but the fork verdict and the static-analysis report.
fn assert_same_run(sequential: &SimResult, other: &SimResult, what: &str) {
    let mut other = other.clone();
    other.check = None;
    other.fork_fallback = None;
    assert!(
        other == *sequential,
        "{what}: differs from the sequential run"
    );
}

/// Runs every (shape, engine, stats mode) cell, checking each run's
/// outputs against the shape's Rust oracle, and the threaded and
/// validated event runs against the sequential one.
fn recompute() -> Vec<Row> {
    let mut rows = Vec::new();
    for (shape, program, fuel, expected, cores) in shapes() {
        let arena = TraceArena::from_program(&program, fuel).expect("halts");
        for stats_only in [false, true] {
            let mut config = SimConfig::with_cores(cores);
            if stats_only {
                config = config.stats_only();
            }
            let sim = ManyCoreSim::new(config);
            let event = sim.simulate_arena(&arena).expect("simulates");
            let reference = sim
                .simulate_reference(&arena, &mut NoopProbe)
                .expect("simulates");
            for (engine, result) in [("event", &event), ("reference", &reference)] {
                assert_eq!(result.outputs, expected, "{shape} {engine}: wrong outputs");
                rows.push(row(shape, engine, stats_only, result));
            }
            let config = sim.config().clone();
            let threaded = ManyCoreSim::new(config.clone().with_threads(4))
                .simulate_arena(&arena)
                .expect("simulates");
            assert_eq!(
                threaded.fork_fallback, None,
                "{shape} (stats_only {stats_only}): the four-thread run did not fork"
            );
            assert_same_run(&event, &threaded, &format!("{shape} at four threads"));
            let validated = ManyCoreSim::new(config.validated())
                .simulate_arena(&arena)
                .expect("simulates");
            let report = validated
                .check
                .as_ref()
                .expect("validated runs attach a report");
            assert!(report.is_clean(), "{shape}: validated report is not clean");
            assert_same_run(&event, &validated, &format!("{shape} validated"));
        }
    }
    rows
}

fn source_form(rows: &[Row]) -> String {
    let mut out = String::from("const GOLDEN: &[Row] = &[\n");
    for (shape, engine, stats_only, total, fetch, peak, fnv) in rows {
        out.push_str(&format!(
            "    ({shape:?}, {engine:?}, {stats_only}, {total}, {fetch}, {peak}, {fnv:#018x}),\n"
        ));
    }
    out.push_str("];\n");
    out
}

#[test]
fn round_robin_runs_match_the_golden_table() {
    let rows = recompute();
    assert!(
        rows == GOLDEN,
        "simulated results moved; recomputed table:\n{}",
        source_form(&rows)
    );
}

/// One pinned driver run: `(program, backend, instructions, fetch_cycles,
/// cycles, figure10_fnv)`, read off the [`RunReport`]. `figure10_fnv` is
/// FNV-1a over the bytes of `format_figure10` for a many-core run and 0
/// for the other backends.
type DriverRow = (&'static str, String, u64, u64, u64, u64);

#[rustfmt::skip]
const DRIVER_GOLDEN: &[(&str, &str, u64, u64, u64, u64)] = &[
    ("sum [4, 2, 6, 4, 5]", "sequential", 50, 50, 50, 0x0000000000000000),
    ("sum [4, 2, 6, 4, 5]", "ilp:parallel-ideal", 50, 11, 11, 0x0000000000000000),
    ("sum [4, 2, 6, 4, 5]", "ilp:sequential-oracle", 50, 11, 11, 0x0000000000000000),
    ("sum [4, 2, 6, 4, 5]", "manycore:8c:round-robin", 50, 35, 64, 0xd417f2e947c477d3),
    ("sum n=0", "manycore:8c:round-robin", 50, 35, 64, 0xd417f2e947c477d3),
    ("sum n=1", "manycore:10c:round-robin", 109, 48, 85, 0xbbd980f072848aa4),
    ("sum n=2", "manycore:20c:round-robin", 227, 61, 111, 0x3d20ba8d690dc315),
    ("sum n=3", "manycore:40c:round-robin", 463, 74, 137, 0x259f0b04fe433d7c),
    ("sum n=4", "manycore:80c:round-robin", 935, 98, 163, 0x219b11baac11bd95),
    ("sum n=5", "manycore:160c:round-robin", 1879, 112, 189, 0xe30943f412196d8b),
    ("sum n=6", "manycore:256c:round-robin", 3767, 125, 215, 0xec8b38eb42514581),
];

fn driver_row(program: &'static str, report: &RunReport) -> DriverRow {
    let figure10 = report
        .sim()
        .map_or(0, |result| fnv1a(format_figure10(result).into_bytes()));
    (
        program,
        report.backend.clone(),
        report.instructions,
        report.fetch_cycles(),
        report.cycles,
        figure10,
    )
}

/// The paper's sum example (Figure 5, `[4, 2, 6, 4, 5]`) on all four
/// backends, then the §5 sweep: `sum(5·2ⁿ)` for `n = 0..=6` on
/// `clamp(8, 256)` cores, as `repro_sec5_analytic` runs it.
fn driver_recompute() -> Vec<DriverRow> {
    const SUMS: [&str; 7] = [
        "sum n=0", "sum n=1", "sum n=2", "sum n=3", "sum n=4", "sum n=5", "sum n=6",
    ];
    let paper = sum::fork_program(&[4, 2, 6, 4, 5]);
    let backends: [&dyn ExecutionBackend; 4] = [
        &SequentialBackend,
        &IlpBackend::parallel_ideal(),
        &IlpBackend::sequential_oracle(),
        &ManyCoreBackend::with_cores(8),
    ];
    let mut rows = Vec::new();
    for backend in backends {
        let report = backend.execute_fueled(&paper, 10_000).expect("runs");
        assert_eq!(report.outputs, vec![21], "{}", report.backend);
        rows.push(driver_row("sum [4, 2, 6, 4, 5]", &report));
    }
    for (n, label) in (0u32..).zip(SUMS) {
        let data = sum::dataset(n, 7);
        let cores = (5usize << n).clamp(8, 256);
        let report = ManyCoreBackend::with_cores(cores)
            .execute_fueled(&sum::fork_program(&data), 1_000_000)
            .expect("simulates");
        assert_eq!(report.outputs, sum::expected(&data), "{label}");
        rows.push(driver_row(label, &report));
    }
    rows
}

#[test]
fn driver_runs_match_the_golden_table() {
    let rows = driver_recompute();
    let same = rows
        .iter()
        .map(|(program, backend, insns, fetch, cycles, fnv)| {
            (*program, backend.as_str(), *insns, *fetch, *cycles, *fnv)
        })
        .eq(DRIVER_GOLDEN.iter().copied());
    let mut source =
        String::from("const DRIVER_GOLDEN: &[(&str, &str, u64, u64, u64, u64)] = &[\n");
    for (program, backend, insns, fetch, cycles, fnv) in &rows {
        source.push_str(&format!(
            "    ({program:?}, {backend:?}, {insns}, {fetch}, {cycles}, {fnv:#018x}),\n"
        ));
    }
    source.push_str("];\n");
    assert!(same, "driver results moved; recomputed table:\n{source}");
}
