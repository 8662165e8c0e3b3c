//! Behaviour lock: simulated results pinned to recorded values.
//!
//! The engine differentials compare two engines that share the resolver,
//! stall table, chip columns and placement, so a change in shared code
//! moves both together and passes them. This table does not move: each
//! row fixes what one round-robin run simulates — cycle counts, the
//! per-core section peak and a hash of the placement — for a miniature of
//! each benchmark program shape, under both engines and both stats modes.
//!
//! A failing row prints the whole recomputed table in source form. Paste
//! it over [`GOLDEN`] only when the timing change is intended and
//! reviewed.

use parsecs::core::{ManyCoreSim, NoopProbe, SimConfig, SimResult, TraceArena};
use parsecs::isa::Program;
use parsecs::workloads::scale;

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

fn fnv1a(core_of: &[parsecs::noc::CoreId]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for core in core_of {
        for byte in (core.0 as u64).to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
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
        fnv1a(&result.core_of),
    )
}

/// Runs every (shape, engine, stats mode) cell, checking each run's
/// outputs against the shape's Rust oracle.
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
