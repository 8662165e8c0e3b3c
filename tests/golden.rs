//! Behaviour lock: simulated results pinned to recorded values.
//!
//! The engine differentials compare two engines that share the resolver,
//! stall table, chip columns and placement, so a change in shared code
//! moves both together and passes them. This table does not move: each
//! row fixes what one run simulates — cycle counts, the per-core section
//! peak, a hash of the placement and a digest of every simulated
//! statistic — for a miniature of each program shape, under both engines.
//! Every shape runs round robin on the default NoC in both stats modes,
//! and in full mode under each other placement policy, the `noc96+96`
//! stress NoC, a mesh topology and an idealised fetch that never stalls
//! on control.
//!
//! Every event-engine cell is also run validated (the full static
//! analysis first). It must reproduce the sequential run exactly, apart
//! from the attached report, so the table pins that mode too.
//!
//! [`DRIVER_GOLDEN`] pins the same thing one layer up, through the
//! driver's `execute_fueled`: the paper's sum example on every backend,
//! with a hash of its Figure 10 table, and the §5 doubling sweep.
//!
//! A failing row prints the whole recomputed table in source form. Paste
//! it over the table only when the timing change is intended and
//! reviewed.

use parsecs::core::{
    format_figure10, ChainAffine, LoadAware, ManyCoreSim, NoopProbe, Placement, SimConfig,
    SimResult, SimStats, TraceArena,
};
use parsecs::driver::{
    ExecutionBackend, IlpBackend, ManyCoreBackend, RunReport, SequentialBackend,
};
use parsecs::isa::Program;
use parsecs::noc::{NocConfig, Topology};
use parsecs::workloads::{scale, sum};

/// One pinned run: `(shape, config, engine, stats_only, total_cycles,
/// fetch_cycles, peak_sections_per_core, core_of_fnv, stats_fnv)`. The
/// engine is `"event"` (event-driven) or `"reference"` (the
/// cycle-stepping twin); `core_of_fnv` is FNV-1a over
/// `SimResult::core_of`, one little-endian `u64` per section, and
/// `stats_fnv` is FNV-1a over [`stats_bytes`].
type Row = (
    &'static str,
    &'static str,
    &'static str,
    bool,
    u64,
    u64,
    usize,
    u64,
    u64,
);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("fan_chain 128x26", "round-robin", "event", false, 1579, 1534, 28, 0xeba3bb2e997d2dc5, 0xabcfe33d38a10d4f),
    ("fan_chain 128x26", "round-robin", "reference", false, 1579, 1534, 28, 0xeba3bb2e997d2dc5, 0xabcfe33d38a10d4f),
    ("fan_chain 128x26", "round-robin", "event", true, 1579, 1534, 28, 0xeba3bb2e997d2dc5, 0xabcfe33d38a10d4f),
    ("fan_chain 128x26", "round-robin", "reference", true, 1579, 1534, 28, 0xeba3bb2e997d2dc5, 0xabcfe33d38a10d4f),
    ("fan_chain 128x26", "least-loaded", "event", false, 1940, 1905, 29, 0xb7add86b3317d70b, 0xb4592807ff46fb15),
    ("fan_chain 128x26", "least-loaded", "reference", false, 1940, 1905, 29, 0xb7add86b3317d70b, 0xb4592807ff46fb15),
    ("fan_chain 128x26", "load-aware", "event", false, 1696, 1442, 97, 0x702234452614739b, 0x9c3c2b8ad86c6f6f),
    ("fan_chain 128x26", "load-aware", "reference", false, 1696, 1442, 97, 0x702234452614739b, 0x9c3c2b8ad86c6f6f),
    ("fan_chain 128x26", "chain-affine", "event", false, 1696, 1442, 97, 0x702234452614739b, 0x9c3c2b8ad86c6f6f),
    ("fan_chain 128x26", "chain-affine", "reference", false, 1696, 1442, 97, 0x702234452614739b, 0x9c3c2b8ad86c6f6f),
    ("fan_chain 128x26", "noc96+96", "event", false, 74316, 30318, 28, 0xeba3bb2e997d2dc5, 0xf96e5cc67cfcc2c0),
    ("fan_chain 128x26", "noc96+96", "reference", false, 74316, 30318, 28, 0xeba3bb2e997d2dc5, 0xf96e5cc67cfcc2c0),
    ("fan_chain 128x26", "mesh", "event", false, 5348, 2751, 28, 0xeba3bb2e997d2dc5, 0xd86051a05ce8ed6b),
    ("fan_chain 128x26", "mesh", "reference", false, 5348, 2751, 28, 0xeba3bb2e997d2dc5, 0xd86051a05ce8ed6b),
    ("fan_chain 128x26", "no-control-stall", "event", false, 1546, 1428, 28, 0xeba3bb2e997d2dc5, 0x191f765a417b4be6),
    ("fan_chain 128x26", "no-control-stall", "reference", false, 1546, 1428, 28, 0xeba3bb2e997d2dc5, 0x191f765a417b4be6),
    ("synth_histogram 3300x512", "round-robin", "event", false, 25890, 22493, 8, 0x3727c8f972486325, 0xa99dc0739d52c102),
    ("synth_histogram 3300x512", "round-robin", "reference", false, 25890, 22493, 8, 0x3727c8f972486325, 0xa99dc0739d52c102),
    ("synth_histogram 3300x512", "round-robin", "event", true, 25890, 22493, 8, 0x3727c8f972486325, 0xa99dc0739d52c102),
    ("synth_histogram 3300x512", "round-robin", "reference", true, 25890, 22493, 8, 0x3727c8f972486325, 0xa99dc0739d52c102),
    ("synth_histogram 3300x512", "least-loaded", "event", false, 24629, 21232, 8, 0x411a5698d97bd645, 0xe10129fd3354e797),
    ("synth_histogram 3300x512", "least-loaded", "reference", false, 24629, 21232, 8, 0x411a5698d97bd645, 0xe10129fd3354e797),
    ("synth_histogram 3300x512", "load-aware", "event", false, 24602, 21195, 8, 0x3966c7f0ad67b465, 0x0578b8d653729823),
    ("synth_histogram 3300x512", "load-aware", "reference", false, 24602, 21195, 8, 0x3966c7f0ad67b465, 0x0578b8d653729823),
    ("synth_histogram 3300x512", "chain-affine", "event", false, 25709, 22314, 8, 0x9983ffa0c2803425, 0x979992397545e5ac),
    ("synth_histogram 3300x512", "chain-affine", "reference", false, 25709, 22314, 8, 0x9983ffa0c2803425, 0x979992397545e5ac),
    ("synth_histogram 3300x512", "noc96+96", "event", false, 339941, 337279, 8, 0x3727c8f972486325, 0x1bb3ebb4a8a60119),
    ("synth_histogram 3300x512", "noc96+96", "reference", false, 339941, 337279, 8, 0x3727c8f972486325, 0x1bb3ebb4a8a60119),
    ("synth_histogram 3300x512", "mesh", "event", false, 31229, 27841, 8, 0x3727c8f972486325, 0x7fcad2be124e804d),
    ("synth_histogram 3300x512", "mesh", "reference", false, 31229, 27841, 8, 0x3727c8f972486325, 0x7fcad2be124e804d),
    ("synth_histogram 3300x512", "no-control-stall", "event", false, 9391, 5911, 8, 0x3727c8f972486325, 0x4dace42029e27038),
    ("synth_histogram 3300x512", "no-control-stall", "reference", false, 9391, 5911, 8, 0x3727c8f972486325, 0x4dace42029e27038),
    ("chain_sum 1000", "round-robin", "event", false, 15065, 15053, 16, 0x977cdf51b1ee4c2d, 0x108a4339a7539b97),
    ("chain_sum 1000", "round-robin", "reference", false, 15065, 15053, 16, 0x977cdf51b1ee4c2d, 0x108a4339a7539b97),
    ("chain_sum 1000", "round-robin", "event", true, 15065, 15053, 16, 0x977cdf51b1ee4c2d, 0x108a4339a7539b97),
    ("chain_sum 1000", "round-robin", "reference", true, 15065, 15053, 16, 0x977cdf51b1ee4c2d, 0x108a4339a7539b97),
    ("chain_sum 1000", "least-loaded", "event", false, 15065, 15053, 16, 0x977cdf51b1ee4c2d, 0x108a4339a7539b97),
    ("chain_sum 1000", "least-loaded", "reference", false, 15065, 15053, 16, 0x977cdf51b1ee4c2d, 0x108a4339a7539b97),
    ("chain_sum 1000", "load-aware", "event", false, 15033, 15021, 253, 0x1560f271dfbd8c45, 0x30443aea45018045),
    ("chain_sum 1000", "load-aware", "reference", false, 15033, 15021, 253, 0x1560f271dfbd8c45, 0x30443aea45018045),
    ("chain_sum 1000", "chain-affine", "event", false, 15033, 15021, 253, 0x1560f271dfbd8c45, 0x30443aea45018045),
    ("chain_sum 1000", "chain-affine", "reference", false, 15033, 15021, 253, 0x1560f271dfbd8c45, 0x30443aea45018045),
    ("chain_sum 1000", "noc96+96", "event", false, 205385, 205183, 16, 0x977cdf51b1ee4c2d, 0xd52acf5a7fdb7dd1),
    ("chain_sum 1000", "noc96+96", "reference", false, 205385, 205183, 16, 0x977cdf51b1ee4c2d, 0xd52acf5a7fdb7dd1),
    ("chain_sum 1000", "mesh", "event", false, 16017, 15998, 16, 0x977cdf51b1ee4c2d, 0x3ba235dbf866bf14),
    ("chain_sum 1000", "mesh", "reference", false, 16017, 15998, 16, 0x977cdf51b1ee4c2d, 0x3ba235dbf866bf14),
    ("chain_sum 1000", "no-control-stall", "event", false, 10014, 6006, 16, 0x977cdf51b1ee4c2d, 0x60bb5f01dad5d328),
    ("chain_sum 1000", "no-control-stall", "reference", false, 10014, 6006, 16, 0x977cdf51b1ee4c2d, 0x60bb5f01dad5d328),
    ("tree_sum 4000", "round-robin", "event", false, 743, 562, 8, 0x1f55ba245f2c9325, 0xbb48adc47d33578f),
    ("tree_sum 4000", "round-robin", "reference", false, 743, 562, 8, 0x1f55ba245f2c9325, 0xbb48adc47d33578f),
    ("tree_sum 4000", "round-robin", "event", true, 743, 562, 8, 0x1f55ba245f2c9325, 0xbb48adc47d33578f),
    ("tree_sum 4000", "round-robin", "reference", true, 743, 562, 8, 0x1f55ba245f2c9325, 0xbb48adc47d33578f),
    ("tree_sum 4000", "least-loaded", "event", false, 707, 539, 8, 0x50f49b59d069b1c5, 0x2a3483ec30c4998f),
    ("tree_sum 4000", "least-loaded", "reference", false, 707, 539, 8, 0x50f49b59d069b1c5, 0x2a3483ec30c4998f),
    ("tree_sum 4000", "load-aware", "event", false, 713, 582, 8, 0x7dc19dbbcc491e85, 0x207da51707614c35),
    ("tree_sum 4000", "load-aware", "reference", false, 713, 582, 8, 0x7dc19dbbcc491e85, 0x207da51707614c35),
    ("tree_sum 4000", "chain-affine", "event", false, 723, 583, 8, 0x2483b6ff6dda0c05, 0x4c679fc9cfc45cbf),
    ("tree_sum 4000", "chain-affine", "reference", false, 723, 583, 8, 0x2483b6ff6dda0c05, 0x4c679fc9cfc45cbf),
    ("tree_sum 4000", "noc96+96", "event", false, 6832, 1824, 8, 0x1f55ba245f2c9325, 0x13e77df7114d5ea0),
    ("tree_sum 4000", "noc96+96", "reference", false, 6832, 1824, 8, 0x1f55ba245f2c9325, 0x13e77df7114d5ea0),
    ("tree_sum 4000", "mesh", "event", false, 791, 586, 8, 0x1f55ba245f2c9325, 0x4070adfe934466a3),
    ("tree_sum 4000", "mesh", "reference", false, 791, 586, 8, 0x1f55ba245f2c9325, 0x4070adfe934466a3),
    ("tree_sum 4000", "no-control-stall", "event", false, 743, 562, 8, 0x1f55ba245f2c9325, 0xbb48adc47d33578f),
    ("tree_sum 4000", "no-control-stall", "reference", false, 743, 562, 8, 0x1f55ba245f2c9325, 0xbb48adc47d33578f),
    ("histogram 1000x64", "round-robin", "event", false, 10508, 10126, 2, 0x9b92ed251444bf25, 0x2abdde074dc43d9b),
    ("histogram 1000x64", "round-robin", "reference", false, 10508, 10126, 2, 0x9b92ed251444bf25, 0x2abdde074dc43d9b),
    ("histogram 1000x64", "round-robin", "event", true, 10508, 10126, 2, 0x9b92ed251444bf25, 0x2abdde074dc43d9b),
    ("histogram 1000x64", "round-robin", "reference", true, 10508, 10126, 2, 0x9b92ed251444bf25, 0x2abdde074dc43d9b),
    ("histogram 1000x64", "least-loaded", "event", false, 10508, 10126, 6, 0xd35b13095d4f6880, 0x3f5ff3f5448d3c1e),
    ("histogram 1000x64", "least-loaded", "reference", false, 10508, 10126, 6, 0xd35b13095d4f6880, 0x3f5ff3f5448d3c1e),
    ("histogram 1000x64", "load-aware", "event", false, 10508, 10126, 8, 0xadb9b1b36ffb463b, 0x0961267faaf6525a),
    ("histogram 1000x64", "load-aware", "reference", false, 10508, 10126, 8, 0xadb9b1b36ffb463b, 0x0961267faaf6525a),
    ("histogram 1000x64", "chain-affine", "event", false, 10508, 10126, 8, 0xadb9b1b36ffb463b, 0x0961267faaf6525a),
    ("histogram 1000x64", "chain-affine", "reference", false, 10508, 10126, 8, 0xadb9b1b36ffb463b, 0x0961267faaf6525a),
    ("histogram 1000x64", "noc96+96", "event", false, 162399, 161855, 2, 0x9b92ed251444bf25, 0xf6c7caecf57335de),
    ("histogram 1000x64", "noc96+96", "reference", false, 162399, 161855, 2, 0x9b92ed251444bf25, 0xf6c7caecf57335de),
    ("histogram 1000x64", "mesh", "event", false, 13310, 12949, 2, 0x9b92ed251444bf25, 0xc377e2d4afabb68a),
    ("histogram 1000x64", "mesh", "reference", false, 13310, 12949, 2, 0x9b92ed251444bf25, 0xc377e2d4afabb68a),
    ("histogram 1000x64", "no-control-stall", "event", false, 1178, 698, 2, 0x9b92ed251444bf25, 0x7cf1eaa676417035),
    ("histogram 1000x64", "no-control-stall", "reference", false, 1178, 698, 2, 0x9b92ed251444bf25, 0x7cf1eaa676417035),
];

const SEED: u64 = 7;

/// The benchmark's two program shapes and the three `repro_perf` shapes
/// at miniature size, with the chip each runs on: `(name, program, fuel,
/// oracle outputs, cores)`.
fn shapes() -> [(&'static str, Program, u64, Vec<u64>, usize); 5] {
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
        (
            "chain_sum 1000",
            scale::chain_sum_program(1_000, SEED),
            scale::chain_sum_fuel(1_000),
            scale::chain_sum_expected(1_000, SEED),
            64,
        ),
        (
            "tree_sum 4000",
            scale::tree_sum_program(4_000, SEED),
            scale::tree_sum_fuel(4_000),
            scale::tree_sum_expected(4_000, SEED),
            64,
        ),
        (
            "histogram 1000x64",
            scale::histogram_program(1_000, 64, SEED),
            scale::histogram_fuel(1_000, 64),
            scale::histogram_expected(1_000, 64, SEED),
            64,
        ),
    ]
}

/// The chip configurations every shape runs on, over `cores` cores (a
/// power of two). Only the first, round robin on the default NoC, also
/// runs stats-only.
fn configs(cores: usize) -> [(&'static str, SimConfig); 7] {
    let base = || SimConfig::with_cores(cores);
    let width = 1 << cores.trailing_zeros().div_ceil(2);
    [
        ("round-robin", base()),
        (
            "least-loaded",
            base().with_placement(Placement::LeastLoaded),
        ),
        ("load-aware", base().with_placement(LoadAware)),
        ("chain-affine", base().with_placement(ChainAffine)),
        (
            "noc96+96",
            SimConfig {
                noc: NocConfig {
                    base_latency: 96,
                    per_hop_latency: 96,
                    link_bandwidth: None,
                },
                ..base()
            },
        ),
        (
            "mesh",
            SimConfig {
                topology: Some(Topology::mesh(width, cores / width)),
                ..base()
            },
        ),
        (
            "no-control-stall",
            SimConfig {
                fetch_stalls_on_unresolved_control: false,
                ..base()
            },
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

/// Every simulated statistic of a run as little-endian `u64`s: the
/// counters, both IPCs (as bits), the NoC statistics and each core's
/// attribution (busy, stalled by cause, parked, idle). Only
/// `trace_arena_bytes` is left out: it measures the host's arena, not
/// the simulated chip.
fn stats_bytes(stats: &SimStats) -> Vec<u8> {
    let mut words = vec![
        stats.instructions,
        stats.sections as u64,
        stats.cores_used as u64,
        stats.fetch_cycles,
        stats.total_cycles,
        stats.fetch_ipc.to_bits(),
        stats.retire_ipc.to_bits(),
        stats.remote_register_requests,
        stats.remote_memory_requests,
        stats.fork_copied_sources,
        stats.dmh_accesses,
        stats.forced_stall_releases,
        stats.peak_sections_per_core as u64,
        stats.noc.sent,
        stats.noc.delivered,
        stats.noc.total_hops,
        stats.noc.total_latency,
        stats.noc.peak_in_flight as u64,
        stats.attribution.len() as u64,
    ];
    for core in &stats.attribution {
        words.push(core.busy);
        words.extend(core.stalled);
        words.push(core.parked);
        words.push(core.idle);
    }
    words.iter().flat_map(|word| word.to_le_bytes()).collect()
}

fn row(
    shape: &'static str,
    config: &'static str,
    engine: &'static str,
    stats_only: bool,
    result: &SimResult,
) -> Row {
    (
        shape,
        config,
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
        fnv1a(stats_bytes(&result.stats)),
    )
}

/// Checks that `other` reproduces the sequential event run `sequential`
/// in every field but the static-analysis report.
fn assert_same_run(sequential: &SimResult, other: &SimResult, what: &str) {
    let mut other = other.clone();
    other.check = None;
    assert!(
        other == *sequential,
        "{what}: differs from the sequential run"
    );
}

/// Runs every (shape, config, stats mode, engine) cell, checking each
/// run's outputs against the shape's Rust oracle, and the validated
/// event run against the sequential one.
fn recompute() -> Vec<Row> {
    let mut rows = Vec::new();
    for (shape, program, fuel, expected, cores) in shapes() {
        let arena = TraceArena::from_program(&program, fuel).expect("halts");
        for (index, (name, config)) in configs(cores).into_iter().enumerate() {
            let modes: &[bool] = if index == 0 { &[false, true] } else { &[false] };
            for &stats_only in modes {
                let config = if stats_only {
                    config.clone().stats_only()
                } else {
                    config.clone()
                };
                let what = format!("{shape} {name} (stats_only {stats_only})");
                let sim = ManyCoreSim::new(config.clone());
                let event = sim.simulate_arena(&arena).expect("simulates");
                let reference = sim
                    .simulate_reference(&arena, &mut NoopProbe)
                    .expect("simulates");
                for (engine, result) in [("event", &event), ("reference", &reference)] {
                    assert_eq!(result.outputs, expected, "{what} {engine}: wrong outputs");
                    rows.push(row(shape, name, engine, stats_only, result));
                }
                let validated = ManyCoreSim::new(config.validated())
                    .simulate_arena(&arena)
                    .expect("simulates");
                let report = validated
                    .check
                    .as_ref()
                    .expect("validated runs attach a report");
                assert!(report.is_clean(), "{what}: validated report is not clean");
                assert_same_run(&event, &validated, &format!("{what} validated"));
            }
        }
    }
    rows
}

fn source_form(rows: &[Row]) -> String {
    let mut out = String::from("const GOLDEN: &[Row] = &[\n");
    for (shape, config, engine, stats_only, total, fetch, peak, core_of, stats) in rows {
        out.push_str(&format!(
            "    ({shape:?}, {config:?}, {engine:?}, {stats_only}, {total}, {fetch}, {peak}, {core_of:#018x}, {stats:#018x}),\n"
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
