//! Behaviour lock: simulated results pinned to recorded values.
//!
//! Each [`GOLDEN`] row fixes what one run simulates — cycle counts, the
//! per-core section peak, a hash of the placement and a digest of every
//! simulated statistic — for a miniature of each program shape. Every
//! shape runs round robin on the default NoC in both stats modes, and in
//! full mode under each other placement policy, the `noc96+96` stress
//! NoC, a mesh topology and an idealised fetch that never stalls on
//! control. Every cell must also agree, row for row and statistic for
//! statistic, with the naive oracle in `tests/oracle`, which shares no
//! code with the engine.
//!
//! Every cell is also run validated (the full static analysis first). It
//! must reproduce the plain run exactly, apart from the attached report,
//! so the table pins that mode too.
//!
//! [`DRIVER_GOLDEN`] pins the same thing one layer up, through the
//! driver's `execute_fueled`: the paper's sum example on every backend,
//! with a hash of its Figure 10 table, and the §5 doubling sweep.
//!
//! [`ILP_GOLDEN`] pins the ILP limit analysis: five dependence models
//! over three programs, with a digest of each program's
//! dependence-distance histogram.
//!
//! [`EVENT_GOLDEN`] pins the order of the event engine's probe hooks: the
//! length and a digest of the hook sequence a probe records on each
//! golden miniature and on the paper's sum example. A change to when or
//! in what order the walk, the drain or the stall dispatch fires a hook
//! moves it, even when every count holds.
//!
//! [`TICK_GOLDEN`] pins the two per-cycle gauge hooks that
//! [`EVENT_GOLDEN`] leaves out, on the same cells: how many cycles the
//! engine processes and walks, and a digest of every gauge it reports
//! (acting cores, pending wake-ups, NoC messages in flight, parked
//! sections). A change to the engine's schedule that keeps every result
//! moves it.
//!
//! A failing row prints the whole recomputed table in source form. Paste
//! it over the table only when the timing change is intended and
//! reviewed.

mod digest;
mod oracle;

use std::fmt::Debug;

use digest::{fnv1a_extend, EventDigest, TickDigest, FNV_OFFSET};
use parsecs::cc::Backend;
use parsecs::core::{format_figure10, ManyCoreSim, Placement, SimConfig, SimResult, SimStats};
use parsecs::driver::{
    ExecutionBackend, IlpBackend, ManyCoreBackend, RunReport, SequentialBackend,
};
use parsecs::ilp::{DependenceDistances, DistanceHistogram, IlpModel, IlpScheduler};
use parsecs::isa::Program;
use parsecs::machine::Machine;
use parsecs::noc::{NocConfig, Topology};
use parsecs::obs::{SimProbe, StallCause};
use parsecs::trace::{SourceKind, TraceArena};
use parsecs::workloads::pbbs::Benchmark;
use parsecs::workloads::{scale, sum};

/// One pinned run: `(shape, config, stats_only, total_cycles,
/// fetch_cycles, peak_sections_per_core, core_of_fnv, stats_fnv)`.
/// `core_of_fnv` is FNV-1a over `SimResult::core_of`, one little-endian
/// `u64` per section, and `stats_fnv` is FNV-1a over [`stats_bytes`].
type Row = (&'static str, &'static str, bool, u64, u64, usize, u64, u64);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("fan_chain 128x26", "round-robin", false, 1579, 1534, 28, 0xeba3bb2e997d2dc5, 0xabcfe33d38a10d4f),
    ("fan_chain 128x26", "round-robin", true, 1579, 1534, 28, 0xeba3bb2e997d2dc5, 0xabcfe33d38a10d4f),
    ("fan_chain 128x26", "least-loaded", false, 1940, 1905, 29, 0xb7add86b3317d70b, 0xb4592807ff46fb15),
    ("fan_chain 128x26", "load-aware", false, 1696, 1442, 97, 0x702234452614739b, 0x9c3c2b8ad86c6f6f),
    ("fan_chain 128x26", "chain-affine", false, 1696, 1442, 97, 0x702234452614739b, 0x9c3c2b8ad86c6f6f),
    ("fan_chain 128x26", "noc96+96", false, 74316, 30318, 28, 0xeba3bb2e997d2dc5, 0xf96e5cc67cfcc2c0),
    ("fan_chain 128x26", "mesh", false, 5348, 2751, 28, 0xeba3bb2e997d2dc5, 0xd86051a05ce8ed6b),
    ("fan_chain 128x26", "no-control-stall", false, 1546, 1428, 28, 0xeba3bb2e997d2dc5, 0x191f765a417b4be6),
    ("synth_histogram 3300x512", "round-robin", false, 25890, 22493, 8, 0x3727c8f972486325, 0xa99dc0739d52c102),
    ("synth_histogram 3300x512", "round-robin", true, 25890, 22493, 8, 0x3727c8f972486325, 0xa99dc0739d52c102),
    ("synth_histogram 3300x512", "least-loaded", false, 24629, 21232, 8, 0x411a5698d97bd645, 0xe10129fd3354e797),
    ("synth_histogram 3300x512", "load-aware", false, 24602, 21195, 8, 0x3966c7f0ad67b465, 0x0578b8d653729823),
    ("synth_histogram 3300x512", "chain-affine", false, 25709, 22314, 8, 0x9983ffa0c2803425, 0x979992397545e5ac),
    ("synth_histogram 3300x512", "noc96+96", false, 339941, 337279, 8, 0x3727c8f972486325, 0x1bb3ebb4a8a60119),
    ("synth_histogram 3300x512", "mesh", false, 31229, 27841, 8, 0x3727c8f972486325, 0x7fcad2be124e804d),
    ("synth_histogram 3300x512", "no-control-stall", false, 9391, 5911, 8, 0x3727c8f972486325, 0x4dace42029e27038),
    ("chain_sum 1000", "round-robin", false, 15065, 15053, 16, 0x977cdf51b1ee4c2d, 0x108a4339a7539b97),
    ("chain_sum 1000", "round-robin", true, 15065, 15053, 16, 0x977cdf51b1ee4c2d, 0x108a4339a7539b97),
    ("chain_sum 1000", "least-loaded", false, 15065, 15053, 16, 0x977cdf51b1ee4c2d, 0x108a4339a7539b97),
    ("chain_sum 1000", "load-aware", false, 15033, 15021, 253, 0x1560f271dfbd8c45, 0x30443aea45018045),
    ("chain_sum 1000", "chain-affine", false, 15033, 15021, 253, 0x1560f271dfbd8c45, 0x30443aea45018045),
    ("chain_sum 1000", "noc96+96", false, 205385, 205183, 16, 0x977cdf51b1ee4c2d, 0xd52acf5a7fdb7dd1),
    ("chain_sum 1000", "mesh", false, 16017, 15998, 16, 0x977cdf51b1ee4c2d, 0x3ba235dbf866bf14),
    ("chain_sum 1000", "no-control-stall", false, 10014, 6006, 16, 0x977cdf51b1ee4c2d, 0x60bb5f01dad5d328),
    ("tree_sum 4000", "round-robin", false, 743, 562, 8, 0x1f55ba245f2c9325, 0xbb48adc47d33578f),
    ("tree_sum 4000", "round-robin", true, 743, 562, 8, 0x1f55ba245f2c9325, 0xbb48adc47d33578f),
    ("tree_sum 4000", "least-loaded", false, 707, 539, 8, 0x50f49b59d069b1c5, 0x2a3483ec30c4998f),
    ("tree_sum 4000", "load-aware", false, 713, 582, 8, 0x7dc19dbbcc491e85, 0x207da51707614c35),
    ("tree_sum 4000", "chain-affine", false, 723, 583, 8, 0x2483b6ff6dda0c05, 0x4c679fc9cfc45cbf),
    ("tree_sum 4000", "noc96+96", false, 6832, 1824, 8, 0x1f55ba245f2c9325, 0x13e77df7114d5ea0),
    ("tree_sum 4000", "mesh", false, 791, 586, 8, 0x1f55ba245f2c9325, 0x4070adfe934466a3),
    ("tree_sum 4000", "no-control-stall", false, 743, 562, 8, 0x1f55ba245f2c9325, 0xbb48adc47d33578f),
    ("histogram 1000x64", "round-robin", false, 10508, 10126, 2, 0x9b92ed251444bf25, 0x2abdde074dc43d9b),
    ("histogram 1000x64", "round-robin", true, 10508, 10126, 2, 0x9b92ed251444bf25, 0x2abdde074dc43d9b),
    ("histogram 1000x64", "least-loaded", false, 10508, 10126, 6, 0xd35b13095d4f6880, 0x3f5ff3f5448d3c1e),
    ("histogram 1000x64", "load-aware", false, 10508, 10126, 8, 0xadb9b1b36ffb463b, 0x0961267faaf6525a),
    ("histogram 1000x64", "chain-affine", false, 10508, 10126, 8, 0xadb9b1b36ffb463b, 0x0961267faaf6525a),
    ("histogram 1000x64", "noc96+96", false, 162399, 161855, 2, 0x9b92ed251444bf25, 0xf6c7caecf57335de),
    ("histogram 1000x64", "mesh", false, 13310, 12949, 2, 0x9b92ed251444bf25, 0xc377e2d4afabb68a),
    ("histogram 1000x64", "no-control-stall", false, 1178, 698, 2, 0x9b92ed251444bf25, 0x7cf1eaa676417035),
    ("stall_paths", "round-robin", false, 66, 65, 1, 0xbde40bb18a01afc1, 0x4abfd27fe92087c1),
    ("stall_paths", "round-robin", true, 66, 65, 1, 0xbde40bb18a01afc1, 0x4abfd27fe92087c1),
    ("stall_paths", "least-loaded", false, 66, 65, 1, 0xbde40bb18a01afc1, 0x4abfd27fe92087c1),
    ("stall_paths", "load-aware", false, 66, 65, 3, 0xd97a16b6742a4c46, 0xa7b8b961265d99bf),
    ("stall_paths", "chain-affine", false, 66, 65, 3, 0xd97a16b6742a4c46, 0xa7b8b961265d99bf),
    ("stall_paths", "noc96+96", false, 2330, 2329, 1, 0xbde40bb18a01afc1, 0x0de8a9d8f1ba6dc6),
    ("stall_paths", "mesh", false, 72, 71, 1, 0xbde40bb18a01afc1, 0x71509d83be8a05be),
    ("stall_paths", "no-control-stall", false, 38, 29, 1, 0xbde40bb18a01afc1, 0x6a3403bf584ff52b),
];

const SEED: u64 = 7;

/// The benchmark's two program shapes and the three `repro_perf` shapes
/// at miniature size, then [`stall_paths_program`], with the chip each
/// runs on: `(name, program, fuel, oracle outputs, cores)`.
fn shapes() -> [(&'static str, Program, u64, Vec<u64>, usize); 6] {
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
        ("stall_paths", stall_paths_program(), 10_000, vec![1], 8),
    ]
}

/// A shape for the two in-place fetch-stall paths no scale generator
/// takes. Each `fork` puts the conditional jump after it at the head of
/// the fork's continuation section, so the jump reads its flags from the
/// leaf's compare in another section. In the leaves, a compare of a
/// loaded value sits two to five moves before its jump.
fn stall_paths_program() -> Program {
    let mut src = String::from(
        "t:      .quad 3, 1, 4, 1, 5, 9, 2, 6
main:   movq $t, %rdi
        movq $0, %rbx
",
    );
    for leaf in 0..4 {
        src.push_str(&format!(
            "        fork leaf{leaf}
        jne .m{leaf}
        addq $1, %rbx
.m{leaf}:   movq $0, %rdx
"
        ));
    }
    src.push_str("        out  %rbx\n        halt\n");
    for leaf in 0..4 {
        let off = leaf * 8;
        src.push_str(&format!(
            "leaf{leaf}:  movq {off}(%rdi), %rcx
        cmpq $4, %rcx
"
        ));
        for k in 0..leaf + 2 {
            src.push_str(&format!("        movq ${k}, %rdx\n"));
        }
        src.push_str(&format!(
            "        je .l{leaf}
        addq $1, %rsi
.l{leaf}:   endfork
"
        ));
    }
    parsecs::asm::assemble(&src).unwrap_or_else(|e| panic!("{e}\n{src}"))
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
        ("load-aware", base().with_placement(Placement::LoadAware)),
        (
            "chain-affine",
            base().with_placement(Placement::ChainAffine),
        ),
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
    fnv1a_extend(FNV_OFFSET, bytes)
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

fn row(shape: &'static str, config: &'static str, stats_only: bool, result: &SimResult) -> Row {
    (
        shape,
        config,
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

/// Checks that the validated run `validated` reproduces the plain run
/// `plain` in every field but the static-analysis report.
fn assert_same_run(plain: &SimResult, validated: &SimResult, what: &str) {
    let mut validated = validated.clone();
    validated.check = None;
    assert!(validated == *plain, "{what}: differs from the plain run");
}

/// Runs every (shape, config, stats mode) cell, checking each run's
/// outputs against the shape's Rust oracle, the full-mode run against
/// the naive timing oracle (a stats-only row must equal its full-mode
/// row, statistics digest included), and the validated run against the
/// plain one.
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
                let run = ManyCoreSim::new(config.clone())
                    .simulate_arena(&arena)
                    .expect("simulates");
                assert_eq!(run.outputs, expected, "{what}: wrong outputs");
                if !stats_only {
                    oracle::agree(&arena, &config, &run, &what);
                }
                rows.push(row(shape, name, stats_only, &run));
                let validated = ManyCoreSim::new(config.validated())
                    .simulate_arena(&arena)
                    .expect("simulates");
                let report = validated
                    .check
                    .as_ref()
                    .expect("validated runs attach a report");
                assert!(report.is_clean(), "{what}: validated report is not clean");
                assert_same_run(&run, &validated, &format!("{what} validated"));
            }
        }
    }
    rows
}

fn source_form(rows: &[Row]) -> String {
    let mut out = String::from("const GOLDEN: &[Row] = &[\n");
    for (shape, config, stats_only, total, fetch, peak, core_of, stats) in rows {
        out.push_str(&format!(
            "    ({shape:?}, {config:?}, {stats_only}, {total}, {fetch}, {peak}, {core_of:#018x}, {stats:#018x}),\n"
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

/// One pinned ILP analysis: `(program, model, instructions, cycles,
/// peak_parallelism, ilp_bits, distances_fnv)`. `ilp_bits` is
/// `IlpResult::ilp` as `f64::to_bits`; `distances_fnv` is FNV-1a over
/// [`distance_bytes`] of the program's `DependenceDistances::new(true)`
/// histogram, so it repeats across a program's rows.
type IlpRow = (&'static str, &'static str, u64, u64, u64, u64, u64);

#[rustfmt::skip]
const ILP_GOLDEN: &[IlpRow] = &[
    ("sum call [4, 2, 6, 4, 5]", "parallel-ideal", 64, 12, 13, 0x4015555555555555, 0x58a82dd39dbdedf8),
    ("sum call [4, 2, 6, 4, 5]", "sequential-oracle", 64, 30, 5, 0x4001111111111111, 0x58a82dd39dbdedf8),
    ("sum call [4, 2, 6, 4, 5]", "speculative-core", 64, 30, 5, 0x4001111111111111, 0x58a82dd39dbdedf8),
    ("sum call [4, 2, 6, 4, 5]", "in-order", 64, 48, 3, 0x3ff5555555555555, 0x58a82dd39dbdedf8),
    ("sum call [4, 2, 6, 4, 5]", "parallel-window-2048", 64, 12, 13, 0x4015555555555555, 0x58a82dd39dbdedf8),
    ("comparison_sort 96", "parallel-ideal", 48117, 907, 5665, 0x404a867de214e2ee, 0xe4c52eb0a16ec994),
    ("comparison_sort 96", "sequential-oracle", 48117, 18267, 5282, 0x400512a004093fdd, 0xe4c52eb0a16ec994),
    ("comparison_sort 96", "speculative-core", 48117, 18267, 64, 0x400512a004093fdd, 0xe4c52eb0a16ec994),
    ("comparison_sort 96", "in-order", 48117, 44703, 4, 0x3ff138d07f4514bc, 0xe4c52eb0a16ec994),
    ("comparison_sort 96", "parallel-window-2048", 48117, 2016, 267, 0x4037de1861861862, 0xe4c52eb0a16ec994),
    ("synth_histogram 3300x512", "parallel-ideal", 51831, 6166, 3562, 0x4020cfd6d06b9d5a, 0xbe19deeea69d3144),
    ("synth_histogram 3300x512", "sequential-oracle", 51831, 6166, 3562, 0x4020cfd6d06b9d5a, 0xbe19deeea69d3144),
    ("synth_histogram 3300x512", "speculative-core", 51831, 6166, 64, 0x4020cfd6d06b9d5a, 0xbe19deeea69d3144),
    ("synth_histogram 3300x512", "in-order", 51831, 45226, 4, 0x3ff256328f2a1472, 0xbe19deeea69d3144),
    ("synth_histogram 3300x512", "parallel-window-2048", 51831, 6166, 148, 0x4020cfd6d06b9d5a, 0xbe19deeea69d3144),
];

/// The histogram as little-endian `u64`s: every bucket, then the total
/// and the largest distance.
fn distance_bytes(histogram: &DistanceHistogram) -> Vec<u8> {
    let mut words = histogram.buckets().to_vec();
    words.push(histogram.total());
    words.push(histogram.max_distance());
    words.iter().flat_map(|word| word.to_le_bytes()).collect()
}

/// The paper's sum call program, a ~48k-instruction comparison sort and
/// the histogram miniature, each under five models: the paper's two, the
/// speculative core, the in-order lower bound and the parallel model in a
/// 2048-entry window. The speculative core's 64-wide issue binds, but its
/// window does not move any pinned figure there (the issue width masks
/// it), so the last model pins a window that binds.
fn ilp_recompute() -> Vec<IlpRow> {
    let sort = Benchmark::ComparisonSort;
    let programs = [
        (
            "sum call [4, 2, 6, 4, 5]",
            sum::call_program(&[4, 2, 6, 4, 5]),
            10_000,
            sum::expected(&[4, 2, 6, 4, 5]),
        ),
        (
            "comparison_sort 96",
            sort.program(96, 1, Backend::Calls).expect("compiles"),
            10_000_000,
            sort.expected(96, 1),
        ),
        (
            "synth_histogram 3300x512",
            scale::synth_histogram_program(3_300, 512, SEED),
            scale::synth_histogram_fuel(3_300, 512),
            scale::synth_histogram_expected(3_300, 512, SEED),
        ),
    ];
    let models = [
        ("parallel-ideal", IlpModel::parallel_ideal()),
        ("sequential-oracle", IlpModel::sequential_oracle()),
        ("speculative-core", IlpModel::speculative_core()),
        ("in-order", IlpModel::in_order()),
        (
            "parallel-window-2048",
            IlpModel {
                window: Some(2048),
                ..IlpModel::parallel_ideal()
            },
        ),
    ];
    let mut rows = Vec::new();
    for (name, program, fuel, expected) in programs {
        let mut distances = DependenceDistances::new(true);
        let outcome = Machine::load(&program)
            .and_then(|mut machine| machine.run_with_sink(fuel, &mut distances))
            .expect("halts");
        assert_eq!(outcome.outputs, expected, "{name}: wrong outputs");
        let distances = fnv1a(distance_bytes(&distances.finish()));
        // One pass over every model must give each model what its own
        // backend reports.
        let mut scheduler = IlpScheduler::new(models.iter().map(|(_, model)| model.clone()));
        Machine::load(&program)
            .and_then(|mut machine| machine.run_with_sink(fuel, &mut scheduler))
            .expect("halts");
        for ((label, model), one_pass) in models.iter().zip(scheduler.finish()) {
            let report = IlpBackend::new(*label, model.clone())
                .execute_fueled(&program, fuel)
                .expect("halts");
            let result = report.ilp().expect("ilp backend");
            assert_eq!(*result, one_pass, "{name} {label}: one pass differs");
            rows.push((
                name,
                *label,
                result.instructions,
                result.cycles,
                result.peak_parallelism,
                result.ilp.to_bits(),
                distances,
            ));
        }
    }
    rows
}

#[test]
fn ilp_analyses_match_the_golden_table() {
    let rows = ilp_recompute();
    let mut source = String::from("const ILP_GOLDEN: &[IlpRow] = &[\n");
    for (program, model, insns, cycles, peak, ilp, distances) in &rows {
        source.push_str(&format!(
            "    ({program:?}, {model:?}, {insns}, {cycles}, {peak}, {ilp:#018x}, {distances:#018x}),\n"
        ));
    }
    source.push_str("];\n");
    assert!(
        rows == ILP_GOLDEN,
        "ILP analyses moved; recomputed table:\n{source}"
    );
}

/// One pinned probe event sequence: `(cell, events, events_fnv)`, the
/// count and digest an [`EventDigest`] probe folds the run's hooks into.
type EventRow = (&'static str, u64, u64);

#[rustfmt::skip]
const EVENT_GOLDEN: &[EventRow] = &[
    ("fan_chain 128x26", 31461, 0x79b3b20231a2e27b),
    ("synth_histogram 3300x512", 29094, 0xa412cb1c08daa379),
    ("chain_sum 1000", 18817, 0x9d0ffe93497ab15b),
    ("tree_sum 4000", 3439, 0xaef0e67fe1b98a3f),
    ("histogram 1000x64", 10766, 0xff9570abf2a76a86),
    ("stall_paths", 85, 0x643409d0e82beda8),
    ("sum [4, 2, 6, 4, 5]", 67, 0xdd005a8a906a9ac3),
];

/// Runs the golden miniatures on the chips [`shapes`] runs them on, then
/// the paper's sum example on eight cores, all round robin, each under a
/// fresh `D` probe. Each cell also checks that the probe steers nothing
/// and that a stats-only run folds into the same probe state.
fn probe_cells<D: SimProbe + Default + PartialEq + Debug>() -> Vec<(&'static str, D)> {
    let paper = (
        "sum [4, 2, 6, 4, 5]",
        sum::fork_program(&[4, 2, 6, 4, 5]),
        10_000,
        sum::expected(&[4, 2, 6, 4, 5]),
        8,
    );
    let mut cells = Vec::new();
    for (name, program, fuel, _, cores) in shapes().into_iter().chain([paper]) {
        let arena = TraceArena::from_program(&program, fuel).expect("halts");
        let sim = ManyCoreSim::new(SimConfig::with_cores(cores));
        let mut full = D::default();
        let probed = sim
            .simulate_arena_probed(&arena, &mut full)
            .expect("simulates");
        assert!(
            probed == sim.simulate_arena(&arena).expect("simulates"),
            "{name}: the probe steered the run"
        );
        let mut stats_only = D::default();
        ManyCoreSim::new(sim.config().clone().stats_only())
            .simulate_arena_probed(&arena, &mut stats_only)
            .expect("simulates");
        assert_eq!(
            full, stats_only,
            "{name}: stats-only diverges from full mode"
        );
        cells.push((name, full));
    }
    cells
}

/// The [`probe_cells`] rows of an [`EventDigest`].
fn event_recompute() -> Vec<EventRow> {
    probe_cells::<EventDigest>()
        .into_iter()
        .map(|(cell, digest)| (cell, digest.events, digest.fnv))
        .collect()
}

#[test]
fn probe_event_sequences_match_the_golden_table() {
    let rows = event_recompute();
    let mut source = String::from("const EVENT_GOLDEN: &[EventRow] = &[\n");
    for (cell, events, fnv) in &rows {
        source.push_str(&format!("    ({cell:?}, {events}, {fnv:#018x}),\n"));
    }
    source.push_str("];\n");
    assert!(
        rows == EVENT_GOLDEN,
        "probe event sequences moved; recomputed table:\n{source}"
    );
}

/// One pinned gauge stream: `(cell, ticks, walks, gauges_fnv)`, the
/// counts and digest a [`TickDigest`] probe folds the run's `on_tick` and
/// `on_walk` hooks into.
type TickRow = (&'static str, u64, u64, u64);

#[rustfmt::skip]
const TICK_GOLDEN: &[TickRow] = &[
    ("fan_chain 128x26", 1499, 1499, 0x1954ebc7c4b3aeb2),
    ("synth_histogram 3300x512", 21323, 21323, 0x9be3e0160a20e0d3),
    ("chain_sum 1000", 8421, 8421, 0x7fda4b04ec54948c),
    ("tree_sum 4000", 562, 562, 0x86e020c4636c42f8),
    ("histogram 1000x64", 8159, 8159, 0x22eee046506a08d4),
    ("stall_paths", 49, 49, 0x770468dc27535a06),
    ("sum [4, 2, 6, 4, 5]", 35, 35, 0x117782c7e548c4c5),
];

/// The [`probe_cells`] rows of a [`TickDigest`].
fn tick_recompute() -> Vec<TickRow> {
    probe_cells::<TickDigest>()
        .into_iter()
        .map(|(cell, digest)| (cell, digest.ticks, digest.walks, digest.fnv))
        .collect()
}

#[test]
fn probe_tick_gauges_match_the_golden_table() {
    let rows = tick_recompute();
    let mut source = String::from("const TICK_GOLDEN: &[TickRow] = &[\n");
    for (cell, ticks, walks, fnv) in &rows {
        source.push_str(&format!("    ({cell:?}, {ticks}, {walks}, {fnv:#018x}),\n"));
    }
    source.push_str("];\n");
    assert!(
        rows == TICK_GOLDEN,
        "probe gauges moved; recomputed table:\n{source}"
    );
}

/// The `stall_paths` shape takes both in-place stall paths on its golden
/// chip: a control instruction stalls on a remote register source, and
/// one issues without a stall because its local flag producer completes
/// exactly on its fetch cycle.
#[test]
fn the_stall_path_shape_takes_both_in_place_paths() {
    let arena = TraceArena::from_program(&stall_paths_program(), 10_000).expect("halts");
    let run = ManyCoreSim::new(SimConfig::with_cores(8))
        .simulate_arena(&arena)
        .expect("simulates");
    let remote: u64 = run
        .stats
        .attribution
        .iter()
        .map(|core| core.stalled[StallCause::RemoteRegister.index()])
        .sum();
    let rows: Vec<_> = run.timings().iter().collect();
    let on_time: Vec<String> = (0..arena.len())
        .filter(|&seq| arena.is_control(seq))
        .filter(|&seq| {
            arena.reg_sources(seq).iter().any(|dep| match dep.kind() {
                SourceKind::Local { producer } => rows[producer].completion() == rows[seq].fd,
                _ => false,
            })
        })
        .map(|seq| rows[seq].name())
        .collect();
    assert!(remote > 0, "no remote-register stall cycles");
    assert!(
        !on_time.is_empty(),
        "no local producer completes on its consumer's fetch"
    );
}
