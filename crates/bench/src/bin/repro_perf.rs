//! Wall-clock measurement of the event-driven many-core simulator on the
//! large-scale workloads of `parsecs_workloads::scale` — the artefact
//! behind the repository's simulator performance trajectory.
//!
//! Every cell simulates one pre-sectioned trace, checks the functional
//! outputs against the workload's Rust oracle, and records the
//! wall-clock time (best of [`RUNS`] after one warm-up) in
//! `BENCH_sim.json`. The engine's timing itself is checked elsewhere:
//! the workspace's tests hold it to a naive cycle-stepped oracle.
//!
//! The headline cell is the serial `chain_sum` under a latency-stress NoC
//! (a deeply pipelined interconnect charging 96+96 cycles per leg): the
//! run is dominated by cycles in which every core is idle or stalled on a
//! known future event, which the event-driven scheduler skips in O(1).
//! `--trace-out` exports that cell.
//!
//! The functional front-end is the **streaming trace pipeline**: each
//! workload is pre-executed once through [`TraceArena::from_program`]
//! (machine → streaming sectioner → arena, one pass). The pipeline itself
//! is also measured: the `chain_sum` cell times the streaming pipeline
//! and records the arena's bytes-per-instruction footprint.
//!
//! The run fails when the engine refuses a cell (a deadlock is refused
//! as `SimError::Diverged`, so the cell's `.expect` panics) or, in the
//! full grid (exit code 1), when one of the bars below fails.
//!
//! A **validation guard row** always rides along: the stats-only
//! 1024-core `fan_chain` cell is timed with `SimConfig::validate`
//! explicitly off and explicitly on. The off cell is the exact hot path
//! of the pre-validation simulator (one never-taken branch), so its time
//! must stay within noise (±15%, full mode) of the stats-only mode cell
//! measured in the same process — the gate proving the static analyzer
//! is zero-cost when disabled. Both times land in `BENCH_sim.json` so
//! the absolute numbers stay comparable across revisions.
//!
//! A **probe guard row** rides along the same cell: the explicit probed
//! entry point ([`ManyCoreSim::simulate_arena_probed`]) with the
//! compiled-out [`NoopProbe`] must stay within noise (±15%, full mode)
//! of the unprobed stats cell measured in the same process — the gate
//! proving the telemetry layer is zero-cost when disabled — and an
//! enabled [`CountingProbe`] run must be bit-identical to the unprobed
//! one (observers never steer). Every grid row also records the cycle
//! attribution telemetry (occupancy plus busy / stalled-by-cause /
//! parked / idle chip totals) in `BENCH_sim.json`.
//!
//! Usage: `repro_perf [--quick] [--validate] [--json [PATH]]
//! [--trace-out PATH]` — `--quick` shrinks the grid for CI smoke runs
//! (default JSON path `BENCH_sim.json`); `--validate` runs every grid
//! cell with the full static analysis (`parsecs-check`) on, which also
//! disarms the guard rows' noise gates (every cell then pays the
//! analysis by design); `--trace-out` re-runs the headline
//! cell with a streaming Chrome-trace writer and writes a
//! Perfetto-loadable trace to `PATH`. An unknown flag prints the usage
//! line and exits with code 2.

use std::io::BufWriter;
use std::time::Instant;

use parsecs_bench::{json, AttributionTotals};
use parsecs_check::ScheduleBounds;
use parsecs_core::{CountingProbe, ManyCoreSim, Placement, SimConfig, SimResult};
use parsecs_isa::Program;
use parsecs_noc::NocConfig;
use parsecs_obs::{ChromeTraceWriter, NoopProbe};
use parsecs_trace::TraceArena;
use parsecs_workloads::scale;

/// Timed rounds per cell (after one untimed warm-up); the best time is
/// recorded.
const RUNS: usize = 5;

/// Every flag the bin accepts, as the usage line shows them.
const USAGE: &str = "--quick --validate --json [PATH] --trace-out PATH";

/// Where `--json` without a path writes.
const JSON_DEFAULT: &str = "BENCH_sim.json";

/// A parsed command line.
#[derive(Debug)]
struct Flags {
    /// `--quick`: the small CI grid.
    quick: bool,
    /// `--validate`: run every cell with the static analysis on.
    validate: bool,
    /// `--json [PATH]`: where to write the JSON rows.
    json: Option<String>,
    /// `--trace-out PATH`: where to write a Chrome trace.
    trace_out: Option<String>,
}

impl Flags {
    /// Parses the process arguments. A bad argument prints the usage
    /// line and exits with code 2.
    fn parse() -> Flags {
        Flags::parse_from(std::env::args().skip(1)).unwrap_or_else(|message| {
            eprintln!("{message}");
            std::process::exit(2);
        })
    }

    /// Parses `args` (without the program name); the error is the
    /// message to print.
    fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Flags, String> {
        let mut flags = Flags {
            quick: false,
            validate: false,
            json: None,
            trace_out: None,
        };
        let mut args = args.into_iter().peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => flags.quick = true,
                "--validate" => flags.validate = true,
                "--json" => {
                    let path = args.next_if(|path| !path.starts_with("--"));
                    flags.json = Some(path.unwrap_or_else(|| JSON_DEFAULT.into()));
                }
                "--trace-out" => {
                    flags.trace_out = Some(args.next().ok_or("--trace-out takes a file path")?);
                }
                _ => return Err(format!("unknown argument '{arg}' (supported: {USAGE})")),
            }
        }
        Ok(flags)
    }

    /// Writes `body()` to the `--json` path, if one was given, and
    /// reports the row count.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    fn write_json(&self, rows: usize, body: impl FnOnce() -> String) {
        if let Some(path) = &self.json {
            std::fs::write(path, body()).unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("wrote {rows} rows to {path}");
        }
    }
}

/// Runs `run` once and returns its result with the wall time in
/// milliseconds.
fn timed<T>(run: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let result = std::hint::black_box(run());
    (result, start.elapsed().as_secs_f64() * 1e3)
}

/// The best wall time, in milliseconds, of each of `runs` over `rounds`
/// rounds. Each round calls every closure once, in order, so a noisy
/// phase of the host hits all of them rather than biasing one. Warm-up
/// runs are the caller's.
fn best_of<T, const N: usize>(rounds: usize, runs: [&dyn Fn() -> T; N]) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for _ in 0..rounds {
        for (best, run) in best.iter_mut().zip(runs) {
            *best = best.min(timed(run).1);
        }
    }
    best
}

/// Simulates `arena` on `sim` with a streaming [`ChromeTraceWriter`]
/// attached, writes the Perfetto-loadable trace (one microsecond per
/// simulated cycle) to `path`, reports it under `label` and returns the
/// run's result.
///
/// # Panics
///
/// Panics if the file cannot be written or the simulation fails.
fn write_chrome_trace(path: &str, label: &str, sim: &ManyCoreSim, arena: &TraceArena) -> SimResult {
    let file = std::fs::File::create(path).unwrap_or_else(|e| panic!("create {path}: {e}"));
    let mut writer = ChromeTraceWriter::new(BufWriter::new(file));
    let result = sim
        .simulate_arena_probed(arena, &mut writer)
        .expect("simulates");
    let events = writer.events();
    writer.finish().expect("flush the Chrome trace");
    eprintln!("wrote {events} trace events for {label} to {path}");
    result
}

/// Ends the run on its hard gates: prints each failure as `FAIL: …` to
/// stderr and exits with code 1 if there was any.
fn exit_on_failures(failures: &[String]) {
    for failure in failures {
        eprintln!("FAIL: {failure}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

struct Cell {
    workload: String,
    config: String,
    sim: ManyCoreSim,
    trace: std::rc::Rc<TraceArena>,
    expected: Vec<u64>,
    headline: bool,
}

struct Row {
    workload: String,
    config: String,
    cores: usize,
    instructions: u64,
    sections: usize,
    total_cycles: u64,
    fetch_ipc: f64,
    arena_bytes_per_insn: f64,
    event_ms: f64,
    /// Chip-wide fetch-slot occupancy over all configured cores.
    occupancy: f64,
    /// Chip-wide sums of the per-core cycle attribution table.
    attr: AttributionTotals,
    headline: bool,
}

/// The streaming front-end's time and footprint on the `chain_sum`
/// workload.
struct Pipeline {
    workload: String,
    instructions: u64,
    streaming_ms: f64,
    arena_bytes_per_insn: f64,
}

/// Full-mode vs stats-only comparison on the 1024-core chip-scale cell:
/// what dropping the stage table (and the resolver's three stage
/// columns) buys in wall clock and resident state.
struct ModeRow {
    workload: String,
    cores: usize,
    instructions: u64,
    full_ms: f64,
    stats_ms: f64,
    speedup: f64,
    full_state_bytes_per_insn: f64,
    stats_state_bytes_per_insn: f64,
}

/// Timed rounds for the chip-scale full-vs-stats cell (after one untimed
/// warm-up per mode): the cell simulates 10M+ instructions at 1024
/// cores, so a short best-of keeps the bench's runtime sane.
const MODE_RUNS: usize = 2;

/// The validation guard: the stats-only chip-scale cell with the static
/// analysis explicitly off (the pre-validation hot path) and explicitly
/// on (analysis + simulation).
struct GuardRow {
    workload: String,
    cores: usize,
    instructions: u64,
    validate_off_ms: f64,
    validate_on_ms: f64,
    /// `validate_on_ms / validate_off_ms` — what the full static
    /// analysis costs on top of the simulation when armed.
    overhead: f64,
    /// Measured cycles of the validated run, paired with its schedule
    /// bounds below.
    cycles: u64,
    /// The schedule analyzer's verdict attached by the validated run:
    /// the certified lower bound.
    schedule: ScheduleBounds,
}

/// Times the stats-only cell with validation off and on.
fn measure_guard(name: &str, arena: &TraceArena, cores: usize) -> GuardRow {
    let off_sim = ManyCoreSim::new(SimConfig::with_cores(cores).stats_only());
    let on_sim = ManyCoreSim::new(SimConfig::with_cores(cores).stats_only().validated());
    let off = off_sim.simulate_arena(arena).expect("simulates");
    let on = on_sim.simulate_arena(arena).expect("simulates");
    assert_eq!(
        off.stats, on.stats,
        "{name}: validation changed the timing model"
    );
    assert!(on.check.as_ref().is_some_and(|report| report.is_clean()));
    let schedule = on
        .check
        .as_ref()
        .and_then(|report| report.schedule.clone())
        .expect("a validated run attaches schedule bounds");
    let cycles = on.stats.total_cycles;
    let [off_ms, on_ms] = best_of(
        MODE_RUNS,
        [
            &|| off_sim.simulate_arena(arena).expect("simulates"),
            &|| on_sim.simulate_arena(arena).expect("simulates"),
        ],
    );
    GuardRow {
        workload: name.to_string(),
        cores,
        instructions: arena.len() as u64,
        validate_off_ms: off_ms,
        validate_on_ms: on_ms,
        overhead: on_ms / off_ms,
        cycles,
        schedule,
    }
}

/// Times both stats modes on one arena at `cores` cores and checks the
/// streaming aggregates are bit-identical to the recorded ones.
fn measure_modes(name: &str, arena: &TraceArena, cores: usize, validate: bool) -> ModeRow {
    let mut full_config = SimConfig::with_cores(cores);
    full_config.validate = validate;
    let mut stats_config = SimConfig::with_cores(cores).stats_only();
    stats_config.validate = validate;
    let full_sim = ManyCoreSim::new(full_config);
    let stats_sim = ManyCoreSim::new(stats_config);
    let full = full_sim.simulate_arena(arena).expect("simulates");
    let stats = stats_sim.simulate_arena(arena).expect("simulates");
    assert_eq!(
        full.stats, stats.stats,
        "{name} @{cores}c: stats-only aggregates diverge from full mode"
    );
    assert_eq!(full.outputs, stats.outputs);
    let [full_ms, stats_ms] = best_of(
        MODE_RUNS,
        [
            &|| full_sim.simulate_arena(arena).expect("simulates"),
            &|| stats_sim.simulate_arena(arena).expect("simulates"),
        ],
    );
    let n = arena.len() as f64;
    ModeRow {
        workload: name.to_string(),
        cores,
        instructions: arena.len() as u64,
        full_ms,
        stats_ms,
        speedup: full_ms / stats_ms,
        full_state_bytes_per_insn: full.sim_state_bytes() as f64 / n,
        stats_state_bytes_per_insn: stats.sim_state_bytes() as f64 / n,
    }
}

fn stress_noc() -> SimConfig {
    let mut config = SimConfig::with_cores(64);
    config.noc = NocConfig {
        base_latency: 96,
        per_hop_latency: 96,
        link_bandwidth: None,
    };
    config
}

fn arena_of(program: &Program, fuel: u64) -> std::rc::Rc<TraceArena> {
    std::rc::Rc::new(TraceArena::from_program(program, fuel).expect("workload halts within fuel"))
}

/// Times the streaming pipeline on one program (best of 3 after an
/// untimed warm-up).
fn measure_pipeline(name: &str, program: &Program, fuel: u64) -> Pipeline {
    let arena = TraceArena::from_program(program, fuel).expect("halts");
    let [streaming_ms] = best_of(
        3,
        [&|| TraceArena::from_program(program, fuel).expect("halts")],
    );
    Pipeline {
        workload: name.to_string(),
        instructions: arena.len() as u64,
        streaming_ms,
        arena_bytes_per_insn: arena.bytes_per_instruction(),
    }
}

/// Applies the `--validate` flag to one cell configuration.
fn with_validation(mut config: SimConfig, validate: bool) -> SimConfig {
    if validate {
        config.validate = true;
    }
    config
}

fn build_grid(quick: bool, validate: bool) -> Vec<Cell> {
    // ~1M+ dynamic instructions per workload at full scale; ~1/12 of that
    // for the CI smoke grid.
    let (chain_n, hist_n, tree_n) = if quick {
        (8_000, 8_000, 20_000)
    } else {
        (110_000, 100_000, 250_000)
    };
    let seed = 7;
    let buckets = 64;

    let chain = arena_of(
        &scale::chain_sum_program(chain_n, seed),
        scale::chain_sum_fuel(chain_n),
    );
    let histogram = arena_of(
        &scale::histogram_program(hist_n, buckets, seed),
        scale::histogram_fuel(hist_n, buckets),
    );
    let tree = arena_of(
        &scale::tree_sum_program(tree_n, seed),
        scale::tree_sum_fuel(tree_n),
    );

    vec![
        Cell {
            workload: format!("chain_sum-{chain_n}"),
            config: "64c:default".into(),
            sim: ManyCoreSim::new(with_validation(SimConfig::with_cores(64), validate)),
            trace: chain.clone(),
            expected: scale::chain_sum_expected(chain_n, seed),
            headline: false,
        },
        Cell {
            workload: format!("chain_sum-{chain_n}"),
            config: "64c:noc96+96".into(),
            sim: ManyCoreSim::new(with_validation(stress_noc(), validate)),
            trace: chain.clone(),
            expected: scale::chain_sum_expected(chain_n, seed),
            headline: true,
        },
        Cell {
            // The chained-writer co-location policy, measured where the
            // handoff path is long: under the stress NoC each link's
            // renaming round trip to the previous link costs 2×(96+96)
            // cycles unless the two links share a core. Chain-affine
            // placement roughly halves the simulated runtime of this cell
            // versus the round-robin stress cell above.
            workload: format!("chain_sum-{chain_n}"),
            config: "64c:noc96+96:chain-affine".into(),
            sim: ManyCoreSim::new(with_validation(
                stress_noc().with_placement(Placement::ChainAffine),
                validate,
            )),
            trace: chain,
            expected: scale::chain_sum_expected(chain_n, seed),
            headline: false,
        },
        Cell {
            workload: format!("histogram-{hist_n}x{buckets}"),
            config: "64c:default".into(),
            sim: ManyCoreSim::new(with_validation(SimConfig::with_cores(64), validate)),
            trace: histogram,
            expected: scale::histogram_expected(hist_n, buckets, seed),
            headline: false,
        },
        Cell {
            workload: format!("tree_sum-{tree_n}"),
            config: "64c:default".into(),
            sim: ManyCoreSim::new(with_validation(SimConfig::with_cores(64), validate)),
            trace: tree,
            expected: scale::tree_sum_expected(tree_n, seed),
            headline: false,
        },
    ]
}

fn measure(cell: &Cell) -> Row {
    // One untimed warm-up, then RUNS timed rounds; keep the best.
    let event = cell.sim.simulate_arena(&cell.trace).expect("simulates");
    let [event_ms] = best_of(
        RUNS,
        [&|| cell.sim.simulate_arena(&cell.trace).expect("simulates")],
    );
    assert_eq!(
        event.outputs, cell.expected,
        "{} [{}]: outputs disagree with the oracle",
        cell.workload, cell.config
    );
    Row {
        workload: cell.workload.clone(),
        config: cell.config.clone(),
        cores: cell.sim.config().cores,
        instructions: event.stats.instructions,
        sections: event.stats.sections,
        total_cycles: event.stats.total_cycles,
        fetch_ipc: event.stats.fetch_ipc,
        arena_bytes_per_insn: event.stats.trace_bytes_per_instruction(),
        event_ms,
        occupancy: event.stats.occupancy(),
        attr: AttributionTotals::from_cores(&event.stats.attribution),
        headline: cell.headline,
    }
}

/// The probe guard: the stats-only chip-scale cell through the explicit
/// probed entry point, with the compiled-out [`NoopProbe`] (must sit in
/// the unprobed cell's noise band — the zero-cost contract) and with an
/// enabled [`CountingProbe`] (bit-identical by contract; its cost is
/// recorded for scale, not gated).
struct ProbeRow {
    workload: String,
    cores: usize,
    instructions: u64,
    noop_ms: f64,
    counting_ms: f64,
    /// `counting_ms / noop_ms` — what an enabled every-event observer
    /// costs on top of the bare engine.
    counting_overhead: f64,
    /// Events the counting probe observed in one run.
    events: u64,
}

/// Times the stats-only cell through [`ManyCoreSim::simulate_arena_probed`]
/// with both probes and asserts the counting run is bit-identical to the
/// unprobed one.
fn measure_probe(name: &str, arena: &TraceArena, cores: usize) -> ProbeRow {
    let sim = ManyCoreSim::new(SimConfig::with_cores(cores).stats_only());
    let plain = sim.simulate_arena(arena).expect("simulates");
    let mut counting = CountingProbe::default();
    let counted = sim
        .simulate_arena_probed(arena, &mut counting)
        .expect("simulates");
    assert_eq!(plain, counted, "{name}: an observing probe steered the run");
    assert!(counting.events() > 0, "{name}: the probe observed nothing");
    let [noop_ms, counting_ms] = best_of(
        MODE_RUNS,
        [
            &|| {
                sim.simulate_arena_probed(arena, &mut NoopProbe)
                    .expect("simulates")
            },
            &|| {
                sim.simulate_arena_probed(arena, &mut CountingProbe::default())
                    .expect("simulates")
            },
        ],
    );
    ProbeRow {
        workload: name.to_string(),
        cores,
        instructions: arena.len() as u64,
        noop_ms,
        counting_ms,
        counting_overhead: counting_ms / noop_ms,
        events: counting.events(),
    }
}

fn to_json(
    rows: &[Row],
    pipeline: &Pipeline,
    modes: &ModeRow,
    guard: &GuardRow,
    probe: &ProbeRow,
) -> String {
    let mut body: Vec<String> = rows
        .iter()
        .map(|r| {
            let row = json::Obj::new()
                .str("workload", &r.workload)
                .str("config", &r.config)
                .field("cores", r.cores)
                .field("instructions", r.instructions)
                .field("sections", r.sections)
                .field("total_cycles", r.total_cycles)
                .fixed("fetch_ipc", r.fetch_ipc, 4)
                .fixed("arena_bytes_per_insn", r.arena_bytes_per_insn, 1)
                .fixed("event_ms", r.event_ms, 3);
            r.attr
                .append_fields(row, r.occupancy)
                .field("headline", r.headline)
                .build()
        })
        .collect();
    body.push(
        json::Obj::new()
            .str("workload", &pipeline.workload)
            .str("config", "pipeline")
            .field("instructions", pipeline.instructions)
            .fixed("streaming_ms", pipeline.streaming_ms, 3)
            .fixed("arena_bytes_per_insn", pipeline.arena_bytes_per_insn, 1)
            .build(),
    );
    body.push(
        json::Obj::new()
            .str("workload", &modes.workload)
            .str("config", "full-vs-stats")
            .field("cores", modes.cores)
            .field("instructions", modes.instructions)
            .fixed("full_ms", modes.full_ms, 3)
            .fixed("stats_ms", modes.stats_ms, 3)
            .fixed("stats_speedup", modes.speedup, 2)
            .fixed(
                "full_state_bytes_per_insn",
                modes.full_state_bytes_per_insn,
                1,
            )
            .fixed(
                "stats_state_bytes_per_insn",
                modes.stats_state_bytes_per_insn,
                1,
            )
            .build(),
    );
    body.push(
        json::Obj::new()
            .str("workload", &guard.workload)
            .str("config", "validate-guard")
            .field("cores", guard.cores)
            .field("instructions", guard.instructions)
            .fixed("validate_off_ms", guard.validate_off_ms, 3)
            .fixed("validate_on_ms", guard.validate_on_ms, 3)
            .fixed("validate_overhead", guard.overhead, 3)
            .field("total_cycles", guard.cycles)
            .field("lb_cycles", guard.schedule.lb)
            .fixed("lb_tightness", guard.schedule.tightness(guard.cycles), 4)
            .build(),
    );
    body.push(
        json::Obj::new()
            .str("workload", &probe.workload)
            .str("config", "probe-guard")
            .field("cores", probe.cores)
            .field("instructions", probe.instructions)
            .fixed("noop_probe_ms", probe.noop_ms, 3)
            .fixed("counting_probe_ms", probe.counting_ms, 3)
            .fixed("counting_overhead", probe.counting_overhead, 3)
            .field("probe_events", probe.events)
            .build(),
    );
    json::array(body)
}

fn print_table(rows: &[Row]) {
    println!(
        "{:<20} {:<16} {:>9} {:>9} {:>11} {:>7} {:>10}",
        "workload", "config", "insns", "sections", "cycles", "B/insn", "event ms",
    );
    for r in rows {
        println!(
            "{:<20} {:<16} {:>9} {:>9} {:>11} {:>7.1} {:>10.1}{}",
            r.workload,
            r.config,
            r.instructions,
            r.sections,
            r.total_cycles,
            r.arena_bytes_per_insn,
            r.event_ms,
            if r.headline { "  <- headline" } else { "" }
        );
    }
}

fn main() {
    let flags = Flags::parse();
    let (quick, validate) = (flags.quick, flags.validate);

    let grid = build_grid(quick, validate);
    eprintln!(
        "measuring {} cells ({} mode{}, best of {RUNS} runs)...",
        grid.len(),
        if quick { "quick" } else { "full" },
        if validate { ", validated" } else { "" }
    );
    let rows: Vec<Row> = grid.iter().map(measure).collect();
    print_table(&rows);

    // Front-end pipeline time and footprint on the chain_sum workload.
    let chain_n = if quick { 8_000 } else { 110_000 };
    let pipeline = measure_pipeline(
        &format!("chain_sum-{chain_n}"),
        &scale::chain_sum_program(chain_n, 7),
        scale::chain_sum_fuel(chain_n),
    );
    println!(
        "pipeline {:<22} {:>9} insns  streaming {:>7.1} ms  arena {:>5.1} B/insn",
        pipeline.workload,
        pipeline.instructions,
        pipeline.streaming_ms,
        pipeline.arena_bytes_per_insn,
    );

    // Full-vs-stats on the 1024-core fan_chain cell: the batched drain
    // plus the dropped stage table must buy a real wall-clock win at the
    // scale where the simulator's own state blows the cache (>=10M
    // instructions in full mode; a ~1M-instruction instance in quick
    // mode, where the gate stays unarmed).
    let (chains, links) = if quick { (1024, 70) } else { (1024, 700) };
    let fan = arena_of(
        &scale::fan_chain_program(chains, links, 7),
        scale::fan_chain_fuel(chains, links),
    );
    let modes = measure_modes(&format!("fan_chain-{chains}x{links}"), &fan, 1024, validate);
    println!(
        "modes    {:<22} {:>9} insns  full {:>9.1} ms  stats {:>9.1} ms  {:>4.2}x  \
         state {:>5.1} -> {:>4.1} B/insn",
        modes.workload,
        modes.instructions,
        modes.full_ms,
        modes.stats_ms,
        modes.speedup,
        modes.full_state_bytes_per_insn,
        modes.stats_state_bytes_per_insn,
    );

    // The validation guard row: the same stats-only chip-scale cell with
    // the static analysis pinned off (the pre-validation hot path) and
    // pinned on.
    let guard = measure_guard(&modes.workload.clone(), &fan, 1024);
    println!(
        "guard    {:<22} {:>9} insns  val-off {:>6.1} ms  val-on {:>6.1} ms  {:>4.2}x",
        guard.workload,
        guard.instructions,
        guard.validate_off_ms,
        guard.validate_on_ms,
        guard.overhead,
    );

    // The probe guard row: the same stats-only chip-scale cell through
    // the explicit probed entry point, compiled-out and enabled.
    let probe = measure_probe(&modes.workload.clone(), &fan, 1024);
    println!(
        "probe    {:<22} {:>9} insns  noop {:>9.1} ms  counting {:>7.1} ms  {:>4.2}x  \
         {} events",
        probe.workload,
        probe.instructions,
        probe.noop_ms,
        probe.counting_ms,
        probe.counting_overhead,
        probe.events,
    );

    // A Perfetto-loadable Chrome trace of the headline cell: section
    // residency spans per core, fork flow arrows, stall markers and
    // sampled chip gauges, one microsecond per simulated cycle.
    if let Some(path) = &flags.trace_out {
        let cell = grid.iter().find(|c| c.headline).expect("headline cell");
        let label = format!("{} [{}]", cell.workload, cell.config);
        let traced = write_chrome_trace(path, &label, &cell.sim, &cell.trace);
        assert_eq!(traced.outputs, cell.expected);
    }

    flags.write_json(rows.len() + 4, || {
        to_json(&rows, &pipeline, &modes, &guard, &probe)
    });

    let mut failures = Vec::new();
    // Stats-only must beat full mode by >=1.3x on the 10M-instruction
    // 1024-core cell (again full mode only: the quick instance fits in
    // cache, which is precisely the effect being measured).
    if !quick && modes.speedup < 1.3 {
        failures.push(format!(
            "stats-only speedup {:.2}x is below the 1.3x acceptance bar \
             on {} at {} cores",
            modes.speedup, modes.workload, modes.cores
        ));
    }
    // Validation must be zero-cost when disabled: the guard's off cell is
    // the identical workload/mode as the stats cell above, so the two
    // times must agree within machine noise (+-15%). Disarmed in quick
    // mode (sub-100ms cells are all noise) and under --validate (the
    // stats cell then pays the analysis while the off cell never does).
    if !quick && !validate {
        let ratio = guard.validate_off_ms / modes.stats_ms;
        if !(0.85..=1.15).contains(&ratio) {
            failures.push(format!(
                "validation-off stats cell at {:.1} ms deviates {:.0}% from \
                 the stats-only baseline {:.1} ms — the disabled validate path \
                 is not free",
                guard.validate_off_ms,
                (ratio - 1.0).abs() * 100.0,
                modes.stats_ms
            ));
        }
        // The telemetry layer must be zero-cost when compiled out: the
        // NoopProbe cell is the identical workload/mode as the stats
        // cell, with every hook monomorphized to nothing, so its time
        // must also sit in the same ±15% noise band.
        let probe_ratio = probe.noop_ms / modes.stats_ms;
        if !(0.85..=1.15).contains(&probe_ratio) {
            failures.push(format!(
                "NoopProbe stats cell at {:.1} ms deviates {:.0}% from \
                 the stats-only baseline {:.1} ms — the disabled probe layer \
                 is not free",
                probe.noop_ms,
                (probe_ratio - 1.0).abs() * 100.0,
                modes.stats_ms
            ));
        }
    }
    exit_on_failures(&failures);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Flags, String> {
        Flags::parse_from(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn defaults_apply_when_flags_are_absent() {
        let flags = parse(&[]).unwrap();
        assert!(!flags.quick && !flags.validate);
        assert_eq!(flags.json, None);
        assert_eq!(flags.trace_out, None);
    }

    #[test]
    fn json_takes_an_optional_path() {
        let flags = parse(&["--json", "--quick"]).unwrap();
        assert_eq!(flags.json.as_deref(), Some("BENCH_sim.json"));
        assert!(flags.quick);
        let flags = parse(&["--json", "out.json", "--trace-out", "t.json", "--validate"]).unwrap();
        assert_eq!(flags.json.as_deref(), Some("out.json"));
        assert_eq!(flags.trace_out.as_deref(), Some("t.json"));
        assert!(flags.validate && !flags.quick);
    }

    #[test]
    fn flags_the_bin_does_not_accept_are_refused_with_the_usage_line() {
        let err = parse(&["--threads", "4"]).unwrap_err();
        assert_eq!(
            err,
            "unknown argument '--threads' \
             (supported: --quick --validate --json [PATH] --trace-out PATH)"
        );
        assert!(parse(&["--trace-out"]).is_err());
    }

    #[test]
    fn best_of_keeps_each_runs_minimum() {
        let [a, b] = best_of(3, [&|| 1u8, &|| 2u8]);
        assert!(a.is_finite() && b.is_finite() && a >= 0.0 && b >= 0.0);
        let [none] = best_of(0, [&|| ()]);
        assert_eq!(none, f64::INFINITY);
    }
}
