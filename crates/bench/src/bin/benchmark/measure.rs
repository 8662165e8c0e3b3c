//! The two kinds of run. A timed run repeats the whole pipeline —
//! `ManyCoreBackend::execute_fueled`, program in, `RunReport` out — with
//! no tracing, for the end-to-end metrics. A traced run calls each
//! layer's public entry point separately, on the same program and
//! configuration, and times it from outside, for the per-layer metrics.

use std::hint::black_box;
use std::time::{Duration, Instant};

use parsecs_bench::AttributionTotals;
use parsecs_core::{
    bound_schedule, check_arena, prove_progress, CountingProbe, ManyCoreSim, SimConfig,
    StreamingSectioner,
};
use parsecs_driver::{ExecutionBackend, ManyCoreBackend};
use parsecs_isa::Program;
use parsecs_machine::{Machine, TraceSink, TraceStep};

use crate::record::{Metric, Record};
use crate::spans::Spans;
use crate::workloads::Workload;

/// Timed repetitions a run makes however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Untimed repetitions before the timed ones, which grow the heap to the
/// size every later repetition reuses.
const WARM_UP: u64 = 2;

/// The inputs of one traced run, built from the seed.
struct Inputs {
    program: Program,
    fuel: u64,
    expected: Vec<u64>,
}

/// Whether another repetition fits: always until `min` are done, then
/// only while one more of the last one's length ends before the deadline.
fn another(done: usize, min: usize, started: Instant, last: Duration, budget: Duration) -> bool {
    done < min || started.elapsed() + last <= budget
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The timed run: [`WARM_UP`] untimed repetitions, then repetitions until
/// `seconds` have passed. Every repetition builds the program afresh —
/// one `setup_s` sample, so set-up is sampled across the whole run like
/// the repetitions rather than in one burst a brief host stall can
/// swallow — and runs a fresh pipeline whose outputs are checked against
/// the oracle; the simulated results must repeat exactly. The peak
/// resident set is read after the first repetition: the memory of one
/// simulation in a fresh process, before the retained heap fragments.
pub fn timed(workload: &Workload, seed: u64, seconds: f64) -> Record {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let (fuel, expected) = (workload.fuel(), workload.expected(seed));
    let backend = ManyCoreBackend::new(workload.config());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut setup, mut walls) = (Vec::new(), Vec::new());
    let mut peak_rss = None;
    let mut last = Duration::ZERO;
    // (instructions, cycles, fetch IPC bits) of the first good repetition.
    let mut simulated: Option<(u64, u64, u64)> = None;
    let mut repeatable = true;
    let min = MIN_REPS + WARM_UP as usize;
    while another(attempted as usize, min, started, last, budget) {
        attempted += 1;
        let start = Instant::now();
        let program = black_box(workload.program(seed));
        let built = start.elapsed();
        let start = Instant::now();
        let result = backend.execute_fueled(&program, fuel);
        last = start.elapsed();
        let timed = attempted > WARM_UP;
        if timed {
            setup.push(built.as_secs_f64());
        }
        match result {
            Ok(report) if report.outputs == expected => {
                let key = (
                    report.instructions,
                    report.cycles,
                    report.fetch_ipc.to_bits(),
                );
                repeatable &= *simulated.get_or_insert(key) == key;
                if timed {
                    walls.push(last.as_secs_f64());
                }
            }
            Ok(report) => {
                failed += 1;
                eprintln!(
                    "{}: outputs {:?} differ from the oracle",
                    workload.name, report.outputs
                );
            }
            Err(error) => {
                failed += 1;
                eprintln!("{}: {error}", workload.name);
            }
        }
        if attempted == 1 {
            peak_rss = peak_rss_mb();
        }
    }
    if peak_rss.is_none() {
        eprintln!("{}: VmHWM unavailable in /proc/self/status", workload.name);
    }
    let (instructions, cycles, ipc_bits) = simulated.unwrap_or_default();
    let minsns = instructions as f64 / 1e6;
    let throughput = walls.iter().map(|wall| minsns / wall).collect();
    Record {
        workload: workload.name.into(),
        traced: false,
        attempted,
        failed,
        correct: failed == 0 && repeatable && peak_rss.is_some() && !walls.is_empty(),
        metrics: vec![
            Metric::new("wall_s", "s", walls),
            Metric::new("minsns_per_s", "Minsn/s", throughput),
            Metric::new("peak_rss_mb", "MB", vec![peak_rss.unwrap_or(f64::NAN)]),
            Metric::new("setup_s", "s", setup),
        ],
        exact: vec![
            ("sim_cycles".into(), cycles as f64),
            ("sim_fetch_ipc".into(), f64::from_bits(ipc_bits)),
            ("failed_frac".into(), failed as f64 / attempted as f64),
        ],
    }
}

/// A sink that only counts the machine's steps, so `machine.exec_s`
/// measures execution without sectioning.
struct StepCounter(u64);

impl TraceSink for StepCounter {
    fn record(&mut self, _step: &TraceStep<'_>) {
        self.0 += 1;
    }
}

fn ensure(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

/// One traced pass: an untimed-by-layer `execute_fueled` for the
/// coverage ratio, then each layer's call on its own, returning
/// `(name, unit, value)` per per-layer metric in a fixed order.
fn traced_pass(
    workload: &Workload,
    inputs: &Inputs,
    spans: &mut Spans,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let config = workload.config();
    let (program, fuel) = (&inputs.program, inputs.fuel);

    let (report, wall_s) = spans.span("execute_fueled", |_| {
        ManyCoreBackend::new(config.clone()).execute_fueled(program, fuel)
    });
    let report = report.map_err(|e| format!("execute_fueled: {e}"))?;
    ensure(
        report.outputs == inputs.expected,
        "execute_fueled outputs differ from the oracle",
    )?;
    let (instructions, cycles) = (report.instructions, report.cycles);
    // Each result is dropped before the next layer runs, so at most one
    // stage table (≈250 MB on the checked workload) is resident.
    drop(report);

    let (steps, exec_s) = spans.span("machine.exec", |_| {
        let mut machine = Machine::load(program).map_err(|e| e.to_string())?;
        let mut counter = StepCounter(0);
        machine
            .run_with_sink(fuel, &mut counter)
            .map_err(|e| e.to_string())?;
        Ok::<_, String>(counter.0)
    });
    ensure(
        steps? == instructions,
        "machine step count differs from execute_fueled's",
    )?;

    let (built, pipeline_s) = spans.span("trace.pipeline", |spans| {
        let mut machine = Machine::load(program).map_err(|e| e.to_string())?;
        let mut sink = StreamingSectioner::new();
        let outcome = machine
            .run_with_sink(fuel, &mut sink)
            .map_err(|e| e.to_string())?;
        let peak_bytes = sink.arena().memory_bytes();
        let (arena, finish_s) = spans.span("trace.finish", |_| sink.finish(outcome.outputs));
        Ok::<_, String>((arena.map_err(|e| e.to_string())?, peak_bytes, finish_s))
    });
    let (arena, peak_bytes, finish_s) = built?;
    ensure(
        arena.outputs() == inputs.expected,
        "arena outputs differ from the oracle",
    )?;

    let (core_of, place_s) = spans.span("core.place", |_| {
        config
            .placement
            .assign(arena.sections(), &config.chip_view())
    });
    let hosts: Vec<usize> = core_of.iter().map(|core| core.0).collect();
    let (check, check_arena_s) = spans.span("check.arena", |_| check_arena(&arena));
    let (_, progress_s) = spans.span("check.progress", |_| {
        prove_progress(&arena, &hosts, config.cores, config.max_sections_per_core)
    });
    let (_, schedule_s) = spans.span("check.schedule", |_| {
        bound_schedule(&arena, &hosts, &config.chip_model())
    });

    let sim = ManyCoreSim::new(config.clone());
    let (result, simulate_s) = spans.span("core.simulate", |_| sim.simulate_arena(&arena));
    let result = result.map_err(|e| format!("simulate_arena: {e}"))?;
    ensure(
        result.outputs == inputs.expected,
        "simulated outputs differ from the oracle",
    )?;
    ensure(
        result.stats.total_cycles == cycles,
        "traced cycles differ from execute_fueled's",
    )?;
    ensure(
        result.stats.forced_stall_releases == 0,
        "the deadlock detector fired",
    )?;
    ensure(
        result.core_of == core_of,
        "the engine placed sections differently",
    )?;
    let sim_state_bytes = result.sim_state_bytes();
    let stats = result.stats.clone();
    drop(result);

    let mut probe = CountingProbe::default();
    let (probed, probed_s) = spans.span("core.simulate_probed", |_| {
        sim.simulate_arena_probed(&arena, &mut probe)
    });
    let probed = probed.map_err(|e| format!("simulate_arena_probed: {e}"))?;
    ensure(probed.stats == stats, "probed stats differ from unprobed")?;
    drop(probed);

    // The two-thread engine on the same arena, right after the sequential
    // one: the pool, the cluster split, commit buffering and the fork
    // decision's full `check_arena` run only here.
    let t2_sim = ManyCoreSim::new(SimConfig {
        threads: 2,
        ..config.clone()
    });
    let (t2, t2_s) = spans.span("core.simulate_t2", |_| t2_sim.simulate_arena(&arena));
    let t2 = t2.map_err(|e| format!("simulate_arena (two threads): {e}"))?;
    ensure(
        t2.stats == stats,
        "stats differ between one and two threads",
    )?;
    let fork_fallback = t2.fork_fallback.is_some();
    drop(t2);

    // The check passes `simulate_arena` runs itself when validating.
    let checks_inside = if config.validate {
        check_arena_s + progress_s + schedule_s
    } else {
        0.0
    };
    let n = instructions as f64;
    let sections = arena.sections().len() as f64;
    let arena_bytes = arena.memory_bytes() as f64;
    let attribution = AttributionTotals::from_cores(&stats.attribution);
    Ok(vec![
        ("machine.exec_s", "s", exec_s),
        ("machine.minsns_per_s", "Minsn/s", n / 1e6 / exec_s),
        ("trace.pipeline_s", "s", pipeline_s),
        ("trace.self_s", "s", pipeline_s - exec_s),
        ("trace.finish_s", "s", finish_s),
        ("trace.minsns_per_s", "Minsn/s", n / 1e6 / pipeline_s),
        ("trace.peak_bytes", "bytes", peak_bytes as f64),
        ("trace.arena_bytes", "bytes", arena_bytes),
        ("trace.bytes_per_insn", "B/insn", arena_bytes / n),
        ("core.place_s", "s", place_s),
        ("core.place_ns_per_section", "ns", place_s * 1e9 / sections),
        ("check.arena_s", "s", check_arena_s),
        ("check.progress_s", "s", progress_s),
        ("check.schedule_s", "s", schedule_s),
        ("check.clean", "flag", f64::from(u8::from(check.is_clean()))),
        ("core.simulate_s", "s", simulate_s),
        (
            "core.event_loop_s",
            "s",
            simulate_s - place_s - checks_inside,
        ),
        (
            "core.ns_per_sim_cycle",
            "ns",
            simulate_s * 1e9 / cycles as f64,
        ),
        ("core.ns_per_insn", "ns", simulate_s * 1e9 / n),
        ("core.sim_state_bytes", "bytes", sim_state_bytes as f64),
        (
            "core.fork_fallback",
            "flag",
            f64::from(u8::from(fork_fallback)),
        ),
        ("core.fork_speedup", "ratio", simulate_s / t2_s),
        ("obs.walks", "count", probe.walks as f64),
        ("obs.drain_rounds", "count", probe.drain_rounds as f64),
        ("obs.noc_sends", "count", probe.noc_sends as f64),
        ("obs.stalls", "count", probe.stalls as f64),
        ("obs.parks", "count", probe.parks as f64),
        ("obs.section_begins", "count", probe.begins as f64),
        ("obs.probe_overhead", "ratio", probed_s / simulate_s),
        ("sim.cycles", "cycles", stats.total_cycles as f64),
        ("sim.fetch_ipc", "insn/cycle", stats.fetch_ipc),
        ("sim.fetch_cycles", "cycles", stats.fetch_cycles as f64),
        (
            "sim.remote_register_requests",
            "count",
            stats.remote_register_requests as f64,
        ),
        (
            "sim.remote_memory_requests",
            "count",
            stats.remote_memory_requests as f64,
        ),
        ("sim.dmh_accesses", "count", stats.dmh_accesses as f64),
        ("sim.noc_avg_latency", "cycles", stats.noc.average_latency()),
        (
            "sim.noc_peak_in_flight",
            "count",
            stats.noc.peak_in_flight as f64,
        ),
        ("sim.busy_cycles", "cycles", attribution.busy as f64),
        (
            "sim.stall_cycles",
            "cycles",
            attribution.stalled_total() as f64,
        ),
        ("sim.parked_cycles", "cycles", attribution.parked as f64),
        ("sim.idle_cycles", "cycles", attribution.idle as f64),
        ("sim.occupancy", "ratio", stats.occupancy()),
        (
            "sim.peak_sections_per_core",
            "count",
            stats.peak_sections_per_core as f64,
        ),
        (
            "bench.layer_coverage",
            "ratio",
            (pipeline_s + simulate_s) / wall_s,
        ),
    ])
}

/// The traced run: traced passes until `seconds` have passed (at least
/// one); each per-layer metric is the median over the passes.
pub fn traced(workload: &Workload, seed: u64, seconds: f64, spans: &mut Spans) -> Record {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let inputs = &Inputs {
        program: workload.program(seed),
        fuel: workload.fuel(),
        expected: workload.expected(seed),
    };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut passes: Vec<Vec<(&'static str, &'static str, f64)>> = Vec::new();
    let mut last = Duration::ZERO;
    while another(attempted as usize, 1, started, last, budget) {
        attempted += 1;
        let start = Instant::now();
        let (pass, _) = spans.span("pass", |spans| traced_pass(workload, inputs, spans));
        last = start.elapsed();
        match pass {
            Ok(values) => passes.push(values),
            Err(error) => {
                failed += 1;
                eprintln!("{}: traced pass failed: {error}", workload.name);
            }
        }
    }
    let metrics = match passes.first() {
        Some(first) => first
            .iter()
            .enumerate()
            .map(|(i, &(name, unit, _))| {
                Metric::new(name, unit, passes.iter().map(|pass| pass[i].2).collect())
            })
            .collect(),
        None => Vec::new(),
    };
    // Everything not read off the host clock — counts, bytes, simulated
    // results, flags — must repeat exactly from pass to pass.
    let repeatable = metrics.iter().filter(|m| !host_timed(m)).all(|m| {
        m.samples
            .iter()
            .all(|&v| v.to_bits() == m.samples[0].to_bits())
    });
    let clean = metrics
        .iter()
        .any(|m| m.name == "check.clean" && m.value() == 1.0);
    Record {
        correct: failed == 0 && !passes.is_empty() && repeatable && clean,
        workload: workload.name.into(),
        traced: true,
        attempted,
        failed,
        metrics,
        exact: Vec::new(),
    }
}

/// Whether a per-layer metric is derived from host time (and so varies
/// from pass to pass).
fn host_timed(metric: &Metric) -> bool {
    matches!(metric.unit.as_str(), "s" | "ns" | "Minsn/s")
        || matches!(
            metric.name.as_str(),
            "core.fork_speedup" | "obs.probe_overhead" | "bench.layer_coverage"
        )
}
