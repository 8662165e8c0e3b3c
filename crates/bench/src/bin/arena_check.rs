//! Static analysis of every workload generator's trace arena — the
//! `parsecs-check` artefact.
//!
//! For each of the five `parsecs_workloads::scale` generators
//! (`histogram`, `tree_sum`, `chain_sum`, `synth_histogram`,
//! `fan_chain`) the binary builds the arena through the streaming
//! pipeline and runs the full static analysis:
//!
//! * the **invariant validator** must come back clean (zero violations);
//! * the **bounds analyzer**'s critical path is cross-checked against
//!   the event-driven engine at 64, 256 and 1024 cores: every
//!   configuration must retire in `total_cycles ≥ critical_path`;
//! * the **progress prover** runs on every (placement × chip) cell of
//!   that grid — the exact placement the engine used — and its verdict
//!   is cross-checked against the runtime deadlock detector: a cell the
//!   prover marked [`Progress::Proven`] must never deadlock (a
//!   `PotentialCycle` verdict on a quiet cell is fine — the hold-slot
//!   abstraction is deliberately conservative about section capacity);
//! * the **schedule analyzer** (`bound_schedule`) runs on every cell's
//!   exact placement and chip model: the certified NoC-weighted lower
//!   bound must satisfy `critical_path ≤ lb ≤ cycles`.
//!
//! Any violation, undercut bound or proven-but-deadlocked disagreement
//! fails the run (exit 1). CI runs `--quick` and uploads the table next
//! to the bench grids.
//!
//! Usage: `arena_check [--quick] [--progress] [--schedule] [--json [PATH]]`
//! — `--quick` shrinks the instances for CI smoke runs (default JSON
//! path `BENCH_check.json`); `--progress` adds the prover's verdict,
//! longest wait chain and witness length to the printed table;
//! `--schedule` adds the schedule-bound columns (lb per grid entry,
//! binding terms, worst tightness) — the JSON always carries both.

use parsecs_bench::harness::{exit_on_failures, Cli};
use parsecs_bench::json;
use parsecs_core::{
    bound_schedule, check_arena, prove_progress, ManyCoreSim, Progress, ScheduleBounds, SimConfig,
    SimError, TraceArena,
};
use parsecs_isa::Program;
use parsecs_workloads::scale;

/// Chip sizes the critical-path bound is cross-checked at.
const CORE_GRID: [usize; 3] = [64, 256, 1024];

struct Target {
    name: String,
    program: Program,
    fuel: u64,
}

struct Row {
    workload: String,
    instructions: usize,
    sections: usize,
    violations: usize,
    critical_path: u64,
    ilp_width: f64,
    /// Simulated retirement span per entry of [`CORE_GRID`].
    cycles: Vec<u64>,
    /// Progress verdict per entry of [`CORE_GRID`], proven on the exact
    /// placement the simulated run used.
    progress: Vec<Progress>,
    /// Whether the runtime deadlock detector fired (or the run diverged
    /// outright) per entry of [`CORE_GRID`].
    deadlocked: Vec<bool>,
    /// Config-aware schedule bounds per entry of [`CORE_GRID`], on the
    /// exact placement and chip model of the simulated cell.
    schedule: Vec<ScheduleBounds>,
    /// Every `cycles` entry is at or above `critical_path`.
    bound_holds: bool,
    /// Every completed cell satisfies `critical_path ≤ lb ≤ cycles`.
    schedule_holds: bool,
    /// No grid cell was statically `Proven` yet deadlocked at runtime.
    proofs_consistent: bool,
}

fn build_targets(quick: bool) -> Vec<Target> {
    let seed = 7;
    let (hist_keys, buckets) = if quick { (2_000, 64) } else { (50_000, 64) };
    let tree_n = if quick { 4_000 } else { 120_000 };
    let chain_n = if quick { 2_000 } else { 50_000 };
    let (synth_keys, synth_buckets) = if quick {
        (20_000, 256)
    } else {
        (300_000, 2048)
    };
    let (chains, links) = if quick { (64, 20) } else { (512, 120) };
    vec![
        Target {
            name: format!("histogram-{hist_keys}x{buckets}"),
            program: scale::histogram_program(hist_keys, buckets, seed),
            fuel: scale::histogram_fuel(hist_keys, buckets),
        },
        Target {
            name: format!("tree_sum-{tree_n}"),
            program: scale::tree_sum_program(tree_n, seed),
            fuel: scale::tree_sum_fuel(tree_n),
        },
        Target {
            name: format!("chain_sum-{chain_n}"),
            program: scale::chain_sum_program(chain_n, seed),
            fuel: scale::chain_sum_fuel(chain_n),
        },
        Target {
            name: format!("synth_histogram-{synth_keys}x{synth_buckets}"),
            program: scale::synth_histogram_program(synth_keys, synth_buckets, seed),
            fuel: scale::synth_histogram_fuel(synth_keys, synth_buckets),
        },
        Target {
            name: format!("fan_chain-{chains}x{links}"),
            program: scale::fan_chain_program(chains, links, seed),
            fuel: scale::fan_chain_fuel(chains, links),
        },
    ]
}

fn analyze(target: &Target) -> Row {
    let arena =
        TraceArena::from_program(&target.program, target.fuel).expect("workload halts within fuel");
    let report = check_arena(&arena);
    let (critical_path, ilp_width) = report
        .bounds
        .as_ref()
        .map(|b| (b.critical_path, b.ilp_width()))
        .unwrap_or((0, 0.0));
    let mut cycles = Vec::with_capacity(CORE_GRID.len());
    let mut progress = Vec::with_capacity(CORE_GRID.len());
    let mut deadlocked = Vec::with_capacity(CORE_GRID.len());
    let mut schedule = Vec::with_capacity(CORE_GRID.len());
    for &cores in &CORE_GRID {
        let config = SimConfig::with_cores(cores).stats_only();
        // The prover judges the exact placement the run used; when the
        // run diverges (a hard deadlock), recompute the same placement
        // from the policy so the cell still gets a verdict.
        let (cell_cycles, cell_deadlocked, hosts) =
            match ManyCoreSim::new(config.clone()).simulate_arena(&arena) {
                Ok(result) => (
                    result.stats.total_cycles,
                    result.stats.forced_stall_releases > 0,
                    result.core_of.iter().map(|c| c.0).collect::<Vec<_>>(),
                ),
                Err(SimError::Diverged { .. }) => (
                    0,
                    true,
                    config
                        .placement
                        .assign(arena.sections(), &config.chip_view())
                        .iter()
                        .map(|c| c.0)
                        .collect(),
                ),
                Err(e) => panic!("{}: {cores}-core run failed: {e}", target.name),
            };
        cycles.push(cell_cycles);
        deadlocked.push(cell_deadlocked);
        progress.push(prove_progress(
            &arena,
            &hosts,
            cores,
            config.max_sections_per_core,
        ));
        schedule.push(bound_schedule(&arena, &hosts, &config.chip_model()));
    }
    let bound_holds = report.is_clean() && cycles.iter().all(|&c| c >= critical_path);
    // The sandwich: the weighted bound dominates the config-independent
    // one and never exceeds the measured span (cells that diverged
    // report 0 cycles and already fail `bound_holds`, so skip them).
    let schedule_holds = report.is_clean()
        && cycles
            .iter()
            .zip(&schedule)
            .all(|(&c, s)| s.lb >= critical_path && (c == 0 || c >= s.lb));
    let proofs_consistent = progress
        .iter()
        .zip(&deadlocked)
        .all(|(p, &dead)| !(dead && p.is_proven()));
    Row {
        workload: target.name.clone(),
        instructions: report.instructions,
        sections: report.sections,
        violations: report.violations.len(),
        critical_path,
        ilp_width,
        cycles,
        progress,
        deadlocked,
        schedule,
        bound_holds,
        schedule_holds,
        proofs_consistent,
    }
}

/// The cycles/lb ratio of the row's loosest grid cell (the headline
/// tightness number), over completed cells only.
fn worst_tightness(row: &Row) -> f64 {
    row.cycles
        .iter()
        .zip(&row.schedule)
        .filter(|(&c, s)| c > 0 && s.lb > 0)
        .map(|(&c, s)| s.tightness(c))
        .fold(f64::NAN, f64::max)
}

/// Compact per-grid-entry rendering, e.g. `118/96/96` for the lbs or
/// `p/w/p` for the binding terms.
fn grid_summary(parts: impl Iterator<Item = String>) -> String {
    parts.collect::<Vec<_>>().join("/")
}

/// Witness length of a `PotentialCycle` verdict (0 when proven).
fn witness_len(progress: &Progress) -> usize {
    match progress {
        Progress::PotentialCycle { witness } => witness.len(),
        _ => 0,
    }
}

/// One-word verdict summary for a grid cell.
fn progress_summary(progress: &Progress) -> String {
    match progress.longest_wait_chain() {
        Some(chain) => format!("proven(chain {chain})"),
        None => format!("cycle({} edges)", witness_len(progress)),
    }
}

/// Row-level summary across the grid: `proven` when every cell is, or
/// the core counts whose placements admit a wait cycle.
fn progress_row_summary(row: &Row) -> String {
    if row.progress.iter().all(Progress::is_proven) {
        "proven".into()
    } else {
        let cores: Vec<String> = CORE_GRID
            .iter()
            .zip(&row.progress)
            .filter(|(_, p)| !p.is_proven())
            .map(|(cores, _)| cores.to_string())
            .collect();
        format!("cycle@{}", cores.join(","))
    }
}

fn to_json(rows: &[Row]) -> String {
    let row_objs = rows.iter().map(|r| {
        let cycles = CORE_GRID
            .iter()
            .zip(&r.cycles)
            .fold(json::Obj::new(), |obj, (cores, cycles)| {
                obj.field(&cores.to_string(), cycles)
            })
            .build();
        let proofs = CORE_GRID
            .iter()
            .zip(r.progress.iter().zip(&r.deadlocked))
            .fold(json::Obj::new(), |obj, (cores, (progress, deadlocked))| {
                let proof = json::Obj::new()
                    .str(
                        "verdict",
                        if progress.is_proven() {
                            "proven"
                        } else {
                            "potential-cycle"
                        },
                    )
                    .field("wait_chain", progress.longest_wait_chain().unwrap_or(0))
                    .field("witness", witness_len(progress))
                    .field("deadlocked", deadlocked)
                    .build();
                obj.field(&cores.to_string(), proof)
            })
            .build();
        let schedule = CORE_GRID
            .iter()
            .zip(r.schedule.iter().zip(&r.cycles))
            .fold(json::Obj::new(), |obj, (cores, (s, &measured))| {
                let cell = json::Obj::new()
                    .field("lb_cycles", s.lb)
                    .field("path_bound", s.path_bound)
                    .field("work_bound", s.work_bound)
                    .field("ejection_bound", s.ejection_bound)
                    .str("binding", &s.binding.to_string())
                    .fixed(
                        "lb_tightness",
                        if measured > 0 {
                            s.tightness(measured)
                        } else {
                            f64::NAN
                        },
                        4,
                    )
                    .build();
                obj.field(&cores.to_string(), cell)
            })
            .build();
        json::Obj::new()
            .str("workload", &r.workload)
            .field("instructions", r.instructions)
            .field("sections", r.sections)
            .field("violations", r.violations)
            .field("critical_path", r.critical_path)
            .fixed("ilp_width", r.ilp_width, 2)
            .field("cycles", cycles)
            .field("progress", proofs)
            .field("schedule", schedule)
            .field("bound_holds", r.bound_holds)
            .field("schedule_holds", r.schedule_holds)
            .field("proofs_consistent", r.proofs_consistent)
            .build()
    });
    json::array(row_objs)
}

fn main() {
    let flags = Cli {
        flags: &["--quick", "--progress", "--schedule", "--json"],
        json_default: "BENCH_check.json",
    }
    .parse();
    let quick = flags.quick;
    let show_progress = flags.switch("--progress");
    let show_schedule = flags.switch("--schedule");

    let targets = build_targets(quick);
    eprintln!(
        "checking {} workload arenas ({} mode, bound cross-checked at {CORE_GRID:?} cores)...",
        targets.len(),
        if quick { "quick" } else { "full" }
    );
    let rows: Vec<Row> = targets.iter().map(analyze).collect();

    print!(
        "{:<28} {:>9} {:>9} {:>5} {:>10} {:>6} {:>11} {:>6}",
        "workload", "insns", "sections", "viol", "crit path", "ILP", "min cycles", "bound"
    );
    if show_progress {
        print!(" {:<18} {:>10} {:>8}", "progress", "wait chain", "witness");
    }
    if show_schedule {
        print!(" {:>24} {:>8} {:>7}", "lb 64/256/1024", "binding", "tight");
    }
    println!();
    for r in &rows {
        print!(
            "{:<28} {:>9} {:>9} {:>5} {:>10} {:>6.1} {:>11} {:>6}",
            r.workload,
            r.instructions,
            r.sections,
            r.violations,
            r.critical_path,
            r.ilp_width,
            r.cycles.iter().min().copied().unwrap_or(0),
            if r.bound_holds { "ok" } else { "FAIL" }
        );
        if show_progress {
            let chain = r
                .progress
                .iter()
                .filter_map(Progress::longest_wait_chain)
                .max();
            let witness = r.progress.iter().map(witness_len).max().unwrap_or(0);
            print!(
                " {:<18} {:>10} {:>8}",
                progress_row_summary(r),
                chain.map_or_else(|| "-".into(), |c| c.to_string()),
                witness,
            );
        }
        if show_schedule {
            print!(
                " {:>24} {:>8} {:>7.2}",
                grid_summary(r.schedule.iter().map(|s| s.lb.to_string())),
                grid_summary(
                    r.schedule
                        .iter()
                        .map(|s| s.binding.to_string()[..1].to_string())
                ),
                worst_tightness(r),
            );
        }
        println!();
    }

    flags.write_json(rows.len(), || to_json(&rows));

    let mut failures = Vec::new();
    for r in &rows {
        if r.violations > 0 {
            failures.push(format!(
                "{} has {} invariant violation(s)",
                r.workload, r.violations
            ));
        }
        if !r.bound_holds {
            failures.push(format!(
                "{} retires in {:?} cycles, below the static critical path {}",
                r.workload, r.cycles, r.critical_path
            ));
        }
        for (cores, (progress, &deadlocked)) in
            CORE_GRID.iter().zip(r.progress.iter().zip(&r.deadlocked))
        {
            if deadlocked && progress.is_proven() {
                failures.push(format!(
                    "{} at {cores} cores deadlocked on a placement the prover \
                     certified ({})",
                    r.workload,
                    progress_summary(progress)
                ));
            }
        }
        if !r.schedule_holds {
            failures.push(format!(
                "{} violates the schedule-bound sandwich \
                 (critical path <= lb <= cycles) on some grid cell: \
                 lb {:?} vs cycles {:?}",
                r.workload,
                r.schedule.iter().map(|s| s.lb).collect::<Vec<_>>(),
                r.cycles,
            ));
        }
    }
    exit_on_failures(&failures);
}
