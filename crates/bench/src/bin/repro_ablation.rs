//! Ablations over the model's design choices — number of
//! cores, NoC hop latency, section placement policy, fetch-stall behaviour
//! and the per-section renaming walk penalty — measured on the fork-based
//! sum and on the fork-compiled quicksort.
//!
//! All configurations are expressed as
//! [`ExecutionBackend`](parsecs_driver::ExecutionBackend)s and executed
//! by one [`Sweep`], cell after cell. Pass `--json [PATH]` to also stream the
//! sweep results as JSON (default path `BENCH_sweep.json`), one row per
//! point as it arrives, which is the artefact the perf trajectory
//! records. A validated many-core point (none in this grid) also
//! carries the schedule analyzer's columns — `lb_cycles` (certified lower
//! bound) and `lb_tightness` (measured / lb) — so each cell records how
//! far the static bound was from the measurement.

use std::fs::File;
use std::io::{self, BufWriter, Write};

use parsecs_bench::harness::Cli;
use parsecs_bench::json::Obj;
use parsecs_cc::Backend;
use parsecs_core::{Placement, SimConfig};
use parsecs_driver::{ManyCoreBackend, Sweep, SweepPoint};
use parsecs_noc::NocConfig;
use parsecs_workloads::{pbbs::Benchmark, sum};

/// The 7-point chip-size axis (1 → 64 cores).
const CORE_AXIS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

const CLI: Cli = Cli {
    flags: &["--json"],
    json_default: "BENCH_sweep.json",
};

fn build_sweep() -> Sweep {
    let data = sum::dataset(4, 7); // 80 elements
    let quicksort = Benchmark::ComparisonSort
        .program(64, 3, Backend::Forks)
        .expect("compiles");

    let mut sweep = Sweep::new(10_000_000)
        .program("fork-sum-80", sum::fork_program(&data))
        .program("fork-quicksort-64", quicksort)
        .manycore_cores(&CORE_AXIS);

    // Off-axis ablations, all at 16 cores.
    let mut slow = SimConfig::with_cores(16);
    slow.noc = NocConfig {
        base_latency: 2,
        per_hop_latency: 4,
        link_bandwidth: None,
    };
    sweep = sweep.backend(ManyCoreBackend::new(slow));
    let mut walk = SimConfig::with_cores(16);
    walk.per_section_hop = 4;
    sweep = sweep.backend(ManyCoreBackend::new(walk));
    sweep = sweep.backend(ManyCoreBackend::new(
        SimConfig::with_cores(16).with_placement(Placement::LeastLoaded),
    ));
    sweep = sweep.backend(ManyCoreBackend::new(
        SimConfig::with_cores(16).with_placement(Placement::LoadAware),
    ));
    let mut no_stall = SimConfig::with_cores(16);
    no_stall.fetch_stalls_on_unresolved_control = false;
    sweep.backend(ManyCoreBackend::new(no_stall))
}

fn print_row(point: &SweepPoint, current_program: &mut String) {
    if &point.program != current_program {
        *current_program = point.program.clone();
        println!("== {current_program} ==");
        println!(
            "{:<36} {:>8} {:>8} {:>9} {:>10} {:>10}",
            "backend", "sections", "fetch", "retire", "fetchIPC", "retireIPC"
        );
    }
    match &point.outcome {
        Ok(report) => {
            let sections = report
                .sim()
                .map(|s| s.stats.sections.to_string())
                .unwrap_or_default();
            println!(
                "{:<36} {:>8} {:>8} {:>9} {:>10.2} {:>10.2}",
                point.backend,
                sections,
                report.fetch_cycles(),
                report.cycles,
                report.fetch_ipc,
                report.retire_ipc,
            );
        }
        Err(e) => println!("{:<36} failed: {e}", point.backend),
    }
}

/// A float in its shortest round-trip form, or `null` when JSON cannot
/// represent it.
fn shortest(value: f64) -> String {
    if value.is_finite() {
        value.to_string()
    } else {
        "null".into()
    }
}

/// One sweep point as a JSON row. A validated many-core point also
/// carries the schedule analyzer's `lb_cycles` and `lb_tightness`.
fn point_json(point: &SweepPoint) -> String {
    let row = Obj::new()
        .str("program", &point.program)
        .str("backend", &point.backend)
        .field("ok", point.outcome.is_ok());
    let report = match &point.outcome {
        Ok(report) => report,
        Err(e) => return row.str("error", &e.to_string()).build(),
    };
    let outputs: Vec<String> = report.outputs.iter().map(u64::to_string).collect();
    let mut row = row
        .field("outputs", format!("[{}]", outputs.join(",")))
        .field("instructions", report.instructions)
        .field("cycles", report.cycles)
        .field("fetch_cycles", report.fetch_cycles())
        .field("fetch_ipc", shortest(report.fetch_ipc))
        .field("retire_ipc", shortest(report.retire_ipc));
    let check = report.sim().and_then(|result| result.check.as_deref());
    if let Some(schedule) = check.and_then(|check| check.schedule.as_ref()) {
        row = row
            .field("lb_cycles", schedule.lb)
            .field("lb_tightness", shortest(schedule.tightness(report.cycles)));
    }
    row.build()
}

/// Runs `sweep`, handing each point to `on_point` and then writing its
/// row to `out` as soon as it arrives, so no report outlives its row.
/// The rows form one JSON array, one row per line. After the first
/// write error the sweep still runs to the end, but writes nothing more.
///
/// # Errors
///
/// Returns the first write error.
fn write_json(
    sweep: &Sweep,
    out: &mut impl Write,
    mut on_point: impl FnMut(&SweepPoint),
) -> io::Result<()> {
    out.write_all(b"[")?;
    let mut written = Ok(());
    let mut separator = "\n";
    sweep.run_with(|point| {
        on_point(&point);
        if written.is_ok() {
            written = write!(out, "{separator}  {}", point_json(&point)).and_then(|()| out.flush());
            separator = ",\n";
        }
    });
    written?;
    out.write_all(b"\n]\n")?;
    out.flush()
}

fn main() {
    let json_path = CLI.parse().json;

    let sweep = build_sweep();
    eprintln!("running {} sweep cells...", sweep.len());

    // Stream every point as it completes (grid order): the table row goes
    // to stdout and the JSON row to the artefact immediately, so no
    // report — each one carries a full per-instruction stage table — is
    // retained once printed.
    let mut current_program = String::new();
    let mut failed = 0usize;
    let mut total = 0usize;
    let mut on_point = |point: &SweepPoint| {
        print_row(point, &mut current_program);
        if point.outcome.is_err() {
            failed += 1;
        }
        total += 1;
    };
    match &json_path {
        Some(path) => {
            let file = File::create(path).unwrap_or_else(|e| panic!("create {path}: {e}"));
            write_json(&sweep, &mut BufWriter::new(file), &mut on_point)
                .unwrap_or_else(|e| panic!("write {path}: {e}"));
        }
        None => {
            sweep.run_with(|point| on_point(&point));
        }
    }
    println!();

    if let Some(path) = &json_path {
        eprintln!("wrote {total} sweep points to {path}");
    }

    // A broken cell must fail the run (and CI), not just print a row.
    if failed > 0 {
        eprintln!("{failed} of {total} sweep cells failed");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsecs_driver::SequentialBackend;
    use parsecs_workloads::sum;

    fn streamed(sweep: &Sweep) -> String {
        let mut out = Vec::new();
        write_json(sweep, &mut out, |_| {}).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn rows_stream_as_one_array_in_grid_order() {
        let sweep = Sweep::new(10_000)
            .program("sum \"5\"", sum::fork_program(&[4, 2, 6, 4, 5]))
            .backend(SequentialBackend)
            .manycore_cores(&[4])
            .backend(ManyCoreBackend::new(SimConfig::with_cores(4).validated()));
        let json = streamed(&sweep);
        let rows: Vec<&str> = json.lines().collect();
        assert_eq!(rows.len(), 5, "{json}");
        assert_eq!((rows[0], rows[4]), ("[", "]"));
        assert!(
            rows[1].starts_with("  {\"program\": \"sum \\\"5\\\"\", \"backend\": \"sequential\"")
        );
        assert!(rows[1].ends_with("},"));
        assert!(rows[2].contains("\"backend\": \"manycore:4c:round-robin\""));
        assert!(rows[2].contains("\"outputs\": [21]"));
        assert!(rows[2].contains("\"fetch_cycles\": "));
        // A run-time float keeps its shortest round-trip form.
        let point = sweep.run().remove(1);
        let fetch_ipc = point.report().unwrap().fetch_ipc;
        assert!(rows[2].contains(&format!("\"fetch_ipc\": {fetch_ipc}, ")));
        // Only the validated point carries the schedule columns.
        assert!(!rows[2].contains("\"lb_cycles\""));
        assert!(rows[3].contains("\"lb_cycles\": "));
        assert!(rows[3].contains("\"lb_tightness\": "));
        assert_eq!(shortest(2.5), "2.5");
        assert_eq!(shortest(f64::INFINITY), "null");
    }

    #[test]
    fn failing_cells_carry_their_error() {
        let sweep = Sweep::new(4)
            .program("starved", sum::call_program(&[1, 2, 3, 4]))
            .backend(SequentialBackend);
        let json = streamed(&sweep);
        assert!(json.contains("\"ok\": false"), "{json}");
        assert!(json.contains("\"error\": \"machine: "), "{json}");
        assert!(!json.contains("\"cycles\""), "{json}");
    }
}
