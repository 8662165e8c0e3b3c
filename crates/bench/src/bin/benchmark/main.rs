//! The repository's benchmark: program in, `RunReport` out, on three
//! workloads, with a separate traced run that times each layer.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!           [--json PATH] [--trace-out PATH]
//! benchmark --compare BASE.json NEW.json
//! ```
//!
//! With `--workload`, one run of that workload: timed repetitions
//! (`--trace 0`, end-to-end metrics) or traced passes (`--trace 1`,
//! per-layer metrics) for `--seconds` (default: `run_seconds` of
//! `BENCHMARK.json`). The last line of standard output is the result as
//! one JSON object. Without `--workload`, every workload runs both ways,
//! each run in its own child process, one after another. `--json` writes
//! every sample and the host description; `--compare` judges two such
//! files by the bounds in `BENCHMARK.json`. See `README.md` beside this
//! file.

#![forbid(unsafe_code)]

mod compare;
mod host;
mod measure;
mod parse;
mod record;
mod spans;
mod workloads;

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use parsecs_bench::json::Obj;

use crate::parse::Value;
use crate::record::Record;
use crate::spans::Spans;
use crate::workloads::{Workload, WORKLOADS};

/// The benchmark's definition: workloads, metrics, bounds, run length.
const SPEC: &str = include_str!("../../../../../BENCHMARK.json");

const DEFAULT_SEED: u64 = 7;

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--json PATH] [--trace-out PATH]\n       \
                     benchmark --compare BASE.json NEW.json";

/// Prefix of the standard-output line carrying a run's full record, which
/// the all-workloads mode reads back from its children.
const RECORD_PREFIX: &str = "record ";

/// glibc malloc settings under which freed memory stays in the process:
/// no `mmap` for large blocks and no trimming of the heap. Repetitions
/// after the warm-up then reuse resident pages instead of faulting in
/// fresh ones, whose cost follows the host's memory load (a virtual
/// machine hands freed pages back to its host) rather than the program.
const RETAIN_MEMORY: &str = "glibc.malloc.mmap_max=0:glibc.malloc.trim_threshold=1099511627776";

#[derive(Debug)]
struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<String>,
    trace_out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec()
            .get("run_seconds")
            .and_then(Value::num)
            .expect("BENCHMARK.json sets run_seconds"),
        trace: false,
        json: None,
        trace_out: None,
        compare: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                options.workload = Some(Workload::find(&name).ok_or(format!(
                    "unknown workload {name}; one of {}",
                    names.join(", ")
                ))?);
            }
            "--seed" => {
                let seed = value()?;
                options.seed = seed.parse().map_err(|_| format!("bad seed {seed}"))?;
            }
            "--seconds" => {
                let raw = value()?;
                let seconds: f64 = raw.parse().map_err(|_| format!("bad seconds {raw}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err(format!("bad seconds {raw}"));
                }
                options.seconds = seconds;
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--json" => options.json = Some(value()?),
            "--trace-out" => options.trace_out = Some(value()?),
            "--compare" => options.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if options.workload.is_some() && options.trace_out.is_some() && !options.trace {
        return Err("--trace-out records the traced run: add --trace 1".into());
    }
    Ok(options)
}

fn spec() -> Value {
    parse::parse(SPEC).expect("BENCHMARK.json is valid JSON")
}

/// A `--json` run file: seed, run length, host and every record.
fn run_file(options: &Options, records: &[Record]) -> String {
    let records: Vec<String> = records
        .iter()
        .map(|r| format!("  {}", r.to_json()))
        .collect();
    let doc = Obj::new()
        .str("benchmark", "parsecs")
        .field("seed", options.seed)
        .field("seconds", options.seconds)
        .field("host", host::describe())
        .field("records", format!("[\n{}\n]", records.join(",\n")))
        .build();
    format!("{doc}\n")
}

fn write(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

fn run_one(workload: Workload, options: &Options) -> Result<(), String> {
    let (seed, seconds) = (options.seed, options.seconds);
    let mut spans = Spans::new();
    let record = if options.trace {
        measure::traced(&workload, seed, seconds, &mut spans)
    } else {
        measure::timed(&workload, seed, seconds)
    };
    print!("{}", record.table());
    if let Some(path) = &options.trace_out {
        write(path, &spans.chrome_json(workload.name))?;
    }
    if let Some(path) = &options.json {
        write(path, &run_file(options, std::slice::from_ref(&record)))?;
    }
    println!("{RECORD_PREFIX}{}", record.to_json());
    println!("{}", record.result_line());
    Ok(())
}

/// `PATH` with `-NAME` inserted before its extension.
fn suffixed(path: &str, name: &str) -> String {
    let p = Path::new(path);
    match (p.file_stem(), p.extension()) {
        (Some(stem), Some(ext)) => p
            .with_file_name(format!(
                "{}-{name}.{}",
                stem.to_string_lossy(),
                ext.to_string_lossy()
            ))
            .to_string_lossy()
            .into_owned(),
        _ => format!("{path}-{name}"),
    }
}

/// Runs `workload` in a child process and reads back its record; a child
/// that crashes or prints no record counts as one failed operation.
fn run_child(workload: &Workload, traced: bool, options: &Options) -> Record {
    let mut command = Command::new(std::env::current_exe().expect("own executable path"));
    command.args([
        "--workload",
        workload.name,
        "--seed",
        &options.seed.to_string(),
        "--seconds",
        &options.seconds.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ]);
    if let (true, Some(path)) = (traced, &options.trace_out) {
        command.args(["--trace-out", &suffixed(path, workload.name)]);
    }
    let output = command.stderr(Stdio::inherit()).output();
    let record = output
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
            let line = stdout.lines().find_map(|l| l.strip_prefix(RECORD_PREFIX))?;
            Record::from_json(&parse::parse(line).ok()?).ok()
        });
    record.unwrap_or_else(|| {
        eprintln!("{}: child run failed", workload.name);
        Record {
            workload: workload.name.into(),
            traced,
            attempted: 1,
            failed: 1,
            correct: false,
            metrics: Vec::new(),
            exact: Vec::new(),
        }
    })
}

/// Every workload, timed then traced, one child process at a time.
fn run_all(options: &Options) -> Result<bool, String> {
    let mut records = Vec::new();
    for workload in &WORKLOADS {
        let mut timed = run_child(workload, false, options);
        let mut traced = run_child(workload, true, options);
        let timed_cycles = timed.exact("sim_cycles");
        let traced_cycles = traced.metric("sim.cycles").map(|m| m.value());
        if timed_cycles != traced_cycles {
            eprintln!(
                "{}: timed cycles {timed_cycles:?} differ from traced {traced_cycles:?}",
                workload.name
            );
            timed.correct = false;
            traced.correct = false;
        }
        print!("{}{}", timed.table(), traced.table());
        records.extend([timed, traced]);
    }
    if let Some(path) = &options.json {
        write(path, &run_file(options, &records))?;
    }
    Ok(records.iter().all(|r| r.correct))
}

fn run_compare(base: &str, new: &str) -> Result<bool, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| parse::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let rows = compare::compare(&spec(), &read(base)?, &read(new)?)?;
    println!(
        "{:<30} {:<14} {:>14} {:>14} {:<8} {:>9} {:>6}  verdict",
        "workload", "metric", "base", "new", "unit", "change", "bound"
    );
    for row in &rows {
        println!("{row}");
    }
    Ok(rows.iter().all(|r| r.verdict != compare::Verdict::Worse))
}

/// Runs this same command in a child process under [`RETAIN_MEMORY`], unless
/// this process already is that child, and returns the child's exit code.
fn rerun_retaining_memory(args: &[String]) -> Option<ExitCode> {
    if std::env::var("GLIBC_TUNABLES").as_deref() == Ok(RETAIN_MEMORY) {
        return None;
    }
    let status = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(args)
            .env("GLIBC_TUNABLES", RETAIN_MEMORY)
            .status()
    });
    Some(match status {
        Ok(status) => status
            .code()
            .and_then(|code| u8::try_from(code).ok())
            .map_or(ExitCode::FAILURE, ExitCode::from),
        Err(error) => {
            eprintln!("cannot run the benchmark process: {error}");
            ExitCode::from(2)
        }
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if options.compare.is_none() {
        if let Some(code) = rerun_retaining_memory(&args) {
            return code;
        }
    }
    let outcome = match (&options.compare, options.workload) {
        (Some((base, new)), _) => run_compare(base, new),
        (None, Some(workload)) => run_one(workload, &options).map(|()| true),
        (None, None) => run_all(&options),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(error) => {
            eprintln!("{error}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &str) -> Vec<(String, String)> {
        spec()
            .get(list)
            .unwrap()
            .arr()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Value::str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn emitted(record: &Record) -> Vec<(String, String)> {
        record
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.clone()))
            .collect()
    }

    /// Each workload's shape at ≈50k instructions, through the same timed
    /// and traced code as the full runs: oracle outputs, equal timed and
    /// traced cycles, probed == unprobed and one- == two-thread stats (the
    /// traced pass fails otherwise), and exactly the metric names and
    /// units `BENCHMARK.json` declares.
    #[test]
    fn miniature_workloads_pass_every_check_and_emit_the_declared_metrics() {
        for workload in WORKLOADS.map(Workload::miniature) {
            let timed = measure::timed(&workload, 3, 0.0);
            assert!(timed.correct, "{}: {}", workload.name, timed.table());
            assert_eq!(timed.failed, 0);
            assert_eq!(emitted(&timed), names("end_to_end"));

            let traced = measure::traced(&workload, 3, 0.0, &mut Spans::new());
            assert!(traced.correct, "{}: {}", workload.name, traced.table());
            assert_eq!(emitted(&traced), names("per_layer"));
            assert_eq!(
                timed.exact("sim_cycles"),
                traced.metric("sim.cycles").map(|m| m.value())
            );
            assert_eq!(timed.exact("failed_frac"), Some(0.0));
            let coverage = traced.metric("bench.layer_coverage").unwrap().value();
            assert!(
                coverage > 0.0 && coverage.is_finite(),
                "coverage {coverage}"
            );
        }
    }

    #[test]
    fn benchmark_json_lists_these_workloads_and_bounds_every_metric() {
        let spec = spec();
        let listed: Vec<&str> = spec
            .get("workloads")
            .unwrap()
            .arr()
            .iter()
            .map(|w| w.get("name").and_then(Value::str).unwrap())
            .collect();
        assert_eq!(listed, WORKLOADS.map(|w| w.name));
        for metric in spec.get("end_to_end").unwrap().arr() {
            let bound = metric.get("bound").and_then(Value::num).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        assert!(spec.get("run_seconds").and_then(Value::num).is_some());
    }

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_reject_bad_input() {
        let o = parse_args(&args(
            "--workload fan_chain-1024c --seed 9 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload.map(|w| w.name), Some("fan_chain-1024c"));
        assert_eq!((o.seed, o.seconds, o.trace), (9, 2.5, true));
        assert_eq!(parse_args(&[]).unwrap().seed, DEFAULT_SEED);
        let o = parse_args(&args("--compare a.json b.json")).unwrap();
        assert_eq!(o.compare, Some(("a.json".into(), "b.json".into())));
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds -1",
            "--trace 2",
            "--bogus",
            "--compare a.json",
            "--workload fan_chain-1024c --trace-out t.json",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn trace_out_paths_get_the_workload_name() {
        assert_eq!(suffixed("out/trace.json", "w"), "out/trace-w.json");
        assert_eq!(suffixed("trace", "w"), "trace-w");
    }
}
