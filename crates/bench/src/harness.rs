//! The measurement harness of `repro_perf`: its command-line flags, the
//! interleaved best-of timer, the Chrome-trace export and the `FAIL:`
//! exit. The bin keeps its own grid, rows, JSON schema and gates.

use std::io::BufWriter;
use std::time::Instant;

use parsecs_core::{ManyCoreSim, SimResult};
use parsecs_obs::ChromeTraceWriter;
use parsecs_trace::TraceArena;

/// What one bin accepts on its command line.
#[derive(Debug)]
pub struct Cli {
    /// Every flag the bin accepts, in usage order: any of `--quick`,
    /// `--validate`, `--json [PATH]` and `--trace-out PATH`.
    pub flags: &'static [&'static str],
    /// Where `--json` without a path writes.
    pub json_default: &'static str,
}

/// A parsed command line.
#[derive(Debug)]
pub struct Flags {
    /// `--quick`: the bin's small CI grid.
    pub quick: bool,
    /// `--validate`: run every cell with the static analysis on.
    pub validate: bool,
    /// `--json [PATH]`: where to write the bin's JSON rows.
    pub json: Option<String>,
    /// `--trace-out PATH`: where to write a Chrome trace.
    pub trace_out: Option<String>,
}

impl Cli {
    /// Parses the process arguments. A bad argument prints the usage
    /// line and exits with code 2.
    pub fn parse(&self) -> Flags {
        self.parse_from(std::env::args().skip(1))
            .unwrap_or_else(|message| {
                eprintln!("{message}");
                std::process::exit(2);
            })
    }

    /// Parses `args` (without the program name); the error is the
    /// message to print.
    fn parse_from(&self, args: impl IntoIterator<Item = String>) -> Result<Flags, String> {
        let mut flags = Flags {
            quick: false,
            validate: false,
            json: None,
            trace_out: None,
        };
        let mut args = args.into_iter().peekable();
        while let Some(arg) = args.next() {
            let Some(&flag) = self.flags.iter().find(|&&flag| flag == arg) else {
                return Err(format!(
                    "unknown argument '{arg}' (supported: {})",
                    self.usage()
                ));
            };
            match flag {
                "--quick" => flags.quick = true,
                "--validate" => flags.validate = true,
                "--json" => {
                    let path = args.next_if(|path| !path.starts_with("--"));
                    flags.json = Some(path.unwrap_or_else(|| self.json_default.into()));
                }
                "--trace-out" => {
                    flags.trace_out = Some(args.next().ok_or("--trace-out takes a file path")?);
                }
                other => unreachable!("{other} is not a harness flag"),
            }
        }
        Ok(flags)
    }

    fn usage(&self) -> String {
        let shown: Vec<&str> = self
            .flags
            .iter()
            .map(|&flag| match flag {
                "--json" => "--json [PATH]",
                "--trace-out" => "--trace-out PATH",
                other => other,
            })
            .collect();
        shown.join(" ")
    }
}

impl Flags {
    /// Writes `body()` to the `--json` path, if one was given, and
    /// reports the row count.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn write_json(&self, rows: usize, body: impl FnOnce() -> String) {
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
pub fn best_of<T, const N: usize>(rounds: usize, runs: [&dyn Fn() -> T; N]) -> [f64; N] {
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
pub fn write_chrome_trace(
    path: &str,
    label: &str,
    sim: &ManyCoreSim,
    arena: &TraceArena,
) -> SimResult {
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

/// Ends a bin's run on its hard gates: prints each failure as `FAIL: …`
/// to stderr and exits with code 1 if there was any.
pub fn exit_on_failures(failures: &[String]) {
    for failure in failures {
        eprintln!("FAIL: {failure}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLI: Cli = Cli {
        flags: &["--quick", "--trace-out", "--json"],
        json_default: "BENCH_x.json",
    };

    fn parse(args: &[&str]) -> Result<Flags, String> {
        CLI.parse_from(args.iter().map(|a| a.to_string()))
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
        assert_eq!(flags.json.as_deref(), Some("BENCH_x.json"));
        assert!(flags.quick);
        let flags = parse(&["--json", "out.json", "--trace-out", "t.json"]).unwrap();
        assert_eq!(flags.json.as_deref(), Some("out.json"));
        assert_eq!(flags.trace_out.as_deref(), Some("t.json"));
    }

    #[test]
    fn flags_the_bin_does_not_accept_are_refused_with_the_usage_line() {
        let err = parse(&["--validate"]).unwrap_err();
        assert_eq!(
            err,
            "unknown argument '--validate' (supported: --quick --trace-out PATH --json [PATH])"
        );
        assert!(parse(&["--threads", "4"]).is_err());
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
