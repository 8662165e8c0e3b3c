//! `--compare BASE.json NEW.json`: one verdict per (workload, end-to-end
//! metric), judged by the bounds in `BENCHMARK.json`, plus exact diffs of
//! the simulated results and the failure ratio.

use std::fmt;

use crate::host;
use crate::parse::Value;
use crate::record::{median, relative_spread, Record};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Compared without a bound: simulated results must not move at all in a
/// simulator-only change. `(name, higher is better)`.
const EXACT: [(&str, bool); 3] = [
    ("sim_cycles", false),
    ("sim_fetch_ipc", true),
    ("failed_frac", false),
];

/// The verdict on one bounded metric. `unresolved` when the base's own
/// interquartile spread exceeds the bound — unless every new sample beats
/// every base sample; otherwise `worse` / `better` when the medians differ
/// by more than the bound in that direction, `same` when they do not.
pub fn verdict(base: &[f64], new: &[f64], bound: f64, higher_is_better: bool) -> Verdict {
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    if relative_spread(base) > bound {
        let all_better = new
            .iter()
            .all(|n| base.iter().all(|b| sign * (n - b) < 0.0));
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = sign * (median(new) - median(base)) / median(base).abs();
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn exact_verdict(base: f64, new: f64, higher_is_better: bool) -> Verdict {
    if base == new {
        Verdict::Same
    } else if (new > base) == higher_is_better {
        Verdict::Better
    } else {
        Verdict::Worse
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub base: f64,
    pub new: f64,
    /// The bound, or `None` for an exact comparison.
    pub bound: Option<f64>,
    pub verdict: Verdict,
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let change = (self.new - self.base) / self.base.abs() * 100.0;
        let bound = self
            .bound
            .map_or("exact".to_string(), |b| format!("±{:.0}%", b * 100.0));
        write!(
            f,
            "{:<30} {:<14} {:>14.6} {:>14.6} {:<8} {:>+8.2}% {:>6}  {}",
            self.workload,
            self.metric,
            self.base,
            self.new,
            self.unit,
            if change.is_finite() { change } else { 0.0 },
            bound,
            self.verdict
        )
    }
}

fn records(run: &Value) -> Result<Vec<Record>, String> {
    run.get("records")
        .ok_or("run file lacks 'records'")?
        .arr()
        .iter()
        .map(Record::from_json)
        .collect()
}

/// Compares two `--json` run files under the bounds of `spec`
/// (`BENCHMARK.json`). Refuses runs with different seeds or hosts.
pub fn compare(spec: &Value, base: &Value, new: &Value) -> Result<Vec<Row>, String> {
    if base.get("seed") != new.get("seed") {
        return Err("refusing to compare runs made with different seeds".into());
    }
    let (base_host, new_host) = match (base.get("host"), new.get("host")) {
        (Some(b), Some(n)) => (b, n),
        _ => return Err("run file lacks 'host'".into()),
    };
    if let Some(field) = host::mismatch(base_host, new_host) {
        return Err(format!(
            "refusing to compare runs from different hosts ({field} differs)"
        ));
    }
    let new_records = records(new)?;
    let mut rows = Vec::new();
    for b in records(base)?.iter().filter(|r| !r.traced) {
        let n = new_records
            .iter()
            .find(|n| !n.traced && n.workload == b.workload)
            .ok_or(format!("the new run lacks workload {}", b.workload))?;
        for metric in spec.get("end_to_end").map_or(&[][..], Value::arr) {
            let name = metric.get("name").and_then(Value::str).unwrap_or_default();
            let bound = metric.get("bound").and_then(Value::num).unwrap_or(0.0);
            let higher = metric.get("better").and_then(Value::str) == Some("higher");
            let (Some(bm), Some(nm)) = (b.metric(name), n.metric(name)) else {
                return Err(format!("{}: metric {name} missing", b.workload));
            };
            rows.push(Row {
                workload: b.workload.clone(),
                metric: name.into(),
                unit: bm.unit.clone(),
                base: bm.value(),
                new: nm.value(),
                bound: Some(bound),
                verdict: verdict(&bm.samples, &nm.samples, bound, higher),
            });
        }
        for (name, higher) in EXACT {
            let (Some(bv), Some(nv)) = (b.exact(name), n.exact(name)) else {
                return Err(format!("{}: exact value {name} missing", b.workload));
            };
            rows.push(Row {
                workload: b.workload.clone(),
                metric: name.into(),
                unit: String::new(),
                base: bv,
                new: nv,
                bound: None,
                verdict: exact_verdict(bv, nv, higher),
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Metric;

    #[test]
    fn verdicts_follow_bounds_and_direction() {
        let base = [1.0, 1.01, 0.99, 1.0, 1.02];
        assert_eq!(verdict(&base, &[1.05; 3], 0.10, false), Verdict::Same);
        assert_eq!(verdict(&base, &[1.2; 3], 0.10, false), Verdict::Worse);
        assert_eq!(verdict(&base, &[0.8; 3], 0.10, false), Verdict::Better);
        // Higher-is-better flips the direction.
        assert_eq!(verdict(&base, &[1.2; 3], 0.10, true), Verdict::Better);
        assert_eq!(verdict(&base, &[0.8; 3], 0.10, true), Verdict::Worse);
    }

    #[test]
    fn a_noisy_base_is_unresolved_unless_every_new_sample_wins() {
        let noisy = [0.5, 1.0, 1.5, 2.0, 0.7];
        assert_eq!(verdict(&noisy, &[3.0; 3], 0.10, false), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &[0.4, 0.45], 0.10, false), Verdict::Better);
        assert_eq!(
            verdict(&noisy, &[0.4, 0.6], 0.10, false),
            Verdict::Unresolved
        );
    }

    #[test]
    fn exact_metrics_are_diffed_exactly() {
        assert_eq!(exact_verdict(12298.0, 12298.0, false), Verdict::Same);
        assert_eq!(exact_verdict(12298.0, 12299.0, false), Verdict::Worse);
        assert_eq!(exact_verdict(18.5, 18.6, true), Verdict::Better);
    }

    fn run(seed: u64, nproc: u64, wall: f64, cycles: f64) -> Value {
        let record = Record {
            workload: "w".into(),
            traced: false,
            attempted: 5,
            failed: 0,
            correct: true,
            metrics: vec![Metric::new("wall_s", "s", vec![wall; 5])],
            exact: vec![
                ("sim_cycles".into(), cycles),
                ("sim_fetch_ipc".into(), 2.0),
                ("failed_frac".into(), 0.0),
            ],
        };
        let text = format!(
            r#"{{"seed": {seed}, "host": {{"nproc": {nproc}, "cpu_model": "c", "mem_total_kb": 1, "rustc": "r"}}, "records": [{}]}}"#,
            record.to_json()
        );
        crate::parse::parse(&text).unwrap()
    }

    #[test]
    fn compares_rows_and_refuses_mismatched_runs() {
        let spec = crate::parse::parse(
            r#"{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let rows = compare(&spec, &run(7, 2, 1.0, 10.0), &run(7, 2, 1.5, 11.0)).unwrap();
        let verdicts: Vec<(&str, Verdict)> = rows
            .iter()
            .map(|r| (r.metric.as_str(), r.verdict))
            .collect();
        assert_eq!(
            verdicts,
            [
                ("wall_s", Verdict::Worse),
                ("sim_cycles", Verdict::Worse),
                ("sim_fetch_ipc", Verdict::Same),
                ("failed_frac", Verdict::Same),
            ]
        );
        assert!(compare(&spec, &run(7, 2, 1.0, 10.0), &run(8, 2, 1.0, 10.0)).is_err());
        assert!(compare(&spec, &run(7, 2, 1.0, 10.0), &run(7, 4, 1.0, 10.0)).is_err());
    }
}
