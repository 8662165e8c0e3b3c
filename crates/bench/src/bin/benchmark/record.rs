//! What one run measured — samples per metric — and the three forms it is
//! written in: a human table, the full record (a JSON line with every
//! sample, which `--json` files collect), and the one-line JSON result
//! that ends standard output.

use parsecs_bench::json::Obj;

use crate::parse::Value;

/// One metric with every sample taken; its value is the samples' median.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn new(name: &str, unit: &str, samples: Vec<f64>) -> Metric {
        Metric {
            name: name.into(),
            unit: unit.into(),
            samples,
        }
    }

    pub fn value(&self) -> f64 {
        median(&self.samples)
    }
}

/// The result of one run of one workload, in one mode.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    /// `true` for the traced run (per-layer metrics), `false` for the
    /// timed repetitions (end-to-end metrics).
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Outputs matched the oracle and every cross-check held.
    pub correct: bool,
    pub metrics: Vec<Metric>,
    /// Simulated results that must repeat exactly (`sim_cycles`,
    /// `sim_fetch_ipc`) and the failure ratio; compared without a bound.
    pub exact: Vec<(String, f64)>,
}

impl Record {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn exact(&self, name: &str) -> Option<f64> {
        self.exact.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The run's last output line: `correct`, `attempted`, `failed` and each
    /// metric's median with its unit.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .fold(Obj::new(), |obj, m| {
                let entry = Obj::new().field("value", m.value()).str("unit", &m.unit);
                obj.field(&m.name, entry.build())
            })
            .build();
        Obj::new()
            .field("correct", self.correct)
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", metrics)
            .build()
    }

    /// Every field and sample, as one JSON object.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .fold(Obj::new(), |obj, m| {
                let entry = Obj::new()
                    .field("value", m.value())
                    .str("unit", &m.unit)
                    .field("samples", number_list(&m.samples));
                obj.field(&m.name, entry.build())
            })
            .build();
        let exact = self
            .exact
            .iter()
            .fold(Obj::new(), |obj, (name, value)| obj.field(name, value))
            .build();
        Obj::new()
            .str("workload", &self.workload)
            .field("traced", self.traced)
            .field("correct", self.correct)
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("exact", exact)
            .field("metrics", metrics)
            .build()
    }

    /// Reads back [`Record::to_json`].
    pub fn from_json(value: &Value) -> Result<Record, String> {
        let field = |key: &str| value.get(key).ok_or(format!("record lacks '{key}'"));
        let count = |key: &str| -> Result<u64, String> {
            field(key)?
                .num()
                .map(|n| n as u64)
                .ok_or(format!("'{key}' is not a number"))
        };
        let metrics = field("metrics")?
            .fields()
            .iter()
            .map(|(name, m)| {
                let unit = m.get("unit").and_then(Value::str).unwrap_or_default();
                let samples = m
                    .get("samples")
                    .map(|s| s.arr().iter().filter_map(Value::num).collect())
                    .unwrap_or_default();
                Metric::new(name, unit, samples)
            })
            .collect();
        let exact = field("exact")?
            .fields()
            .iter()
            .filter_map(|(name, v)| v.num().map(|n| (name.clone(), n)))
            .collect();
        Ok(Record {
            workload: field("workload")?.str().unwrap_or_default().to_string(),
            traced: field("traced")?.bool().unwrap_or(false),
            attempted: count("attempted")?,
            failed: count("failed")?,
            correct: field("correct")?.bool().unwrap_or(false),
            metrics,
            exact,
        })
    }

    /// A human-readable table: one line per metric with its median,
    /// quartiles and sample count.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} ({}): {} attempted, {} failed, {}\n",
            self.workload,
            if self.traced { "traced" } else { "timed" },
            self.attempted,
            self.failed,
            if self.correct { "correct" } else { "INCORRECT" }
        );
        for m in &self.metrics {
            let [q1, _, q3] = quartiles(&m.samples);
            out.push_str(&format!(
                "  {:<32} {:>16.6} {:<10} n={:<3} q1={:.6} q3={:.6}\n",
                m.name,
                m.value(),
                m.unit,
                m.samples.len(),
                q1,
                q3
            ));
        }
        for (name, value) in &self.exact {
            out.push_str(&format!("  {name:<32} {value:>16} (exact)\n"));
        }
        out
    }
}

/// A JSON array of numbers (non-finite values become `null`).
pub fn number_list(values: &[f64]) -> String {
    let items: Vec<String> = values
        .iter()
        .map(|v| {
            if v.is_finite() {
                v.to_string()
            } else {
                "null".into()
            }
        })
        .collect();
    format!("[{}]", items.join(", "))
}

/// The median of `samples` (the mean of the middle two for an even
/// count); NaN when there are none.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The three quartile cut points, computed like Python's
/// `statistics.quantiles(samples, n=4)` (the default "exclusive" method),
/// so spreads match what an external checker computes from the same
/// values. A single sample is all three cut points; none gives NaN.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    match len {
        0 => return [f64::NAN; 3],
        1 => return [data[0]; 3],
        _ => {}
    }
    let (n, m) = (4, len as i64 + 1);
    let mut cuts = [0.0; 3];
    for (i, cut) in (1..n).zip(cuts.iter_mut()) {
        let j = (i * m / n).clamp(1, len as i64 - 1);
        // Negative when the clamp raised `j`: Python extrapolates there too.
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        *cut = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    cuts
}

/// The interquartile distance as a share of the median.
pub fn relative_spread(samples: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(samples);
    (q3 - q1) / median(samples).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        assert!((relative_spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn records_round_trip_and_yield_the_result_line() {
        let record = Record {
            workload: "w".into(),
            traced: false,
            attempted: 3,
            failed: 0,
            correct: true,
            metrics: vec![Metric::new("wall_s", "s", vec![1.5, 1.0, 2.0])],
            exact: vec![("sim_cycles".into(), 12298.0)],
        };
        let parsed = crate::parse::parse(&record.to_json()).unwrap();
        assert_eq!(Record::from_json(&parsed).unwrap(), record);
        let line = crate::parse::parse(&record.result_line()).unwrap();
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = line.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("value").unwrap().num(), Some(1.5));
        assert_eq!(wall.get("unit").unwrap().str(), Some("s"));
        assert_eq!(wall.fields().len(), 2);
    }
}
