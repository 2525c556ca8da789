//! Collects metrics and prints them: one human-readable line per metric
//! (name, value, unit, sample count), then the provenance, then one JSON
//! line that must stay the last line of standard output.

use crate::json::Json;
use crate::paths::Failures;
use crate::provenance::Provenance;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value summarises.
    pub samples: usize,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in the order they were added.
    pub metrics: Vec<Metric>,
    /// Correctness results of every checked solve.
    pub failures: Failures,
    /// Checks other than per-solve results that failed (closure,
    /// latency ordering), each with its reason.
    pub check_failures: Vec<String>,
    /// Free-form lines printed before the metrics (shape, flags).
    pub notes: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Adds a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every output was correct and every check passed.
    pub fn correct(&self) -> bool {
        self.failures.total() == 0
            && self.check_failures.is_empty()
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line the benchmark contract asks for.
    pub fn json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::object(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        Json::object(vec![
            ("correct", Json::Bool(self.correct())),
            (
                "attempted",
                Json::Num(self.failures.attempted.max(1) as f64),
            ),
            ("failed", Json::Num(self.failures.total() as f64)),
            ("metrics", Json::Object(metrics)),
        ])
        .to_string()
    }

    /// Prints the human-readable report, then the JSON line last.
    pub fn print(&self, provenance: &Provenance) {
        for line in &self.notes {
            println!("{line}");
        }
        for line in provenance.lines() {
            println!("{line}");
        }
        println!(
            "{:<34} {:>16} {:<6} {:>8}",
            "metric", "value", "unit", "samples"
        );
        for m in &self.metrics {
            println!(
                "{:<34} {:>16.6} {:<6} {:>8}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let f = &self.failures;
        println!(
            "checked {} results: {} error, {} missing, {} not converged, {} mismatched",
            f.attempted, f.error, f.missing, f.not_converged, f.mismatch
        );
        for c in &self.check_failures {
            println!("CHECK FAILED: {c}");
        }
        println!("{}", self.json_line());
    }
}
