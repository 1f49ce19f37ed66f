//! Compare mode: two files of run records (one JSON object per line, as
//! `--out` appends them) judged against the bounds in `BENCHMARK.json`.
//!
//! For each (workload, end-to-end metric) both sides report their median
//! and quartiles over their runs. A metric is **worse** when the new median
//! is worse than the old one by more than its bound, and **unresolved**
//! when either side's spread (quartile distance ÷ median) exceeds the
//! bound. Runs of one (workload, seed, size) on both sides must also agree
//! exactly on their output and simulated-statistics fingerprints.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::json::{self, Value};
use crate::stats::{median, quartiles, spread};

/// One end-to-end metric's bound from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Share of the old median the metric may worsen by.
    pub bound: f64,
}

/// Reads the `end_to_end` bounds of a `BENCHMARK.json` document.
///
/// # Errors
///
/// Returns a message if the document is malformed.
pub fn read_bounds(spec: &str) -> Result<Vec<Bound>, String> {
    let v = json::parse(spec)?;
    let metrics = v.get("end_to_end").and_then(Value::as_array).ok_or("no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or_else(|| format!("metric without {k}"));
            Ok(Bound {
                name: field("name")?.as_str().ok_or("name is not a string")?.to_string(),
                unit: field("unit")?.as_str().ok_or("unit is not a string")?.to_string(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// One run record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Workload size label.
    pub size: String,
    /// Whether this was a traced (per-layer) run.
    pub trace: bool,
    /// Output bytes fingerprint.
    pub output_fingerprint: String,
    /// Simulated statistics fingerprint.
    pub sim_fingerprint: String,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses a file of records, one JSON object per non-empty line.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn read_records(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| {
            let v = json::parse(l).map_err(|e| format!("line {}: {e}", i + 1))?;
            let s = |k: &str| v.get(k).and_then(Value::as_str).unwrap_or_default().to_string();
            let metrics = match v.get("metrics") {
                Some(Value::Obj(m)) => m
                    .iter()
                    .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                    .collect(),
                _ => return Err(format!("line {}: no metrics object", i + 1)),
            };
            Ok(Record {
                workload: s("workload"),
                seed: v.get("seed").and_then(Value::as_f64).unwrap_or(0.0) as u64,
                size: s("size"),
                trace: v.get("trace") == Some(&Value::Bool(true)),
                output_fingerprint: s("output_fingerprint"),
                sim_fingerprint: s("sim_fingerprint"),
                metrics,
            })
        })
        .collect()
}

/// Verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the old median by more than the bound.
    Worse,
    /// A side's spread exceeds the bound, so the difference cannot be
    /// judged.
    Unresolved,
    /// A side has no runs of this workload.
    Missing,
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Metric unit.
    pub unit: String,
    /// Old `(q1, median, q3)`.
    pub old: (f64, f64, f64),
    /// New `(q1, median, q3)`.
    pub new: (f64, f64, f64),
    /// `new ÷ old − 1` of the medians.
    pub change: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// The whole comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// One row per (workload, end-to-end metric).
    pub rows: Vec<Row>,
    /// (workload, seed, size) runs present on both sides.
    pub shared_runs: usize,
    /// Of those, the ones whose output fingerprints differ.
    pub output_mismatches: Vec<String>,
    /// Of those, the ones whose simulated-statistics fingerprints differ.
    pub sim_mismatches: Vec<String>,
}

impl Comparison {
    /// Whether the new side is acceptable: nothing worse, identical
    /// outputs and simulated statistics.
    #[must_use]
    pub fn passes(&self) -> bool {
        self.rows.iter().all(|r| r.verdict != Verdict::Worse)
            && self.output_mismatches.is_empty()
            && self.sim_mismatches.is_empty()
    }

    /// A human-readable table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<13} {:<19} {:>13} {:>13} {:>13} {:>13} {:>13} {:>13} {:>8}  verdict",
            "workload",
            "metric",
            "old q1",
            "old median",
            "old q3",
            "new q1",
            "new median",
            "new q3",
            "change"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<13} {:<19} {:>13.6} {:>13.6} {:>13.6} {:>13.6} {:>13.6} {:>13.6} {:>+7.2}%  \
                 {:?} ({})",
                r.workload,
                r.metric,
                r.old.0,
                r.old.1,
                r.old.2,
                r.new.0,
                r.new.1,
                r.new.2,
                r.change * 100.0,
                r.verdict,
                r.unit
            );
        }
        let verdict = |bad: &[String]| {
            if bad.is_empty() {
                "match".to_string()
            } else {
                format!("DIFFER on {}", bad.join(", "))
            }
        };
        let _ = writeln!(
            out,
            "shared (workload, seed, size) runs: {}; output fingerprints {}; simulated statistics {}",
            self.shared_runs,
            verdict(&self.output_mismatches),
            verdict(&self.sim_mismatches)
        );
        out
    }
}

fn summary(values: &[f64]) -> (f64, f64, f64) {
    let (q1, q3) = quartiles(values);
    (q1, median(values), q3)
}

/// Compares `old` runs with `new` runs under `bounds`. Traced runs carry no
/// end-to-end metrics and only take part in the fingerprint check.
#[must_use]
pub fn compare(bounds: &[Bound], old: &[Record], new: &[Record]) -> Comparison {
    let workloads: BTreeSet<&str> = old.iter().chain(new).map(|r| r.workload.as_str()).collect();
    let mut rows = Vec::new();
    for w in workloads {
        for b in bounds {
            let values = |side: &[Record]| -> Vec<f64> {
                side.iter()
                    .filter(|r| r.workload == w && !r.trace)
                    .filter_map(|r| r.metrics.get(&b.name).copied())
                    .collect()
            };
            let (o, n) = (values(old), values(new));
            let (old_s, new_s) = (summary(&o), summary(&n));
            let change = if old_s.1 == 0.0 { 0.0 } else { new_s.1 / old_s.1 - 1.0 };
            let worse_by = if b.lower_is_better { change } else { -change };
            let verdict = if o.is_empty() || n.is_empty() {
                Verdict::Missing
            } else if spread(&o) > b.bound || spread(&n) > b.bound {
                Verdict::Unresolved
            } else if worse_by > b.bound {
                Verdict::Worse
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: w.to_string(),
                metric: b.name.clone(),
                unit: b.unit.clone(),
                old: old_s,
                new: new_s,
                change,
                verdict,
            });
        }
    }
    let key = |r: &Record| (r.workload.clone(), r.seed, r.size.clone());
    let old_by: BTreeMap<_, &Record> = old.iter().map(|r| (key(r), r)).collect();
    let mut shared = BTreeSet::new();
    let (mut output_mismatches, mut sim_mismatches) = (BTreeSet::new(), BTreeSet::new());
    for r in new {
        if let Some(o) = old_by.get(&key(r)) {
            let label = format!("{}@seed{}", r.workload, r.seed);
            shared.insert(label.clone());
            if o.output_fingerprint != r.output_fingerprint {
                output_mismatches.insert(label.clone());
            }
            if o.sim_fingerprint != r.sim_fingerprint {
                sim_mismatches.insert(label);
            }
        }
    }
    Comparison {
        rows,
        shared_runs: shared.len(),
        output_mismatches: output_mismatches.into_iter().collect(),
        sim_mismatches: sim_mismatches.into_iter().collect(),
    }
}
