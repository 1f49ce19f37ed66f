//! Tests of the benchmark itself: every workload emits every metric that
//! `BENCHMARK.json` names, with its unit, and compare mode flags a
//! regression while passing identical runs.

use std::collections::BTreeMap;

use pade_perfbench::bench::{run, Options, Outcome};
use pade_perfbench::compare::{compare, read_bounds, read_records, Record, Verdict};
use pade_perfbench::json::{self, Value};
use pade_perfbench::workloads::{Size, Workload};

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn listed(spec: &Value, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .and_then(Value::as_array)
        .expect("metric list present")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Value::as_str).expect("string field").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn small(workload: Workload, trace: bool) -> Options {
    Options { workload, seed: 7, seconds: 0.0, trace, size: Size::Small }
}

fn emitted(outcome: &Outcome) -> Vec<(String, String)> {
    let result = json::parse(&outcome.result_line()).expect("result line parses");
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    match result.get("metrics") {
        Some(Value::Obj(m)) => m
            .iter()
            .map(|(k, v)| {
                assert!(v.get("value").and_then(Value::as_f64).is_some_and(f64::is_finite));
                (k.clone(), v.get("unit").and_then(Value::as_str).unwrap_or_default().to_string())
            })
            .collect(),
        _ => panic!("no metrics object"),
    }
}

#[test]
fn every_workload_emits_every_listed_metric_with_its_unit() {
    let spec = spec();
    let names: Vec<String> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads listed")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap_or_default().to_string())
        .collect();
    assert_eq!(names, Workload::ALL.map(|w| w.name().to_string()));
    for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
        let mut want = listed(&spec, list);
        want.sort();
        for w in Workload::ALL {
            let outcome = run(&small(w, trace));
            let mut got = emitted(&outcome);
            got.sort();
            assert_eq!(got, want, "{} ({list})", w.name());
            assert!(outcome.attempted >= outcome.requests as u64);
            assert!(outcome.oracle_checked > 0);
        }
    }
}

#[test]
fn runs_are_deterministic_per_seed() {
    let a = run(&small(Workload::FleetPrefix, false));
    let b = run(&small(Workload::FleetPrefix, false));
    assert_eq!(a.output_fingerprint, b.output_fingerprint);
    assert_eq!(a.sim_fingerprint, b.sim_fingerprint);
    let other = run(&Options { seed: 8, ..small(Workload::FleetPrefix, false) });
    assert_ne!(a.output_fingerprint, other.output_fingerprint);
}

fn record(seed: u64, metrics: &[(&str, f64)]) -> Record {
    Record {
        workload: "decode-long".into(),
        seed,
        size: "full".into(),
        trace: false,
        output_fingerprint: "00".into(),
        sim_fingerprint: "11".into(),
        metrics: metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect::<BTreeMap<_, _>>(),
    }
}

#[test]
fn compare_passes_identical_runs_and_flags_an_injected_regression() {
    let bounds = read_bounds(
        &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .unwrap(),
    )
    .unwrap();
    let wall = |w: f64| vec![("wall_s", w), ("engine_cycles", 1000.0)];
    let old: Vec<Record> =
        (0..10).map(|i| record(i, &wall(1.0 + 0.002 * i as f64))).collect::<Vec<_>>();

    let same = compare(&bounds, &old, &old);
    assert!(same.passes(), "{}", same.render());
    assert_eq!(same.shared_runs, 10);
    let row = |c: &pade_perfbench::compare::Comparison, m: &str| {
        c.rows.iter().find(|r| r.metric == m).expect("row present").verdict
    };
    assert_eq!(row(&same, "wall_s"), Verdict::Ok);
    assert_eq!(row(&same, "setup_s"), Verdict::Missing);

    // Twice as slow: worse than any bound allows.
    let slow: Vec<Record> =
        old.iter().map(|r| record(r.seed, &wall(2.0 * r.metrics["wall_s"]))).collect();
    let c = compare(&bounds, &old, &slow);
    assert_eq!(row(&c, "wall_s"), Verdict::Worse);
    assert_eq!(row(&c, "engine_cycles"), Verdict::Ok);
    assert!(!c.passes());

    // Faster is never worse.
    let fast: Vec<Record> =
        old.iter().map(|r| record(r.seed, &wall(0.5 * r.metrics["wall_s"]))).collect();
    assert_eq!(row(&compare(&bounds, &old, &fast), "wall_s"), Verdict::Ok);

    // A spread wider than the bound cannot be judged.
    let noisy: Vec<Record> =
        (0..10).map(|i| record(i, &wall(if i % 2 == 0 { 0.5 } else { 2.0 }))).collect();
    assert_eq!(row(&compare(&bounds, &old, &noisy), "wall_s"), Verdict::Unresolved);

    // Changed outputs or simulated statistics fail even when timings hold.
    let mut changed = old.clone();
    changed[3].output_fingerprint = "ff".into();
    changed[4].sim_fingerprint = "ee".into();
    let c = compare(&bounds, &old, &changed);
    assert_eq!(c.output_mismatches, vec!["decode-long@seed3".to_string()]);
    assert_eq!(c.sim_mismatches, vec!["decode-long@seed4".to_string()]);
    assert!(!c.passes());
}

#[test]
fn run_records_round_trip_through_compare() {
    let opts = small(Workload::DecodeLong, false);
    let outcome = run(&opts);
    let line = outcome.record_line(&opts, 1);
    let records = read_records(&format!("{line}\n\n{line}\n")).expect("records parse");
    assert_eq!(records.len(), 2);
    assert_eq!(records[0].workload, "decode-long");
    assert_eq!(records[0].seed, 7);
    assert_eq!(records[0].output_fingerprint, outcome.output_fingerprint);
    assert_eq!(records[0].metrics.len(), outcome.metrics.len());
    let bounds = read_bounds(
        &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .unwrap(),
    )
    .unwrap();
    assert!(compare(&bounds, &records, &records).passes());
}
