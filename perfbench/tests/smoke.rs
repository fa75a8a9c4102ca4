//! Smoke-size runs of every workload, traced and untraced: each must
//! pass its checks and print every metric `BENCHMARK.json` names, with
//! the unit it names.

use std::path::Path;
use std::process::Command;

use hpcfail_scenario::value::{parse_json, Value};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key}: expected a string, got {other:?}"),
    }
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("{key}: expected an array, got {other:?}"),
    }
}

/// Run one workload at smoke size and parse its last stdout line.
fn run(workload: &str, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.5",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    parse_json(last).unwrap_or_else(|e| panic!("{workload}: {e}: {last}"))
}

#[test]
fn every_workload_prints_every_named_metric_with_its_unit() {
    let spec = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = parse_json(&spec).expect("BENCHMARK.json parses");
    for workload in list(&spec, "workloads") {
        let name = str_of(workload, "name");
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = run(name, trace);
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{name} {section}"
            );
            assert_eq!(
                result.get("failed"),
                Some(&Value::Int(0)),
                "{name} {section}"
            );
            let metrics = result.get("metrics").expect("metrics");
            let expected = list(&spec, section);
            assert_eq!(
                metrics.entries().map(<[_]>::len),
                Some(expected.len()),
                "{name} {section}"
            );
            for metric in expected {
                let metric_name = str_of(metric, "name");
                let printed = metrics
                    .get(metric_name)
                    .unwrap_or_else(|| panic!("{name}: {metric_name} not printed"));
                assert_eq!(
                    str_of(printed, "unit"),
                    str_of(metric, "unit"),
                    "{name}: {metric_name}"
                );
                assert!(
                    matches!(printed.get("value"), Some(Value::Int(_) | Value::Float(_))),
                    "{name}: {metric_name} has no numeric value"
                );
            }
        }
    }
}

#[test]
fn an_unknown_workload_exits_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
