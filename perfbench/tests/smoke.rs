//! Runs every workload in miniature, untraced and traced, and checks that
//! each result line is correct and carries every metric `BENCHMARK.json`
//! declares, with its declared unit.

use serde::Value;
use std::process::{Command, Output};

fn bench_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("perfbench runs")
}

fn check_workload(name: &str) {
    let bench = bench_json();
    for (trace, kind) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = perfbench(&[
            "--workload",
            name,
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--mini",
        ]);
        assert!(out.status.success(), "{name} --trace {trace} exited {}", out.status);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().expect("a result line");
        let result = serde_json::from_str(last).expect("the last line is JSON");
        assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true), "{name}: {last}");
        assert!(result.get("attempted").and_then(Value::as_u64).expect("attempted") >= 1);
        assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
        let metrics = result.get("metrics").expect("metrics");
        let declared = bench.get(kind).and_then(Value::as_array).expect("declared metrics");
        for m in declared {
            let metric: String = m.field("name").expect("name");
            let unit: String = m.field("unit").expect("unit");
            let got = metrics
                .get(&metric)
                .unwrap_or_else(|| panic!("{name} --trace {trace} lacks `{metric}`"));
            let value = got.get("value").and_then(Value::as_f64).expect("numeric value");
            assert!(value.is_finite(), "{name}: `{metric}` = {value}");
            assert_eq!(got.get("unit").and_then(Value::as_str), Some(unit.as_str()), "{metric}");
        }
    }
}

#[test]
fn dense_sweep_emits_every_metric() {
    check_workload("dense-sweep");
}

#[test]
fn drifting_hotspot_emits_every_metric() {
    check_workload("drifting-hotspot");
}

#[test]
fn churn_checkpoint_emits_every_metric() {
    check_workload("churn-checkpoint");
}

#[test]
fn event_skip_emits_every_metric() {
    check_workload("event-skip");
}

#[test]
fn declared_workloads_are_the_runnable_ones() {
    let bench = bench_json();
    let names: Vec<String> = bench
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.field("name").expect("name"))
        .collect();
    assert_eq!(names, ["dense-sweep", "drifting-hotspot", "churn-checkpoint", "event-skip"]);
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let out = perfbench(&["--workload", "no-such-workload", "--seconds", "0"]);
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
