//! Tiny-scale smoke of every workload in both modes: the result line
//! carries exactly the metrics `BENCHMARK.json` names, with their units,
//! and every output check passes. Plus: the seed drives the inputs.

use flowzip_perfbench::json::{self, Value};
use flowzip_perfbench::run::Args;
use flowzip_perfbench::workload::{generate, Workload};
use std::path::PathBuf;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn declared(spec: &Value, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .expect(key)
        .as_array()
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Value::as_str).unwrap().to_string(),
                m.get("unit").and_then(Value::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

fn run_tiny(workload: &str, trace: bool) -> Value {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_flowzip-perfbench"))
        .current_dir(&dir)
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", "0.01"])
        .output()
        .expect("run the benchmark binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stderr}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().expect("a result line");
    let v = json::parse(last).unwrap_or_else(|e| panic!("{workload}: {e}: {last}"));
    if trace {
        let spans = dir.join(format!(".perfbench/spans/{workload}-seed7.json"));
        let doc = json::parse(&std::fs::read_to_string(&spans).expect("span file")).unwrap();
        assert!(
            !doc.get("spans").unwrap().as_array().is_empty(),
            "{workload}: no spans"
        );
    }
    let leftovers = dir
        .join(".perfbench")
        .read_dir()
        .map(|d| d.flatten().filter(|e| e.file_name() != "spans").count())
        .unwrap_or(0);
    assert_eq!(leftovers, 0, "{workload}: scratch inputs left behind");
    v
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit_and_all_checks_pass() {
    let spec = benchmark_json();
    let workloads: Vec<String> = spec
        .get("workloads")
        .unwrap()
        .as_array()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect();
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
        let want = declared(&spec, key);
        for w in &workloads {
            let out = run_tiny(w, trace);
            assert_eq!(out.get("correct"), Some(&Value::Bool(true)), "{w}: {out:?}");
            assert_eq!(out.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(out.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            let Some(Value::Obj(metrics)) = out.get("metrics") else {
                panic!("{w}: no metrics object")
            };
            let names: Vec<&String> = metrics.keys().collect();
            assert_eq!(names.len(), want.len(), "{w} {key}: {names:?}");
            for (name, unit) in &want {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{w}: {name} missing"));
                assert_eq!(
                    m.get("unit").and_then(Value::as_str),
                    Some(unit.as_str()),
                    "{w}: {name}"
                );
                let value = m
                    .get("value")
                    .and_then(Value::as_f64)
                    .expect("numeric value");
                assert!(value.is_finite(), "{w}: {name} = {value}");
                if !trace {
                    assert!(value > 0.0, "{w}: end-to-end {name} must never be 0");
                }
            }
        }
    }
}

#[test]
fn a_different_seed_changes_the_inputs() {
    for w in Workload::ALL {
        let spec = w.spec(0.01);
        let a = generate(&spec, 1);
        assert_eq!(
            a.packets(),
            generate(&spec, 1).packets(),
            "{}: same seed",
            w.name()
        );
        assert_ne!(
            a.packets(),
            generate(&spec, 2).packets(),
            "{}: other seed",
            w.name()
        );
    }
}

#[test]
fn the_command_line_is_checked() {
    let ok = |v: &[&str]| Args::parse(v.iter().map(|s| s.to_string()));
    assert!(ok(&[
        "--workload",
        "web-archive",
        "--seed",
        "1",
        "--seconds",
        "2",
        "--trace",
        "0"
    ])
    .is_ok());
    assert!(ok(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "2",
        "--trace",
        "0"
    ])
    .is_err());
    assert!(ok(&[
        "--workload",
        "web-archive",
        "--seed",
        "1",
        "--seconds",
        "2",
        "--trace",
        "2"
    ])
    .is_err());
    assert!(ok(&[
        "--workload",
        "web-archive",
        "--seconds",
        "2",
        "--trace",
        "0"
    ])
    .is_err());
    assert!(ok(&[
        "--workload",
        "web-archive",
        "--seed",
        "1",
        "--seconds",
        "2",
        "--trace",
        "0",
        "--x",
        "1"
    ])
    .is_err());
}
