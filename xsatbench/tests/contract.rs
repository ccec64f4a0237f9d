//! The result line of every run reports exactly the metrics that
//! `BENCHMARK.json` declares: the end-to-end ones untraced, the per-layer
//! ones traced.

use engine::Value;
use xsatbench::report::{END_TO_END, PER_LAYER};

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let v = engine::json::parse(&text).expect("BENCHMARK.json parses");
    v.get(section)
        .and_then(Value::as_arr)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_owned();
            (s("name"), s("unit"))
        })
        .collect()
}

/// Runs the benchmark's command on a short run and returns the metrics of
/// its result line, after checking the line's other fields.
fn run(workload: &str, trace: bool) -> Vec<(String, String)> {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_xsatbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload}: {stdout}");
    let last = stdout.lines().last().expect("a result line");
    let v = engine::json::parse(last).expect("result line is JSON");
    assert_eq!(
        v.get("correct").and_then(Value::as_bool),
        Some(true),
        "{workload}: {stdout}"
    );
    assert_eq!(
        v.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{workload}"
    );
    let Some(Value::Obj(metrics)) = v.get("metrics") else {
        panic!("no metrics object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .expect("numeric value");
            assert!(value.is_finite(), "{workload}: {name}");
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_owned();
            (name.clone(), unit)
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_report() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    let names = |v: &[(String, String)]| v.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&e2e), END_TO_END);
    assert_eq!(names(&layers), PER_LAYER);
    for workload in ["service-mix", "edit-lint"] {
        assert_eq!(run(workload, false), e2e, "{workload} untraced");
        assert_eq!(run(workload, true), layers, "{workload} traced");
    }
}
