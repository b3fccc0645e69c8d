//! Runs every workload at `--smoke` scale, traced and untraced, and holds
//! the names it prints to the names `BENCHMARK.json` declares: none
//! printed that is not declared, none declared that is not printed.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use gs3_core::json::{parse, JsonValue};

fn names(spec: &JsonValue, key: &str) -> BTreeSet<String> {
    spec.get(key)
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn smoke_run_prints_exactly_the_declared_metrics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repository root");
    let spec_text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = parse(&spec_text).expect("BENCHMARK.json parses");
    let workloads = names(&spec, "workloads");
    assert_eq!(workloads.len(), 4);

    for workload in &workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_gs3-benchmark"))
                .current_dir(root)
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "3",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                ])
                .arg("--smoke")
                .output()
                .expect("run the benchmark");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{workload} trace {trace} failed:\n{stdout}\n{stderr}"
            );
            let last = stdout.lines().last().expect("a result line");
            let result = parse(last).expect("the last line is JSON");
            let keys: Vec<&str> = result
                .as_obj()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get("correct").and_then(JsonValue::as_bool),
                Some(true)
            );
            assert!(
                result
                    .get("attempted")
                    .and_then(JsonValue::as_u64)
                    .expect("attempted")
                    >= 1
            );
            assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));

            let metrics = result
                .get("metrics")
                .and_then(JsonValue::as_obj)
                .expect("metrics");
            let printed: BTreeSet<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(printed, names(&spec, key), "{workload} trace {trace}");
            for (name, m) in metrics {
                let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
                assert!(
                    !name.is_empty() && name.chars().all(ok),
                    "bad metric name {name}"
                );
                let value = m.get("value").and_then(JsonValue::as_f64).expect("value");
                assert!(value.is_finite(), "{name} is not finite");
                if key == "end_to_end" {
                    assert!(
                        value != 0.0,
                        "end-to-end metric {name} is zero on {workload}"
                    );
                }
                let declared = spec
                    .get(key)
                    .and_then(JsonValue::as_arr)
                    .expect("list")
                    .iter()
                    .find(|d| d.get("name").and_then(JsonValue::as_str) == Some(name.as_str()));
                assert_eq!(
                    m.get("unit").and_then(JsonValue::as_str),
                    declared
                        .and_then(|d| d.get("unit"))
                        .and_then(JsonValue::as_str),
                    "unit of {name}"
                );
            }
        }
    }
}
