//! Holds `BENCHMARK.json` and the benchmark binary together: every name in
//! one is in the other, results repeat for a seed, spans nest, and the quick
//! runs pass their own output checks. `--quick` sizes throughout; nothing
//! here asserts a time.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::Command;

use serde_json::Value;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json exists"))
        .expect("BENCHMARK.json parses")
}

fn names(doc: &Value, list: &str) -> BTreeSet<String> {
    let Some(Value::Array(rows)) = doc.get(list) else {
        panic!("BENCHMARK.json has no {list}");
    };
    rows.iter()
        .map(|row| {
            row.get("name")
                .and_then(Value::as_str)
                .expect("named row")
                .to_string()
        })
        .collect()
}

struct Run {
    facts: Value,
    result: Value,
}

impl Run {
    fn digest(&self) -> String {
        self.facts
            .get("result_digest")
            .and_then(Value::as_str)
            .expect("digest")
            .to_string()
    }

    fn metrics(&self) -> BTreeMap<String, f64> {
        let Some(Value::Object(listed)) = self.result.get("metrics") else {
            panic!("result without metrics");
        };
        listed
            .iter()
            .map(|(name, m)| {
                assert!(
                    m.get("unit").and_then(Value::as_str).is_some(),
                    "{name} has a unit"
                );
                (
                    name.clone(),
                    m.get("value")
                        .and_then(Value::as_f64)
                        .expect("numeric value"),
                )
            })
            .collect()
    }
}

fn run(workload: &str, seed: u64, trace: bool, trace_out: Option<&Path>) -> Run {
    let mut command = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    command
        .args(["--workload", workload, "--seconds", "0.2", "--quick"])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(path) = trace_out {
        command.arg("--trace-out").arg(path);
    }
    let output = command.output().expect("benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} failed: {stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let mut lines = stdout.lines().rev();
    let result: Value = serde_json::from_str(lines.next().expect("result line")).expect("result");
    let facts: Value = serde_json::from_str(lines.next().expect("facts line")).expect("facts");
    assert_eq!(
        facts.get("quick"),
        Some(&Value::Bool(true)),
        "quick runs are stamped"
    );
    let keys: Vec<&str> = match &result {
        Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("result is not an object"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}: output checks"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_u64),
        Some(0),
        "{workload}: failures"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_u64)
            .expect("attempted")
            >= 1
    );
    Run { facts, result }
}

/// Children lie inside their parents, so every self time is non-negative;
/// each walked job has exactly one root, named `job`.
fn check_spans(jsonl: &str) {
    let spans: Vec<Value> = jsonl
        .lines()
        .map(|line| serde_json::from_str(line).expect("span line parses"))
        .collect();
    assert!(!spans.is_empty(), "the walk recorded spans");
    let field = |span: &Value, key: &str| span.get(key).and_then(Value::as_u64);
    let mut roots: BTreeMap<u64, usize> = BTreeMap::new();
    let mut child_time: BTreeMap<u64, u64> = BTreeMap::new();
    for (index, span) in spans.iter().enumerate() {
        assert_eq!(field(span, "id"), Some(index as u64));
        let (start, end) = (
            field(span, "start_ns").unwrap(),
            field(span, "end_ns").unwrap(),
        );
        assert!(start <= end, "span {index} ends before it starts");
        match field(span, "parent") {
            Some(parent) => {
                let outer = &spans[parent as usize];
                assert!(parent < index as u64, "parents open first");
                assert!(field(outer, "start_ns").unwrap() <= start);
                assert!(
                    end <= field(outer, "end_ns").unwrap(),
                    "span {index} outlives its parent"
                );
                assert_eq!(field(span, "job"), field(outer, "job"), "one job per tree");
                *child_time.entry(parent).or_default() += end - start;
            }
            None => {
                if let Some(job) = field(span, "job") {
                    assert_eq!(span.get("name").and_then(Value::as_str), Some("job"));
                    *roots.entry(job).or_default() += 1;
                }
            }
        }
    }
    assert!(!roots.is_empty(), "at least one job was walked");
    assert!(roots.values().all(|&n| n == 1), "one root per job");
    for (parent, covered) in child_time {
        let span = &spans[parent as usize];
        let own = field(span, "end_ns").unwrap() - field(span, "start_ns").unwrap();
        assert!(covered <= own, "span {parent} has negative self time");
    }
}

fn check_workload(workload: &str) {
    let doc = benchmark_json();
    let spans_path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}.spans.jsonl"));

    let plain = run(workload, 1, false, None);
    let traced = run(workload, 1, true, Some(&spans_path));
    let other_seed = run(workload, 2, false, None);

    let emitted: BTreeSet<String> = plain.metrics().into_keys().collect();
    assert_eq!(
        emitted,
        names(&doc, "end_to_end"),
        "--trace 0 prints the end-to-end metrics"
    );
    assert!(
        plain.metrics().values().all(|&v| v > 0.0),
        "end-to-end metrics are never 0"
    );
    let layers = traced.metrics();
    let emitted: BTreeSet<String> = layers.keys().cloned().collect();
    assert_eq!(
        emitted,
        names(&doc, "per_layer"),
        "--trace 1 prints the per-layer metrics"
    );

    assert_eq!(plain.digest(), traced.digest(), "one seed, one digest");
    assert_ne!(
        plain.digest(),
        other_seed.digest(),
        "another seed, another digest"
    );

    check_spans(&std::fs::read_to_string(&spans_path).expect("span file written"));
    // The walk covered the warm path it claims to explain.
    assert!(layers["backend.execute_warm_us"] > 0.0);
    assert!(layers["backend.unattributed_share"] < 0.5);
    assert_eq!(layers["observe.trace_dropped"], 0.0);
}

#[test]
fn sweep_warm() {
    check_workload("sweep_warm");
}

#[test]
fn compile_cold() {
    check_workload("compile_cold");
}

#[test]
fn state_serial() {
    check_workload("state_serial");
}

#[test]
fn state_parallel() {
    check_workload("state_parallel");
}

#[test]
fn anneal_sweep() {
    check_workload("anneal_sweep");
}

#[test]
fn mixed_latency() {
    check_workload("mixed_latency");
}

#[test]
fn benchmark_json_names_are_well_formed_and_match_the_workloads() {
    let doc = benchmark_json();
    let expected = [
        "anneal_sweep",
        "compile_cold",
        "mixed_latency",
        "state_parallel",
        "state_serial",
        "sweep_warm",
    ];
    assert_eq!(
        names(&doc, "workloads").into_iter().collect::<Vec<_>>(),
        expected
    );
    for list in ["workloads", "end_to_end", "per_layer"] {
        for name in names(&doc, list) {
            let first = name.chars().next().expect("non-empty name");
            assert!(first.is_ascii_alphanumeric() && name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name} uses a character outside [A-Za-z0-9_.-]"
            );
        }
    }
    assert!(names(&doc, "end_to_end").contains("setup_s"));
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
