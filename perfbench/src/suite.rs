//! The whole set in one command. `--suite` runs every workload once with
//! tracing off and once traced and prints every metric by name. `--selfcheck`
//! applies the pipeline's acceptance rule to this benchmark itself: two sets
//! of ten runs of the same code, each run on another seed, must agree within
//! the bounds `BENCHMARK.json` fixes. `--workload` narrows either to one
//! workload. Every run is a fresh child process of this binary, one at a time.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use serde_json::Value;

use crate::inputs::{Workload, WORKLOADS};
use crate::stats::{median, spread};
use crate::Args;

/// Runs per set, as the pipeline makes them.
const RUNS: u64 = 10;

/// The workloads a suite or selfcheck covers: all, or the one named.
fn selected(args: &Args) -> impl Iterator<Item = &'static Workload> + '_ {
    WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name))
}

struct ChildRun {
    correct: bool,
    digest: String,
    /// Metric name → (value, unit), in printed order.
    metrics: Vec<(String, f64, String)>,
}

fn child(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if args.quick {
        command.arg("--quick");
    }
    let output = command.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let parse = |line: Option<&str>| -> Result<Value, String> {
        let line = line.ok_or(format!("{workload}: run printed no result"))?;
        serde_json::from_str(line).map_err(|e| format!("{workload}: {e}: {line}"))
    };
    let result = parse(lines.next())?;
    let facts = parse(lines.next())?;
    let field = |value: &Value, key: &str| value.get(key).cloned().unwrap_or(Value::Null);
    let Value::Object(listed) = field(&result, "metrics") else {
        return Err(format!("{workload}: result has no metrics"));
    };
    Ok(ChildRun {
        correct: output.status.success() && field(&result, "correct") == Value::Bool(true),
        digest: field(&facts, "result_digest")
            .as_str()
            .unwrap_or("")
            .to_string(),
        metrics: listed
            .iter()
            .map(|(name, m)| {
                let value = field(m, "value").as_f64().unwrap_or(0.0);
                let unit = field(m, "unit").as_str().unwrap_or("").to_string();
                (name.clone(), value, unit)
            })
            .collect(),
    })
}

pub fn suite(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    for workload in selected(args) {
        for trace in [false, true] {
            let run = child(args, workload.name, args.seed, trace)?;
            all_correct &= run.correct;
            println!(
                "# {} trace={} correct={} result_digest={}",
                workload.name, trace as u8, run.correct, run.digest
            );
            for (name, value, unit) in &run.metrics {
                println!("{:<16} {name:<40} {value:>16.4} {unit}", workload.name);
            }
        }
    }
    Ok(all_correct)
}

/// `(name, better, bound)` of every end-to-end metric in `BENCHMARK.json`,
/// read from the current directory at run time.
fn bounds() -> Result<Vec<(String, bool, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Value::Array(rows)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    rows.iter()
        .map(|row| {
            let text = |key: &str| row.get(key).and_then(Value::as_str).map(str::to_string);
            let name = text("name").ok_or("end_to_end row without a name")?;
            let higher = text("better").ok_or("end_to_end row without better")? == "higher";
            let bound = row
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("row without a bound")?;
            Ok((name, higher, bound))
        })
        .collect()
}

pub fn selfcheck(args: &Args) -> Result<bool, String> {
    let bounds = bounds()?;
    // values[set][workload][metric] over the runs of that set.
    let mut values = [BTreeMap::new(), BTreeMap::new()];
    let mut digests: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    let mut ok = true;
    for (set, (values, digests)) in values.iter_mut().zip(&mut digests).enumerate() {
        for workload in selected(args) {
            for run in 0..RUNS {
                let result = child(args, workload.name, args.seed + run, false)?;
                eprintln!(
                    "set {set} {} run {run}: correct={}",
                    workload.name, result.correct
                );
                ok &= result.correct;
                digests.push(result.digest);
                for (name, value, _) in result.metrics {
                    values
                        .entry((workload.name, name))
                        .or_insert_with(Vec::new)
                        .push(value);
                }
            }
        }
    }
    if digests[0] != digests[1] {
        println!("FAIL result digests differ between the two sets");
        ok = false;
    }
    println!(
        "{:<16} {:<16} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "median_1", "median_2", "worse", "spread_1", "spread_2", "bound"
    );
    for workload in selected(args) {
        for (name, higher, bound) in &bounds {
            let key = (workload.name, name.clone());
            let (first, second) = (&values[0][&key], &values[1][&key]);
            let (m1, m2) = (median(first), median(second));
            let worse = if *higher {
                (m1 - m2) / m1
            } else {
                (m2 - m1) / m1
            };
            let (s1, s2) = (spread(first), spread(second));
            // Set-up time is held to the median rule only.
            let steady = name == "setup_s" || (s1 <= *bound && s2 <= *bound);
            let verdict = if steady && worse <= *bound {
                ""
            } else {
                "FAIL"
            };
            ok &= verdict.is_empty();
            println!(
                "{:<16} {name:<16} {m1:>12.4} {m2:>12.4} {worse:>8.4} {s1:>8.4} {s2:>8.4} {bound:>6} {verdict}",
                workload.name
            );
        }
    }
    Ok(ok)
}
