//! Architecture rules as ordinary tests. Each row of [`RULES`] names a set of
//! source files, literal patterns, and how many lines of each file's non-test
//! text hold one of them. A row over no files fails, and each row carries a
//! mutant line that must trip it, so neither a rename nor a pattern that no
//! longer matches anything can make a rule pass vacuously. ARCHITECTURE.md
//! cites the rows by name. Run alone with `cargo test --test architecture`.

use std::fs;
use std::path::{Path, PathBuf};

/// In every file of `files`, exactly `lines` lines of non-test text hold one
/// of `patterns`. An entry of `files` is a file, a directory walked for
/// `*.rs`, or a path with one `*` component.
struct Rule {
    name: &'static str,
    files: &'static [&'static str],
    patterns: &'static [&'static str],
    lines: usize,
    reason: &'static str,
    /// A line that breaks the rule when appended to any of its files.
    mutant: &'static str,
}

const SERVICE: &str = "crates/qml-service/src";
const SCHEDULER: &str = "crates/qml-service/src/scheduler";
const FLEET: &str = "crates/qml-service/src/fleet.rs";
const CORE: &str = "crates/qml-service/src/core.rs";
const COST_MODEL: &str = "crates/qml-service/src/cost_model.rs";
const PRICING: &str = "crates/qml-service/src/scheduler/pricing.rs";
/// Every scheduler file but `pricing.rs`, and the service core.
const UNPRICED: &[&str] = &[
    "crates/qml-service/src/scheduler/mod.rs",
    "crates/qml-service/src/scheduler/batch.rs",
    "crates/qml-service/src/scheduler/drr.rs",
    "crates/qml-service/src/scheduler/order.rs",
    "crates/qml-service/src/scheduler/policy.rs",
    CORE,
];
const EXECUTOR: &str = "crates/qml-runtime/src/executor.rs";

const RULES: &[Rule] = &[
    Rule {
        name: "scheduler policy code reads no clock",
        files: &[SCHEDULER, FLEET, COST_MODEL, CORE],
        patterns: &["Instant::now"],
        lines: 0,
        reason: "every event takes `now`: a run is a function of its events",
        mutant: "let now = std::time::Instant::now();",
    },
    Rule {
        name: "the service keeps one job table",
        files: &[SERVICE],
        patterns: &[
            "runtime.status(",
            "runtime.result(",
            "requeue(",
            "submit_sealed",
            "job_skipped",
        ],
        lines: 0,
        reason: "the runtime's job table serves `Runtime::submit` and `run_job` alone",
        mutant: "let status = self.runtime.status(id);",
    },
    Rule {
        name: "workers, scheduler and fleet never place a job",
        files: &["crates/qml-runtime/src/pool.rs", SCHEDULER, FLEET],
        patterns: &[".place("],
        lines: 0,
        reason: "a dispatch carries the placement made once, before it",
        mutant: "let placement = registry.place(&bundle)?;",
    },
    Rule {
        name: "admission and run_job place a job once",
        files: &[EXECUTOR, "crates/qml-service/src/service.rs"],
        patterns: &[".place("],
        lines: 1,
        reason: "the service places at admission, `Runtime::run_job` its own job",
        mutant: "let again = registry.place(&bundle)?;",
    },
    Rule {
        name: "jobs wait in one queue",
        files: &[FLEET],
        patterns: &["VecDeque", "park(", "pop_parked", "evacuate"],
        lines: 0,
        reason: "a job waits in its tenant's queue until a device slot frees",
        mutant: "parked: std::collections::VecDeque<JobId>,",
    },
    Rule {
        name: "nothing sleeps on the job path",
        files: &["crates/qml-runtime/src", SERVICE],
        patterns: &["thread::sleep"],
        lines: 0,
        reason: "waiters block on a condition variable the state change notifies",
        mutant: "std::thread::sleep(std::time::Duration::from_micros(500));",
    },
    Rule {
        name: "the service core owns no lock, thread or runtime",
        files: &[CORE],
        patterns: &["Mutex", "Condvar", "thread::", "Runtime"],
        lines: 0,
        reason: "the core is sans-I/O: `service.rs` locks, waits and executes",
        mutant: "ready: std::sync::Condvar,",
    },
    Rule {
        name: "a job is priced in one place",
        files: &[PRICING],
        patterns: &["predict_seconds("],
        lines: 1,
        reason: "`price` reads the model: a measured EWMA, else the job's prior",
        mutant: "let seconds = self.cost_model.predict_seconds(key);",
    },
    Rule {
        name: "a job is priced in one place (nowhere else)",
        files: UNPRICED,
        patterns: &["predict_seconds("],
        lines: 0,
        reason: "admission, the quantum and every debit call `pricing::price`",
        mutant: "let seconds = self.cost_model.predict_seconds(key);",
    },
    Rule {
        name: "a job is priced in one place (no cached quantum, no seeded prior)",
        files: &[SERVICE],
        patterns: &["cached_quantum", ".seed("],
        lines: 0,
        reason: "the quantum is folded per call; the model holds measurements only",
        mutant: "cached_quantum: Option<f64>,",
    },
    Rule {
        name: "a backend runs one job",
        files: &["crates"],
        patterns: &[
            "execute_grouped",
            "BatchTimings",
            "fn execute_batch",
            "execute_claimed_batch",
        ],
        lines: 0,
        reason: "`Backend::execute_sealed` takes one bundle; a worker calls it per member",
        mutant: "fn execute_batch(&self, bundles: &[SealedBundle]) -> BatchTimings;",
    },
    Rule {
        name: "the simulator keeps no test counters",
        files: &["crates/qml-sim/src"],
        patterns: &["Atomic", "amp_allocations"],
        lines: 0,
        reason: "`tests/budget_table` counts clones and buffers with its allocator",
        mutant: "static CIRCUIT_CLONES: AtomicU64 = AtomicU64::new(0);",
    },
    Rule {
        name: "every crate forbids unsafe code",
        files: &["crates/*/src/lib.rs", "vendor/*/src/lib.rs"],
        patterns: &["#![forbid(unsafe_code)]"],
        lines: 1,
        reason: "the middle layer and its vendored stand-ins are safe Rust",
        mutant: "#![forbid(unsafe_code)]",
    },
];

/// A file's non-test text: everything before its first column-0
/// `#[cfg(test)]`. The cut is sound only if each column-0 item after that
/// line carries its own `#[cfg(test)]`; an item without one is an error.
fn non_test(src: &str) -> Result<&str, String> {
    let (mut cut, mut gated, mut at) = (None, false, 0);
    for (number, line) in src.split_inclusive('\n').enumerate() {
        if line.starts_with("#[cfg(test)]") {
            cut.get_or_insert(at);
            gated = true;
        } else if cut.is_some() && line.starts_with(char::is_alphabetic) {
            if !gated && !line.starts_with("where") {
                return Err(format!("line {} follows the test cut ungated", number + 1));
            }
            gated = false;
        }
        at += line.len();
    }
    Ok(&src[..cut.unwrap_or(src.len())])
}

/// The 1-based numbers of the lines of `text` that hold one of `patterns`.
fn hits(text: &str, patterns: &[&str]) -> Vec<usize> {
    let lines = text.lines().enumerate();
    let matching = lines.filter(|(_, line)| patterns.iter().any(|p| line.contains(p)));
    matching.map(|(index, _)| index + 1).collect()
}

/// Every `*.rs` file at or under `path`.
fn walk(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() && path.extension().is_some_and(|e| e == "rs") {
        out.push(path.to_owned());
    }
    for entry in fs::read_dir(path).into_iter().flatten().flatten() {
        walk(&entry.path(), out);
    }
}

/// A rule's files, each with its non-test text. An entry that names no
/// source file, or a file whose test cut is unsound, is an error.
fn sources(rule: &Rule) -> Result<Vec<(String, String)>, String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths = Vec::new();
    for entry in rule.files {
        let before = paths.len();
        match entry.split_once("/*/") {
            Some((dir, rest)) => {
                let dirs = fs::read_dir(root.join(dir)).into_iter().flatten().flatten();
                paths.extend(dirs.map(|d| d.path().join(rest)).filter(|p| p.is_file()));
            }
            None => walk(&root.join(entry), &mut paths),
        }
        if paths.len() == before {
            return Err(format!("`{entry}` names no source file"));
        }
    }
    paths.sort();
    let read = |path: &PathBuf| {
        let name = format!("{}", path.strip_prefix(root).unwrap_or(path).display());
        let src = fs::read_to_string(path).map_err(|e| format!("{name}: {e}"))?;
        let text = non_test(&src).map_err(|e| format!("{name}: {e}"))?;
        Ok((name, text.to_owned()))
    };
    paths.iter().map(read).collect()
}

#[test]
fn every_rule_holds_and_trips_on_its_mutant() {
    let mut broken = Vec::new();
    for rule in RULES {
        let (name, want, why) = (rule.name, rule.lines, rule.reason);
        match sources(rule) {
            Err(e) => broken.push(format!("{name}: {e}")),
            Ok(files) => {
                for (path, text) in files {
                    let lines = hits(&text, rule.patterns);
                    if lines.len() != want {
                        broken.push(format!("{name}: {path} lines {lines:?} ({why})"));
                    }
                    if hits(&format!("{text}\n{}", rule.mutant), rule.patterns).len() == want {
                        broken.push(format!("{name}: its mutant passes in {path}"));
                    }
                }
            }
        }
    }
    assert!(broken.is_empty(), "\n{}", broken.join("\n"));
}

#[test]
fn a_rule_over_nothing_or_past_an_unsound_cut_fails() {
    for files in [&["crates/no-such"][..], &["docs"], &["crates/*/no.rs"]] {
        assert!(sources(&Rule { files, ..RULES[0] }).is_err(), "{files:?}");
    }
    let gated = "fn a() {}\n#[cfg(test)]\n#[derive(Debug)]\nstruct T;\n";
    assert_eq!(non_test(gated), Ok("fn a() {}\n"));
    assert!(non_test("fn a() {}\n#[cfg(test)]\nmod t {}\nfn b() {}\n").is_err());
}
