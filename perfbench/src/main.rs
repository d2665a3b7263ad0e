//! The repository's benchmark: six workloads over the middle layer's serving
//! stack, end-to-end metrics with tracing off, per-layer metrics from traced
//! windows and an outside-in layer walk. See `README.md` beside this package
//! and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--trace-out <file>] [--quick]
//! perfbench --suite     [--seed <n>] [--seconds <s>] [--quick]
//! perfbench --selfcheck [--workload <name>] [--seed <n>] [--seconds <s>] [--quick]
//! ```
//!
//! A workload run prints one line of run facts and then, as its last line,
//! the result object. It writes nothing but standard output and
//! `--trace-out`.

mod alloc;
mod bench;
mod inputs;
mod metrics;
mod stats;
mod suite;
mod walk;
mod window;

use std::fmt::Write as _;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Seed used when none is given; `BENCHMARK.json`'s workloads were sized
/// with it. README.md names the held-out seed for confirming later claims.
pub const DEFAULT_SEED: u64 = 20_250_927;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<String>,
    pub quick: bool,
    pub suite: bool,
    pub selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        trace_out: None,
        quick: false,
        suite: false,
        selfcheck: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let number = |text: String| {
            text.parse::<f64>()
                .map_err(|e| format!("{flag} {text}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                let text = value()?;
                args.seed = text.parse().map_err(|e| format!("--seed {text}: {e}"))?;
            }
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => args.trace = number(value()?)? != 0.0,
            "--trace-out" => args.trace_out = Some(value()?),
            "--quick" => args.quick = true,
            "--suite" => args.suite = true,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

fn run_workload(args: &Args, workload: &inputs::Workload) -> Result<bool, String> {
    let name = workload.name;
    let jobs = if args.quick {
        workload.quick_jobs
    } else {
        workload.jobs
    };
    let run = if args.trace {
        bench::trace
    } else {
        bench::measure
    };
    let report = run(workload, args.seed, args.seconds, jobs).map_err(|e| e.to_string())?;
    for error in &report.errors {
        eprintln!("check failed: {error}");
    }
    if let (Some(path), Some(spans)) = (&args.trace_out, &report.spans_jsonl) {
        std::fs::write(path, spans).map_err(|e| format!("{path}: {e}"))?;
    }

    let mut facts = format!(
        "{{\"workload\":\"{name}\",\"seed\":{},\"quick\":{},\"trace\":{},\"nproc\":{},\
         \"workers\":{},\"jobs_per_window\":{jobs},\"windows\":{},\"result_digest\":\"{:#018x}\",\
         \"window_quartiles\":{{",
        args.seed,
        args.quick,
        args.trace,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        window::WORKERS,
        report.windows,
        report.digest,
    );
    let quartiles: Vec<String> = report
        .quartiles
        .iter()
        .map(|(name, (q1, q3))| format!("\"{name}\":[{},{}]", json_number(*q1), json_number(*q3)))
        .collect();
    write!(facts, "{}}}}}", quartiles.join(",")).expect("writing to a String cannot fail");
    println!("{facts}");

    let table = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let listed: Vec<String> = table
        .iter()
        .map(|def| {
            let value = report.metrics.get(def.name).copied().unwrap_or(0.0);
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                def.name,
                json_number(value),
                def.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        listed.join(",")
    );
    Ok(report.correct)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        let workload = match &args.workload {
            Some(name) => Some(inputs::find(name).ok_or(format!("unknown workload {name}"))?),
            None => None,
        };
        if args.selfcheck {
            suite::selfcheck(&args)
        } else if args.suite {
            suite::suite(&args)
        } else {
            run_workload(
                &args,
                workload.ok_or("give --workload, --suite or --selfcheck")?,
            )
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}
