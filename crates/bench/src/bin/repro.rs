//! `repro` — regenerate every paper experiment (E1–E7) and ablation (A1–A4)
//! in one run and print a paper-vs-measured summary. Every claim is
//! asserted: a miss panics, so the run exits non-zero.
//!
//! Run with: `cargo run --release -p qml-bench --bin repro`

fn main() {
    qml_bench::repro(&mut std::io::stdout().lock()).expect("write to stdout");
}
