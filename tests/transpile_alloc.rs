//! A cold job's decoding and transpiler passes allocate per pass, not per
//! gate, and its plan keeps no spare capacity.
//!
//! Runs these rows of the budgets table (`tests/budget_table/mod.rs`) in
//! their own process; `tests/budgets.rs` runs the whole table.

mod budget_table;

#[test]
fn a_cold_job_allocates_per_pass_not_per_gate() {
    budget_table::check(Some(&[
        "decoding a compile_cold descriptor costs a pinned count",
        "translation and the optimizer allocate per pass, not per gate",
        "a plan's gate vector has no spare capacity",
    ]));
}
