//! A sweep stores, validates and hashes its program once, and its members
//! share it.
//!
//! Runs these rows of the budgets table (`tests/budget_table/mod.rs`) in
//! their own process; `tests/budgets.rs` runs the whole table.

mod budget_table;

#[test]
fn a_sweep_hashes_its_program_once() {
    budget_table::check(Some(&[
        "a sweep's members share one program",
        "a sweep stores, validates and hashes its program once",
    ]));
}
