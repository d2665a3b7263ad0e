//! A warm sealed job allocates about one entry per observed word.
//!
//! Runs these rows of the budgets table (`tests/budget_table/mod.rs`) in
//! their own process; `tests/budgets.rs` runs the whole table.

mod budget_table;

#[test]
fn a_warm_sealed_job_allocates_about_one_entry_per_observed_word() {
    budget_table::check(Some(&[
        "a warm sealed job allocates one entry per observed word",
    ]));
}
