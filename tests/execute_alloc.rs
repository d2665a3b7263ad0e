//! A warm `execute_cached` job allocates a pinned count, however many words
//! it observes (the test's name is from when it allocated one per word).
//!
//! Runs these rows of the budgets table (`tests/budget_table/mod.rs`) in
//! their own process; `tests/budgets.rs` runs the whole table.

mod budget_table;

#[test]
fn a_warm_job_allocates_about_one_entry_per_observed_word() {
    budget_table::check(Some(&[
        "a warm execute_cached job allocates a pinned count, whatever its words",
    ]));
}
