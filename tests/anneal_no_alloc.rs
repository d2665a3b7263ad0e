//! The annealer allocates nothing per read beyond the spins it returns, and
//! evaluating a model's energy allocates nothing.
//!
//! Runs these rows of the budgets table (`tests/budget_table/mod.rs`) in
//! their own process; `tests/budgets.rs` runs the whole table.

mod budget_table;

#[test]
fn annealing_allocates_only_the_returned_spins_per_read() {
    budget_table::check(Some(&[
        "a model's energy is evaluated in place",
        "the annealer allocates only the spins it returns per read",
    ]));
}
