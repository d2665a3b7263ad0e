//! A warm parametric job binds through an overlay and never copies its plan.
//!
//! Runs these rows of the budgets table (`tests/budget_table/mod.rs`) in
//! their own process; `tests/budgets.rs` runs the whole table.

mod budget_table;

#[test]
fn warm_parametric_execution_never_clones_a_circuit() {
    budget_table::check(Some(&["a warm parametric job never copies its plan"]));
}
