//! The statevector apply path allocates nothing below `PARALLEL_THRESHOLD`,
//! and above it only what starting threads costs, once per run of gates.
//!
//! Runs these rows of the budgets table (`tests/budget_table/mod.rs`) in
//! their own process; `tests/budgets.rs` runs the whole table.

mod budget_table;

#[test]
fn apply_allocates_nothing() {
    budget_table::check(Some(&[
        "applying a plan allocates nothing below the threshold",
        "a warm simulator run allocates only what sampling does",
        "a scratch holds one amplitude buffer",
        "a parallel region costs a few allocations per thread",
        "above the threshold threads start once per run of gates",
        "the state_parallel plan runs in a few regions",
    ]));
}
