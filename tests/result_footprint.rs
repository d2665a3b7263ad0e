//! A held result is a few allocations: its names and one `Counts`, not a
//! word map, a `String` per word or a second decoded copy.
//!
//! Runs these rows of the budgets table (`tests/budget_table/mod.rs`) in
//! their own process; `tests/budgets.rs` runs the whole table.

mod budget_table;

#[test]
fn a_held_result_owns_one_word_map() {
    budget_table::check(Some(&["a held result is a few allocations"]));
}
