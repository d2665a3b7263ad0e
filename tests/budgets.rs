//! Every row of the budgets table (`tests/budget_table/mod.rs`), in one
//! test. Run alone with `cargo test --test budgets`.

mod budget_table;

#[test]
fn every_budget_holds() {
    budget_table::check(None);
}
