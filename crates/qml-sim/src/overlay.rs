//! Zero-copy parameter binding: a shared immutable plan circuit plus a small
//! per-job table of rewritten symbolic sites.
//!
//! A cached parametric plan used to be bound by cloning its whole gate vector
//! and rewriting the symbolic sites in the copy — a flat O(gates) copy per
//! job. [`BoundCircuit`] replaces the copy with an **overlay**: the plan's
//! circuit stays shared behind an [`Arc`], and binding records only the
//! `(site, bound gate)` pairs. Execution consults the overlay per gate
//! through [`crate::circuit::CircuitView`], so an N-point sweep executes one
//! shared circuit N times with O(#sites) per-job state.

use std::sync::Arc;

use crate::circuit::{Circuit, CircuitView};
use crate::gate::Gate;

/// A bound view over a shared circuit: `base` is the plan's immutable
/// (possibly symbolic) circuit, `overrides` the per-job bound gates at the
/// plan's symbolic sites, ascending by gate index.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundCircuit {
    base: Arc<Circuit>,
    overrides: Vec<(usize, Gate)>,
}

impl BoundCircuit {
    /// Bind the slot-ordered `values` into `base` at the given symbolic gate
    /// indices (ascending, as produced by
    /// [`Circuit::symbolic_gate_indices`]). O(#sites); the base circuit is
    /// shared, never copied.
    ///
    /// # Panics
    /// Panics if a site index is out of range of the base circuit's gates.
    pub fn bind_sites(base: Arc<Circuit>, sites: &[usize], values: &[f64]) -> Self {
        debug_assert!(
            sites.windows(2).all(|w| w[0] < w[1]),
            "substitution sites must be strictly ascending"
        );
        let overrides = sites
            .iter()
            .map(|&i| (i, base.gates()[i].bind(values)))
            .collect();
        BoundCircuit { base, overrides }
    }

    /// A view of an already-concrete circuit: no overrides, execution reads
    /// the shared base directly.
    pub fn concrete(base: Arc<Circuit>) -> Self {
        BoundCircuit {
            base,
            overrides: Vec::new(),
        }
    }

    /// The shared base circuit.
    pub fn base(&self) -> &Arc<Circuit> {
        &self.base
    }

    /// The per-job `(site, bound gate)` rewrites, ascending by site.
    pub fn overrides(&self) -> &[(usize, Gate)] {
        &self.overrides
    }

    /// Iterate the effective gates in application order: base gates with the
    /// overlay substituted at its sites — a merge walk, O(1) per gate.
    pub(crate) fn gates(&self) -> impl Iterator<Item = &Gate> + '_ {
        let overrides = &self.overrides;
        let mut next = 0usize;
        self.base.gates().iter().enumerate().map(move |(i, gate)| {
            if overrides.get(next).is_some_and(|(site, _)| *site == i) {
                let bound = &overrides[next].1;
                next += 1;
                bound
            } else {
                gate
            }
        })
    }

    /// Materialize the view into an owned [`Circuit`] — the differential
    /// test / compatibility path; the execute path never calls this.
    pub fn to_circuit(&self) -> Circuit {
        let mut out = self.base.as_ref().clone();
        out.rewrite_gates(&self.overrides);
        out
    }
}

impl CircuitView for BoundCircuit {
    fn width(&self) -> usize {
        self.base.num_qubits()
    }

    fn measurement_map(&self) -> &[usize] {
        self.base.measured()
    }

    fn gate_count(&self) -> usize {
        self.base.gates().len()
    }

    fn gate_at(&self, i: usize) -> &Gate {
        match self.overrides.binary_search_by_key(&i, |(site, _)| *site) {
            Ok(k) => &self.overrides[k].1,
            Err(_) => &self.base.gates()[i],
        }
    }

    fn for_each_gate(&self, f: &mut dyn FnMut(&Gate)) {
        for gate in self.gates() {
            f(gate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamExpr;

    fn symbolic_base() -> Arc<Circuit> {
        let mut qc = Circuit::new(2);
        qc.push(Gate::H(0));
        qc.push(Gate::Rzz(0, 1, ParamExpr::symbol(0).scale(2.0)));
        qc.push(Gate::Sx(1));
        qc.push(Gate::Rx(1, ParamExpr::symbol(1)));
        qc.measure_all();
        Arc::new(qc)
    }

    #[test]
    fn overlay_substitutes_only_the_sites() {
        let base = symbolic_base();
        let sites = base.symbolic_gate_indices();
        assert_eq!(sites, vec![1, 3]);
        let bound = BoundCircuit::bind_sites(Arc::clone(&base), &sites, &[0.25, 0.5]);

        assert_eq!(bound.gate_at(0), &Gate::H(0));
        assert_eq!(bound.gate_at(1), &Gate::Rzz(0, 1, 0.5.into()));
        assert_eq!(bound.gate_at(2), &Gate::Sx(1));
        assert_eq!(bound.gate_at(3), &Gate::Rx(1, 0.5.into()));
        assert_eq!(bound.overrides().len(), 2);
        assert!(Arc::ptr_eq(bound.base(), &base), "base stays shared");
    }

    #[test]
    fn merge_iterator_matches_random_access() {
        let base = symbolic_base();
        let sites = base.symbolic_gate_indices();
        let bound = BoundCircuit::bind_sites(base, &sites, &[1.5, -0.75]);
        let walked: Vec<&Gate> = bound.gates().collect();
        let indexed: Vec<&Gate> = (0..bound.gate_count()).map(|i| bound.gate_at(i)).collect();
        assert_eq!(walked, indexed);
    }

    #[test]
    fn to_circuit_matches_bind_sites_clone_path() {
        let base = symbolic_base();
        let sites = base.symbolic_gate_indices();
        let values = [0.9, 2.1];
        let overlay = BoundCircuit::bind_sites(Arc::clone(&base), &sites, &values);
        let cloned = base.bind_sites(&sites, &values);
        assert_eq!(overlay.to_circuit(), cloned);
    }

    #[test]
    fn concrete_view_reads_the_base_verbatim() {
        let mut qc = Circuit::new(1);
        qc.push(Gate::H(0));
        qc.measure_all();
        let base = Arc::new(qc);
        let view = BoundCircuit::concrete(Arc::clone(&base));
        assert!(view.overrides().is_empty());
        assert_eq!(view.gate_count(), 1);
        assert_eq!(view.measurement_map(), base.measured());
    }
}
