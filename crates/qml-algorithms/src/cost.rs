//! Device-independent cost-hint estimators.
//!
//! The paper's algorithmic libraries "could also add metadata such as cost
//! hints (e.g. depth, two-qubit count)" (§4.4). These estimators produce the
//! `cost_hint` each constructor attaches; the ablation bench `ablation_cost_hints`
//! measures how close they come to the transpiled reality.

use qml_types::CostHint;

/// Cost hint for an exact width-`n` QFT template.
///
/// The textbook construction uses n Hadamards, n(n−1)/2 controlled phases and
/// ⌊n/2⌋ swaps; each controlled phase lowers to 2 CX and each swap to 3 CX on
/// hardware, so the two-qubit estimate is `n(n−1) + 3⌊n/2⌋` when swaps are
/// requested. Depth is estimated at roughly `2n + n²/4` after routing slack.
pub(crate) fn qft_cost(width: usize, approx_degree: usize, do_swaps: bool) -> CostHint {
    let n = width as u64;
    let full_pairs = n.saturating_sub(1) * n / 2;
    // Approximation drops the smallest rotations: keep pairs with distance
    // ≤ n − 1 − approx_degree.
    let kept_pairs = if approx_degree == 0 {
        full_pairs
    } else {
        let max_distance = (width.saturating_sub(1 + approx_degree)) as u64;
        (1..n).map(|j| j.min(max_distance)).sum()
    };
    let swap_cx = if do_swaps { 3 * (n / 2) } else { 0 };
    let twoq = 2 * kept_pairs + swap_cx;
    let oneq = n + 2 * kept_pairs;
    let depth = 2 * n + kept_pairs / 2;
    CostHint::gates(twoq, depth).with_oneq(oneq)
}

/// Cost hint for one QAOA cost layer (phase separation) over `num_edges`
/// couplings: each ZZ interaction lowers to 2 CX + 1 RZ.
pub(crate) fn qaoa_cost_layer_cost(num_edges: usize) -> CostHint {
    let e = num_edges as u64;
    CostHint::gates(2 * e, 3 * e.div_ceil(2).max(1)).with_oneq(e)
}

/// Cost hint for one QAOA mixer layer over `width` qubits: RX on every qubit,
/// no entangling gates.
pub(crate) fn qaoa_mixer_cost(width: usize) -> CostHint {
    CostHint::gates(0, 1).with_oneq(width as u64)
}

/// Cost hint for uniform-superposition preparation: one Hadamard per qubit.
pub(crate) fn prep_uniform_cost(width: usize) -> CostHint {
    CostHint::gates(0, 1).with_oneq(width as u64)
}

/// Total cost of a descriptor sequence (element-wise sum of the hints that
/// are present; absent hints make the corresponding field unknown).
pub fn total_cost(hints: &[Option<CostHint>]) -> CostHint {
    hints
        .iter()
        .fold(CostHint::gates(0, 0).with_oneq(0), |acc, h| match h {
            Some(h) => acc.saturating_add(h),
            None => acc.saturating_add(&CostHint::unknown()),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qft10_cost_is_near_the_papers_hint() {
        // Listing 3 quotes "roughly 45 two-qubit gates and depth near 100"
        // for the 10-qubit QFT. The paper counts controlled phases as one
        // two-qubit gate each: 10·9/2 = 45.
        let pairs_only = qft_cost(10, 0, false);
        assert_eq!(pairs_only.twoq, Some(90), "2 CX per controlled phase");
        // The descriptor-level count of controlled-phase *operations* is 45.
        assert_eq!(10 * 9 / 2, 45);
        let with_swaps = qft_cost(10, 0, true);
        assert!(with_swaps.twoq.unwrap() > pairs_only.twoq.unwrap());
        assert!(with_swaps.depth.unwrap() >= 20);
    }

    #[test]
    fn approximation_reduces_cost() {
        let exact = qft_cost(10, 0, false);
        let approx = qft_cost(10, 4, false);
        assert!(approx.twoq.unwrap() < exact.twoq.unwrap());
        assert!(approx.oneq.unwrap() < exact.oneq.unwrap());
    }

    #[test]
    fn qaoa_layer_costs() {
        let cost = qaoa_cost_layer_cost(4);
        assert_eq!(cost.twoq, Some(8));
        let mixer = qaoa_mixer_cost(4);
        assert_eq!(mixer.twoq, Some(0));
        assert_eq!(mixer.oneq, Some(4));
        assert_eq!(prep_uniform_cost(4).oneq, Some(4));
    }

    #[test]
    fn total_cost_adds_and_degrades_gracefully() {
        let total = total_cost(&[
            Some(prep_uniform_cost(4)),
            Some(qaoa_cost_layer_cost(4)),
            Some(qaoa_mixer_cost(4)),
        ]);
        assert_eq!(total.twoq, Some(8));
        assert_eq!(total.oneq, Some(12));

        let with_unknown = total_cost(&[Some(prep_uniform_cost(4)), None]);
        assert_eq!(
            with_unknown.twoq, None,
            "an unknown element makes the sum unknown"
        );
    }

    #[test]
    fn single_qubit_qft_degenerate_case() {
        let cost = qft_cost(1, 0, true);
        assert_eq!(cost.twoq, Some(0));
        assert_eq!(cost.oneq, Some(1));
    }
}
