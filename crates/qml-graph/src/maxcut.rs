//! The Max-Cut problem and classical baselines.
//!
//! For an undirected weighted graph G = (V, E, w), Max-Cut asks for the
//! partition V = S ∪ S̄ maximizing the total weight of edges crossing the cut
//! (paper §5). Assignments are represented as `&[bool]`, where `true` means
//! "vertex is in S" — the same {0, 1} labels the middle layer's `AS_BOOL`
//! readout produces.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::graph::Graph;

/// Weight of the cut induced by `assignment` (vertex i in S iff
/// `assignment[i]`).
pub(crate) fn cut_value(graph: &Graph, assignment: &[bool]) -> f64 {
    assert_eq!(
        assignment.len(),
        graph.num_nodes(),
        "assignment length must equal the number of vertices"
    );
    graph
        .edges()
        .iter()
        .map(|&(u, v, w)| {
            if assignment[u] != assignment[v] {
                w
            } else {
                0.0
            }
        })
        .sum()
}

/// Cut value of a bitstring written with character i = vertex i ('1' ⇒ in S).
pub fn cut_value_of_bitstring(graph: &Graph, bits: &str) -> f64 {
    let assignment: Vec<bool> = bits.chars().map(|c| c == '1').collect();
    cut_value(graph, &assignment)
}

/// Result of a Max-Cut solver: the best assignment found and its value.
#[derive(Debug, Clone, PartialEq)]
pub struct CutSolution {
    /// Best assignment found (vertex i in S iff `assignment[i]`).
    pub assignment: Vec<bool>,
    /// Cut weight of that assignment.
    pub value: f64,
}

impl CutSolution {
    /// The assignment as a bitstring (character i = vertex i).
    pub fn bitstring(&self) -> String {
        self.assignment
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect()
    }
}

/// Exact Max-Cut by exhaustive enumeration. Intended for the small instances
/// of the paper's PoC and for validating heuristics; O(2^n · |E|).
pub fn brute_force(graph: &Graph) -> CutSolution {
    let n = graph.num_nodes();
    assert!(n <= 24, "brute force is limited to 24 vertices");
    let mut best = CutSolution {
        assignment: vec![false; n],
        value: 0.0,
    };
    for mask in 0u64..(1u64 << n) {
        let assignment: Vec<bool> = (0..n).map(|i| (mask >> i) & 1 == 1).collect();
        let value = cut_value(graph, &assignment);
        if value > best.value {
            best = CutSolution { assignment, value };
        }
    }
    best
}

/// All optimal assignments (as bitstrings) found by exhaustive enumeration.
pub fn all_optimal_bitstrings(graph: &Graph) -> (f64, Vec<String>) {
    let n = graph.num_nodes();
    assert!(n <= 24, "brute force is limited to 24 vertices");
    let mut best = f64::NEG_INFINITY;
    let mut winners = Vec::new();
    for mask in 0u64..(1u64 << n) {
        let assignment: Vec<bool> = (0..n).map(|i| (mask >> i) & 1 == 1).collect();
        let value = cut_value(graph, &assignment);
        if value > best + 1e-12 {
            best = value;
            winners.clear();
        }
        if (value - best).abs() <= 1e-12 {
            winners.push(
                assignment
                    .iter()
                    .map(|&b| if b { '1' } else { '0' })
                    .collect(),
            );
        }
    }
    (best, winners)
}

/// Greedy baseline: place each vertex (in index order) on the side that
/// currently maximizes the cut.
pub fn greedy(graph: &Graph) -> CutSolution {
    let n = graph.num_nodes();
    let mut assignment = vec![false; n];
    for v in 0..n {
        assignment[v] = false;
        let off = cut_value_prefix(graph, &assignment, v + 1);
        assignment[v] = true;
        let on = cut_value_prefix(graph, &assignment, v + 1);
        assignment[v] = on > off;
    }
    let value = cut_value(graph, &assignment);
    CutSolution { assignment, value }
}

/// Cut weight counting only edges with both endpoints among the first
/// `placed` vertices.
fn cut_value_prefix(graph: &Graph, assignment: &[bool], placed: usize) -> f64 {
    graph
        .edges()
        .iter()
        .filter(|&&(u, v, _)| u < placed && v < placed)
        .map(|&(u, v, w)| {
            if assignment[u] != assignment[v] {
                w
            } else {
                0.0
            }
        })
        .sum()
}

/// Single-flip local search from a random start: repeatedly flip the vertex
/// that most improves the cut until no single flip improves it.
pub(crate) fn local_search(graph: &Graph, seed: u64) -> CutSolution {
    let n = graph.num_nodes();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut assignment: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
    let mut value = cut_value(graph, &assignment);
    loop {
        let mut best_gain = 0.0;
        let mut best_vertex = None;
        for v in 0..n {
            let gain = flip_gain(graph, &assignment, v);
            if gain > best_gain + 1e-12 {
                best_gain = gain;
                best_vertex = Some(v);
            }
        }
        match best_vertex {
            Some(v) => {
                assignment[v] = !assignment[v];
                value += best_gain;
            }
            None => break,
        }
    }
    CutSolution { assignment, value }
}

/// Change in cut weight if vertex `v` flips sides.
fn flip_gain(graph: &Graph, assignment: &[bool], v: usize) -> f64 {
    graph
        .edges()
        .iter()
        .filter(|&&(a, b, _)| a == v || b == v)
        .map(|&(a, b, w)| {
            let other = if a == v { b } else { a };
            if assignment[v] != assignment[other] {
                -w
            } else {
                w
            }
        })
        .sum()
}

/// Best of `restarts` local searches (the strongest cheap classical baseline
/// used in the ablation benches).
pub fn multi_start_local_search(graph: &Graph, restarts: usize, seed: u64) -> CutSolution {
    (0..restarts)
        .map(|i| local_search(graph, seed.wrapping_add(i as u64)))
        .max_by(|a, b| a.value.partial_cmp(&b.value).unwrap())
        .unwrap_or(CutSolution {
            assignment: vec![false; graph.num_nodes()],
            value: 0.0,
        })
}

/// Expected cut of uniformly random assignments (analytically W/2) —
/// the floor any quantum heuristic has to beat.
pub fn random_baseline_expectation(graph: &Graph) -> f64 {
    graph.total_weight() / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete, cycle, random_gnp};

    #[test]
    fn c4_optimum_is_four_with_alternating_cuts() {
        // The paper's instance: optimal cut assignments 1010 and 0101, value 4.
        let g = cycle(4);
        let (best, winners) = all_optimal_bitstrings(&g);
        assert_eq!(best, 4.0);
        assert!(winners.contains(&"1010".to_string()));
        assert!(winners.contains(&"0101".to_string()));
        assert_eq!(winners.len(), 2);
    }

    #[test]
    fn cut_value_matches_manual_count() {
        let g = cycle(4);
        assert_eq!(cut_value_of_bitstring(&g, "1010"), 4.0);
        assert_eq!(cut_value_of_bitstring(&g, "0101"), 4.0);
        assert_eq!(cut_value_of_bitstring(&g, "1100"), 2.0);
        assert_eq!(cut_value_of_bitstring(&g, "0000"), 0.0);
        assert_eq!(cut_value_of_bitstring(&g, "1111"), 0.0);
    }

    #[test]
    fn odd_cycle_optimum() {
        // C5 max cut is 4 (one edge uncut).
        let g = cycle(5);
        assert_eq!(brute_force(&g).value, 4.0);
    }

    #[test]
    fn complete_graph_optimum() {
        // K4: best bipartition 2+2 cuts 4 edges.
        let g = complete(4);
        assert_eq!(brute_force(&g).value, 4.0);
    }

    #[test]
    fn greedy_reaches_optimum_on_c4() {
        let g = cycle(4);
        assert_eq!(greedy(&g).value, 4.0);
    }

    #[test]
    fn local_search_reaches_optimum_on_c4() {
        // Single-flip local search can legitimately stall on C4's zero-gain
        // plateaus (e.g. 0011), so assert the multi-start guarantee instead
        // of betting on any one random start.
        let g = cycle(4);
        for seed in 0..5 {
            assert_eq!(multi_start_local_search(&g, 8, seed).value, 4.0);
        }
    }

    #[test]
    fn local_search_never_beats_brute_force() {
        for seed in 0..3 {
            let g = random_gnp(10, 0.5, seed);
            let exact = brute_force(&g).value;
            let heuristic = multi_start_local_search(&g, 8, seed).value;
            assert!(heuristic <= exact + 1e-9);
            // Multi-start local search is strong on 10 nodes; expect ≥ 90 %.
            if exact > 0.0 {
                assert!(
                    heuristic >= 0.9 * exact,
                    "seed {seed}: {heuristic} vs {exact}"
                );
            }
        }
    }

    #[test]
    fn random_baseline_is_half_total_weight() {
        let g = cycle(4);
        assert_eq!(random_baseline_expectation(&g), 2.0);
    }

    #[test]
    fn solution_bitstring_format() {
        let sol = CutSolution {
            assignment: vec![true, false, true, false],
            value: 4.0,
        };
        assert_eq!(sol.bitstring(), "1010");
    }

    #[test]
    #[should_panic(expected = "assignment length")]
    fn wrong_assignment_length_panics() {
        cut_value(&cycle(4), &[true, false]);
    }

    #[test]
    fn flip_gain_consistency() {
        let g = random_gnp(8, 0.6, 11);
        let assignment: Vec<bool> = (0..8).map(|i| i % 3 == 0).collect();
        let before = cut_value(&g, &assignment);
        for v in 0..8 {
            let gain = flip_gain(&g, &assignment, v);
            let mut flipped = assignment.clone();
            flipped[v] = !flipped[v];
            let after = cut_value(&g, &flipped);
            assert!((after - before - gain).abs() < 1e-9);
        }
    }
}
