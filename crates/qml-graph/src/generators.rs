//! Workload generators: the graph families used by the paper's proof of
//! concept and by the extended benchmark sweeps.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::graph::Graph;

/// The paper's §5 instance: the n-node cycle C_n with uniform weight 1.
/// `cycle(4)` is the exact Max-Cut instance of Figs. 2 and 3.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 vertices");
    let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    edges.push((n - 1, 0));
    Graph::from_edges(n, &edges)
}

/// A simple path 0-1-...-(n-1) with uniform weight 1.
pub fn path(n: usize) -> Graph {
    assert!(n >= 2, "a path needs at least 2 vertices");
    let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    Graph::from_edges(n, &edges)
}

/// The complete graph K_n with uniform weight 1.
pub fn complete(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            g.add_edge(u, v, 1.0);
        }
    }
    g
}

/// A rows×cols grid graph with uniform weight 1.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let idx = |r: usize, c: usize| r * cols + c;
    let mut g = Graph::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_edge(idx(r, c), idx(r, c + 1), 1.0);
            }
            if r + 1 < rows {
                g.add_edge(idx(r, c), idx(r + 1, c), 1.0);
            }
        }
    }
    g
}

/// Erdős–Rényi G(n, p) with uniform weight 1 and a deterministic seed.
pub fn random_gnp(n: usize, p: f64, seed: u64) -> Graph {
    assert!(
        (0.0..=1.0).contains(&p),
        "edge probability must lie in [0,1]"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen::<f64>() < p {
                g.add_edge(u, v, 1.0);
            }
        }
    }
    g
}

/// Erdős–Rényi G(n, p) with uniformly random weights in `[w_min, w_max]`.
#[cfg(test)]
pub(crate) fn random_weighted_gnp(n: usize, p: f64, w_min: f64, w_max: f64, seed: u64) -> Graph {
    assert!(w_min <= w_max, "weight range must be non-empty");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen::<f64>() < p {
                let w = rng.gen_range(w_min..=w_max);
                g.add_edge(u, v, w);
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle4_is_the_paper_instance() {
        let g = cycle(4);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.edge_list(), vec![(0, 1), (1, 2), (2, 3), (0, 3)]);
        assert!(g.edges().iter().all(|&(_, _, w)| w == 1.0));
    }

    #[test]
    fn cycle_degrees_are_two() {
        let g = cycle(7);
        for v in 0..7 {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn path_has_n_minus_one_edges() {
        let g = path(6);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(3), 2);
    }

    #[test]
    fn complete_graph_edge_count() {
        let g = complete(6);
        assert_eq!(g.num_edges(), 6 * 5 / 2);
        assert_eq!(g.max_degree(), 5);
    }

    #[test]
    fn grid_edge_count() {
        let g = grid(3, 4);
        // 3 rows × 3 horizontal + 2×4 vertical = 9 + 8 = 17
        assert_eq!(g.num_nodes(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 2 * 4);
    }

    #[test]
    fn gnp_extremes() {
        assert!(random_gnp(10, 0.0, 1).is_empty());
        assert_eq!(random_gnp(10, 1.0, 1).num_edges(), 45);
    }

    #[test]
    fn gnp_is_deterministic_per_seed() {
        let a = random_gnp(12, 0.4, 7);
        let b = random_gnp(12, 0.4, 7);
        let c = random_gnp(12, 0.4, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn weighted_gnp_weights_in_range() {
        let g = random_weighted_gnp(10, 0.8, 0.5, 2.5, 3);
        assert!(!g.is_empty());
        for &(_, _, w) in g.edges() {
            assert!((0.5..=2.5).contains(&w));
        }
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_cycle_panics() {
        cycle(2);
    }
}
