//! Undirected weighted graphs — the problem substrate for the paper's
//! Max-Cut proof of concept (§5).

use serde::{Deserialize, Serialize};

/// An undirected weighted graph G = (V, E, w) with vertices `0..num_nodes`.
///
/// Parallel edges are merged by summing weights; self-loops are rejected.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Graph {
    num_nodes: usize,
    /// Edges stored as (u, v, w) with u < v.
    edges: Vec<(usize, usize, f64)>,
}

impl Graph {
    /// An edgeless graph on `num_nodes` vertices.
    pub fn new(num_nodes: usize) -> Self {
        Graph {
            num_nodes,
            edges: Vec::new(),
        }
    }

    /// Build a graph from an edge list with uniform weight 1.
    pub(crate) fn from_edges(num_nodes: usize, edges: &[(usize, usize)]) -> Self {
        let mut g = Graph::new(num_nodes);
        for &(u, v) in edges {
            g.add_edge(u, v, 1.0);
        }
        g
    }

    /// Build a graph from a weighted edge list.
    pub fn from_weighted_edges(num_nodes: usize, edges: &[(usize, usize, f64)]) -> Self {
        let mut g = Graph::new(num_nodes);
        for &(u, v, w) in edges {
            g.add_edge(u, v, w);
        }
        g
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of (merged) edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Add an undirected edge; weights of repeated edges accumulate.
    ///
    /// # Panics
    /// Panics on self-loops or out-of-range vertices — these indicate
    /// programming errors in workload generators, not runtime conditions.
    pub fn add_edge(&mut self, u: usize, v: usize, w: f64) {
        assert!(u != v, "self-loop ({u},{v}) not allowed");
        assert!(
            u < self.num_nodes && v < self.num_nodes,
            "edge ({u},{v}) out of range for {} nodes",
            self.num_nodes
        );
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        if let Some(edge) = self.edges.iter_mut().find(|(x, y, _)| *x == a && *y == b) {
            edge.2 += w;
        } else {
            self.edges.push((a, b, w));
        }
    }

    /// Iterate over edges as (u, v, w) with u < v.
    pub fn edges(&self) -> &[(usize, usize, f64)] {
        &self.edges
    }

    /// Unweighted edge list (u, v) with u < v.
    #[cfg(test)]
    pub(crate) fn edge_list(&self) -> Vec<(usize, usize)> {
        self.edges.iter().map(|&(u, v, _)| (u, v)).collect()
    }

    /// Total edge weight Σ w_ij.
    pub(crate) fn total_weight(&self) -> f64 {
        self.edges.iter().map(|&(_, _, w)| w).sum()
    }

    /// Neighbors of vertex `v`.
    #[cfg(test)]
    pub(crate) fn neighbors(&self, v: usize) -> Vec<usize> {
        let mut out = std::collections::BTreeSet::new();
        for &(a, b, _) in &self.edges {
            if a == v {
                out.insert(b);
            } else if b == v {
                out.insert(a);
            }
        }
        out.into_iter().collect()
    }

    /// Degree of vertex `v`.
    #[cfg(test)]
    pub(crate) fn degree(&self, v: usize) -> usize {
        self.neighbors(v).len()
    }

    /// Maximum degree over all vertices.
    #[cfg(test)]
    pub(crate) fn max_degree(&self) -> usize {
        (0..self.num_nodes)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// True if the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.total_weight(), 4.0);
        assert_eq!(g.neighbors(0), vec![1, 3]);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.max_degree(), 2);
        assert!(g.edges().contains(&(0, 3, 1.0)));
        assert!(!g.edges().iter().any(|&(u, v, _)| (u, v) == (0, 2)));
    }

    #[test]
    fn edge_direction_normalized() {
        let mut g = Graph::new(3);
        g.add_edge(2, 0, 1.5);
        assert_eq!(g.edges(), &[(0, 2, 1.5)]);
    }

    #[test]
    fn parallel_edges_merge_weights() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 0, 2.0);
        assert_eq!(g.edges(), &[(0, 1, 3.0)]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut g = Graph::new(2);
        g.add_edge(1, 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut g = Graph::new(2);
        g.add_edge(0, 5, 1.0);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(3);
        assert!(g.is_empty());
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.total_weight(), 0.0);
    }

    #[test]
    fn serde_round_trip() {
        let g = Graph::from_weighted_edges(3, &[(0, 1, 0.5), (1, 2, 2.0)]);
        let json = serde_json::to_string(&g).unwrap();
        let back: Graph = serde_json::from_str(&json).unwrap();
        assert_eq!(back, g);
    }
}
