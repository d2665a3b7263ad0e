//! Transpilation targets: the hardware constraints a context descriptor's
//! `target` block imposes on compilation (basis gate set + coupling map).

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Connectivity of a device as an undirected coupling graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CouplingMap {
    num_qubits: usize,
    edges: BTreeSet<(usize, usize)>,
}

impl CouplingMap {
    /// Build from an edge list; the number of qubits is the largest index
    /// mentioned plus one (or `min_qubits` if larger).
    pub fn new(edges: &[(usize, usize)], min_qubits: usize) -> Self {
        let mut set = BTreeSet::new();
        let mut max = 0usize;
        for &(a, b) in edges {
            assert_ne!(a, b, "coupling map cannot contain self-loops");
            set.insert((a.min(b), a.max(b)));
            max = max.max(a.max(b) + 1);
        }
        CouplingMap {
            num_qubits: max.max(min_qubits),
            edges: set,
        }
    }

    /// A linear chain 0-1-...-(n-1).
    pub fn linear(n: usize) -> Self {
        let edges: Vec<(usize, usize)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        CouplingMap::new(&edges, n)
    }

    /// A ring 0-1-...-(n-1)-0.
    pub fn ring(n: usize) -> Self {
        let mut edges: Vec<(usize, usize)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        if n > 2 {
            edges.push((n - 1, 0));
        }
        CouplingMap::new(&edges, n)
    }

    /// Number of qubits covered by the map.
    pub(crate) fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// True if qubits `a` and `b` are directly coupled.
    pub(crate) fn are_adjacent(&self, a: usize, b: usize) -> bool {
        self.edges.contains(&(a.min(b), a.max(b)))
    }

    /// Neighbors of a qubit.
    pub(crate) fn neighbors(&self, q: usize) -> Vec<usize> {
        self.edges
            .iter()
            .filter_map(|&(a, b)| {
                if a == q {
                    Some(b)
                } else if b == q {
                    Some(a)
                } else {
                    None
                }
            })
            .collect()
    }

    /// Shortest path between two qubits (BFS), inclusive of both endpoints.
    /// Returns `None` if they are disconnected.
    pub(crate) fn shortest_path(&self, from: usize, to: usize) -> Option<Vec<usize>> {
        if from == to {
            return Some(vec![from]);
        }
        let mut prev = vec![usize::MAX; self.num_qubits];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(from);
        prev[from] = from;
        while let Some(u) = queue.pop_front() {
            for v in self.neighbors(u) {
                if prev[v] == usize::MAX {
                    prev[v] = u;
                    if v == to {
                        let mut path = vec![to];
                        let mut cur = to;
                        while cur != from {
                            cur = prev[cur];
                            path.push(cur);
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(v);
                }
            }
        }
        None
    }

    /// All edges (normalized with a < b).
    pub(crate) fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.edges.iter().copied()
    }
}

/// The constraints transpilation must satisfy, mirroring the `target` block
/// of the paper's context descriptor (Listing 4).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TranspileTarget {
    /// Allowed gate names after transpilation; empty means "any gate".
    pub basis_gates: Vec<String>,
    /// Device connectivity; `None` means all-to-all.
    pub coupling_map: Option<CouplingMap>,
}

impl TranspileTarget {
    /// An unconstrained (ideal) target: any gate, all-to-all connectivity.
    pub fn ideal() -> Self {
        TranspileTarget::default()
    }

    /// The paper's hardware basis `{sx, rz, cx}` with the given coupling map.
    pub fn hardware(coupling_map: CouplingMap) -> Self {
        TranspileTarget {
            basis_gates: vec!["sx".into(), "rz".into(), "cx".into()],
            coupling_map: Some(coupling_map),
        }
    }

    /// The paper's hardware basis with all-to-all connectivity.
    #[cfg(test)]
    pub(crate) fn hardware_all_to_all() -> Self {
        TranspileTarget {
            basis_gates: vec!["sx".into(), "rz".into(), "cx".into()],
            coupling_map: None,
        }
    }

    /// True if no basis restriction applies.
    pub(crate) fn any_basis(&self) -> bool {
        self.basis_gates.is_empty()
    }

    /// True if the named gate is allowed by the basis.
    pub(crate) fn allows(&self, name: &str) -> bool {
        self.any_basis() || self.basis_gates.iter().any(|b| b == name)
    }

    /// Stable 64-bit fingerprint of the target constraints (basis gates and
    /// coupling map, both in canonical order).
    ///
    /// Together with an `optimization_level` this is the device half of a
    /// transpilation cache key: equal fingerprints guarantee that transpiling
    /// the same logical circuit yields the same physical circuit, so repeated
    /// submissions against the same device can skip transpilation entirely.
    pub fn fingerprint(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        // `basis_gates` order matters to neither transpilation nor the paper's
        // descriptors; canonicalize so permutations fingerprint identically.
        let mut basis = self.basis_gates.clone();
        basis.sort();
        for gate in &basis {
            fold(gate.as_bytes());
            fold(b"\x1f");
        }
        fold(b"\x1e");
        if let Some(cm) = &self.coupling_map {
            fold(&cm.num_qubits().to_le_bytes());
            for (a, b) in cm.edges() {
                fold(&a.to_le_bytes());
                fold(&b.to_le_bytes());
            }
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hop distance between two qubits, or `None` if disconnected.
    fn distance(cm: &CouplingMap, from: usize, to: usize) -> Option<usize> {
        cm.shortest_path(from, to).map(|p| p.len() - 1)
    }

    #[test]
    fn linear_map_adjacency_and_distance() {
        let cm = CouplingMap::linear(10);
        assert_eq!(cm.num_qubits(), 10);
        assert!(cm.are_adjacent(3, 4));
        assert!(!cm.are_adjacent(0, 9));
        assert_eq!(distance(&cm, 0, 9), Some(9));
        assert_eq!(cm.shortest_path(2, 5).unwrap(), vec![2, 3, 4, 5]);
    }

    #[test]
    fn ring_map_wraps_around() {
        let cm = CouplingMap::ring(4);
        assert!(cm.are_adjacent(3, 0));
        assert_eq!(distance(&cm, 0, 2), Some(2));
        assert_eq!(distance(&cm, 1, 3), Some(2));
        assert_eq!(distance(&cm, 0, 3), Some(1));
    }

    #[test]
    fn disconnected_qubits_have_no_path() {
        let cm = CouplingMap::new(&[(0, 1)], 4);
        assert_eq!(distance(&cm, 0, 3), None);
        assert_eq!(cm.shortest_path(2, 3), None);
    }

    #[test]
    fn path_to_self_is_trivial() {
        let cm = CouplingMap::linear(3);
        assert_eq!(cm.shortest_path(1, 1).unwrap(), vec![1]);
        assert_eq!(distance(&cm, 1, 1), Some(0));
    }

    #[test]
    fn neighbors_are_symmetric() {
        let cm = CouplingMap::ring(5);
        for a in 0..5 {
            for b in cm.neighbors(a) {
                assert!(cm.neighbors(b).contains(&a));
            }
        }
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        CouplingMap::new(&[(1, 1)], 2);
    }

    #[test]
    fn target_allows_checks() {
        let t = TranspileTarget::hardware(CouplingMap::linear(4));
        assert!(t.allows("sx"));
        assert!(t.allows("cx"));
        assert!(!t.allows("h"));
        assert!(TranspileTarget::ideal().allows("h"));
        assert!(TranspileTarget::ideal().any_basis());
    }

    #[test]
    fn min_qubits_respected() {
        let cm = CouplingMap::new(&[(0, 1)], 6);
        assert_eq!(cm.num_qubits(), 6);
    }

    #[test]
    fn fingerprint_is_stable_and_canonical() {
        let a = TranspileTarget::hardware(CouplingMap::ring(5));
        let b = TranspileTarget {
            basis_gates: vec!["cx".into(), "rz".into(), "sx".into()], // permuted
            coupling_map: Some(CouplingMap::ring(5)),
        };
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_targets() {
        let ring = TranspileTarget::hardware(CouplingMap::ring(5));
        let line = TranspileTarget::hardware(CouplingMap::linear(5));
        let ideal = TranspileTarget::ideal();
        assert_ne!(ring.fingerprint(), line.fingerprint());
        assert_ne!(ring.fingerprint(), ideal.fingerprint());
        assert_ne!(line.fingerprint(), ideal.fingerprint());
    }
}
