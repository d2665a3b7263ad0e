//! Orthogonal context services exposed by the runtime.
//!
//! §4.3.1 of the paper: "Orthogonal Context Services are system-level
//! capabilities that are separate from an operator's mathematical meaning but
//! necessary to run programs on real hardware ... quantum communication with
//! teleportation ..., error correction ..., and annealing submission." This
//! module holds the communication estimate for partitioned execution; the
//! gate backend consults the QEC service (`qml_qec::QecService`) directly.

use serde::{Deserialize, Serialize};

use qml_types::{JobBundle, QmlError, Result};

/// Estimate of the inter-device communication a partitioned execution would
/// require — the middle layer's analogue of an HPC communication-volume
/// estimate, consumed by schedulers for multi-QPU placement decisions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CommunicationEstimate {
    /// Number of carriers placed on the first device.
    pub partition_size: usize,
    /// Entangling operations that straddle the partition (each needs a
    /// teleported gate or an entanglement swap).
    pub cross_partition_operations: u64,
    /// Bell pairs required (one per cross-partition operation).
    pub bell_pairs_required: u64,
}

/// Estimate the communication cost of splitting a bundle's register space
/// after `partition_size` carriers (device A gets carriers
/// `0..partition_size`, device B the rest). Cross-partition entangling
/// operations are counted from the descriptors' cost hints when edge
/// information is available, falling back to a conservative estimate.
pub fn estimate_communication(
    bundle: &JobBundle,
    partition_size: usize,
) -> Result<CommunicationEstimate> {
    let total = bundle.total_width();
    if partition_size == 0 || partition_size >= total {
        return Err(QmlError::Validation(format!(
            "partition size {partition_size} must split the {total}-carrier register space"
        )));
    }
    let offsets = bundle.register_offsets();
    let mut crossings = 0u64;
    for op in bundle.operators.iter() {
        let offset = offsets
            .get(&op.domain_qdt)
            .copied()
            .ok_or_else(|| QmlError::UnknownRegister(op.domain_qdt.clone()))?;
        // Edge-carrying descriptors (ISING_COST_PHASE / ISING_PROBLEM) let us
        // count exactly which interactions straddle the cut.
        let edge_param = op.params.get("edges").or_else(|| op.params.get("j"));
        if let Some(qml_types::ParamValue::List(entries)) = edge_param {
            for entry in entries {
                if let Some(pair) = entry.as_list() {
                    if pair.len() >= 2 {
                        let u = pair[0].as_u64().unwrap_or(0) as usize + offset;
                        let v = pair[1].as_u64().unwrap_or(0) as usize + offset;
                        if (u < partition_size) != (v < partition_size) {
                            crossings += 1;
                        }
                    }
                }
            }
        } else if let Some(hint) = &op.cost_hint {
            // Without structural information assume half the entangling gates
            // straddle the cut — deliberately pessimistic.
            crossings += hint.twoq.unwrap_or(0) / 2;
        }
    }
    Ok(CommunicationEstimate {
        partition_size,
        cross_partition_operations: crossings,
        bell_pairs_required: crossings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qml_algorithms::{maxcut_ising_program, qaoa_maxcut_program, QaoaSchedule, RING_P1_ANGLES};
    use qml_graph::cycle;
    use qml_types::CostHint;

    fn qaoa_bundle() -> JobBundle {
        qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES])).unwrap()
    }

    #[test]
    fn communication_estimate_counts_crossing_edges() {
        // C4 edges: (0,1), (1,2), (2,3), (0,3). Splitting after carrier 2
        // leaves (2,3) internal to B, (0,1) internal to A, and (1,2), (0,3)
        // crossing.
        let bundle = qaoa_bundle();
        let estimate = estimate_communication(&bundle, 2).unwrap();
        assert_eq!(estimate.cross_partition_operations, 2);
        assert_eq!(estimate.bell_pairs_required, 2);

        let ising = maxcut_ising_program(&cycle(4)).unwrap();
        let estimate = estimate_communication(&ising, 2).unwrap();
        assert_eq!(estimate.cross_partition_operations, 2);
    }

    #[test]
    fn degenerate_partitions_rejected() {
        let bundle = qaoa_bundle();
        assert!(estimate_communication(&bundle, 0).is_err());
        assert!(estimate_communication(&bundle, 4).is_err());
    }

    #[test]
    fn communication_feeds_into_cost_hints() {
        let bundle = qaoa_bundle();
        let estimate = estimate_communication(&bundle, 2).unwrap();
        let hint = CostHint::gates(8, 10).with_communication(estimate.bell_pairs_required);
        assert_eq!(hint.communication, Some(2));
        assert!(hint.scheduling_weight() > CostHint::gates(8, 10).scheduling_weight());
    }
}
