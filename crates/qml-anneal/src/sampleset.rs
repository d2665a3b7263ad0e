//! Sample sets: the decoded output of an annealing run.
//!
//! Mirrors the structure of D-Wave Ocean's `SampleSet`: a list of
//! (assignment, energy, num_occurrences) records plus aggregation helpers —
//! the statistics the paper's §5 reports (lowest-energy assignments, mean
//! energy, ground-state probability).

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// One distinct sample with its energy and multiplicity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleRecord {
    /// Spin assignment (entries ±1).
    pub spins: Vec<i8>,
    /// Energy of the assignment under the sampled model.
    pub energy: f64,
    /// How many reads returned this assignment.
    pub num_occurrences: u64,
}

impl SampleRecord {
    /// The assignment as a Boolean word using the paper's convention
    /// (spin +1 ↦ '0', spin −1 ↦ '1'), character i = variable i.
    pub fn bitstring(&self) -> String {
        self.spins
            .iter()
            .map(|&s| if s == 1 { '0' } else { '1' })
            .collect()
    }
}

/// The aggregated result of an annealing run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SampleSet {
    /// Distinct samples, sorted by ascending energy.
    pub records: Vec<SampleRecord>,
}

impl SampleSet {
    /// Build a sample set from raw per-read assignments and their energies,
    /// aggregating identical assignments.
    pub(crate) fn from_reads(reads: Vec<(Vec<i8>, f64)>) -> Self {
        let mut agg: BTreeMap<Vec<i8>, (f64, u64)> = BTreeMap::new();
        for (spins, energy) in reads {
            let entry = agg.entry(spins).or_insert((energy, 0));
            entry.1 += 1;
        }
        let mut records: Vec<SampleRecord> = agg
            .into_iter()
            .map(|(spins, (energy, n))| SampleRecord {
                spins,
                energy,
                num_occurrences: n,
            })
            .collect();
        // A NaN energy compares equal to every other energy, so its record
        // sorts by spins alone instead of panicking. `total_cmp` would also
        // order −0.0 before +0.0 and could reorder equal-energy records.
        records.sort_by(|a, b| {
            a.energy
                .partial_cmp(&b.energy)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.spins.cmp(&b.spins))
        });
        SampleSet { records }
    }

    /// Total number of reads.
    pub fn total_reads(&self) -> u64 {
        self.records.iter().map(|r| r.num_occurrences).sum()
    }

    /// The lowest-energy record, if any.
    pub fn lowest(&self) -> Option<&SampleRecord> {
        self.records.first()
    }

    /// All records whose energy is within `tol` of the minimum.
    pub(crate) fn ground_records(&self, tol: f64) -> Vec<&SampleRecord> {
        match self.lowest() {
            Some(best) => self
                .records
                .iter()
                .filter(|r| (r.energy - best.energy).abs() <= tol)
                .collect(),
            None => Vec::new(),
        }
    }

    /// Occurrence-weighted mean energy over all reads.
    pub fn mean_energy(&self) -> f64 {
        let total = self.total_reads();
        if total == 0 {
            return 0.0;
        }
        self.records
            .iter()
            .map(|r| r.energy * r.num_occurrences as f64)
            .sum::<f64>()
            / total as f64
    }

    /// Fraction of reads that landed within `tol` of the minimum energy —
    /// the annealer's ground-state success probability.
    pub fn ground_state_probability(&self, tol: f64) -> f64 {
        let total = self.total_reads();
        if total == 0 {
            return 0.0;
        }
        let ground: u64 = self
            .ground_records(tol)
            .iter()
            .map(|r| r.num_occurrences)
            .sum();
        ground as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_set() -> SampleSet {
        SampleSet::from_reads(vec![
            (vec![-1, 1, -1, 1], -4.0),
            (vec![1, -1, 1, -1], -4.0),
            (vec![-1, 1, -1, 1], -4.0),
            (vec![1, 1, 1, 1], 4.0),
            (vec![1, 1, -1, -1], 0.0),
        ])
    }

    #[test]
    fn aggregation_and_sorting() {
        let set = demo_set();
        assert_eq!(set.total_reads(), 5);
        assert_eq!(set.records.len(), 4);
        // Sorted ascending by energy: the two ground states first.
        assert_eq!(set.records[0].energy, -4.0);
        assert_eq!(set.records[1].energy, -4.0);
        assert_eq!(set.records[3].energy, 4.0);
        // The duplicated read is aggregated.
        let dup = set
            .records
            .iter()
            .find(|r| r.spins == vec![-1, 1, -1, 1])
            .unwrap();
        assert_eq!(dup.num_occurrences, 2);
    }

    #[test]
    fn bitstring_convention() {
        let rec = SampleRecord {
            spins: vec![-1, 1, -1, 1],
            energy: -4.0,
            num_occurrences: 1,
        };
        assert_eq!(rec.bitstring(), "1010");
    }

    #[test]
    fn ground_records_and_probability() {
        let set = demo_set();
        let ground = set.ground_records(1e-9);
        assert_eq!(ground.len(), 2);
        assert!((set.ground_state_probability(1e-9) - 3.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn mean_energy_weighted_by_occurrences() {
        let set = demo_set();
        let expected = (-4.0 * 3.0 + 4.0 + 0.0) / 5.0;
        assert!((set.mean_energy() - expected).abs() < 1e-12);
    }

    #[test]
    fn empty_set_edge_cases() {
        let set = SampleSet::from_reads(vec![]);
        assert_eq!(set.total_reads(), 0);
        assert!(set.lowest().is_none());
        assert_eq!(set.mean_energy(), 0.0);
        assert_eq!(set.ground_state_probability(1e-9), 0.0);
    }
}
