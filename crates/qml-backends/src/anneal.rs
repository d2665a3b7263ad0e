//! The annealing backend: the repository's stand-in for the paper's
//! "D-Wave Ocean neal" execution path (Fig. 3).
//!
//! Pipeline: lower the bundle's single `ISING_PROBLEM` descriptor to a binary
//! quadratic model, read the annealer policy from the context's `anneal`
//! block (`num_reads`, sweeps, β range, seed), run the Metropolis simulated
//! annealer, and report the aggregated samples as counts over words in the
//! same explicit result schema the gate path uses.

use qml_anneal::{AnnealParams, SampleSet, SimulatedAnnealer};
use qml_types::{AnnealConfig, ExecConfig, JobBundle, QmlError, Result, SealedBundle};

use crate::cache::{AnnealPlan, AnnealPlanKey, TranspileCache};
use crate::lowering::lower_to_bqm;
use crate::results::{Counts, EnergyStats, ExecutionResult};
use crate::traits::{Backend, PlanFetch};

/// Default engine identifier served by [`AnnealBackend`].
pub(crate) const DEFAULT_ANNEAL_ENGINE: &str = "anneal.simulated_annealer";

/// Default Metropolis sweeps per read when the context does not specify them.
pub const DEFAULT_SWEEPS: u64 = 200;

/// The simulated-annealing backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnnealBackend;

impl AnnealBackend {
    /// Create an annealing backend.
    pub fn new() -> Self {
        AnnealBackend
    }

    /// The sealed bundle's exec block, if this backend serves its engine.
    /// Sealing validated the context already.
    fn prepare<'a>(&self, bundle: &'a SealedBundle) -> Result<Option<&'a ExecConfig>> {
        let exec = bundle.context.as_ref().and_then(|c| c.exec.as_ref());
        if let Some(exec) = exec {
            if !self.supports_engine(&exec.engine) {
                return Err(QmlError::Unsupported(format!(
                    "annealing backend cannot serve engine `{}`",
                    exec.engine
                )));
            }
        }
        Ok(exec)
    }

    /// The plan-cache key of a sealed bundle under its context.
    fn plan_key(bundle: &SealedBundle, exec: Option<&ExecConfig>) -> AnnealPlanKey {
        AnnealPlanKey {
            // The realized program: attached bindings participate in
            // `program_hash`, so two binding sets of one symbolic problem
            // lower to (and cache) distinct BQMs.
            program: bundle.program_hash(),
            schedule: Self::schedule_fingerprint(exec, Self::anneal_config(bundle)),
        }
    }

    /// The deterministic realization phase: lower the bundle to a BQM plan.
    fn build_plan(bundle: &JobBundle) -> Result<AnnealPlan> {
        let lowered = lower_to_bqm(bundle)?;
        Ok(AnnealPlan {
            bqm: lowered.bqm,
            register: lowered.register,
            schema: lowered.schema,
        })
    }

    /// The bundle's `anneal` context block, if any.
    fn anneal_config(bundle: &JobBundle) -> Option<&AnnealConfig> {
        bundle.context.as_ref().and_then(|c| c.anneal.as_ref())
    }

    /// Each record's spins read at `indices` (the schema's classical-bit
    /// order) as one word, in the paper's convention (spin +1 ↦ '0', spin
    /// −1 ↦ '1'), rendered straight into one arena; records that read the
    /// same word merge.
    fn read_counts(sample_set: &SampleSet, indices: &[usize]) -> Counts {
        let records = &sample_set.records;
        let mut words = String::with_capacity(indices.len() * records.len());
        for record in records {
            let bits = indices.iter().map(|&i| record.spins[i]);
            words.extend(bits.map(|spin| if spin == 1 { '0' } else { '1' }));
        }
        let counts = records.iter().map(|r| r.num_occurrences).collect();
        Counts::from_arena(indices.len(), words, counts)
    }

    /// Sample a lowered plan under the bundle's annealer policy.
    fn run_plan(
        &self,
        bundle: &SealedBundle,
        exec: Option<&ExecConfig>,
        plan: &AnnealPlan,
    ) -> Result<ExecutionResult> {
        let params = Self::params(exec, Self::anneal_config(bundle), bundle.program_hash());
        let sample_set = SimulatedAnnealer::new().sample(&plan.bqm, &params);

        let counts = Self::read_counts(&sample_set, &plan.schema.wire_indices(&plan.register)?);
        let energy_stats = sample_set.lowest().map(|best| EnergyStats {
            min_energy: best.energy,
            mean_energy: sample_set.mean_energy(),
            ground_state_probability: sample_set.ground_state_probability(1e-9),
        });

        Ok(ExecutionResult {
            backend: self.name().to_string(),
            engine: exec
                .map_or(DEFAULT_ANNEAL_ENGINE, |e| e.engine.as_str())
                .to_string(),
            register: plan.register.id.clone(),
            shots: params.num_reads,
            counts,
            gate_metrics: None,
            energy_stats,
            qec_estimate: None,
        })
    }

    /// Stable fingerprint of the context's **annealing schedule** — engine,
    /// Metropolis sweeps, and β-range. These are the knobs that shape the
    /// anneal itself; the read policy (`num_reads`, seed) deliberately stays
    /// out so shot-ladder sweeps keep sharing one plan. Part of the plan
    /// cache key so two contexts with different schedules can never collide
    /// on one BQM plan.
    fn schedule_fingerprint(exec: Option<&ExecConfig>, anneal: Option<&AnnealConfig>) -> u64 {
        use qml_types::bundle::{fnv1a64_init, fnv1a64_update};
        let mut hash = fnv1a64_init();
        if let Some(exec) = exec {
            hash = fnv1a64_update(hash, exec.engine.as_bytes());
        }
        hash = fnv1a64_update(hash, b"\x1f");
        let sweeps = anneal.and_then(|a| a.num_sweeps).unwrap_or(DEFAULT_SWEEPS);
        hash = fnv1a64_update(hash, &sweeps.to_le_bytes());
        hash = fnv1a64_update(hash, b"\x1f");
        if let Some((lo, hi)) = anneal.and_then(|a| a.beta_range) {
            hash = fnv1a64_update(hash, &lo.to_bits().to_le_bytes());
            hash = fnv1a64_update(hash, &hi.to_bits().to_le_bytes());
        }
        hash
    }

    /// Derive sampler parameters from the context blocks. `default_seed` —
    /// the submitting bundle's program hash — seeds unseeded runs, so two
    /// distinct unseeded problems never share Metropolis noise (a flat
    /// default of 0 made every unseeded sweep point sample-correlated);
    /// explicit seeds behave exactly as before.
    fn params(
        exec: Option<&ExecConfig>,
        anneal: Option<&AnnealConfig>,
        default_seed: u64,
    ) -> AnnealParams {
        let num_reads = anneal
            .map(|a| a.num_reads)
            .or_else(|| exec.map(|e| e.samples))
            .unwrap_or(1000);
        let num_sweeps = anneal.and_then(|a| a.num_sweeps).unwrap_or(DEFAULT_SWEEPS) as usize;
        let seed = anneal
            .and_then(|a| a.seed)
            .or_else(|| exec.and_then(|e| e.seed))
            .unwrap_or(default_seed);
        let mut params = AnnealParams::with_reads(num_reads)
            .with_sweeps(num_sweeps)
            .with_seed(seed);
        if let Some((lo, hi)) = anneal.and_then(|a| a.beta_range) {
            params = params.with_beta_range(lo, hi);
        }
        params
    }
}

impl Backend for AnnealBackend {
    fn name(&self) -> &str {
        "qml-simulated-annealer"
    }

    fn supports_engine(&self, engine: &str) -> bool {
        engine.starts_with("anneal.")
    }

    fn default_engine(&self) -> &str {
        DEFAULT_ANNEAL_ENGINE
    }

    /// Check the engine, fetch the lowered BQM — keyed on the realized
    /// program and the annealer-schedule fingerprint, so a shot ladder shares
    /// one plan — and sample it under the bundle's own read policy.
    fn execute_sealed(
        &self,
        bundle: &SealedBundle,
        cache: &TranspileCache,
    ) -> (Result<ExecutionResult>, Option<PlanFetch>) {
        let fetched = self.prepare(bundle).and_then(|exec| {
            let key = Self::plan_key(bundle, exec);
            let build = || Self::build_plan(bundle);
            let (plan, fetch) = PlanFetch::time(|| cache.anneal_plan_traced(key, build))?;
            Ok((exec, plan, fetch))
        });
        match fetched {
            Ok((exec, plan, fetch)) => (self.run_plan(bundle, exec, &plan), Some(fetch)),
            Err(err) => (Err(err), None),
        }
    }

    /// Annealing bundles share a batch key when they share a lowered BQM and
    /// an annealer schedule: the batch key is exactly the plan-cache key. The
    /// read policy (`num_reads`, seed) stays out, so shot ladders share it.
    fn batch_key(&self, bundle: &SealedBundle) -> Option<u64> {
        let exec = self.prepare(bundle).ok()?;
        let key = Self::plan_key(bundle, exec);
        Some(qml_types::bundle::fnv1a64_words(&[
            key.program,
            key.schedule,
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qml_algorithms::{maxcut_ising_program, qaoa_maxcut_program, QaoaSchedule, RING_P1_ANGLES};
    use qml_graph::{cut_value_of_bitstring, cycle};
    use qml_types::{ContextDescriptor, ParamValue};
    use std::collections::BTreeMap;

    fn fig3_context() -> ContextDescriptor {
        ContextDescriptor::for_anneal("anneal.neal_simulator", AnnealConfig::with_reads(1000))
    }

    #[test]
    fn fig3_anneal_path_end_to_end() {
        // The paper's Fig. 3 workflow: single ISING_PROBLEM + anneal context
        // with num_reads = 1000.
        let bundle = maxcut_ising_program(&cycle(4))
            .unwrap()
            .with_context(fig3_context());
        let result = AnnealBackend::new().execute(&bundle).unwrap();
        assert_eq!(result.shots, 1000);
        assert_eq!(result.counts.values().sum::<u64>(), 1000);
        assert_eq!(result.engine, "anneal.neal_simulator");

        // Both optimal cut assignments appear and dominate.
        let stats = result.energy_stats.unwrap();
        assert_eq!(stats.min_energy, -4.0);
        assert!(stats.ground_state_probability > 0.8);
        assert!(result.counts.contains_key("1010"));
        assert!(result.counts.contains_key("0101"));

        // Expected cut over all returned samples is near the optimum of 4.
        let graph = cycle(4);
        let expected_cut = result.expectation(|word| cut_value_of_bitstring(&graph, word));
        assert!(expected_cut > 3.5, "expected cut {expected_cut}");
    }

    /// The counts the backend built before [`Counts`]: one rendered
    /// `String` per record, collected into a map (a later record with the
    /// same word replaces an earlier one).
    fn map_of_records(set: &SampleSet, indices: &[usize]) -> BTreeMap<String, u64> {
        set.records
            .iter()
            .map(|record| {
                let word: String = indices
                    .iter()
                    .map(|&i| if record.spins[i] == 1 { '0' } else { '1' })
                    .collect();
                (word, record.num_occurrences)
            })
            .collect()
    }

    #[test]
    fn counts_are_the_map_the_records_made() {
        let bqm = lower_to_bqm(&maxcut_ising_program(&cycle(10)).unwrap())
            .unwrap()
            .bqm;
        let params = AnnealParams::with_reads(2000).with_sweeps(3).with_seed(11);
        let set = SimulatedAnnealer::new().sample(&bqm, &params);
        assert!(set.records.len() > 100, "too few records to tell");
        // The whole register in order, and permuted: distinct records give
        // distinct words, and the map the records made is the counts.
        for indices in [
            (0..10).collect::<Vec<_>>(),
            vec![3, 9, 0, 4, 1, 8, 2, 7, 5, 6],
        ] {
            let counts = AnnealBackend::read_counts(&set, &indices);
            assert_eq!(counts, map_of_records(&set, &indices), "{indices:?}");
            assert_eq!(counts.values().sum::<u64>(), 2000);
        }
        // A readout of some wires: records that read the same word merge,
        // where the map kept only the last of them.
        let counts = AnnealBackend::read_counts(&set, &[7, 2]);
        assert_eq!(counts.len(), 4);
        assert_eq!(counts.values().sum::<u64>(), 2000);
        assert!(map_of_records(&set, &[7, 2]).values().sum::<u64>() < 2000);
    }

    #[test]
    fn default_context_still_runs() {
        let bundle = maxcut_ising_program(&cycle(4)).unwrap();
        let result = AnnealBackend::new().execute(&bundle).unwrap();
        assert_eq!(result.shots, 1000);
        assert_eq!(result.engine, DEFAULT_ANNEAL_ENGINE);
    }

    #[test]
    fn reproducible_per_seed() {
        let mut anneal = AnnealConfig::with_reads(200);
        anneal.seed = Some(7);
        let bundle =
            maxcut_ising_program(&cycle(4))
                .unwrap()
                .with_context(ContextDescriptor::for_anneal(
                    "anneal.neal_simulator",
                    anneal,
                ));
        let backend = AnnealBackend::new();
        assert_eq!(
            backend.execute(&bundle).unwrap().counts,
            backend.execute(&bundle).unwrap().counts
        );
    }

    #[test]
    fn gate_engine_rejected() {
        let bundle =
            maxcut_ising_program(&cycle(4))
                .unwrap()
                .with_context(ContextDescriptor::for_gate(ExecConfig::new(
                    "gate.aer_simulator",
                )));
        assert!(matches!(
            AnnealBackend::new().execute(&bundle),
            Err(QmlError::Unsupported(_))
        ));
    }

    /// An Ising bundle with fields `h` and, if given, the one coupling `j`.
    fn with_fields(
        mut bundle: JobBundle,
        h: [f64; 3],
        j: Option<(usize, usize, f64)>,
    ) -> JobBundle {
        let op = &mut std::sync::Arc::make_mut(&mut bundle.operators)[0];
        let h = h.iter().map(|&x| ParamValue::Float(x)).collect();
        op.params.insert("h", ParamValue::List(h));
        if let Some((a, b, w)) = j {
            let coupling = vec![a.into(), b.into(), ParamValue::Float(w)];
            op.params
                .insert("j", ParamValue::List(vec![ParamValue::List(coupling)]));
        }
        bundle
    }

    /// A field that parses to infinity fails at the seal, and finite fields
    /// whose sum overflows fail at lowering: both as validation errors, and
    /// neither reaches the annealer's schedule, which asserts a finite range.
    #[test]
    fn non_finite_fields_are_validation_errors_not_panics() {
        let base = maxcut_ising_program(&cycle(3)).unwrap();
        let json = with_fields(base.clone(), [1.25, 0.0, 0.0], None)
            .to_json()
            .unwrap();
        assert_eq!(json.matches("1.25").count(), 1, "{json}");
        let parsed = JobBundle::from_json(&json.replace("1.25", "1e999"));
        assert!(matches!(parsed, Err(QmlError::Validation(_))), "{parsed:?}");

        let infinite = with_fields(base.clone(), [f64::INFINITY, 0.0, 0.0], None);
        let overflowing = with_fields(base, [1e308, 0.0, 0.0], Some((0, 1, 1e308)));
        assert!(
            SealedBundle::seal(overflowing.clone()).is_ok(),
            "finite: seals"
        );
        assert!(matches!(
            lower_to_bqm(&overflowing),
            Err(QmlError::Validation(_))
        ));
        for bundle in [infinite, overflowing] {
            let run = std::panic::catch_unwind(|| AnnealBackend::new().execute(&bundle));
            assert!(matches!(run, Ok(Err(QmlError::Validation(_)))), "{run:?}");
        }
    }

    /// A coupling of a spin to itself passes the seal, which does not parse
    /// `j`, and fails at lowering as a validation error naming it, before
    /// the model is built.
    #[test]
    fn self_couplings_are_validation_errors_not_panics() {
        let bundle = with_fields(
            maxcut_ising_program(&cycle(3)).unwrap(),
            [0.0; 3],
            Some((1, 1, 1.0)),
        );
        assert!(SealedBundle::seal(bundle.clone()).is_ok(), "seals");
        let run = std::panic::catch_unwind(|| AnnealBackend::new().execute(&bundle));
        match run {
            Ok(Err(QmlError::Validation(message))) => {
                assert_eq!(message, "coupling (1,1) joins spin 1 to itself")
            }
            other => panic!("expected a validation error, got {other:?}"),
        }
    }

    #[test]
    fn qaoa_bundle_rejected() {
        let bundle = qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))
            .unwrap()
            .with_context(fig3_context());
        assert!(matches!(
            AnnealBackend::new().execute(&bundle),
            Err(QmlError::Unsupported(_))
        ));
    }

    #[test]
    fn sweep_and_beta_overrides_respected() {
        let mut anneal = AnnealConfig::with_reads(50);
        anneal.num_sweeps = Some(20);
        anneal.beta_range = Some((0.05, 8.0));
        anneal.seed = Some(3);
        let bundle =
            maxcut_ising_program(&cycle(4))
                .unwrap()
                .with_context(ContextDescriptor::for_anneal(
                    "anneal.neal_simulator",
                    anneal,
                ));
        let result = AnnealBackend::new().execute(&bundle).unwrap();
        assert_eq!(result.shots, 50);
    }
}
