//! Integration tests for the allocation-free execute hot path (PR 7).
//!
//! The tentpole invariant: **overlay-bind == clone-bind, bit for bit**. A
//! [`BoundCircuit`](qml_core::sim::BoundCircuit) overlay over the shared plan
//! circuit must produce exactly the counts the old clone-and-rewrite path
//! produced for identical seeds — across optimization levels, shot ladders,
//! and both backend planes — and the cache counters must be unaffected by
//! how binding is implemented.

use std::collections::BTreeMap;

use proptest::prelude::*;

use qml_core::backends::{
    lower_to_circuit, AnnealBackend, Backend, GateBackend, GatePlan, TranspileCache,
};
use qml_core::graph::cycle;
use qml_core::prelude::*;
use qml_core::sim::Simulator;
use qml_core::transpile::{transpile, TranspileTarget};
use qml_core::types::{BindingSet, ParamValue};

fn gate_context(seed: u64, samples: u64, level: u8) -> ContextDescriptor {
    ContextDescriptor::for_gate(
        ExecConfig::new("gate.aer_simulator")
            .with_samples(samples)
            .with_seed(seed)
            .with_target(Target::ring(4))
            .with_optimization_level(level),
    )
}

fn symbolic_qaoa() -> JobBundle {
    qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Symbolic { layers: 1 }).unwrap()
}

/// Transpile the symbolic QAOA program into a parametric [`GatePlan`] the
/// way the gate backend does, at the given optimization level.
fn qaoa_plan(level: u8) -> GatePlan {
    let lowered = lower_to_circuit(&symbolic_qaoa()).unwrap();
    let transpiled = transpile(&lowered.circuit, &TranspileTarget::ideal(), level).unwrap();
    GatePlan::new(
        transpiled.circuit,
        lowered.symbols,
        transpiled.metrics,
        lowered.register,
        lowered.schema,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Plan-level property: for random bindings, seeds, shot counts, and
    /// every optimization level, sampling through the zero-copy overlay
    /// reproduces the materialized clone-bound circuit bit for bit.
    #[test]
    fn overlay_bind_matches_clone_bind_bit_for_bit(
        gamma in -3.0f64..3.0,
        beta in -3.0f64..3.0,
        seed in 0u64..1000,
        shots in 1u64..2048,
        level in 0u8..4,
    ) {
        let plan = qaoa_plan(level);
        prop_assert!(plan.is_parametric());
        let values = [gamma, beta];

        let cloned = plan.bind(&values).unwrap();
        let overlay = plan.bind_overlay(&values).unwrap();
        prop_assert_eq!(&overlay.to_circuit(), &cloned);

        let sim = Simulator::new();
        let via_clone = sim.run(&cloned, shots, seed);
        let via_overlay = sim.try_run_view(&overlay, shots, seed).unwrap();
        prop_assert_eq!(via_clone, via_overlay);
    }

    /// End-to-end gate plane: the cached (overlay) pipeline matches the
    /// uncached pipeline — counts, their on-demand decode, metrics — and the cache
    /// counters reflect lookups, not binding strategy.
    #[test]
    fn gate_plane_cached_overlay_matches_direct(
        gamma in -3.0f64..3.0,
        beta in -3.0f64..3.0,
        seed in 0u64..1000,
        level in 0u8..4,
    ) {
        let backend = GateBackend::new();
        let cache = TranspileCache::new();
        let readout = lower_to_circuit(&symbolic_qaoa()).unwrap();
        let decode = |counts: &Counts| {
            DecodedCounts::decode(counts, &readout.schema, &readout.register)
        };
        for (i, shots) in [64u64, 256, 1024].into_iter().enumerate() {
            let bundle = symbolic_qaoa()
                .with_bindings(
                    BindingSet::new().with("gamma_0", gamma).with("beta_0", beta),
                )
                .with_context(gate_context(seed, shots, level));
            let cached = backend.execute_cached(&bundle, &cache).unwrap();
            let direct = backend.execute(&bundle).unwrap();
            prop_assert_eq!(&cached.counts, &direct.counts);
            prop_assert_eq!(decode(&cached.counts).unwrap(), decode(&direct.counts).unwrap());
            prop_assert_eq!(cached.gate_metrics, direct.gate_metrics);
            prop_assert_eq!(cached.shots, shots);
            let stats = cache.gate_stats();
            // The shot ladder shares one plan: 1 miss, then only hits.
            prop_assert_eq!(stats.misses, 1);
            prop_assert_eq!(stats.hits, i as u64);
        }
    }
}

/// Anneal plane: a read ladder through the cached path matches the uncached
/// path exactly and shares one lowered plan — binding strategy on the gate
/// plane must not disturb the BQM plane.
#[test]
fn anneal_plane_cached_matches_direct_across_read_ladder() {
    let backend = AnnealBackend::new();
    let cache = TranspileCache::new();
    for (i, reads) in [50u64, 100, 200, 400].into_iter().enumerate() {
        let mut anneal = AnnealConfig::with_reads(reads);
        anneal.seed = Some(11);
        let bundle =
            maxcut_ising_program(&cycle(4))
                .unwrap()
                .with_context(ContextDescriptor::for_anneal(
                    "anneal.neal_simulator",
                    anneal,
                ));
        let cached = backend.execute_cached(&bundle, &cache).unwrap();
        let direct = backend.execute(&bundle).unwrap();
        assert_eq!(cached, direct, "read ladder member {i}");
        assert_eq!(cached.shots, reads);
    }
    let stats = cache.anneal_stats();
    assert_eq!(stats.misses, 1, "one BQM lowering for the whole ladder");
    assert_eq!(stats.hits, 3);
}

/// A full binding grid through the service still produces distinct
/// distributions per point (the overlay really reaches the simulator).
#[test]
fn overlay_bound_sweep_points_stay_distinct() {
    let backend = GateBackend::new();
    let cache = TranspileCache::new();
    let mut distinct = std::collections::BTreeSet::new();
    for gi in 1..=3 {
        let mut bindings = BTreeMap::new();
        bindings.insert(
            "gamma_0".to_string(),
            ParamValue::Float(std::f64::consts::PI * gi as f64 / 8.0),
        );
        bindings.insert("beta_0".to_string(), ParamValue::Float(0.4));
        let bundle = symbolic_qaoa()
            .with_bindings(BindingSet::from_param_values(&bindings))
            .with_context(gate_context(42, 512, 2));
        distinct.insert(backend.execute_cached(&bundle, &cache).unwrap().counts);
    }
    assert!(
        distinct.len() > 1,
        "angle grid collapsed to one distribution"
    );
}
