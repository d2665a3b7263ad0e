//! Integration test E5: the verbatim JSON artifacts of the paper's Listings
//! 2–5 parse, validate, and are reproduced by the library's own builders.

use qml_core::prelude::*;
use qml_core::types::{OperatorDescriptor, QecConfig};

/// Listing 2 — quantum data type for the QFT phase register.
const LISTING_2: &str = r#"{
    "$schema": "qdt-core.schema.json",
    "id": "reg_phase",
    "name": "phase",
    "width": 10,
    "encoding_kind": "PHASE_REGISTER",
    "bit_order": "LSB_0",
    "measurement_semantics": "AS_PHASE",
    "phase_scale": "1/1024"
}"#;

/// Listing 3 — operator descriptor for the QFT.
const LISTING_3: &str = r#"{
    "$schema": "qod.schema.json",
    "name": "QFT",
    "rep_kind": "QFT_TEMPLATE",
    "domain_qdt": "reg_phase",
    "codomain_qdt": "reg_phase",
    "params": { "approx_degree": 0, "do_swaps": true, "inverse": false },
    "cost_hint": { "twoq": 45, "depth": 100 },
    "result_schema": {
        "basis": "Z",
        "datatype": "AS_PHASE",
        "bit_significance": "LSB_0",
        "clbit_order": [
            "reg_phase[0]", "reg_phase[1]", "reg_phase[2]",
            "reg_phase[3]", "reg_phase[4]", "reg_phase[5]",
            "reg_phase[6]", "reg_phase[7]", "reg_phase[8]",
            "reg_phase[9]"
        ]
    }
}"#;

/// Listing 4 — context descriptor selecting the Aer-like simulator.
const LISTING_4: &str = r#"{
    "$schema": "ctx.schema.json",
    "exec": {
        "engine": "gate.aer_simulator",
        "samples": 4096,
        "seed": 42,
        "target": {
            "basis_gates": ["sx", "rz", "cx"],
            "coupling_map": [[0,1],[1,2],[2,3],[3,4],[4,5],[5,6],[6,7],[7,8],[8,9]]
        },
        "options": { "optimization_level": 2 }
    }
}"#;

/// Listing 5 — error-correction policy in the QEC context.
const LISTING_5: &str = r#"{
    "$schema": "ctx.schema.json",
    "exec": { "engine": "gate.aer_simulator" },
    "qec": {
        "code_family": "surface",
        "distance": 7,
        "allocator": "auto",
        "logical_gate_set": ["H", "S", "CNOT", "T", "MEASURE_Z"]
    },
    "extensions": {}
}"#;

#[test]
fn listing2_parses_and_matches_the_builder() {
    let parsed: QuantumDataType = serde_json::from_str(LISTING_2).unwrap();
    parsed.validate().unwrap();
    let built = QuantumDataType::phase_register("reg_phase", "phase", 10).unwrap();
    assert_eq!(parsed, built);
}

#[test]
fn listing3_parses_and_matches_the_qft_library() {
    let parsed: OperatorDescriptor = serde_json::from_str(LISTING_3).unwrap();
    parsed.validate().unwrap();
    let register: QuantumDataType = serde_json::from_str(LISTING_2).unwrap();
    parsed.validate_against(&register, &register).unwrap();

    // The library's own QFT constructor produces the same intent fields; only
    // the cost hint differs (ours is computed rather than quoted).
    let bundle = qft_program(10, QftParams::default()).unwrap();
    let library = &bundle.operators[0];
    assert_eq!(library.rep_kind, parsed.rep_kind);
    assert_eq!(library.domain_qdt, parsed.domain_qdt);
    assert_eq!(library.codomain_qdt, parsed.codomain_qdt);
    assert_eq!(library.params, parsed.params);
    assert_eq!(library.result_schema, parsed.result_schema);
}

#[test]
fn listing4_parses_and_matches_the_context_builders() {
    let parsed: ContextDescriptor = serde_json::from_str(LISTING_4).unwrap();
    parsed.validate().unwrap();
    let exec = parsed.exec.as_ref().unwrap();
    assert_eq!(exec.engine, "gate.aer_simulator");
    assert_eq!(exec.samples, 4096);
    assert_eq!(exec.seed, Some(42));
    assert_eq!(exec.options.optimization_level, 2);
    let target = exec.target.as_ref().unwrap();
    assert_eq!(target.coupling_map, Target::linear(10).coupling_map);
    assert_eq!(target.basis_gates, vec!["sx", "rz", "cx"]);
}

#[test]
fn listing5_parses_and_matches_the_surface_policy() {
    let parsed: ContextDescriptor = serde_json::from_str(LISTING_5).unwrap();
    parsed.validate().unwrap();
    assert_eq!(parsed.qec.as_ref().unwrap(), &QecConfig::surface(7));
}

#[test]
fn listings_survive_a_full_bundle_round_trip() {
    // Package Listing 2 + Listing 3 + Listing 4 into a job.json and round-trip.
    let qdt: QuantumDataType = serde_json::from_str(LISTING_2).unwrap();
    let qod: OperatorDescriptor = serde_json::from_str(LISTING_3).unwrap();
    let ctx: ContextDescriptor = serde_json::from_str(LISTING_4).unwrap();
    let bundle = JobBundle::new("listing-bundle", vec![qdt], vec![qod]).with_context(ctx);
    bundle.validate().unwrap();
    let json = bundle.to_json().unwrap();
    let back = JobBundle::from_json(&json).unwrap();
    assert_eq!(back, bundle);
    for token in [
        "qdt-core.schema.json",
        "qod.schema.json",
        "ctx.schema.json",
        "QFT_TEMPLATE",
        "AS_PHASE",
        "1/1024",
    ] {
        assert!(
            json.contains(token),
            "serialized bundle is missing `{token}`"
        );
    }
}

#[test]
fn listing_bundle_executes_on_the_gate_backend() {
    // The paper's artifacts are not just parseable — they run. The Listing 3
    // descriptor carries its own result schema, so it is executable as-is
    // (the QFT template measurement is explicit in the bundle we add).
    let qdt: QuantumDataType = serde_json::from_str(LISTING_2).unwrap();
    let qod: OperatorDescriptor = serde_json::from_str(LISTING_3).unwrap();
    let meas = qml_core::algorithms::qft::qft_measurement(&qdt).unwrap();
    let ctx: ContextDescriptor = serde_json::from_str(LISTING_4).unwrap();
    let bundle = JobBundle::new("listing-exec", vec![qdt], vec![qod, meas]).with_context(ctx);
    let runtime = Runtime::with_default_backends();
    let id = runtime.submit(bundle).unwrap();
    let result = runtime.run_job(id).unwrap();
    assert_eq!(result.shots, 4096);
    assert_eq!(result.engine, "gate.aer_simulator");
}
