//! A device's basis is part of its context descriptor, and the transpiler
//! honours any basis that can express the circuit: one whose entangler is
//! `cz` runs the same ring QAOA as the paper's `[sx, rz, cx]`, with the same
//! distribution. A basis that cannot express a gate fails that job with
//! `unsupported basis`; it never aborts the process.

use std::time::Duration;

use qml_core::backends::lower_to_circuit;
use qml_core::graph::cycle;
use qml_core::prelude::*;
use qml_core::runtime::JobStatus;
use qml_core::service::{QmlService, ServiceConfig};
use qml_core::sim::Simulator;
use qml_core::transpile::{transpile, CouplingMap, TranspileTarget};

const LEVEL: u8 = 2;

fn ring_qaoa() -> JobBundle {
    qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES])).unwrap()
}

fn on_basis(basis: &[&str]) -> JobBundle {
    let mut target = Target::ring(4);
    target.basis_gates = basis.iter().map(|s| s.to_string()).collect();
    ring_qaoa().with_context(ContextDescriptor::for_gate(
        ExecConfig::new("gate.aer_simulator")
            .with_samples(256)
            .with_seed(7)
            .with_target(target)
            .with_optimization_level(LEVEL),
    ))
}

#[test]
fn a_cz_basis_runs_a_ring_qaoa_with_the_cx_basis_distribution() {
    let service = QmlService::with_config(ServiceConfig::with_workers(2));
    let (_, cx_job) = service.submit("t", on_basis(&["sx", "rz", "cx"])).unwrap();
    let (_, cz_job) = service.submit("t", on_basis(&["cz", "rz", "sx"])).unwrap();
    let report = service.run_pending();
    assert_eq!((report.completed, report.failed), (2, 0));
    for job in [cx_job, cz_job] {
        let status = service.wait_for(job, Duration::from_secs(5));
        assert_eq!(status, Some(JobStatus::Completed));
        assert_eq!(service.result(job).unwrap().shots, 256);
    }

    // The two plans' exact distributions agree.
    let lowered = lower_to_circuit(&ring_qaoa()).unwrap().circuit;
    let distribution = |basis: &[&str]| {
        let target = TranspileTarget {
            basis_gates: basis.iter().map(|s| s.to_string()).collect(),
            coupling_map: Some(CouplingMap::ring(4)),
        };
        let plan = transpile(&lowered, &target, LEVEL).unwrap().circuit;
        assert!(plan.uses_only(&target.basis_gates));
        Simulator::new().exact_distribution(&plan)
    };
    let cx = distribution(&["sx", "rz", "cx"]);
    let cz = distribution(&["cz", "rz", "sx"]);
    for word in cx.keys().chain(cz.keys()) {
        let (p, q) = (cx.get(word).unwrap_or(&0.0), cz.get(word).unwrap_or(&0.0));
        assert!((p - q).abs() < 1e-9, "{word}: {p} under cx, {q} under cz");
    }
}

#[test]
fn a_basis_that_cannot_express_a_gate_fails_the_job() {
    // RZZ lowers to CX·RZ·CX, and this basis has no `rz`.
    let service = QmlService::with_config(ServiceConfig::with_workers(1));
    let (_, job) = service.submit("t", on_basis(&["cx", "h"])).unwrap();
    let report = service.run_pending();
    assert_eq!((report.completed, report.failed), (0, 1));
    match service.wait_for(job, Duration::from_secs(5)) {
        Some(JobStatus::Failed(msg)) => assert!(msg.contains("unsupported basis"), "{msg}"),
        other => panic!("expected a failed job, got {other:?}"),
    }
}
