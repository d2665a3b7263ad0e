//! The paper's proof of concept, regenerated and checked in one run.
//!
//! [`repro`] runs experiments E1–E7 — the paper's figures, listings and
//! claims — prints a paper-vs-measured summary, and asserts each claim: a
//! miss panics, so the `repro` binary exits non-zero and the crate's test
//! fails. The ablations A1–A4 follow as printed, seeded tables; they are
//! explorations, not claims, and assert nothing.

use std::collections::BTreeSet;
use std::io::{self, Write};

use qml_core::backends::{lower_to_circuit, Backend, GateBackend};
use qml_core::graph::{all_optimal_bitstrings, brute_force, complete, cycle, random_gnp, Graph};
use qml_core::prelude::*;
use qml_core::qec::{QecService, RepetitionCode};
use qml_core::sim::Gate;
use qml_core::types::QecConfig;

use crate::{
    anneal_context, expected_cut, fig2_job, fig3_job, gate_context, listing1_job, qaoa_grid_search,
    run_anneal, run_gate,
};

/// Run every experiment and ablation, writing the summary to `out`.
///
/// # Panics
///
/// When a measured value misses the paper's claim; the message names the
/// experiment (`E1: ...`).
pub fn repro(out: &mut impl Write) -> io::Result<()> {
    let graph = cycle(4);
    let (optimal_cut, optimal_assignments) = all_optimal_bitstrings(&graph);
    let optimal: BTreeSet<&str> = ["0101", "1010"].into();

    header(out, "E1 (Fig. 2) - Max-Cut QAOA gate path")?;
    let gate = run_gate(&fig2_job(4096));
    let metrics = gate.gate_metrics.unwrap();
    let gate_cut = expected_cut(&graph, &gate);
    writeln!(out, "engine {}, shots {}", gate.engine, gate.shots)?;
    writeln!(
        out,
        "transpiled to [sx, rz, cx] on the 4-qubit ring: {} gates, {} two-qubit, depth {}, swaps {}",
        metrics.total_gates, metrics.two_qubit_gates, metrics.depth, metrics.swaps_inserted
    )?;
    writeln!(
        out,
        "fixed ring angles: P(1010) = {:.3}, P(0101) = {:.3}, expected cut = {gate_cut:.2}",
        gate.probability("1010"),
        gate.probability("0101"),
    )?;
    let mut ranked: Vec<(&str, u64)> = gate.counts.iter().map(|(w, &n)| (w, n)).collect();
    ranked.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    assert_eq!(
        ranked[..2].iter().map(|&(w, _)| w).collect::<BTreeSet<_>>(),
        optimal,
        "E1: the two most frequent words are not the optimal cuts: {ranked:?}"
    );
    assert_eq!(
        metrics.swaps_inserted, 0,
        "E1: the ring target needs no swaps"
    );
    assert!(
        (2.9..=3.1).contains(&gate_cut),
        "E1: expected cut {gate_cut} is outside [2.9, 3.1]"
    );

    header(
        out,
        "E3 (Section 5 claim) - tuned p=1 expected cut vs paper's 3.0-3.2",
    )?;
    let (gamma, beta, tuned) = qaoa_grid_search(&graph, 24, 4096);
    writeln!(out, "best grid angles gamma = {gamma:.3}, beta = {beta:.3}")?;
    writeln!(
        out,
        "measured expected cut = {tuned:.2}   (paper: approximately 3.0-3.2; analytic p=1 maximum on a ring: 3.0)"
    )?;
    // The paper's upper end of 3.2 is above the analytic p = 1 maximum of
    // 3/4 of the ring's edges: the band's top is shot noise.
    assert!(
        (2.9..=3.2).contains(&tuned),
        "E3: tuned expected cut {tuned} is outside [2.9, 3.2]"
    );

    header(out, "E2 (Fig. 3) - Max-Cut annealing path")?;
    let anneal = run_anneal(&fig3_job(1000));
    let stats = anneal.energy_stats.unwrap();
    writeln!(out, "engine {}, reads {}", anneal.engine, anneal.shots)?;
    writeln!(
        out,
        "lowest energy {}, ground-state probability {:.2}, expected cut = {:.2}",
        stats.min_energy,
        stats.ground_state_probability,
        expected_cut(&graph, &anneal)
    )?;
    writeln!(
        out,
        "optimal assignments returned by BOTH paths: {:?} (cut = {optimal_cut})  gate: {} / {}  anneal: {} / {}",
        optimal_assignments,
        gate.counts.contains_key("1010"),
        gate.counts.contains_key("0101"),
        anneal.counts.contains_key("1010"),
        anneal.counts.contains_key("0101"),
    )?;
    assert_eq!(stats.min_energy, -4.0, "E2: lowest sampled energy");
    for ground in ["1010", "0101"] {
        assert!(
            anneal.counts.contains_key(ground),
            "E2: ground state {ground} was never sampled"
        );
    }
    assert!(
        stats.ground_state_probability > 0.8,
        "E2: ground-state probability {} is not above 0.8",
        stats.ground_state_probability
    );

    header(
        out,
        "E4 (Listing 1) - 10-qubit QFT through the middle layer",
    )?;
    let listing1 = listing1_job(10_000);
    let n = listing1.total_width() as u64;
    let hint = listing1.operators[0].cost_hint.unwrap();
    let lowered = lower_to_circuit(&listing1).unwrap().circuit;
    let count = |is: fn(&Gate) -> bool| lowered.gates().iter().filter(|g| is(g)).count() as u64;
    let (cp, swap) = (
        count(|g| matches!(g, Gate::Cp(..))),
        count(|g| matches!(g, Gate::Swap(..))),
    );
    let qft = run_gate(&listing1);
    let qft_metrics = qft.gate_metrics.unwrap();
    let observed: u64 = qft.counts.values().sum();
    writeln!(
        out,
        "shots {}, distinct outcomes {}, transpiled twoq {}, depth {}, swaps {}",
        qft.shots,
        qft.counts.len(),
        qft_metrics.two_qubit_gates,
        qft_metrics.depth,
        qft_metrics.swaps_inserted
    )?;
    writeln!(
        out,
        "lowered: {cp} controlled phases, {swap} swaps; descriptor cost hint (Listing 3 style): twoq {}, depth {}",
        hint.twoq.unwrap_or(0),
        hint.depth.unwrap_or(0)
    )?;
    assert_eq!(cp, n * (n - 1) / 2, "E4: controlled phases in QFT(10)");
    assert_eq!(swap, n / 2, "E4: swaps in QFT(10)");
    assert_eq!(
        hint.twoq,
        Some(2 * cp + 3 * swap),
        "E4: cost hint twoq is not 2 per cp + 3 per swap"
    );
    assert_eq!(
        qft.counts.len(),
        1 << n,
        "E4: QFT|0> is uniform, every outcome must be observed"
    );
    assert_eq!(observed, 10_000, "E4: counts must sum to the shots");

    header(out, "E5 (Listings 2-5) - descriptor round trip")?;
    let with_qec = |job: JobBundle| {
        let ctx = job.context.clone().unwrap().with_qec(QecConfig::surface(7));
        job.with_context(ctx)
    };
    for (name, bundle) in [
        ("Fig. 2", fig2_job(4096)),
        ("Fig. 3", fig3_job(1000)),
        ("Listing 1", listing1_job(10_000)),
        ("Fig. 2 + surface-7 QEC", with_qec(fig2_job(4096))),
    ] {
        let json = bundle.to_json().unwrap();
        let back = JobBundle::from_json(&json).unwrap();
        writeln!(
            out,
            "{name}: job.json = {} bytes, {} operators, round-trip identical = {}",
            json.len(),
            bundle.operators.len(),
            back == bundle
        )?;
        assert!(back == bundle, "E5: the {name} bundle does not round-trip");
    }

    header(
        out,
        "E6 (Fig. 1) - context swap through the runtime scheduler",
    )?;
    let runtime = Runtime::with_default_backends();
    let gate_id = runtime
        .submit(
            qaoa_maxcut_program(&graph, &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))
                .unwrap()
                .with_context(gate_context(2048, 4)),
        )
        .unwrap();
    let anneal_id = runtime
        .submit(
            maxcut_ising_program(&graph)
                .unwrap()
                .with_context(anneal_context(1000)),
        )
        .unwrap();
    let g = runtime.run_job(gate_id).unwrap();
    let a = runtime.run_job(anneal_id).unwrap();
    let anneal_cut = expected_cut(&graph, &a);
    writeln!(
        out,
        "same intent family, swapped context: {} -> cut {:.2}   {} -> cut {anneal_cut:.2}",
        g.backend,
        expected_cut(&graph, &g),
        a.backend,
    )?;
    assert_ne!(
        g.backend, a.backend,
        "E6: the contexts alone must place the jobs on different backends"
    );
    for (plane, result) in [("gate", &g), ("anneal", &a)] {
        for word in &optimal {
            assert!(
                result.counts.contains_key(word),
                "E6: the {plane} result never returned {word}"
            );
        }
    }
    assert_eq!(anneal_cut, 4.0, "E6: anneal expected cut");

    header(out, "E7 (Listing 5) - QEC as context")?;
    let plain = run_gate(&fig2_job(2048));
    let protected = run_gate(&with_qec(fig2_job(2048)));
    let estimate = protected.qec_estimate.unwrap();
    writeln!(
        out,
        "counts unchanged by QEC context: {}",
        plain.counts == protected.counts
    )?;
    assert!(
        plain.counts == protected.counts,
        "E7: the QEC context changed the counts"
    );
    writeln!(
        out,
        "distance-7 surface code estimate: {} physical qubits, {} syndrome rounds, P(fail) = {:.2e}",
        estimate.physical_qubits, estimate.syndrome_rounds, estimate.workload_failure_probability
    )?;
    writeln!(
        out,
        "surface-code scaling (p = 1e-3): d -> physical/logical, p_L"
    )?;
    let mut previous_rate = f64::INFINITY;
    for d in [3usize, 5, 7, 9, 11] {
        let service = QecService::from_config(&QecConfig::surface(d)).unwrap();
        let (physical, rate) = (
            service.physical_qubits_per_logical(),
            service.logical_error_rate(),
        );
        writeln!(out, "  d = {d:>2}: {physical:>4}, {rate:.3e}")?;
        assert_eq!(physical, 2 * d * d - 1, "E7: physical qubits at d = {d}");
        assert!(
            rate < previous_rate,
            "E7: logical error rate does not fall at d = {d}"
        );
        previous_rate = rate;
    }
    let (p, trials) = (0.05, 100_000u64);
    writeln!(
        out,
        "repetition-code demonstrator (p = {p}): d -> analytic, monte carlo"
    )?;
    for d in [1usize, 3, 5, 7] {
        let code = RepetitionCode::new(d);
        let analytic = code.analytic_logical_error_rate(p);
        let simulated = code.simulate_logical_error_rate(p, trials, 7);
        writeln!(out, "  d = {d}: {analytic:.5}, {simulated:.5}")?;
        let sigma = (analytic * (1.0 - analytic) / trials as f64).sqrt();
        assert!(
            (simulated - analytic).abs() <= 4.0 * sigma,
            "E7: at d = {d} the Monte Carlo rate {simulated} is more than 4 sigma from {analytic}"
        );
    }

    ablation_cost_hints(out)?;
    ablation_qaoa_layers(out)?;
    ablation_anneal_schedule(out)?;
    ablation_routing(out)?;

    writeln!(out, "\nAll experiments completed.")
}

fn header(out: &mut impl Write, title: &str) -> io::Result<()> {
    writeln!(out, "\n=== {title} ===")
}

/// A gate context on the Aer-like engine: 128 shots, seeded, level `level`.
fn small_gate_exec(level: u8) -> ExecConfig {
    ExecConfig::new("gate.aer_simulator")
        .with_samples(128)
        .with_seed(42)
        .with_optimization_level(level)
}

/// A1: descriptor-level cost hints vs the transpiled reality across QFT
/// widths and optimization levels (Listing 3 quotes "roughly 45 two-qubit
/// gates and depth near 100" for the 10-qubit QFT).
fn ablation_cost_hints(out: &mut impl Write) -> io::Result<()> {
    header(
        out,
        "A1 (ablation_cost_hints) - cost hints vs transpiled reality",
    )?;
    writeln!(
        out,
        "width, opt-level -> hint(twoq, depth) vs realized(twoq, depth)"
    )?;
    for width in [4usize, 6, 8, 10, 12] {
        for level in [0u8, 2] {
            let bundle = qft_program(width, QftParams::default()).unwrap();
            let hint = bundle.operators[0].cost_hint.unwrap();
            let job = bundle.with_context(ContextDescriptor::for_gate(
                small_gate_exec(level).with_target(Target::linear(width)),
            ));
            let m = GateBackend::new()
                .execute(&job)
                .unwrap()
                .gate_metrics
                .unwrap();
            writeln!(
                out,
                "  n = {width:>2}, O{level}: hint = ({:>4}, {:>4}), realized = ({:>4}, {:>4})",
                hint.twoq.unwrap_or(0),
                hint.depth.unwrap_or(0),
                m.two_qubit_gates,
                m.depth
            )?;
        }
    }
    Ok(())
}

/// A2: expected cut vs the number of QAOA layers p on several graph
/// families, at the fixed ring angles, against the brute-force optimum.
fn ablation_qaoa_layers(out: &mut impl Write) -> io::Result<()> {
    header(
        out,
        "A2 (ablation_qaoa_layers) - expected cut vs QAOA depth",
    )?;
    writeln!(
        out,
        "graph: optimum | expected cut at p = 1..3 (fixed ring angles)"
    )?;
    let instances = [
        ("C4", cycle(4)),
        ("C6", cycle(6)),
        ("K4", complete(4)),
        ("G(8,0.5)", random_gnp(8, 0.5, 7)),
    ];
    for (name, graph) in &instances {
        let cuts: Vec<String> = (1..=3)
            .map(|layers| {
                let schedule = QaoaSchedule::Fixed(vec![RING_P1_ANGLES; layers]);
                let job = qaoa_maxcut_program(graph, &schedule)
                    .unwrap()
                    .with_context(gate_context(1024, graph.num_nodes()));
                format!("{:.2}", expected_cut(graph, &run_gate(&job)))
            })
            .collect();
        writeln!(
            out,
            "  {name:>9}: opt = {:.1} | {}",
            brute_force(graph).value,
            cuts.join(", ")
        )?;
    }
    Ok(())
}

/// A3: annealer solution quality vs `num_reads` and sweeps on the paper's
/// C4 instance and a larger random graph.
fn ablation_anneal_schedule(out: &mut impl Write) -> io::Result<()> {
    header(
        out,
        "A3 (ablation_anneal_schedule) - annealer reads and sweeps",
    )?;
    writeln!(
        out,
        "graph, reads, sweeps -> expected cut (optimum), ground-state probability"
    )?;
    let instances: [(&str, Graph); 2] = [("C4", cycle(4)), ("G(12,0.3)", random_gnp(12, 0.3, 9))];
    for (name, graph) in &instances {
        let optimum = brute_force(graph).value;
        for reads in [10u64, 100, 1000] {
            for sweeps in [10u64, 100, 1000] {
                let mut cfg = AnnealConfig::with_reads(reads);
                cfg.num_sweeps = Some(sweeps);
                cfg.seed = Some(42);
                let job = maxcut_ising_program(graph)
                    .unwrap()
                    .with_context(ContextDescriptor::for_anneal("anneal.neal_simulator", cfg));
                let result = run_anneal(&job);
                writeln!(
                    out,
                    "  {name:>9}, reads = {reads:>4}, sweeps = {sweeps:>4}: cut = {:.2} (opt {optimum:.1}), P(ground) = {:.2}",
                    expected_cut(graph, &result),
                    result.energy_stats.unwrap().ground_state_probability
                )?;
            }
        }
    }
    Ok(())
}

/// A4: routing overhead of QFT(10) and QAOA(C4) on all-to-all, linear and
/// ring coupling maps — the context's `target` block is the only change.
fn ablation_routing(out: &mut impl Write) -> io::Result<()> {
    header(out, "A4 (ablation_routing) - routing overhead per topology")?;
    writeln!(out, "workload, topology -> (twoq, depth, swaps)")?;
    let workloads = [
        ("QFT(10)", qft_program(10, QftParams::default()).unwrap()),
        (
            "QAOA(C4)",
            qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES])).unwrap(),
        ),
    ];
    for (name, bundle) in workloads {
        let width = bundle.total_width();
        for (topology, target) in [
            ("all-to-all", None),
            ("linear", Some(Target::linear(width))),
            ("ring", Some(Target::ring(width))),
        ] {
            let mut exec = small_gate_exec(2);
            if let Some(t) = target {
                exec = exec.with_target(t);
            }
            let job = bundle
                .clone()
                .with_context(ContextDescriptor::for_gate(exec));
            let m = GateBackend::new()
                .execute(&job)
                .unwrap()
                .gate_metrics
                .unwrap();
            writeln!(
                out,
                "  {name:>8}, {topology:>10} -> ({}, {}, {})",
                m.two_qubit_gates, m.depth, m.swaps_inserted
            )?;
        }
    }
    Ok(())
}
