//! Hash stability is semantics. An unseeded job seeds its sampler from
//! `program_hash`, and plan keys are built from `symbolic_program_hash`, so a
//! hash that drifts — between releases, or between a sealed bundle's
//! memoized value and a fresh computation — changes results.
//!
//! * Golden values pin both hashes of the paper's Fig. 2, Fig. 3 and
//!   Listing 1 programs (and of a symbolic QAOA program, bare and bound).
//! * A property checks that every member of a random sweep, sealed by
//!   `SweepRequest::expand_sealed` with program facts shared between
//!   members, reports exactly the hashes and canonical symbols a fresh
//!   `JobBundle` computes: late and eager bindings, several contexts, renamed
//!   symbols.
//! * Golden values pin the JSON text of three seeded results (Fig. 2's
//!   counts, Fig. 3's, and a 273-word anneal readout), so the wire form of
//!   `ExecutionResult::counts` stays the object a `BTreeMap<String, u64>`
//!   wrote, byte for byte.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use qml_core::graph::cycle;
use qml_core::prelude::*;

/// `(program_hash, symbolic_program_hash)` of each golden program.
const FIG2: (u64, u64) = (0x049d_07cb_2934_d618, 0x049d_07cb_2934_d618);
const FIG3: (u64, u64) = (0x3dbe_292c_1f3f_e8e3, 0x3dbe_292c_1f3f_e8e3);
const LISTING1: (u64, u64) = (0xcb93_bb64_65c7_75ad, 0xcb93_bb64_65c7_75ad);
const SYMBOLIC_QAOA: (u64, u64) = (0x0ed0_dba6_3f8a_a392, 0x5208_ec76_0288_1b7e);
const BOUND_QAOA: (u64, u64) = (0xa37c_7a83_428b_ff51, 0x5208_ec76_0288_1b7e);

fn hashes(bundle: &JobBundle) -> (u64, u64) {
    (bundle.program_hash(), bundle.symbolic_program_hash())
}

fn sealed_hashes(bundle: &JobBundle) -> (u64, u64) {
    let sealed = SealedBundle::seal(bundle.clone()).unwrap();
    (sealed.program_hash(), sealed.symbolic_program_hash())
}

#[test]
fn the_papers_programs_hash_to_their_golden_values() {
    let fig2 = qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))
        .unwrap()
        .with_context(qml_core::backends::listing4_context(Target::ring(4)));
    let fig3 =
        maxcut_ising_program(&cycle(4))
            .unwrap()
            .with_context(ContextDescriptor::for_anneal(
                "anneal.neal_simulator",
                AnnealConfig::with_reads(1000),
            ));
    let listing1 = qft_program(10, QftParams::default()).unwrap();
    let symbolic = qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Symbolic { layers: 1 }).unwrap();
    let bound = symbolic
        .clone()
        .with_bindings(BindingSet::new().with("gamma_0", 0.25).with("beta_0", 0.5));
    for (name, bundle, golden) in [
        ("Fig. 2", &fig2, FIG2),
        ("Fig. 3", &fig3, FIG3),
        ("Listing 1", &listing1, LISTING1),
        ("symbolic QAOA", &symbolic, SYMBOLIC_QAOA),
        ("bound QAOA", &bound, BOUND_QAOA),
    ] {
        assert_eq!(hashes(bundle), golden, "{name}: fresh hashes");
        assert_eq!(sealed_hashes(bundle), golden, "{name}: sealed hashes");
    }
}

/// A symbolic ring QAOA whose symbols are renamed `{prefix}{slot}`.
/// `(length, FNV-1a hash)` of each golden result's `serde_json` text.
const FIG2_JSON: (usize, u64) = (386, 0xb5e8_c02c_ea91_373f);
const FIG3_JSON: (usize, u64) = (224, 0x2992_eeea_9f17_7108);
const C12_ANNEAL_JSON: (usize, u64) = (4848, 0xf3ad_af3d_f25f_cb33);

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn seeded_results_serialize_to_their_golden_json() {
    let fig2 = qaoa_maxcut_program(&cycle(4), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]))
        .unwrap()
        .with_context(qml_core::backends::listing4_context(Target::ring(4)));
    let anneal = |nodes: usize, config: AnnealConfig| {
        let context = ContextDescriptor::for_anneal("anneal.neal_simulator", config);
        maxcut_ising_program(&cycle(nodes))
            .unwrap()
            .with_context(context)
    };
    let fig3 = anneal(4, AnnealConfig::with_reads(1000));
    let c12 = anneal(
        12,
        AnnealConfig {
            seed: Some(5),
            num_sweeps: Some(2),
            ..AnnealConfig::with_reads(500)
        },
    );
    for (name, result, golden) in [
        ("Fig. 2", GateBackend::new().execute(&fig2), FIG2_JSON),
        ("Fig. 3", AnnealBackend::new().execute(&fig3), FIG3_JSON),
        (
            "C12 anneal",
            AnnealBackend::new().execute(&c12),
            C12_ANNEAL_JSON,
        ),
    ] {
        let result = result.unwrap();
        let json = serde_json::to_string(&result).unwrap();
        assert_eq!(
            (json.len(), fnv1a(json.as_bytes())),
            golden,
            "{name}: {json}"
        );
        let back: ExecutionResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back, result, "{name} round-trips");
        let as_map: BTreeMap<String, u64> =
            serde_json::from_str(&serde_json::to_string(&result.counts).unwrap()).unwrap();
        assert!(
            as_map == result.counts,
            "{name}: the counts read back as a map"
        );
    }
}

fn renamed_qaoa(nodes: usize, layers: usize, prefix: &str) -> JobBundle {
    let base = qaoa_maxcut_program(&cycle(nodes), &QaoaSchedule::Symbolic { layers }).unwrap();
    let rename: BTreeMap<String, ParamValue> = base
        .canonical_symbols()
        .into_iter()
        .enumerate()
        .map(|(slot, name)| (name, ParamValue::symbol(format!("{prefix}{slot}"))))
        .collect();
    base.bind(&rename)
}

fn gate_context(seed: Option<u64>, level: u8) -> ContextDescriptor {
    let exec = ExecConfig::new("gate.aer_simulator")
        .with_samples(16)
        .with_optimization_level(level);
    ContextDescriptor::for_gate(match seed {
        Some(seed) => exec.with_seed(seed),
        None => exec,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every sealed sweep member's memoized hashes equal a fresh bundle's.
    #[test]
    fn sealed_sweep_members_hash_like_fresh_bundles(
        nodes in 3usize..7,
        layers in 1usize..3,
        prefix in "[a-z]{1,6}",
        points in 1usize..5,
        contexts in 0usize..4,
        eager_every in 1usize..4,
        angle in -3.0f64..3.0,
    ) {
        let base = renamed_qaoa(nodes, layers, &prefix);
        let symbols = base.canonical_symbols();
        let mut sweep = SweepRequest::new("prop", base);
        for point in 0..points {
            // Every binding binds all angles (late); some also carry an
            // entry no operator uses, which takes the eager path.
            let mut binding: BTreeMap<String, ParamValue> = symbols
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    let value = angle + 0.1 * (point * symbols.len() + i) as f64;
                    (name.clone(), ParamValue::Float(value))
                })
                .collect();
            if point % eager_every == 0 {
                binding.insert("unused".into(), ParamValue::Int(point as i64));
            }
            sweep = sweep.with_binding_set(binding);
        }
        for c in 0..contexts {
            let seed = (c % 2 == 0).then_some(c as u64);
            sweep = sweep.with_context(gate_context(seed, c as u8));
        }

        let sealed = sweep.expand_sealed().unwrap();
        let plain = sweep.expand().unwrap();
        prop_assert_eq!(sealed.len(), points * contexts.max(1));
        prop_assert_eq!(sealed.len(), plain.len());
        for (i, (member, fresh)) in sealed.iter().zip(&plain).enumerate() {
            prop_assert_eq!(&**member, fresh);
            // Alternate which memo is filled first.
            if i % 2 == 0 {
                prop_assert_eq!(member.program_hash(), fresh.program_hash());
                prop_assert_eq!(member.symbolic_program_hash(), fresh.symbolic_program_hash());
            } else {
                prop_assert_eq!(member.symbolic_program_hash(), fresh.symbolic_program_hash());
                prop_assert_eq!(member.program_hash(), fresh.program_hash());
            }
            let symbols = fresh.canonical_symbols();
            prop_assert_eq!(member.canonical_symbols(), symbols.as_slice());
        }
        // Renaming the symbols never changes the symbolic program.
        let canonical = renamed_qaoa(nodes, layers, "s").symbolic_program_hash();
        prop_assert_eq!(sealed[0].symbolic_program_hash(), canonical);
    }

    /// Eagerly bound structural symbols make distinct programs per point;
    /// members sealed next to a sibling with another program must not
    /// inherit its hashes.
    #[test]
    fn eagerly_bound_members_keep_their_own_hashes(
        width in 2usize..7,
        degrees in proptest::collection::vec(0u64..3, 1..5),
        contexts in 0usize..3,
    ) {
        let mut base = qft_program(width, QftParams::default()).unwrap();
        Arc::make_mut(&mut base.operators)[0].params.insert("approx_degree", ParamValue::symbol("d"));
        let mut sweep = SweepRequest::new("degrees", base);
        for degree in &degrees {
            let mut binding = BTreeMap::new();
            binding.insert("d".to_string(), ParamValue::Int(*degree as i64));
            sweep = sweep.with_binding_set(binding);
        }
        for c in 0..contexts {
            sweep = sweep.with_context(gate_context(Some(c as u64), 1));
        }
        let sealed = sweep.expand_sealed().unwrap();
        for member in &sealed {
            let fresh = JobBundle::clone(member);
            prop_assert!(fresh.bindings.is_none(), "structural symbols bind eagerly");
            prop_assert_eq!(member.program_hash(), fresh.program_hash());
            prop_assert_eq!(member.symbolic_program_hash(), fresh.symbolic_program_hash());
        }
    }
}
