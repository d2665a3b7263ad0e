//! Exact counters as one table. Each row of [`BUDGETS`] builds a scenario
//! from the public API, sized like a perfbench workload, and reads one
//! counter: allocations, blocks of one size, gates, fused ops, plan sites or
//! cache hits. A row states the values it must read exactly; where a count
//! follows the words a sample happens to draw or the machine's thread count,
//! the row states its formula and the band the formula must fall in. Each row
//! also names a change to the library that breaks it. [`check`] runs rows
//! and reports every row that fails, so a moved counter is a one-line diff
//! of this table. ARCHITECTURE.md cites the rows by name.
//!
//! `tests/budgets.rs` runs every row (`cargo test --test budgets`). Each
//! older counter binary (`tests/sealed_alloc.rs`, `tests/apply_no_alloc.rs`,
//! ...) keeps its one test name and runs the rows that replaced its
//! assertions.
//!
//! Allocations are counted by the `#[global_allocator]` below. While a
//! measurement is open it counts every `alloc`/`alloc_zeroed`/`realloc`, on
//! any thread, and on their own the blocks of one watched size allocated,
//! freed on the measuring thread and freed on any other. So "no circuit
//! clone" reads as "no block of `plan.len() × size_of::<Gate>()` bytes",
//! "one amplitude buffer" as "one block of 2ⁿ × 16 bytes", and "no worker
//! frees a bundle" as "no block of the bundles' name length freed off the
//! measuring thread". Every binary that includes this module holds one
//! test, so no concurrent test disturbs a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::catch_unwind;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex, OnceLock};

use rand::rngs::StdRng;
use rand::SeedableRng;

use qml_core::anneal::{AnnealParams, BinaryQuadraticModel, SimulatedAnnealer};
use qml_core::backends::{lower_to_bqm, lower_to_circuit, GatePlan, TranspileCache};
use qml_core::graph::{cycle, random_gnp};
use qml_core::prelude::*;
use qml_core::runtime::{JobDispatch, JobId, JobOutcome, JobSource, Placement, WorkerPool};
use qml_core::service::ServiceConfig;
use qml_core::sim::{
    fused_op_count, BoundCircuit, Circuit, CircuitView, Complex64, Gate, ParamExpr, SimScratch,
    Simulator, StateVector, PARALLEL_THRESHOLD,
};
use qml_core::transpile::{
    decompose_to_basis, optimize, route, transpile, CouplingMap, TranspileResult, TranspileTarget,
};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// The watched block size; 0 watches nothing.
static WATCH: AtomicUsize = AtomicUsize::new(0);
static WATCHED: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);
static FREED_ELSEWHERE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the thread that opened the measurement. Constant-initialized
    /// and without a destructor, so the allocator may read it at any time.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

// Relaxed throughout: flags and statistics, publishing no other data.
fn note_alloc(size: usize) {
    if COUNTING.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        if size == WATCH.load(Relaxed) {
            WATCHED.fetch_add(1, Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        // SAFETY: the caller guarantees `ptr` came from this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Relaxed) && layout.size() == WATCH.load(Relaxed) {
            let here = MEASURING.try_with(Cell::get).unwrap_or(false);
            let freed = if here { &FREED } else { &FREED_ELSEWHERE };
            freed.fetch_add(1, Relaxed);
        }
        // SAFETY: the caller guarantees `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and count what it allocates, watching blocks of `watch` bytes:
/// `[allocations, watched blocks allocated, watched blocks freed on this
/// thread, watched blocks freed on other threads]`.
fn tally<R>(watch: usize, f: impl FnOnce() -> R) -> (R, [u64; 4]) {
    let counters = [&ALLOCS, &WATCHED, &FREED, &FREED_ELSEWHERE];
    for counter in counters {
        counter.store(0, Relaxed);
    }
    WATCH.store(watch, Relaxed);
    MEASURING.set(true);
    COUNTING.store(true, Relaxed);
    let out = f();
    COUNTING.store(false, Relaxed);
    MEASURING.set(false);
    (out, counters.map(|c| c.load(Relaxed)))
}

/// Run `f` and count its allocations.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let (out, [allocs, ..]) = tally(0, f);
    (out, allocs)
}

/// What a row's readings must be.
#[derive(Debug)]
enum Want {
    /// Exactly these readings, in order.
    Exact(&'static [u64]),
    /// Every reading within `lo..=hi`: a count that follows the sampled
    /// words or the machine's thread count, read through the formula the
    /// row's counter states; or a measured count kept under a stated margin.
    Each(u64, u64),
}

impl Want {
    fn holds(&self, readings: &[u64]) -> bool {
        match *self {
            Want::Exact(values) => readings == values,
            Want::Each(lo, hi) => {
                !readings.is_empty() && readings.iter().all(|r| (lo..=hi).contains(r))
            }
        }
    }
}

struct Budget {
    name: &'static str,
    /// What is read, one reading per case the scenario runs.
    counter: &'static str,
    scenario: fn() -> Vec<u64>,
    want: Want,
    reason: &'static str,
    /// A change to the library that makes the row fail.
    mutant: &'static str,
}

const BUDGETS: &[Budget] = &[
    // Descriptors and the transpiler.
    Budget {
        name: "decoding a compile_cold descriptor costs a pinned count",
        counter: "allocations of `JobBundle::from_json` on the 4-layer G(8, 0.5) job",
        scenario: from_json_allocations,
        want: Want::Exact(&[468]),
        reason: "the value tree and the descriptors; each program slice goes through a `Vec` \
                 (466 before the slices were shared, 1 732 when `ParamValue` copied the tree)",
        mutant: "`from_json` decodes the text a second time, through a re-serialized copy",
    },
    Budget {
        name: "translation and the optimizer allocate per pass, not per gate",
        counter: "allocations of `decompose_to_basis`, then of `optimize` at level 3, at 4 and at 12 QAOA layers",
        scenario: pass_allocations,
        want: Want::Exact(&[2, 2, 8, 8]),
        reason: "one sized output each, plus the optimizer's working buffers (996 / 2 231 and \
                 258 / 430 when the passes allocated per gate)",
        mutant: "translation, or resynthesis, grows its output by doubling instead of sizing it once",
    },
    Budget {
        name: "a plan's gate vector has no spare capacity",
        counter: "blocks of `plan.len() × size_of::<Gate>()` bytes freed when a compile_cold plan drops",
        scenario: plan_vector_frees,
        want: Want::Exact(&[1]),
        reason: "`optimize` trims its output (472 gates once sat in room for 512)",
        mutant: "`optimize` leaves its output untrimmed",
    },
    Budget {
        name: "compile_cold's plan keeps its shape",
        counter: "`transpile.gates_out`, `twoq_out`, `swaps_inserted` of the 4-layer G(8, 0.5) job",
        scenario: cold_plan_metrics,
        want: Want::Exact(&[745, 489, 133]),
        reason: "the cold workload's routing and optimization output, as perfbench reads it",
        mutant: "routing walks a gate's second qubit toward its first instead",
    },
    Budget {
        name: "sweep_warm's plan binds at its sites",
        counter: "`plan.param_sites` of the 2-layer symbolic ring plan on 8 qubits",
        scenario: sweep_warm_param_sites,
        want: Want::Exact(&[32]),
        reason: "one symbolic `rz` per cost edge and per mixer qubit, in each layer",
        mutant: "`rzz` lowers like `cp`, with three symbolic phases",
    },
    // The simulator.
    Budget {
        name: "a gate is 56 bytes",
        counter: "`size_of::<Gate>()`, then `size_of::<ParamExpr>()`",
        scenario: gate_sizes,
        want: Want::Exact(&[56, 32]),
        reason: "plans, transpiler buffers and fused ops hold gates by value, so this is a \
                 cached plan's cost per gate: `Cp` and `Rzz` are the largest variants, two \
                 indices and one `ParamExpr` of an offset, two slots and two coefficients \
                 ([136, 40] when `U` took three `ParamExpr`s of `(slot, coeff)` pairs)",
        mutant: "`U` keeps `ParamExpr` angles (reads [112, 32]), or `ParamExpr` keeps \
                 `(u32, f64)` pairs (reads [64, 40])",
    },
    Budget {
        name: "the workload plans keep their gate counts",
        counter: "`sim.amp_updates` (`gate_count << width`) of the sweep_warm, state_serial, state_parallel and compile_cold plans",
        scenario: amp_updates,
        want: Want::Exact(&[222 << 8, 342 << 12, 462 << 16, 745 << 8]),
        reason: "a job's simulation work, the unit perfbench divides `sim.apply_us` by",
        mutant: "`rzz` lowers like `cp`, with three symbolic phases",
    },
    Budget {
        name: "the serial path fuses a plan to a quarter of its gates",
        counter: "`fused_op_count` of the bound sweep_warm and state_serial plans and the compile_cold plan",
        scenario: fused_ops,
        want: Want::Exact(&[58, 90, 251]),
        reason: "one-qubit runs become one 2×2, `cx·D·cx` one phase pass, three `cx` one swap; \
                 compile_cold's routed plan (745 gates, 133 swaps inserted) fuses to a third",
        mutant: "fusion stops folding `cx(a,b)·D(b)·cx(a,b)` into one pass, or three `cx` into \
                 one `swap` (that one reads [94, 150, 495])",
    },
    Budget {
        name: "applying a plan allocates nothing below the threshold",
        counter: "allocations of `apply_view` over the sweep_warm plan as a `Circuit` and as a `BoundCircuit`",
        scenario: apply_allocations,
        want: Want::Exact(&[0, 0]),
        reason: "kernels and the fusion stage work in place on a reused buffer",
        mutant: "the serial path collects the gates into a `Vec` before fusing them",
    },
    Budget {
        name: "a warm simulator run allocates only what sampling does",
        counter: "allocations of a warm `run_view_with_scratch` on the sweep_warm plan, then of its sampling alone (`sample_with`)",
        scenario: warm_run_and_sampling,
        want: Want::Exact(&[2, 2]),
        reason: "state, CDF, draw and run buffers come from the scratch; the returned `Counts` \
                 is its word arena and its count vector",
        mutant: "`run_view_with_scratch` starts from a fresh `StateVector::zero_state`",
    },
    Budget {
        name: "a scratch holds one amplitude buffer",
        counter: "blocks of 2⁸ × 16 bytes allocated by 8 runs of the sweep_warm plan on a fresh scratch",
        scenario: scratch_amplitude_blocks,
        want: Want::Exact(&[1]),
        reason: "the first run sizes the buffer, every later run reuses it",
        mutant: "`run_view_with_scratch` drops the amplitude buffer after sampling",
    },
    Budget {
        name: "a parallel region costs a few allocations per thread",
        counter: "⌈(allocations of a one-gate `apply_view` at 16 qubits − 2) / threads⌉",
        scenario: wide_region_per_thread,
        want: Want::Each(0, 5),
        reason: "the stand-in's block list and scope, then 5 per scoped spawn (2 threads here)",
        mutant: "the rayon stand-in names each thread it spawns",
    },
    Budget {
        name: "above the threshold threads start once per run of gates",
        counter: "allocations of `apply_view` over three runs of ~30 gates, then ~60, per mille of one region's",
        scenario: wide_runs_in_regions,
        want: Want::Exact(&[3000, 3000]),
        reason: "a run of gates below the top qubits is one region, however many gates it holds",
        mutant: "`apply_view` above the threshold opens one region per gate",
    },
    Budget {
        name: "the state_parallel plan runs in a few regions",
        counter: "allocations of `apply_view` over the bound 16-qubit plan, per mille of one region's",
        scenario: wide_plan_in_regions,
        want: Want::Each(0, 12_000),
        reason: "only gates on the top log2(threads) qubits cut a run (6 regions on 2 threads)",
        mutant: "`apply_view` above the threshold opens one region per gate",
    },
    // The backends.
    Budget {
        name: "a warm parametric job never copies its plan",
        counter: "blocks of `plan.len() × size_of::<Gate>()` bytes allocated by 24 warm sweep_warm jobs",
        scenario: warm_circuit_blocks,
        want: Want::Exact(&[0]),
        reason: "a job binds through a `BoundCircuit` overlay over the cached, `Arc`-shared plan",
        mutant: "the gate path binds with the materializing `GatePlan::bind`",
    },
    Budget {
        name: "a warm sealed job allocates a pinned count, whatever its words",
        counter: "allocations of `execute_sealed` on warm state_serial jobs, seeds 1–4 (782–818 words)",
        scenario: || warm_state_serial(true),
        want: Want::Exact(&[SEALED_JOB; 4]),
        reason: "see `SEALED_JOB` (114–119 plus one per word before `Counts`; 495–505 plus one \
                 per word when the backend validated and hashed)",
        mutant: "the gate backend samples with the map-building `sample_counts_with` and \
                 collects its map into `Counts`",
    },
    Budget {
        name: "a warm execute_cached job allocates a pinned count, whatever its words",
        counter: "allocations of `execute_cached` on warm state_serial jobs, seeds 1–4 (782–818 words)",
        scenario: || warm_state_serial(false),
        want: Want::Exact(&[CACHED_JOB; 4]),
        reason: "see `CACHED_JOB` (364–369 plus one per word before `Counts`; decoding here \
                 once cost two more per word)",
        mutant: "`execute_cached` keeps a copy of the result's counts",
    },
    Budget {
        name: "a warm sweep_warm job allocates a pinned count",
        counter: "allocations of `execute_sealed` on a warm sweep_warm member (8-qubit symbolic ring, 32 shots), points 1–4",
        scenario: warm_sweep_member,
        want: Want::Exact(&[SWEEP_JOB; 4]),
        reason: "see `SWEEP_JOB`: the bound overlay's values and overrides, the result's names \
                 and its `Counts`",
        mutant: "`Counts` clones its arena for every word it renders",
    },
    Budget {
        name: "a held result is a few allocations",
        counter: "allocations of cloning a result: gate (10 qubits, 4 096 shots), anneal (C16, 2 000 reads)",
        scenario: result_clones,
        want: Want::Exact(&[5, 5]),
        reason: "three names, the word arena and the count vector, however many words \
                 (a `String` and B-tree nodes per word before `Counts`)",
        mutant: "`ExecutionResult` stores a second word map beside `counts`",
    },
    Budget {
        name: "a plan cache misses, hits and evicts in LRU order",
        counter: "gate-plan misses, hits, evictions of compile_cold jobs A B A C A B on a 2-plan cache",
        scenario: lru_cache_counters,
        want: Want::Exact(&[4, 2, 2]),
        reason: "A's hit refreshes it, so C evicts B and B evicts C",
        mutant: "a cache hit does not refresh its entry's recency (FIFO eviction)",
    },
    Budget {
        name: "anneal_sweep's read ladder shares one BQM plan",
        counter: "anneal-plan misses, hits of 6 jobs at 100/200/300 reads on one G(48) problem, then 2 others",
        scenario: anneal_ladder_counters,
        want: Want::Exact(&[3, 5]),
        reason: "the read count is sampling policy, not part of the plan key",
        mutant: "the anneal plan key's schedule fingerprint folds in `num_reads`",
    },
    // The annealer.
    Budget {
        name: "a model's energy is evaluated in place",
        counter: "allocations of `energy_spin` on C4, then of `max_effective_field`",
        scenario: model_allocations,
        want: Want::Exact(&[0, 0]),
        reason: "energies fold over the rows in place; the field bound is stored by `from_ising`",
        mutant: "`energy_spin` collects the sample's values into a `Vec<f64>`, or \
                 `max_effective_field` recomputes the field with a per-variable accumulator",
    },
    Budget {
        name: "the annealer allocates only the spins it returns per read",
        counter: "allocations of 1 100 reads less those of 100, on C4",
        scenario: extra_read_allocations,
        want: Want::Exact(&[1000]),
        reason: "one returned spin vector per read: the rayon stand-in collects the reads \
                 into one vector sized once (a band of 1 000..=1 032 while it flattened the \
                 blocks' outputs into a vector grown step by step, whose growth steps follow \
                 the thread count)",
        mutant: "each read allocates its own ΔE buffer instead of the per-thread scratch",
    },
    Budget {
        name: "a sample call derives nothing from its model",
        counter: "allocations of a warm 1-read `sample` of a lowered G(48, 0.15) Max-Cut model",
        scenario: sample_call_allocations,
        want: Want::Exact(&[5]),
        reason: "the β schedule; the one block's output, run inline on the calling thread and \
                 returned as it is by the rayon stand-in; the read's spins; the sample set's \
                 map node and records (8 when the stand-in also built a block list, a list of \
                 outputs and their concatenation). The model's rows and field are built \
                 once, by `from_ising`",
        mutant: "`sample` rebuilds the coupling rows per call, or the default schedule rescans \
                 the couplings for the field",
    },
    // The service.
    Budget {
        name: "a sweep's members share one program",
        counter: "distinct operator and data-type allocations among the 8 members of a sweep_warm sweep",
        scenario: sweep_program_allocations,
        want: Want::Exact(&[1, 1]),
        reason: "expansion hands every member the base bundle's `Arc`-shared program",
        mutant: "`expand_sealed` gives each member its own copy of the program",
    },
    Budget {
        name: "a sweep stores, validates and hashes its program once",
        counter: "allocations of `submit_sweep` per added sweep_warm member, from 8 to 72 members",
        scenario: sweep_member_allocations,
        want: Want::Each(0, 89),
        reason: "a member's name, bindings and admission: 47, plus a margin (198 when each \
                 member copied the program twice, 803 when each was hashed)",
        mutant: "`expand_sealed` gives each member its own copy of the program",
    },
    Budget {
        name: "a latency probe's submit costs a pinned count",
        counter: "allocations of `QmlService::submit` of mixed_latency probes 2, 3 and 4",
        scenario: probe_submit_allocations,
        want: Want::Exact(&[382, 382, 382]),
        reason: "sealing the bundle, its job and batch entries and its place in the scheduler",
        mutant: "`submit` hashes the program before sealing it",
    },
    Budget {
        name: "no worker frees a sealed bundle",
        counter: "blocks of the bundles' name length freed off the measuring thread while `run_pending` drains 12 compile_cold-shaped jobs, then while a worker pool drains them and its sink has each settled share freed on the measuring thread",
        scenario: bundle_frees_on_workers,
        want: Want::Exact(&[0, 0]),
        reason: "a worker releases its share before its job settles, and the service retires \
                 settled bundles for its next admission to free (freeing them on workers cost \
                 compile_cold about a quarter of its throughput)",
        mutant: "`worker_loop` releases its bundle share after the sink settles the job, or \
                 `ServiceCore::settle` drops the bundle instead of retiring it",
    },
];

/// Run the rows named in `only`, or every row when it is `None`, and fail
/// listing each row that does not hold.
pub fn check(only: Option<&[&str]>) {
    let rows: Vec<&Budget> = match only {
        None => BUDGETS.iter().collect(),
        Some(names) => names
            .iter()
            .map(|name| {
                let row = BUDGETS.iter().find(|row| row.name == *name);
                row.unwrap_or_else(|| panic!("no budget row is named {name:?}"))
            })
            .collect(),
    };
    let mut broken = Vec::new();
    for row in rows {
        let outcome = catch_unwind(row.scenario);
        COUNTING.store(false, Relaxed);
        MEASURING.set(false);
        let (name, counter, want) = (row.name, row.counter, &row.want);
        let (reason, mutant) = (row.reason, row.mutant);
        match outcome {
            Ok(readings) if want.holds(&readings) => {}
            Ok(readings) => broken.push(format!(
                "{name}: {counter} read {readings:?}, want {want:?} ({reason}; broken by: {mutant})"
            )),
            Err(_) => broken.push(format!("{name}: the scenario panicked (see above)")),
        }
    }
    assert!(broken.is_empty(), "\n{}", broken.join("\n"));
}

const LEVEL: u8 = 3;

/// The context of perfbench's gate workloads: `nodes` qubits on a line, level 3.
fn gate_context(nodes: usize, shots: u64, seed: u64) -> ContextDescriptor {
    ContextDescriptor::for_gate(
        ExecConfig::new("gate.aer_simulator")
            .with_samples(shots)
            .with_seed(seed)
            .with_target(Target::linear(nodes))
            .with_optimization_level(LEVEL),
    )
}

const SYMBOLIC: QaoaSchedule = QaoaSchedule::Symbolic { layers: 2 };

/// The state workloads' fixed angles.
fn fixed() -> QaoaSchedule {
    let angles = [(0.4, 1.1), (0.9, 0.6)].map(|(gamma, beta)| QaoaAngles { gamma, beta });
    QaoaSchedule::Fixed(angles.to_vec())
}

fn line(qubits: usize) -> TranspileTarget {
    TranspileTarget::hardware(CouplingMap::linear(qubits))
}

/// A ring QAOA on `qubits` nodes, planned for a line as the gate backend plans it.
fn ring_plan(qubits: usize, schedule: &QaoaSchedule) -> GatePlan {
    let program = qaoa_maxcut_program(&cycle(qubits), schedule).unwrap();
    let lowered = lower_to_circuit(&program).unwrap();
    let transpiled = transpile(&lowered.circuit, &line(qubits), LEVEL).unwrap();
    let (symbols, register, schema) = (lowered.symbols, lowered.register, lowered.schema);
    GatePlan::new(
        transpiled.circuit,
        symbols,
        transpiled.metrics,
        register,
        schema,
    )
}

/// The sweep_warm plan bound to one point of its sweep.
fn sweep_warm() -> BoundCircuit {
    let plan = ring_plan(8, &SYMBOLIC);
    plan.bind_overlay(&[0.4, 1.1, 0.7, 0.3]).unwrap()
}

/// The state_serial (12 qubits) or state_parallel (16) plan.
fn state_plan(qubits: usize) -> BoundCircuit {
    ring_plan(qubits, &fixed()).bind_overlay(&[]).unwrap()
}

/// compile_cold's job: QAOA on G(8, 0.5) with `layers` fixed layers.
fn cold_job(layers: usize, seed: u64) -> JobBundle {
    let angle = |layer: usize| QaoaAngles {
        gamma: 0.3 + 0.1 * layer as f64,
        beta: 1.1 - 0.2 * layer as f64,
    };
    let schedule = QaoaSchedule::Fixed((0..layers).map(angle).collect());
    let program = qaoa_maxcut_program(&random_gnp(8, 0.5, seed), &schedule).unwrap();
    program.with_context(gate_context(8, 16, seed))
}

/// The plan of compile_cold's 4-layer job under graph seed `seed`.
fn cold_plan(seed: u64) -> TranspileResult {
    let lowered = lower_to_circuit(&cold_job(4, seed)).unwrap().circuit;
    transpile(&lowered, &line(8), LEVEL).unwrap()
}

fn from_json_allocations() -> Vec<u64> {
    let bundle = cold_job(4, 3);
    let json = bundle.to_json().unwrap();
    let (parsed, n) = allocations(|| JobBundle::from_json(&json).unwrap());
    assert_eq!(parsed, bundle);
    vec![n]
}

fn pass_allocations() -> Vec<u64> {
    let routed = |layers, seed| {
        let lowered = lower_to_circuit(&cold_job(layers, seed)).unwrap().circuit;
        route(&lowered, &CouplingMap::linear(8)).unwrap().circuit
    };
    let (small, large) = (routed(4, 1), routed(12, 2));
    assert!(large.len() > 2 * small.len());
    let target = line(8);
    let (basis, by_basis): (Vec<Circuit>, Vec<u64>) = [small, large]
        .iter()
        .map(|circuit| allocations(|| decompose_to_basis(circuit, &target)))
        .unzip();
    let by_optimize = basis.iter().map(|circuit| {
        let (optimized, n) = allocations(|| optimize(circuit, LEVEL));
        assert!(optimized.len() < circuit.len());
        n
    });
    by_basis.iter().copied().chain(by_optimize).collect()
}

fn plan_vector_frees() -> Vec<u64> {
    let plan = cold_plan(3).circuit;
    let ((), [_, _, freed, _]) = tally(plan.len() * size_of::<Gate>(), || drop(plan));
    vec![freed]
}

fn cold_plan_metrics() -> Vec<u64> {
    let m = cold_plan(1).metrics;
    let counts = [m.total_gates, m.two_qubit_gates, m.swaps_inserted];
    counts.map(|n| n as u64).to_vec()
}

fn sweep_warm_param_sites() -> Vec<u64> {
    vec![ring_plan(8, &SYMBOLIC).param_site_count() as u64]
}

fn gate_sizes() -> Vec<u64> {
    vec![size_of::<Gate>() as u64, size_of::<ParamExpr>() as u64]
}

fn amp_updates() -> Vec<u64> {
    let cold = BoundCircuit::concrete(Arc::new(cold_plan(1).circuit));
    let plans = [sweep_warm(), state_plan(12), state_plan(16), cold];
    plans.map(|p| (p.gate_count() << p.width()) as u64).to_vec()
}

fn fused_ops() -> Vec<u64> {
    let cold = BoundCircuit::concrete(Arc::new(cold_plan(1).circuit));
    [sweep_warm(), state_plan(12), cold]
        .map(|p| fused_op_count(&p) as u64)
        .to_vec()
}

/// `zero_state_in` on a reused buffer plus `apply_view`, counted.
fn apply_counted<C: CircuitView + ?Sized>(view: &C, buf: Vec<Complex64>) -> (StateVector, u64) {
    allocations(|| {
        let mut state = StateVector::zero_state_in(view.width(), buf);
        state.apply_view(view);
        state
    })
}

fn apply_allocations() -> Vec<u64> {
    let overlay = sweep_warm();
    assert!(!overlay.overrides().is_empty());
    let circuit = overlay.to_circuit();
    let (state, by_circuit) = apply_counted(&circuit, StateVector::zero_state(8).into_amps());
    let from_circuit = state.amplitudes().to_vec();
    let (state, by_overlay) = apply_counted(&overlay, state.into_amps());
    assert_eq!(state.amplitudes(), from_circuit.as_slice());
    vec![by_circuit, by_overlay]
}

fn warm_run_and_sampling() -> Vec<u64> {
    let plan = BoundCircuit::concrete(Arc::new(sweep_warm().to_circuit()));
    let (sim, mut scratch, shots, seed) = (Simulator::new(), SimScratch::new(), 256, 11);
    let mut run = || {
        sim.run_view_with_scratch(&plan, shots, seed, &mut scratch)
            .unwrap()
    };
    let warm = run();
    let (again, whole_run) = allocations(&mut run);
    assert_eq!(again, warm);
    // Sampling alone, on the same state with warmed buffers.
    let state = sim.statevector_view(&plan);
    let (mut cdf, mut draws, mut runs) = (Vec::new(), Vec::new(), Vec::new());
    let mut sample = || {
        let mut rng = StdRng::seed_from_u64(seed);
        let map = plan.measurement_map();
        state
            .sample_with(map, shots, &mut rng, &mut cdf, &mut draws, &mut runs)
            .unwrap()
    };
    sample();
    let (counts, sampling) = allocations(&mut sample);
    assert_eq!(counts, warm.counts);
    vec![whole_run, sampling]
}

fn scratch_amplitude_blocks() -> Vec<u64> {
    let (plan, sim, mut scratch) = (sweep_warm(), Simulator::new(), SimScratch::new());
    let ((), [_, watched, ..]) = tally((1 << plan.width()) * size_of::<Complex64>(), || {
        for seed in 0..8 {
            sim.run_view_with_scratch(&plan, 32, seed, &mut scratch)
                .unwrap();
        }
    });
    vec![watched]
}

/// Allocations of `apply_view` at 16 qubits, above the threshold: of one
/// gate (one parallel region), of three runs of gates cut by two gates on
/// the top qubit, of the same runs with every gate doubled, and of the
/// bound state_parallel plan. Measured once for the three rows that read it.
struct Wide {
    threads: u64,
    region: u64,
    three_runs: u64,
    doubled: u64,
    plan: u64,
}

fn wide() -> &'static Wide {
    static WIDE: OnceLock<Wide> = OnceLock::new();
    WIDE.get_or_init(|| {
        const WIDE: usize = 16;
        const { assert!(1usize << WIDE >= PARALLEL_THRESHOLD) };
        // Gates on the low 11 qubits fit a sixteenth of the state: they share
        // a run on any machine. `copies` of each, so the gate count scales
        // and the number of runs does not.
        let three_runs = |copies: usize| {
            let mut qc = Circuit::new(WIDE);
            for cut in [Some(Gate::Sx(WIDE - 1)), Some(Gate::Cx(0, WIDE - 1)), None] {
                for q in 0..10 {
                    for gate in [Gate::Sx(q), Gate::Rz(q, 0.3.into()), Gate::Cx(q, q + 1)] {
                        qc.extend(&vec![gate; copies]);
                    }
                }
                qc.extend(cut.as_slice());
            }
            qc
        };
        let mut one_gate = Circuit::new(WIDE);
        one_gate.push(Gate::Sx(0));
        let mut buf = StateVector::zero_state(WIDE).into_amps();
        let mut count = |view: &dyn CircuitView| {
            let (state, n) = apply_counted(view, std::mem::take(&mut buf));
            buf = state.into_amps();
            n
        };
        // The first region also pays for whatever the process sets up once.
        count(&one_gate);
        let plan = state_plan(WIDE);
        let wide = Wide {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
            region: count(&one_gate),
            three_runs: count(&three_runs(1)),
            doubled: count(&three_runs(2)),
            plan: count(&plan),
        };
        // And the runs compute what gate-by-gate application does.
        let mut by_gate = StateVector::zero_state(WIDE);
        plan.for_each_gate(&mut |gate| by_gate.apply(gate));
        assert!(
            buf == by_gate.amplitudes(),
            "runs differ from per-gate apply"
        );
        wide
    })
}

fn wide_region_per_thread() -> Vec<u64> {
    vec![wide().region.saturating_sub(2).div_ceil(wide().threads)]
}

fn wide_runs_in_regions() -> Vec<u64> {
    let wide = wide();
    vec![
        1000 * wide.three_runs / wide.region,
        1000 * wide.doubled / wide.region,
    ]
}

fn wide_plan_in_regions() -> Vec<u64> {
    vec![1000 * wide().plan / wide().region]
}

/// A sweep_warm sweep of `points` bindings of its four angles.
fn sweep(points: usize) -> SweepRequest {
    let base = qaoa_maxcut_program(&cycle(8), &SYMBOLIC).unwrap();
    let sweep = SweepRequest::new("scan", base).with_context(gate_context(8, 32, 7));
    (0..points).fold(sweep, |sweep, point| {
        let names = ["gamma_0", "beta_0", "gamma_1", "beta_1"].map(String::from);
        let value = ParamValue::Float(0.01 * point as f64);
        sweep.with_binding_set(names.map(|name| (name, value.clone())).into())
    })
}

fn warm_circuit_blocks() -> Vec<u64> {
    let (backend, cache) = (GateBackend::new(), TranspileCache::new());
    let jobs = sweep(25).expand().unwrap();
    // Cold execution realizes the plan (transpilation may copy freely).
    backend.execute_cached(&jobs[0], &cache).unwrap();
    let plan_bytes = ring_plan(8, &SYMBOLIC).circuit.len() * size_of::<Gate>();
    let ((), [_, watched, ..]) = tally(plan_bytes, || {
        for job in &jobs[1..] {
            backend.execute_cached(job, &cache).unwrap();
        }
    });
    assert_eq!(cache.gate_stats().misses, 1);
    vec![watched]
}

/// Allocations of one warm state_serial job through `execute_sealed`, none
/// of them per word:
///
/// - 5 for the plan key's transpile target: the basis-gate list copied (a
///   `Vec` and three `String`s) and the coupling map;
/// - 4 for the target's fingerprint, which sorts a copy of that list;
/// - 3 for the result's backend, engine and register names;
/// - 2 for the result's `Counts`: its word arena and its count vector.
///
/// Sealing memoized the hashes, and state, CDF, draw and run buffers come
/// from the thread's scratch. Before `Counts` the same job made these 12
/// plus one `String` and ~0.13 B-tree nodes per word: 114–119 beyond its
/// 782–818 words. The earlier 105–111 was the same 12 on a program with
/// β₁ = 0.3, whose 703–734 words needed 93–99 nodes, not 102–107.
const SEALED_JOB: u64 = 14;

/// Allocations of one warm state_serial job through `execute_cached`: the
/// sealed job's [`SEALED_JOB`], 14 to copy the bundle, 5 to seal the copy
/// and 231 to hash the copy's symbolic program for the plan key.
const CACHED_JOB: u64 = 264;

/// Allocations of one warm sweep_warm member through `execute_sealed`: the
/// state_serial job's [`SEALED_JOB`] plus the binding values and the bound
/// overlay's overrides.
const SWEEP_JOB: u64 = 16;

/// Allocations of four warm state_serial jobs (seeds 1–4, one shared
/// program), run through `execute_sealed` on bundles sealed next to the one
/// that built the plan, as sweep members are, or through `execute_cached`.
fn warm_state_serial(sealed: bool) -> Vec<u64> {
    let program = qaoa_maxcut_program(&cycle(12), &fixed()).unwrap();
    let job = |seed| program.clone().with_context(gate_context(12, 1024, seed));
    let (backend, cache) = (GateBackend::new(), TranspileCache::new());
    // Build the plan and size the thread scratch.
    let first = SealedBundle::seal(job(0)).unwrap();
    backend.execute_sealed(&first, &cache).0.unwrap();
    let readings: Vec<u64> = (1..=4)
        .map(|seed| {
            let (result, n) = if sealed {
                let bundle = SealedBundle::seal_sharing(job(seed), &first).unwrap();
                allocations(|| backend.execute_sealed(&bundle, &cache).0)
            } else {
                let bundle = job(seed);
                allocations(|| backend.execute_cached(&bundle, &cache))
            };
            let words = result.unwrap().counts.len();
            assert!(
                words > 700,
                "{words} words: too few to tell a per-word cost"
            );
            n
        })
        .collect();
    let stats = cache.gate_stats();
    assert_eq!((stats.misses, stats.hits), (1, 4));
    readings
}

fn warm_sweep_member() -> Vec<u64> {
    let members = sweep(5).expand().unwrap();
    let (backend, cache) = (GateBackend::new(), TranspileCache::new());
    let first = SealedBundle::seal(members[0].clone()).unwrap();
    backend.execute_sealed(&first, &cache).0.unwrap();
    let readings = members[1..]
        .iter()
        .map(|member| {
            let bundle = SealedBundle::seal_sharing(member.clone(), &first).unwrap();
            let (result, n) = allocations(|| backend.execute_sealed(&bundle, &cache).0);
            assert_eq!(result.unwrap().counts.values().sum::<u64>(), 32);
            n
        })
        .collect();
    assert_eq!(cache.gate_stats().misses, 1);
    readings
}

/// An anneal context of `reads` reads of `sweeps` sweeps each.
fn anneal_context(reads: u64, sweeps: u64, seed: u64) -> ContextDescriptor {
    let config = AnnealConfig {
        seed: Some(seed),
        num_sweeps: Some(sweeps),
        ..AnnealConfig::with_reads(reads)
    };
    ContextDescriptor::for_anneal("anneal.neal_simulator", config)
}

fn result_clones() -> Vec<u64> {
    let gate = qaoa_maxcut_program(&cycle(10), &QaoaSchedule::Fixed(vec![RING_P1_ANGLES]));
    let gate = gate.unwrap().with_context(gate_context(10, 4096, 5));
    let anneal = maxcut_ising_program(&cycle(16)).unwrap();
    let anneal = anneal.with_context(anneal_context(2000, 2, 5));
    let results = [
        GateBackend::new().execute(&gate).unwrap(),
        AnnealBackend::new().execute(&anneal).unwrap(),
    ];
    let clone = |result: &ExecutionResult| {
        let words = result.counts.len();
        assert!(
            words > 200,
            "{words} words: too few to tell a per-word cost"
        );
        let (copy, n) = allocations(|| result.clone());
        assert_eq!(&copy, result);
        n
    };
    results.iter().map(clone).collect()
}

fn lru_cache_counters() -> Vec<u64> {
    let (backend, cache) = (GateBackend::new(), TranspileCache::with_capacity(2));
    let (a, b, c) = (cold_job(4, 1), cold_job(4, 2), cold_job(4, 3));
    for job in [&a, &b, &a, &c, &a, &b] {
        backend.execute_cached(job, &cache).unwrap();
    }
    let stats = cache.gate_stats();
    vec![stats.misses, stats.hits, stats.evictions]
}

fn anneal_ladder_counters() -> Vec<u64> {
    let job = |graph: u64, reads: u64| {
        let program = maxcut_ising_program(&random_gnp(48, 0.15, graph)).unwrap();
        program.with_context(anneal_context(reads, 10, reads))
    };
    let (backend, cache) = (AnnealBackend::new(), TranspileCache::new());
    let ladder = (0..6).map(|i| job(1, 100 * (1 + i % 3)));
    for bundle in ladder.chain([job(2, 200), job(3, 200)]) {
        backend.execute_cached(&bundle, &cache).unwrap();
    }
    let stats = cache.anneal_stats();
    vec![stats.misses, stats.hits]
}

/// The paper's C4 Max-Cut model.
fn c4() -> BinaryQuadraticModel {
    let edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)];
    BinaryQuadraticModel::from_ising(&[0.0; 4], &edges)
}

fn model_allocations() -> Vec<u64> {
    let model = c4();
    let (energy, n) = allocations(|| model.energy_spin(&[1, -1, 1, -1]));
    let (field, m) = allocations(|| model.max_effective_field());
    assert_eq!((energy, field), (-4.0, 2.0));
    vec![n, m]
}

fn extra_read_allocations() -> Vec<u64> {
    let sampler = SimulatedAnnealer::new();
    let params = |reads| AnnealParams::with_reads(reads).with_sweeps(20).with_seed(3);
    let model = c4();
    sampler.sample(&model, &params(100));
    let (_, few) = allocations(|| sampler.sample(&model, &params(100)));
    let (set, many) = allocations(|| sampler.sample(&model, &params(1100)));
    assert_eq!(set.total_reads(), 1100);
    vec![many - few]
}

fn sample_call_allocations() -> Vec<u64> {
    let program = maxcut_ising_program(&random_gnp(48, 0.15, 1)).unwrap();
    let model = lower_to_bqm(&program).unwrap().bqm;
    let sampler = SimulatedAnnealer::new();
    let params = AnnealParams::with_reads(1).with_sweeps(20).with_seed(3);
    // Warm: the calling thread's ΔE scratch already holds 48 entries.
    sampler.sample(&model, &params);
    let (set, n) = allocations(|| sampler.sample(&model, &params));
    assert_eq!((model.num_variables(), set.total_reads()), (48, 1));
    vec![n]
}

fn sweep_program_allocations() -> Vec<u64> {
    let members = sweep(8).expand().unwrap();
    let operators: BTreeSet<_> = members.iter().map(|m| Arc::as_ptr(&m.operators)).collect();
    let data_types: BTreeSet<_> = members.iter().map(|m| Arc::as_ptr(&m.data_types)).collect();
    vec![operators.len() as u64, data_types.len() as u64]
}

fn sweep_member_allocations() -> Vec<u64> {
    const SMALL: usize = 8;
    const LARGE: usize = 72;
    let service = QmlService::with_config(ServiceConfig::with_workers(1));
    // Warm the tenant's scheduler state and the service's maps.
    service.submit_sweep("warm", sweep(SMALL)).unwrap();
    let count = |points: usize| {
        let request = sweep(points);
        let (batch, n) = allocations(|| service.submit_sweep("tenant", request));
        batch.unwrap();
        n
    };
    let (small, large) = (count(SMALL), count(LARGE));
    assert_eq!(service.run_pending().completed, SMALL + SMALL + LARGE);
    vec![(large - small) / (LARGE - SMALL) as u64]
}

fn probe_submit_allocations() -> Vec<u64> {
    let probes = sweep(4).expand().unwrap().into_iter();
    let probes: Vec<_> = probes
        .map(|p| p.with_service_class(ServiceClass::latency()))
        .collect();
    let service = QmlService::with_config(ServiceConfig::with_workers(2));
    service.submit("probe", probes[0].clone()).unwrap();
    service.run_pending();
    let submit = |probe: &JobBundle| {
        let probe = probe.clone();
        let (submitted, n) = allocations(|| service.submit("probe", probe));
        submitted.unwrap();
        n
    };
    let readings = probes[1..].iter().map(submit).collect();
    assert_eq!(service.run_pending().completed, 3);
    readings
}

/// Length of the names of [`bundle_frees_on_workers`]' jobs: a block size no
/// other allocation on the job path has, so a free of it is a bundle's.
const NAME_BYTES: usize = 3001;

/// A pool source that hands out sealed jobs and keeps its own share of each
/// until the job settles, as the service's scheduler does.
struct Handoff {
    queue: Mutex<Vec<(JobId, SealedBundle, Placement)>>,
    in_flight: Mutex<BTreeMap<JobId, SealedBundle>>,
}

impl JobSource for Handoff {
    fn next_job(&self, _worker: usize) -> Option<JobDispatch> {
        let (id, bundle, placement) = self.queue.lock().unwrap().pop()?;
        self.in_flight.lock().unwrap().insert(id, bundle.clone());
        Some(JobDispatch::new(id, bundle, placement))
    }
}

fn bundle_frees_on_workers() -> Vec<u64> {
    const JOBS: usize = 12;
    let jobs = (0..JOBS as u64).map(|seed| {
        let mut job = cold_job(4, seed);
        job.name = format!("{seed:0>NAME_BYTES$}");
        job.name.shrink_to_fit();
        SealedBundle::seal(job).unwrap()
    });
    let jobs: Vec<SealedBundle> = jobs.collect();

    // The service drains with `run_pending`; its settled bundles wait in
    // `ServiceCore::retired` for the next admission, here the service's drop.
    let service = QmlService::with_config(ServiceConfig::with_workers(2));
    for job in &jobs {
        service.submit("cold", JobBundle::clone(job)).unwrap();
    }
    let ((), [.., here, by_service]) = tally(NAME_BYTES, move || {
        assert_eq!(service.run_pending().completed, JOBS);
        drop(service);
    });
    assert_eq!(here + by_service, JOBS as u64, "every copy of a job freed");

    // A worker pool alone, whose sink hands each settled job's source share
    // to this thread and waits until it is dropped here: what a submission
    // that empties `retired` between the sink and the worker's next step
    // does in the service, made certain.
    let runtime = Arc::new(Runtime::new(Scheduler::new(
        BackendRegistry::with_default_backends(),
    )));
    let queue = jobs.into_iter().enumerate().map(|(i, bundle)| {
        let placement = runtime.scheduler().place(&bundle).unwrap();
        (JobId(i as u64), bundle, placement)
    });
    let source = Arc::new(Handoff {
        queue: Mutex::new(queue.collect()),
        in_flight: Mutex::default(),
    });
    let (settled, to_free) = sync_channel(0);
    let (freed, acks) = sync_channel(0);
    let acks = Mutex::new(acks);
    let sink = {
        let source = Arc::clone(&source);
        move |outcome: JobOutcome| {
            outcome.result.unwrap();
            let share = source.in_flight.lock().unwrap().remove(&outcome.id);
            settled.send(share.unwrap()).unwrap();
            acks.lock().unwrap().recv().unwrap();
        }
    };
    let ((), [.., here, by_pool]) = tally(NAME_BYTES, || {
        let pool = WorkerPool::spawn(&runtime, 1, source, Arc::new(sink));
        for share in to_free.iter().take(JOBS) {
            drop(share);
            freed.send(()).unwrap();
        }
        assert_eq!(pool.join(), JOBS);
    });
    assert_eq!(here + by_pool, JOBS as u64, "every job freed");
    vec![by_service, by_pool]
}
