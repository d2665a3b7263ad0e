//! The six workloads and their seeded inputs. The program under test only
//! ever sees what these functions generate: job bundles, sweep requests and
//! JSON text.

use std::collections::BTreeMap;
use std::f64::consts::PI;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qml_core::algorithms::{maxcut_ising_program, qaoa_maxcut_program, QaoaAngles, QaoaSchedule};
use qml_core::graph::{cycle, random_gnp, Graph};
use qml_core::service::SweepRequest;
use qml_core::types::{
    AnnealConfig, ContextDescriptor, ExecConfig, JobBundle, ParamValue, Result, ServiceClass,
    Target,
};

/// Which of the six workloads a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SweepWarm,
    CompileCold,
    StateSerial,
    StateParallel,
    AnnealSweep,
    MixedLatency,
}

/// A workload's name and its frozen window size: the jobs one measured
/// window submits (for `mixed_latency`, the probe bundles of one cycle; the
/// bulk backlog is a fixed multiple of it).
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub jobs: usize,
    /// Window size under `--quick` (tests only).
    pub quick_jobs: usize,
}

/// Sized once on the reference box (2 cores) so a window takes about half a
/// second (1.1 s where it must overflow the plan cache or drain a backlog)
/// and an 18 s run holds 15 to 35 of them; frozen here.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "sweep_warm",
        kind: Kind::SweepWarm,
        jobs: 3000,
        quick_jobs: 200,
    },
    Workload {
        name: "compile_cold",
        kind: Kind::CompileCold,
        // Above the plan cache's capacity (1024), so every window evicts.
        jobs: 1100,
        quick_jobs: 64,
    },
    Workload {
        name: "state_serial",
        kind: Kind::StateSerial,
        jobs: 300,
        quick_jobs: 24,
    },
    Workload {
        name: "state_parallel",
        kind: Kind::StateParallel,
        jobs: 6,
        quick_jobs: 2,
    },
    Workload {
        name: "anneal_sweep",
        kind: Kind::AnnealSweep,
        jobs: 32,
        quick_jobs: 8,
    },
    Workload {
        name: "mixed_latency",
        kind: Kind::MixedLatency,
        jobs: 50,
        quick_jobs: 10,
    },
];

/// A seeded, evenly strided sample of `want` of `len` job indices (all of
/// them when there are fewer), ascending.
pub fn seeded_sample(len: usize, want: usize, seed: u64) -> impl Iterator<Item = usize> {
    let count = len.min(want.max(1));
    let stride = len / count;
    let offset = seed as usize % stride;
    (0..count).map(move |k| offset + k * stride)
}

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Jobs the throughput tenant adds whenever its queue runs low.
pub const BULK_CHUNK: usize = 64;

const SWEEP_NODES: usize = 8;
const SERIAL_NODES: usize = 12;
const PARALLEL_NODES: usize = 16;
const ANNEAL_NODES: usize = 48;
const ANNEAL_EDGES: usize = 169;
const ANNEAL_READS: u64 = 200;

/// One thing handed to the service's front door.
#[derive(Clone)]
pub enum Submission {
    Sweep(SweepRequest),
    /// A job descriptor as JSON text, parsed inside the measured window.
    Json(String),
    Bundle(JobBundle),
}

impl Submission {
    pub fn job_count(&self) -> usize {
        match self {
            Submission::Sweep(sweep) => sweep.job_count(),
            _ => 1,
        }
    }

    /// The job bundles this submission turns into, in job order.
    pub fn bundles(&self) -> Result<Vec<JobBundle>> {
        match self {
            Submission::Sweep(sweep) => sweep.expand(),
            Submission::Json(text) => Ok(vec![JobBundle::from_json(text)?]),
            Submission::Bundle(bundle) => Ok(vec![bundle.clone()]),
        }
    }
}

/// Everything one window needs, generated from the seed.
pub struct Inputs {
    /// The measured submissions, in submit order.
    pub submissions: Vec<Submission>,
    /// Jobs drained before the window so that warm workloads find their
    /// plans cached; empty for the cold workloads.
    pub prime: Vec<JobBundle>,
    /// `anneal_sweep`: the Max-Cut graph behind each job, for the energy checks.
    pub graphs: Vec<Graph>,
    /// `mixed_latency`: the throughput tenant's program.
    pub bulk: Option<JobBundle>,
}

fn gate_context(nodes: usize, shots: u64, seed: u64) -> ContextDescriptor {
    ContextDescriptor::for_gate(
        ExecConfig::new("gate.aer_simulator")
            .with_samples(shots)
            .with_seed(seed)
            .with_target(Target::linear(nodes))
            .with_optimization_level(3),
    )
}

fn angles(rng: &mut StdRng, layers: usize) -> Vec<QaoaAngles> {
    (0..layers)
        .map(|_| QaoaAngles {
            gamma: rng.gen::<f64>() * PI,
            beta: rng.gen::<f64>() * PI,
        })
        .collect()
}

/// `jobs` points of a seeded (γ, β) grid over one symbolic two-layer ring
/// QAOA: one plan key, every job a binding of it.
fn warm_sweep(seed: u64, jobs: usize) -> Result<SweepRequest> {
    let base = qaoa_maxcut_program(&cycle(SWEEP_NODES), &QaoaSchedule::Symbolic { layers: 2 })?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sweep =
        SweepRequest::new("sweep_warm", base).with_context(gate_context(SWEEP_NODES, 32, seed));
    for _ in 0..jobs {
        let binding: BTreeMap<String, ParamValue> = angles(&mut rng, 2)
            .iter()
            .enumerate()
            .flat_map(|(layer, a)| {
                [
                    (format!("gamma_{layer}"), ParamValue::Float(a.gamma)),
                    (format!("beta_{layer}"), ParamValue::Float(a.beta)),
                ]
            })
            .collect();
        sweep = sweep.with_binding_set(binding);
    }
    Ok(sweep)
}

/// Angles of the two state workloads' layers: fixed, because the angles
/// shape the output distribution, and with it the size of every result — a
/// seed must not decide how much work a job is.
const STATE_ANGLES: [QaoaAngles; 2] = [
    QaoaAngles {
        gamma: 0.4,
        beta: 1.1,
    },
    QaoaAngles {
        gamma: 0.9,
        beta: 0.6,
    },
];

/// The state workloads' program: a fixed-angle two-layer ring QAOA.
fn state_program(nodes: usize) -> Result<JobBundle> {
    qaoa_maxcut_program(&cycle(nodes), &QaoaSchedule::Fixed(STATE_ANGLES.to_vec()))
}

/// `jobs` contexts of one program that differ in their sampling seed
/// (`seed + first`, …): one plan, simulation dominates.
fn state_sweep(
    program: JobBundle,
    seed: u64,
    first: usize,
    jobs: usize,
    nodes: usize,
    shots: u64,
) -> SweepRequest {
    let mut sweep = SweepRequest::new("state", program);
    for i in first..first + jobs {
        sweep = sweep.with_context(gate_context(nodes, shots, seed.wrapping_add(i as u64)));
    }
    sweep
}

/// A seeded Max-Cut instance with `ANNEAL_NODES` nodes and exactly
/// `ANNEAL_EDGES` edges (G(n, p)'s mean at p = 0.15) of weight in
/// [0.5, 1.5]: the annealer's work per sweep follows the edge count, so
/// every seed gets the same amount of it.
fn anneal_graph(rng: &mut StdRng) -> Graph {
    let mut pairs: Vec<(usize, usize)> = (0..ANNEAL_NODES)
        .flat_map(|u| (u + 1..ANNEAL_NODES).map(move |v| (u, v)))
        .collect();
    let mut graph = Graph::new(ANNEAL_NODES);
    for picked in 0..ANNEAL_EDGES {
        let other = rng.gen_range(picked..pairs.len());
        pairs.swap(picked, other);
        let (u, v) = pairs[picked];
        graph.add_edge(u, v, rng.gen_range(0.5..=1.5));
    }
    graph
}

fn first_job(sweep: &SweepRequest) -> Result<JobBundle> {
    let mut head = sweep.clone();
    head.binding_sets.truncate(1);
    head.contexts.truncate(1);
    Ok(head.expand()?.remove(0))
}

fn anneal_context(reads: u64, seed: u64) -> ContextDescriptor {
    let mut config = AnnealConfig::with_reads(reads);
    config.seed = Some(seed);
    ContextDescriptor::for_anneal("anneal.neal_simulator", config)
}

pub fn generate(kind: Kind, seed: u64, jobs: usize) -> Result<Inputs> {
    let mut inputs = Inputs {
        submissions: Vec::new(),
        prime: Vec::new(),
        graphs: Vec::new(),
        bulk: None,
    };
    match kind {
        Kind::SweepWarm => {
            let sweep = warm_sweep(seed, jobs)?;
            inputs.prime.push(first_job(&sweep)?);
            inputs.submissions.push(Submission::Sweep(sweep));
        }
        Kind::CompileCold => {
            // Every job its own program (graph and angles), so every plan
            // lookup misses; arrives as JSON text like any outside client's.
            let mut rng = StdRng::seed_from_u64(seed);
            for i in 0..jobs as u64 {
                let graph = random_gnp(SWEEP_NODES, 0.5, rng.gen::<u64>());
                let schedule = QaoaSchedule::Fixed(angles(&mut rng, 4));
                let bundle = qaoa_maxcut_program(&graph, &schedule)?.with_context(gate_context(
                    SWEEP_NODES,
                    16,
                    seed.wrapping_add(i),
                ));
                inputs.submissions.push(Submission::Json(bundle.to_json()?));
            }
        }
        Kind::StateSerial | Kind::StateParallel => {
            let (nodes, shots) = if kind == Kind::StateSerial {
                (SERIAL_NODES, 1024)
            } else {
                (PARALLEL_NODES, 256)
            };
            let sweep = state_sweep(state_program(nodes)?, seed, 0, jobs, nodes, shots);
            inputs.prime.push(first_job(&sweep)?);
            inputs.submissions.push(Submission::Sweep(sweep));
        }
        Kind::AnnealSweep => {
            // First half: one problem under a read ladder (one shared plan).
            // Second half: a problem per job (every lowering a miss).
            let mut rng = StdRng::seed_from_u64(seed);
            let shared = anneal_graph(&mut rng);
            for i in 0..jobs as u64 {
                let (graph, reads) = if (i as usize) < jobs / 2 {
                    (shared.clone(), ANNEAL_READS / 2 * (1 + i % 3))
                } else {
                    (anneal_graph(&mut rng), ANNEAL_READS)
                };
                let bundle = maxcut_ising_program(&graph)?
                    .with_context(anneal_context(reads, seed.wrapping_add(i)));
                inputs.submissions.push(Submission::Bundle(bundle));
                inputs.graphs.push(graph);
            }
        }
        Kind::MixedLatency => {
            let probes = warm_sweep(seed, jobs)?.expand()?;
            let bulk = state_program(SERIAL_NODES)?;
            inputs.prime.push(probes[0].clone());
            inputs.prime.push(first_job(&bulk_chunk(&bulk, seed, 0))?);
            inputs.bulk = Some(bulk);
            inputs.submissions = probes
                .into_iter()
                .map(|p| Submission::Bundle(p.with_service_class(ServiceClass::latency())))
                .collect();
        }
    }
    Ok(inputs)
}

/// The next `BULK_CHUNK` jobs of the throughput tenant: `state_serial`'s
/// program under fresh sampling seeds.
pub fn bulk_chunk(bulk: &JobBundle, seed: u64, already: usize) -> SweepRequest {
    state_sweep(bulk.clone(), seed, already, BULK_CHUNK, SERIAL_NODES, 1024)
}
