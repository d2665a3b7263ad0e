//! The layer walk: a single-threaded pass that takes a sample of a
//! workload's jobs through the pipeline by hand, with an in-memory span
//! around every call into a layer's public function.
//!
//! Nothing inside the measured crates is instrumented. Per job the walk
//! records the two opaque backend calls (`backend.execute_cold`,
//! `backend.execute_warm`) and, beside them, the same work composed from the
//! layers' own entry points: `realize` (lowering, the three transpiler
//! passes, the plan-cache insert) and `execute` (validation and hashing, the
//! plan-cache hit, binding, statevector apply, shot sampling, decoding — or
//! the annealer's sampling). The composition must reproduce the backend's
//! outputs exactly, and what `execute`'s children do not cover of
//! `backend.execute_warm` is reported as `backend.unattributed_share`.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use qml_core::anneal::{AnnealParams, SimulatedAnnealer};
use qml_core::backends::{
    lower_to_bqm, lower_to_circuit, AnnealBackend, AnnealPlan, AnnealPlanKey, Backend,
    ExecutionResult, GateBackend, GatePlan, GatePlanKey, TranspileCache, DEFAULT_PLAN_CAPACITY,
    DEFAULT_SWEEPS,
};
use qml_core::runtime::Runtime;
use qml_core::sim::{CircuitView, Complex64, StateVector};
use qml_core::transpile::{
    decompose_to_basis, optimize, route, transpile, CircuitMetrics, CouplingMap, TranspileTarget,
};
use qml_core::types::{DecodedCounts, ExecConfig, JobBundle, QmlError, Result};

use crate::alloc;
use crate::inputs::{seeded_sample, Inputs, Submission};
use crate::stats::median;

/// Jobs the walk samples (all of them when the window has fewer).
const SAMPLE: usize = 200;
/// Jobs walked even when the time budget is already spent.
const MIN_JOBS: usize = 3;

/// One recorded interval. `parent` is the index of the enclosing span;
/// spans of one job share `job`, and sweep expansion — which belongs to no
/// single job — carries none.
pub struct Span {
    pub name: &'static str,
    pub job: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: Option<usize>,
    /// Exact per-job counts taken at the same boundaries as the spans.
    counts: Vec<(&'static str, f64)>,
}

impl Recorder {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            job: self.job,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        self.spans[id].start_ns = self.now();
        let out = f(self);
        self.spans[id].end_ns = self.now();
        self.open.pop();
        out
    }

    fn count(&mut self, name: &'static str, value: usize) {
        self.counts.push((name, value as f64));
    }
}

/// The walk's result: every span, and the per-layer figures folded from
/// them (medians over the walked jobs).
pub struct Walk {
    pub spans: Vec<Span>,
    pub values: BTreeMap<String, f64>,
}

impl Walk {
    /// The spans as JSON lines, one object per span; `id` is the line's
    /// index and `parent` refers to it.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let job = s.job.map_or("null".to_string(), |j| j.to_string());
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"job\":{job},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// State the walk keeps across jobs, mirroring what a worker keeps warm.
struct Context {
    /// Holds every walked job's plan: the hit side.
    warm: TranspileCache,
    /// Takes one fresh plan per job: the miss side; full when the workload
    /// overflows the plan cache, so that inserts evict as they do there.
    cold: TranspileCache,
    fresh_keys: u64,
    primed: HashSet<u64>,
    runtime: Runtime,
    amps: Vec<Complex64>,
    cdf: Vec<f64>,
    draws: Vec<f64>,
}

fn invalid(message: impl Into<String>) -> QmlError {
    QmlError::Validation(message.into())
}

/// The transpilation target a gate job's context resolves to (the same
/// resolution the gate backend applies internally).
fn transpile_target(bundle: &JobBundle, exec: &ExecConfig) -> TranspileTarget {
    let Some(target) = &exec.target else {
        return TranspileTarget::ideal();
    };
    let width = target.num_qubits.unwrap_or(0).max(bundle.total_width());
    TranspileTarget {
        basis_gates: target.basis_gates.clone(),
        coupling_map: target
            .coupling_map
            .as_ref()
            .map(|edges| CouplingMap::new(edges, width)),
    }
}

/// Untimed: make the walk's warm cache and runtime hold this job's plan
/// before the warm calls are timed (once per distinct program).
fn prime(ctx: &mut Context, backend: &dyn Backend, bundle: &JobBundle, program: u64) -> Result<()> {
    if ctx.primed.insert(program) {
        backend.execute_cached(bundle, &ctx.warm)?;
        let id = ctx.runtime.submit(bundle.clone())?;
        ctx.runtime.run_job(id)?;
    }
    Ok(())
}

/// The two opaque backend calls, cold then warm, with the warm call's
/// allocations counted. Returns both results.
fn opaque_calls(
    rec: &mut Recorder,
    ctx: &Context,
    backend: &dyn Backend,
    bundle: &JobBundle,
) -> Result<(ExecutionResult, ExecutionResult)> {
    let cold = rec.span("backend.execute_cold", |_| backend.execute(bundle))?;
    let (warm, allocations, bytes) = alloc::measure(|| {
        rec.span("backend.execute_warm", |_| {
            backend.execute_cached(bundle, &ctx.warm)
        })
    });
    rec.count("alloc.count_per_job", allocations as usize);
    rec.count("alloc.bytes_per_job", bytes as usize);
    Ok((cold, warm?))
}

/// The hand-composed counts must be the warm call's, and the warm call's
/// result the cold call's; then the same job once through the runtime.
fn reconcile_and_run(
    rec: &mut Recorder,
    ctx: &Context,
    bundle: JobBundle,
    counts: &BTreeMap<String, u64>,
    (cold, warm): &(ExecutionResult, ExecutionResult),
) -> Result<()> {
    if *counts != warm.counts || warm != cold {
        return Err(invalid(
            "hand-composed execution differs from the backend's",
        ));
    }
    rec.span("runtime.submit_run", |_| {
        let id = ctx.runtime.submit(bundle)?;
        ctx.runtime.run_job(id)
    })?;
    Ok(())
}

fn walk_gate(
    rec: &mut Recorder,
    ctx: &mut Context,
    bundle: &JobBundle,
    json: Option<&str>,
) -> Result<()> {
    let backend = GateBackend::new();
    let exec = bundle
        .context
        .as_ref()
        .and_then(|c| c.exec.as_ref())
        .ok_or_else(|| invalid("gate job without an exec block"))?;
    let level = exec.options.optimization_level;
    let seed = exec
        .seed
        .ok_or_else(|| invalid("gate job without a seed"))?;
    let target = transpile_target(bundle, exec);
    let key = GatePlanKey {
        program: bundle.symbolic_program_hash(),
        target: target.fingerprint(),
        optimization_level: level,
    };
    prime(ctx, &backend, bundle, key.program)?;
    let for_runtime = bundle.clone();

    rec.span("job", |rec| {
        if let Some(text) = json {
            rec.count("types.json_bytes", text.len());
            let parsed = rec.span("types.parse", |_| JobBundle::from_json(text))?;
            if parsed != *bundle {
                return Err(invalid("parsed bundle differs from the generated one"));
            }
        }
        let opaque = opaque_calls(rec, ctx, &backend, bundle)?;

        let (plan, lowered_circuit) = rec.span("realize", |rec| {
            let lowered = rec.span("lowering.circuit", |_| lower_to_circuit(bundle))?;
            rec.count("lowering.gates_out", lowered.circuit.len());
            let (routed, swaps) = match &target.coupling_map {
                Some(map) => {
                    let routed = rec
                        .span("transpile.route", |_| route(&lowered.circuit, map))
                        .map_err(|e| invalid(format!("routing failed: {e}")))?;
                    (routed.circuit, routed.swaps_inserted)
                }
                None => (lowered.circuit.clone(), 0),
            };
            let basis = rec.span("transpile.basis", |_| decompose_to_basis(&routed, &target));
            let optimized = rec.span("transpile.optimize", |_| optimize(&basis, level));
            let metrics = CircuitMetrics::of(&optimized, swaps);
            let mut built = Some(GatePlan::new(
                optimized,
                lowered.symbols,
                metrics,
                lowered.register,
                lowered.schema,
            ));
            ctx.fresh_keys += 1;
            let fresh = GatePlanKey {
                program: ctx.fresh_keys,
                ..key
            };
            let plan = rec.span("cache.miss_insert", |_| {
                ctx.cold
                    .gate_plan(fresh, || Ok(built.take().expect("built once")))
            })?;
            Ok::<_, QmlError>((plan, lowered.circuit))
        })?;
        let total = rec
            .span("transpile.total", |_| {
                transpile(&lowered_circuit, &target, level)
            })
            .map_err(|e| invalid(format!("transpilation failed: {e}")))?;
        if total.circuit != *plan.circuit || total.metrics != plan.metrics {
            return Err(invalid("route → basis → optimize differs from transpile"));
        }
        rec.count("transpile.gates_out", plan.metrics.total_gates);
        rec.count("transpile.twoq_out", plan.metrics.two_qubit_gates);
        rec.count("transpile.depth_out", plan.metrics.depth);
        rec.count("transpile.swaps_inserted", plan.metrics.swaps_inserted);
        rec.count("plan.param_sites", plan.param_site_count());

        let counts = rec.span("execute", |rec| {
            // What the gate backend validates and hashes per execution.
            rec.span("types.validate_hash", |_| {
                bundle.validate()?;
                black_box(bundle.symbolic_program_hash());
                Ok::<_, QmlError>(())
            })?;
            let plan = rec.span("cache.hit", |_| {
                ctx.warm
                    .gate_plan(key, || Err(invalid("the walked plan must be cached")))
            })?;
            let bound = rec.span("plan.bind", |_| {
                let symbols = bundle.canonical_symbols();
                let values = match &bundle.bindings {
                    Some(bindings) if !symbols.is_empty() => bindings.values_for(&symbols)?,
                    _ => Vec::new(),
                };
                plan.bind_overlay(&values)
            })?;
            let amps = std::mem::take(&mut ctx.amps);
            let (state, allocations, _) = alloc::measure(|| {
                rec.span("sim.apply", |_| {
                    let mut state = StateVector::zero_state_in(bound.width(), amps);
                    state.apply_view(&bound);
                    state
                })
            });
            rec.count("sim.alloc_count", allocations as usize);
            rec.count("sim.amp_updates", bound.gate_count() << bound.width());
            let counts = rec
                .span("sim.sample", |_| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    state.sample_counts_with(
                        bound.measurement_map(),
                        exec.samples,
                        &mut rng,
                        &mut ctx.cdf,
                        &mut ctx.draws,
                    )
                })
                .map_err(|e| invalid(format!("cannot sample: {e}")))?;
            ctx.amps = state.into_amps();
            rec.span("types.decode", |_| {
                DecodedCounts::decode(&counts, &plan.schema, &plan.register)
            })?;
            Ok::<_, QmlError>(counts)
        })?;
        reconcile_and_run(rec, ctx, for_runtime, &counts, &opaque)
    })
}

fn walk_anneal(rec: &mut Recorder, ctx: &mut Context, bundle: &JobBundle) -> Result<()> {
    let backend = AnnealBackend::new();
    let anneal = bundle
        .context
        .as_ref()
        .and_then(|c| c.anneal.as_ref())
        .ok_or_else(|| invalid("anneal job without an anneal block"))?;
    let sweeps = anneal.num_sweeps.unwrap_or(DEFAULT_SWEEPS) as usize;
    let params = AnnealParams::with_reads(anneal.num_reads)
        .with_sweeps(sweeps)
        .with_seed(
            anneal
                .seed
                .ok_or_else(|| invalid("anneal job without a seed"))?,
        );
    // The walk's own cache, so any key distinct per program will do.
    let key = AnnealPlanKey {
        program: bundle.program_hash(),
        schedule: 0,
    };
    prime(ctx, &backend, bundle, key.program)?;
    ctx.warm
        .anneal_plan(key, || lower_to_bqm(bundle).map(plan_of))?;
    let for_runtime = bundle.clone();

    rec.span("job", |rec| {
        let opaque = opaque_calls(rec, ctx, &backend, bundle)?;

        rec.span("realize", |rec| {
            let lowered = rec.span("lowering.bqm", |_| lower_to_bqm(bundle))?;
            let mut built = Some(plan_of(lowered));
            ctx.fresh_keys += 1;
            let fresh = AnnealPlanKey {
                program: ctx.fresh_keys,
                schedule: 0,
            };
            rec.span("cache.miss_insert", |_| {
                ctx.cold
                    .anneal_plan(fresh, || Ok(built.take().expect("built once")))
            })
        })?;

        let counts = rec.span("execute", |rec| {
            // The anneal backend hashes the realized program twice: once
            // for the plan key, once as the default sampling seed.
            rec.span("types.validate_hash", |_| {
                bundle.validate()?;
                black_box(bundle.program_hash());
                black_box(bundle.program_hash());
                Ok::<_, QmlError>(())
            })?;
            let plan = rec.span("cache.hit", |_| {
                ctx.warm
                    .anneal_plan(key, || Err(invalid("the walked plan must be cached")))
            })?;
            let samples = rec.span("anneal.sample", |_| {
                SimulatedAnnealer::new().sample(&plan.bqm, &params)
            });
            rec.count(
                "anneal.spin_updates",
                anneal.num_reads as usize * sweeps * bundle.total_width(),
            );
            rec.span("types.decode", |_| {
                let indices = plan.schema.wire_indices(&plan.register)?;
                let counts: BTreeMap<String, u64> = samples
                    .records
                    .iter()
                    .map(|record| {
                        let full = record.bitstring();
                        let word = indices.iter().map(|&i| full.as_bytes()[i] as char);
                        (word.collect(), record.num_occurrences)
                    })
                    .collect();
                DecodedCounts::decode(&counts, &plan.schema, &plan.register)?;
                Ok::<_, QmlError>(counts)
            })
        })?;
        reconcile_and_run(rec, ctx, for_runtime, &counts, &opaque)
    })
}

fn plan_of(lowered: qml_core::backends::LoweredBqm) -> AnnealPlan {
    AnnealPlan {
        bqm: lowered.bqm,
        register: lowered.register,
        schema: lowered.schema,
    }
}

/// Walk a seeded sample of the window's jobs within `budget`.
pub fn walk(inputs: &Inputs, seed: u64, budget: Duration) -> Result<Walk> {
    let started = Instant::now();
    let mut rec = Recorder {
        epoch: started,
        spans: Vec::with_capacity(32 * SAMPLE),
        open: Vec::with_capacity(8),
        job: None,
        counts: Vec::new(),
    };

    // Expansion is per sweep, not per job: root spans that carry no job.
    let mut jobs: Vec<(JobBundle, Option<&str>)> = Vec::new();
    let mut expand_us = Vec::new();
    for submission in &inputs.submissions {
        match submission {
            Submission::Sweep(sweep) => {
                let expanded = rec.span("sweep.expand", |_| sweep.expand())?;
                let span = rec.spans.last().expect("just recorded");
                let us = (span.end_ns - span.start_ns) as f64 / 1e3;
                expand_us.push(us / expanded.len() as f64);
                jobs.extend(expanded.into_iter().map(|b| (b, None)));
            }
            Submission::Json(text) => jobs.push((JobBundle::from_json(text)?, Some(text))),
            Submission::Bundle(bundle) => jobs.push((bundle.clone(), None)),
        }
    }

    let cold = TranspileCache::new();
    if jobs.len() > DEFAULT_PLAN_CAPACITY {
        // Fill the miss-side cache so every insert evicts, as in the window.
        let (filler, _) = &jobs[0];
        let exec = filler.context.as_ref().and_then(|c| c.exec.as_ref());
        let exec = exec.ok_or_else(|| invalid("gate job without an exec block"))?;
        let lowered = lower_to_circuit(filler)?;
        let realized = transpile(&lowered.circuit, &transpile_target(filler, exec), 0)
            .map_err(|e| invalid(format!("transpilation failed: {e}")))?;
        let plan = GatePlan::new(
            realized.circuit,
            lowered.symbols,
            realized.metrics,
            lowered.register,
            lowered.schema,
        );
        for k in 0..DEFAULT_PLAN_CAPACITY as u64 {
            let key = GatePlanKey {
                program: u64::MAX - k,
                target: 0,
                optimization_level: 0,
            };
            cold.gate_plan(key, || Ok(plan.clone()))?;
        }
    }
    let mut ctx = Context {
        warm: TranspileCache::unbounded(),
        cold,
        fresh_keys: 0,
        primed: HashSet::new(),
        runtime: Runtime::with_default_backends(),
        amps: Vec::new(),
        cdf: Vec::new(),
        draws: Vec::new(),
    };

    for (walked, index) in seeded_sample(jobs.len(), SAMPLE, seed).enumerate() {
        if walked >= MIN_JOBS && started.elapsed() >= budget {
            break;
        }
        let (bundle, json) = &jobs[index];
        rec.job = Some(index);
        if bundle.context.as_ref().is_some_and(|c| c.anneal.is_some()) {
            walk_anneal(&mut rec, &mut ctx, bundle)?;
        } else {
            walk_gate(&mut rec, &mut ctx, bundle, *json)?;
        }
    }

    let mut values = fold(&rec);
    values.insert("sweep.expand_us".into(), median(&expand_us));
    Ok(Walk {
        spans: rec.spans,
        values,
    })
}

/// Fold spans and counts into per-layer figures: medians over jobs.
fn fold(rec: &Recorder) -> BTreeMap<String, f64> {
    // Per job: microseconds by span name, and the children of `execute`.
    let mut per_job: BTreeMap<usize, BTreeMap<&'static str, f64>> = BTreeMap::new();
    let mut covered: BTreeMap<usize, f64> = BTreeMap::new();
    for span in &rec.spans {
        let Some(job) = span.job else { continue };
        let us = (span.end_ns - span.start_ns) as f64 / 1e3;
        *per_job
            .entry(job)
            .or_default()
            .entry(span.name)
            .or_default() += us;
        if span.parent.is_some_and(|p| rec.spans[p].name == "execute") {
            *covered.entry(job).or_default() += us;
        }
    }
    let mut series: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (job, spans) in &per_job {
        for (name, us) in spans {
            series.entry(format!("{name}_us")).or_default().push(*us);
        }
        let warm = spans["backend.execute_warm"];
        let unattributed = 1.0 - covered[job] / warm;
        series
            .entry("backend.unattributed_share".into())
            .or_default()
            .push(unattributed);
        series
            .entry("runtime.overhead_us".into())
            .or_default()
            .push(spans["runtime.submit_run"] - warm);
    }
    let mut counts: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (name, value) in &rec.counts {
        counts.entry(name).or_default().push(*value);
    }
    let mut values: BTreeMap<String, f64> = series
        .iter()
        .map(|(name, v)| (name.clone(), median(v)))
        .chain(counts.iter().map(|(name, v)| (name.to_string(), median(v))))
        .collect();
    let per_unit = |time_us: &str, units: &str| match (values.get(time_us), values.get(units)) {
        (Some(us), Some(n)) if *n > 0.0 => us * 1e3 / n,
        _ => 0.0,
    };
    let amp = per_unit("sim.apply_us", "sim.amp_updates");
    let spin = per_unit("anneal.sample_us", "anneal.spin_updates");
    values.insert("sim.ns_per_amp_update".into(), amp);
    values.insert("anneal.ns_per_spin_update".into(), spin);
    values
}
