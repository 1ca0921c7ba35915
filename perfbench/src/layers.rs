//! The traced run's layer probes.
//!
//! Each probe calls one layer's public functions on the workload's own
//! inputs, timing the benchmark's calls (never spans inside the program)
//! and reading the layer's public counters. Where a workload's end-to-end
//! path bypasses a layer, the probe still runs on the workload's circuits,
//! so every metric has a measured value; the metric is expected not to
//! move on that workload.

use std::time::{Duration, Instant};

use qsdd_circuit::{qasm, Circuit, Operation};
use qsdd_core::{BackendKind, DdSimulator, DenseSimulator, ShotEngine, StochasticBackend};
use qsdd_dd::DdPackage;
use qsdd_noise::NoiseModel;
use qsdd_telemetry::trace::{self, Trace, Tracer};
use qsdd_transpile::{transpile, OptLevel};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::checks::Histogram;
use crate::stats;

/// One job the probes replay: the same circuit, back-end, seed, shot
/// count and optimization level the workload's driver ran.
#[derive(Clone, Debug)]
pub struct ProbeJob {
    pub circuit: Circuit,
    pub backend: BackendKind,
    pub shots: u64,
    pub seed: u64,
    pub opt: OptLevel,
}

/// Accumulated layer measurements over all probed jobs.
#[derive(Debug, Default)]
pub struct LayerTotals {
    pub qasm_parse: Vec<f64>,
    pub transpile_opt2: Vec<f64>,
    pub compile: Vec<f64>,
    pub presample: Duration,
    pub group: Duration,
    pub live: Duration,
    pub trajectories: u64,
    pub live_shots: u64,
    pub shots: u64,
    pub dd_nodes_peak: u64,
    pub dd_vec_nodes: u64,
    pub dd_complex_values: u64,
    pub dd_unique_lookups: u64,
    pub dd_unique_hits: u64,
    pub dd_compute_lookups: u64,
    pub dd_compute_hits: u64,
    pub mat_vec_time: Duration,
    pub mat_vec_calls: u64,
    pub sample_time: Duration,
    pub samples: u64,
    pub dense_shot_time: Duration,
    pub dense_shots: u64,
    pub dense_bytes: f64,
}

impl LayerTotals {
    /// Appends the layer metrics gathered by the probes.
    pub fn report(&self, out: &mut crate::Outcome) {
        out.push(
            "circuit.qasm_parse_us",
            stats::mean(&self.qasm_parse) * 1e6,
            "us",
        );
        out.push(
            "transpile.opt2_ms",
            stats::mean(&self.transpile_opt2) * 1e3,
            "ms",
        );
        out.push("core.compile_ms", stats::mean(&self.compile) * 1e3, "ms");
        out.push("noise.presample_s", self.presample.as_secs_f64(), "s");
        out.push("core.group_s", self.group.as_secs_f64(), "s");
        out.push("core.live_s", self.live.as_secs_f64(), "s");
        out.push("core.trajectories", self.trajectories as f64, "count");
        out.push("core.live_shots", self.live_shots as f64, "count");
        out.push(
            "core.shots_per_trajectory",
            self.shots as f64 / self.trajectories.max(1) as f64,
            "shots/trajectory",
        );
        out.push("dd.nodes_peak", self.dd_nodes_peak as f64, "count");
        out.push("dd.vec_nodes", self.dd_vec_nodes as f64, "count");
        out.push("dd.complex_values", self.dd_complex_values as f64, "count");
        out.push("dd.unique_lookups", self.dd_unique_lookups as f64, "count");
        out.push(
            "dd.unique_hit_ratio",
            self.dd_unique_hits as f64 / self.dd_unique_lookups.max(1) as f64,
            "ratio",
        );
        out.push(
            "dd.compute_lookups",
            self.dd_compute_lookups as f64,
            "count",
        );
        out.push(
            "dd.compute_hit_ratio",
            self.dd_compute_hits as f64 / self.dd_compute_lookups.max(1) as f64,
            "ratio",
        );
        out.push(
            "dd.mat_vec_mul_us",
            self.mat_vec_time.as_secs_f64() * 1e6 / self.mat_vec_calls.max(1) as f64,
            "us",
        );
        out.push("dd.mat_vec_calls", self.mat_vec_calls as f64, "count");
        out.push(
            "dd.sample_us",
            self.sample_time.as_secs_f64() * 1e6 / self.samples.max(1) as f64,
            "us",
        );
        let shot_s = self.dense_shot_time.as_secs_f64() / self.dense_shots.max(1) as f64;
        out.push("statevector.shot_ms", shot_s * 1e3, "ms");
        let bytes_per_shot = self.dense_bytes / self.dense_shots.max(1) as f64;
        out.push(
            "statevector.bytes_per_shot_computed",
            bytes_per_shot,
            "bytes",
        );
        out.push(
            "statevector.gb_per_s_computed",
            bytes_per_shot / shot_s / 1e9,
            "GB/s",
        );
    }
}

/// The shot generator the DD and dense replays use for shot `shot`.
fn replay_rng(seed: u64, shot: u64) -> StdRng {
    StdRng::seed_from_u64(stats::mix(seed, shot))
}

/// Replays `job` layer by layer — parse, transpile, compile, presample,
/// trajectory groups, live shots — and returns the histogram, which must
/// equal the driver's.
pub fn replay_engine(job: &ProbeJob, noise: NoiseModel, totals: &mut LayerTotals) -> Histogram {
    // qsdd-circuit: the circuit's OpenQASM spelling through the parser.
    if let Ok(source) = qasm::write_source(&job.circuit) {
        let started = Instant::now();
        let parsed = qasm::parse_source(&source);
        totals.qasm_parse.push(started.elapsed().as_secs_f64());
        std::hint::black_box(parsed.ok());
    }
    // qsdd-transpile at the serving path's top level.
    let started = Instant::now();
    std::hint::black_box(transpile(&job.circuit, OptLevel::O2));
    totals.transpile_opt2.push(started.elapsed().as_secs_f64());

    // qsdd-core: compile, then the deduplicating execution by hand.
    let transpiled = transpile(&job.circuit, job.opt);
    let started = Instant::now();
    let engine = ShotEngine::from_transpiled(&transpiled, job.backend, noise, job.seed);
    totals.compile.push(started.elapsed().as_secs_f64());

    let mut ctx = engine.new_context();
    let mut histogram = Histogram::new();
    let started = Instant::now();
    let presampled = engine.presample_range(0..job.shots);
    totals.presample += started.elapsed();
    let (groups, live) = presampled.unwrap_or_else(|| (Vec::new(), (0..job.shots).collect()));
    // The group loop is timed whole, so a workload whose shots all run
    // live reports the loop's (near-zero) cost rather than nothing.
    let started = Instant::now();
    for (pattern, mut members) in groups {
        let samples = engine.run_group_in(&mut ctx, &pattern, &mut members, &[]);
        totals.trajectories += 1;
        for (_, sample, _) in samples {
            *histogram.entry(sample.outcome).or_insert(0) += 1;
        }
    }
    totals.group += started.elapsed();
    for shot in live {
        let started = Instant::now();
        let sample = engine.run_shot_in(&mut ctx, shot);
        totals.live += started.elapsed();
        totals.trajectories += 1;
        totals.live_shots += 1;
        *histogram.entry(sample.outcome).or_insert(0) += 1;
    }
    totals.shots += job.shots;
    histogram
}

/// Replays `shots` stochastic shots of `circuit` through [`DdSimulator`]
/// via the public [`StochasticBackend`] trait and reads its own context's
/// package counters.
pub fn replay_dd(
    circuit: &Circuit,
    noise: NoiseModel,
    shots: u64,
    seed: u64,
    totals: &mut LayerTotals,
) {
    let backend = DdSimulator::new();
    let program = backend.compile(circuit, &noise);
    let mut ctx = backend.new_context();
    let before = ctx.package().table_stats();
    for shot in 0..shots {
        let mut rng = replay_rng(seed, shot);
        let run = backend.run_shot(&program, &mut ctx, &mut rng);
        totals.dd_nodes_peak = totals.dd_nodes_peak.max(run.dd_nodes_peak);
    }
    let package = ctx.package();
    let stats = package.stats();
    totals.dd_vec_nodes += stats.vec_nodes as u64;
    totals.dd_complex_values += stats.complex_values as u64;
    let tables = package.table_stats().since(&before);
    let unique_hits = tables.vec_unique_hits + tables.mat_unique_hits;
    totals.dd_unique_hits += unique_hits;
    totals.dd_unique_lookups += unique_hits + tables.vec_unique_misses + tables.mat_unique_misses;
    totals.dd_compute_hits += tables.compute_hits;
    totals.dd_compute_lookups += tables.compute_hits + tables.compute_misses;
}

/// Times `DdPackage::mat_vec_mul` over the circuit's gate operators
/// (noise-free, from `|0...0>`, a fresh package per pass) and outcome
/// sampling on the final state.
pub fn replay_mat_vec(
    circuit: &Circuit,
    passes: usize,
    samples: u64,
    seed: u64,
    totals: &mut LayerTotals,
) {
    let n = circuit.num_qubits();
    let mut final_state = None;
    for _ in 0..passes {
        let mut package = DdPackage::new();
        let mut ops = Vec::new();
        for op in circuit {
            match op {
                Operation::Gate {
                    gate,
                    target,
                    controls,
                } => {
                    let m = gate.matrix().expect("non-swap gates provide a matrix");
                    ops.push(package.controlled_op(n, *target, controls, m));
                }
                Operation::Swap { a, b } => ops.push(package.swap_op(n, *a, *b)),
                _ => {}
            }
        }
        let mut state = package.zero_state(n);
        for op in ops {
            let started = Instant::now();
            state = package.mat_vec_mul(op, state);
            totals.mat_vec_time += started.elapsed();
            totals.mat_vec_calls += 1;
        }
        final_state = Some((package, state));
    }
    if let Some((mut package, state)) = final_state {
        let plan = package.sample_plan(state, n);
        let mut rng = replay_rng(seed, u64::MAX);
        let mut acc = 0u64;
        let started = Instant::now();
        for _ in 0..samples {
            acc ^= plan.sample(&mut rng);
        }
        totals.sample_time += started.elapsed();
        totals.samples += samples;
        std::hint::black_box(acc);
    }
}

/// Times `DenseSimulator::run_shot` on `circuit` and adds the computed
/// bytes: each gate step reads and writes the whole amplitude array, each
/// amplitude-damping exposure reads it once (the decay probability), and
/// the final sample reads it once.
pub fn replay_dense(
    circuit: &Circuit,
    noise: NoiseModel,
    shots: u64,
    seed: u64,
    totals: &mut LayerTotals,
) {
    let backend = DenseSimulator::new();
    let program = backend.compile(circuit, &noise);
    let mut ctx = backend.new_context();
    let mut gate_steps = 0u64;
    let mut exposures = 0u64;
    for op in circuit {
        if matches!(op, Operation::Gate { .. } | Operation::Swap { .. }) {
            gate_steps += 1;
            if noise.amplitude_damping_prob() > 0.0 {
                exposures += op.qubits().len() as u64;
            }
        }
    }
    let state_bytes = 16.0 * (1u64 << circuit.num_qubits()) as f64;
    for shot in 0..shots {
        let mut rng = replay_rng(seed, shot);
        let started = Instant::now();
        let run = backend.run_shot(&program, &mut ctx, &mut rng);
        totals.dense_shot_time += started.elapsed();
        std::hint::black_box(run.outcome);
    }
    totals.dense_shots += shots;
    totals.dense_bytes += shots as f64 * state_bytes * (2 * gate_steps + exposures + 1) as f64;
}

/// Runs `f` with the program's tracer installed on this thread (drivers
/// hand it on to their workers); returns `f`'s result and the trace.
pub fn traced<T>(f: impl FnOnce() -> T) -> (T, Trace) {
    let was_on = trace::trace_enabled();
    trace::set_trace_enabled(true);
    let tracer = Tracer::forced("perfbench", "traced");
    let value = {
        let _lane = tracer.install(0);
        f()
    };
    let recorded = tracer.finish("job");
    trace::set_trace_enabled(was_on);
    (value, recorded)
}

/// Figures read from the program's own spans in a traced driver run.
#[derive(Debug, Default)]
pub struct SpanFigures {
    /// Share of worker capacity (workers × traced wall) not covered by
    /// `worker_*` spans (or `chunk` spans where the driver is the batch
    /// scheduler, whose workers open no `worker_*` span).
    pub worker_idle_ratio: f64,
    pub chunks: u64,
    pub chunk_ms: Vec<f64>,
}

pub fn span_figures(trace: &Trace, workers: usize) -> SpanFigures {
    let duration =
        |span: &qsdd_telemetry::trace::SpanRecord| span.end_ns.saturating_sub(span.start_ns) as f64;
    let worker_busy: f64 = trace
        .spans
        .iter()
        .filter(|span| span.name.starts_with("worker_"))
        .map(duration)
        .sum();
    let chunks: Vec<f64> = trace
        .spans
        .iter()
        .filter(|span| span.name == "chunk")
        .map(duration)
        .collect();
    let busy = if worker_busy > 0.0 {
        worker_busy
    } else {
        chunks.iter().sum()
    };
    let capacity = workers as f64 * trace.duration_ns() as f64;
    SpanFigures {
        worker_idle_ratio: (1.0 - busy / capacity.max(1.0)).max(0.0),
        chunks: chunks.len() as u64,
        chunk_ms: chunks.iter().map(|ns| ns / 1e6).collect(),
    }
}
