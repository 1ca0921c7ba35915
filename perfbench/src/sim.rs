//! The simulation workloads: the paper's Tables Ia and Ib and its dense
//! baseline column, run through the batch scheduler (`ghz_sweep`) or the
//! CLI's `StochasticSimulator` path (`qft_dd`, `qft_dense`).

use std::f64::consts::PI;
use std::time::{Duration, Instant};

use qsdd_batch::{jobfile, run_batch, BatchOptions, JobSpec};
use qsdd_circuit::{generators, qasm, Circuit};
use qsdd_core::{BackendKind, ShotEngine, Stage, StochasticSimulator};
use qsdd_noise::NoiseModel;
use qsdd_transpile::OptLevel;

use crate::checks::{self, Checks, Histogram};
use crate::layers::{self, LayerTotals, ProbeJob};
use crate::serve;
use crate::stats::{self, median, mix};
use crate::{Args, Outcome};

/// Worker count of the measured driver runs (`nproc` on the reference
/// machine); `shots_per_s_1w` reruns the same problem on one worker.
const WORKERS: usize = 2;

/// Before each job, set-up (job parse plus engine construction) repeats
/// for this long. The work is the same every time, so interference only
/// adds to it: `setup_s` is the [`SETUP_QUANTILE`] of all the run's
/// samples. A median would read the machine instead, whose set-up speed
/// on the 2-vCPU reference machine switches between two levels about
/// 1.7x apart from one slice to the next. Spreading the slices over the
/// run keeps both levels in view.
const SETUP_SLICE: Duration = Duration::from_millis(25);
const SETUP_QUANTILE: f64 = 0.01;

/// Bounds on the measured repetitions: at least this many even when the
/// time budget is spent, at most this many however fast the machine.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 60;

/// Salt separating the oracle instance's seeds from the workload's.
const ORACLE_SALT: u64 = 0x0AC1_E5A1;

/// A simulation workload's definition.
struct SimSpec {
    backend: BackendKind,
    /// `true`: the `qsdd-batch` scheduler runs all circuits as one batch;
    /// `false`: `StochasticSimulator` runs the single circuit.
    batch: bool,
    circuits: &'static [(&'static str, usize)],
    /// Shots per circuit.
    shots: u64,
    /// The reduced instance checked against the exact density-matrix
    /// distribution (see [`reduced_circuit`]), and its shot count.
    reduced: (&'static str, usize),
    reduced_shots: u64,
    /// Shots of the traced DD-counter and dense-kernel replays per circuit.
    dd_replay_shots: u64,
    dense_replay_shots: u64,
    /// Shots per circuit of the traced run's in-process server probe.
    server_shots: u64,
}

fn spec(name: &str) -> Result<SimSpec, String> {
    Ok(match name {
        "ghz_sweep" => SimSpec {
            backend: BackendKind::DecisionDiagram,
            batch: true,
            circuits: &[("ghz", 16), ("ghz", 24), ("ghz", 32)],
            shots: 2_000,
            reduced: ("ghz", 8),
            reduced_shots: 20_000,
            dd_replay_shots: 400,
            dense_replay_shots: 40,
            server_shots: 2_000,
        },
        "qft_dd" => SimSpec {
            backend: BackendKind::DecisionDiagram,
            batch: false,
            circuits: &[("qft", 16)],
            shots: 200,
            reduced: ("qft", 8),
            reduced_shots: 8_000,
            dd_replay_shots: 40,
            dense_replay_shots: 4,
            server_shots: 50,
        },
        "qft_dense" => SimSpec {
            backend: BackendKind::Statevector,
            batch: false,
            circuits: &[("qft", 14)],
            shots: 12,
            reduced: ("qft", 8),
            reduced_shots: 8_000,
            dd_replay_shots: 40,
            dense_replay_shots: 8,
            server_shots: 4,
        },
        other => return Err(format!("no simulation workload named {other}")),
    })
}

/// A workload job ready to run: parsed batch specs, or the parsed circuit
/// for the simulator path.
enum Job {
    Batch(Vec<JobSpec>),
    Simulator {
        circuit: Circuit,
        backend: BackendKind,
        shots: u64,
        seed: u64,
    },
}

/// What one driver run produced.
struct RunResult {
    histograms: Vec<Histogram>,
    wall: Duration,
    shots: u64,
    /// Trajectories simulated (distinct patterns plus live shots).
    trajectories: u64,
    aggregate: Duration,
}

fn generate(kind: &str, qubits: usize) -> Result<Circuit, String> {
    generators::by_name(kind, qubits).ok_or_else(|| format!("no generator {kind} {qubits}"))
}

/// The fractional frequency [`fourier_peak`] prepares.
const PEAK_FREQUENCY: f64 = 37.3;

/// `qft` applied to a product state whose per-qubit phases form the
/// Fourier state of the fractional frequency [`PEAK_FREQUENCY`]: the exact
/// distribution is a peak at 37 with side lobes, and its shape depends on
/// every controlled phase of the ladder. (On `|0...0>` every controlled
/// phase acts while its control is still `|0>`, so the QFT's output is
/// uniform whatever the phases.)
fn fourier_peak(qft: &Circuit) -> Circuit {
    let n = qft.num_qubits();
    let mut circuit = Circuit::with_name(n, &format!("fourier_peak_{n}"));
    for q in 0..n {
        let weight = (1u64 << (n - 1 - q)) as f64 / (1u64 << n) as f64;
        circuit.h(q);
        circuit.p(-2.0 * PI * PEAK_FREQUENCY * weight, q);
    }
    circuit.append(qft);
    circuit
}

/// The reduced instance a workload checks against the oracle: the
/// generator circuit, except that QFT runs on the phase-sensitive input of
/// [`fourier_peak`].
fn reduced_circuit(kind: &str, qubits: usize) -> Result<Circuit, String> {
    let circuit = generate(kind, qubits)?;
    Ok(if kind == "qft" {
        fourier_peak(&circuit)
    } else {
        circuit
    })
}

/// The job's textual form, as a user hands it to the driver: a job file
/// for the batch scheduler, an OpenQASM file for the simulator path.
fn job_source(
    circuits: &[(&str, usize)],
    spec: &SimSpec,
    shots: u64,
    seed: u64,
) -> Result<String, String> {
    if spec.batch {
        let mut text = String::new();
        for (index, (kind, qubits)) in circuits.iter().enumerate() {
            let backend = match spec.backend {
                BackendKind::DecisionDiagram => "dd",
                BackendKind::Statevector => "dense",
            };
            text.push_str(&format!(
                "[job {kind}{qubits}]\ncircuit = generate {kind} {qubits}\nbackend = {backend}\nshots = {shots}\nseed = {}\n\n",
                mix(seed, index as u64) % 1_000_000_007
            ));
        }
        Ok(text)
    } else {
        let (kind, qubits) = circuits[0];
        qasm::write_source(&generate(kind, qubits)?).map_err(|e| format!("{kind}{qubits}: {e}"))
    }
}

/// Parses the job's source and builds its engines: the `setup_s` work.
fn parse_job(
    source: &str,
    spec: &SimSpec,
    shots: u64,
    seed: u64,
) -> Result<(Job, Vec<ShotEngine>), String> {
    if spec.batch {
        let specs = jobfile::parse_str(source, None).map_err(|e| e.to_string())?;
        let mut engines = Vec::with_capacity(specs.len());
        for job in &specs {
            let circuit = job.load_circuit()?;
            engines.push(ShotEngine::new(
                &circuit,
                job.backend,
                job.noise,
                job.seed,
                job.opt,
            ));
        }
        Ok((Job::Batch(specs), engines))
    } else {
        let circuit = qasm::parse_source(source).map_err(|e| e.to_string())?;
        let seed = mix(seed, 0) % 1_000_000_007;
        let engine = simulator(spec.backend, shots, seed, 1).engine(&circuit);
        Ok((
            Job::Simulator {
                circuit,
                backend: spec.backend,
                shots,
                seed,
            },
            vec![engine],
        ))
    }
}

fn simulator(backend: BackendKind, shots: u64, seed: u64, workers: usize) -> StochasticSimulator {
    StochasticSimulator::new()
        .with_backend(backend)
        .with_shots(shots as usize)
        .with_threads(workers)
        .with_seed(seed)
        .with_noise(NoiseModel::paper_defaults())
}

impl Job {
    fn run(&self, workers: usize) -> Result<RunResult, String> {
        let started = Instant::now();
        match self {
            Job::Batch(specs) => {
                let report = run_batch(specs, &BatchOptions::with_threads(workers));
                let wall = started.elapsed();
                let mut result = RunResult {
                    histograms: Vec::new(),
                    wall,
                    shots: 0,
                    trajectories: 0,
                    aggregate: Duration::ZERO,
                };
                for (job, spec) in report.jobs.iter().zip(specs) {
                    if !job.status.is_completed() || job.shots_executed != spec.shots {
                        return Err(format!(
                            "batch job {} did not complete all {} shots",
                            job.name, spec.shots
                        ));
                    }
                    result.histograms.push(job.counts.clone());
                    result.shots += job.shots_executed;
                    result.trajectories += job.unique_trajectories;
                    result.aggregate += job.stage_timings.get(Stage::Aggregate);
                }
                Ok(result)
            }
            Job::Simulator {
                circuit,
                backend,
                shots,
                seed,
            } => {
                let outcome = simulator(*backend, *shots, *seed, workers).run(circuit);
                let wall = started.elapsed();
                if outcome.shots as u64 != *shots {
                    return Err(format!("simulator ran {} of {shots} shots", outcome.shots));
                }
                Ok(RunResult {
                    histograms: vec![outcome.counts.iter().map(|(&k, &v)| (k, v)).collect()],
                    wall,
                    shots: *shots,
                    trajectories: outcome
                        .dedup
                        .map_or(*shots, |stats| stats.unique_trajectories),
                    aggregate: outcome.stage_timings.get(Stage::Aggregate),
                })
            }
        }
    }

    /// The replay inputs: the same circuits, seeds and shots the driver ran.
    fn probe_jobs(&self) -> Result<Vec<ProbeJob>, String> {
        match self {
            Job::Batch(specs) => specs
                .iter()
                .map(|spec| {
                    Ok(ProbeJob {
                        circuit: spec.load_circuit()?,
                        backend: spec.backend,
                        shots: spec.shots,
                        seed: spec.seed,
                        opt: spec.opt,
                    })
                })
                .collect(),
            Job::Simulator {
                circuit,
                backend,
                shots,
                seed,
            } => Ok(vec![ProbeJob {
                circuit: circuit.clone(),
                backend: *backend,
                shots: *shots,
                seed: *seed,
                opt: OptLevel::O0,
            }]),
        }
    }
}

fn same_histograms(a: &[Histogram], b: &[Histogram]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} vs {} histograms", a.len(), b.len()));
    }
    for (index, (x, y)) in a.iter().zip(b).enumerate() {
        if checks::render(x) != checks::render(y) {
            return Err(format!("job {index}: {}", checks::first_difference(x, y)));
        }
    }
    Ok(())
}

/// Checks the reduced instance, run through the workload's own driver on
/// two workers, against `qsdd-density`'s exact distribution.
fn oracle_check(spec: &SimSpec, seed: u64, checks: &mut Checks) -> Result<(), String> {
    let (kind, qubits) = spec.reduced;
    let circuit = reduced_circuit(kind, qubits)?;
    let result = run_reduced(spec, &circuit, seed ^ ORACLE_SALT)?;
    let exact = qsdd_density::outcome_distribution(&circuit, &NoiseModel::paper_defaults());
    checks::check_oracle(circuit.name(), &result, &exact, checks);
    Ok(())
}

/// Runs `circuit` through the workload's driver on two workers. A batch
/// job file names its circuit by generator: there `circuit` must be the
/// generator circuit of `spec.reduced`.
fn run_reduced(spec: &SimSpec, circuit: &Circuit, seed: u64) -> Result<Histogram, String> {
    let source = if spec.batch {
        job_source(&[spec.reduced], spec, spec.reduced_shots, seed)?
    } else {
        qasm::write_source(circuit).map_err(|e| format!("{}: {e}", circuit.name()))?
    };
    let (job, _) = parse_job(&source, spec, spec.reduced_shots, seed)?;
    Ok(job.run(WORKERS)?.histograms.remove(0))
}

pub fn run(name: &str, args: &Args) -> Result<Outcome, String> {
    let spec = spec(name)?;
    if args.trace {
        return run_traced(&spec, args);
    }
    let mut checks = Checks::new();

    // Warm-up: lazy allocation and page faults are not part of a job.
    let source = job_source(spec.circuits, &spec, spec.shots, args.seed)?;
    parse_job(&source, &spec, spec.shots, args.seed)?
        .0
        .run(WORKERS)?;

    // Each repetition runs a job of its own seed (so a run samples many
    // trajectories, not one seed's) on two workers and on one; the two
    // histograms must be byte-identical.
    let budget_start = Instant::now();
    let mut two = Vec::new();
    let mut one = Vec::new();
    let mut shots = 0;
    let mut trajectories = 0;
    let mut digest = 0u64;
    let mut setups = Vec::new();
    while (two.len() < MIN_REPS || budget_start.elapsed() < args.seconds) && two.len() < MAX_REPS {
        let seed = mix(args.seed, two.len() as u64);
        let source = job_source(spec.circuits, &spec, spec.shots, seed)?;
        let slice_start = Instant::now();
        let job = loop {
            let started = Instant::now();
            let (job, engines) = parse_job(&source, &spec, spec.shots, seed)?;
            setups.push(started.elapsed().as_secs_f64());
            std::hint::black_box(engines);
            if slice_start.elapsed() >= SETUP_SLICE {
                break job;
            }
        };

        let reference = job.run(WORKERS)?;
        two.push(reference.wall.as_secs_f64());
        shots = reference.shots;
        trajectories += reference.trajectories;
        for histogram in &reference.histograms {
            digest ^= stats::fnv1a(stats::FNV_OFFSET, checks::render(histogram).as_bytes());
        }

        let run1 = job.run(1)?;
        let verdict = same_histograms(&run1.histograms, &reference.histograms);
        checks.check(
            "1-worker histogram equals 2-worker",
            verdict.is_ok(),
            || verdict.unwrap_err(),
        );
        one.push(run1.wall.as_secs_f64());
    }
    let reps = two.len();
    let render_ms = |walls: &[f64]| {
        walls
            .iter()
            .map(|wall| format!("{:.1}", wall * 1e3))
            .collect::<Vec<_>>()
            .join(",")
    };
    println!("# job_ms 2w=[{}] 1w=[{}]", render_ms(&two), render_ms(&one));
    oracle_check(&spec, args.seed, &mut checks)?;
    println!(
        "# counters: reps={reps} setup_reps={} shots_per_job={shots} trajectories={trajectories} shots_reusing_a_trajectory={:.4} jobs_run={} histograms_fnv={digest:016x}",
        setups.len(),
        1.0 - trajectories as f64 / (shots * reps as u64) as f64,
        1 + 2 * reps,
    );
    let mut out = Outcome::new(checks);
    // Throughput is all shots over all driver wall time: a job's cost
    // depends on its seed's trajectories (a few QFT-16 shots per hundred
    // cost ten times the typical one or more), and the total weighs that
    // work in.
    let total_shots = (shots * reps as u64) as f64;
    out.push("shots_per_s", total_shots / two.iter().sum::<f64>(), "1/s");
    out.push(
        "shots_per_s_1w",
        total_shots / one.iter().sum::<f64>(),
        "1/s",
    );
    out.push("setup_s", stats::quantile(&setups, SETUP_QUANTILE), "s");
    Ok(out)
}

/// The traced run: per-layer figures for the same job.
fn run_traced(spec: &SimSpec, args: &Args) -> Result<Outcome, String> {
    let mut checks = Checks::new();
    let source = job_source(spec.circuits, spec, spec.shots, args.seed)?;
    let (job, _) = parse_job(&source, spec, spec.shots, args.seed)?;
    let reference = job.run(WORKERS)?;

    // Tracing overhead: the driver with and without the program's tracer
    // installed, interleaved, medians of the walls.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut figures = None;
    for _ in 0..2 {
        untraced.push(job.run(WORKERS)?.wall.as_secs_f64());
        let (run, recorded) = layers::traced(|| job.run(WORKERS));
        let run = run?;
        let verdict = same_histograms(&run.histograms, &reference.histograms);
        checks.check("traced histogram equals untraced", verdict.is_ok(), || {
            verdict.unwrap_err()
        });
        traced.push(run.wall.as_secs_f64());
        figures = Some(layers::span_figures(&recorded, WORKERS));
    }
    let mut figures = figures.expect("two traced runs");

    // The batch scheduler's chunk spans: from the driver itself when it is
    // the batch; otherwise from the same job run as a one-job batch.
    if !spec.batch {
        let probe_jobs = job.probe_jobs()?;
        let specs: Vec<JobSpec> = probe_jobs
            .iter()
            .zip(spec.circuits)
            .map(|(probe, (kind, qubits))| {
                let mut batch_spec = JobSpec::new(
                    &format!("{kind}{qubits}"),
                    jobfile::CircuitSource::Generator {
                        kind: kind.to_string(),
                        qubits: *qubits,
                    },
                    0,
                );
                batch_spec.backend = probe.backend;
                batch_spec.shots = probe.shots;
                batch_spec.seed = probe.seed;
                batch_spec
            })
            .collect();
        let (run, recorded) = layers::traced(|| Job::Batch(specs).run(WORKERS));
        let run = run?;
        let verdict = same_histograms(&run.histograms, &reference.histograms);
        checks.check("batch histogram equals simulator", verdict.is_ok(), || {
            verdict.unwrap_err()
        });
        let batch_figures = layers::span_figures(&recorded, WORKERS);
        figures.chunks = batch_figures.chunks;
        figures.chunk_ms = batch_figures.chunk_ms;
    }

    // Layer-by-layer replay of the driver's own jobs.
    let noise = NoiseModel::paper_defaults();
    let mut totals = LayerTotals::default();
    let probe_jobs = job.probe_jobs()?;
    let mut replayed = Vec::new();
    for (index, probe) in probe_jobs.iter().enumerate() {
        replayed.push(layers::replay_engine(probe, noise, &mut totals));
        let seed = mix(args.seed, 100 + index as u64);
        layers::replay_dd(
            &probe.circuit,
            noise,
            spec.dd_replay_shots,
            seed,
            &mut totals,
        );
        layers::replay_mat_vec(&probe.circuit, 4, 20_000, seed, &mut totals);
        // Dense state vectors beyond 20 qubits do not fit the benchmark's
        // memory budget; GHZ-24/32 skip the dense replay.
        if probe.circuit.num_qubits() <= 20 {
            layers::replay_dense(
                &probe.circuit,
                noise,
                spec.dense_replay_shots,
                seed,
                &mut totals,
            );
        }
    }
    let verdict = same_histograms(&replayed, &reference.histograms);
    checks.check(
        "layer-by-layer replay equals driver",
        verdict.is_ok(),
        || verdict.unwrap_err(),
    );

    // The serving layers on the workload's own circuits, plus the QASM and
    // weighted paths.
    let mut bodies: Vec<String> = spec
        .circuits
        .iter()
        .enumerate()
        .map(|(index, (kind, qubits))| {
            serve::generator_body(
                kind,
                *qubits,
                spec.backend,
                spec.server_shots,
                mix(args.seed, 200 + index as u64) % 1_000_000_007,
            )
        })
        .collect();
    bodies.extend(serve::path_bodies(mix(args.seed, 299) % 1_000_000_007));
    let server = serve::probe_server(&bodies, &mut checks)?;
    oracle_check(spec, args.seed, &mut checks)?;

    // The batch scheduler merges chunks in its own loop and records no
    // aggregate stage; the same jobs through the simulator's driver do.
    let aggregate = if spec.batch {
        let mut total = Duration::ZERO;
        let mut histograms = Vec::new();
        for probe in &probe_jobs {
            let outcome =
                simulator(probe.backend, probe.shots, probe.seed, WORKERS).run(&probe.circuit);
            total += outcome.stage_timings.get(Stage::Aggregate);
            histograms.push(outcome.counts.iter().map(|(&k, &v)| (k, v)).collect());
        }
        let verdict = same_histograms(&histograms, &reference.histograms);
        checks.check("simulator histogram equals batch", verdict.is_ok(), || {
            verdict.unwrap_err()
        });
        total
    } else {
        reference.aggregate
    };

    let mut out = Outcome::new(checks);
    out.push("core.aggregate_s", aggregate.as_secs_f64(), "s");
    out.push("core.worker_idle_ratio", figures.worker_idle_ratio, "ratio");
    out.push("batch.chunks", figures.chunks as f64, "count");
    out.push("batch.chunk_ms", median(&figures.chunk_ms), "ms");
    totals.report(&mut out);
    server.report(&mut out);
    // The tracing overhead is the gap between these two.
    out.push("trace.traced_ms", median(&traced) * 1e3, "ms");
    out.push("trace.untraced_ms", median(&untraced) * 1e3, "ms");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(batch: bool) -> SimSpec {
        SimSpec {
            backend: BackendKind::DecisionDiagram,
            batch,
            circuits: &[("ghz", 4)],
            shots: 3_000,
            reduced: ("ghz", 4),
            reduced_shots: 3_000,
            dd_replay_shots: 1,
            dense_replay_shots: 1,
            server_shots: 1,
        }
    }

    /// The QFT ladder of `generators::qft`, with the controlled phase
    /// between qubits 0 and 1 at half its angle when `halve` is set: a
    /// kernel bug in one gate.
    fn qft_ladder(n: usize, halve: bool) -> Circuit {
        let mut circuit = Circuit::with_name(n, "qft_ladder");
        for i in 0..n {
            circuit.h(i);
            for j in (i + 1)..n {
                let angle = PI / (1u64 << (j - i)) as f64;
                let angle = if halve && (i, j) == (0, 1) {
                    angle / 2.0
                } else {
                    angle
                };
                circuit.cp(angle, j, i);
            }
        }
        for i in 0..n / 2 {
            circuit.swap(i, n - 1 - i);
        }
        circuit
    }

    #[test]
    fn the_qft_oracle_catches_a_wrong_controlled_phase() {
        let noise = NoiseModel::paper_defaults();
        let tv = |a: &Circuit, b: &Circuit| {
            let a = qsdd_density::outcome_distribution(a, &noise);
            let b = qsdd_density::outcome_distribution(b, &noise);
            0.5 * a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum::<f64>()
        };
        // The uniform output of QFT on |0...0> hides the wrong phase.
        assert!(tv(&qft_ladder(8, false), &qft_ladder(8, true)) < 1e-9);
        assert!(tv(&generate("qft", 8).unwrap(), &qft_ladder(8, false)) < 1e-12);

        let honest = reduced_circuit("qft", 8).unwrap();
        let wrong = fourier_peak(&qft_ladder(8, true));
        let exact = qsdd_density::outcome_distribution(&honest, &noise);
        let peak = (0..exact.len())
            .max_by(|&a, &b| exact[a].total_cmp(&exact[b]))
            .unwrap();
        assert_eq!(peak, 37);
        for name in ["qft_dd", "qft_dense"] {
            let spec = spec(name).unwrap();
            let mut checks = Checks::new();
            let good = run_reduced(&spec, &honest, 3).unwrap();
            assert!(checks::check_oracle(name, &good, &exact, &mut checks));
            let bad = run_reduced(&spec, &wrong, 3).unwrap();
            assert!(!checks::check_oracle(name, &bad, &exact, &mut checks));
        }
    }

    #[test]
    fn thread_counts_agree_and_a_moved_shot_is_caught() {
        for batch in [true, false] {
            let spec = tiny_spec(batch);
            let source = job_source(spec.circuits, &spec, spec.shots, 9).unwrap();
            let (job, _) = parse_job(&source, &spec, spec.shots, 9).unwrap();
            let two = job.run(2).unwrap();
            let one = job.run(1).unwrap();
            assert!(same_histograms(&two.histograms, &one.histograms).is_ok());
            let mut corrupted = one.histograms.clone();
            let (&outcome, _) = corrupted[0].iter().next().unwrap();
            *corrupted[0].get_mut(&outcome).unwrap() -= 1;
            *corrupted[0].entry(outcome ^ 1).or_insert(0) += 1;
            assert!(same_histograms(&two.histograms, &corrupted).is_err());
        }
    }

    #[test]
    fn the_oracle_check_rejects_a_corrupted_histogram() {
        let spec = tiny_spec(false);
        let source = job_source(spec.circuits, &spec, spec.shots, 5).unwrap();
        let (job, _) = parse_job(&source, &spec, spec.shots, 5).unwrap();
        let histogram = job.run(2).unwrap().histograms.remove(0);
        let exact = qsdd_density::outcome_distribution(
            &generate("ghz", 4).unwrap(),
            &NoiseModel::paper_defaults(),
        );
        let mut checks = Checks::new();
        assert!(checks::check_oracle(
            "ghz4",
            &histogram,
            &exact,
            &mut checks
        ));
        // Move a quarter of the |0000> peak onto an outcome GHZ never
        // produces without an error.
        let mut corrupted = histogram.clone();
        let moved = corrupted[&0] / 2;
        *corrupted.get_mut(&0).unwrap() -= moved;
        *corrupted.entry(0b0101).or_insert(0) += moved;
        assert!(!checks::check_oracle(
            "ghz4",
            &corrupted,
            &exact,
            &mut checks
        ));
        assert_eq!((checks.attempted(), checks.failed()), (2, 1));
    }
}
