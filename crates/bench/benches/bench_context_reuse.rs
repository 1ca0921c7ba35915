//! Criterion benchmark for the compile/execute refactor: per-shot cost of
//! the **fresh-package baseline** (a faithful replica of the historical
//! `run_once`: a brand-new `DdPackage` per shot, every operator diagram
//! re-hash-consed per gate occurrence, error operators built only when an
//! error fires) versus the **compiled program with a reused context**
//! (compile once, rewind the same context between shots) on the mixed
//! GHZ / QFT / Grover set under the paper's noise model.
//!
//! Besides the usual per-benchmark timings, the run prints explicit
//! `speedup` lines (`reuse ≥ 2×` is the acceptance bar for the refactor)
//! computed over the identical shot workload, per circuit and for the
//! mixed set as a whole, plus an outcome cross-check between the two
//! paths (both consume the per-shot random stream identically).

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use qsdd_circuit::generators::{ghz, grover, qft};
use qsdd_circuit::{Circuit, Operation};
use qsdd_core::{DdSimulator, StochasticBackend};
use qsdd_dd::{DdPackage, Matrix2};
use qsdd_noise::{NoiseModel, StochasticAction};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHOTS: u64 = 10;

/// The mixed benchmark set: one entanglement, one transform, one search
/// circuit (the workload families of Tables Ia-Ic).
fn mixed_set() -> Vec<(&'static str, Circuit)> {
    vec![
        ("ghz_16", ghz(16)),
        ("qft_12", qft(12)),
        ("grover_6", grover(6, 1, None)),
    ]
}

/// One shot exactly the way the pre-refactor `DdSimulator::run_once` did
/// it: fresh package, operators hash-consed per gate occurrence, stochastic
/// error operators built lazily when an error fires.
fn legacy_fresh_shot(circuit: &Circuit, noise: &NoiseModel, rng: &mut StdRng) -> u64 {
    let n = circuit.num_qubits();
    let mut dd = DdPackage::new();
    let mut state = dd.zero_state(n);
    let mut clbits = vec![false; circuit.num_clbits()];
    let mut measured_any = false;
    let channels = noise.channels();
    for op in circuit {
        match op {
            Operation::Gate {
                gate,
                target,
                controls,
            } => {
                let m = gate.matrix().expect("non-swap gates provide a matrix");
                let op_dd = dd.controlled_op(n, *target, controls, m);
                state = dd.mat_vec_mul(op_dd, state);
            }
            Operation::Swap { a, b } => {
                let op_dd = dd.swap_op(n, *a, *b);
                state = dd.mat_vec_mul(op_dd, state);
            }
            Operation::Measure { qubit, clbit } => {
                let (outcome, collapsed) = dd.measure_qubit(state, *qubit, rng);
                state = collapsed;
                clbits[*clbit] = outcome;
                measured_any = true;
                continue;
            }
            Operation::Reset { qubit } => {
                let (outcome, collapsed) = dd.measure_qubit(state, *qubit, rng);
                state = collapsed;
                if outcome {
                    let x = dd.single_qubit_op(n, *qubit, Matrix2::pauli_x());
                    state = dd.mat_vec_mul(x, state);
                }
                continue;
            }
            Operation::Barrier => continue,
        }
        for qubit in op.qubits() {
            for channel in &channels {
                match channel.sample_action(rng) {
                    StochasticAction::None => {}
                    StochasticAction::Unitary(m) => {
                        let err = dd.single_qubit_op(n, qubit, m);
                        state = dd.mat_vec_mul(err, state);
                    }
                    StochasticAction::Kraus(branches) => {
                        // Same one-branch rule as the compiled path, so
                        // the comparison measures context reuse alone.
                        let p_decay = dd.decay_probability(state, qubit, channel.probability());
                        let branch = if rng.gen::<f64>() < p_decay {
                            branches[0]
                        } else {
                            branches[1]
                        };
                        let kraus = dd.single_qubit_op(n, qubit, branch);
                        state = dd.apply_kraus(kraus, state).1;
                    }
                }
            }
        }
    }
    if measured_any {
        clbits
            .iter()
            .fold(0u64, |acc, &bit| (acc << 1) | u64::from(bit))
    } else {
        dd.sample_measurement(state, n, rng)
    }
}

fn run_legacy(circuit: &Circuit, noise: &NoiseModel, shots: u64) -> u64 {
    let mut acc = 0u64;
    for shot in 0..shots {
        let mut rng = StdRng::seed_from_u64(shot);
        acc ^= legacy_fresh_shot(circuit, noise, &mut rng);
    }
    acc
}

/// Runs `shots` shots the compiled way: the program is prepared once by the
/// caller and the worker context is rewound between shots.
fn run_reused(
    backend: &DdSimulator,
    program: &<DdSimulator as StochasticBackend>::Program,
    ctx: &mut <DdSimulator as StochasticBackend>::Context,
    shots: u64,
) -> u64 {
    let mut acc = 0u64;
    for shot in 0..shots {
        let mut rng = StdRng::seed_from_u64(shot);
        acc ^= backend.run_shot(program, ctx, &mut rng).outcome;
    }
    acc
}

fn bench_context_reuse(c: &mut Criterion) {
    let noise = NoiseModel::paper_defaults();
    let backend = DdSimulator::new();
    let mut group = c.benchmark_group("context_reuse");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    for (name, circuit) in &mixed_set() {
        group.bench_with_input(
            BenchmarkId::new("fresh_package", name),
            circuit,
            |b, circuit| {
                b.iter(|| black_box(run_legacy(circuit, &noise, SHOTS)));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("reused_context", name),
            circuit,
            |b, circuit| {
                let program = backend.compile(circuit, &noise);
                let mut ctx = backend.new_context();
                b.iter(|| black_box(run_reused(&backend, &program, &mut ctx, SHOTS)));
            },
        );
    }
    group.finish();

    // Explicit speedup report over an identical, larger workload: the
    // headline number of the compile/execute refactor. Outcomes of both
    // paths are cross-checked shot by shot along the way (both consume the
    // per-shot generator identically).
    let report_shots = 200u64;
    let mut fresh_total = Duration::ZERO;
    let mut reused_total = Duration::ZERO;
    let mut mismatches = 0u64;
    println!("## context_reuse speedup ({report_shots} shots per circuit)");
    for (name, circuit) in &mixed_set() {
        let started = Instant::now();
        black_box(run_legacy(circuit, &noise, report_shots));
        let fresh = started.elapsed();

        let program = backend.compile(circuit, &noise);
        let mut ctx = backend.new_context();
        // Seat the context once outside the measurement, mirroring a warm
        // worker; the first rewind is identical to every later one.
        black_box(run_reused(&backend, &program, &mut ctx, 1));
        let started = Instant::now();
        black_box(run_reused(&backend, &program, &mut ctx, report_shots));
        let reused = started.elapsed();

        for shot in 0..32u64 {
            let mut rng_a = StdRng::seed_from_u64(shot);
            let mut rng_b = StdRng::seed_from_u64(shot);
            let legacy = legacy_fresh_shot(circuit, &noise, &mut rng_a);
            let compiled = backend.run_shot(&program, &mut ctx, &mut rng_b).outcome;
            if legacy != compiled {
                mismatches += 1;
            }
        }

        fresh_total += fresh;
        reused_total += reused;
        println!(
            "speedup/{name}: fresh {:.3} ms, reused {:.3} ms, speedup {:.2}x",
            fresh.as_secs_f64() * 1e3,
            reused.as_secs_f64() * 1e3,
            fresh.as_secs_f64() / reused.as_secs_f64()
        );
    }
    println!(
        "speedup/mixed_total: fresh {:.3} ms, reused {:.3} ms, speedup {:.2}x",
        fresh_total.as_secs_f64() * 1e3,
        reused_total.as_secs_f64() * 1e3,
        fresh_total.as_secs_f64() / reused_total.as_secs_f64()
    );
    println!("outcome cross-check: {mismatches} mismatches in 96 paired shots");
}

criterion_group!(benches, bench_context_reuse);
criterion_main!(benches);
