//! Criterion benchmark for the `qsdd-transpile` pipeline: stochastic
//! simulation throughput at `O0` vs `O2` on the GHZ, QFT and Grover
//! generators, plus the cost of transpilation itself.
//!
//! Because the Monte-Carlo runner executes the same circuit once per shot,
//! every gate the transpiler removes is saved `shots` times — the gate-count
//! report printed before the timings quantifies the expected advantage.
//!
//! Both engines are measured because they profit differently: the dense
//! baseline's cost is strictly proportional to the gate count, so the
//! speedup tracks the reduction. The decision-diagram engine profits on
//! QFT-style circuits (elided SWAPs are expensive DD permutations), but
//! single-qubit fusion can *hurt* it under amplitude damping: fused `U3`
//! gates produce generic amplitudes that miss the tolerance-interned
//! complex table, making each per-gate Kraus application dearer than the
//! gates saved (observed on Grover; noiseless DD runs profit as expected).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qsdd_circuit::generators::{ghz, grover, qft};
use qsdd_circuit::Circuit;
use qsdd_core::{BackendKind, StochasticSimulator};
use qsdd_noise::NoiseModel;
use qsdd_transpile::{transpile, OptLevel};

const SHOTS: usize = 16;

fn workloads() -> Vec<Circuit> {
    vec![ghz(16), qft(10), grover(6, 5, None)]
}

fn bench_engine(
    group: &mut criterion::BenchmarkGroup,
    backend: BackendKind,
    engine: &str,
    name: &str,
    original: &Circuit,
    optimized: &Circuit,
) {
    let simulator = StochasticSimulator::new()
        .with_backend(backend)
        .with_shots(SHOTS)
        .with_threads(1)
        .with_seed(1)
        .with_noise(NoiseModel::paper_defaults());
    group.bench_with_input(
        BenchmarkId::new(format!("{engine}_o0"), name),
        original,
        |b, circuit| {
            b.iter(|| simulator.run(circuit));
        },
    );
    group.bench_with_input(
        BenchmarkId::new(format!("{engine}_o2"), name),
        optimized,
        |b, circuit| {
            b.iter(|| simulator.run(circuit));
        },
    );
}

fn bench_shot_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("transpile_shots");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    for circuit in workloads() {
        let name = circuit.name().to_string();
        let optimized = transpile(&circuit, OptLevel::O2);
        println!(
            "{name}: O0 {} gates, O2 {} gates ({:.1} % removed)",
            circuit.stats().gate_count,
            optimized.circuit.stats().gate_count,
            100.0 * optimized.report.reduction(),
        );
        bench_engine(
            &mut group,
            BackendKind::DecisionDiagram,
            "dd",
            &name,
            &circuit,
            &optimized.circuit,
        );
        bench_engine(
            &mut group,
            BackendKind::Statevector,
            "dense",
            &name,
            &circuit,
            &optimized.circuit,
        );
    }
    group.finish();
}

fn bench_transpile_cost(c: &mut Criterion) {
    // The transpiler runs once per simulation, not once per shot; this
    // group shows that its cost is amortised away by any realistic shot
    // count.
    let mut group = c.benchmark_group("transpile_cost");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    for circuit in workloads() {
        let name = circuit.name().to_string();
        group.bench_with_input(BenchmarkId::new("o2", &name), &circuit, |b, circuit| {
            b.iter(|| transpile(circuit, OptLevel::O2));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_shot_throughput, bench_transpile_cost);
criterion_main!(benches);
