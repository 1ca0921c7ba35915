//! Reuse-equals-fresh coverage for the compile/execute architecture:
//! property-based evidence that a reused [`ExecContext`] is observationally
//! identical to fresh-package execution — byte-identical samples,
//! histograms and observable sums — on random circuits with mid-circuit
//! measurements and resets under the paper's noise model, across 1, 2 and
//! 8 worker threads.

use std::collections::HashMap;

use proptest::prelude::*;
use qsdd::circuit::Circuit;
use qsdd::core::{
    execute, BackendKind, ExecContext, Observable, OptLevel, RunMode, RunPlan, ShotEngine,
};
use qsdd::noise::NoiseModel;

const SHOTS: usize = 48;

/// Strategy: a random circuit over `qubits` qubits mixing unitary gates
/// with mid-circuit measurements and resets (`clbits == qubits`).
fn arb_noisy_circuit(qubits: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
    let op = (0..10u8, 0..qubits, 0..qubits, -3.2f64..3.2f64);
    proptest::collection::vec(op, 1..max_len).prop_map(move |ops| {
        // `Circuit::new` allocates one classical bit per qubit, so
        // mid-circuit `measure(q, q)` is always in range.
        let mut c = Circuit::new(qubits);
        for (kind, a, b, angle) in ops {
            match kind {
                0 => {
                    c.h(a);
                }
                1 => {
                    c.x(a);
                }
                2 => {
                    c.rz(angle, a);
                }
                3 => {
                    c.ry(angle, a);
                }
                4 => {
                    if a != b {
                        c.cx(a, b);
                    } else {
                        c.s(a);
                    }
                }
                5 => {
                    if a != b {
                        c.cz(a, b);
                    } else {
                        c.z(a);
                    }
                }
                6 => {
                    if a != b {
                        c.swap(a, b);
                    } else {
                        c.t(a);
                    }
                }
                7 => {
                    // Mid-circuit measurement into the matching clbit.
                    c.measure(a, a);
                }
                8 => {
                    // Mid-circuit reset.
                    c.reset(a);
                }
                _ => {
                    c.sx(a);
                }
            }
        }
        c
    })
}

/// Aggregates shots `0..shots` exactly like `run_engine`'s strided worker
/// loop, but with a **fresh throwaway context for every shot** — the
/// reference the reused-context paths must reproduce byte for byte.
fn fresh_reference(
    engine: &ShotEngine,
    shots: usize,
    threads: usize,
    observables: &[Observable],
) -> (HashMap<u64, u64>, Vec<f64>, u64) {
    let mapped = engine.map_observables(observables);
    let mut counts: HashMap<u64, u64> = HashMap::new();
    let mut errors = 0u64;
    // Per-worker partial sums merged in worker order, mirroring run_engine.
    let mut sums = vec![0.0f64; observables.len()];
    let mut samples = 0u64;
    for worker in 0..threads {
        let mut local = vec![0.0f64; observables.len()];
        let mut shot = worker;
        while shot < shots {
            let (sample, values) = engine.run_shot_with_observables(shot as u64, &mapped);
            *counts.entry(sample.outcome).or_insert(0) += 1;
            errors += sample.error_events;
            for (sum, v) in local.iter_mut().zip(&values) {
                *sum += v;
            }
            samples += 1;
            shot += threads;
        }
        for (sum, v) in sums.iter_mut().zip(&local) {
            *sum += v;
        }
    }
    let means = if samples == 0 {
        vec![0.0; observables.len()]
    } else {
        // samples counts worker passes; each shot is visited exactly once.
        sums.iter().map(|s| s / shots as f64).collect()
    };
    (counts, means, errors)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A reused context replays every shot byte-identically to a fresh
    /// throwaway context — samples and observable values alike.
    #[test]
    fn reused_context_shots_are_byte_identical_to_fresh(
        circuit in arb_noisy_circuit(4, 20),
        seed in 0u64..1000,
    ) {
        let engine = ShotEngine::new(
            &circuit,
            BackendKind::DecisionDiagram,
            NoiseModel::paper_defaults(),
            seed,
            OptLevel::O0,
        );
        let observables = [
            Observable::BasisProbability(0),
            Observable::QubitExcitation(1),
        ];
        let mapped = engine.map_observables(&observables);
        let mut reused = engine.new_context();
        for shot in 0..SHOTS as u64 {
            let (fresh_sample, fresh_values) =
                engine.run_shot_with_observables(shot, &mapped);
            let (reused_sample, reused_values) =
                engine.run_shot_with_observables_in(&mut reused, shot, &mapped);
            prop_assert_eq!(reused_sample, fresh_sample);
            for (a, b) in reused_values.iter().zip(&fresh_values) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "observable value diverged");
            }
        }
    }

    /// The full Monte-Carlo runner (reused per-worker contexts) reproduces
    /// the fresh-per-shot reference byte for byte — histograms, error
    /// counts and observable sums — for 1, 2 and 8 threads.
    #[test]
    fn run_engine_matches_fresh_reference_across_thread_counts(
        circuit in arb_noisy_circuit(4, 16),
        seed in 0u64..1000,
    ) {
        let engine = ShotEngine::new(
            &circuit,
            BackendKind::DecisionDiagram,
            NoiseModel::paper_defaults(),
            seed,
            OptLevel::O0,
        );
        let observables = [
            Observable::BasisProbability(0),
            Observable::QubitExcitation(2),
        ];
        let mut histograms = Vec::new();
        for threads in [1usize, 2, 8] {
            let outcome = execute(&engine, &mut ExecContext::new(), &RunPlan::new(SHOTS, threads, RunMode::PerShot), &observables).unwrap();
            let (fresh_counts, fresh_means, fresh_errors) =
                fresh_reference(&engine, SHOTS, threads, &observables);
            prop_assert_eq!(&outcome.counts, &fresh_counts, "histogram diverged");
            prop_assert_eq!(outcome.error_events, fresh_errors);
            for (a, b) in outcome.observable_estimates.iter().zip(&fresh_means) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "observable sum diverged");
            }
            histograms.push(outcome.counts);
        }
        // Histograms (integer merges) are additionally identical across
        // thread counts.
        prop_assert_eq!(&histograms[0], &histograms[1]);
        prop_assert_eq!(&histograms[0], &histograms[2]);
    }

    /// The dense back-end's reusable amplitude buffers are equally
    /// unobservable.
    #[test]
    fn dense_reused_context_is_byte_identical_to_fresh(
        circuit in arb_noisy_circuit(3, 14),
        seed in 0u64..1000,
    ) {
        let engine = ShotEngine::new(
            &circuit,
            BackendKind::Statevector,
            NoiseModel::paper_defaults(),
            seed,
            OptLevel::O0,
        );
        let observables = [Observable::QubitExcitation(0)];
        let mapped = engine.map_observables(&observables);
        let mut reused = engine.new_context();
        for shot in 0..SHOTS as u64 {
            let (fresh_sample, fresh_values) =
                engine.run_shot_with_observables(shot, &mapped);
            let (reused_sample, reused_values) =
                engine.run_shot_with_observables_in(&mut reused, shot, &mapped);
            prop_assert_eq!(reused_sample, fresh_sample);
            for (a, b) in reused_values.iter().zip(&fresh_values) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
