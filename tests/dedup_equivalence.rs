//! Dedup-equals-per-shot coverage for trajectory deduplication:
//! property-based evidence that the deduplicating runner is observationally
//! identical to the per-shot path — byte-identical samples, histograms,
//! error counts, node statistics and observable-sum bit patterns — on
//! random circuits with mid-circuit measurements and resets, under noise
//! models with and without amplitude damping, across 1, 2 and 8 worker
//! threads.
//!
//! The generated circuits exercise every execution mode of the dedup
//! planner: full-program pattern groups (unitary circuits under passive
//! noise), prefix groups with checkpointed live resume (mid-circuit
//! measurements), live fallback (damping decays, deviations ahead of
//! damping sites), and the declined-support path (non-unitary tails).

use proptest::prelude::*;
use qsdd::circuit::Circuit;
use qsdd::core::{
    execute, BackendKind, ExecContext, Observable, OptLevel, RunMode, RunPlan, ShotEngine,
    StochasticOutcome,
};
use qsdd::noise::NoiseModel;

const SHOTS: usize = 48;

/// Strategy: a random circuit over `qubits` qubits mixing unitary gates
/// with mid-circuit measurements and resets (`clbits == qubits`).
fn arb_circuit(qubits: usize, max_len: usize, measured: bool) -> impl Strategy<Value = Circuit> {
    let op = (0..10u8, 0..qubits, 0..qubits, -3.2f64..3.2f64);
    proptest::collection::vec(op, 1..max_len).prop_map(move |ops| {
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
                7 if measured => {
                    c.measure(a, a);
                }
                8 if measured => {
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

/// Asserts that a deduplicated outcome equals the per-shot reference byte
/// for byte in every deterministic field.
fn assert_identical(dedup: &StochasticOutcome, reference: &StochasticOutcome) {
    assert_eq!(dedup.counts, reference.counts, "histogram diverged");
    assert_eq!(dedup.shots, reference.shots);
    assert_eq!(dedup.error_events, reference.error_events);
    assert_eq!(dedup.dd_nodes_peak, reference.dd_nodes_peak);
    assert_eq!(
        dedup.dd_nodes_avg.to_bits(),
        reference.dd_nodes_avg.to_bits(),
        "node average diverged"
    );
    assert_eq!(
        dedup.observable_estimates.len(),
        reference.observable_estimates.len()
    );
    for (a, b) in dedup
        .observable_estimates
        .iter()
        .zip(&reference.observable_estimates)
    {
        assert_eq!(a.to_bits(), b.to_bits(), "observable sum diverged");
    }
}

fn compare_engine(engine: &ShotEngine, observables: &[Observable]) {
    for threads in [1usize, 2, 8] {
        let reference = execute(
            engine,
            &mut ExecContext::new(),
            &RunPlan::new(SHOTS, threads, RunMode::PerShot),
            observables,
        )
        .unwrap();
        let dedup = execute(
            engine,
            &mut ExecContext::new(),
            &RunPlan::new(SHOTS, threads, RunMode::Dedup),
            observables,
        )
        .unwrap();
        assert_identical(&dedup, &reference);
        if let Some(stats) = &dedup.dedup {
            assert!(stats.unique_trajectories <= SHOTS as u64);
            assert!(stats.live_shots <= SHOTS as u64);
            assert!(
                stats.unique_trajectories >= stats.live_shots,
                "every live shot is its own trajectory"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Full paper noise (including state-dependent amplitude damping) on
    /// circuits with mid-circuit measurements and resets: prefix groups,
    /// live fallback and declined support must all reproduce the per-shot
    /// path byte for byte.
    #[test]
    fn dedup_matches_per_shot_under_damping_noise(
        circuit in arb_circuit(4, 20, true),
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
        compare_engine(&engine, &observables);
    }

    /// Strong passive-only noise on unitary circuits: rich multi-error
    /// patterns through the full-program dedup path.
    #[test]
    fn dedup_matches_per_shot_under_strong_passive_noise(
        circuit in arb_circuit(4, 16, false),
        seed in 0u64..1000,
    ) {
        let engine = ShotEngine::new(
            &circuit,
            BackendKind::DecisionDiagram,
            NoiseModel::new(0.05, 0.0, 0.05),
            seed,
            OptLevel::O0,
        );
        let observables = [Observable::QubitExcitation(2)];
        compare_engine(&engine, &observables);
        // Unitary circuits under passive noise always support dedup.
        prop_assert!(engine.supports_dedup());
    }

    /// Mid-circuit measurements under passive noise: the checkpoint-resume
    /// prefix path (and its declined-support sibling for short prefixes).
    #[test]
    fn dedup_matches_per_shot_with_measurements(
        circuit in arb_circuit(3, 18, true),
        seed in 0u64..1000,
    ) {
        let engine = ShotEngine::new(
            &circuit,
            BackendKind::DecisionDiagram,
            NoiseModel::new(0.02, 0.0, 0.02),
            seed,
            OptLevel::O0,
        );
        compare_engine(&engine, &[Observable::BasisProbability(1)]);
    }

    /// The dense statevector back-end deduplicates full unitary programs
    /// and declines everything else; both paths must match per-shot
    /// execution byte for byte.
    #[test]
    fn dense_dedup_matches_per_shot(
        circuit in arb_circuit(3, 14, false),
        seed in 0u64..1000,
    ) {
        let engine = ShotEngine::new(
            &circuit,
            BackendKind::Statevector,
            NoiseModel::new(0.03, 0.0, 0.03),
            seed,
            OptLevel::O0,
        );
        compare_engine(&engine, &[Observable::QubitExcitation(0)]);
    }
}

#[test]
fn dedup_groups_dominate_at_realistic_noise() {
    use qsdd::circuit::generators::ghz;
    let engine = ShotEngine::new(
        &ghz(16),
        BackendKind::DecisionDiagram,
        NoiseModel::noiseless().with_depolarizing(0.001),
        2021,
        OptLevel::O0,
    );
    let outcome = execute(
        &engine,
        &mut ExecContext::new(),
        &RunPlan::new(10_000, 0, RunMode::Dedup),
        &[],
    )
    .unwrap();
    let stats = outcome.dedup.expect("dedup must engage on this workload");
    assert_eq!(stats.live_shots, 0, "passive noise never goes live");
    assert!(
        stats.unique_trajectories < 1000,
        "expected heavy sharing, got {} unique trajectories",
        stats.unique_trajectories
    );
    assert!(outcome.dedup_hit_rate() > 0.9);
    // And the shared trajectories reproduce the per-shot histogram exactly.
    let reference = execute(
        &engine,
        &mut ExecContext::new(),
        &RunPlan::new(10_000, 0, RunMode::PerShot),
        &[],
    )
    .unwrap();
    assert_eq!(outcome.counts, reference.counts);
    assert_eq!(outcome.error_events, reference.error_events);
}

#[test]
fn transpiled_engines_dedup_through_the_output_layout() {
    use qsdd::circuit::generators::qft;
    // qft ends in trailing SWAPs which O2 elides into an output relabeling;
    // deduplicated outcomes must be restored through it exactly like
    // per-shot outcomes.
    let circuit = qft(4);
    let engine = ShotEngine::new(
        &circuit,
        BackendKind::DecisionDiagram,
        NoiseModel::new(0.01, 0.0, 0.01),
        11,
        OptLevel::O2,
    );
    for threads in [1usize, 3] {
        let reference = execute(
            &engine,
            &mut ExecContext::new(),
            &RunPlan::new(400, threads, RunMode::PerShot),
            &[],
        )
        .unwrap();
        let dedup = execute(
            &engine,
            &mut ExecContext::new(),
            &RunPlan::new(400, threads, RunMode::Dedup),
            &[],
        )
        .unwrap();
        assert_eq!(dedup.counts, reference.counts);
        assert_eq!(dedup.error_events, reference.error_events);
    }
}

#[test]
fn simulator_facade_exposes_the_dedup_switch() {
    use qsdd::circuit::generators::ghz;
    use qsdd::core::StochasticSimulator;
    let base = StochasticSimulator::new()
        .with_shots(500)
        .with_seed(5)
        .with_threads(2)
        .with_noise(NoiseModel::noiseless().with_depolarizing(0.002));
    let on = base.clone().run(&ghz(8));
    let off = base.with_dedup(false).run(&ghz(8));
    assert!(on.dedup.is_some(), "dedup engages by default");
    assert!(off.dedup.is_none(), "--no-dedup falls back to per-shot");
    assert_eq!(on.counts, off.counts);
    assert_eq!(on.error_events, off.error_events);
    assert_eq!(on.dd_nodes_peak, off.dd_nodes_peak);
}
