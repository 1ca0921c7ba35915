//! Differential coverage for the weighted trajectory-enumeration driver.
//!
//! Two oracles bracket the weighted estimator:
//!
//! * **Full coverage** — when the enumerator visits the entire pattern
//!   space, the weighted distribution is an *exact* computation and must
//!   match the density-matrix reference (`qsdd-density`) to floating-point
//!   accuracy, on every backend, and reproduce bit-identically across
//!   repeats and requested thread counts (the driver is serial).
//! * **Partial coverage** — with a residual tail the result is a statistical
//!   estimate and must track the per-shot Monte-Carlo path within a total
//!   variation bound.
//!
//! Circuits the planner declines (mid-circuit measurement/reset) must fall
//! back to the deduplicating sampler byte for byte.

use proptest::prelude::*;
use qsdd::circuit::Circuit;
use qsdd::core::{
    execute, BackendKind, ExecContext, Observable, OptLevel, RunMode, RunPlan, ShotEngine,
    StochasticOutcome, WeightedOptions,
};
use qsdd::density;
use qsdd::noise::NoiseModel;

/// Strategy: a random unitary circuit over `qubits` qubits (no mid-circuit
/// measurements — the density oracle compares final populations).
fn arb_unitary(qubits: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
    let op = (0..8u8, 0..qubits, 0..qubits, -3.2f64..3.2f64);
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
                    c.t(a);
                }
                _ => {
                    c.sx(a);
                }
            }
        }
        c
    })
}

/// Total variation distance between two integer histograms.
fn total_variation(a: &StochasticOutcome, b: &StochasticOutcome) -> f64 {
    let mut outcomes: Vec<u64> = a.counts.keys().chain(b.counts.keys()).copied().collect();
    outcomes.sort_unstable();
    outcomes.dedup();
    let (na, nb) = (a.shots as f64, b.shots as f64);
    0.5 * outcomes
        .iter()
        .map(|outcome| {
            let pa = *a.counts.get(outcome).unwrap_or(&0) as f64 / na;
            let pb = *b.counts.get(outcome).unwrap_or(&0) as f64 / nb;
            (pa - pb).abs()
        })
        .sum::<f64>()
}

/// Asserts two weighted outcomes are bit-identical in every field that the
/// determinism contract covers.
fn assert_bit_identical(a: &StochasticOutcome, b: &StochasticOutcome) {
    assert_eq!(a.counts, b.counts, "histogram diverged");
    assert_eq!(a.error_events, b.error_events);
    let (sa, sb) = (
        a.weighted.as_ref().expect("weighted stats"),
        b.weighted.as_ref().expect("weighted stats"),
    );
    assert_eq!(sa.covered_mass.to_bits(), sb.covered_mass.to_bits());
    assert_eq!(sa.enumerated_trajectories, sb.enumerated_trajectories);
    assert_eq!(sa.tail_shots, sb.tail_shots);
    assert_eq!(sa.distribution.len(), sb.distribution.len());
    for ((oa, pa), (ob, pb)) in sa.distribution.iter().zip(&sb.distribution) {
        assert_eq!(oa, ob);
        assert_eq!(pa.to_bits(), pb.to_bits(), "distribution drifted");
    }
    for (x, y) in a.observable_estimates.iter().zip(&b.observable_estimates) {
        assert_eq!(x.to_bits(), y.to_bits(), "observable sums drifted");
    }
}

/// Full-coverage weighted run against the exact density-matrix reference.
fn check_full_coverage(circuit: &Circuit, noise: NoiseModel, seed: u64, backend: BackendKind) {
    let engine = ShotEngine::new(circuit, backend, noise, seed, OptLevel::O0);
    assert!(
        engine.supports_weighted(),
        "passive unitary plans enumerate"
    );
    // No cutoff, generous budget: the enumerator must exhaust the space.
    let options = WeightedOptions::default()
        .with_mass_cutoff(1.0)
        .with_max_patterns(1 << 20);
    let outcome = execute(
        &engine,
        &mut ExecContext::new(),
        &RunPlan::new(512, 1, RunMode::Weighted(options.clone())),
        &[],
    )
    .unwrap();
    let stats = outcome.weighted.as_ref().expect("weighted stats");
    assert!(
        stats.covered_mass > 1.0 - 1e-9,
        "expected full coverage, got {}",
        stats.covered_mass
    );
    assert_eq!(stats.tail_shots, 0, "full coverage needs no tail");

    let exact = density::outcome_distribution(circuit, &noise);
    let mut weighted = vec![0.0f64; exact.len()];
    for &(outcome, p) in &stats.distribution {
        weighted[outcome as usize] = p;
    }
    for (index, (&w, &e)) in weighted.iter().zip(&exact).enumerate() {
        assert!(
            (w - e).abs() < 1e-9,
            "outcome {index}: weighted {w:.12} vs density {e:.12}"
        );
    }

    // Determinism: repeats and thread counts reproduce the result bit for
    // bit (the driver is serial; `threads` only affects the fallback).
    let observables = [Observable::BasisProbability(0)];
    let reference = execute(
        &engine,
        &mut ExecContext::new(),
        &RunPlan::new(512, 1, RunMode::Weighted(options.clone())),
        &observables,
    )
    .unwrap();
    for threads in [1usize, 2, 8] {
        let again = execute(
            &engine,
            &mut ExecContext::new(),
            &RunPlan::new(512, threads, RunMode::Weighted(options.clone())),
            &observables,
        )
        .unwrap();
        assert_bit_identical(&again, &reference);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Phase-flip-only noise keeps the pattern space small (two options per
    /// site), so random 3-qubit circuits can be enumerated *completely* and
    /// checked against the exact density-matrix evolution.
    #[test]
    fn full_coverage_matches_the_density_oracle(
        circuit in arb_unitary(3, 6),
        seed in 0u64..1000,
    ) {
        check_full_coverage(
            &circuit,
            NoiseModel::new(0.0, 0.0, 0.02),
            seed,
            BackendKind::DecisionDiagram,
        );
    }

    /// The same exactness contract holds on the dense statevector backend.
    #[test]
    fn dense_full_coverage_matches_the_density_oracle(
        circuit in arb_unitary(3, 5),
        seed in 0u64..1000,
    ) {
        check_full_coverage(
            &circuit,
            NoiseModel::new(0.0, 0.0, 0.03),
            seed,
            BackendKind::Statevector,
        );
    }

    /// Partial coverage under the paper's mixed noise (amplitude damping
    /// constrains the enumerable prefix, so a residual tail always runs):
    /// the weighted histogram must track the per-shot sampler within a
    /// total-variation bound, at every requested thread count.
    #[test]
    fn partial_coverage_with_tail_tracks_per_shot(
        circuit in arb_unitary(4, 10),
        seed in 0u64..1000,
    ) {
        let engine = ShotEngine::new(
            &circuit,
            BackendKind::DecisionDiagram,
            NoiseModel::paper_defaults(),
            seed,
            OptLevel::O0,
        );
        let shots = 1500;
        let reference = execute(&engine, &mut ExecContext::new(), &RunPlan::new(shots, 0, RunMode::PerShot), &[]).unwrap();
        let options = WeightedOptions::default();
        let baseline = execute(&engine, &mut ExecContext::new(), &RunPlan::new(shots, 1, RunMode::Weighted(options.clone())), &[]).unwrap();
        for threads in [2usize, 8] {
            let again = execute(&engine, &mut ExecContext::new(), &RunPlan::new(shots, threads, RunMode::Weighted(options.clone())), &[]).unwrap();
            assert_bit_identical(&again, &baseline);
        }
        let stats = baseline.weighted.as_ref().expect("weighted stats");
        prop_assert!(stats.covered_mass > 0.0 && stats.covered_mass <= 1.0 + 1e-12);
        let tv = total_variation(&baseline, &reference);
        prop_assert!(
            tv < 0.2,
            "weighted vs per-shot TV {tv:.4} (covered {:.4}, tail {})",
            stats.covered_mass,
            stats.tail_shots
        );
    }
}

#[test]
fn measured_circuits_fall_back_to_the_dedup_sampler() {
    // Mid-circuit measurement and reset are outside the enumerable space:
    // the weighted entry point must decline and produce the deduplicating
    // sampler's result byte for byte.
    let mut circuit = Circuit::new(3);
    circuit.h(0);
    circuit.cx(0, 1);
    circuit.measure(1, 1);
    circuit.reset(2);
    circuit.h(2);
    let engine = ShotEngine::new(
        &circuit,
        BackendKind::DecisionDiagram,
        NoiseModel::paper_defaults(),
        42,
        OptLevel::O0,
    );
    assert!(!engine.supports_weighted());
    let observables = [Observable::QubitExcitation(2)];
    for threads in [1usize, 2, 8] {
        let weighted = execute(
            &engine,
            &mut ExecContext::new(),
            &RunPlan::new(300, threads, RunMode::Weighted(WeightedOptions::default())),
            &observables,
        )
        .unwrap();
        let dedup = execute(
            &engine,
            &mut ExecContext::new(),
            &RunPlan::new(300, threads, RunMode::Dedup),
            &observables,
        )
        .unwrap();
        assert!(weighted.weighted.is_none(), "fallback carries no stats");
        assert_eq!(weighted.counts, dedup.counts);
        assert_eq!(weighted.error_events, dedup.error_events);
        for (a, b) in weighted
            .observable_estimates
            .iter()
            .zip(&dedup.observable_estimates)
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

#[test]
fn exact_histogram_mode_skips_the_tail_and_renormalises() {
    use qsdd::circuit::generators::ghz;
    // GHZ-16 under the paper's noise: the damping prefix caps the
    // enumerable mass well below 1, so ordinary weighted runs need a tail —
    // exact-histogram mode must skip it and renormalise over the covered
    // mass instead.
    let engine = ShotEngine::new(
        &ghz(16),
        BackendKind::DecisionDiagram,
        NoiseModel::paper_defaults(),
        7,
        OptLevel::O0,
    );
    let sampled = execute(
        &engine,
        &mut ExecContext::new(),
        &RunPlan::new(2000, 1, RunMode::Weighted(WeightedOptions::default())),
        &[],
    )
    .unwrap();
    let exact = execute(
        &engine,
        &mut ExecContext::new(),
        &RunPlan::new(
            2000,
            1,
            RunMode::Weighted(WeightedOptions::default().with_exact_histogram(true)),
        ),
        &[],
    )
    .unwrap();
    let sampled_stats = sampled.weighted.as_ref().unwrap();
    let exact_stats = exact.weighted.as_ref().unwrap();
    assert!(sampled_stats.tail_shots > 0, "partial coverage runs a tail");
    assert_eq!(exact_stats.tail_shots, 0, "exact mode never samples");
    assert_eq!(
        sampled_stats.covered_mass.to_bits(),
        exact_stats.covered_mass.to_bits(),
        "the enumerated prefix is identical either way"
    );
    assert!(sampled_stats.covered_mass < 0.999, "damping caps coverage");
    // Both distributions are normalised deliverables.
    for stats in [sampled_stats, exact_stats] {
        let total: f64 = stats.distribution.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9, "distribution sums to {total}");
    }
    // And the synthesised histogram accounts for every requested shot.
    assert_eq!(exact.counts.values().sum::<u64>(), 2000);
    assert_eq!(sampled.counts.values().sum::<u64>(), 2000);
}

#[test]
fn weighted_matches_density_on_the_ghz_workload_with_depolarizing_noise() {
    use qsdd::circuit::generators::ghz;
    // The benchmark's sibling workload (passive depolarizing noise, no
    // damping): full enumeration is feasible and must match the density
    // matrix — the strongest form of the "weighted replaces sampling"
    // claim on a workload the paper actually reports.
    let circuit = ghz(4);
    let noise = NoiseModel::noiseless().with_depolarizing(0.002);
    let engine = ShotEngine::new(
        &circuit,
        BackendKind::DecisionDiagram,
        noise,
        2021,
        OptLevel::O0,
    );
    let options = WeightedOptions::default()
        .with_mass_cutoff(1.0)
        .with_max_patterns(1 << 22);
    let outcome = execute(
        &engine,
        &mut ExecContext::new(),
        &RunPlan::new(1000, 1, RunMode::Weighted(options.clone())),
        &[],
    )
    .unwrap();
    let stats = outcome.weighted.as_ref().unwrap();
    assert!(stats.covered_mass > 1.0 - 1e-9);
    let exact = density::outcome_distribution(&circuit, &noise);
    for &(value, p) in &stats.distribution {
        assert!(
            (p - exact[value as usize]).abs() < 1e-9,
            "outcome {value}: weighted {p} vs density {}",
            exact[value as usize]
        );
    }
}
