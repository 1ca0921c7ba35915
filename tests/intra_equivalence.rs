//! Intra-shot parallelism is unobservable in the results: property-based
//! evidence that an intra-shot fork-join width of 1, 2 or 8 produces
//! byte-identical histograms, observable-sum bit patterns and
//! decision-diagram node statistics on random circuits with mid-circuit
//! measurements and resets, on both back-ends, through the per-shot, the
//! deduplicating and the weighted-enumeration drivers.
//!
//! The mechanism under test is the speculation contract of `qsdd_dd`
//! (`crates/dd/src/ops.rs`): parallel diagram operations run speculatively
//! and any attempt that *created* a table entry is rolled back and re-run
//! serially, so entry creation — the only order-sensitive event — always
//! happens in serial order. These tests deliberately assert nothing about
//! cache hit/miss or contention counters: those are relaxed diagnostics and
//! explicitly outside the determinism contract.

use proptest::prelude::*;
use qsdd::circuit::Circuit;
use qsdd::core::{
    execute, BackendKind, ExecContext, Observable, OptLevel, RunMode, RunPlan, ShotEngine,
    StochasticOutcome, WeightedOptions,
};
use qsdd::noise::NoiseModel;

const SHOTS: usize = 40;

/// Strategy: a random circuit over `qubits` qubits mixing unitary gates
/// with mid-circuit measurements and resets.
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

/// Asserts byte-identity of every deterministic outcome field.
fn assert_identical(outcome: &StochasticOutcome, reference: &StochasticOutcome, label: &str) {
    assert_eq!(outcome.counts, reference.counts, "{label}: histogram");
    assert_eq!(outcome.shots, reference.shots, "{label}: shots");
    assert_eq!(
        outcome.error_events, reference.error_events,
        "{label}: error events"
    );
    assert_eq!(
        outcome.dd_nodes_peak, reference.dd_nodes_peak,
        "{label}: dd peak"
    );
    assert_eq!(
        outcome.dd_nodes_avg.to_bits(),
        reference.dd_nodes_avg.to_bits(),
        "{label}: dd node average"
    );
    for (a, b) in outcome
        .observable_estimates
        .iter()
        .zip(&reference.observable_estimates)
    {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: observable sum");
    }
}

/// Runs the per-shot, dedup and weighted drivers at every intra width and
/// compares each against its own width-1 reference.
///
/// The drivers run on **one** shot-worker: a single worker's intra request
/// is honoured as-is (several workers clamp against `cores / workers`,
/// which would quietly serialise the whole matrix on small CI machines).
fn compare_widths(circuit: &Circuit, backend: BackendKind, noise: NoiseModel, seed: u64) {
    let observables = [
        Observable::BasisProbability(0),
        Observable::QubitExcitation(1),
    ];
    let weighted_options = WeightedOptions::default();
    let mut engine = ShotEngine::new(circuit, backend, noise, seed, OptLevel::O0);

    let per_shot_ref = execute(
        &engine,
        &mut ExecContext::new(),
        &RunPlan::new(SHOTS, 1, RunMode::PerShot),
        &observables,
    )
    .unwrap();
    let dedup_ref = execute(
        &engine,
        &mut ExecContext::new(),
        &RunPlan::new(SHOTS, 1, RunMode::Dedup),
        &observables,
    )
    .unwrap();
    let weighted_ref = execute(
        &engine,
        &mut ExecContext::new(),
        &RunPlan::new(SHOTS, 1, RunMode::Weighted(weighted_options.clone())),
        &observables,
    )
    .unwrap();

    for intra in [2usize, 8] {
        engine.set_intra_threads(intra);
        let per_shot = execute(
            &engine,
            &mut ExecContext::new(),
            &RunPlan::new(SHOTS, 1, RunMode::PerShot),
            &observables,
        )
        .unwrap();
        assert_identical(&per_shot, &per_shot_ref, &format!("per-shot@{intra}"));
        let dedup = execute(
            &engine,
            &mut ExecContext::new(),
            &RunPlan::new(SHOTS, 1, RunMode::Dedup),
            &observables,
        )
        .unwrap();
        assert_identical(&dedup, &dedup_ref, &format!("dedup@{intra}"));
        let weighted = execute(
            &engine,
            &mut ExecContext::new(),
            &RunPlan::new(SHOTS, 1, RunMode::Weighted(weighted_options.clone())),
            &observables,
        )
        .unwrap();
        assert_identical(&weighted, &weighted_ref, &format!("weighted@{intra}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Decision-diagram back-end, full paper noise (including
    /// state-dependent amplitude damping), mid-circuit measurements and
    /// resets: the richest execution paths — prefix groups, live fallback,
    /// declined dedup — must be width-independent bit for bit.
    #[test]
    fn dd_results_are_identical_across_intra_widths(
        circuit in arb_circuit(4, 20, true),
        seed in 0u64..1000,
    ) {
        compare_widths(
            &circuit,
            BackendKind::DecisionDiagram,
            NoiseModel::paper_defaults(),
            seed,
        );
    }

    /// Strong passive noise on unitary circuits: rich multi-error patterns
    /// through full-program dedup and real weighted enumeration.
    #[test]
    fn dd_passive_noise_is_identical_across_intra_widths(
        circuit in arb_circuit(4, 16, false),
        seed in 0u64..1000,
    ) {
        compare_widths(
            &circuit,
            BackendKind::DecisionDiagram,
            NoiseModel::new(0.05, 0.0, 0.05),
            seed,
        );
    }

    /// Dense statevector back-end: the chunk-partitioned kernels must
    /// produce the same bits at every width too.
    #[test]
    fn dense_results_are_identical_across_intra_widths(
        circuit in arb_circuit(3, 14, true),
        seed in 0u64..1000,
    ) {
        compare_widths(
            &circuit,
            BackendKind::Statevector,
            NoiseModel::new(0.03, 0.0, 0.03),
            seed,
        );
    }
}

/// A deep entangling workload (QFT) where fork-join really engages above
/// the cutoff: node statistics and histogram must not move by one bit.
#[test]
fn qft_is_identical_across_intra_widths() {
    use qsdd::circuit::generators::qft;
    let circuit = qft(10);
    for backend in [BackendKind::DecisionDiagram, BackendKind::Statevector] {
        compare_widths(&circuit, backend, NoiseModel::paper_defaults(), 2021);
    }
}
