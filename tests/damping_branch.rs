//! One-branch amplitude damping against the two-branch probe it replaced.
//!
//! Both back-ends resolve a damping exposure from the qubit's `|1>` weight:
//! `‖A0 ψ‖² = γ·P(q = 1)`, so only the branch that fires is built. The
//! oracle here is the literal rule of the paper's Example 6: build the
//! decay state `A0 ψ`, read its squared norm as the decay probability, and
//! renormalise whichever of `A0 ψ` and `A1 ψ` wins the draw. The one-branch
//! rule must agree with it on the decay probability, the branch taken and
//! the post-state, on random dense and decision-diagram states.

use qsdd::circuit::Circuit;
use qsdd::core::{BackendKind, StochasticSimulator};
use qsdd::dd::{Complex, DdPackage, Matrix2};
use qsdd::density;
use qsdd::noise::NoiseModel;
use qsdd::statevector::StateVector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GAMMAS: [f64; 4] = [0.0, 0.002, 0.3, 1.0];
const TOLERANCE: f64 = 1e-12;
/// The largest `f64` below one: the draw that takes the keep branch
/// whenever the decay probability is below one.
const TOP_DRAW: f64 = 1.0 - f64::EPSILON / 2.0;

/// Which half of the state to empty before the comparison.
#[derive(Clone, Copy, Debug)]
enum Edge {
    /// A generic random state.
    None,
    /// `P(q = 1) = 0`.
    NoExcitation,
    /// `P(q = 1) = 1`.
    Excited,
}

/// A random normalised state over `n` qubits, with the `q = 1` (or `q = 0`)
/// half of `qubit` zeroed for the edge cases. Qubit 0 is the most
/// significant bit of the index.
fn random_amplitudes(n: usize, qubit: usize, edge: Edge, rng: &mut StdRng) -> Vec<Complex> {
    let mask = 1usize << (n - 1 - qubit);
    let mut amps: Vec<Complex> = (0..1usize << n)
        .map(|i| {
            let excited = i & mask != 0;
            match (edge, excited) {
                (Edge::NoExcitation, true) | (Edge::Excited, false) => Complex::ZERO,
                _ => Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)),
            }
        })
        .collect();
    let norm = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
    for a in &mut amps {
        *a = a.scale(1.0 / norm);
    }
    amps
}

/// The renormalised state, or `None` for a zero-norm branch.
fn normalised(state: StateVector) -> Option<StateVector> {
    let norm = state.norm_sqr().sqrt();
    (norm > 0.0).then(|| {
        let amps = state
            .amplitudes()
            .iter()
            .map(|a| a.scale(1.0 / norm))
            .collect();
        StateVector::from_amplitudes(amps)
    })
}

/// The two-branch probe: build `A0 ψ`, take its squared norm as the decay
/// probability, keep the renormalised winner. The winner is `None` when the
/// probe picks a zero-norm branch (its normalisation would divide by zero).
fn dense_oracle(
    state: &StateVector,
    qubit: usize,
    gamma: f64,
    draw: f64,
) -> (f64, bool, Option<StateVector>) {
    let mut decayed = state.clone();
    decayed.apply_single(qubit, &Matrix2::amplitude_damping_a0(gamma));
    let p_decay = decayed.norm_sqr();
    if draw < p_decay {
        (p_decay, true, normalised(decayed))
    } else {
        let mut kept = state.clone();
        kept.apply_single(qubit, &Matrix2::amplitude_damping_a1(gamma));
        (p_decay, false, normalised(kept))
    }
}

fn assert_amplitudes_close(a: &[Complex], b: &[Complex], context: &str) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.re.is_finite() && x.im.is_finite(),
            "{context}: amplitude {i} is not finite ({x})"
        );
        assert!(
            (x.re - y.re).abs() < TOLERANCE && (x.im - y.im).abs() < TOLERANCE,
            "{context}: amplitude {i} differs: {x} vs oracle {y}"
        );
    }
}

/// The draws tried per case: certain decay when possible, certain keep
/// when possible, and one uniform draw.
fn draws(rng: &mut StdRng) -> [f64; 3] {
    [0.0, TOP_DRAW, rng.gen()]
}

#[test]
fn dense_one_branch_damping_matches_the_two_branch_probe() {
    let mut rng = StdRng::seed_from_u64(0xDA3B);
    let mut decays = 0usize;
    let mut keeps = 0usize;
    for n in 1..=10 {
        for qubit in 0..n {
            for edge in [Edge::None, Edge::NoExcitation, Edge::Excited] {
                let amps = random_amplitudes(n, qubit, edge, &mut rng);
                let state = StateVector::from_amplitudes(amps);
                for gamma in GAMMAS {
                    for draw in draws(&mut rng) {
                        let context = format!("n={n} q={qubit} {edge:?} gamma={gamma} draw={draw}");
                        let (p_oracle, decayed_oracle, oracle) =
                            dense_oracle(&state, qubit, gamma, draw);
                        let mut fast = state.clone();
                        let (p_decay, decayed) = fast.apply_amplitude_damping(qubit, gamma, draw);
                        assert!(
                            (p_decay - p_oracle).abs() < TOLERANCE,
                            "{context}: p_decay {p_decay} vs {p_oracle}"
                        );
                        // Whatever the draw, the chosen branch is never
                        // empty: the result is finite and normalised.
                        assert!(
                            (fast.norm_sqr() - 1.0).abs() < TOLERANCE,
                            "{context}: not normalised"
                        );
                        if (draw - p_oracle).abs() < TOLERANCE {
                            // On the threshold either branch is right, and
                            // the probe's (p_decay just below one with
                            // gamma = 1) may even be empty.
                            continue;
                        }
                        let oracle =
                            oracle.expect("off the threshold the probe's branch is non-empty");
                        assert_eq!(decayed, decayed_oracle, "{context}: branch differs");
                        assert_amplitudes_close(fast.amplitudes(), oracle.amplitudes(), &context);
                        if decayed {
                            decays += 1;
                        } else {
                            keeps += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(
        decays > 100 && keeps > 100,
        "decays {decays}, keeps {keeps}"
    );
}

#[test]
fn dense_damping_edges_are_exact() {
    let mut rng = StdRng::seed_from_u64(7);
    for n in 1..=6 {
        for qubit in 0..n {
            // P(q = 1) = 1 and gamma = 1: decay is certain, for every draw.
            let excited =
                StateVector::from_amplitudes(random_amplitudes(n, qubit, Edge::Excited, &mut rng));
            for draw in [0.0, 0.5, TOP_DRAW] {
                let mut state = excited.clone();
                assert_eq!(state.apply_amplitude_damping(qubit, 1.0, draw), (1.0, true));
                assert!(state.probability_one(qubit) == 0.0);
            }
            // P(q = 1) = 0: nothing to decay, the state is unchanged.
            let ground = StateVector::from_amplitudes(random_amplitudes(
                n,
                qubit,
                Edge::NoExcitation,
                &mut rng,
            ));
            for gamma in GAMMAS {
                let mut state = ground.clone();
                assert_eq!(
                    state.apply_amplitude_damping(qubit, gamma, 0.0),
                    (0.0, false)
                );
                assert_amplitudes_close(state.amplitudes(), ground.amplitudes(), "ground");
            }
        }
    }
}

#[test]
fn dd_one_branch_damping_matches_the_two_branch_probe() {
    let mut rng = StdRng::seed_from_u64(0xDD);
    let mut decays = 0usize;
    let mut keeps = 0usize;
    for n in 1..=8 {
        for qubit in 0..n {
            for edge in [Edge::None, Edge::NoExcitation, Edge::Excited] {
                let amps = random_amplitudes(n, qubit, edge, &mut rng);
                let dense = StateVector::from_amplitudes(amps.clone());
                for gamma in GAMMAS {
                    let mut dd = DdPackage::new();
                    let state = dd.from_statevector(&amps);
                    let decay = dd.single_qubit_op(n, qubit, Matrix2::amplitude_damping_a0(gamma));
                    let keep = dd.single_qubit_op(n, qubit, Matrix2::amplitude_damping_a1(gamma));
                    // The oracle: the decay probe is built on every exposure.
                    let (p_oracle, probe) = dd.apply_kraus(decay, state);
                    let (_, kept_oracle) = dd.apply_kraus(keep, state);
                    let p_decay = dd.decay_probability(state, qubit, gamma);
                    let context = format!("n={n} q={qubit} {edge:?} gamma={gamma}");
                    assert!(
                        (p_decay - p_oracle).abs() < TOLERANCE,
                        "{context}: p_decay {p_decay} vs {p_oracle}"
                    );
                    // Both back-ends read the same probability.
                    let mut dense_copy = dense.clone();
                    let (p_dense, _) = dense_copy.apply_amplitude_damping(qubit, gamma, 0.0);
                    assert!(
                        (p_decay - p_dense).abs() < TOLERANCE,
                        "{context}: dd {p_decay} vs dense {p_dense}"
                    );
                    if matches!(edge, Edge::Excited) && gamma == 1.0 {
                        assert_eq!(p_decay, 1.0, "{context}: certain decay is not exact");
                    }
                    for draw in draws(&mut rng) {
                        if (draw - p_oracle).abs() < TOLERANCE {
                            continue;
                        }
                        let oracle = if draw < p_oracle { probe } else { kept_oracle };
                        let decayed = draw < p_decay;
                        let (p_branch, next) =
                            dd.apply_kraus(if decayed { decay } else { keep }, state);
                        assert!(
                            p_branch > 0.0,
                            "{context} draw={draw}: chosen branch has zero norm"
                        );
                        assert_amplitudes_close(
                            &dd.to_statevector(next, n),
                            &dd.to_statevector(oracle, n),
                            &format!("{context} draw={draw}"),
                        );
                        if decayed {
                            decays += 1;
                        } else {
                            keeps += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(decays > 50 && keeps > 50, "decays {decays}, keeps {keeps}");
}

#[test]
fn both_backends_track_the_exact_damped_distribution() {
    // Strong damping only, so every exposure runs the one-branch rule and
    // the histograms depend on getting its probabilities right.
    let mut circuit = Circuit::new(3);
    circuit.h(0).cx(0, 1).x(2).cx(1, 2).h(2);
    let noise = NoiseModel::new(0.0, 0.3, 0.0);
    let exact = density::outcome_distribution(&circuit, &noise);
    for backend in [BackendKind::DecisionDiagram, BackendKind::Statevector] {
        let result = StochasticSimulator::new()
            .with_backend(backend)
            .with_shots(20_000)
            .with_noise(noise)
            .with_seed(31)
            .run(&circuit);
        let tv: f64 = exact
            .iter()
            .enumerate()
            .map(|(index, &p)| (result.frequency(index as u64) - p).abs())
            .sum::<f64>()
            / 2.0;
        assert!(
            tv < 0.02,
            "{backend}: total variation {tv} from the exact distribution"
        );
    }
}
