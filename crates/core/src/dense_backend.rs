//! The dense statevector back-end: the baseline the paper compares against.
//!
//! This back-end runs exactly the same stochastic noise-injection protocol
//! as the decision-diagram back-end but stores the state as a flat `2^n`
//! amplitude array (like Qiskit's statevector simulator or the Atos QLM
//! LinAlg simulator). Its per-gate cost is Θ(2ⁿ) regardless of any
//! structure in the state, which is what limits the baselines in Table I.
//!
//! Compilation resolves every gate to its concrete matrix once (no per-shot
//! trigonometry) and snapshots the noise-channel operator tables; the
//! execution context keeps one amplitude buffer that is rewound in place
//! between shots instead of being reallocated. Amplitude damping reads its
//! branch probability off the qubit's `|1>` weight and applies only the
//! branch that fires ([`StateVector::apply_amplitude_damping`]).

use qsdd_circuit::{Circuit, Operation};
use qsdd_dd::Matrix2;
use qsdd_noise::{
    ErrorChannel, ErrorPattern, NoiseModel, PresamplePlan, SampledError, SiteChannel,
};
use qsdd_statevector::StateVector;
use rand::rngs::StdRng;
use rand::Rng;

use crate::backend::{next_program_id, pack_clbits, SingleRun, StochasticBackend};
use crate::dedup::DedupSupport;
use crate::estimator::Observable;

/// One executable step of a compiled dense program.
#[derive(Clone, Debug)]
enum DenseStep {
    /// Apply the resolved matrix to `target` under `controls`, then expose
    /// `noise_qubits` to the channels.
    Gate {
        matrix: Matrix2,
        target: usize,
        controls: Vec<usize>,
        noise_qubits: Vec<usize>,
    },
    /// Exchange two qubits, then expose them to the channels.
    Swap {
        a: usize,
        b: usize,
        noise_qubits: Vec<usize>,
    },
    /// Projective measurement into a classical bit.
    Measure { qubit: usize, clbit: usize },
    /// Reset to `|0>`.
    Reset { qubit: usize },
}

/// A compiled circuit + noise model pair for the dense back-end: the
/// resolved step list plus per-channel operator tables.
#[derive(Clone, Debug)]
pub struct DenseProgram {
    id: u64,
    num_qubits: usize,
    num_clbits: usize,
    measured_any: bool,
    steps: Vec<DenseStep>,
    channels: Vec<ErrorChannel>,
    /// `unitaries[channel][i]`: the channel's `i`-th unitary error matrix.
    unitaries: Vec<Vec<Matrix2>>,
    /// Whether every shot's error decisions are presampleable: no
    /// measurement or reset consumes randomness mid-shot, and every channel
    /// is state-independent (the dense back-end precomputes no damping
    /// thresholds, so any state-dependent channel forces the live path).
    dedupable: bool,
}

impl DenseProgram {
    /// Number of qubits of the compiled circuit.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of executable steps (barriers are compiled away).
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }
}

/// A reusable per-worker execution context for the dense back-end: the live
/// amplitude buffer, rewound in place.
#[derive(Clone, Debug)]
pub struct DenseContext {
    state: StateVector,
    seated: u64,
    /// Fork-join pool for chunk-partitioned kernels; kept here so seating
    /// onto a different-width program (which reallocates the buffers) can
    /// re-install it.
    pool: Option<std::sync::Arc<qsdd_dd::IntraPool>>,
}

impl DenseContext {
    /// Creates an unseated context.
    pub fn new() -> Self {
        DenseContext {
            state: StateVector::new(1),
            seated: 0,
            pool: None,
        }
    }

    /// Installs (or clears) a fork-join pool: subsequent gate kernels
    /// split their chunk-partitioned loops across the pool (see
    /// [`StateVector::set_intra_pool`]). Results stay bit-identical to
    /// serial execution.
    pub fn set_intra_pool(&mut self, pool: Option<std::sync::Arc<qsdd_dd::IntraPool>>) {
        self.state.set_intra_pool(pool.clone());
        self.pool = pool;
    }

    /// Rewinds the live buffer to `|0...0>`, reallocating only when the
    /// context moves to a program with a different qubit count — every
    /// shot starts from the zero state, so the buffer is reusable across
    /// programs of equal width.
    fn seat(&mut self, program: &DenseProgram) {
        if self.seated != 0 && self.state.num_qubits() == program.num_qubits {
            self.state.reset_to_zero();
        } else {
            self.state = StateVector::new(program.num_qubits);
            self.state.set_intra_pool(self.pool.clone());
        }
        self.seated = program.id;
    }

    /// Read access to the most recent shot's final state.
    pub fn state(&self) -> &StateVector {
        &self.state
    }
}

impl Default for DenseContext {
    fn default() -> Self {
        DenseContext::new()
    }
}

/// The dense statevector simulator back-end (the "Qiskit"/"QLM" stand-in).
#[derive(Clone, Copy, Debug, Default)]
pub struct DenseSimulator;

impl DenseSimulator {
    /// Creates the back-end.
    pub fn new() -> Self {
        DenseSimulator
    }
}

impl StochasticBackend for DenseSimulator {
    /// The final state lives in the context ([`DenseContext::state`]); the
    /// run itself carries no extra handle.
    type State = ();
    type Program = DenseProgram;
    type Context = DenseContext;

    fn compile(&self, circuit: &Circuit, noise: &NoiseModel) -> DenseProgram {
        let channels = noise.channels();
        let mut steps = Vec::with_capacity(circuit.len());
        let mut measured_any = false;
        for op in circuit {
            match op {
                Operation::Gate {
                    gate,
                    target,
                    controls,
                } => {
                    let matrix = gate
                        .matrix()
                        .expect("non-swap gates always provide a matrix");
                    steps.push(DenseStep::Gate {
                        matrix,
                        target: *target,
                        controls: controls.clone(),
                        noise_qubits: if channels.is_empty() {
                            Vec::new()
                        } else {
                            op.qubits()
                        },
                    });
                }
                Operation::Swap { a, b } => steps.push(DenseStep::Swap {
                    a: *a,
                    b: *b,
                    noise_qubits: if channels.is_empty() {
                        Vec::new()
                    } else {
                        op.qubits()
                    },
                }),
                Operation::Measure { qubit, clbit } => {
                    measured_any = true;
                    steps.push(DenseStep::Measure {
                        qubit: *qubit,
                        clbit: *clbit,
                    });
                }
                Operation::Reset { qubit } => steps.push(DenseStep::Reset { qubit: *qubit }),
                Operation::Barrier => {}
            }
        }
        let unitaries = channels.iter().map(ErrorChannel::unitaries).collect();
        let dedupable = steps
            .iter()
            .all(|step| matches!(step, DenseStep::Gate { .. } | DenseStep::Swap { .. }))
            && !channels.iter().any(ErrorChannel::state_dependent);
        DenseProgram {
            id: next_program_id(),
            num_qubits: circuit.num_qubits(),
            num_clbits: circuit.num_clbits(),
            measured_any,
            steps,
            channels,
            unitaries,
            dedupable,
        }
    }

    fn new_context(&self) -> DenseContext {
        DenseContext::new()
    }

    fn run_shot(
        &self,
        program: &DenseProgram,
        ctx: &mut DenseContext,
        rng: &mut StdRng,
    ) -> SingleRun<()> {
        ctx.seat(program);
        let mut clbits = vec![false; program.num_clbits];
        let mut error_events = 0usize;

        for step in &program.steps {
            let noise_qubits: &[usize] = match step {
                DenseStep::Gate {
                    matrix,
                    target,
                    controls,
                    noise_qubits,
                } => {
                    ctx.state.apply_controlled(controls, *target, matrix);
                    noise_qubits
                }
                DenseStep::Swap { a, b, noise_qubits } => {
                    ctx.state.apply_swap(*a, *b);
                    noise_qubits
                }
                DenseStep::Measure { qubit, clbit } => {
                    clbits[*clbit] = ctx.state.measure_qubit(*qubit, rng);
                    continue;
                }
                DenseStep::Reset { qubit } => {
                    ctx.state.reset_qubit(*qubit, rng);
                    continue;
                }
            };
            for &qubit in noise_qubits {
                for (index, channel) in program.channels.iter().enumerate() {
                    match channel.sample_error(rng) {
                        SampledError::None => {}
                        SampledError::Unitary(u) => {
                            error_events += 1;
                            ctx.state.apply_single(qubit, &program.unitaries[index][u]);
                        }
                        SampledError::Kraus => {
                            // Amplitude damping: the branch probability is
                            // the qubit's |1> weight times gamma, and only
                            // the branch that fires is applied.
                            let (_, decayed) = ctx.state.apply_amplitude_damping(
                                qubit,
                                channel.probability(),
                                rng.gen(),
                            );
                            error_events += usize::from(decayed);
                        }
                    }
                }
            }
        }

        let outcome = if program.measured_any {
            pack_clbits(&clbits)
        } else {
            ctx.state.sample_measurement(rng)
        };
        SingleRun {
            outcome,
            clbits,
            error_events,
            dd_nodes: 0,
            dd_nodes_peak: 0,
            state: (),
        }
    }

    fn evaluate(
        &self,
        program: &DenseProgram,
        ctx: &mut DenseContext,
        _run: &mut SingleRun<()>,
        observable: &Observable,
    ) -> f64 {
        debug_assert_eq!(
            ctx.seated, program.id,
            "evaluate must use the context the run executed in"
        );
        match observable {
            Observable::BasisProbability(index) => ctx.state.probability_of_index(*index),
            Observable::QubitExcitation(qubit) => ctx.state.probability_one(*qubit),
            Observable::Fidelity(reference) => {
                let reference = StateVector::from_amplitudes(reference.clone());
                reference.fidelity(&ctx.state)
            }
        }
    }

    fn dedup_support(&self, program: &DenseProgram) -> Option<DedupSupport> {
        if !program.dedupable {
            return None;
        }
        let mut sites = Vec::new();
        for step in &program.steps {
            let noise_qubits = match step {
                DenseStep::Gate { noise_qubits, .. } | DenseStep::Swap { noise_qubits, .. } => {
                    noise_qubits
                }
                DenseStep::Measure { .. } | DenseStep::Reset { .. } => {
                    unreachable!("dedupable programs contain no measurements or resets")
                }
            };
            for _ in noise_qubits {
                sites.extend(program.channels.iter().copied().map(SiteChannel::Passive));
            }
        }
        Some(DedupSupport {
            plan: PresamplePlan::new(sites),
            prefix_steps: program.steps.len(),
            full: true,
        })
    }

    fn run_pattern(
        &self,
        program: &DenseProgram,
        ctx: &mut DenseContext,
        pattern: &ErrorPattern,
    ) -> SingleRun<()> {
        ctx.seat(program);
        let width = program.channels.len();
        let events = pattern.events();
        let mut next = 0usize;
        let mut site = 0u32;
        for step in &program.steps {
            let noise_qubits: &[usize] = match step {
                DenseStep::Gate {
                    matrix,
                    target,
                    controls,
                    noise_qubits,
                } => {
                    ctx.state.apply_controlled(controls, *target, matrix);
                    noise_qubits
                }
                DenseStep::Swap { a, b, noise_qubits } => {
                    ctx.state.apply_swap(*a, *b);
                    noise_qubits
                }
                DenseStep::Measure { .. } | DenseStep::Reset { .. } => {
                    unreachable!("dedupable programs contain no measurements or resets")
                }
            };
            let step_end = site + (noise_qubits.len() * width) as u32;
            while next < events.len() && events[next].site < step_end {
                let event = events[next];
                let position = (event.site - site) as usize;
                let qubit = noise_qubits[position / width];
                let channel = position % width;
                ctx.state
                    .apply_single(qubit, &program.unitaries[channel][event.error as usize]);
                next += 1;
            }
            site = step_end;
        }
        debug_assert_eq!(next, events.len(), "pattern events beyond the program");
        SingleRun {
            // Each member samples its own outcome from the shared state.
            outcome: 0,
            clbits: vec![false; program.num_clbits],
            error_events: events.len(),
            dd_nodes: 0,
            dd_nodes_peak: 0,
            state: (),
        }
    }

    fn sample_outcome(
        &self,
        program: &DenseProgram,
        ctx: &mut DenseContext,
        _run: &SingleRun<()>,
        rng: &mut StdRng,
    ) -> u64 {
        debug_assert_eq!(
            ctx.seated, program.id,
            "sample_outcome must use the context the pattern ran in"
        );
        ctx.state.sample_measurement(rng)
    }

    fn outcome_distribution(
        &self,
        program: &DenseProgram,
        ctx: &mut DenseContext,
        _run: &SingleRun<()>,
        sink: &mut dyn FnMut(u64, f64),
    ) {
        debug_assert_eq!(
            ctx.seated, program.id,
            "outcome_distribution must use the context the pattern ran in"
        );
        // Same outcome convention as `sample_measurement`: the amplitude
        // index with qubit 0 as the most significant bit.
        for (index, amplitude) in ctx.state.amplitudes().iter().enumerate() {
            let probability = amplitude.norm_sqr();
            if probability > 0.0 {
                sink(index as u64, probability);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsdd_circuit::generators::ghz;
    use rand::SeedableRng;

    #[test]
    fn noiseless_ghz_yields_correlated_outcomes() {
        let backend = DenseSimulator::new();
        let circuit = ghz(6);
        let program = backend.compile(&circuit, &NoiseModel::noiseless());
        let mut ctx = backend.new_context();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..20 {
            let run = backend.run_shot(&program, &mut ctx, &mut rng);
            assert!(run.outcome == 0 || run.outcome == 0b111111);
        }
    }

    #[test]
    fn observables_match_dd_backend_for_noiseless_runs() {
        use crate::dd_backend::DdSimulator;
        let circuit = ghz(5);
        let noiseless = NoiseModel::noiseless();
        let dense = DenseSimulator::new();
        let dd = DdSimulator::new();
        let dense_program = dense.compile(&circuit, &noiseless);
        let dd_program = dd.compile(&circuit, &noiseless);
        let mut dense_ctx = dense.new_context();
        let mut dd_ctx = dd.new_context();
        let mut rng_a = StdRng::seed_from_u64(1);
        let mut rng_b = StdRng::seed_from_u64(1);
        let mut run_a = dense.run_shot(&dense_program, &mut dense_ctx, &mut rng_a);
        let mut run_b = dd.run_shot(&dd_program, &mut dd_ctx, &mut rng_b);
        for observable in [
            Observable::BasisProbability(0),
            Observable::BasisProbability(31),
            Observable::QubitExcitation(3),
        ] {
            let a = dense.evaluate(&dense_program, &mut dense_ctx, &mut run_a, &observable);
            let b = dd.evaluate(&dd_program, &mut dd_ctx, &mut run_b, &observable);
            assert!(
                (a - b).abs() < 1e-10,
                "observable {observable:?}: dense {a} vs dd {b}"
            );
        }
    }

    #[test]
    fn damping_eventually_decays_an_excited_qubit() {
        let backend = DenseSimulator::new();
        let mut circuit = Circuit::new(1);
        // Many identity gates, each exposing the qubit to T1 decay.
        circuit.x(0);
        for _ in 0..200 {
            circuit.gate(qsdd_circuit::Gate::I, 0);
        }
        let noise = NoiseModel::new(0.0, 0.05, 0.0);
        let program = backend.compile(&circuit, &noise);
        let mut ctx = backend.new_context();
        let mut rng = StdRng::seed_from_u64(123);
        let mut decays = 0;
        for _ in 0..50 {
            let run = backend.run_shot(&program, &mut ctx, &mut rng);
            if run.outcome == 0 {
                decays += 1;
            }
        }
        // With 200 damping opportunities at 5% each, decay is near certain.
        assert!(decays >= 48, "only {decays} of 50 runs decayed");
    }

    #[test]
    fn reused_context_reproduces_fresh_context_shots_exactly() {
        let backend = DenseSimulator::new();
        let mut circuit = ghz(4);
        circuit.measure_all();
        let program = backend.compile(&circuit, &NoiseModel::paper_defaults());
        let mut reused = backend.new_context();
        for seed in 0..32u64 {
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let a = backend.run_shot(&program, &mut reused, &mut rng_a);
            let mut fresh = backend.new_context();
            let b = backend.run_shot(&program, &mut fresh, &mut rng_b);
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.clbits, b.clbits);
            assert_eq!(a.error_events, b.error_events);
            assert_eq!(reused.state(), fresh.state(), "reuse changed the state");
        }
    }
}
