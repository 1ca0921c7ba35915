//! The decision-diagram back-end: the paper's proposed simulator.
//!
//! The back-end follows the two-phase architecture of
//! [`StochasticBackend`]: [`DdSimulator::compile`] builds every operator
//! diagram a shot can possibly need — one (controlled) gate diagram per
//! circuit operation, a swap diagram per SWAP, the Pauli-X diagram behind
//! every reset, and the noise channels' error operators for every touched
//! qubit — into the **persistent region** of a template [`DdPackage`].
//! [`DdSimulator::run_shot`] then replays the compiled step list against a
//! per-worker [`DdContext`], whose package is rewound to the persistent
//! watermark between shots ([`DdPackage::reset_transient`]) instead of being
//! rebuilt. Stochastic error events are injected after every gate on every
//! touched qubit, exactly as described in Sections III and IV of the paper;
//! because the rewound package is indistinguishable from a fresh clone of
//! the template, a reused context produces bit-identical shots.

use qsdd_circuit::{Circuit, Operation};
use qsdd_dd::{DdPackage, MatEdge, Matrix2, VecEdge};
use qsdd_noise::{
    ErrorChannel, ErrorPattern, NoiseModel, PresamplePlan, SampledError, SiteChannel,
};
use rand::rngs::StdRng;
use rand::Rng;

use crate::backend::{next_program_id, pack_clbits, SingleRun, StochasticBackend};
use crate::dedup::DedupSupport;
use crate::estimator::Observable;

/// A self-contained noiseless simulation result: the package owning the
/// diagram and the edge of the final state.
#[derive(Debug)]
pub struct DdRunState {
    /// The package owning every node of the run.
    pub package: DdPackage,
    /// Root edge of the final state.
    pub state: VecEdge,
    /// Number of qubits of the simulated circuit.
    pub num_qubits: usize,
}

impl DdRunState {
    /// Size of the final state's decision diagram (number of nodes).
    pub fn node_count(&self) -> usize {
        self.package.vec_node_count(self.state)
    }
}

/// One executable step of a compiled decision-diagram program.
#[derive(Clone, Debug)]
enum DdStep {
    /// Apply a precompiled unitary (gate or swap), then expose the listed
    /// qubits to the noise channels.
    Apply {
        op: MatEdge,
        /// Qubits touched by the operation, in the order the stochastic
        /// noise protocol visits them (controls before target; swap
        /// operands in declaration order). Empty when the program is
        /// noiseless.
        noise_qubits: Vec<usize>,
    },
    /// Projective measurement into a classical bit.
    Measure { qubit: usize, clbit: usize },
    /// Reset to `|0>`: measure, then apply the precompiled X on outcome 1.
    Reset { qubit: usize, x_op: MatEdge },
}

/// The per-qubit precompiled error operators of one noise channel.
#[derive(Clone, Debug)]
struct ChannelOps {
    /// `unitaries[qubit][i]` is the diagram of the channel's `i`-th unitary
    /// error on `qubit` (see [`ErrorChannel::unitaries`]); empty for qubits
    /// no unitary step touches.
    unitaries: Vec<Vec<MatEdge>>,
    /// `kraus[qubit]` is the `[decay, keep]` diagram pair for Kraus
    /// channels, `None` for unitary-equivalent channels or untouched
    /// qubits.
    kraus: Vec<Option<[MatEdge; 2]>>,
}

/// One precomputed noise exposure along the no-error trajectory.
#[derive(Clone, Debug)]
struct ExposureFF {
    qubit: usize,
    channel: usize,
    /// The state entering this exposure (an edge into the persistent
    /// region) — the point live evolution resumes from if the exposure
    /// deviates.
    before: VecEdge,
    kind: FFKind,
}

#[derive(Clone, Copy, Debug)]
enum FFKind {
    /// Unitary-equivalent channel (depolarizing, phase flip): the state is
    /// unchanged unless an error fires.
    Passive,
    /// Amplitude damping: the channel applies on every exposure, but along
    /// the no-decay path both the branch threshold and the renormalised
    /// keep state are deterministic, so they are precomputed.
    Damping { p_decay: f64 },
}

/// Fast-forward data for one step of the no-error trajectory.
#[derive(Clone, Debug)]
struct StepFF {
    /// The step's noise exposures, flattened in protocol order
    /// (qubit-major, channels in model order).
    exposures: Vec<ExposureFF>,
    /// The state after the whole step when nothing deviated.
    after: VecEdge,
    /// Node count of `after`, precomputed for O(1) peak tracking.
    nodes_after: u64,
}

/// Maximum number of vector nodes the template package may hold while the
/// no-error trajectory is being recorded; past this budget the remaining
/// steps are left to live execution. Bounds the persistent memory a
/// program (and thus every worker context seated on it) can pin: the
/// recorded region holds every step's state and every renormalised
/// damping keep state along the trajectory.
const TRAJECTORY_NODE_BUDGET: usize = 1 << 19;

/// A compiled circuit + noise model pair for the decision-diagram back-end.
///
/// Holds the resolved step list, the noise-channel operator tables, the
/// precomputed **no-error trajectory** and the template package whose
/// persistent region owns every precompiled diagram (including the
/// trajectory states). Programs are immutable and shared across worker
/// threads; each worker's [`DdContext`] carries its own copy of the
/// template.
///
/// # The no-error trajectory
///
/// With realistic error rates almost every exposure of almost every shot
/// samples "no error", and the state along that path is fully
/// deterministic — including the amplitude-damping branch thresholds and
/// renormalised keep states (the channel is state-dependent, but the state
/// is known). Compilation therefore simulates the error-free path once and
/// records, per step, the resulting state and its node count, and per
/// exposure, the resume state and decay threshold. At shot time the
/// executor replays this trajectory with zero diagram work — consuming the
/// random number stream exactly as live execution would — and drops to
/// live evolution only at the first deviation (an error fires, or a
/// measurement/reset is reached). Recording stops once the template
/// package exceeds a node budget, so programs for circuits with large
/// noise-free states stay memory-bounded (the tail of such circuits just
/// runs live).
#[derive(Clone, Debug)]
pub struct DdProgram {
    id: u64,
    num_qubits: usize,
    num_clbits: usize,
    /// Whether the circuit contains explicit measurements (then the outcome
    /// packs the classical register instead of sampling the final state).
    measured_any: bool,
    steps: Vec<DdStep>,
    channels: Vec<ErrorChannel>,
    noise_ops: Vec<ChannelOps>,
    /// Fast-forward data for the leading run of unitary steps (the
    /// trajectory ends at the first measurement or reset).
    trajectory: Vec<StepFF>,
    /// Number of leading steps whose error decisions can be presampled (the
    /// deduplicable prefix): unitary steps only, and — when a
    /// state-dependent channel is present — only steps whose damping
    /// thresholds the trajectory precomputed.
    dedup_prefix: usize,
    /// The `|0...0>` initial state, prebuilt in the persistent region.
    initial: VecEdge,
    /// Node count of the initial state.
    initial_nodes: u64,
    /// The template package: persistent region = all precompiled diagrams.
    base: DdPackage,
}

impl DdProgram {
    /// Number of qubits of the compiled circuit.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of executable steps (barriers are compiled away).
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Number of leading steps covered by the precomputed no-error
    /// trajectory (the fast-forward path).
    pub fn trajectory_steps(&self) -> usize {
        self.trajectory.len()
    }

    /// Number of leading steps whose error decisions can be presampled —
    /// the region trajectory deduplication replays per distinct pattern
    /// (see [`crate::dedup`]).
    pub fn dedup_prefix_steps(&self) -> usize {
        self.dedup_prefix
    }

    /// Number of nodes in the persistent region of the template package
    /// (all precompiled operator diagrams combined).
    pub fn persistent_mat_nodes(&self) -> usize {
        self.base.stats().mat_nodes
    }
}

/// A reusable per-worker execution context for the decision-diagram
/// back-end.
///
/// The context owns one [`DdPackage`]. When asked to run a shot of the
/// program it is already seated on, the package is rewound to the program's
/// persistent watermark — an O(transient) truncation. When handed a
/// different program, it re-seats by copying that program's template into
/// its existing allocations. Either way the package state at shot entry is
/// exactly the compiled template, which is what makes context reuse
/// unobservable in the results.
#[derive(Clone, Debug)]
pub struct DdContext {
    package: DdPackage,
    /// Id of the program the package currently mirrors (`0` = unseated).
    seated: u64,
    /// Memoised outcome-sampling plan for the most recent pattern run's
    /// final state (trajectory groups fan many samples out of one state;
    /// the flat plan replaces per-sample norm recursion). Invalidated on
    /// every seat/rewind, and keyed by the state edge it was built from.
    sampler: Option<(VecEdge, qsdd_dd::SamplePlan)>,
}

impl DdContext {
    /// Creates an unseated context.
    pub fn new() -> Self {
        DdContext {
            package: DdPackage::new(),
            seated: 0,
            sampler: None,
        }
    }

    /// Rewinds (same program) or re-seats (program switch) the package so
    /// it equals `program`'s template exactly.
    fn seat(&mut self, program: &DdProgram) {
        self.sampler = None;
        if self.seated == program.id {
            self.package.reset_transient();
        } else {
            self.package.clone_from(&program.base);
            self.seated = program.id;
        }
    }

    /// Installs (or clears) a fork-join pool on the context's package:
    /// subsequent diagram operations split their cofactor recursions
    /// across the pool (see [`qsdd_dd::IntraPool`]). Results stay
    /// bit-identical to serial execution.
    pub fn set_intra_pool(&mut self, pool: Option<std::sync::Arc<qsdd_dd::IntraPool>>) {
        self.package.set_intra_pool(pool);
    }

    /// Read access to the context's package (e.g. to inspect statistics).
    pub fn package(&self) -> &DdPackage {
        &self.package
    }

    /// Consumes the context, handing out the owned package.
    pub fn into_package(self) -> DdPackage {
        self.package
    }
}

impl Default for DdContext {
    fn default() -> Self {
        DdContext::new()
    }
}

/// The decision-diagram simulator back-end (the "Proposed" column of
/// Table I).
#[derive(Clone, Copy, Debug, Default)]
pub struct DdSimulator {
    caching: bool,
}

impl DdSimulator {
    /// Creates a back-end with operation caching enabled.
    pub fn new() -> Self {
        DdSimulator { caching: true }
    }

    /// Creates a back-end with operation caching disabled (ablation only).
    pub fn without_caching() -> Self {
        DdSimulator { caching: false }
    }

    /// Runs a circuit without noise and returns the final decision diagram.
    ///
    /// This is the deterministic simulation primitive; it is also used by
    /// the examples to inspect decision diagram sizes.
    pub fn simulate_noiseless(&self, circuit: &Circuit) -> DdRunState {
        let mut rng = rand::SeedableRng::seed_from_u64(0);
        let noiseless = NoiseModel::noiseless();
        let program = self.compile(circuit, &noiseless);
        let mut ctx = DdContext::new();
        let run = self.run_shot(&program, &mut ctx, &mut rng);
        DdRunState {
            package: ctx.into_package(),
            state: run.state,
            num_qubits: program.num_qubits,
        }
    }
}

impl StochasticBackend for DdSimulator {
    /// Root edge of the final state; the nodes live in the context's
    /// package.
    type State = VecEdge;
    type Program = DdProgram;
    type Context = DdContext;

    fn compile(&self, circuit: &Circuit, noise: &NoiseModel) -> DdProgram {
        let n = circuit.num_qubits();
        let mut base = DdPackage::new();
        base.set_caching(self.caching);
        let initial = base.zero_state(n);
        let channels = noise.channels();
        let mut steps = Vec::with_capacity(circuit.len());
        let mut measured_any = false;
        let mut touched = vec![false; n];

        // Operator diagrams are built in circuit order; hash-consing in the
        // template package shares structure between repeated gates for free.
        for op in circuit {
            match op {
                Operation::Gate {
                    gate,
                    target,
                    controls,
                } => {
                    let m = gate
                        .matrix()
                        .expect("non-swap gates always provide a matrix");
                    let op_dd = base.controlled_op(n, *target, controls, m);
                    let noise_qubits = if channels.is_empty() {
                        Vec::new()
                    } else {
                        op.qubits()
                    };
                    for &q in &noise_qubits {
                        touched[q] = true;
                    }
                    steps.push(DdStep::Apply {
                        op: op_dd,
                        noise_qubits,
                    });
                }
                Operation::Swap { a, b } => {
                    let op_dd = base.swap_op(n, *a, *b);
                    let noise_qubits = if channels.is_empty() {
                        Vec::new()
                    } else {
                        op.qubits()
                    };
                    for &q in &noise_qubits {
                        touched[q] = true;
                    }
                    steps.push(DdStep::Apply {
                        op: op_dd,
                        noise_qubits,
                    });
                }
                Operation::Measure { qubit, clbit } => {
                    measured_any = true;
                    steps.push(DdStep::Measure {
                        qubit: *qubit,
                        clbit: *clbit,
                    });
                }
                Operation::Reset { qubit } => {
                    let x_op = base.single_qubit_op(n, *qubit, Matrix2::pauli_x());
                    steps.push(DdStep::Reset {
                        qubit: *qubit,
                        x_op,
                    });
                }
                Operation::Barrier => {}
            }
        }

        // Error operators, resolved once per (channel, touched qubit).
        let mut noise_ops = Vec::with_capacity(channels.len());
        for channel in &channels {
            let unitary_mats = channel.unitaries();
            let kraus_mats = channel.kraus_branches();
            let mut unitaries = vec![Vec::new(); n];
            let mut kraus = vec![None; n];
            for (q, q_touched) in touched.iter().enumerate() {
                if !q_touched {
                    continue;
                }
                unitaries[q] = unitary_mats
                    .iter()
                    .map(|m| base.single_qubit_op(n, q, *m))
                    .collect();
                kraus[q] = kraus_mats.map(|[decay, keep]| {
                    [
                        base.single_qubit_op(n, q, decay),
                        base.single_qubit_op(n, q, keep),
                    ]
                });
            }
            noise_ops.push(ChannelOps { unitaries, kraus });
        }

        // Simulate the no-error path once, recording per-step resume states
        // and damping thresholds (see the [`DdProgram`] docs). Everything
        // interned here lands in the persistent region, so the recorded
        // edges stay valid across every transient reset.
        let mut trajectory = Vec::new();
        let mut state = initial;
        for step in &steps {
            // The trajectory pins every recorded intermediate state into
            // the persistent region, which each worker context copies once.
            // For circuits whose noise-free states grow large this would
            // trade unbounded memory for speed, so recording stops at a
            // node budget and the remaining steps simply execute live.
            if base.stats().vec_nodes > TRAJECTORY_NODE_BUDGET {
                break;
            }
            let DdStep::Apply { op, noise_qubits } = step else {
                // Measurements and resets consume randomness; the
                // deterministic trajectory ends here.
                break;
            };
            state = base.mat_vec_mul(*op, state);
            let mut exposures = Vec::with_capacity(noise_qubits.len() * channels.len());
            for &qubit in noise_qubits {
                for (channel, ops) in noise_ops.iter().enumerate() {
                    let before = state;
                    match ops.kraus[qubit] {
                        Some([_decay, keep]) => {
                            // The decay state is built only if a shot
                            // deviates here (see `fast_forward_step`).
                            let gamma = channels[channel].probability();
                            let p_decay = base.decay_probability(state, qubit, gamma);
                            let (_, kept) = base.apply_kraus(keep, state);
                            state = kept;
                            exposures.push(ExposureFF {
                                qubit,
                                channel,
                                before,
                                kind: FFKind::Damping { p_decay },
                            });
                        }
                        None => exposures.push(ExposureFF {
                            qubit,
                            channel,
                            before,
                            kind: FFKind::Passive,
                        }),
                    }
                }
            }
            let nodes_after = base.vec_node_count_fast(state) as u64;
            trajectory.push(StepFF {
                exposures,
                after: state,
                nodes_after,
            });
        }
        let initial_nodes = base.vec_node_count_fast(initial) as u64;

        // The deduplicable prefix: unitary steps up to the first
        // measurement/reset; state-dependent (damping) channels additionally
        // cap it at the trajectory coverage, because only the trajectory
        // knows their branch thresholds in advance.
        let first_nonapply = steps
            .iter()
            .position(|step| !matches!(step, DdStep::Apply { .. }))
            .unwrap_or(steps.len());
        let dedup_prefix = if channels.iter().any(ErrorChannel::state_dependent) {
            first_nonapply.min(trajectory.len())
        } else {
            first_nonapply
        };

        base.mark_persistent();
        DdProgram {
            id: next_program_id(),
            num_qubits: n,
            num_clbits: circuit.num_clbits(),
            measured_any,
            steps,
            channels,
            noise_ops,
            trajectory,
            dedup_prefix,
            initial,
            initial_nodes,
            base,
        }
    }

    fn new_context(&self) -> DdContext {
        DdContext::new()
    }

    fn run_shot(
        &self,
        program: &DdProgram,
        ctx: &mut DdContext,
        rng: &mut StdRng,
    ) -> SingleRun<VecEdge> {
        ctx.seat(program);
        let dd = &mut ctx.package;
        let mut state = program.initial;
        let mut clbits = vec![false; program.num_clbits];
        let mut error_events = 0usize;
        let mut peak = program.initial_nodes;
        // `false` while the shot is still on the precomputed no-error
        // trajectory; flips to `true` at the first deviation.
        let mut live = false;

        for (index, step) in program.steps.iter().enumerate() {
            if !live {
                match program.trajectory.get(index) {
                    Some(ff) => {
                        match fast_forward_step(program, ff, dd, rng, &mut error_events) {
                            FastForward::Clean => {
                                state = ff.after;
                                peak = peak.max(ff.nodes_after);
                                continue;
                            }
                            FastForward::Deviated {
                                state: deviated,
                                resume_at,
                            } => {
                                // Finish the step's remaining exposures
                                // live, then stay live for the rest of the
                                // shot.
                                live = true;
                                let DdStep::Apply { noise_qubits, .. } = step else {
                                    unreachable!("the trajectory only covers Apply steps")
                                };
                                state = apply_noise_live(
                                    program,
                                    dd,
                                    noise_qubits,
                                    resume_at,
                                    deviated,
                                    rng,
                                    &mut error_events,
                                );
                                peak = peak.max(dd.vec_node_count_fast(state) as u64);
                                continue;
                            }
                        }
                    }
                    // The trajectory ended (measurement/reset ahead):
                    // everything from here on runs live.
                    None => live = true,
                }
            }
            match step {
                DdStep::Apply { op, noise_qubits } => {
                    state = dd.mat_vec_mul(*op, state);
                    state = apply_noise_live(
                        program,
                        dd,
                        noise_qubits,
                        0,
                        state,
                        rng,
                        &mut error_events,
                    );
                }
                DdStep::Measure { qubit, clbit } => {
                    let (outcome, collapsed) = dd.measure_qubit(state, *qubit, rng);
                    state = collapsed;
                    clbits[*clbit] = outcome;
                }
                DdStep::Reset { qubit, x_op } => {
                    let (outcome, collapsed) = dd.measure_qubit(state, *qubit, rng);
                    state = collapsed;
                    if outcome {
                        state = dd.mat_vec_mul(*x_op, state);
                    }
                }
            }
            peak = peak.max(dd.vec_node_count_fast(state) as u64);
        }

        let outcome = if program.measured_any {
            pack_clbits(&clbits)
        } else {
            dd.sample_measurement(state, program.num_qubits, rng)
        };
        let dd_nodes = dd.vec_node_count_fast(state) as u64;
        SingleRun {
            outcome,
            clbits,
            error_events,
            dd_nodes,
            dd_nodes_peak: peak.max(dd_nodes),
            state,
        }
    }

    fn evaluate(
        &self,
        program: &DdProgram,
        ctx: &mut DdContext,
        run: &mut SingleRun<VecEdge>,
        observable: &Observable,
    ) -> f64 {
        debug_assert_eq!(
            ctx.seated, program.id,
            "evaluate must use the context the run executed in"
        );
        let package = &mut ctx.package;
        let state = run.state;
        match observable {
            Observable::BasisProbability(index) => package
                .amplitude(state, program.num_qubits, *index)
                .norm_sqr(),
            Observable::QubitExcitation(qubit) => package.probability_one(state, *qubit),
            Observable::Fidelity(reference) => {
                let reference_edge = package.from_statevector(reference);
                package.fidelity(reference_edge, state)
            }
        }
    }

    fn dedup_support(&self, program: &DdProgram) -> Option<DedupSupport> {
        let prefix = program.dedup_prefix;
        let full = prefix == program.steps.len();
        // Prefix deduplication pays a per-member checkpoint clone; only
        // offer it when the saved prefix is at least half the program.
        if !full && (prefix == 0 || prefix * 2 < program.steps.len()) {
            return None;
        }
        let mut sites = Vec::new();
        for (index, step) in program.steps[..prefix].iter().enumerate() {
            match program.trajectory.get(index) {
                // Trajectory-covered steps carry per-exposure kinds,
                // including the precomputed damping thresholds.
                Some(ff) => sites.extend(ff.exposures.iter().map(|exposure| match exposure.kind {
                    FFKind::Passive => SiteChannel::Passive(program.channels[exposure.channel]),
                    FFKind::Damping { p_decay } => SiteChannel::Damping { p_decay },
                })),
                // Beyond the trajectory the prefix only extends when every
                // channel is state-independent (see `compile`).
                None => {
                    let DdStep::Apply { noise_qubits, .. } = step else {
                        unreachable!("the dedup prefix only contains Apply steps")
                    };
                    for _ in noise_qubits {
                        sites.extend(program.channels.iter().copied().map(SiteChannel::Passive));
                    }
                }
            }
        }
        Some(DedupSupport {
            plan: PresamplePlan::new(sites),
            prefix_steps: prefix,
            full,
        })
    }

    fn run_pattern(
        &self,
        program: &DdProgram,
        ctx: &mut DdContext,
        pattern: &ErrorPattern,
    ) -> SingleRun<VecEdge> {
        ctx.seat(program);
        let dd = &mut ctx.package;
        let width = program.channels.len();
        let events = pattern.events();
        let mut next = 0usize;
        let mut state = program.initial;
        let mut peak = program.initial_nodes;
        let mut site = 0u32;
        // `false` while the replay is still on the precomputed no-error
        // trajectory; flips to `true` at the first pattern event (mirroring
        // `run_shot`, so the operator sequence — and thus the resulting
        // package state — is identical to what any member shot would have
        // produced).
        let mut live = false;

        for (index, step) in program.steps[..program.dedup_prefix].iter().enumerate() {
            let DdStep::Apply { op, noise_qubits } = step else {
                unreachable!("the dedup prefix only contains Apply steps")
            };
            let step_end = site + (noise_qubits.len() * width) as u32;
            if !live {
                if let Some(ff) = program.trajectory.get(index) {
                    if next < events.len() && events[next].site < step_end {
                        // First deviation: apply the error onto the
                        // exposure's precomputed resume state, then finish
                        // the step's remaining events live.
                        let event = events[next];
                        let exposure = &ff.exposures[(event.site - site) as usize];
                        let err = program.noise_ops[exposure.channel].unitaries[exposure.qubit]
                            [event.error as usize];
                        state = dd.mat_vec_mul(err, exposure.before);
                        next += 1;
                        live = true;
                        state = apply_pattern_events(
                            program,
                            dd,
                            noise_qubits,
                            site,
                            step_end,
                            events,
                            &mut next,
                            state,
                        );
                        peak = peak.max(dd.vec_node_count_fast(state) as u64);
                    } else {
                        state = ff.after;
                        peak = peak.max(ff.nodes_after);
                    }
                    site = step_end;
                    continue;
                }
                // The trajectory ended (node budget): the rest of the
                // prefix replays live.
                live = true;
            }
            state = dd.mat_vec_mul(*op, state);
            state = apply_pattern_events(
                program,
                dd,
                noise_qubits,
                site,
                step_end,
                events,
                &mut next,
                state,
            );
            peak = peak.max(dd.vec_node_count_fast(state) as u64);
            site = step_end;
        }
        debug_assert_eq!(next, events.len(), "pattern events beyond the prefix");

        let dd_nodes = dd.vec_node_count_fast(state) as u64;
        SingleRun {
            // Each member samples its own outcome; the replay has none.
            outcome: 0,
            clbits: vec![false; program.num_clbits],
            error_events: events.len(),
            dd_nodes,
            dd_nodes_peak: peak.max(dd_nodes),
            state,
        }
    }

    fn sample_outcome(
        &self,
        program: &DdProgram,
        ctx: &mut DdContext,
        run: &SingleRun<VecEdge>,
        rng: &mut StdRng,
    ) -> u64 {
        debug_assert_eq!(
            ctx.seated, program.id,
            "sample_outcome must use the context the pattern ran in"
        );
        // Full-program patterns never contain explicit measurements (a
        // measurement ends the deduplicable prefix), so the outcome is
        // always a full-register sample of the shared final state. The
        // flat sampling plan is built once per pattern run (the `seat`
        // inside `run_pattern` invalidates it) and is bit-identical to
        // `sample_measurement` on the same state.
        let cached = ctx
            .sampler
            .as_ref()
            .is_some_and(|(state, _)| *state == run.state);
        if !cached {
            let plan = ctx.package.sample_plan(run.state, program.num_qubits);
            ctx.sampler = Some((run.state, plan));
        }
        let (_, plan) = ctx.sampler.as_ref().expect("plan was just installed");
        plan.sample(rng)
    }

    fn sample_outcomes(
        &self,
        program: &DdProgram,
        ctx: &mut DdContext,
        run: &SingleRun<VecEdge>,
        shots: &mut [(u64, StdRng)],
        mut sink: impl FnMut(u64, u64),
    ) {
        debug_assert_eq!(
            ctx.seated, program.id,
            "sample_outcomes must use the context the pattern ran in"
        );
        // Build the flat plan once and keep it out of the member loop —
        // this loop fans a whole trajectory group out of one shared state,
        // so it is the hottest loop of a deduplicated run.
        let plan = ctx.package.sample_plan(run.state, program.num_qubits);
        for (shot, rng) in shots.iter_mut() {
            sink(*shot, plan.sample(rng));
        }
        ctx.sampler = Some((run.state, plan));
    }

    fn outcome_distribution(
        &self,
        program: &DdProgram,
        ctx: &mut DdContext,
        run: &SingleRun<VecEdge>,
        sink: &mut dyn FnMut(u64, f64),
    ) {
        debug_assert_eq!(
            ctx.seated, program.id,
            "outcome_distribution must use the context the pattern ran in"
        );
        // Sparse DFS over the diagram: basis states outside the state's
        // support are never visited, so the cost tracks the diagram size,
        // not 2^n. Same outcome convention as `sample_outcome` (the full
        // register, qubit 0 as the most significant bit).
        ctx.package
            .outcome_probabilities(run.state, program.num_qubits, sink);
    }

    fn resume_pattern(
        &self,
        program: &DdProgram,
        checkpoint: &DdContext,
        prefix: &SingleRun<VecEdge>,
        work: &mut DdContext,
        rng: &mut StdRng,
    ) -> SingleRun<VecEdge> {
        debug_assert_eq!(
            checkpoint.seated, program.id,
            "resume_pattern must be given the context the pattern ran in"
        );
        // Seed the working context with the checkpointed prefix state. When
        // the pattern created no diagram content (the empty pattern riding
        // the precomputed trajectory), the checkpoint equals the program
        // template and the cheap seat/rewind path replaces the full
        // package clone. Either way the working package is
        // indistinguishable from the one a per-shot execution would hold
        // at this point, which keeps the resumed tail byte-identical.
        if checkpoint.package.transient_is_empty() {
            work.seat(program);
        } else {
            work.package.clone_from(&checkpoint.package);
            // The cloned persistent region is the program's template, so
            // the ordinary rewind contract keeps holding for this context.
            work.seated = program.id;
        }
        let dd = &mut work.package;
        let mut state = prefix.state;
        let mut clbits = vec![false; program.num_clbits];
        let mut error_events = prefix.error_events;
        let mut peak = prefix.dd_nodes_peak;

        for step in &program.steps[program.dedup_prefix..] {
            match step {
                DdStep::Apply { op, noise_qubits } => {
                    state = dd.mat_vec_mul(*op, state);
                    state = apply_noise_live(
                        program,
                        dd,
                        noise_qubits,
                        0,
                        state,
                        rng,
                        &mut error_events,
                    );
                }
                DdStep::Measure { qubit, clbit } => {
                    let (outcome, collapsed) = dd.measure_qubit(state, *qubit, rng);
                    state = collapsed;
                    clbits[*clbit] = outcome;
                }
                DdStep::Reset { qubit, x_op } => {
                    let (outcome, collapsed) = dd.measure_qubit(state, *qubit, rng);
                    state = collapsed;
                    if outcome {
                        state = dd.mat_vec_mul(*x_op, state);
                    }
                }
            }
            peak = peak.max(dd.vec_node_count_fast(state) as u64);
        }

        let outcome = if program.measured_any {
            pack_clbits(&clbits)
        } else {
            dd.sample_measurement(state, program.num_qubits, rng)
        };
        let dd_nodes = dd.vec_node_count_fast(state) as u64;
        SingleRun {
            outcome,
            clbits,
            error_events,
            dd_nodes,
            dd_nodes_peak: peak.max(dd_nodes),
            state,
        }
    }
}

/// Applies the remaining pattern events of one step (sites in
/// `[step_start, step_end)`, starting at `events[*next]`) by live diagram
/// evolution, mirroring the decisions `apply_noise_live` would sample.
#[allow(clippy::too_many_arguments)]
fn apply_pattern_events(
    program: &DdProgram,
    dd: &mut DdPackage,
    noise_qubits: &[usize],
    step_start: u32,
    step_end: u32,
    events: &[qsdd_noise::ErrorEvent],
    next: &mut usize,
    mut state: VecEdge,
) -> VecEdge {
    let width = program.channels.len();
    while *next < events.len() && events[*next].site < step_end {
        let event = events[*next];
        debug_assert!(event.site >= step_start, "events are consumed in order");
        let position = (event.site - step_start) as usize;
        let qubit = noise_qubits[position / width];
        let channel = position % width;
        let err = program.noise_ops[channel].unitaries[qubit][event.error as usize];
        state = dd.mat_vec_mul(err, state);
        *next += 1;
    }
    state
}

/// Result of replaying one trajectory step against the random stream.
enum FastForward {
    /// No exposure deviated: the step's precomputed outcome stands.
    Clean,
    /// An error fired at exposure `resume_at - 1`; `state` is the
    /// post-error state and the caller must run the remaining exposures
    /// (from `resume_at`) live.
    Deviated { state: VecEdge, resume_at: usize },
}

/// Replays the exposures of one trajectory step, consuming the random
/// stream exactly like live execution, without touching the diagram unless
/// an error fires.
fn fast_forward_step(
    program: &DdProgram,
    ff: &StepFF,
    dd: &mut DdPackage,
    rng: &mut StdRng,
    error_events: &mut usize,
) -> FastForward {
    for (index, exposure) in ff.exposures.iter().enumerate() {
        match exposure.kind {
            FFKind::Passive => match program.channels[exposure.channel].sample_error(rng) {
                SampledError::None => {}
                SampledError::Unitary(u) => {
                    *error_events += 1;
                    let err = program.noise_ops[exposure.channel].unitaries[exposure.qubit][u];
                    let state = dd.mat_vec_mul(err, exposure.before);
                    return FastForward::Deviated {
                        state,
                        resume_at: index + 1,
                    };
                }
                SampledError::Kraus => {
                    unreachable!("passive exposures come from unitary-equivalent channels")
                }
            },
            FFKind::Damping { p_decay } => {
                // The damping channel consumes no randomness in
                // sample_error (it always takes the Kraus path); this
                // branch decision is its single draw, exactly as in live
                // execution.
                if rng.gen::<f64>() < p_decay {
                    *error_events += 1;
                    let [decay, _keep] = program.noise_ops[exposure.channel].kraus[exposure.qubit]
                        .expect("damping exposures carry Kraus operators");
                    let (_, decayed) = dd.apply_kraus(decay, exposure.before);
                    return FastForward::Deviated {
                        state: decayed,
                        resume_at: index + 1,
                    };
                }
                // No decay: the precomputed trajectory already continues
                // from the renormalised keep state.
            }
        }
    }
    FastForward::Clean
}

/// Applies a step's noise exposures by live diagram evolution, skipping the
/// first `skip` (qubit, channel) pairs (already handled by fast-forward).
fn apply_noise_live(
    program: &DdProgram,
    dd: &mut DdPackage,
    noise_qubits: &[usize],
    skip: usize,
    mut state: VecEdge,
    rng: &mut StdRng,
    error_events: &mut usize,
) -> VecEdge {
    let width = program.channels.len();
    for (position, &qubit) in noise_qubits.iter().enumerate() {
        for (index, channel) in program.channels.iter().enumerate() {
            if position * width + index < skip {
                continue;
            }
            match channel.sample_error(rng) {
                SampledError::None => {}
                SampledError::Unitary(u) => {
                    *error_events += 1;
                    let err = program.noise_ops[index].unitaries[qubit][u];
                    state = dd.mat_vec_mul(err, state);
                }
                SampledError::Kraus => {
                    // Amplitude damping: the branch probabilities are the
                    // squared norms of the branch states (Example 6 of the
                    // paper); the decay branch's is gamma times the
                    // qubit's |1> weight, so only the branch that fires is
                    // built.
                    let [decay, keep] = program.noise_ops[index].kraus[qubit]
                        .expect("Kraus events only come from Kraus channels");
                    let p_decay = dd.decay_probability(state, qubit, channel.probability());
                    let branch = if rng.gen::<f64>() < p_decay {
                        *error_events += 1;
                        decay
                    } else {
                        keep
                    };
                    state = dd.apply_kraus(branch, state).1;
                }
            }
        }
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsdd_circuit::generators::{ghz, qft};
    use rand::SeedableRng;

    #[test]
    fn noiseless_ghz_only_yields_all_zero_or_all_one() {
        let backend = DdSimulator::new();
        let circuit = ghz(10);
        let noiseless = NoiseModel::noiseless();
        let program = backend.compile(&circuit, &noiseless);
        let mut ctx = backend.new_context();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let run = backend.run_shot(&program, &mut ctx, &mut rng);
            assert!(run.outcome == 0 || run.outcome == (1 << 10) - 1);
            assert_eq!(run.error_events, 0);
        }
    }

    #[test]
    fn ghz_dd_stays_small_even_with_noise() {
        let backend = DdSimulator::new();
        let circuit = ghz(24);
        let noise = NoiseModel::paper_defaults();
        let mut rng = StdRng::seed_from_u64(1);
        let run = backend.run_once(&circuit, &noise, &mut rng);
        assert!(
            run.dd_nodes <= 2 * 24,
            "noisy GHZ run produced {} nodes",
            run.dd_nodes
        );
        assert!(run.dd_nodes_peak >= run.dd_nodes);
    }

    #[test]
    fn measured_circuit_packs_classical_bits() {
        let backend = DdSimulator::new();
        let mut circuit = Circuit::new(3);
        circuit.x(0).measure_all();
        let mut rng = StdRng::seed_from_u64(9);
        let run = backend.run_once(&circuit, &NoiseModel::noiseless(), &mut rng);
        assert_eq!(run.outcome, 0b100);
        assert_eq!(run.clbits, vec![true, false, false]);
    }

    #[test]
    fn observables_match_known_values_for_noiseless_ghz() {
        let backend = DdSimulator::new();
        let circuit = ghz(4);
        let program = backend.compile(&circuit, &NoiseModel::noiseless());
        let mut ctx = backend.new_context();
        let mut rng = StdRng::seed_from_u64(4);
        let mut run = backend.run_shot(&program, &mut ctx, &mut rng);
        let p0 = backend.evaluate(
            &program,
            &mut ctx,
            &mut run,
            &Observable::BasisProbability(0),
        );
        let p15 = backend.evaluate(
            &program,
            &mut ctx,
            &mut run,
            &Observable::BasisProbability(15),
        );
        let pq = backend.evaluate(
            &program,
            &mut ctx,
            &mut run,
            &Observable::QubitExcitation(2),
        );
        assert!((p0 - 0.5).abs() < 1e-10);
        assert!((p15 - 0.5).abs() < 1e-10);
        assert!((pq - 0.5).abs() < 1e-10);
    }

    #[test]
    fn fidelity_observable_recognises_the_prepared_state() {
        let backend = DdSimulator::new();
        let circuit = ghz(3);
        let program = backend.compile(&circuit, &NoiseModel::noiseless());
        let mut ctx = backend.new_context();
        let mut rng = StdRng::seed_from_u64(4);
        let mut run = backend.run_shot(&program, &mut ctx, &mut rng);
        let inv = std::f64::consts::FRAC_1_SQRT_2;
        let mut reference = vec![qsdd_dd::Complex::ZERO; 8];
        reference[0] = qsdd_dd::Complex::real(inv);
        reference[7] = qsdd_dd::Complex::real(inv);
        let f = backend.evaluate(
            &program,
            &mut ctx,
            &mut run,
            &Observable::Fidelity(reference),
        );
        assert!((f - 1.0).abs() < 1e-10);
    }

    #[test]
    fn qft_runs_under_noise_without_blowup() {
        let backend = DdSimulator::new();
        let circuit = qft(16);
        let noise = NoiseModel::paper_defaults();
        let mut rng = StdRng::seed_from_u64(5);
        let run = backend.run_once(&circuit, &noise, &mut rng);
        // QFT of |0..0> stays a product state, so the DD stays linear even
        // with sporadic errors.
        assert!(
            run.dd_nodes <= 4 * 16,
            "nodes={} peak={}",
            run.dd_nodes,
            run.dd_nodes_peak
        );
        assert!(run.dd_nodes_peak <= 8 * 16);
    }

    #[test]
    fn reset_forces_qubit_back_to_zero() {
        let backend = DdSimulator::new();
        let mut circuit = Circuit::new(2);
        circuit.x(0).reset(0).measure_all();
        let mut rng = StdRng::seed_from_u64(6);
        let run = backend.run_once(&circuit, &NoiseModel::noiseless(), &mut rng);
        assert_eq!(run.outcome, 0);
    }

    #[test]
    fn reused_context_reproduces_fresh_context_shots_exactly() {
        let backend = DdSimulator::new();
        let circuit = qft(6);
        let noise = NoiseModel::paper_defaults();
        let program = backend.compile(&circuit, &noise);
        let mut reused = backend.new_context();
        for seed in 0..24u64 {
            let mut rng_reused = StdRng::seed_from_u64(seed);
            let mut rng_fresh = StdRng::seed_from_u64(seed);
            let a = backend.run_shot(&program, &mut reused, &mut rng_reused);
            let mut fresh = backend.new_context();
            let b = backend.run_shot(&program, &mut fresh, &mut rng_fresh);
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.error_events, b.error_events);
            assert_eq!(a.dd_nodes, b.dd_nodes);
            assert_eq!(a.dd_nodes_peak, b.dd_nodes_peak);
            assert_eq!(a.state, b.state, "reuse changed the final state edge");
        }
    }

    #[test]
    fn context_reseats_across_programs() {
        let backend = DdSimulator::new();
        let noise = NoiseModel::paper_defaults();
        let ghz_program = backend.compile(&ghz(5), &noise);
        let qft_program = backend.compile(&qft(4), &noise);
        let mut ctx = backend.new_context();
        // Alternate programs through one context; every shot must match a
        // fresh-context run of the same program and seed.
        for round in 0..6u64 {
            for program in [&ghz_program, &qft_program] {
                let mut rng_a = StdRng::seed_from_u64(round);
                let mut rng_b = StdRng::seed_from_u64(round);
                let a = backend.run_shot(program, &mut ctx, &mut rng_a);
                let mut fresh = backend.new_context();
                let b = backend.run_shot(program, &mut fresh, &mut rng_b);
                assert_eq!(a.outcome, b.outcome);
                assert_eq!(a.state, b.state);
            }
        }
    }

    #[test]
    fn compiled_program_reports_its_shape() {
        let backend = DdSimulator::new();
        let program = backend.compile(&ghz(5), &NoiseModel::paper_defaults());
        assert_eq!(program.num_qubits(), 5);
        assert_eq!(program.step_count(), 5);
        assert!(program.persistent_mat_nodes() > 0);
        // Measurement-free circuit: the trajectory covers every step.
        assert_eq!(program.trajectory_steps(), 5);
    }

    #[test]
    fn trajectory_stops_at_the_first_measurement() {
        let backend = DdSimulator::new();
        let mut circuit = Circuit::new(2);
        circuit.h(0).measure(0, 0).x(1);
        let program = backend.compile(&circuit, &NoiseModel::paper_defaults());
        assert_eq!(program.step_count(), 3);
        assert_eq!(program.trajectory_steps(), 1);
    }

    #[test]
    fn certain_damping_forces_decay_through_the_fast_path() {
        // p = 1 amplitude damping: the X gate excites qubit 0, the
        // subsequent exposure decays it back with certainty. This pins the
        // Damping deviation branch of the fast-forward.
        let backend = DdSimulator::new();
        let mut circuit = Circuit::new(1);
        circuit.x(0);
        let noise = NoiseModel::new(0.0, 1.0, 0.0);
        let program = backend.compile(&circuit, &noise);
        let mut ctx = backend.new_context();
        for seed in 0..16 {
            let mut rng = StdRng::seed_from_u64(seed);
            let run = backend.run_shot(&program, &mut ctx, &mut rng);
            assert_eq!(run.outcome, 0, "qubit must have decayed to |0>");
            assert_eq!(run.error_events, 1);
        }
    }

    #[test]
    fn certain_phase_flip_fires_through_the_fast_path() {
        // p = 1 phase flip: Z after the X gate leaves |1> measurable but
        // counts one error event. This pins the Passive deviation branch.
        let backend = DdSimulator::new();
        let mut circuit = Circuit::new(1);
        circuit.x(0);
        let noise = NoiseModel::new(0.0, 0.0, 1.0);
        let program = backend.compile(&circuit, &noise);
        let mut ctx = backend.new_context();
        for seed in 0..16 {
            let mut rng = StdRng::seed_from_u64(seed);
            let run = backend.run_shot(&program, &mut ctx, &mut rng);
            assert_eq!(run.outcome, 1);
            assert_eq!(run.error_events, 1);
        }
    }
}
