//! A re-entrant, shareable shot-execution engine.
//!
//! [`ShotEngine`] packages everything a stochastic shot needs — the
//! (optionally transpiled) circuit **compiled into an executable program**,
//! the back-end, the noise model and the master seed — behind `&self`
//! methods. Construction performs all per-circuit work exactly once:
//! transpilation, layout bookkeeping, and the back-end's compile phase
//! (operator diagrams, noise tables; see
//! [`StochasticBackend::compile`](crate::StochasticBackend::compile)).
//!
//! Shots execute against a reusable per-worker [`ExecContext`]: create one
//! context per worker thread ([`ShotEngine::new_context`]) and feed it to
//! [`ShotEngine::run_shot_in`] for every shot that worker executes — across
//! chunks, and across engines (a context re-seats itself when handed a
//! different engine of the same back-end kind). Because the per-shot random
//! number generator is derived purely from the master seed and the shot
//! index, and because context reuse is bit-identical to fresh execution,
//! any number of threads can pull arbitrary shots from the same engine, in
//! any order, and the result of shot `i` is always the same.
//!
//! Two consumers share this API:
//!
//! * [`StochasticSimulator`](crate::StochasticSimulator) builds an engine
//!   per `run` call and drives it through the Monte-Carlo driver
//!   [`crate::execute`] (as do the server and the batch scheduler's
//!   weighted jobs);
//! * the `qsdd-batch` scheduler builds one engine per job and lets its
//!   worker pool pull arbitrary `(job, shot)` pairs from a global queue,
//!   each worker reusing one long-lived context per back-end kind.
//!
//! Outcomes are always reported in the *original* circuit's qubit order: if
//! the transpiler elided trailing SWAPs into an output relabeling, the
//! engine undoes that relabeling on every sampled outcome (and offers
//! [`ShotEngine::map_observables`] for the reverse direction).

use std::sync::Arc;
use std::time::Instant;

use qsdd_circuit::Circuit;
use qsdd_dd::{IntraPool, TableStats};
use qsdd_noise::{ErrorPattern, NoiseModel, Presampled};
use qsdd_telemetry::{Stage, StageTimings};
use qsdd_transpile::{layout, transpile, OptLevel, TranspileResult};
use rand::rngs::StdRng;

use crate::backend::StochasticBackend;
use crate::dd_backend::{DdContext, DdProgram, DdSimulator};
use crate::dedup::{execute_group, DedupSupport, Work};
use crate::dense_backend::{DenseContext, DenseProgram, DenseSimulator};
use crate::estimator::Observable;
use crate::simulator::BackendKind;
use crate::stochastic::shot_rng;

/// The aggregate-relevant result of one stochastic shot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShotSample {
    /// Sampled measurement outcome as a basis-state index, reported in the
    /// original circuit's qubit order.
    pub outcome: u64,
    /// Number of stochastic error events that fired during the shot.
    pub error_events: u64,
    /// Node count of the final state's decision diagram (`0` on the dense
    /// statevector back-end, which has no diagram).
    pub dd_nodes: u64,
    /// Peak node count the state diagram reached at any point during the
    /// shot — the memory high-water mark, sampled after every applied
    /// operation (`0` on the dense back-end).
    pub dd_nodes_peak: u64,
}

/// Monomorphised back-end + compiled-program storage (the engine must be a
/// concrete type so the batch scheduler can hold a heterogeneous fleet of
/// engines in one `Vec`).
#[derive(Clone, Debug)]
enum EngineBackend {
    DecisionDiagram {
        backend: DdSimulator,
        program: Box<DdProgram>,
    },
    Statevector {
        backend: DenseSimulator,
        program: Box<DenseProgram>,
    },
}

/// A reusable per-worker execution context for [`ShotEngine`] shots.
///
/// A context starts empty and lazily builds one inner context **per
/// back-end kind** on first use, so a worker alternating between
/// decision-diagram and statevector engines keeps both warm — neither is
/// discarded when the other runs. Handing it to a different compiled
/// program of the same kind re-seats the inner context transparently.
/// Reuse is purely an optimisation: every shot behaves exactly as if it
/// ran in a brand-new context.
#[derive(Debug, Default)]
pub struct ExecContext {
    dd: Option<Box<DdContext>>,
    dense: Option<Box<DenseContext>>,
    /// Secondary contexts for trajectory-group execution: the primary
    /// context holds a group's checkpointed pattern run while member shots
    /// resume live in the auxiliary one.
    dd_aux: Option<Box<DdContext>>,
    dense_aux: Option<Box<DenseContext>>,
    /// Fork-join pool for intra-shot parallelism, installed into every
    /// inner context (existing and lazily created).
    intra: Option<Arc<IntraPool>>,
}

/// Creates an inner DD context with the pool pre-installed.
fn new_dd_ctx(intra: &Option<Arc<IntraPool>>) -> Box<DdContext> {
    let mut ctx = Box::<DdContext>::default();
    ctx.set_intra_pool(intra.clone());
    ctx
}

/// Creates an inner dense context with the pool pre-installed.
fn new_dense_ctx(intra: &Option<Arc<IntraPool>>) -> Box<DenseContext> {
    let mut ctx = Box::<DenseContext>::default();
    ctx.set_intra_pool(intra.clone());
    ctx
}

impl ExecContext {
    /// Creates an empty context, usable with any engine.
    pub fn new() -> Self {
        ExecContext::default()
    }

    /// Requests intra-shot parallelism with `threads` workers for every
    /// shot executed in this context (see [`IntraPool`]); `threads <= 1`
    /// restores serial execution. The pool is created once and reused
    /// across calls with the same width. Results are bit-identical for
    /// every setting.
    pub fn set_intra_threads(&mut self, threads: usize) {
        if threads <= 1 {
            self.set_intra_pool(None);
        } else if self.intra.as_ref().map(|pool| pool.threads()) != Some(threads) {
            self.set_intra_pool(Some(Arc::new(IntraPool::new(threads))));
        }
    }

    /// Installs (or clears) a shared fork-join pool for intra-shot
    /// parallelism. Drivers that run several contexts concurrently hand
    /// every worker a clone of one pool instead of letting each build its
    /// own (see [`crate::execute`]).
    pub fn set_intra_pool(&mut self, pool: Option<Arc<IntraPool>>) {
        self.intra = pool;
        if let Some(ctx) = self.dd.as_deref_mut() {
            ctx.set_intra_pool(self.intra.clone());
        }
        if let Some(ctx) = self.dd_aux.as_deref_mut() {
            ctx.set_intra_pool(self.intra.clone());
        }
        if let Some(ctx) = self.dense.as_deref_mut() {
            ctx.set_intra_pool(self.intra.clone());
        }
        if let Some(ctx) = self.dense_aux.as_deref_mut() {
            ctx.set_intra_pool(self.intra.clone());
        }
    }

    /// The currently installed fork-join pool, if any.
    pub fn intra_pool(&self) -> Option<&Arc<IntraPool>> {
        self.intra.as_ref()
    }

    /// Borrows the decision-diagram context, creating it on first use.
    fn dd_mut(&mut self) -> &mut DdContext {
        let intra = &self.intra;
        self.dd.get_or_insert_with(|| new_dd_ctx(intra))
    }

    /// Borrows the statevector context, creating it on first use.
    fn dense_mut(&mut self) -> &mut DenseContext {
        let intra = &self.intra;
        self.dense.get_or_insert_with(|| new_dense_ctx(intra))
    }

    /// Snapshot of the decision-diagram table counters accumulated by this
    /// context's packages (primary + auxiliary), for before/after deltas
    /// around a job. Zero when no decision-diagram shot ran yet.
    pub(crate) fn dd_table_stats(&self) -> TableStats {
        [self.dd.as_deref(), self.dd_aux.as_deref()]
            .into_iter()
            .flatten()
            .fold(TableStats::default(), |total, ctx| {
                total + ctx.package().table_stats()
            })
    }

    /// Entries per lock stripe of the decision-diagram tables (primary and
    /// auxiliary contexts summed per stripe), as
    /// `(table name, occupancy per stripe)` pairs. Empty when no
    /// decision-diagram shot ran yet.
    pub(crate) fn dd_stripe_occupancy(&self) -> Vec<(&'static str, Vec<usize>)> {
        let mut merged: Vec<(&'static str, Vec<usize>)> = Vec::new();
        for ctx in [self.dd.as_deref(), self.dd_aux.as_deref()]
            .into_iter()
            .flatten()
        {
            for (at, (name, lens)) in ctx.package().stripe_occupancy().into_iter().enumerate() {
                if merged.len() <= at {
                    merged.push((name, lens));
                } else {
                    for (slot, add) in merged[at].1.iter_mut().zip(lens) {
                        *slot += add;
                    }
                }
            }
        }
        merged
    }

    /// Borrows the decision-diagram context pair (primary + auxiliary).
    fn dd_pair(&mut self) -> (&mut DdContext, &mut DdContext) {
        let intra = &self.intra;
        self.dd.get_or_insert_with(|| new_dd_ctx(intra));
        self.dd_aux.get_or_insert_with(|| new_dd_ctx(intra));
        match (&mut self.dd, &mut self.dd_aux) {
            (Some(primary), Some(aux)) => (primary, aux),
            _ => unreachable!("both contexts were just created"),
        }
    }

    /// Borrows the statevector context pair (primary + auxiliary).
    fn dense_pair(&mut self) -> (&mut DenseContext, &mut DenseContext) {
        let intra = &self.intra;
        self.dense.get_or_insert_with(|| new_dense_ctx(intra));
        self.dense_aux.get_or_insert_with(|| new_dense_ctx(intra));
        match (&mut self.dense, &mut self.dense_aux) {
            (Some(primary), Some(aux)) => (primary, aux),
            _ => unreachable!("both contexts were just created"),
        }
    }
}

/// A re-entrant shot executor for one circuit.
///
/// Construction does all per-circuit work up front (transpilation, layout
/// bookkeeping, back-end compilation); afterwards
/// [`run_shot_in`](Self::run_shot_in) is pure with respect to `&self` plus
/// the shot index, so engines can be shared freely across threads (the type
/// is [`Sync`]) while each thread supplies its own [`ExecContext`].
///
/// # Examples
///
/// ```
/// use qsdd_circuit::generators::ghz;
/// use qsdd_core::{BackendKind, OptLevel, ShotEngine};
/// use qsdd_noise::NoiseModel;
///
/// let engine = ShotEngine::new(
///     &ghz(4),
///     BackendKind::DecisionDiagram,
///     NoiseModel::noiseless(),
///     7,
///     OptLevel::O0,
/// );
/// // Re-entrant: the same shot index always yields the same sample, and a
/// // reused context gives the same results as one-off execution.
/// let mut ctx = engine.new_context();
/// assert_eq!(engine.run_shot_in(&mut ctx, 3), engine.run_shot(3));
/// // A noiseless GHZ shot lands on one of the two peaks.
/// let sample = engine.run_shot_in(&mut ctx, 0);
/// assert!(sample.outcome == 0 || sample.outcome == 0b1111);
/// assert_eq!(sample.error_events, 0);
/// ```
#[derive(Clone, Debug)]
pub struct ShotEngine {
    backend: EngineBackend,
    circuit: Circuit,
    /// `None` when the transpiler's output layout is the identity.
    output_layout: Option<Vec<usize>>,
    noise: NoiseModel,
    seed: u64,
    /// How the compiled program supports trajectory deduplication, resolved
    /// once at construction (`None`: every shot must execute live).
    dedup: Option<DedupSupport>,
    /// Wall time spent in the construction stages (transpile, compile), so
    /// runners can fold the one-off setup cost into a job's stage breakdown.
    timings: StageTimings,
    /// Requested intra-shot parallelism width (1 = serial). The driver
    /// resolves this against its worker count and core budget before
    /// building a pool (see [`crate::execute`]).
    intra_threads: usize,
}

impl ShotEngine {
    /// Builds an engine for `circuit`, transpiling it at `opt` first.
    ///
    /// Transpilation and back-end compilation happen exactly once here;
    /// every subsequent shot executes the precompiled program.
    pub fn new(
        circuit: &Circuit,
        backend: BackendKind,
        noise: NoiseModel,
        seed: u64,
        opt: OptLevel,
    ) -> Self {
        if opt == OptLevel::O0 {
            let compile_started = Instant::now();
            let backend = EngineBackend::compile(backend, circuit, &noise);
            let mut timings = StageTimings::new();
            timings.record(Stage::Compile, compile_started.elapsed());
            return ShotEngine {
                dedup: backend.dedup_support(),
                backend,
                circuit: circuit.clone(),
                output_layout: None,
                noise,
                seed,
                timings,
                intra_threads: 1,
            };
        }
        let transpile_started = Instant::now();
        let transpiled = transpile(circuit, opt);
        let transpile_time = transpile_started.elapsed();
        let mut engine = ShotEngine::from_transpiled(&transpiled, backend, noise, seed);
        engine.timings.record(Stage::Transpile, transpile_time);
        engine
    }

    /// Builds an engine from an already-transpiled circuit.
    ///
    /// Use this when the [`TranspileResult`] is needed anyway (e.g. to print
    /// its gate-count report) to avoid transpiling twice.
    pub fn from_transpiled(
        transpiled: &TranspileResult,
        backend: BackendKind,
        noise: NoiseModel,
        seed: u64,
    ) -> Self {
        let compile_started = Instant::now();
        let backend = EngineBackend::compile(backend, &transpiled.circuit, &noise);
        let mut timings = StageTimings::new();
        timings.record(Stage::Compile, compile_started.elapsed());
        ShotEngine {
            dedup: backend.dedup_support(),
            backend,
            circuit: transpiled.circuit.clone(),
            output_layout: (!transpiled.has_identity_layout())
                .then(|| transpiled.output_layout.clone()),
            noise,
            seed,
            timings,
            intra_threads: 1,
        }
    }

    /// Requests intra-shot parallelism with `threads` workers for shots
    /// driven through [`crate::execute`]; `1` (the default) keeps execution
    /// serial. The request is clamped against the driver's own worker count
    /// so inter-shot and intra-shot parallelism never oversubscribe the
    /// machine. Results are bit-identical for every setting.
    pub fn set_intra_threads(&mut self, threads: usize) {
        self.intra_threads = threads.max(1);
    }

    /// Builder form of [`set_intra_threads`](Self::set_intra_threads).
    pub fn with_intra_threads(mut self, threads: usize) -> Self {
        self.set_intra_threads(threads);
        self
    }

    /// The requested intra-shot parallelism width (1 = serial).
    pub fn intra_threads(&self) -> usize {
        self.intra_threads
    }

    /// Wall time the construction stages took (transpile and compile), as a
    /// [`StageTimings`] ready to merge into a run's breakdown.
    pub fn stage_timings(&self) -> StageTimings {
        self.timings
    }

    /// The circuit the engine actually executes (after transpilation).
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Number of qubits of the executed circuit.
    pub fn num_qubits(&self) -> usize {
        self.circuit.num_qubits()
    }

    /// The master seed shots are derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The noise model applied after every gate.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// Which back-end kind executes the shots.
    pub fn backend_kind(&self) -> BackendKind {
        match self.backend {
            EngineBackend::DecisionDiagram { .. } => BackendKind::DecisionDiagram,
            EngineBackend::Statevector { .. } => BackendKind::Statevector,
        }
    }

    /// Creates a fresh execution context for this engine.
    ///
    /// One context per worker thread is the intended granularity; the same
    /// context can subsequently be reused with *other* engines too (it
    /// re-seats itself on the first shot of each program).
    pub fn new_context(&self) -> ExecContext {
        ExecContext::new()
    }

    /// Executes stochastic shot number `shot` in the given reusable
    /// context.
    ///
    /// The shot's random number generator is derived deterministically from
    /// the engine seed and `shot`, and context reuse is unobservable, so
    /// the result does not depend on which thread runs the shot, in which
    /// order shots are executed, or what the context ran before.
    pub fn run_shot_in(&self, ctx: &mut ExecContext, shot: u64) -> ShotSample {
        self.run_shot_with_observables_in(ctx, shot, &[]).0
    }

    /// Executes shot `shot` in a throwaway context.
    ///
    /// Convenience for one-off shots; hot loops should create one context
    /// per worker with [`new_context`](Self::new_context) and use
    /// [`run_shot_in`](Self::run_shot_in) to amortise the per-context
    /// setup.
    pub fn run_shot(&self, shot: u64) -> ShotSample {
        let mut ctx = self.new_context();
        self.run_shot_in(&mut ctx, shot)
    }

    /// Executes shot `shot` in the given context and additionally evaluates
    /// quadratic observables on the shot's final state.
    ///
    /// The observables must already be expressed over the *executed*
    /// circuit's qubits — pass them through
    /// [`map_observables`](Self::map_observables) once per batch instead of
    /// remapping on every shot.
    pub fn run_shot_with_observables_in(
        &self,
        ctx: &mut ExecContext,
        shot: u64,
        observables: &[Observable],
    ) -> (ShotSample, Vec<f64>) {
        let mut rng = shot_rng(self.seed, shot);
        self.run_with_rng_in(ctx, &mut rng, observables)
    }

    /// Executes one live shot with a caller-supplied generator (the
    /// weighted tail sampler derives its generators from a salted seed
    /// stream rather than the shot index).
    pub(crate) fn run_with_rng_in(
        &self,
        ctx: &mut ExecContext,
        rng: &mut StdRng,
        observables: &[Observable],
    ) -> (ShotSample, Vec<f64>) {
        let (mut sample, values) = match &self.backend {
            EngineBackend::DecisionDiagram { backend, program } => {
                execute_shot(backend, program, ctx.dd_mut(), rng, observables)
            }
            EngineBackend::Statevector { backend, program } => {
                execute_shot(backend, program, ctx.dense_mut(), rng, observables)
            }
        };
        if let Some(output_layout) = &self.output_layout {
            // The transpiler only elides trailing SWAPs on measurement-free
            // circuits, where the outcome is a full-register sample, so
            // shuffling its bits through the layout restores the original
            // qubit order exactly.
            sample.outcome = layout::restore_outcome(sample.outcome, output_layout);
        }
        (sample, values)
    }

    /// Executes shot `shot` with observables in a throwaway context (see
    /// [`run_shot_with_observables_in`](Self::run_shot_with_observables_in)).
    pub fn run_shot_with_observables(
        &self,
        shot: u64,
        observables: &[Observable],
    ) -> (ShotSample, Vec<f64>) {
        let mut ctx = self.new_context();
        self.run_shot_with_observables_in(&mut ctx, shot, observables)
    }

    /// `true` when the compiled program supports trajectory deduplication
    /// (see [`crate::dedup`]): shots can then be presampled with
    /// [`presample_shot`](Self::presample_shot) and executed in groups with
    /// [`run_group_in`](Self::run_group_in).
    pub fn supports_dedup(&self) -> bool {
        self.dedup.is_some()
    }

    /// `true` when the compiled program supports weighted trajectory
    /// enumeration (see [`crate::weighted`]): the whole program must be
    /// pattern-replayable ([`DedupSupport::full`] — no mid-circuit
    /// measurements or resets) and small enough that the exact outcome
    /// histogram stays tractable.
    pub fn supports_weighted(&self) -> bool {
        self.dedup.as_ref().is_some_and(|support| support.full)
            && self.num_qubits() <= crate::weighted::MAX_WEIGHTED_QUBITS
    }

    /// The presample plan weighted enumeration walks; `None` when the
    /// engine does not support weighted enumeration.
    pub(crate) fn weighted_plan(&self) -> Option<&qsdd_noise::PresamplePlan> {
        if !self.supports_weighted() {
            return None;
        }
        self.dedup.as_ref().map(|support| &support.plan)
    }

    /// Simulates one enumerated error pattern and feeds the final state's
    /// exact outcome distribution into `sink` (outcomes restored to the
    /// original qubit order). Returns the pattern run's statistics and the
    /// observables' exact values on the pattern's final state.
    ///
    /// `observables` must already be mapped through
    /// [`map_observables`](Self::map_observables).
    ///
    /// # Panics
    ///
    /// Panics if the engine does not support weighted enumeration
    /// ([`supports_weighted`](Self::supports_weighted)).
    pub(crate) fn run_weighted_pattern_in(
        &self,
        ctx: &mut ExecContext,
        pattern: &ErrorPattern,
        observables: &[Observable],
        sink: &mut dyn FnMut(u64, f64),
    ) -> (ShotSample, Vec<f64>) {
        assert!(
            self.supports_weighted(),
            "run_weighted_pattern_in requires an engine with weighted support"
        );
        let output_layout = self.output_layout.as_deref();
        let mut restore = |outcome: u64, probability: f64| match output_layout {
            Some(output_layout) => {
                sink(layout::restore_outcome(outcome, output_layout), probability)
            }
            None => sink(outcome, probability),
        };
        match &self.backend {
            EngineBackend::DecisionDiagram { backend, program } => {
                let ctx = ctx.dd_mut();
                let mut run = backend.run_pattern(program, ctx, pattern);
                let values: Vec<f64> = observables
                    .iter()
                    .map(|o| backend.evaluate(program, ctx, &mut run, o))
                    .collect();
                backend.outcome_distribution(program, ctx, &run, &mut restore);
                (
                    ShotSample {
                        outcome: 0,
                        error_events: run.error_events as u64,
                        dd_nodes: run.dd_nodes,
                        dd_nodes_peak: run.dd_nodes_peak,
                    },
                    values,
                )
            }
            EngineBackend::Statevector { backend, program } => {
                let ctx = ctx.dense_mut();
                let mut run = backend.run_pattern(program, ctx, pattern);
                let values: Vec<f64> = observables
                    .iter()
                    .map(|o| backend.evaluate(program, ctx, &mut run, o))
                    .collect();
                backend.outcome_distribution(program, ctx, &run, &mut restore);
                (
                    ShotSample {
                        outcome: 0,
                        error_events: run.error_events as u64,
                        dd_nodes: run.dd_nodes,
                        dd_nodes_peak: run.dd_nodes_peak,
                    },
                    values,
                )
            }
        }
    }

    /// Resolves shot `shot`'s error decisions up front.
    ///
    /// Returns the shot's [`ErrorPattern`] together with its generator —
    /// positioned exactly where live execution would be after the covered
    /// exposures — when the shot is deduplicable; `None` when the engine
    /// does not support deduplication or the shot must execute live
    /// (state-dependent decision ahead). Shots with equal patterns belong
    /// in the same [`run_group_in`](Self::run_group_in) group.
    pub fn presample_shot(&self, shot: u64) -> Option<(ErrorPattern, StdRng)> {
        let support = self.dedup.as_ref()?;
        let mut rng = shot_rng(self.seed, shot);
        match support.plan.presample(&mut rng) {
            Presampled::Pattern(pattern) => Some((pattern, rng)),
            Presampled::Live => None,
        }
    }

    /// Presamples a contiguous shot range and groups it by error pattern:
    /// groups in first-appearance order (members in shot order) plus the
    /// live shots in index order, or `None` when the engine does not
    /// support deduplication.
    ///
    /// This is the building block for bounded-memory consumers (the batch
    /// scheduler presamples one round at a time with it); each group feeds
    /// straight into [`run_group_in`](Self::run_group_in), each live shot
    /// into [`run_shot_in`](Self::run_shot_in).
    #[allow(clippy::type_complexity)]
    pub fn presample_range(
        &self,
        range: std::ops::Range<u64>,
    ) -> Option<(Vec<(ErrorPattern, Vec<(u64, StdRng)>)>, Vec<u64>)> {
        let support = self.dedup.as_ref()?;
        Some(crate::dedup::group_range(&support.plan, range, self.seed))
    }

    /// Executes one trajectory group: the shared `pattern` is simulated
    /// once and every member shot receives its own sample (outcome drawn
    /// from the shared state, or resumed live after a deduplicated prefix).
    ///
    /// `shots` are `(shot index, generator)` pairs as returned by
    /// [`presample_shot`](Self::presample_shot), all with the identical
    /// pattern; `observables` must already be mapped through
    /// [`map_observables`](Self::map_observables). Every returned sample is
    /// byte-identical to what [`run_shot_in`](Self::run_shot_in) would
    /// produce for the same shot index.
    ///
    /// # Panics
    ///
    /// Panics if the engine does not support deduplication
    /// ([`supports_dedup`](Self::supports_dedup)).
    pub fn run_group_in(
        &self,
        ctx: &mut ExecContext,
        pattern: &ErrorPattern,
        shots: &mut [(u64, StdRng)],
        observables: &[Observable],
    ) -> Vec<(u64, ShotSample, Vec<f64>)> {
        let support = self
            .dedup
            .as_ref()
            .expect("run_group_in requires an engine with dedup support");
        let mut out = Vec::with_capacity(shots.len());
        let sink = |shot: u64, sample: ShotSample, values: &[f64]| {
            out.push((shot, sample, values.to_vec()));
        };
        match &self.backend {
            EngineBackend::DecisionDiagram { backend, program } => {
                let (pattern_ctx, work_ctx) = ctx.dd_pair();
                execute_group(
                    backend,
                    program,
                    support,
                    pattern_ctx,
                    work_ctx,
                    pattern,
                    shots,
                    observables,
                    sink,
                );
            }
            EngineBackend::Statevector { backend, program } => {
                let (pattern_ctx, work_ctx) = ctx.dense_pair();
                execute_group(
                    backend,
                    program,
                    support,
                    pattern_ctx,
                    work_ctx,
                    pattern,
                    shots,
                    observables,
                    sink,
                );
            }
        }
        if let Some(output_layout) = &self.output_layout {
            for (_, sample, _) in &mut out {
                sample.outcome = layout::restore_outcome(sample.outcome, output_layout);
            }
        }
        out
    }

    /// Presamples shots `0..shots` on `threads` workers and groups them by
    /// error pattern: the work list of a dedup run (groups in
    /// first-appearance order, then live shots in index order) and its
    /// live-shot count, or `None` when the engine does not support
    /// deduplication.
    pub(crate) fn plan_shots(&self, shots: usize, threads: usize) -> Option<(Vec<Work>, u64)> {
        let support = self.dedup.as_ref()?;
        Some(crate::dedup::plan_shots(
            &support.plan,
            shots,
            threads,
            self.seed,
        ))
    }

    /// Re-expresses observables over the original qubits as observables over
    /// the executed circuit's qubits.
    ///
    /// With an identity layout this is a clone; otherwise qubit indices and
    /// basis indices are pushed through the transpiler's output layout. Call
    /// once before a shot loop and feed the result to
    /// [`run_shot_with_observables_in`](Self::run_shot_with_observables_in).
    pub fn map_observables(&self, observables: &[Observable]) -> Vec<Observable> {
        match &self.output_layout {
            None => observables.to_vec(),
            Some(output_layout) => observables
                .iter()
                .map(|observable| remap_observable(observable, output_layout))
                .collect(),
        }
    }
}

impl EngineBackend {
    fn compile(kind: BackendKind, circuit: &Circuit, noise: &NoiseModel) -> Self {
        match kind {
            BackendKind::DecisionDiagram => {
                let backend = DdSimulator::new();
                let program = Box::new(backend.compile(circuit, noise));
                EngineBackend::DecisionDiagram { backend, program }
            }
            BackendKind::Statevector => {
                let backend = DenseSimulator::new();
                let program = Box::new(backend.compile(circuit, noise));
                EngineBackend::Statevector { backend, program }
            }
        }
    }

    fn dedup_support(&self) -> Option<DedupSupport> {
        match self {
            EngineBackend::DecisionDiagram { backend, program } => backend.dedup_support(program),
            EngineBackend::Statevector { backend, program } => backend.dedup_support(program),
        }
    }
}

/// Runs one shot on a concrete back-end and evaluates the observables;
/// `SingleRun` carries the diagram statistics uniformly (zero on back-ends
/// without diagrams), so both engine arms share this body.
fn execute_shot<B: StochasticBackend>(
    backend: &B,
    program: &B::Program,
    ctx: &mut B::Context,
    rng: &mut rand::rngs::StdRng,
    observables: &[Observable],
) -> (ShotSample, Vec<f64>) {
    let mut run = backend.run_shot(program, ctx, rng);
    let values: Vec<f64> = observables
        .iter()
        .map(|o| backend.evaluate(program, ctx, &mut run, o))
        .collect();
    (
        ShotSample {
            outcome: run.outcome,
            error_events: run.error_events as u64,
            dd_nodes: run.dd_nodes,
            dd_nodes_peak: run.dd_nodes_peak,
        },
        values,
    )
}

/// Re-expresses an observable over the original qubits as one over the
/// optimized circuit's qubits (`layout[q]` holds original qubit `q`).
fn remap_observable(observable: &Observable, output_layout: &[usize]) -> Observable {
    match observable {
        Observable::QubitExcitation(q) => Observable::QubitExcitation(output_layout[*q]),
        Observable::BasisProbability(index) => {
            Observable::BasisProbability(layout::permute_index(*index, output_layout))
        }
        Observable::Fidelity(amplitudes) => {
            let mut permuted = amplitudes.clone();
            for (index, amplitude) in amplitudes.iter().enumerate() {
                permuted[layout::permute_index(index as u64, output_layout) as usize] = *amplitude;
            }
            Observable::Fidelity(permuted)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsdd_circuit::generators::{ghz, qft};

    #[test]
    fn shots_are_deterministic_and_reentrant() {
        let engine = ShotEngine::new(
            &ghz(6),
            BackendKind::DecisionDiagram,
            NoiseModel::paper_defaults(),
            42,
            OptLevel::O0,
        );
        let mut ctx = engine.new_context();
        let first: Vec<ShotSample> = (0..16).map(|s| engine.run_shot_in(&mut ctx, s)).collect();
        // Replaying any shot, in any order, in the same (reused) context,
        // yields the identical sample.
        let replay: Vec<ShotSample> = (0..16)
            .rev()
            .map(|s| engine.run_shot_in(&mut ctx, s))
            .collect();
        let mut replay = replay;
        replay.reverse();
        assert_eq!(first, replay);
    }

    #[test]
    fn reused_context_matches_throwaway_contexts() {
        let engine = ShotEngine::new(
            &qft(5),
            BackendKind::DecisionDiagram,
            NoiseModel::paper_defaults(),
            77,
            OptLevel::O0,
        );
        let mut ctx = engine.new_context();
        for shot in 0..32 {
            assert_eq!(engine.run_shot_in(&mut ctx, shot), engine.run_shot(shot));
        }
    }

    #[test]
    fn one_context_serves_engines_of_both_kinds() {
        let dd = ShotEngine::new(
            &ghz(4),
            BackendKind::DecisionDiagram,
            NoiseModel::paper_defaults(),
            5,
            OptLevel::O0,
        );
        let dense = ShotEngine::new(
            &ghz(4),
            BackendKind::Statevector,
            NoiseModel::paper_defaults(),
            5,
            OptLevel::O0,
        );
        let mut ctx = ExecContext::new();
        for shot in 0..8 {
            // Alternating engine kinds keeps both inner contexts warm;
            // results still match one-off execution.
            assert_eq!(dd.run_shot_in(&mut ctx, shot), dd.run_shot(shot));
            assert_eq!(dense.run_shot_in(&mut ctx, shot), dense.run_shot(shot));
        }
    }

    #[test]
    fn engines_share_across_threads() {
        let engine = ShotEngine::new(
            &ghz(5),
            BackendKind::DecisionDiagram,
            NoiseModel::paper_defaults(),
            9,
            OptLevel::O0,
        );
        let mut reference_ctx = engine.new_context();
        let sequential: Vec<u64> = (0..32)
            .map(|s| engine.run_shot_in(&mut reference_ctx, s).outcome)
            .collect();
        let mut concurrent = vec![0u64; 32];
        std::thread::scope(|scope| {
            for (chunk_index, chunk) in concurrent.chunks_mut(8).enumerate() {
                let engine = &engine;
                scope.spawn(move || {
                    let mut ctx = engine.new_context();
                    for (offset, slot) in chunk.iter_mut().enumerate() {
                        *slot = engine
                            .run_shot_in(&mut ctx, (chunk_index * 8 + offset) as u64)
                            .outcome;
                    }
                });
            }
        });
        assert_eq!(sequential, concurrent);
    }

    #[test]
    fn transpiled_engine_restores_original_qubit_order() {
        // qft ends in trailing SWAPs which O2 elides into a relabeling; the
        // engine must undo it so both engines sample the same distribution.
        let circuit = qft(3);
        let raw = ShotEngine::new(
            &circuit,
            BackendKind::DecisionDiagram,
            NoiseModel::noiseless(),
            3,
            OptLevel::O0,
        );
        let optimized = ShotEngine::new(
            &circuit,
            BackendKind::DecisionDiagram,
            NoiseModel::noiseless(),
            3,
            OptLevel::O2,
        );
        assert!(optimized.circuit().len() < raw.circuit().len());
        // Same seed, same shot index, but different circuits: outcomes need
        // not match shot-by-shot, yet both must stay within range and the
        // layout restoration must be exercised.
        let mut ctx = optimized.new_context();
        for shot in 0..64 {
            assert!(optimized.run_shot_in(&mut ctx, shot).outcome < 8);
        }
    }

    #[test]
    fn dense_backend_reports_zero_dd_nodes() {
        let engine = ShotEngine::new(
            &ghz(4),
            BackendKind::Statevector,
            NoiseModel::noiseless(),
            1,
            OptLevel::O0,
        );
        let sample = engine.run_shot(0);
        assert_eq!(sample.dd_nodes, 0);
        assert_eq!(sample.dd_nodes_peak, 0);
        let dd = ShotEngine::new(
            &ghz(4),
            BackendKind::DecisionDiagram,
            NoiseModel::noiseless(),
            1,
            OptLevel::O0,
        );
        let sample = dd.run_shot(0);
        assert!(sample.dd_nodes > 0);
        assert!(sample.dd_nodes_peak >= sample.dd_nodes);
    }

    #[test]
    fn map_observables_is_identity_without_layout() {
        let engine = ShotEngine::new(
            &ghz(3),
            BackendKind::DecisionDiagram,
            NoiseModel::noiseless(),
            1,
            OptLevel::O0,
        );
        let observables = vec![Observable::QubitExcitation(2)];
        assert_eq!(engine.map_observables(&observables), observables);
    }
}
