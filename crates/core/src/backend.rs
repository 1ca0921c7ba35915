//! The back-end abstraction shared by the stochastic simulators.
//!
//! Shot execution is split into two phases (the prepare-once / execute-many
//! architecture that makes the paper's "shots are i.i.d. and embarrassingly
//! parallel" observation actually pay off):
//!
//! 1. **Compile** ([`StochasticBackend::compile`]): everything that depends
//!    only on the circuit and the noise model — gate matrices, controlled-op
//!    and swap operator diagrams, noise-channel operator tables — is
//!    resolved once into an immutable [`StochasticBackend::Program`].
//! 2. **Execute** ([`StochasticBackend::run_shot`]): each shot replays the
//!    program against a mutable per-worker [`StochasticBackend::Context`]
//!    (scratch state, reusable arenas). Contexts are rewound, not rebuilt,
//!    between shots, so the per-circuit work is amortised over the whole
//!    shot loop.
//!
//! Reuse is an optimisation, never an observable: a shot executed in a
//! reused context is bit-identical to the same shot executed in a freshly
//! created context, for every seed and shot index. [`crate::ShotEngine`]
//! wraps the two back-ends behind one concrete type, and the Monte-Carlo
//! driver [`crate::execute`] runs it concurrently by sharing the program
//! across workers and giving each worker its own context; the paper's
//! contribution is the decision-diagram back-end, the dense
//! statevector back-end reproduces the baseline simulators.

use std::sync::atomic::{AtomicU64, Ordering};

use qsdd_circuit::Circuit;
use qsdd_noise::{ErrorPattern, NoiseModel};
use rand::rngs::StdRng;

use crate::dedup::DedupSupport;
use crate::estimator::Observable;

/// The result of a single stochastic simulation run.
#[derive(Clone, Debug)]
pub struct SingleRun<S> {
    /// The sampled measurement outcome as a basis-state index.
    ///
    /// If the circuit contains explicit measurements, the outcome packs the
    /// classical register (classical bit 0 is the most significant bit);
    /// otherwise every qubit of the final state is sampled once.
    pub outcome: u64,
    /// The classical register after the run.
    pub clbits: Vec<bool>,
    /// Number of stochastic error events that fired during the run.
    pub error_events: usize,
    /// Node count of the final state's decision diagram (`0` on back-ends
    /// without a diagram representation).
    pub dd_nodes: u64,
    /// Peak node count the state diagram reached at any point during the
    /// run (`0` on back-ends without a diagram representation).
    pub dd_nodes_peak: u64,
    /// Back-end specific handle to the final pure state of the run.
    ///
    /// The handle may borrow storage owned by the context the shot ran in
    /// (e.g. decision diagram nodes); it is only meaningful until that
    /// context executes its next shot.
    pub state: S,
}

/// A simulation engine that can produce independent stochastic runs.
///
/// Implementations must be [`Sync`]: the Monte-Carlo runner shares one
/// back-end instance (and one compiled program) across worker threads; every
/// worker owns a private context and every run receives its own random
/// number generator.
pub trait StochasticBackend: Sync {
    /// Back-end specific handle to the final pure state of a run (see
    /// [`SingleRun::state`]).
    type State;

    /// The compiled, immutable form of one circuit + noise model pair.
    ///
    /// Programs are shared across worker threads by reference.
    type Program: Send + Sync;

    /// Reusable per-worker scratch state (arenas, amplitude buffers).
    type Context: Send;

    /// Phase 1: resolves `circuit` under `noise` into an executable program,
    /// performing all per-circuit work (operator construction, noise table
    /// resolution) exactly once.
    fn compile(&self, circuit: &Circuit, noise: &NoiseModel) -> Self::Program;

    /// Creates an empty execution context.
    ///
    /// A context is lazily seated onto whatever program it first executes
    /// and re-seats itself when handed a different program, so one
    /// long-lived context per worker serves any sequence of programs of
    /// this back-end.
    fn new_context(&self) -> Self::Context;

    /// Phase 2: executes one stochastic shot of `program` in `ctx`.
    ///
    /// The context is rewound at shot entry; any state left over from a
    /// previous shot (of this or another program) is invalidated first, so
    /// the result is bit-identical to running the shot in a fresh context.
    fn run_shot(
        &self,
        program: &Self::Program,
        ctx: &mut Self::Context,
        rng: &mut StdRng,
    ) -> SingleRun<Self::State>;

    /// Evaluates a quadratic observable `|<omega|psi>|^2`-style property on
    /// the final state of a run.
    ///
    /// Must be called with the context the run executed in, *before* that
    /// context runs its next shot (the run's state may live in the
    /// context). Takes the context mutably because some back-ends fill
    /// internal caches (e.g. interned complex values) while evaluating.
    fn evaluate(
        &self,
        program: &Self::Program,
        ctx: &mut Self::Context,
        run: &mut SingleRun<Self::State>,
        observable: &Observable,
    ) -> f64;

    /// Describes how `program` supports trajectory deduplication, or `None`
    /// when every shot must execute live.
    ///
    /// A supporting back-end returns the presample plan over the program's
    /// deduplicable prefix (see [`crate::dedup`]); the deduplicating runner
    /// then presamples shots against it, groups equal patterns, and drives
    /// [`run_pattern`](Self::run_pattern) /
    /// [`sample_outcome`](Self::sample_outcome) /
    /// [`resume_pattern`](Self::resume_pattern). The default declines, which
    /// keeps every existing back-end correct on the ordinary per-shot path.
    fn dedup_support(&self, _program: &Self::Program) -> Option<DedupSupport> {
        None
    }

    /// Executes the deduplicable prefix of `program` under a presampled
    /// error pattern (no randomness is consumed — every decision comes from
    /// the pattern).
    ///
    /// The returned run's state, error count and node statistics are those
    /// every member shot of the pattern's group would have reached at the
    /// end of the prefix; its `outcome` is unspecified (each member samples
    /// its own). Only called when [`dedup_support`](Self::dedup_support)
    /// returned `Some` for the program.
    fn run_pattern(
        &self,
        _program: &Self::Program,
        _ctx: &mut Self::Context,
        _pattern: &ErrorPattern,
    ) -> SingleRun<Self::State> {
        unreachable!("dedup_support declined; run_pattern must not be called")
    }

    /// Samples one member shot's measurement outcome from a completed
    /// full-program pattern run.
    ///
    /// `rng` is the member's generator, positioned exactly after the
    /// presampled exposures (the presampler consumed the stream like live
    /// execution). Only called when the program's [`DedupSupport::full`] is
    /// `true`.
    fn sample_outcome(
        &self,
        _program: &Self::Program,
        _ctx: &mut Self::Context,
        _run: &SingleRun<Self::State>,
        _rng: &mut StdRng,
    ) -> u64 {
        unreachable!("dedup_support declined; sample_outcome must not be called")
    }

    /// Samples every member shot of a full-program pattern group, feeding
    /// `(shot index, outcome)` pairs into `sink`.
    ///
    /// Semantically exactly a loop over
    /// [`sample_outcome`](Self::sample_outcome); back-ends may override it
    /// to hoist per-state preparation (e.g. a flattened sampling plan) out
    /// of the member loop, which is the hottest loop of a deduplicated run.
    fn sample_outcomes(
        &self,
        program: &Self::Program,
        ctx: &mut Self::Context,
        run: &SingleRun<Self::State>,
        shots: &mut [(u64, StdRng)],
        mut sink: impl FnMut(u64, u64),
    ) {
        for (shot, rng) in shots.iter_mut() {
            sink(*shot, self.sample_outcome(program, ctx, run, rng));
        }
    }

    /// Feeds the exact measurement-outcome distribution of a completed
    /// full-program pattern run into `sink` as `(outcome, probability)`
    /// pairs, one per basis state with non-zero probability.
    ///
    /// This is the weighted-enumeration counterpart of
    /// [`sample_outcomes`](Self::sample_outcomes): instead of sampling
    /// member shots from the final state, the caller takes the whole
    /// distribution and scales it by the pattern's probability. Must be
    /// called with the context the run executed in, before that context
    /// runs its next shot. Only called when the program's
    /// [`DedupSupport::full`] is `true`.
    fn outcome_distribution(
        &self,
        _program: &Self::Program,
        _ctx: &mut Self::Context,
        _run: &SingleRun<Self::State>,
        _sink: &mut dyn FnMut(u64, f64),
    ) {
        unreachable!("dedup_support declined; outcome_distribution must not be called")
    }

    /// Resumes one member shot live from a checkpointed prefix run.
    ///
    /// `checkpoint` is the context [`run_pattern`](Self::run_pattern)
    /// executed in — it must be left untouched so further members can
    /// resume from it; the member executes the remaining program steps in
    /// `work` (typically seeded from a clone of the checkpoint) with its
    /// own generator. Only called when the program's [`DedupSupport::full`]
    /// is `false`.
    fn resume_pattern(
        &self,
        _program: &Self::Program,
        _checkpoint: &Self::Context,
        _prefix: &SingleRun<Self::State>,
        _work: &mut Self::Context,
        _rng: &mut StdRng,
    ) -> SingleRun<Self::State> {
        unreachable!("dedup_support declined; resume_pattern must not be called")
    }

    /// Convenience single-shot path: compiles `circuit`, creates a fresh
    /// context and executes one shot in it.
    ///
    /// Every call pays the full compile phase (operator resolution, and
    /// for the DD back-end the no-error trajectory precompute), so this is
    /// strictly a convenience — hot loops should compile once and reuse a
    /// context via [`run_shot`](Self::run_shot) instead.
    ///
    /// **Caveat:** the context is dropped on return, so for back-ends
    /// whose [`SingleRun::state`] handle borrows context storage (the
    /// decision-diagram back-end) the returned `state` must not be
    /// dereferenced or passed to [`evaluate`](Self::evaluate); use
    /// `compile` + `run_shot` with a context you keep, or
    /// a self-contained path like `DdSimulator::simulate_noiseless`, when
    /// the final state matters.
    fn run_once(
        &self,
        circuit: &Circuit,
        noise: &NoiseModel,
        rng: &mut StdRng,
    ) -> SingleRun<Self::State> {
        let program = self.compile(circuit, noise);
        let mut ctx = self.new_context();
        self.run_shot(&program, &mut ctx, rng)
    }
}

/// Hands out process-unique program identifiers, so execution contexts can
/// detect whether they are already seated on the program they are asked to
/// run (reuse) or must re-seat (program switch).
pub(crate) fn next_program_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Packs a classical register into a basis index (bit 0 of the register is
/// the most significant bit of the index).
pub(crate) fn pack_clbits(clbits: &[bool]) -> u64 {
    clbits
        .iter()
        .fold(0u64, |acc, &bit| (acc << 1) | u64::from(bit))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_clbits_uses_bit0_as_msb() {
        assert_eq!(pack_clbits(&[true, false]), 0b10);
        assert_eq!(pack_clbits(&[false, true, true]), 0b011);
        assert_eq!(pack_clbits(&[]), 0);
    }

    #[test]
    fn program_ids_are_unique_and_nonzero() {
        let a = next_program_id();
        let b = next_program_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }
}
