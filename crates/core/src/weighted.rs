//! Weighted trajectory enumeration: exact mixtures instead of samples.
//!
//! The per-shot and dedup modes of [`execute`](crate::execute) *sample*
//! error trajectories: every shot draws a pattern and the histogram converges
//! at the usual `1/sqrt(shots)` rate. Under realistic noise strengths that is
//! wasteful — a handful of patterns (no error, one error, …) carries almost
//! all of the probability mass, and their occurrence probabilities are known
//! in closed form. This module walks those patterns *deterministically*
//! ([`PatternEnumerator`]), simulates each enumerated trajectory exactly
//! once, and accumulates its **exact** outcome distribution scaled by the
//! pattern's probability. Shot count stops being the cost driver: the
//! enumerated mass is computed exactly, and shots only matter for the
//! residual tail.
//!
//! # The estimator
//!
//! Let `E` be the enumerated pattern set with total mass `M`, and `d_pi` the
//! exact outcome distribution of trajectory `pi`. The weighted estimate is
//!
//! ```text
//! d  =  sum_{pi in E} P(pi) d_pi  +  (1 - M) * t
//! ```
//!
//! where `t` is the empirical distribution of the **residual tail**:
//! rejection-sampled shots whose presampled pattern is *not* in `E` (plus
//! the live shots a state-dependent channel forces). The tail draws from the
//! exact conditional distribution given "not enumerated", so `d` is an
//! unbiased estimator of the true outcome distribution for every cutoff.
//! The tail is sized at `(1 - M)^2 * shots` draws (floored at a small
//! constant): its contribution is scaled by `1 - M`, so that many draws
//! already match the `1/sqrt(shots)` error scale of plain sampling while the
//! covered mass contributes no sampling noise at all.
//! With full coverage (`M = 1`) or [`WeightedOptions::exact_histogram`] the
//! tail is skipped and the histogram is exact (respectively, conditioned on
//! the covered mass).
//!
//! # Determinism
//!
//! A weighted run is serial on the caller's context, so results are
//! bit-identical across repeat runs and independent of any requested thread
//! count. Tail shot `k`
//! derives its generator from the engine seed XOR a fixed salt — disjoint
//! from the ordinary shot streams, and stable under re-runs.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use qsdd_noise::{ErrorPattern, PatternEnumerator, Presampled, WeightedPattern};
use qsdd_telemetry::trace;
use qsdd_telemetry::Stage;

use crate::deadline::{Deadline, TimedOut};
use crate::estimator::Observable;
use crate::fxhash::FxHashMap;
use crate::shot_engine::{ExecContext, ShotEngine};
use crate::stochastic::{shot_rng, trace_dd_attrs, trace_dd_stats, StochasticOutcome};

/// Largest circuit (in qubits) the weighted driver accepts: beyond this the
/// exact histogram can outgrow memory, so the engine falls back to sampling.
pub const MAX_WEIGHTED_QUBITS: usize = 20;

/// Salt XOR-ed into the engine seed for the tail candidate stream, keeping
/// it disjoint from the ordinary per-shot generators.
const TAIL_SALT: u64 = 0x7A11_5A17_D15C_0DE5;

/// Residual mass below this is treated as fully covered: no tail runs.
const RESIDUAL_EPSILON: f64 = 1e-12;

/// Per accepted tail shot, how many rejected candidates the sampler will
/// tolerate before giving up (a safety valve against a residual-mass
/// estimate that rounds a near-zero acceptance probability up).
const TAIL_CANDIDATE_FACTOR: u64 = 1000;

/// Floor on the tail sample size whenever a tail runs at all, so the
/// conditional shape of the residual is estimated from more than a couple
/// of draws even when the variance-matched size rounds to almost nothing.
const MIN_TAIL_SHOTS: u64 = 16;

/// Tuning knobs of the weighted-enumeration driver.
#[derive(Clone, Debug, PartialEq)]
pub struct WeightedOptions {
    /// Stop enumerating once this much probability mass is covered
    /// (`1.0` = enumerate everything the budget allows).
    pub mass_cutoff: f64,
    /// Hard cap on the number of enumerated trajectories.
    pub max_patterns: u64,
    /// Skip the residual tail entirely: the reported distribution is exact
    /// but conditioned on the covered mass (renormalised over it). Use when
    /// the histogram — not an unbiased estimate — is the deliverable.
    pub exact_histogram: bool,
}

impl Default for WeightedOptions {
    fn default() -> Self {
        WeightedOptions {
            mass_cutoff: 0.999,
            max_patterns: 1024,
            exact_histogram: false,
        }
    }
}

impl WeightedOptions {
    /// Sets the mass cutoff.
    pub fn with_mass_cutoff(mut self, cutoff: f64) -> Self {
        self.mass_cutoff = cutoff;
        self
    }

    /// Sets the enumeration budget.
    pub fn with_max_patterns(mut self, max: u64) -> Self {
        self.max_patterns = max;
        self
    }

    /// Enables or disables the exact-histogram mode (no tail shots).
    pub fn with_exact_histogram(mut self, exact: bool) -> Self {
        self.exact_histogram = exact;
        self
    }
}

/// What the weighted driver actually did, carried on
/// [`StochasticOutcome::weighted`].
#[derive(Clone, Debug, PartialEq)]
pub struct WeightedStats {
    /// Probability mass of the enumerated trajectories.
    pub covered_mass: f64,
    /// Number of trajectories enumerated (and simulated exactly once each).
    pub enumerated_trajectories: u64,
    /// Number of residual-tail shots actually simulated (`0` with full
    /// coverage or [`WeightedOptions::exact_histogram`]).
    pub tail_shots: u64,
    /// The estimated outcome distribution (normalised, sorted by outcome).
    /// This is the exact deliverable; [`StochasticOutcome::counts`] is an
    /// integer rendering of it (largest-remainder rounding to `shots`).
    pub distribution: Vec<(u64, f64)>,
}

/// The weighted-enumeration run of [`execute`](crate::execute) in
/// [`RunMode::Weighted`](crate::RunMode::Weighted), on the caller's context.
///
/// Enumerates error patterns in descending probability order (bounded by
/// `options`), simulates each once for its exact outcome distribution, and
/// covers the un-enumerated mass with `~residual^2 * shots` rejection-sampled
/// tail shots (see the module docs for the estimator and its sizing).
/// `shots` also sizes the integer histogram synthesised from the final
/// distribution. The deadline is checked per enumerated pattern and per tail
/// candidate. `mapped` holds the observables already passed through
/// [`ShotEngine::map_observables`]; the engine must support weighted
/// enumeration.
pub(crate) fn run_weighted(
    engine: &ShotEngine,
    ctx: &mut ExecContext,
    shots: usize,
    mapped: &[Observable],
    options: &WeightedOptions,
    deadline: &Deadline,
) -> Result<StochasticOutcome, TimedOut> {
    let bounded = !deadline.is_unbounded();
    let plan = engine
        .weighted_plan()
        .expect("weighted mode is only resolved for engines that support it");

    // Enumeration books under the presample stage: it is the weighted
    // counterpart of resolving shots' error decisions up front.
    let enumerate_started = Instant::now();
    let enumerate_span = trace::span("weighted_enumerate");
    let mut enumerator = PatternEnumerator::new(plan)
        .with_mass_cutoff(options.mass_cutoff)
        .with_max_patterns(options.max_patterns);
    let patterns: Vec<WeightedPattern> = enumerator.by_ref().collect();
    let covered = enumerator.covered_mass();
    let residual = enumerator.residual_mass();
    trace::attr("patterns", patterns.len());
    trace::attr("covered_mass", covered);
    drop(enumerate_span);
    let enumerate_time = enumerate_started.elapsed();
    // Tail candidate presampling also books under the presample stage.
    let mut tail_presample_time = std::time::Duration::ZERO;

    let execute_started = Instant::now();
    let patterns_span = trace::span("weighted_patterns");
    trace::attr("patterns", patterns.len());
    let patterns_dd_before = trace_dd_stats(ctx);
    let mut distribution: FxHashMap<u64, f64> = FxHashMap::default();
    let mut observable_sums = vec![0.0f64; mapped.len()];
    let mut error_events = 0u64;
    let mut nodes_sum = 0u64;
    let mut nodes_peak = 0u64;
    for weighted in &patterns {
        if bounded && deadline.expired() {
            return Err(TimedOut);
        }
        let probability = weighted.probability;
        let mut sink = |outcome: u64, p: f64| {
            *distribution.entry(outcome).or_insert(0.0) += probability * p;
        };
        let (sample, values) =
            engine.run_weighted_pattern_in(ctx, &weighted.pattern, mapped, &mut sink);
        for (sum, value) in observable_sums.iter_mut().zip(&values) {
            *sum += probability * value;
        }
        error_events += sample.error_events;
        nodes_sum += sample.dd_nodes;
        nodes_peak = nodes_peak.max(sample.dd_nodes_peak);
    }
    trace_dd_attrs(ctx, patterns_dd_before);
    drop(patterns_span);
    let simulated = patterns.len() as u64;

    // Residual tail: rejection-sample the conditional distribution over the
    // un-enumerated patterns (and the live shots state-dependent channels
    // force). Sizing is variance-matched rather than proportional: the
    // enumerated mass carries zero sampling noise, so the tail only has to
    // resolve the residual's conditional shape. Its contribution to the
    // final distribution is scaled by `residual`, giving a standard error of
    // `residual / sqrt(n)` per outcome; matching the plain per-shot
    // baseline's `1 / sqrt(shots)` scale yields `n = residual^2 * shots`.
    // Proportional allocation (`residual * shots`) would over-sample —
    // and the residual trajectories are exactly the expensive ones (every
    // state-dependent live replay lands here), so it would also forfeit
    // most of the enumeration speedup.
    let mut tail_shots = 0u64;
    let run_tail = !options.exact_histogram && residual > RESIDUAL_EPSILON && shots > 0;
    if run_tail {
        let tail_span = trace::span("weighted_tail");
        trace::attr("residual_mass", residual);
        let enumerated: HashSet<&ErrorPattern> =
            patterns.iter().map(|weighted| &weighted.pattern).collect();
        let matched = (residual * residual * shots as f64).ceil() as u64;
        let target = matched.max(MIN_TAIL_SHOTS).min(shots as u64).max(1);
        let max_candidates = target.saturating_mul(TAIL_CANDIDATE_FACTOR);
        let salted = engine.seed() ^ TAIL_SALT;
        let mut tail_counts: FxHashMap<u64, u64> = FxHashMap::default();
        let mut tail_sums = vec![0.0f64; mapped.len()];
        let mut accepted = 0u64;
        let mut candidate = 0u64;
        while accepted < target && candidate < max_candidates {
            if bounded && deadline.expired() {
                return Err(TimedOut);
            }
            let k = candidate;
            candidate += 1;
            let presample_started = Instant::now();
            let mut rng = shot_rng(salted, k);
            let presampled = plan.presample(&mut rng);
            tail_presample_time += presample_started.elapsed();
            match presampled {
                Presampled::Pattern(pattern) => {
                    if enumerated.contains(&pattern) {
                        continue;
                    }
                    // The generator is positioned exactly after the covered
                    // exposures — the dedup group-member contract — so the
                    // member samples its outcome like any live shot would.
                    let mut members = vec![(accepted, rng)];
                    for (_, sample, values) in
                        engine.run_group_in(ctx, &pattern, &mut members, mapped)
                    {
                        *tail_counts.entry(sample.outcome).or_insert(0) += 1;
                        for (sum, value) in tail_sums.iter_mut().zip(&values) {
                            *sum += value;
                        }
                        error_events += sample.error_events;
                        nodes_sum += sample.dd_nodes;
                        nodes_peak = nodes_peak.max(sample.dd_nodes_peak);
                    }
                }
                Presampled::Live => {
                    // State-dependent decision ahead: replay the candidate
                    // live from the top with a fresh generator (the stream
                    // prefix matches what the presampler consumed).
                    let mut rng = shot_rng(salted, k);
                    let (sample, values) = engine.run_with_rng_in(ctx, &mut rng, mapped);
                    *tail_counts.entry(sample.outcome).or_insert(0) += 1;
                    for (sum, value) in tail_sums.iter_mut().zip(&values) {
                        *sum += value;
                    }
                    error_events += sample.error_events;
                    nodes_sum += sample.dd_nodes;
                    nodes_peak = nodes_peak.max(sample.dd_nodes_peak);
                }
            }
            accepted += 1;
        }
        if accepted > 0 {
            let scale = residual / accepted as f64;
            for (outcome, count) in tail_counts {
                *distribution.entry(outcome).or_insert(0.0) += scale * count as f64;
            }
            for (sum, tail_sum) in observable_sums.iter_mut().zip(&tail_sums) {
                *sum += scale * tail_sum;
            }
        }
        trace::attr("tail_shots", accepted);
        drop(tail_span);
        tail_shots = accepted;
    }
    let execute_time = execute_started
        .elapsed()
        .saturating_sub(tail_presample_time);
    let presample_time = enumerate_time + tail_presample_time;

    // Normalise over the mass actually accounted for (covered mass plus the
    // residual when the tail ran) so the distribution sums to 1 and the
    // observable sums become proper expectations.
    let aggregate_started = Instant::now();
    let aggregate_span = trace::span("aggregate");
    let accounted = if tail_shots > 0 {
        covered + residual
    } else {
        covered
    };
    let mut entries: Vec<(u64, f64)> = distribution.into_iter().collect();
    entries.sort_unstable_by_key(|&(outcome, _)| outcome);
    let total: f64 = entries.iter().map(|(_, p)| p).sum();
    if total > 0.0 {
        for (_, p) in &mut entries {
            *p /= total;
        }
    }
    if accounted > 0.0 {
        for sum in &mut observable_sums {
            *sum /= accounted;
        }
    }
    let counts = synthesize_counts(&entries, shots);
    drop(aggregate_span);

    let mut outcome = StochasticOutcome {
        counts,
        shots,
        observable_estimates: observable_sums,
        // Error events / node statistics describe the work actually
        // performed (enumerated simulations plus tail shots), not a
        // per-shot average — the whole point is that far fewer
        // simulations ran than `shots`.
        error_events,
        dd_nodes_avg: if simulated + tail_shots > 0 {
            nodes_sum as f64 / (simulated + tail_shots) as f64
        } else {
            0.0
        },
        dd_nodes_peak: nodes_peak,
        wall_time: std::time::Duration::ZERO,
        threads: 1,
        dedup: None,
        weighted: Some(WeightedStats {
            covered_mass: covered,
            enumerated_trajectories: simulated,
            tail_shots,
            distribution: entries,
        }),
        stage_timings: qsdd_telemetry::StageTimings::new(),
    };
    outcome
        .stage_timings
        .record(Stage::Presample, presample_time);
    outcome.stage_timings.record(Stage::Execute, execute_time);
    outcome
        .stage_timings
        .record(Stage::Aggregate, aggregate_started.elapsed());
    Ok(outcome)
}

/// Renders a normalised distribution as an integer histogram of exactly
/// `shots` counts via largest-remainder rounding (ties towards the smaller
/// outcome), so every downstream counts consumer keeps working unchanged.
fn synthesize_counts(distribution: &[(u64, f64)], shots: usize) -> HashMap<u64, u64> {
    let mut counts = HashMap::new();
    if shots == 0 || distribution.is_empty() {
        return counts;
    }
    let shots = shots as u64;
    let mut floor_total = 0u64;
    let mut remainders: Vec<(f64, u64)> = Vec::with_capacity(distribution.len());
    for &(outcome, p) in distribution {
        let exact = p * shots as f64;
        let floor = exact.floor() as u64;
        if floor > 0 {
            counts.insert(outcome, floor);
        }
        floor_total += floor;
        remainders.push((exact - floor as f64, outcome));
    }
    // Distribute the leftover counts to the largest fractional remainders;
    // the outcome index breaks exact ties deterministically.
    let leftover = shots.saturating_sub(floor_total);
    remainders.sort_unstable_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .expect("remainders are finite")
            .then_with(|| a.1.cmp(&b.1))
    });
    for &(_, outcome) in remainders.iter().take(leftover as usize) {
        *counts.entry(outcome).or_insert(0) += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::BackendKind;
    use crate::stochastic::{execute, RunMode, RunPlan};
    use qsdd_circuit::generators::ghz;
    use qsdd_noise::NoiseModel;
    use qsdd_transpile::OptLevel;

    fn engine(qubits: usize, noise: NoiseModel) -> ShotEngine {
        ShotEngine::new(
            &ghz(qubits),
            BackendKind::DecisionDiagram,
            noise,
            11,
            OptLevel::O0,
        )
    }

    #[test]
    fn full_coverage_is_exact_and_needs_no_tail() {
        let engine = engine(4, NoiseModel::noiseless().with_depolarizing(0.01));
        let options = WeightedOptions::default()
            .with_mass_cutoff(1.0)
            .with_max_patterns(u64::MAX);
        let plan = RunPlan::new(1000, 1, RunMode::Weighted(options));
        let outcome = execute(&engine, &mut ExecContext::new(), &plan, &[]).unwrap();
        let stats = outcome.weighted.expect("weighted path must engage");
        assert!((stats.covered_mass - 1.0).abs() < 1e-9);
        assert_eq!(stats.tail_shots, 0);
        let total: u64 = outcome.counts.values().sum();
        assert_eq!(total, 1000);
        let mass: f64 = stats.distribution.iter().map(|(_, p)| p).sum();
        assert!((mass - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_runs_are_bit_identical_across_repeats() {
        let engine = engine(5, NoiseModel::paper_defaults());
        let options = WeightedOptions::default();
        let first = execute(
            &engine,
            &mut ExecContext::new(),
            &RunPlan::new(500, 1, RunMode::Weighted(options.clone())),
            &[],
        )
        .unwrap();
        let second = execute(
            &engine,
            &mut ExecContext::new(),
            &RunPlan::new(500, 8, RunMode::Weighted(options)),
            &[],
        )
        .unwrap();
        assert_eq!(first.counts, second.counts);
        let (a, b) = (first.weighted.unwrap(), second.weighted.unwrap());
        assert_eq!(a.distribution.len(), b.distribution.len());
        for ((oa, pa), (ob, pb)) in a.distribution.iter().zip(&b.distribution) {
            assert_eq!(oa, ob);
            assert_eq!(pa.to_bits(), pb.to_bits());
        }
    }

    #[test]
    fn unsupported_engines_fall_back_to_dedup() {
        use qsdd_circuit::Circuit;
        let mut circuit = Circuit::new(2);
        circuit.h(0);
        circuit.measure(0, 0);
        circuit.x(1);
        circuit.measure(1, 1);
        let engine = ShotEngine::new(
            &circuit,
            BackendKind::DecisionDiagram,
            NoiseModel::paper_defaults(),
            5,
            OptLevel::O0,
        );
        assert!(!engine.supports_weighted());
        let plan = RunPlan::new(200, 1, RunMode::Weighted(WeightedOptions::default()));
        let outcome = execute(&engine, &mut ExecContext::new(), &plan, &[]).unwrap();
        assert!(outcome.weighted.is_none());
        assert_eq!(outcome.counts.values().sum::<u64>(), 200);
    }

    #[test]
    fn synthesize_counts_is_exact_and_deterministic() {
        let distribution = vec![(0u64, 0.5), (3, 0.25), (7, 0.25)];
        let counts = synthesize_counts(&distribution, 101);
        assert_eq!(counts.values().sum::<u64>(), 101);
        // 50.5 / 25.25 / 25.25: the halves tie, the smaller outcome wins
        // the leftover count (0 gets 51).
        assert_eq!(counts[&0], 51);
        assert_eq!(counts[&3], 25);
        assert_eq!(counts[&7], 25);
        assert!(synthesize_counts(&distribution, 0).is_empty());
        assert!(synthesize_counts(&[], 10).is_empty());
    }
}
