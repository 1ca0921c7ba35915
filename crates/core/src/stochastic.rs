//! The Monte-Carlo driver.
//!
//! Stochastic quantum circuit simulation needs many independent runs to form
//! accurate empirical averages (Theorem 1). Because the runs are i.i.d.,
//! they parallelise perfectly. [`execute`] is the one driver every caller
//! goes through: it takes a [`ShotEngine`] (the circuit compiled **once**),
//! the caller's [`ExecContext`] and a [`RunPlan`], deals the job's work
//! items over `threads` workers — the caller's context is worker 0, every
//! further worker gets a context of its own that is rewound, not rebuilt,
//! between shots — and merges the per-worker histograms and observable sums
//! in worker order at the end. Every *shot* derives its own random number
//! generator from the master seed and its index, so results do not depend
//! on the thread count. This is the "concurrency across simulation runs"
//! idea of Section IV-C of the paper, with the per-circuit work amortised
//! across the whole shot loop.
//!
//! The plan's [`RunMode`] picks what a work item is:
//!
//! * [`RunMode::PerShot`] — one shot; worker `w` runs shots `w, w + T, …`.
//! * [`RunMode::Dedup`] — shots are presampled and grouped by error pattern
//!   first (see [`crate::dedup`]); a work item is one trajectory group or
//!   one live shot, dealt round-robin.
//! * [`RunMode::Weighted`] — error patterns are enumerated by probability
//!   and weighted exactly on the caller's context (see [`crate::weighted`]).
//!
//! A mode the engine cannot run falls back once, up front: weighted to
//! dedup, dedup to per-shot.
//!
//! # Determinism
//!
//! * Histograms and error counts are identical for every thread count and
//!   every mode but weighted (shot `i` depends on the master seed and `i`
//!   alone; integer merges are order-independent).
//! * Observable estimates are floating-point sums, so their *low bits*
//!   depend on the summation grouping and therefore on the thread count —
//!   but for a **fixed** thread count they are bit-stable and identical
//!   across per-shot and dedup: partial sums are folded in the per-worker
//!   strided shot order and merged in worker-index order, never in
//!   completion order.
//! * Context reuse never affects any of the above: a reused context
//!   produces bit-identical shots to a fresh one.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qsdd_dd::{IntraPool, TableStats};
use qsdd_telemetry::trace;
use qsdd_telemetry::{Stage, StageTimings};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::deadline::{Deadline, TimedOut};
use crate::dedup::{DedupStats, Work};
use crate::estimator::{Observable, ObservableAccumulator};
use crate::shot_engine::{ExecContext, ShotEngine, ShotSample};
use crate::weighted::WeightedOptions;

/// How [`execute`] runs a job's shots.
#[derive(Clone, Debug, PartialEq)]
pub enum RunMode {
    /// Every shot executes live.
    PerShot,
    /// Shots are presampled and grouped by error pattern; each distinct
    /// trajectory is simulated once (see [`crate::dedup`]). Results are
    /// byte-identical to [`RunMode::PerShot`].
    Dedup,
    /// Error patterns are enumerated in probability order and their exact
    /// outcome distributions weighted, with sampled shots covering only the
    /// residual mass (see [`crate::weighted`]). Serial on the caller's
    /// context, whatever the plan's thread count.
    Weighted(WeightedOptions),
}

impl RunMode {
    /// The mode a job's settings ask for: weighted enumeration when it
    /// carries weighted options, otherwise dedup or per-shot by its `dedup`
    /// flag.
    pub fn requested(weighted: Option<&WeightedOptions>, dedup: bool) -> RunMode {
        match weighted {
            Some(options) => RunMode::Weighted(options.clone()),
            None if dedup => RunMode::Dedup,
            None => RunMode::PerShot,
        }
    }

    /// The mode `engine` can actually run: weighted enumeration falls back
    /// to dedup, and dedup to per-shot, when the compiled program does not
    /// support it. The only place the fallback is decided.
    fn resolve(&self, engine: &ShotEngine) -> RunMode {
        match self {
            RunMode::Weighted(_) if engine.supports_weighted() => self.clone(),
            RunMode::Weighted(_) | RunMode::Dedup if engine.supports_dedup() => RunMode::Dedup,
            _ => RunMode::PerShot,
        }
    }
}

/// One job for [`execute`]: how many shots, on how many workers, in which
/// mode, and within which budget.
#[derive(Clone, Debug)]
pub struct RunPlan {
    /// Number of independent simulation runs (samples). A weighted run with
    /// zero shots still enumerates (the exact-histogram deliverable).
    pub shots: usize,
    /// Number of workers, the caller's context included; `0` uses the
    /// machine's available parallelism. Capped at the shot count.
    pub threads: usize,
    /// What a work item is; see [`RunMode`].
    pub mode: RunMode,
    /// Cooperative budget, checked between work items; on expiry the run
    /// returns [`TimedOut`] with no partial results.
    pub deadline: Deadline,
}

impl RunPlan {
    /// A plan without a deadline.
    pub fn new(shots: usize, threads: usize, mode: RunMode) -> RunPlan {
        RunPlan {
            shots,
            threads,
            mode,
            deadline: Deadline::unbounded(),
        }
    }
}

/// Resolves a requested intra-shot width against the shot-worker count.
///
/// A single shot-worker gets the request as-is; with several workers the
/// request is clamped to the cores left over per worker (`cores /
/// workers`, floored at 1), so inter-shot and intra-shot parallelism
/// together never oversubscribe the machine.
pub fn resolve_intra_threads(requested: usize, workers: usize) -> usize {
    let requested = requested.max(1);
    if requested == 1 || workers <= 1 {
        return requested;
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    requested.min((cores / workers).max(1))
}

/// Builds the shared fork-join pool of a run — every shot-worker installs a
/// clone — or `None` when the resolved width stays serial.
pub fn build_intra_pool(requested: usize, workers: usize) -> Option<Arc<IntraPool>> {
    let resolved = resolve_intra_threads(requested, workers);
    (resolved > 1).then(|| Arc::new(IntraPool::new(resolved)))
}

/// Aggregated result of a stochastic simulation.
#[derive(Clone, Debug)]
pub struct StochasticOutcome {
    /// Histogram of measurement outcomes (basis index -> count).
    pub counts: HashMap<u64, u64>,
    /// Number of runs performed.
    pub shots: usize,
    /// Monte-Carlo estimates of the requested observables (same order as the
    /// request).
    pub observable_estimates: Vec<f64>,
    /// Total number of stochastic error events over all runs.
    pub error_events: u64,
    /// Mean decision-diagram node count of the final per-shot states
    /// (`0.0` on the dense statevector back-end).
    pub dd_nodes_avg: f64,
    /// Peak decision-diagram node count reached at any point in any shot —
    /// the memory high-water mark of the whole simulation (`0` on the dense
    /// back-end).
    pub dd_nodes_peak: u64,
    /// Wall-clock time of the whole simulation.
    pub wall_time: Duration,
    /// Resolved worker-thread count of the run. For `shots > 0` this is the
    /// number of workers actually spawned (capped at the shot count); a
    /// zero-shot run spawns no workers but still reports the resolved
    /// configuration.
    pub threads: usize,
    /// Trajectory-deduplication statistics; `None` when the run executed on
    /// the ordinary per-shot path (deduplication disabled, or the program
    /// does not support it).
    pub dedup: Option<DedupStats>,
    /// Weighted-enumeration statistics; `None` when the run sampled shots
    /// instead of enumerating trajectories (see [`crate::weighted`]). When
    /// set, [`counts`](Self::counts) is an integer rendering of the exact
    /// [`WeightedStats::distribution`](crate::weighted::WeightedStats).
    pub weighted: Option<crate::weighted::WeightedStats>,
    /// Wall-time breakdown by pipeline stage (transpile, compile,
    /// presample, group, execute, aggregate). Always filled — reading a
    /// few `Instant`s per *job* costs nothing measurable — so callers can
    /// render a profile without enabling global telemetry.
    pub stage_timings: StageTimings,
}

impl StochasticOutcome {
    /// An empty outcome (zero shots) reporting the given thread count.
    fn empty(observables: usize, threads: usize, wall_time: Duration) -> Self {
        StochasticOutcome {
            counts: HashMap::new(),
            shots: 0,
            observable_estimates: vec![0.0; observables],
            error_events: 0,
            dd_nodes_avg: 0.0,
            dd_nodes_peak: 0,
            wall_time,
            threads,
            dedup: None,
            weighted: None,
            stage_timings: StageTimings::new(),
        }
    }

    /// Relative frequency of a measurement outcome.
    pub fn frequency(&self, outcome: u64) -> f64 {
        if self.shots == 0 {
            return 0.0;
        }
        *self.counts.get(&outcome).unwrap_or(&0) as f64 / self.shots as f64
    }

    /// The most frequent measurement outcome, if any run was performed.
    ///
    /// Ties are broken deterministically in favour of the smallest outcome
    /// index (hash-map iteration order must not leak into results).
    pub fn most_frequent(&self) -> Option<u64> {
        self.counts
            .iter()
            .max_by_key(|(&outcome, &count)| (count, std::cmp::Reverse(outcome)))
            .map(|(&outcome, _)| outcome)
    }

    /// Average number of error events per run.
    pub fn error_rate(&self) -> f64 {
        if self.shots == 0 {
            return 0.0;
        }
        self.error_events as f64 / self.shots as f64
    }

    /// Fraction of shots served from another shot's trajectory
    /// (`1 - unique_trajectories / shots`); `0.0` on the per-shot path.
    pub fn dedup_hit_rate(&self) -> f64 {
        match &self.dedup {
            Some(stats) if self.shots > 0 => {
                1.0 - stats.unique_trajectories as f64 / self.shots as f64
            }
            _ => 0.0,
        }
    }
}

/// Everything one worker accumulated over its share of the shots.
///
/// The local histogram uses the fast in-process hasher (one entry per shot
/// is the single hottest map operation of the loop); the merged result is
/// converted to the outcome's ordinary map.
struct WorkerPartial {
    counts: crate::fxhash::FxHashMap<u64, u64>,
    observables: ObservableAccumulator,
    errors: u64,
    nodes_sum: u64,
    nodes_peak: u64,
}

impl WorkerPartial {
    fn new(observables: usize) -> Self {
        WorkerPartial {
            counts: crate::fxhash::FxHashMap::default(),
            observables: ObservableAccumulator::new(observables),
            errors: 0,
            nodes_sum: 0,
            nodes_peak: 0,
        }
    }

    fn record(&mut self, sample: &ShotSample, values: &[f64]) {
        *self.counts.entry(sample.outcome).or_insert(0) += 1;
        self.errors += sample.error_events;
        self.nodes_sum += sample.dd_nodes;
        self.nodes_peak = self.nodes_peak.max(sample.dd_nodes_peak);
        if !values.is_empty() {
            self.observables.add(values);
        }
    }
}

/// Where a worker puts the records of its shots.
enum Sink {
    /// Folded as they arrive: the worker's own order already is the strided
    /// shot order (per-shot mode), or only order-independent integer
    /// aggregates are kept (no observables).
    Partial(WorkerPartial),
    /// Kept per shot and folded in the strided shot order afterwards (dedup
    /// mode with observables, whose floating-point sums are order-sensitive).
    Records(Vec<(u64, ShotSample, Vec<f64>)>),
}

impl Sink {
    fn record(&mut self, shot: u64, sample: ShotSample, values: Vec<f64>) {
        match self {
            Sink::Partial(partial) => partial.record(&sample, &values),
            Sink::Records(records) => records.push((shot, sample, values)),
        }
    }
}

/// One worker's work items, in execution order.
type Share = Box<dyn Iterator<Item = Work> + Send>;

/// The read-only side of a per-shot or dedup run, shared by its workers.
struct SampledRun<'a> {
    engine: &'a ShotEngine,
    /// Observables mapped onto the executed circuit.
    observables: &'a [Observable],
    deadline: &'a Deadline,
    dedup: bool,
    keep_records: bool,
    workers: usize,
    /// Set when several workers trace, each on a lane of its own.
    trace: Option<trace::TraceHandle>,
}

impl SampledRun<'_> {
    /// Runs worker `worker`'s share in `ctx`; `None` when the deadline
    /// expired first.
    fn work(&self, worker: usize, ctx: &mut ExecContext, share: Share) -> Option<Sink> {
        let _lane = self
            .trace
            .as_ref()
            .map(|handle| handle.install(worker as u32 + 1));
        // Several workers each open a worker span; a lone worker runs on the
        // caller's lane, where the per-shot loop is its own span.
        let outer = if self.workers > 1 {
            let span = trace::span(if self.dedup {
                "worker_trajectories"
            } else {
                "worker_shots"
            });
            trace::attr("worker", worker);
            Some(span)
        } else if !self.dedup {
            let span = trace::span(if ctx.intra_pool().is_some() {
                "intra_shots"
            } else {
                "shots"
            });
            if let Some(pool) = ctx.intra_pool() {
                trace::attr("intra_width", pool.threads());
            }
            Some(span)
        } else {
            None
        };
        let loop_dd_before = if self.dedup {
            None
        } else {
            trace_dd_stats(ctx)
        };
        let bounded = !self.deadline.is_unbounded();
        let mut sink = if self.keep_records {
            Sink::Records(Vec::new())
        } else {
            Sink::Partial(WorkerPartial::new(self.observables.len()))
        };
        let mut items = 0usize;
        let mut live = 0usize;
        let mut live_span = None;
        for item in share {
            if bounded && self.deadline.expired() {
                // `expired` latched the shared flag, so sibling workers
                // exit on their next check too.
                return None;
            }
            match item {
                Work::Group { pattern, mut shots } => {
                    let _group = trace::span("trajectory_group");
                    trace::attr("members", shots.len());
                    let dd_before = trace_dd_stats(ctx);
                    for (shot, sample, values) in
                        self.engine
                            .run_group_in(ctx, &pattern, &mut shots, self.observables)
                    {
                        sink.record(shot, sample, values);
                    }
                    trace_dd_attrs(ctx, dd_before);
                }
                Work::Live(shot) => {
                    // Dedup deals live shots after every group.
                    if self.dedup && live_span.is_none() {
                        live_span = Some(trace::span("live_shots"));
                    }
                    let (sample, values) =
                        self.engine
                            .run_shot_with_observables_in(ctx, shot, self.observables);
                    sink.record(shot, sample, values);
                    live += 1;
                }
            }
            items += 1;
        }
        if live_span.is_some() {
            trace::attr("shots", live);
        }
        drop(live_span);
        if outer.is_some() {
            trace::attr(if self.dedup { "items" } else { "shots" }, items);
            trace_dd_attrs(ctx, loop_dd_before);
        }
        Some(sink)
    }
}

/// Folds the workers' sinks into per-worker partials in the strided shot
/// order — worker `w` of `W` owns shots `w, w + W, …`, the order per-shot
/// mode records in directly — so observable sums are bit-identical across
/// modes for a fixed worker count.
fn fold_sinks(sinks: Vec<Sink>, shots: usize, observables: usize) -> Vec<WorkerPartial> {
    let workers = sinks.len();
    let mut partials = Vec::with_capacity(workers);
    let mut records: Vec<Option<(ShotSample, Vec<f64>)>> = Vec::new();
    for sink in sinks {
        match sink {
            Sink::Partial(partial) => partials.push(partial),
            Sink::Records(list) => {
                records.resize_with(shots, || None);
                for (shot, sample, values) in list {
                    records[shot as usize] = Some((sample, values));
                }
            }
        }
    }
    if records.is_empty() {
        return partials;
    }
    (0..workers)
        .map(|worker| {
            let mut partial = WorkerPartial::new(observables);
            for record in records.iter().skip(worker).step_by(workers) {
                let (sample, values) = record
                    .as_ref()
                    .expect("every shot is covered by exactly one work item");
                partial.record(sample, values);
            }
            partial
        })
        .collect()
}

/// Merges per-worker partials **in worker-index order** (bit-stable
/// floating-point sums for a fixed worker count) into an outcome.
fn merge_partials(
    partials: Vec<WorkerPartial>,
    shots: usize,
    observables: usize,
    threads: usize,
) -> StochasticOutcome {
    let mut outcome = StochasticOutcome::empty(observables, threads, Duration::ZERO);
    let mut merged = ObservableAccumulator::new(observables);
    let mut nodes_sum = 0u64;
    for partial in partials {
        for (outcome_index, count) in partial.counts {
            *outcome.counts.entry(outcome_index).or_insert(0) += count;
        }
        merged.merge(&partial.observables);
        outcome.error_events += partial.errors;
        nodes_sum += partial.nodes_sum;
        outcome.dd_nodes_peak = outcome.dd_nodes_peak.max(partial.nodes_peak);
    }
    outcome.shots = shots;
    outcome.observable_estimates = merged.means();
    outcome.dd_nodes_avg = nodes_sum as f64 / shots as f64;
    outcome
}

/// Runs a per-shot or dedup job of `plan.shots > 0` shots on
/// `threads.min(shots)` workers: presamples and groups the shots (dedup),
/// deals the work items, executes them with the caller's context as worker
/// 0 and folds the records. Also returns the table traffic of the spawned
/// workers' contexts.
fn run_sampled(
    engine: &ShotEngine,
    ctx: &mut ExecContext,
    plan: &RunPlan,
    dedup: bool,
    threads: usize,
    observables: &[Observable],
) -> Result<(StochasticOutcome, TableStats), TimedOut> {
    let shots = plan.shots;
    let workers = threads.min(shots);
    let mut timings = StageTimings::new();
    let mut dedup_stats = None;
    let shares: Vec<Share> = if dedup {
        let presample_started = Instant::now();
        let presample_span = trace::span("presample");
        let (work, live_shots) = engine
            .plan_shots(shots, workers)
            .expect("dedup mode is only resolved for engines that support it");
        trace::attr("shots", shots);
        trace::attr("groups", work.len() - live_shots as usize);
        trace::attr("live_shots", live_shots);
        drop(presample_span);
        timings.record(Stage::Presample, presample_started.elapsed());
        dedup_stats = Some(DedupStats {
            unique_trajectories: work.len() as u64,
            live_shots,
        });
        // Items are dealt round-robin; the assignment does not influence any
        // result (every record is a function of the program and the shot
        // index alone).
        let mut dealt: Vec<Vec<Work>> = (0..workers).map(|_| Vec::new()).collect();
        for (item, worker) in work.into_iter().zip((0..workers).cycle()) {
            dealt[worker].push(item);
        }
        dealt
            .into_iter()
            .map(|items| Box::new(items.into_iter()) as Share)
            .collect()
    } else {
        (0..workers)
            .map(|worker| {
                let strided = (worker as u64..shots as u64).step_by(workers);
                Box::new(strided.map(Work::Live)) as Share
            })
            .collect()
    };

    let run = SampledRun {
        engine,
        observables,
        deadline: &plan.deadline,
        dedup,
        keep_records: dedup && !observables.is_empty(),
        workers,
        trace: if workers > 1 {
            trace::propagate()
        } else {
            None
        },
    };
    let intra = ctx.intra_pool().cloned();
    let mut shares = shares.into_iter();
    let own_share = shares.next().expect("a run has at least one worker");
    let mut own = None;
    let mut spawned: Vec<Option<(Sink, TableStats)>> = (1..workers).map(|_| None).collect();
    let execute_started = Instant::now();
    std::thread::scope(|scope| {
        for ((worker, share), slot) in (1..).zip(shares).zip(&mut spawned) {
            let run = &run;
            let intra = intra.clone();
            scope.spawn(move || {
                let mut ctx = ExecContext::new();
                ctx.set_intra_pool(intra);
                *slot = run
                    .work(worker, &mut ctx, share)
                    .map(|sink| (sink, ctx.dd_table_stats()));
            });
        }
        own = run.work(0, ctx, own_share);
    });
    timings.record(Stage::Execute, execute_started.elapsed());
    // A timed-out run exposes no partial aggregates.
    let mut sinks = vec![own.ok_or(TimedOut)?];
    let mut spawned_tables = TableStats::default();
    for slot in spawned {
        let (sink, tables) = slot.ok_or(TimedOut)?;
        sinks.push(sink);
        spawned_tables = spawned_tables + tables;
    }

    let aggregate_started = Instant::now();
    let aggregate_span = trace::span("aggregate");
    let partials = fold_sinks(sinks, shots, observables.len());
    let mut outcome = merge_partials(partials, shots, observables.len(), workers);
    drop(aggregate_span);
    timings.record(Stage::Aggregate, aggregate_started.elapsed());
    outcome.stage_timings = timings;
    outcome.dedup = dedup_stats;
    Ok((outcome, spawned_tables))
}

/// Runs `plan.shots` stochastic shots of `engine`'s circuit, estimating the
/// given observables along the way — the one Monte-Carlo driver (see the
/// module docs).
///
/// The plan's mode falls back once, up front, to what the engine supports
/// (weighted → dedup → per-shot). Per-shot and dedup runs use
/// `plan.threads.min(plan.shots)` workers: `ctx` is worker 0 on the calling
/// thread, and only further workers spawn threads, each with a context of
/// its own. Weighted runs are serial on `ctx`. The intra-shot pool is the
/// engine's request when it asks for more than one thread (clamped against
/// the worker count and installed into `ctx`), and otherwise whatever pool
/// `ctx` already carries. Observables are remapped through the engine's
/// output layout once, and outcomes arrive in the original circuit's qubit
/// order.
///
/// Returns [`TimedOut`] — no partial results — when `plan.deadline` expires
/// before the last work item; `ctx` stays reusable either way. A sampled
/// run of zero shots returns an empty outcome reporting the resolved thread
/// count; a weighted run of zero shots still enumerates.
pub fn execute(
    engine: &ShotEngine,
    ctx: &mut ExecContext,
    plan: &RunPlan,
    observables: &[Observable],
) -> Result<StochasticOutcome, TimedOut> {
    let started = Instant::now();
    let mode = plan.mode.resolve(engine);
    let weighted = matches!(mode, RunMode::Weighted(_));
    let threads = if weighted {
        1
    } else if plan.threads > 0 {
        plan.threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    if plan.shots == 0 && !weighted {
        return Ok(StochasticOutcome::empty(
            observables.len(),
            threads,
            started.elapsed(),
        ));
    }
    if engine.intra_threads() > 1 {
        let workers = threads.min(plan.shots.max(1));
        ctx.set_intra_pool(build_intra_pool(engine.intra_threads(), workers));
    }
    let dd_before = ctx.dd_table_stats();
    let mapped = engine.map_observables(observables);
    let (mut outcome, spawned_tables) = match &mode {
        RunMode::Weighted(options) => (
            crate::weighted::run_weighted(
                engine,
                ctx,
                plan.shots,
                &mapped,
                options,
                &plan.deadline,
            )?,
            TableStats::default(),
        ),
        mode => run_sampled(engine, ctx, plan, *mode == RunMode::Dedup, threads, &mapped)?,
    };
    outcome.stage_timings.merge(&engine.stage_timings());
    if ctx.intra_pool().is_some() {
        let execute_time = outcome.stage_timings.get(Stage::Execute);
        outcome
            .stage_timings
            .record(Stage::IntraExecute, execute_time);
    }
    outcome.wall_time = started.elapsed();
    let dd_delta = ctx.dd_table_stats().since(&dd_before) + spawned_tables;
    publish_job_metrics(&outcome, dd_delta, ctx);
    Ok(outcome)
}

/// A whole job on the caller's context and thread, without a deadline:
/// [`execute`] on one worker, in dedup mode when `dedup` is set and
/// per-shot mode otherwise.
pub fn run_engine_in(
    engine: &ShotEngine,
    ctx: &mut ExecContext,
    shots: usize,
    observables: &[Observable],
    dedup: bool,
) -> StochasticOutcome {
    execute(
        engine,
        ctx,
        &RunPlan::new(shots, 1, RunMode::requested(None, dedup)),
        observables,
    )
    .expect("an unbounded deadline never expires")
}

/// A weighted-enumeration job on the caller's context and thread, without a
/// deadline: [`execute`] in [`RunMode::Weighted`].
pub fn run_engine_weighted_in(
    engine: &ShotEngine,
    ctx: &mut ExecContext,
    shots: usize,
    observables: &[Observable],
    options: &WeightedOptions,
) -> StochasticOutcome {
    execute(
        engine,
        ctx,
        &RunPlan::new(shots, 1, RunMode::Weighted(options.clone())),
        observables,
    )
    .expect("an unbounded deadline never expires")
}

/// Snapshot of the context's decision-diagram table counters, taken only
/// when the calling thread is actively traced (the stats walk both
/// packages, so skip the work for un-traced runs).
pub(crate) fn trace_dd_stats(ctx: &ExecContext) -> Option<TableStats> {
    trace::active().then(|| ctx.dd_table_stats())
}

/// Attaches the decision-diagram table-traffic delta since `before` to
/// the innermost open span (the per-group / per-loop node and table-hit
/// attributes the trace vocabulary promises).
pub(crate) fn trace_dd_attrs(ctx: &ExecContext, before: Option<TableStats>) {
    if let Some(before) = before {
        let delta = ctx.dd_table_stats().since(&before);
        trace::attr("dd_compute_hits", delta.compute_hits);
        trace::attr("dd_compute_misses", delta.compute_misses);
        trace::attr(
            "dd_unique_hits",
            delta.vec_unique_hits + delta.mat_unique_hits,
        );
        trace::attr(
            "dd_unique_misses",
            delta.vec_unique_misses + delta.mat_unique_misses,
        );
    }
}

/// Publishes a finished job's stage timings and decision-diagram table
/// traffic to the global telemetry registry. A no-op while telemetry is
/// disabled — one relaxed atomic load — so the per-job cost off the
/// serving path is negligible.
fn publish_job_metrics(outcome: &StochasticOutcome, dd_delta: TableStats, ctx: &ExecContext) {
    if !qsdd_telemetry::enabled() {
        return;
    }
    outcome.stage_timings.publish();
    let registry = qsdd_telemetry::global();
    let counters: [(&str, &str, u64); 9] = [
        (
            "qsdd_dd_vec_unique_hits_total",
            "Vector unique-table lookups that found an existing node",
            dd_delta.vec_unique_hits,
        ),
        (
            "qsdd_dd_vec_unique_misses_total",
            "Vector unique-table lookups that created a new node",
            dd_delta.vec_unique_misses,
        ),
        (
            "qsdd_dd_mat_unique_hits_total",
            "Matrix unique-table lookups that found an existing node",
            dd_delta.mat_unique_hits,
        ),
        (
            "qsdd_dd_mat_unique_misses_total",
            "Matrix unique-table lookups that created a new node",
            dd_delta.mat_unique_misses,
        ),
        (
            "qsdd_dd_compute_hits_total",
            "Compute-table lookups that hit a cached result",
            dd_delta.compute_hits,
        ),
        (
            "qsdd_dd_compute_misses_total",
            "Compute-table lookups that missed and computed",
            dd_delta.compute_misses,
        ),
        (
            "qsdd_dd_stripe_contention_total",
            "Striped-table lock acquisitions that found the stripe contended",
            dd_delta.stripe_contention,
        ),
        (
            "qsdd_jobs_shots_total",
            "Stochastic shots aggregated into finished jobs",
            outcome.shots as u64,
        ),
        (
            "qsdd_jobs_error_events_total",
            "Stochastic error events over all finished jobs",
            outcome.error_events,
        ),
    ];
    for (name, help, value) in counters {
        if value > 0 {
            registry.counter(name, help).add(value);
        }
    }
    if outcome.dd_nodes_peak > 0 {
        registry
            .gauge(
                "qsdd_dd_peak_nodes",
                "Highest decision-diagram node count any job reached",
            )
            .set_max(outcome.dd_nodes_peak as i64);
    }
    for (table, lens) in ctx.dd_stripe_occupancy() {
        for (stripe, len) in lens.into_iter().enumerate() {
            let stripe = stripe.to_string();
            registry
                .gauge_with(
                    "qsdd_dd_stripe_occupancy",
                    "Entries per lock stripe of the striped decision-diagram tables",
                    &[("table", table), ("stripe", &stripe)],
                )
                .set(len as i64);
        }
    }
    if let Some(stats) = &outcome.dedup {
        registry
            .counter(
                "qsdd_dedup_unique_trajectories_total",
                "Distinct trajectories actually simulated by deduplicated jobs",
            )
            .add(stats.unique_trajectories);
        registry
            .counter(
                "qsdd_dedup_live_shots_total",
                "Shots that fell back to live execution in deduplicated jobs",
            )
            .add(stats.live_shots);
    }
}

/// Derives the per-shot random number generator from the master seed.
///
/// This derivation is the determinism contract shared by every shot-executing
/// path in the workspace ([`ShotEngine`], and through it [`execute`] and the
/// batch scheduler): shot `i` under seed `s` always sees the same
/// generator, regardless of threads or scheduling.
pub(crate) fn shot_rng(seed: u64, shot: u64) -> StdRng {
    // SplitMix64-style mixing keeps neighbouring shot seeds uncorrelated.
    let mut z = seed ^ shot.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BackendKind, OptLevel};
    use qsdd_circuit::generators::ghz;
    use qsdd_circuit::Circuit;
    use qsdd_noise::NoiseModel;

    /// The seed the simulator facade defaults to.
    const SEED: u64 = 0xD1CE_5EED;

    fn engine(circuit: &Circuit, kind: BackendKind, noise: NoiseModel, seed: u64) -> ShotEngine {
        ShotEngine::new(circuit, kind, noise, seed, OptLevel::O0)
    }

    fn dd_engine(circuit: &Circuit, noise: NoiseModel, seed: u64) -> ShotEngine {
        engine(circuit, BackendKind::DecisionDiagram, noise, seed)
    }

    #[test]
    fn histogram_counts_sum_to_shots() {
        let engine = dd_engine(&ghz(6), NoiseModel::paper_defaults(), SEED);
        let plan = RunPlan::new(500, 4, RunMode::Dedup);
        let outcome = execute(&engine, &mut ExecContext::new(), &plan, &[]).unwrap();
        let total: u64 = outcome.counts.values().sum();
        assert_eq!(total, 500);
        assert_eq!(outcome.shots, 500);
        assert_eq!(outcome.threads, 4);
        assert!(outcome.dd_nodes_avg > 0.0);
        assert!(outcome.dd_nodes_peak > 0);
    }

    #[test]
    fn results_are_independent_of_thread_count() {
        let engine = dd_engine(&ghz(4), NoiseModel::paper_defaults(), 7);
        let run = |threads| {
            let plan = RunPlan::new(200, threads, RunMode::Dedup);
            execute(&engine, &mut ExecContext::new(), &plan, &[]).unwrap()
        };
        let single = run(1);
        let multi = run(4);
        assert_eq!(single.counts, multi.counts);
        assert_eq!(single.dd_nodes_peak, multi.dd_nodes_peak);
        assert!((single.dd_nodes_avg - multi.dd_nodes_avg).abs() < 1e-12);
    }

    #[test]
    fn observable_sums_are_bit_stable_for_a_fixed_thread_count() {
        let engine = dd_engine(&ghz(4), NoiseModel::paper_defaults(), 3);
        let plan = RunPlan::new(240, 3, RunMode::Dedup);
        let observables = vec![
            Observable::BasisProbability(0),
            Observable::QubitExcitation(2),
        ];
        let first = execute(&engine, &mut ExecContext::new(), &plan, &observables).unwrap();
        let second = execute(&engine, &mut ExecContext::new(), &plan, &observables).unwrap();
        for (a, b) in first
            .observable_estimates
            .iter()
            .zip(&second.observable_estimates)
        {
            assert_eq!(a.to_bits(), b.to_bits(), "merge order leaked into sums");
        }
    }

    #[test]
    fn noiseless_ghz_splits_between_the_two_peaks() {
        let engine = dd_engine(&ghz(5), NoiseModel::noiseless(), SEED);
        let plan = RunPlan::new(400, 2, RunMode::Dedup);
        let outcome = execute(&engine, &mut ExecContext::new(), &plan, &[]).unwrap();
        let all_ones = (1u64 << 5) - 1;
        let p0 = outcome.frequency(0);
        let p1 = outcome.frequency(all_ones);
        assert!(
            (p0 + p1 - 1.0).abs() < 1e-12,
            "only the two GHZ outcomes occur"
        );
        assert!(p0 > 0.35 && p1 > 0.35);
        assert_eq!(outcome.error_events, 0);
    }

    #[test]
    fn observable_estimates_track_exact_values() {
        let engine = dd_engine(&ghz(4), NoiseModel::noiseless(), SEED);
        let plan = RunPlan::new(300, 3, RunMode::Dedup);
        let observables = vec![
            Observable::BasisProbability(0),
            Observable::QubitExcitation(1),
        ];
        let outcome = execute(&engine, &mut ExecContext::new(), &plan, &observables).unwrap();
        assert_eq!(outcome.observable_estimates.len(), 2);
        assert!((outcome.observable_estimates[0] - 0.5).abs() < 1e-9);
        assert!((outcome.observable_estimates[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn dense_and_dd_backends_agree_statistically() {
        let circuit = ghz(4);
        let plan = RunPlan::new(600, 2, RunMode::Dedup);
        let run = |kind| {
            let engine = engine(&circuit, kind, NoiseModel::paper_defaults(), 21);
            execute(&engine, &mut ExecContext::new(), &plan, &[]).unwrap()
        };
        let dd = run(BackendKind::DecisionDiagram);
        let dense = run(BackendKind::Statevector);
        let all_ones = (1u64 << 4) - 1;
        for outcome in [0, all_ones] {
            let diff = (dd.frequency(outcome) - dense.frequency(outcome)).abs();
            assert!(
                diff < 0.1,
                "frequency mismatch {diff} for outcome {outcome}"
            );
        }
        assert_eq!(dense.dd_nodes_peak, 0);
        assert_eq!(dense.dd_nodes_avg, 0.0);
    }

    #[test]
    fn stage_timings_cover_the_pipeline_on_every_runner() {
        // Several workers: compile + execute are always timed.
        let engine = dd_engine(&ghz(4), NoiseModel::paper_defaults(), 5);
        let plan = RunPlan::new(64, 2, RunMode::Dedup);
        let outcome = execute(&engine, &mut ExecContext::new(), &plan, &[]).unwrap();
        assert!(outcome.stage_timings.get(Stage::Execute) > Duration::ZERO);
        assert!(outcome.stage_timings.total() >= outcome.stage_timings.get(Stage::Execute));

        // In-context runner (the server path): the engine's compile time is
        // merged in, the dedup driver fills presample, and the
        // instrumentation never alters results.
        let engine = ShotEngine::new(
            &ghz(4),
            BackendKind::DecisionDiagram,
            NoiseModel::noiseless().with_depolarizing(0.05),
            9,
            OptLevel::O1,
        );
        let mut ctx = engine.new_context();
        let in_ctx = run_engine_in(&engine, &mut ctx, 64, &[], true);
        assert!(in_ctx.stage_timings.get(Stage::Compile) > Duration::ZERO);
        assert!(in_ctx.stage_timings.get(Stage::Execute) > Duration::ZERO);
        if in_ctx.dedup.is_some() {
            assert!(in_ctx.stage_timings.get(Stage::Presample) > Duration::ZERO);
        }
        let plan = RunPlan::new(64, 1, RunMode::Dedup);
        let reference = execute(&engine, &mut engine.new_context(), &plan, &[]).unwrap();
        assert_eq!(in_ctx.counts, reference.counts);
        assert_eq!(in_ctx.error_events, reference.error_events);
    }

    #[test]
    fn most_frequent_breaks_ties_by_smallest_outcome() {
        let outcome = StochasticOutcome {
            counts: HashMap::from([(7u64, 5u64), (2, 5), (4, 5), (9, 3)]),
            shots: 18,
            observable_estimates: Vec::new(),
            error_events: 0,
            dd_nodes_avg: 0.0,
            dd_nodes_peak: 0,
            wall_time: Duration::ZERO,
            threads: 1,
            dedup: None,
            weighted: None,
            stage_timings: StageTimings::new(),
        };
        // All of 2, 4, 7 are tied at 5 counts: the smallest index wins,
        // independent of hash-map iteration order.
        assert_eq!(outcome.most_frequent(), Some(2));
        let empty = StochasticOutcome::empty(0, 0, Duration::ZERO);
        assert_eq!(empty.most_frequent(), None);
    }

    #[test]
    fn zero_shots_yield_an_empty_outcome() {
        let engine = dd_engine(&ghz(3), NoiseModel::paper_defaults(), SEED);
        let observables = [Observable::QubitExcitation(0)];
        let plan = RunPlan::new(0, 4, RunMode::Dedup);
        let outcome = execute(&engine, &mut ExecContext::new(), &plan, &observables).unwrap();
        assert_eq!(outcome.shots, 0);
        assert!(outcome.counts.is_empty());
        // Even with no workers spawned the resolved thread count is reported.
        assert_eq!(outcome.threads, 4);
        assert_eq!(outcome.observable_estimates, vec![0.0]);
        assert_eq!(outcome.most_frequent(), None);
        assert_eq!(outcome.error_rate(), 0.0);
        assert_eq!(outcome.frequency(0), 0.0);
        assert_eq!(outcome.dd_nodes_peak, 0);
    }

    #[test]
    fn zero_shot_exact_histogram_runs_still_enumerate() {
        // The server accepts `shots: 0` weighted jobs in exact-histogram
        // mode: the deliverable is the enumerated distribution, not shots.
        let engine = dd_engine(&ghz(5), NoiseModel::paper_defaults(), SEED);
        let options = WeightedOptions::default().with_exact_histogram(true);
        for threads in [1, 2] {
            let plan = RunPlan::new(0, threads, RunMode::Weighted(options.clone()));
            let outcome = execute(&engine, &mut ExecContext::new(), &plan, &[]).unwrap();
            let stats = outcome
                .weighted
                .expect("GHZ-5 supports weighted enumeration");
            assert!(!stats.distribution.is_empty(), "threads={threads}");
            let mass: f64 = stats.distribution.iter().map(|(_, p)| p).sum();
            assert!((mass - 1.0).abs() < 1e-12, "threads={threads}: {mass}");
            assert!(stats.covered_mass > 0.0);
            assert!(stats.enumerated_trajectories > 0);
            assert_eq!(stats.tail_shots, 0);
            assert_eq!(outcome.threads, 1);
        }
    }

    #[test]
    fn run_engine_in_matches_the_single_threaded_runners_bit_for_bit() {
        // Paper noise mixes pattern groups with live (damping) shots, which
        // exercises both arms of the dedup driver.
        let engine = dd_engine(&ghz(6), NoiseModel::paper_defaults(), 17);
        let observables = vec![
            Observable::BasisProbability(0),
            Observable::QubitExcitation(2),
        ];
        let mut ctx = engine.new_context();
        for dedup in [true, false] {
            let serial = run_engine_in(&engine, &mut ctx, 300, &observables, dedup);
            let mode = if dedup {
                RunMode::Dedup
            } else {
                RunMode::PerShot
            };
            let plan = RunPlan::new(300, 1, mode);
            let reference =
                execute(&engine, &mut engine.new_context(), &plan, &observables).unwrap();
            assert_eq!(serial.counts, reference.counts, "dedup={dedup}");
            assert_eq!(serial.error_events, reference.error_events);
            assert_eq!(serial.dd_nodes_peak, reference.dd_nodes_peak);
            assert_eq!(
                serial.dd_nodes_avg.to_bits(),
                reference.dd_nodes_avg.to_bits()
            );
            assert_eq!(serial.dedup, reference.dedup, "dedup={dedup}");
            assert_eq!(serial.threads, 1);
            for (a, b) in serial
                .observable_estimates
                .iter()
                .zip(&reference.observable_estimates)
            {
                assert_eq!(a.to_bits(), b.to_bits(), "observable sums drifted");
            }
        }
    }

    #[test]
    fn run_engine_in_reuses_one_context_across_jobs() {
        // The same context serves jobs of both backend kinds back to back —
        // the server worker-pool pattern — without affecting results.
        let mut ctx = ExecContext::new();
        for kind in [BackendKind::DecisionDiagram, BackendKind::Statevector] {
            let engine = engine(&ghz(4), kind, NoiseModel::paper_defaults(), 3);
            let warm = run_engine_in(&engine, &mut ctx, 120, &[], true);
            let fresh = run_engine_in(&engine, &mut engine.new_context(), 120, &[], true);
            assert_eq!(warm.counts, fresh.counts);
            assert_eq!(warm.dedup, fresh.dedup);
        }
    }

    #[test]
    fn run_engine_in_handles_zero_shots() {
        let engine = dd_engine(&ghz(3), NoiseModel::noiseless(), 1);
        let outcome = run_engine_in(&engine, &mut engine.new_context(), 0, &[], true);
        assert_eq!(outcome.shots, 0);
        assert!(outcome.counts.is_empty());
        assert_eq!(outcome.threads, 1);
    }

    #[test]
    fn noise_produces_error_events() {
        let engine = dd_engine(&ghz(8), NoiseModel::new(0.05, 0.05, 0.05), SEED);
        let plan = RunPlan::new(200, 2, RunMode::Dedup);
        let outcome = execute(&engine, &mut ExecContext::new(), &plan, &[]).unwrap();
        assert!(outcome.error_events > 0);
        assert!(outcome.error_rate() > 0.0);
    }
}
