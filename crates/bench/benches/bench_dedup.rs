//! Criterion benchmark for trajectory deduplication: the per-shot compiled
//! pipeline of the compile/execute refactor (**the baseline this PR starts
//! from**) versus the presample → group → replay path that simulates each
//! distinct error pattern once.
//!
//! Besides the usual per-benchmark timings, the run prints explicit
//! `speedup` lines computed over interleaved repetitions of the identical
//! workload (`dedup ≥ 5×` on GHZ-16 at depolarizing `p = 0.001` with 10k
//! shots is the acceptance bar), plus a byte-level outcome cross-check:
//! deduplicated histograms, error counts and node peaks must equal the
//! per-shot path exactly, for every `(seed, thread-count)` pair tried.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use qsdd_circuit::generators::ghz;
use qsdd_core::{
    execute, BackendKind, ExecContext, OptLevel, RunMode, RunPlan, ShotEngine, StochasticOutcome,
};
use qsdd_noise::NoiseModel;

const BENCH_SHOTS: usize = 2_000;
const REPORT_SHOTS: usize = 10_000;
const REPORT_REPS: usize = 7;

/// Runs `shots` shots of `engine` on `threads` workers in `mode`.
fn run(engine: &ShotEngine, shots: usize, threads: usize, mode: RunMode) -> StochasticOutcome {
    let plan = RunPlan::new(shots, threads, mode);
    execute(engine, &mut ExecContext::new(), &plan, &[]).expect("no deadline")
}

/// The workloads of the speedup report: the acceptance workload first.
fn workloads() -> Vec<(&'static str, ShotEngine)> {
    vec![
        (
            "ghz16_depol_1e-3",
            ShotEngine::new(
                &ghz(16),
                BackendKind::DecisionDiagram,
                NoiseModel::noiseless().with_depolarizing(0.001),
                7,
                OptLevel::O0,
            ),
        ),
        (
            "ghz16_paper_noise",
            ShotEngine::new(
                &ghz(16),
                BackendKind::DecisionDiagram,
                NoiseModel::paper_defaults(),
                7,
                OptLevel::O0,
            ),
        ),
    ]
}

fn bench_dedup(c: &mut Criterion) {
    let mut group = c.benchmark_group("dedup");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    for (name, engine) in &workloads() {
        group.bench_with_input(BenchmarkId::new("per_shot", name), engine, |b, engine| {
            b.iter(|| black_box(run(engine, BENCH_SHOTS, 1, RunMode::PerShot).error_events));
        });
        group.bench_with_input(BenchmarkId::new("dedup", name), engine, |b, engine| {
            b.iter(|| black_box(run(engine, BENCH_SHOTS, 1, RunMode::Dedup).error_events));
        });
    }
    group.finish();

    // Explicit speedup report over the acceptance workload: interleaved
    // repetitions, minimum per path (the noise-robust estimator), plus the
    // byte-level cross-check over every (seed, thread-count) pair.
    println!("## dedup speedup ({REPORT_SHOTS} shots, min of {REPORT_REPS} interleaved reps)");
    let mut mismatches = 0u64;
    for (name, engine) in &workloads() {
        let mut best_dedup = f64::INFINITY;
        let mut best_per_shot = f64::INFINITY;
        let mut stats = None;
        for _ in 0..REPORT_REPS {
            let started = Instant::now();
            let dedup = run(engine, REPORT_SHOTS, 1, RunMode::Dedup);
            best_dedup = best_dedup.min(started.elapsed().as_secs_f64());
            let started = Instant::now();
            let per_shot = run(engine, REPORT_SHOTS, 1, RunMode::PerShot);
            best_per_shot = best_per_shot.min(started.elapsed().as_secs_f64());
            if dedup.counts != per_shot.counts
                || dedup.error_events != per_shot.error_events
                || dedup.dd_nodes_peak != per_shot.dd_nodes_peak
            {
                mismatches += 1;
            }
            stats = dedup.dedup;
        }
        let stats = stats.expect("both workloads support deduplication");
        println!(
            "speedup/{name}: per-shot {:.3} ms, dedup {:.3} ms, speedup {:.2}x \
             ({} unique trajectories, {} live)",
            best_per_shot * 1e3,
            best_dedup * 1e3,
            best_per_shot / best_dedup,
            stats.unique_trajectories,
            stats.live_shots,
        );
    }

    // Byte-identity across seeds and thread counts (smaller shot count so
    // the sweep stays quick; the equality requirement is exact, not
    // statistical).
    for (name, engine_template) in &workloads() {
        for seed in [7u64, 2021, 0xDEAD] {
            let engine = ShotEngine::new(
                engine_template.circuit(),
                BackendKind::DecisionDiagram,
                *engine_template.noise(),
                seed,
                OptLevel::O0,
            );
            for threads in [1usize, 2, 4] {
                let dedup = run(&engine, 2_000, threads, RunMode::Dedup);
                let per_shot = run(&engine, 2_000, threads, RunMode::PerShot);
                if dedup.counts != per_shot.counts
                    || dedup.error_events != per_shot.error_events
                    || dedup.dd_nodes_peak != per_shot.dd_nodes_peak
                {
                    mismatches += 1;
                    eprintln!("MISMATCH: {name} seed {seed} threads {threads}");
                }
            }
        }
    }
    println!("outcome cross-check: {mismatches} mismatches");
    assert_eq!(mismatches, 0, "dedup must be byte-identical to per-shot");
}

criterion_group!(benches, bench_dedup);
criterion_main!(benches);
