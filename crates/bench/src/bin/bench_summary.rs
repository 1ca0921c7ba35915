//! `bench_summary` — machine-readable summary of the perf-trajectory
//! benchmarks.
//!
//! Runs the trajectory-deduplication and context-reuse workloads directly
//! (no criterion harness) plus the HTTP-server load scenario, and writes
//! `BENCH_<SCHEMA_VERSION + 3>.json` (so schema 7 writes `BENCH_10.json`
//! — the name tracks the schema instead of being pinned by hand): one
//! entry per benchmark with the optimized and naive
//! mean per-shot cost in nanoseconds and the resulting speedup, a
//! `weighted` section racing the weighted trajectory-enumeration driver
//! against both the dedup and per-shot paths on GHZ-16 under the paper's
//! mixed noise (the case where dedup alone only reached ~1.3x), an
//! `intra` section racing intra-shot fork-join execution against serial
//! on a 22-qubit dense workload and a deep decision-diagram workload
//! (interleaved min-of-reps, outcomes cross-checked bit for bit), a
//! `server` section with the service's throughput and cold-vs-cache-hit
//! latency, a `warm_restart` section comparing a cold boot's simulation
//! cost against store-warmed GETs after a restart (byte-identity is
//! hard-gated), a `metrics_overhead` row measuring what the disabled-mode
//! telemetry hooks cost the context-reuse hot loop, and a
//! `tracing_overhead` row doing the same for the span hooks with the
//! trace gate off (per-shot `trace::span` + `trace::attr` calls — far
//! denser than the real per-group instrumentation — must also stay
//! within 2 %). The JSON is parsed
//! back before the process exits, so a malformed writer fails loudly (CI
//! runs the binary in `--test-mode` with tiny shot counts on every push;
//! test mode also hard-gates the weighted row — it must beat dedup and be
//! at least 3x over per-shot — and the intra row, with a core-count-aware
//! dense-speedup floor: ≥ 2.0x on 8+ cores, ≥ 1.3x on 4–7, correctness
//! only below that).
//!
//! ```text
//! bench_summary [--test-mode] [--out <path>]
//! ```
//!
//! * `--test-mode` shrinks shots and repetitions so the run finishes in
//!   seconds — the timings are then meaningless (except the overhead rows,
//!   which keep enough shots to stay meaningful and are asserted ≤ 2 %),
//!   but the whole pipeline (workloads, cross-checks, server round trips,
//!   JSON writer) is exercised.
//! * `--out` overrides the output path (default derived from the schema
//!   version, `BENCH_10.json` today, i.e. the repo root when invoked from
//!   there).

use std::process::ExitCode;
use std::time::Instant;

use qsdd_batch::json::{self, Value};
use qsdd_bench::server_load::{run_load, run_warm_restart, LoadConfig};
use qsdd_circuit::generators::{ghz, qft};
use qsdd_core::{
    execute, BackendKind, DdSimulator, ExecContext, OptLevel, RunMode, RunPlan, ShotEngine,
    StochasticBackend, StochasticOutcome, WeightedOptions,
};
use qsdd_noise::NoiseModel;
use qsdd_telemetry::{Stage, StageTimings};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Version of the summary's JSON schema. Bumped whenever the document
/// gains or changes a section; the default output name derives from it
/// (`BENCH_{SCHEMA_VERSION + 3}.json` — the offset keeps continuity with
/// the historical hand-numbered files).
const SCHEMA_VERSION: u32 = 7;

/// The default output path, derived from [`SCHEMA_VERSION`] so a schema
/// bump can never silently overwrite the previous schema's artifact.
fn default_out() -> String {
    format!("BENCH_{}.json", SCHEMA_VERSION + 3)
}

/// One benchmark row of the summary.
struct Row {
    name: &'static str,
    shots: usize,
    naive_ns: f64,
    optimized_ns: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.naive_ns / self.optimized_ns
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut test_mode = false;
    let mut out = default_out();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--test-mode" => test_mode = true,
            "--out" => match iter.next() {
                Some(path) => out = path.clone(),
                None => {
                    eprintln!("error: --out requires a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("error: unknown flag `{other}` (expected --test-mode / --out)");
                return ExitCode::FAILURE;
            }
        }
    }

    let (shots, reps, reuse_shots) = if test_mode {
        (200, 2, 8)
    } else {
        (10_000, 7, 200)
    };
    let rows = vec![
        dedup_row(
            "dedup_ghz16_depol_1e-3",
            {
                ShotEngine::new(
                    &ghz(16),
                    BackendKind::DecisionDiagram,
                    NoiseModel::noiseless().with_depolarizing(0.001),
                    7,
                    OptLevel::O0,
                )
            },
            shots,
            reps,
        ),
        dedup_row(
            "dedup_ghz16_paper_noise",
            {
                ShotEngine::new(
                    &ghz(16),
                    BackendKind::DecisionDiagram,
                    NoiseModel::paper_defaults(),
                    7,
                    OptLevel::O0,
                )
            },
            shots,
            reps,
        ),
        context_reuse_row(reuse_shots, reps),
    ];

    for row in &rows {
        println!(
            "{:<28} naive {:>12.1} ns/shot | optimized {:>12.1} ns/shot | speedup {:>6.2}x",
            row.name,
            row.naive_ns,
            row.optimized_ns,
            row.speedup()
        );
    }

    // The headline of this summary: the weighted-enumeration driver on the
    // very workload where dedup alone plateaued (GHZ-16 under the paper's
    // mixed noise, where amplitude damping keeps almost every sampled
    // trajectory distinct). Measured at a higher shot count than the dedup
    // rows: the weighted driver's cost is (nearly) shot-independent, so the
    // speedup is a function of the shot budget it replaces, and 200 shots
    // would mostly measure the tail-sample floor.
    let weighted_shots = if test_mode { 2_000 } else { shots };
    let weighted = weighted_row(weighted_shots, reps);
    println!(
        "{:<28} per-shot {:>8.1} ns | dedup {:>8.1} ns | weighted {:>8.1} ns | {:>5.2}x vs per-shot, {:>5.2}x vs dedup",
        weighted.name,
        weighted.per_shot_ns,
        weighted.dedup_ns,
        weighted.weighted_ns,
        weighted.speedup_vs_per_shot(),
        weighted.speedup_vs_dedup(),
    );
    println!(
        "{:<28} {} trajectories enumerated covering {:.4} of the mass, {} tail shots",
        "", weighted.enumerated_trajectories, weighted.covered_mass, weighted.tail_shots
    );
    if test_mode {
        // Hard gates (CI): the weighted driver must beat the dedup path it
        // cross-checks against, and clear 3x over per-shot execution.
        if weighted.speedup_vs_dedup() <= 1.0 {
            eprintln!(
                "error: weighted driver ({:.1} ns) does not beat dedup ({:.1} ns)",
                weighted.weighted_ns, weighted.dedup_ns
            );
            return ExitCode::FAILURE;
        }
        if weighted.speedup_vs_per_shot() < 3.0 {
            eprintln!(
                "error: weighted speedup {:.2}x vs per-shot is below the 3x floor",
                weighted.speedup_vs_per_shot()
            );
            return ExitCode::FAILURE;
        }
    }

    // The telemetry overhead smoke: the disabled-mode hooks must stay
    // within 2 % of the bare context-reuse loop. Enough shots to make the
    // comparison meaningful even in test mode, where it is a hard gate.
    let (overhead_shots, overhead_reps) = if test_mode { (2_000, 9) } else { (20_000, 7) };
    let overhead = metrics_overhead_row(overhead_shots, overhead_reps);
    println!(
        "{:<28} bare {:>13.1} ns/shot | instrumented {:>10.1} ns/shot | overhead {:>5.2} %",
        overhead.name, overhead.baseline_ns, overhead.instrumented_ns, overhead.overhead_percent
    );
    if test_mode && overhead.overhead_percent > 2.0 {
        eprintln!(
            "error: disabled-mode telemetry overhead {:.2} % exceeds the 2 % budget",
            overhead.overhead_percent
        );
        return ExitCode::FAILURE;
    }

    // Same budget for the tracing layer: span hooks with the trace gate
    // off, at a per-shot density the real drivers never reach.
    let tracing = tracing_overhead_row(overhead_shots, overhead_reps);
    println!(
        "{:<28} bare {:>13.1} ns/shot | instrumented {:>10.1} ns/shot | overhead {:>5.2} %",
        tracing.name, tracing.baseline_ns, tracing.instrumented_ns, tracing.overhead_percent
    );
    if test_mode && tracing.overhead_percent > 2.0 {
        eprintln!(
            "error: tracing-off span-hook overhead {:.2} % exceeds the 2 % budget",
            tracing.overhead_percent
        );
        return ExitCode::FAILURE;
    }

    // The intra-shot fork-join comparison: serial vs parallel execution of
    // the same engines, interleaved min-of-reps, outcomes cross-checked
    // bit for bit (the determinism contract makes the cross-check exact).
    let intra = intra_row(test_mode);
    for workload in [&intra.dense, &intra.dd] {
        println!(
            "{:<28} serial {:>12.1} ns/shot | intra({}) {:>10.1} ns/shot | speedup {:>6.2}x",
            workload.name,
            workload.serial_ns,
            intra.width,
            workload.parallel_ns,
            workload.speedup()
        );
    }
    if test_mode {
        // Core-count-aware hard gate on the dense workload: the flat
        // chunk-partitioned kernels must actually scale where the machine
        // has room, and small/virtualized runners degrade to a pure
        // correctness check (the cross-check above already ran).
        let floor = match intra.cores {
            cores if cores >= 8 => Some(2.0),
            cores if cores >= 4 => Some(1.3),
            _ => None,
        };
        if let Some(floor) = floor {
            if intra.dense.speedup() < floor {
                eprintln!(
                    "error: intra-shot dense speedup {:.2}x is below the {:.1}x floor \
                     ({} cores, width {})",
                    intra.dense.speedup(),
                    floor,
                    intra.cores,
                    intra.width
                );
                return ExitCode::FAILURE;
            }
        }
    }

    // The HTTP service scenario: cold (uncached simulation) latency vs the
    // content-addressed cache-hit path, plus raw request throughput.
    let load_config = if test_mode {
        LoadConfig::test_mode()
    } else {
        LoadConfig::default_load()
    };
    let load = run_load(&load_config);
    println!(
        "{:<28} cold {:>13.3} ms | cache hit {:>12.3} ms | speedup {:>6.2}x | {:>8.1} req/s",
        "server_ghz12_cache",
        load.cold_latency.as_secs_f64() * 1e3,
        load.hit_latency.as_secs_f64() * 1e3,
        load.hit_speedup(),
        load.throughput_rps,
    );
    if load.errors > 0 {
        eprintln!("error: server load run dropped {} responses", load.errors);
        return ExitCode::FAILURE;
    }

    // The durability scenario: cold boot (every job simulated) vs a
    // store-warmed restart (every GET answered from the replayed log).
    let warm = run_warm_restart(&load_config);
    println!(
        "{:<28} cold {:>13.3} ms | warm GET   {:>12.3} ms | speedup {:>6.2}x | byte-identical: {}",
        "server_warm_restart",
        warm.cold_latency.as_secs_f64() * 1e3,
        warm.warm_hit_latency.as_secs_f64() * 1e3,
        warm.warm_speedup(),
        warm.byte_identical,
    );
    // Byte identity across restart is a correctness gate, not a timing:
    // it holds at any shot count, so enforce it in test mode too.
    if !warm.byte_identical || warm.errors > 0 {
        eprintln!(
            "error: warm restart broke the durability contract ({} errors, byte_identical={})",
            warm.errors, warm.byte_identical
        );
        return ExitCode::FAILURE;
    }

    let document = Value::object(vec![
        (
            "format".to_string(),
            Value::from(format!("qsdd-bench-summary/{SCHEMA_VERSION}").as_str()),
        ),
        ("test_mode".to_string(), Value::from(test_mode)),
        (
            "benchmarks".to_string(),
            Value::Array(
                rows.iter()
                    .map(|row| {
                        Value::object(vec![
                            ("name".to_string(), Value::from(row.name)),
                            ("shots".to_string(), Value::from(row.shots)),
                            ("naive_mean_ns".to_string(), Value::from(row.naive_ns)),
                            ("mean_ns".to_string(), Value::from(row.optimized_ns)),
                            ("speedup".to_string(), Value::from(row.speedup())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "weighted".to_string(),
            Value::object(vec![
                ("name".to_string(), Value::from(weighted.name)),
                ("shots".to_string(), Value::from(weighted.shots)),
                (
                    "per_shot_mean_ns".to_string(),
                    Value::from(weighted.per_shot_ns),
                ),
                ("dedup_mean_ns".to_string(), Value::from(weighted.dedup_ns)),
                ("mean_ns".to_string(), Value::from(weighted.weighted_ns)),
                (
                    "speedup_vs_per_shot".to_string(),
                    Value::from(weighted.speedup_vs_per_shot()),
                ),
                (
                    "speedup_vs_dedup".to_string(),
                    Value::from(weighted.speedup_vs_dedup()),
                ),
                (
                    "covered_mass".to_string(),
                    Value::from(weighted.covered_mass),
                ),
                (
                    "enumerated_trajectories".to_string(),
                    Value::from(weighted.enumerated_trajectories),
                ),
                ("tail_shots".to_string(), Value::from(weighted.tail_shots)),
            ]),
        ),
        (
            "intra".to_string(),
            Value::object(vec![
                ("cores".to_string(), Value::from(intra.cores)),
                ("width".to_string(), Value::from(intra.width)),
                ("dense".to_string(), intra_workload_json(&intra.dense)),
                ("dd".to_string(), intra_workload_json(&intra.dd)),
            ]),
        ),
        (
            "server".to_string(),
            Value::object(vec![
                ("name".to_string(), Value::from("server_ghz12_cache")),
                ("clients".to_string(), Value::from(load_config.clients)),
                ("requests".to_string(), Value::from(load.requests)),
                (
                    "throughput_rps".to_string(),
                    Value::from(load.throughput_rps),
                ),
                (
                    "cold_latency_ms".to_string(),
                    Value::from(load.cold_latency.as_secs_f64() * 1e3),
                ),
                (
                    "hit_latency_ms".to_string(),
                    Value::from(load.hit_latency.as_secs_f64() * 1e3),
                ),
                ("hit_speedup".to_string(), Value::from(load.hit_speedup())),
                ("errors".to_string(), Value::from(load.errors)),
            ]),
        ),
        (
            "warm_restart".to_string(),
            Value::object(vec![
                ("name".to_string(), Value::from("server_warm_restart")),
                ("jobs".to_string(), Value::from(warm.jobs)),
                (
                    "cold_latency_ms".to_string(),
                    Value::from(warm.cold_latency.as_secs_f64() * 1e3),
                ),
                (
                    "warm_hit_latency_ms".to_string(),
                    Value::from(warm.warm_hit_latency.as_secs_f64() * 1e3),
                ),
                ("warm_speedup".to_string(), Value::from(warm.warm_speedup())),
                (
                    "byte_identical".to_string(),
                    Value::from(warm.byte_identical),
                ),
                ("errors".to_string(), Value::from(warm.errors)),
            ]),
        ),
        (
            "metrics_overhead".to_string(),
            Value::object(vec![
                ("name".to_string(), Value::from(overhead.name)),
                ("shots".to_string(), Value::from(overhead.shots)),
                ("baseline_ns".to_string(), Value::from(overhead.baseline_ns)),
                (
                    "instrumented_ns".to_string(),
                    Value::from(overhead.instrumented_ns),
                ),
                (
                    "overhead_percent".to_string(),
                    Value::from(overhead.overhead_percent),
                ),
                ("budget_percent".to_string(), Value::from(2.0)),
            ]),
        ),
        (
            "tracing_overhead".to_string(),
            Value::object(vec![
                ("name".to_string(), Value::from(tracing.name)),
                ("shots".to_string(), Value::from(tracing.shots)),
                ("baseline_ns".to_string(), Value::from(tracing.baseline_ns)),
                (
                    "instrumented_ns".to_string(),
                    Value::from(tracing.instrumented_ns),
                ),
                (
                    "overhead_percent".to_string(),
                    Value::from(tracing.overhead_percent),
                ),
                ("budget_percent".to_string(), Value::from(2.0)),
            ]),
        ),
    ]);
    let text = document.to_pretty_string();
    // The writer must stay parseable: round-trip before touching the disk.
    let parsed = match json::parse(&text) {
        Ok(parsed) => parsed,
        Err(error) => {
            eprintln!("error: summary JSON does not parse back: {error}");
            return ExitCode::FAILURE;
        }
    };
    // And the weighted row must survive the round trip field-for-field —
    // this is what downstream tooling (and CI) reads.
    let weighted_ok = parsed
        .get("weighted")
        .map(|row| {
            row.get("name").and_then(Value::as_str) == Some(weighted.name)
                && row
                    .get("speedup_vs_per_shot")
                    .and_then(Value::as_f64)
                    .is_some()
                && row
                    .get("speedup_vs_dedup")
                    .and_then(Value::as_f64)
                    .is_some()
                && row.get("covered_mass").and_then(Value::as_f64).is_some()
                && row
                    .get("enumerated_trajectories")
                    .and_then(Value::as_u64)
                    .is_some()
        })
        .unwrap_or(false);
    if !weighted_ok {
        eprintln!("error: weighted row missing or malformed in the summary JSON");
        return ExitCode::FAILURE;
    }
    if let Err(error) = std::fs::write(&out, &text) {
        eprintln!("error: cannot write `{out}`: {error}");
        return ExitCode::FAILURE;
    }
    println!("summary written to `{out}`");
    ExitCode::SUCCESS
}

/// Runs `shots` shots of `engine` on one worker (the caller's `ctx`) in
/// `mode`, without observables or a deadline.
fn run_in(
    engine: &ShotEngine,
    ctx: &mut ExecContext,
    shots: usize,
    mode: RunMode,
) -> StochasticOutcome {
    execute(engine, ctx, &RunPlan::new(shots, 1, mode), &[]).expect("no deadline")
}

/// Times the deduplicating runner against the per-shot path on one engine
/// (interleaved repetitions, minimum per path) and cross-checks that both
/// produce identical results.
fn dedup_row(name: &'static str, engine: ShotEngine, shots: usize, reps: usize) -> Row {
    let mut best_dedup = f64::INFINITY;
    let mut best_per_shot = f64::INFINITY;
    for _ in 0..reps {
        let started = Instant::now();
        let dedup = run_in(&engine, &mut ExecContext::new(), shots, RunMode::Dedup);
        best_dedup = best_dedup.min(started.elapsed().as_secs_f64());
        let started = Instant::now();
        let per_shot = run_in(&engine, &mut ExecContext::new(), shots, RunMode::PerShot);
        best_per_shot = best_per_shot.min(started.elapsed().as_secs_f64());
        assert_eq!(dedup.counts, per_shot.counts, "{name}: histogram mismatch");
        assert_eq!(dedup.error_events, per_shot.error_events, "{name}");
    }
    Row {
        name,
        shots,
        naive_ns: best_per_shot * 1e9 / shots as f64,
        optimized_ns: best_dedup * 1e9 / shots as f64,
    }
}

/// The three-way weighted-enumeration comparison row.
struct WeightedRow {
    name: &'static str,
    shots: usize,
    per_shot_ns: f64,
    dedup_ns: f64,
    weighted_ns: f64,
    covered_mass: f64,
    enumerated_trajectories: u64,
    tail_shots: u64,
}

impl WeightedRow {
    fn speedup_vs_per_shot(&self) -> f64 {
        self.per_shot_ns / self.weighted_ns
    }

    fn speedup_vs_dedup(&self) -> f64 {
        self.dedup_ns / self.weighted_ns
    }
}

/// Races the weighted trajectory-enumeration driver against the dedup and
/// per-shot paths on GHZ-16 under the paper's mixed noise model — the
/// workload where amplitude damping defeats exact-pattern sharing (dedup
/// barely reaches ~1.3x) but enumeration still pays: the no-error
/// trajectory alone covers ~89 % of the probability mass, so only the
/// ~11 % residual needs tail shots.
///
/// All three paths run serially through one long-lived, pre-warmed
/// [`ExecContext`] (the steady-state serving configuration), so the row
/// compares the drivers themselves, not one-off context construction.
/// Repetitions interleave the three paths and each takes its minimum.
/// Cross-checks per repetition: dedup stays byte-identical to per-shot
/// (the existing oracle), and the weighted histogram accounts for every
/// requested shot with sane coverage statistics.
fn weighted_row(shots: usize, reps: usize) -> WeightedRow {
    let engine = ShotEngine::new(
        &ghz(16),
        BackendKind::DecisionDiagram,
        NoiseModel::paper_defaults(),
        7,
        OptLevel::O0,
    );
    let options = WeightedOptions::default();
    let mut ctx = engine.new_context();
    // Warm the context (program seating, operator caches) off the clock.
    let _ = run_in(&engine, &mut ctx, 1, RunMode::PerShot);
    let mut best_per_shot = f64::INFINITY;
    let mut best_dedup = f64::INFINITY;
    let mut best_weighted = f64::INFINITY;
    let mut coverage = (0.0, 0, 0);
    for _ in 0..reps {
        let started = Instant::now();
        let per_shot = run_in(&engine, &mut ctx, shots, RunMode::PerShot);
        best_per_shot = best_per_shot.min(started.elapsed().as_secs_f64());
        let started = Instant::now();
        let dedup = run_in(&engine, &mut ctx, shots, RunMode::Dedup);
        best_dedup = best_dedup.min(started.elapsed().as_secs_f64());
        let started = Instant::now();
        let weighted = run_in(&engine, &mut ctx, shots, RunMode::Weighted(options.clone()));
        best_weighted = best_weighted.min(started.elapsed().as_secs_f64());

        assert_eq!(dedup.counts, per_shot.counts, "dedup oracle mismatch");
        let stats = weighted
            .weighted
            .as_ref()
            .expect("GHZ-16 supports weighted enumeration");
        assert_eq!(
            weighted.counts.values().sum::<u64>(),
            shots as u64,
            "weighted histogram must account for every requested shot"
        );
        assert!(stats.covered_mass > 0.5 && stats.covered_mass <= 1.0 + 1e-12);
        assert!(stats.enumerated_trajectories > 0);
        coverage = (
            stats.covered_mass,
            stats.enumerated_trajectories,
            stats.tail_shots,
        );
    }
    WeightedRow {
        name: "weighted_ghz16_paper_noise",
        shots,
        per_shot_ns: best_per_shot * 1e9 / shots as f64,
        dedup_ns: best_dedup * 1e9 / shots as f64,
        weighted_ns: best_weighted * 1e9 / shots as f64,
        covered_mass: coverage.0,
        enumerated_trajectories: coverage.1,
        tail_shots: coverage.2,
    }
}

/// The telemetry-overhead measurement of the context-reuse hot loop.
struct OverheadRow {
    name: &'static str,
    shots: usize,
    baseline_ns: f64,
    instrumented_ns: f64,
    overhead_percent: f64,
}

/// Times the context-reuse shot loop bare against the same loop carrying
/// the per-job telemetry hooks the engine layer added (a stage-timings
/// span around the loop plus the enabled-gated publish), with telemetry
/// disabled — exactly the serving-path configuration the ≤ 2 % budget
/// protects. Repetitions interleave the two sides and each takes its
/// minimum, so scheduler noise hits both equally.
fn metrics_overhead_row(shots: usize, reps: usize) -> OverheadRow {
    qsdd_telemetry::set_enabled(false);
    let backend = DdSimulator::new();
    let circuit = ghz(16);
    let noise = NoiseModel::paper_defaults();
    let program = backend.compile(&circuit, &noise);
    let mut ctx = backend.new_context();
    let mut best_bare = f64::INFINITY;
    let mut best_hooked = f64::INFINITY;
    let mut bare_acc = 0u64;
    let mut hooked_acc = 0u64;
    for _ in 0..reps {
        let started = Instant::now();
        for shot in 0..shots as u64 {
            let mut rng = StdRng::seed_from_u64(shot);
            bare_acc ^= backend.run_shot(&program, &mut ctx, &mut rng).outcome;
        }
        best_bare = best_bare.min(started.elapsed().as_secs_f64());

        let started = Instant::now();
        let mut timings = StageTimings::new();
        let span = Instant::now();
        for shot in 0..shots as u64 {
            let mut rng = StdRng::seed_from_u64(shot);
            hooked_acc ^= backend.run_shot(&program, &mut ctx, &mut rng).outcome;
        }
        timings.record(Stage::Execute, span.elapsed());
        timings.publish();
        best_hooked = best_hooked.min(started.elapsed().as_secs_f64());
    }
    assert_eq!(bare_acc, hooked_acc, "telemetry hooks changed outcomes");
    let baseline_ns = best_bare * 1e9 / shots as f64;
    let instrumented_ns = best_hooked * 1e9 / shots as f64;
    OverheadRow {
        name: "telemetry_off_ghz16",
        shots,
        baseline_ns,
        instrumented_ns,
        overhead_percent: 100.0 * (instrumented_ns - baseline_ns) / baseline_ns,
    }
}

/// Times the context-reuse shot loop bare against the same loop opening a
/// trace span (plus one attribute probe) around *every shot*, with the
/// trace gate off — a far denser span rate than the real drivers use
/// (they trace per trajectory group / scheduler chunk), so the ≤ 2 %
/// budget bounds the worst case. With the gate off and no tracer
/// installed, `span` returns a no-op guard after one relaxed atomic load
/// and `attr` bails on the TLS check. Interleaved min-of-reps, outcomes
/// cross-checked by xor accumulator.
fn tracing_overhead_row(shots: usize, reps: usize) -> OverheadRow {
    use qsdd_telemetry::trace;
    trace::set_trace_enabled(false);
    let backend = DdSimulator::new();
    let circuit = ghz(16);
    let noise = NoiseModel::paper_defaults();
    let program = backend.compile(&circuit, &noise);
    let mut ctx = backend.new_context();
    let mut best_bare = f64::INFINITY;
    let mut best_hooked = f64::INFINITY;
    let mut bare_acc = 0u64;
    let mut hooked_acc = 0u64;
    for _ in 0..reps {
        let started = Instant::now();
        for shot in 0..shots as u64 {
            let mut rng = StdRng::seed_from_u64(shot);
            bare_acc ^= backend.run_shot(&program, &mut ctx, &mut rng).outcome;
        }
        best_bare = best_bare.min(started.elapsed().as_secs_f64());

        let started = Instant::now();
        for shot in 0..shots as u64 {
            let _span = trace::span("shots");
            let mut rng = StdRng::seed_from_u64(shot);
            let outcome = backend.run_shot(&program, &mut ctx, &mut rng).outcome;
            trace::attr("outcome", outcome);
            hooked_acc ^= outcome;
        }
        best_hooked = best_hooked.min(started.elapsed().as_secs_f64());
    }
    assert_eq!(bare_acc, hooked_acc, "span hooks changed outcomes");
    let baseline_ns = best_bare * 1e9 / shots as f64;
    let instrumented_ns = best_hooked * 1e9 / shots as f64;
    OverheadRow {
        name: "tracing_off_ghz16",
        shots,
        baseline_ns,
        instrumented_ns,
        overhead_percent: 100.0 * (instrumented_ns - baseline_ns) / baseline_ns,
    }
}

/// One serial-vs-fork-join comparison of the intra row.
struct IntraWorkload {
    name: &'static str,
    shots: usize,
    serial_ns: f64,
    parallel_ns: f64,
}

impl IntraWorkload {
    fn speedup(&self) -> f64 {
        self.serial_ns / self.parallel_ns
    }
}

/// The intra-shot fork-join comparison: both workloads plus the machine
/// shape the gate decisions are based on.
struct IntraRow {
    cores: usize,
    width: usize,
    dense: IntraWorkload,
    dd: IntraWorkload,
}

fn intra_workload_json(workload: &IntraWorkload) -> Value {
    Value::object(vec![
        ("name".to_string(), Value::from(workload.name)),
        ("shots".to_string(), Value::from(workload.shots)),
        ("serial_ns".to_string(), Value::from(workload.serial_ns)),
        ("mean_ns".to_string(), Value::from(workload.parallel_ns)),
        ("speedup".to_string(), Value::from(workload.speedup())),
    ])
}

/// Interleaved min-of-reps race of one engine at intra width 1 vs `width`,
/// on a single shot-worker (a single worker's intra request is honoured
/// as-is; several workers would clamp against `cores / workers`). Every
/// repetition cross-checks the parallel outcome against the serial one bit
/// for bit — the determinism contract says nothing may move.
fn intra_workload(
    name: &'static str,
    mut engine: ShotEngine,
    width: usize,
    shots: usize,
    reps: usize,
) -> IntraWorkload {
    let mut best_serial = f64::INFINITY;
    let mut best_parallel = f64::INFINITY;
    for _ in 0..reps {
        engine.set_intra_threads(1);
        let started = Instant::now();
        let serial = run_in(&engine, &mut ExecContext::new(), shots, RunMode::PerShot);
        best_serial = best_serial.min(started.elapsed().as_secs_f64());

        engine.set_intra_threads(width);
        let started = Instant::now();
        let parallel = run_in(&engine, &mut ExecContext::new(), shots, RunMode::PerShot);
        best_parallel = best_parallel.min(started.elapsed().as_secs_f64());

        assert_eq!(parallel.counts, serial.counts, "{name}: histogram moved");
        assert_eq!(parallel.error_events, serial.error_events, "{name}");
        assert_eq!(parallel.dd_nodes_peak, serial.dd_nodes_peak, "{name}");
    }
    IntraWorkload {
        name,
        shots,
        serial_ns: best_serial * 1e9 / shots as f64,
        parallel_ns: best_parallel * 1e9 / shots as f64,
    }
}

/// Races intra-shot fork-join execution against serial on the two shapes
/// it targets: a 22-qubit dense statevector workload (the flat
/// chunk-partitioned kernels) and a deep decision-diagram workload (QFT-16
/// under the paper's noise, where cofactor fork-join engages above the
/// level cutoff). The fork-join width adapts to the machine — `cores`
/// clamped into 2..=8 — so the row is meaningful on big runners and still
/// exercises the parallel code paths (as pure correctness evidence) on
/// small ones.
fn intra_row(test_mode: bool) -> IntraRow {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let width = cores.clamp(2, 8);
    let (dense_shots, dd_shots, reps) = if test_mode { (2, 8, 2) } else { (6, 200, 5) };
    let dense = intra_workload(
        "intra_dense_ghz22",
        ShotEngine::new(
            &ghz(22),
            BackendKind::Statevector,
            NoiseModel::noiseless().with_depolarizing(0.001),
            7,
            OptLevel::O0,
        ),
        width,
        dense_shots,
        reps,
    );
    let dd = intra_workload(
        "intra_dd_qft16_paper_noise",
        ShotEngine::new(
            &qft(16),
            BackendKind::DecisionDiagram,
            NoiseModel::paper_defaults(),
            7,
            OptLevel::O0,
        ),
        width,
        dd_shots,
        reps,
    );
    IntraRow {
        cores,
        width,
        dense,
        dd,
    }
}

/// Times compiled-program context reuse against the naive one-off path
/// (compile + fresh context per shot, the pre-refactor cost model).
fn context_reuse_row(shots: usize, reps: usize) -> Row {
    let backend = DdSimulator::new();
    let circuit = ghz(16);
    let noise = NoiseModel::paper_defaults();
    let mut best_naive = f64::INFINITY;
    let mut best_reused = f64::INFINITY;
    for _ in 0..reps {
        let started = Instant::now();
        let mut acc = 0u64;
        for shot in 0..shots as u64 {
            let mut rng = StdRng::seed_from_u64(shot);
            acc ^= backend.run_once(&circuit, &noise, &mut rng).outcome;
        }
        best_naive = best_naive.min(started.elapsed().as_secs_f64());

        let program = backend.compile(&circuit, &noise);
        let mut ctx = backend.new_context();
        let started = Instant::now();
        let mut reused_acc = 0u64;
        for shot in 0..shots as u64 {
            let mut rng = StdRng::seed_from_u64(shot);
            reused_acc ^= backend.run_shot(&program, &mut ctx, &mut rng).outcome;
        }
        best_reused = best_reused.min(started.elapsed().as_secs_f64());
        assert_eq!(acc, reused_acc, "context reuse changed outcomes");
    }
    Row {
        name: "context_reuse_ghz16_paper_noise",
        shots,
        naive_ns: best_naive * 1e9 / shots as f64,
        optimized_ns: best_reused * 1e9 / shots as f64,
    }
}
