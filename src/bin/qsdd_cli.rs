//! `qsdd-cli` — command-line front-end for the stochastic decision-diagram
//! simulator.
//!
//! ```text
//! qsdd_cli run circuit.qasm --shots 2000 --seed 7
//! qsdd_cli generate ghz 32 --shots 1000 --backend dd
//! qsdd_cli generate qft 20 --noiseless --top 10
//! qsdd_cli batch jobs.txt --out report.json
//! qsdd_cli serve --addr 127.0.0.1:8080 --threads 4
//! ```
//!
//! The tool loads a circuit (from an OpenQASM 2.0 file or a built-in
//! generator), runs the stochastic simulation under the configured noise
//! model and prints the outcome histogram; the `batch` command schedules a
//! whole job file across one shared worker pool; the `serve` command runs
//! the long-lived HTTP job service (`docs/server.md`). The complete
//! reference, including exit-code semantics, lives in `docs/cli.md`.

use std::path::Path;
use std::process::ExitCode;

use qsdd::batch::{jobfile, json::Value, run_batch, BatchOptions, BatchReport, JobStatus};
use qsdd::circuit::{generators, qasm, Circuit};
use qsdd::core::{
    BackendKind, OptLevel, Stage, StageTimings, StochasticSimulator, WeightedOptions,
};
use qsdd::noise::NoiseModel;
use qsdd::server::{serve_forever, ServerConfig};
use qsdd::transpile::{transpile, verify, DEFAULT_FIDELITY_TOLERANCE};

/// Parsed command-line options.
#[derive(Debug, Clone)]
struct Options {
    circuit: Circuit,
    shots: usize,
    threads: usize,
    intra_threads: usize,
    seed: u64,
    backend: BackendKind,
    noise: NoiseModel,
    top: usize,
    opt: OptLevel,
    verify_opt: bool,
    dedup: bool,
    profile: bool,
    format: RunFormat,
    weighted: Option<WeightedOptions>,
    timeout_ms: Option<u64>,
    trace_out: Option<String>,
}

/// Output format of the `run` / `generate` result on stdout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunFormat {
    /// Human-readable top-K histogram (the default).
    Text,
    /// A machine-readable JSON document (`qsdd_cli run ... > out.json`).
    Json,
}

/// The top-level subcommands, resolved **before** any flag parsing so a
/// typoed subcommand reports itself instead of a misleading "unknown flag"
/// from run-mode parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Help,
    RunOrGenerate,
    Batch,
    Serve,
}

/// Classifies the first CLI argument into a subcommand.
///
/// The error message for an unrecognised word lists the valid subcommands
/// (regression: `qsdd_cli serev` used to fall through to run-mode flag
/// parsing and die with ``unknown command `serev` `` buried in flag
/// context).
fn classify_command(first: Option<&str>) -> Result<Command, String> {
    match first {
        None => Err("missing subcommand".to_string()),
        Some("--help" | "-h" | "help") => Ok(Command::Help),
        Some("run" | "generate") => Ok(Command::RunOrGenerate),
        Some("batch") => Ok(Command::Batch),
        Some("serve") => Ok(Command::Serve),
        Some(other) => Err(format!(
            "unknown subcommand `{other}`: expected run|generate|batch|serve|help"
        )),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fail = |message: String| {
        eprintln!("error: {message}");
        eprintln!();
        eprintln!("{USAGE}");
        ExitCode::FAILURE
    };
    match classify_command(args.first().map(String::as_str)) {
        Err(message) => fail(message),
        Ok(Command::Help) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Command::Batch) => match parse_batch_args(&args[1..]) {
            Ok(options) => run_batch_command(options),
            Err(message) => fail(message),
        },
        Ok(Command::Serve) => match parse_serve_args(&args[1..]) {
            Ok(config) => run_serve_command(config),
            Err(message) => fail(message),
        },
        Ok(Command::RunOrGenerate) => match parse_args(&args) {
            Ok(options) => run(options),
            Err(message) => fail(message),
        },
    }
}

const USAGE: &str = "\
usage:
  qsdd_cli run <circuit.qasm> [options]
  qsdd_cli generate <ghz|qft|grover|bv|wstate|qaoa> <qubits> [options]
  qsdd_cli batch <jobfile> [--out <path>] [--format json|csv] [--threads <N>]
  qsdd_cli serve [--addr <host:port>] [--threads <N>] [--cache-entries <N>]
                 [--queue-depth <N>] [--store-dir <path>]

options (run / generate):
  --shots <N>          number of stochastic runs (default 1000)
  --threads <N>        worker threads, 0 = all cores (default 0)
  --intra-threads <N>  fork-join width inside each shot (default 1 = serial);
                       clamped against the shot-worker count, results are
                       bit-identical for every setting
  --seed <N>           master seed (default 2021)
  --backend <dd|dense> simulation engine (default dd)
  --opt <0|1|2>        circuit optimization level (default 0); the gate-count
                       report of the transpiler is printed for levels > 0
  --verify-opt         cross-check the optimized circuit against the original
                       via statevector fidelity before running (<= 22 qubits)
  --no-dedup           disable trajectory deduplication (per-shot execution;
                       results are identical, this is a benchmarking escape
                       hatch)
  --weighted           enumerate error trajectories in descending probability
                       order and simulate each distinct one once, exactly;
                       only the residual probability mass is sampled
  --mass-cutoff <p>    stop enumerating once this much probability mass is
                       covered (default 0.999; requires --weighted)
  --max-patterns <N>   cap on enumerated trajectories (default 1024;
                       requires --weighted)
  --exact-histogram    skip residual-tail sampling and report the enumerated
                       distribution alone (requires --weighted)
  --noiseless          disable all errors
  --depolarizing <p>   gate error probability (default 0.001)
  --damping <p>        amplitude damping / T1 probability (default 0.002)
  --phaseflip <p>      phase flip / T2 probability (default 0.001)
  --top <K>            number of outcomes to print (default 10)
  --format <text|json> result format on stdout (default text); json emits a
                       single machine-readable document, so
                       `qsdd_cli run c.qasm --format json > out.json` composes
  --profile            print a per-stage timing breakdown (parse, transpile,
                       compile, presample, execute, ...) to stderr
  --timeout <ms>       cancel the run once this many milliseconds have
                       elapsed (cooperative, checked between shots); a
                       timed-out run prints `timed_out` and exits nonzero
  --trace-out <path>   record the run's span trace and write it as Chrome
                       trace-event JSON (loadable in Perfetto or
                       chrome://tracing); results are byte-identical with
                       and without tracing

options (batch):
  --out <path>         write the report to a file instead of stdout
  --format <json|csv>  report format (default json, or inferred from --out)
  --threads <N>        worker threads shared by all jobs, 0 = all cores
  --intra-threads <N>  fork-join width inside each shot (default 1 = serial;
                       0 = big jobs borrow idle shot-workers)
  --no-dedup           disable trajectory deduplication for every job
  --profile            print the aggregated per-stage timing breakdown of
                       the whole batch to stderr
  --trace-out <path>   record the batch's span trace (scheduler chunks per
                       worker lane) as Chrome trace-event JSON

options (serve):
  --addr <host:port>   bind address (default 127.0.0.1:8080; port 0 picks
                       an ephemeral port, printed on startup)
  --threads <N>        simulation worker threads, 0 = all cores (default 0)
  --cache-entries <N>  completed results kept by the cache (default 1024)
  --queue-depth <N>    queued jobs before 429 backpressure (default 256)
  --store-dir <path>   persist completed results to this directory and
                       reload them on the next boot (default: memory-only);
                       restarts serve previously completed jobs
                       byte-identically

Diagnostics and progress lines go to stderr; stdout carries only results
(the histogram / JSON document / batch report), so output redirection
composes with pipes.

Full reference (job-file format, HTTP API, exit codes): docs/cli.md,
docs/server.md";

/// Parsed options of the `batch` subcommand.
#[derive(Debug, Clone)]
struct BatchCliOptions {
    jobfile: String,
    out: Option<String>,
    format: ReportFormat,
    threads: usize,
    intra_threads: usize,
    dedup: bool,
    profile: bool,
    trace_out: Option<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReportFormat {
    Json,
    Csv,
}

fn parse_batch_args(args: &[String]) -> Result<BatchCliOptions, String> {
    let mut iter = args.iter();
    let jobfile = iter
        .next()
        .ok_or_else(|| "missing job file path".to_string())?
        .clone();
    let mut out = None;
    let mut format = None;
    let mut threads = 0usize;
    let mut intra_threads = 1usize;
    let mut dedup = true;
    let mut profile = false;
    let mut trace_out = None;
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| -> Result<String, String> {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("flag {name} requires a value"))
        };
        match flag.as_str() {
            "--out" => out = Some(value("--out")?),
            "--threads" => threads = parse_number(&value("--threads")?)?,
            "--intra-threads" => intra_threads = parse_number(&value("--intra-threads")?)?,
            "--no-dedup" => dedup = false,
            "--profile" => profile = true,
            "--trace-out" => trace_out = Some(value("--trace-out")?),
            "--format" => {
                format = Some(match value("--format")?.as_str() {
                    "json" => ReportFormat::Json,
                    "csv" => ReportFormat::Csv,
                    other => return Err(format!("unknown format `{other}` (expected json|csv)")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    // Without an explicit --format, infer CSV from the output extension.
    let format = format.unwrap_or_else(|| match &out {
        Some(path) if path.ends_with(".csv") => ReportFormat::Csv,
        _ => ReportFormat::Json,
    });
    Ok(BatchCliOptions {
        jobfile,
        out,
        format,
        threads,
        intra_threads,
        dedup,
        profile,
        trace_out,
    })
}

fn run_batch_command(options: BatchCliOptions) -> ExitCode {
    let jobs = match jobfile::parse_file(Path::new(&options.jobfile)) {
        Ok(jobs) => jobs,
        Err(error) => {
            eprintln!("error: {error}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("batch: {} job(s) from `{}`", jobs.len(), options.jobfile);
    let mut batch_options =
        BatchOptions::with_threads(options.threads).with_intra_threads(options.intra_threads);
    if !options.dedup {
        batch_options = batch_options.without_dedup();
    }
    // --trace-out records the batch's scheduler chunks per worker lane.
    let tracer = options.trace_out.as_ref().map(|_| {
        qsdd::telemetry::trace::configure_trace_from_env(true);
        qsdd::telemetry::trace::Tracer::forced("batch", "batch")
    });
    let traced = tracer.as_ref().map(|tracer| tracer.install(0));
    let report = run_batch(&jobs, &batch_options);
    drop(traced);
    if let (Some(tracer), Some(path)) = (tracer, &options.trace_out) {
        if let Err(message) = write_trace(path, tracer.finish("batch")) {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    }
    print_batch_summary(&report);
    if options.profile {
        let mut total = StageTimings::new();
        for job in &report.jobs {
            total.merge(&job.stage_timings);
        }
        print_profile(&total);
    }

    let serialized = match options.format {
        ReportFormat::Json => report.to_json(),
        ReportFormat::Csv => report.to_csv(),
    };
    match &options.out {
        Some(path) => {
            if let Err(error) = std::fs::write(path, &serialized) {
                eprintln!("error: cannot write `{path}`: {error}");
                return ExitCode::FAILURE;
            }
            eprintln!("report written to `{path}`");
        }
        None => print!("{serialized}"),
    }
    if report.all_completed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints the human-readable per-job summary to stderr (stdout carries the
/// machine-readable report when no --out file is given).
fn print_batch_summary(report: &BatchReport) {
    for job in &report.jobs {
        match &job.status {
            JobStatus::Completed => {
                let stopped = if job.early_stopped {
                    " (early stop)"
                } else {
                    ""
                };
                eprintln!(
                    "  {:<16} {:>7}/{} shots{} on {} qubits, {:.3} err/run, \
                     {} unique trajectories ({:.1} % dedup hit rate), {:.3} s",
                    job.name,
                    job.shots_executed,
                    job.shots_requested,
                    stopped,
                    job.qubits,
                    job.error_rate(),
                    job.unique_trajectories,
                    100.0 * job.dedup_hit_rate,
                    job.wall_time.as_secs_f64(),
                );
            }
            JobStatus::Failed(message) => {
                eprintln!("  {:<16} FAILED: {message}", job.name);
            }
        }
    }
    eprintln!(
        "batch: {} shots total on {} threads in {:.3} s",
        report.total_shots(),
        report.threads,
        report.total_wall_time.as_secs_f64()
    );
}

/// Prints the `--profile` stage-breakdown table to stderr (CPU seconds per
/// pipeline stage; on multi-threaded runs the execute row sums over workers
/// and can exceed wall-clock time).
fn print_profile(timings: &StageTimings) {
    eprintln!("profile: stage breakdown");
    let total = timings.total();
    for (stage, elapsed) in timings.iter() {
        if elapsed.is_zero() {
            continue;
        }
        let share = if total.is_zero() {
            0.0
        } else {
            100.0 * elapsed.as_secs_f64() / total.as_secs_f64()
        };
        eprintln!(
            "  {:<12} {:>12.6} s  {:>5.1} %",
            stage.name(),
            elapsed.as_secs_f64(),
            share
        );
    }
    eprintln!("  {:<12} {:>12.6} s", "total", total.as_secs_f64());
}

/// Writes a finished trace as Chrome trace-event JSON (Perfetto /
/// `chrome://tracing` loadable) and reports it on stderr.
fn write_trace(path: &str, trace: qsdd::telemetry::trace::Trace) -> Result<(), String> {
    std::fs::write(path, trace.to_chrome_json().to_pretty_string())
        .map_err(|error| format!("cannot write trace `{path}`: {error}"))?;
    eprintln!("trace written to `{path}` ({} spans)", trace.spans.len());
    Ok(())
}

fn parse_serve_args(args: &[String]) -> Result<ServerConfig, String> {
    let mut config = ServerConfig {
        addr: "127.0.0.1:8080".to_string(),
        ..ServerConfig::default()
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| -> Result<String, String> {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("flag {name} requires a value"))
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--threads" => config.threads = parse_number(&value("--threads")?)?,
            "--cache-entries" => {
                config.cache_entries = parse_number(&value("--cache-entries")?)?;
                if config.cache_entries == 0 {
                    return Err("--cache-entries must be positive".to_string());
                }
            }
            "--queue-depth" => {
                config.queue_depth = parse_number(&value("--queue-depth")?)?;
                if config.queue_depth == 0 {
                    return Err("--queue-depth must be positive".to_string());
                }
            }
            "--store-dir" => config.store_dir = Some(value("--store-dir")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(config)
}

fn run_serve_command(config: ServerConfig) -> ExitCode {
    // The startup banner (bound address, endpoint list) is diagnostics, so
    // it goes to stderr like every other non-result line.
    match serve_forever(config, &mut std::io::stderr()) {
        Ok(()) => {
            eprintln!("qsdd-server: shut down cleanly");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("error: cannot serve: {error}");
            ExitCode::FAILURE
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    if args.is_empty() {
        return Err("missing command".to_string());
    }
    let mut iter = args.iter().peekable();
    let command = iter.next().expect("nonempty").as_str();
    let circuit = match command {
        "run" => {
            let path = iter
                .next()
                .ok_or_else(|| "missing OpenQASM file path".to_string())?;
            let source =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            qasm::parse_source(&source).map_err(|e| e.to_string())?
        }
        "generate" => {
            let kind = iter
                .next()
                .ok_or_else(|| "missing generator name".to_string())?;
            let qubits: usize = iter
                .next()
                .ok_or_else(|| "missing qubit count".to_string())?
                .parse()
                .map_err(|_| "qubit count must be an integer".to_string())?;
            build_generator(kind, qubits)?
        }
        other => return Err(format!("unknown command `{other}`")),
    };

    let mut options = Options {
        circuit,
        shots: 1000,
        threads: 0,
        intra_threads: 1,
        seed: 2021,
        backend: BackendKind::DecisionDiagram,
        noise: NoiseModel::paper_defaults(),
        top: 10,
        opt: OptLevel::O0,
        verify_opt: false,
        dedup: true,
        profile: false,
        format: RunFormat::Text,
        weighted: None,
        timeout_ms: None,
        trace_out: None,
    };
    let mut depolarizing = options.noise.depolarizing_prob();
    let mut damping = options.noise.amplitude_damping_prob();
    let mut phase_flip = options.noise.phase_flip_prob();
    let mut noiseless = false;
    let mut weighted = false;
    let mut weighted_options = WeightedOptions::default();
    let mut weighted_knob_seen: Option<&'static str> = None;

    while let Some(flag) = iter.next() {
        let mut value = |name: &str| -> Result<String, String> {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("flag {name} requires a value"))
        };
        match flag.as_str() {
            "--shots" => options.shots = parse_number(&value("--shots")?)?,
            "--threads" => options.threads = parse_number(&value("--threads")?)?,
            "--intra-threads" => {
                options.intra_threads = parse_number(&value("--intra-threads")?)?;
                if options.intra_threads == 0 {
                    return Err("--intra-threads must be at least 1".to_string());
                }
            }
            "--seed" => options.seed = parse_number(&value("--seed")?)? as u64,
            "--top" => options.top = parse_number(&value("--top")?)?,
            "--backend" => {
                options.backend = match value("--backend")?.as_str() {
                    "dd" => BackendKind::DecisionDiagram,
                    "dense" => BackendKind::Statevector,
                    other => return Err(format!("unknown backend `{other}`")),
                }
            }
            "--opt" => {
                options.opt = value("--opt")?.parse::<OptLevel>()?;
            }
            "--verify-opt" => options.verify_opt = true,
            "--no-dedup" => options.dedup = false,
            "--profile" => options.profile = true,
            "--format" => {
                options.format = match value("--format")?.as_str() {
                    "text" => RunFormat::Text,
                    "json" => RunFormat::Json,
                    other => return Err(format!("unknown format `{other}` (expected text|json)")),
                }
            }
            "--noiseless" => noiseless = true,
            "--depolarizing" => depolarizing = parse_probability(&value("--depolarizing")?)?,
            "--damping" => damping = parse_probability(&value("--damping")?)?,
            "--phaseflip" => phase_flip = parse_probability(&value("--phaseflip")?)?,
            "--weighted" => weighted = true,
            "--mass-cutoff" => {
                let cutoff = parse_probability(&value("--mass-cutoff")?)?;
                if cutoff == 0.0 {
                    return Err("--mass-cutoff must be in (0, 1]".to_string());
                }
                weighted_options.mass_cutoff = cutoff;
                weighted_knob_seen = Some("--mass-cutoff");
            }
            "--max-patterns" => {
                weighted_options.max_patterns = parse_number(&value("--max-patterns")?)? as u64;
                weighted_knob_seen = Some("--max-patterns");
            }
            "--exact-histogram" => {
                weighted_options.exact_histogram = true;
                weighted_knob_seen = Some("--exact-histogram");
            }
            "--timeout" => {
                let ms = parse_number(&value("--timeout")?)? as u64;
                if ms == 0 {
                    return Err("--timeout must be at least 1 millisecond".to_string());
                }
                options.timeout_ms = Some(ms);
            }
            "--trace-out" => options.trace_out = Some(value("--trace-out")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    options.noise = if noiseless {
        NoiseModel::noiseless()
    } else {
        NoiseModel::new(depolarizing, damping, phase_flip)
    };
    if weighted {
        options.weighted = Some(weighted_options);
    } else if let Some(knob) = weighted_knob_seen {
        // A tuning knob without the mode is almost certainly a mistake —
        // silently sampling every shot would hide it.
        return Err(format!("{knob} requires --weighted"));
    }
    Ok(options)
}

fn build_generator(kind: &str, qubits: usize) -> Result<Circuit, String> {
    generators::by_name(kind, qubits).ok_or_else(|| match generators::min_qubits(kind) {
        Some(min) => format!("generator `{kind}` needs at least {min} qubit(s), got {qubits}"),
        None => format!("unknown generator `{kind}`"),
    })
}

fn parse_number(text: &str) -> Result<usize, String> {
    text.parse()
        .map_err(|_| format!("`{text}` is not a valid number"))
}

fn parse_probability(text: &str) -> Result<f64, String> {
    let p: f64 = text
        .parse()
        .map_err(|_| format!("`{text}` is not a valid probability"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("probability {p} is outside [0, 1]"));
    }
    Ok(p)
}

fn run(options: Options) -> ExitCode {
    // Everything up to the result is diagnostics and goes to stderr, so
    // `qsdd_cli run c.qasm --format json > out.json` captures only the
    // result document.
    let stats = options.circuit.stats();
    eprintln!(
        "circuit `{}`: {} qubits, {} gates, depth {}",
        options.circuit.name(),
        options.circuit.num_qubits(),
        stats.gate_count,
        stats.depth
    );
    eprintln!(
        "noise: depolarizing {:.4}, damping {:.4}, phase flip {:.4}",
        options.noise.depolarizing_prob(),
        options.noise.amplitude_damping_prob(),
        options.noise.phase_flip_prob()
    );

    // Transpile once: the same result feeds the report, the optional
    // verification and the simulation itself.
    let transpiled = (options.opt != OptLevel::O0).then(|| {
        let transpiled = transpile(&options.circuit, options.opt);
        eprint!("{}", transpiled.report);
        transpiled
    });
    if let (Some(transpiled), true) = (&transpiled, options.verify_opt) {
        if options.circuit.num_qubits() <= 22 {
            match verify::verify(&options.circuit, transpiled, DEFAULT_FIDELITY_TOLERANCE) {
                Ok(fidelity) => eprintln!("verified: fidelity {fidelity:.12}"),
                Err(error) => {
                    eprintln!("error: {error}");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            eprintln!(
                "warning: --verify-opt skipped (needs a dense statevector, circuit too wide)"
            );
        }
    }

    let mut simulator = StochasticSimulator::new()
        .with_backend(options.backend)
        .with_shots(options.shots)
        .with_threads(options.threads)
        .with_intra_threads(options.intra_threads)
        .with_seed(options.seed)
        .with_noise(options.noise)
        .with_dedup(options.dedup);
    if let Some(weighted) = options.weighted.clone() {
        simulator = simulator.with_weighted(weighted);
    }
    // The run's deadline (when --timeout set one). Cancellation is
    // cooperative — checked between shots — so a timed-out run exits
    // promptly without leaving partial results on stdout.
    let deadline = match options.timeout_ms {
        Some(ms) => qsdd::core::Deadline::from_millis(ms),
        None => qsdd::core::Deadline::unbounded(),
    };
    // --trace-out opts this run into span tracing: install the tracer on
    // this thread so the engine drivers' spans (presample, shots, worker
    // lanes) land in it. The trace never changes the result — it is
    // written to its own file after the run.
    let tracer = options.trace_out.as_ref().map(|_| {
        qsdd::telemetry::trace::configure_trace_from_env(true);
        qsdd::telemetry::trace::Tracer::forced(options.circuit.name(), options.circuit.name())
    });
    let traced = tracer.as_ref().map(|tracer| tracer.install(0));
    let result = match &transpiled {
        Some(transpiled) => simulator.run_transpiled_deadline(transpiled, &[], &deadline),
        None => simulator.run_with_observables_deadline(&options.circuit, &[], &deadline),
    };
    drop(traced);
    let result = match result {
        Ok(result) => result,
        Err(qsdd::core::TimedOut) => {
            eprintln!(
                "error: timed_out: the run exceeded its {} ms deadline",
                options.timeout_ms.unwrap_or(0)
            );
            return ExitCode::FAILURE;
        }
    };
    if let (Some(tracer), Some(path)) = (tracer, &options.trace_out) {
        if let Err(message) = write_trace(path, tracer.finish("job")) {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    }

    eprintln!(
        "{} shots on {} threads in {:.3} s ({:.3} error events per run)",
        result.shots,
        result.threads,
        result.wall_time.as_secs_f64(),
        result.error_rate()
    );
    if options.backend == BackendKind::DecisionDiagram {
        eprintln!(
            "dd nodes: {:.1} avg final, {} peak (high-water during shots)",
            result.dd_nodes_avg, result.dd_nodes_peak
        );
    }
    if let Some(stats) = &result.dedup {
        eprintln!(
            "trajectories: {} unique / {} shots ({:.1} % dedup hit rate, {} live)",
            stats.unique_trajectories,
            result.shots,
            100.0 * result.dedup_hit_rate(),
            stats.live_shots
        );
    }
    if let Some(stats) = &result.weighted {
        eprintln!(
            "weighted: {} trajectories enumerated, covering {:.4} % of the \
             probability mass ({} tail shots for the residual)",
            stats.enumerated_trajectories,
            100.0 * stats.covered_mass,
            stats.tail_shots
        );
    }
    if options.profile {
        print_profile(&result.stage_timings);
    }

    match options.format {
        RunFormat::Json => println!("{}", run_result_json(&options, &result)),
        RunFormat::Text => {
            let mut outcomes: Vec<_> = result.counts.iter().collect();
            outcomes.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
            println!("top {} outcomes:", options.top.min(outcomes.len()));
            for (outcome, count) in outcomes.into_iter().take(options.top) {
                println!(
                    "  |{outcome:0width$b}>  {count:6}  ({:.2} %)",
                    100.0 * *count as f64 / result.shots as f64,
                    width = options.circuit.num_qubits()
                );
            }
        }
    }
    ExitCode::SUCCESS
}

/// The `--format json` result document: the full outcome (histogram,
/// error/node statistics, dedup stats, wall time, stage breakdown) as one
/// JSON object with deterministically ordered keys and counts.
fn run_result_json(options: &Options, result: &qsdd::core::StochasticOutcome) -> String {
    let mut pairs = vec![
        ("format".to_string(), Value::from("qsdd-run-result/1")),
        ("circuit".to_string(), Value::from(options.circuit.name())),
        (
            "qubits".to_string(),
            Value::from(options.circuit.num_qubits()),
        ),
        (
            "backend".to_string(),
            Value::from(match options.backend {
                BackendKind::DecisionDiagram => "dd",
                BackendKind::Statevector => "dense",
            }),
        ),
        ("seed".to_string(), Value::from(options.seed)),
        ("shots".to_string(), Value::from(result.shots)),
        ("threads".to_string(), Value::from(result.threads)),
        ("error_events".to_string(), Value::from(result.error_events)),
        ("error_rate".to_string(), Value::from(result.error_rate())),
        ("dd_nodes_avg".to_string(), Value::from(result.dd_nodes_avg)),
        (
            "dd_nodes_peak".to_string(),
            Value::from(result.dd_nodes_peak),
        ),
        (
            "wall_time_secs".to_string(),
            Value::from(result.wall_time.as_secs_f64()),
        ),
    ];
    if let Some(stats) = &result.dedup {
        pairs.push((
            "dedup".to_string(),
            Value::object(vec![
                (
                    "unique_trajectories".to_string(),
                    Value::from(stats.unique_trajectories),
                ),
                ("live_shots".to_string(), Value::from(stats.live_shots)),
            ]),
        ));
    }
    if let Some(stats) = &result.weighted {
        pairs.push((
            "weighted".to_string(),
            Value::object(vec![
                (
                    "enumerated_trajectories".to_string(),
                    Value::from(stats.enumerated_trajectories),
                ),
                ("covered_mass".to_string(), Value::from(stats.covered_mass)),
                ("tail_shots".to_string(), Value::from(stats.tail_shots)),
            ]),
        ));
    }
    pairs.push((
        "stage_seconds".to_string(),
        Value::object(
            Stage::ALL
                .iter()
                .map(|&stage| {
                    (
                        stage.name().to_string(),
                        Value::from(result.stage_timings.get(stage).as_secs_f64()),
                    )
                })
                .collect(),
        ),
    ));
    let counts: std::collections::BTreeMap<u64, u64> =
        result.counts.iter().map(|(&k, &v)| (k, v)).collect();
    pairs.push((
        "counts".to_string(),
        Value::Array(
            counts
                .into_iter()
                .map(|(outcome, count)| {
                    Value::object(vec![
                        ("outcome".to_string(), Value::from(outcome)),
                        ("count".to_string(), Value::from(count)),
                    ])
                })
                .collect(),
        ),
    ));
    Value::object(pairs).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_generate_command_with_flags() {
        let options = parse_args(&args(&[
            "generate",
            "ghz",
            "12",
            "--shots",
            "50",
            "--backend",
            "dense",
            "--noiseless",
            "--top",
            "3",
        ]))
        .unwrap();
        assert_eq!(options.circuit.num_qubits(), 12);
        assert_eq!(options.shots, 50);
        assert_eq!(options.backend, BackendKind::Statevector);
        assert!(options.noise.is_noiseless());
        assert_eq!(options.top, 3);
    }

    #[test]
    fn parses_noise_overrides() {
        let options = parse_args(&args(&[
            "generate",
            "qft",
            "5",
            "--depolarizing",
            "0.01",
            "--damping",
            "0.02",
            "--phaseflip",
            "0.03",
        ]))
        .unwrap();
        assert!((options.noise.depolarizing_prob() - 0.01).abs() < 1e-12);
        assert!((options.noise.amplitude_damping_prob() - 0.02).abs() < 1e-12);
        assert!((options.noise.phase_flip_prob() - 0.03).abs() < 1e-12);
    }

    #[test]
    fn rejects_unknown_flags_and_commands() {
        assert!(parse_args(&args(&["explode"])).is_err());
        assert!(parse_args(&args(&["generate", "ghz", "4", "--wat"])).is_err());
        assert!(parse_args(&args(&["generate", "nope", "4"])).is_err());
        assert!(parse_args(&args(&["generate", "ghz", "four"])).is_err());
        assert!(parse_args(&args(&["run"])).is_err());
    }

    #[test]
    fn rejects_invalid_probability() {
        let result = parse_args(&args(&["generate", "ghz", "4", "--damping", "1.5"]));
        assert!(result.is_err());
    }

    #[test]
    fn parses_opt_level_and_verify_flag() {
        let options = parse_args(&args(&[
            "generate",
            "qft",
            "6",
            "--opt",
            "2",
            "--verify-opt",
        ]))
        .unwrap();
        assert_eq!(options.opt, OptLevel::O2);
        assert!(options.verify_opt);
        let defaults = parse_args(&args(&["generate", "qft", "6"])).unwrap();
        assert_eq!(defaults.opt, OptLevel::O0);
        assert!(!defaults.verify_opt);
    }

    #[test]
    fn parses_the_no_dedup_escape_hatch() {
        let defaults = parse_args(&args(&["generate", "ghz", "4"])).unwrap();
        assert!(defaults.dedup, "dedup must default on");
        let off = parse_args(&args(&["generate", "ghz", "4", "--no-dedup"])).unwrap();
        assert!(!off.dedup);
        let batch_defaults = parse_batch_args(&args(&["jobs.txt"])).unwrap();
        assert!(batch_defaults.dedup);
        let batch_off = parse_batch_args(&args(&["jobs.txt", "--no-dedup"])).unwrap();
        assert!(!batch_off.dedup);
    }

    #[test]
    fn parses_profile_and_run_format_flags() {
        let defaults = parse_args(&args(&["generate", "ghz", "4"])).unwrap();
        assert!(!defaults.profile);
        assert_eq!(defaults.format, RunFormat::Text);
        let options = parse_args(&args(&[
            "generate",
            "ghz",
            "4",
            "--profile",
            "--format",
            "json",
        ]))
        .unwrap();
        assert!(options.profile);
        assert_eq!(options.format, RunFormat::Json);
        assert!(parse_args(&args(&["generate", "ghz", "4", "--format", "xml"])).is_err());
        assert!(parse_args(&args(&["generate", "ghz", "4", "--format"])).is_err());

        let batch_defaults = parse_batch_args(&args(&["jobs.txt"])).unwrap();
        assert!(!batch_defaults.profile);
        let batch_on = parse_batch_args(&args(&["jobs.txt", "--profile"])).unwrap();
        assert!(batch_on.profile);
    }

    #[test]
    fn parses_weighted_flags() {
        let defaults = parse_args(&args(&["generate", "ghz", "4"])).unwrap();
        assert!(defaults.weighted.is_none());
        let on = parse_args(&args(&["generate", "ghz", "4", "--weighted"])).unwrap();
        assert_eq!(on.weighted, Some(WeightedOptions::default()));
        let tuned = parse_args(&args(&[
            "generate",
            "ghz",
            "4",
            "--weighted",
            "--mass-cutoff",
            "0.75",
            "--max-patterns",
            "64",
            "--exact-histogram",
        ]))
        .unwrap();
        let options = tuned.weighted.unwrap();
        assert_eq!(options.mass_cutoff, 0.75);
        assert_eq!(options.max_patterns, 64);
        assert!(options.exact_histogram);
        // Tuning knobs without the mode are an error, not a silent no-op.
        let err = parse_args(&args(&["generate", "ghz", "4", "--mass-cutoff", "0.5"])).unwrap_err();
        assert!(err.contains("requires --weighted"), "{err}");
        let err = parse_args(&args(&["generate", "ghz", "4", "--exact-histogram"])).unwrap_err();
        assert!(err.contains("requires --weighted"), "{err}");
        assert!(parse_args(&args(&[
            "generate",
            "ghz",
            "4",
            "--weighted",
            "--mass-cutoff",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "generate",
            "ghz",
            "4",
            "--weighted",
            "--mass-cutoff",
            "1.5"
        ]))
        .is_err());
    }

    #[test]
    fn parses_intra_threads_on_run_and_batch() {
        let defaults = parse_args(&args(&["generate", "ghz", "4"])).unwrap();
        assert_eq!(defaults.intra_threads, 1);
        let wide = parse_args(&args(&["generate", "ghz", "4", "--intra-threads", "4"])).unwrap();
        assert_eq!(wide.intra_threads, 4);
        // Run mode has no borrow-idle-workers auto mode: 0 is an error, not
        // a silent serial run.
        let err = parse_args(&args(&["generate", "ghz", "4", "--intra-threads", "0"])).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        assert!(parse_args(&args(&["generate", "ghz", "4", "--intra-threads"])).is_err());

        let batch_defaults = parse_batch_args(&args(&["jobs.txt"])).unwrap();
        assert_eq!(batch_defaults.intra_threads, 1);
        // Batch mode does: 0 lends idle shot-workers to big jobs.
        let auto = parse_batch_args(&args(&["jobs.txt", "--intra-threads", "0"])).unwrap();
        assert_eq!(auto.intra_threads, 0);
        let wide = parse_batch_args(&args(&["jobs.txt", "--intra-threads", "2"])).unwrap();
        assert_eq!(wide.intra_threads, 2);
    }

    #[test]
    fn rejects_unknown_opt_level() {
        assert!(parse_args(&args(&["generate", "ghz", "4", "--opt", "9"])).is_err());
        assert!(parse_args(&args(&["generate", "ghz", "4", "--opt"])).is_err());
    }

    #[test]
    fn parses_batch_flags() {
        let options = parse_batch_args(&args(&[
            "jobs.txt",
            "--out",
            "report.json",
            "--format",
            "json",
            "--threads",
            "4",
        ]))
        .unwrap();
        assert_eq!(options.jobfile, "jobs.txt");
        assert_eq!(options.out.as_deref(), Some("report.json"));
        assert_eq!(options.format, ReportFormat::Json);
        assert_eq!(options.threads, 4);
    }

    #[test]
    fn batch_format_is_inferred_from_the_out_extension() {
        let csv = parse_batch_args(&args(&["jobs.txt", "--out", "r.csv"])).unwrap();
        assert_eq!(csv.format, ReportFormat::Csv);
        let json = parse_batch_args(&args(&["jobs.txt", "--out", "r.json"])).unwrap();
        assert_eq!(json.format, ReportFormat::Json);
        let bare = parse_batch_args(&args(&["jobs.txt"])).unwrap();
        assert_eq!(bare.format, ReportFormat::Json);
        assert_eq!(bare.threads, 0);
    }

    #[test]
    fn unknown_subcommands_name_themselves_not_a_flag() {
        // Regression: `qsdd_cli serev` used to fall through to run-mode
        // parsing and die with a misleading flag error.
        let err = classify_command(Some("serev")).unwrap_err();
        assert!(err.contains("unknown subcommand `serev`"), "{err}");
        assert!(err.contains("run|generate|batch|serve|help"), "{err}");
        assert_eq!(classify_command(None).unwrap_err(), "missing subcommand");
        for (word, expected) in [
            ("run", Command::RunOrGenerate),
            ("generate", Command::RunOrGenerate),
            ("batch", Command::Batch),
            ("serve", Command::Serve),
            ("help", Command::Help),
            ("--help", Command::Help),
        ] {
            assert_eq!(classify_command(Some(word)).unwrap(), expected);
        }
    }

    #[test]
    fn parses_serve_flags_with_defaults() {
        let defaults = parse_serve_args(&args(&[])).unwrap();
        assert_eq!(defaults.addr, "127.0.0.1:8080");
        assert_eq!(defaults.threads, 0);
        assert_eq!(defaults.cache_entries, 1024);
        assert_eq!(defaults.queue_depth, 256);
        assert_eq!(defaults.store_dir, None);
        let custom = parse_serve_args(&args(&[
            "--addr",
            "0.0.0.0:9000",
            "--threads",
            "4",
            "--cache-entries",
            "64",
            "--queue-depth",
            "16",
            "--store-dir",
            "/tmp/results",
        ]))
        .unwrap();
        assert_eq!(custom.addr, "0.0.0.0:9000");
        assert_eq!(custom.threads, 4);
        assert_eq!(custom.cache_entries, 64);
        assert_eq!(custom.queue_depth, 16);
        assert_eq!(custom.store_dir.as_deref(), Some("/tmp/results"));
    }

    #[test]
    fn serve_rejects_bad_invocations() {
        assert!(parse_serve_args(&args(&["--wat"])).is_err());
        assert!(parse_serve_args(&args(&["--addr"])).is_err());
        assert!(parse_serve_args(&args(&["--cache-entries", "0"])).is_err());
        assert!(parse_serve_args(&args(&["--queue-depth", "0"])).is_err());
        assert!(parse_serve_args(&args(&["--threads", "x"])).is_err());
        assert!(parse_serve_args(&args(&["--store-dir"])).is_err());
    }

    #[test]
    fn parses_the_run_timeout_flag() {
        let defaults = parse_args(&args(&["generate", "ghz", "4"])).unwrap();
        assert_eq!(defaults.timeout_ms, None);
        let bounded = parse_args(&args(&["generate", "ghz", "4", "--timeout", "2500"])).unwrap();
        assert_eq!(bounded.timeout_ms, Some(2500));
        assert!(parse_args(&args(&["generate", "ghz", "4", "--timeout", "0"])).is_err());
        assert!(parse_args(&args(&["generate", "ghz", "4", "--timeout"])).is_err());
    }

    #[test]
    fn parses_the_trace_out_flag_on_run_and_batch() {
        let defaults = parse_args(&args(&["generate", "ghz", "4"])).unwrap();
        assert_eq!(defaults.trace_out, None);
        let traced = parse_args(&args(&["generate", "ghz", "4", "--trace-out", "t.json"])).unwrap();
        assert_eq!(traced.trace_out.as_deref(), Some("t.json"));
        assert!(parse_args(&args(&["generate", "ghz", "4", "--trace-out"])).is_err());

        let batch_defaults = parse_batch_args(&args(&["jobs.txt"])).unwrap();
        assert_eq!(batch_defaults.trace_out, None);
        let batch_traced =
            parse_batch_args(&args(&["jobs.txt", "--trace-out", "batch.json"])).unwrap();
        assert_eq!(batch_traced.trace_out.as_deref(), Some("batch.json"));
        assert!(parse_batch_args(&args(&["jobs.txt", "--trace-out"])).is_err());
    }

    #[test]
    fn batch_rejects_bad_invocations() {
        assert!(parse_batch_args(&args(&[])).is_err());
        assert!(parse_batch_args(&args(&["jobs.txt", "--format", "xml"])).is_err());
        assert!(parse_batch_args(&args(&["jobs.txt", "--wat"])).is_err());
        assert!(parse_batch_args(&args(&["jobs.txt", "--out"])).is_err());
    }
}
