//! The repository benchmark.
//!
//! One command runs one named workload through the system's real entry
//! points and prints, as the last line of standard output, a JSON object
//! with the correctness verdict, the attempted and failed operation counts
//! and the metrics:
//!
//! ```text
//! perfbench --workload <ghz_sweep|qft_dd|qft_dense> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the program's own
//! tracing in its default state; `--trace 1` is the separate traced run
//! that times the benchmark's calls into each layer's public functions and
//! reads the public counters. See `README.md` for every metric's definition.

mod checks;
mod layers;
mod meta;
mod serve;
mod sim;
mod stats;

use std::process::ExitCode;
use std::time::Duration;

use checks::Checks;

/// Command-line arguments of one benchmark run.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name (see [`WORKLOADS`]).
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measurement budget of the run.
    pub seconds: Duration,
    /// `true` for the traced per-layer run.
    pub trace: bool,
}

/// The workloads this benchmark defines.
pub const WORKLOADS: [&str; 3] = ["ghz_sweep", "qft_dd", "qft_dense"];

/// One reported metric: name, value and unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back: its metrics (in report order) and the
/// operations it attempted, with their failures, in `checks`.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub checks: Checks,
}

impl Outcome {
    pub fn new(checks: Checks) -> Self {
        Outcome {
            metrics: Vec::new(),
            checks,
        }
    }

    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = raw.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let secs = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&secs) {
                    return Err("--seconds must be within 1..=600".into());
                }
                seconds = Some(Duration::from_secs(secs));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, every value with all its digits.
fn result_line(outcome: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(outcome.metrics.len());
    for metric in &outcome.metrics {
        if !metric.value.is_finite() {
            return Err(format!("metric {} is not finite", metric.name));
        }
        metrics.push(format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            metric.name, metric.value, metric.unit
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.checks.failed() == 0,
        outcome.checks.attempted(),
        outcome.checks.failed(),
        metrics.join(",")
    ))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let metadata = match meta::collect() {
        Ok(metadata) => metadata,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# workload={} seed={} seconds={} trace={} {}",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace),
        metadata
    );
    let steal_before = meta::cpu_steal_s();
    let mut outcome = match sim::run(&args.workload, &args) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(1);
        }
    };
    if !args.trace {
        outcome.push("peak_rss_mb", meta::peak_rss_mb(), "MB");
    }
    // Steal shows when the machine, not the program, slowed a run down.
    println!(
        "# cpu_steal_s={:.2} (all CPUs, during the run)",
        meta::cpu_steal_s() - steal_before
    );
    match result_line(&outcome) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_invocation() {
        let args = parse_args(&strings(&[
            "--workload",
            "qft_dd",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload, "qft_dd");
        assert_eq!(args.seed, 7);
        assert_eq!(args.seconds, Duration::from_secs(12));
        assert!(args.trace);
    }

    #[test]
    fn rejects_unknown_workloads_and_bad_trace_values() {
        let base = ["--seed", "1", "--seconds", "5", "--trace", "0"];
        let mut unknown = strings(&["--workload", "nope"]);
        unknown.extend(strings(&base));
        assert!(parse_args(&unknown).is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "qft_dd",
            "--seed",
            "1",
            "--seconds",
            "5",
            "--trace",
            "2"
        ]))
        .is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut checks = Checks::new();
        checks.check("ok", true, String::new);
        let mut outcome = Outcome::new(checks);
        outcome.push("setup_s", 0.25, "s");
        let line = result_line(&outcome).unwrap();
        let value = qsdd_json::parse(&line).unwrap();
        assert_eq!(value.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(value.get("attempted").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(value.get("failed").and_then(|v| v.as_u64()), Some(0));
        let setup = value.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(|v| v.as_f64()), Some(0.25));
        assert_eq!(setup.get("unit").and_then(|v| v.as_str()), Some("s"));
    }
}
