//! Support library for the benchmark harness.
//!
//! The binaries in `src/bin/` regenerate the tables of the paper's
//! evaluation section (Table Ia, Ib, Ic plus the Theorem 1 and ablation
//! experiments); the Criterion benchmarks in `benches/` time individual
//! components (single runs, the compute table, transpilation, the batch
//! scheduler, context reuse, deduplication). This library holds the shared machinery: per-cell execution with a wall-clock
//! budget, the baseline/proposed pairing, and table formatting.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod server_load;

use std::time::{Duration, Instant};

use qsdd_circuit::Circuit;
use qsdd_core::{BackendKind, StochasticSimulator};
use qsdd_noise::NoiseModel;

/// Which engine a table cell is measured with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// The dense statevector baseline (the "Qiskit"/"QLM" columns).
    Dense,
    /// The decision-diagram simulator (the "Proposed" column).
    DecisionDiagram,
}

impl Engine {
    /// Column label used in the printed tables.
    pub fn label(self) -> &'static str {
        match self {
            Engine::Dense => "Dense baseline [s]",
            Engine::DecisionDiagram => "Proposed (DD) [s]",
        }
    }
}

/// The result of measuring one table cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CellOutcome {
    /// Completed within the budget; wall-clock seconds for the full shot
    /// count.
    Seconds(f64),
    /// Aborted: the run exceeded the wall-clock budget (seconds shown are
    /// the budget, mirroring the ">3600" entries of the paper).
    TimedOut(f64),
    /// Not attempted (e.g. the dense representation would not fit in
    /// memory).
    Skipped,
}

impl CellOutcome {
    /// Formats the cell like the paper's tables (`12.34`, `>60`, `-`).
    pub fn format(&self) -> String {
        match self {
            CellOutcome::Seconds(s) => format!("{s:.2}"),
            CellOutcome::TimedOut(budget) => format!(">{budget:.0}"),
            CellOutcome::Skipped => "-".to_string(),
        }
    }

    /// The measured seconds, if the cell completed.
    pub fn seconds(&self) -> Option<f64> {
        match self {
            CellOutcome::Seconds(s) => Some(*s),
            _ => None,
        }
    }
}

/// Configuration of a table regeneration run.
#[derive(Clone, Copy, Debug)]
pub struct HarnessConfig {
    /// Stochastic runs per cell. The paper uses 30 000; the default here is
    /// far smaller so the tables regenerate in minutes — runtime scales
    /// linearly in this value (Section III), so the comparison shape is
    /// unchanged.
    pub shots: usize,
    /// Per-cell wall-clock budget.
    pub budget: Duration,
    /// Worker threads for the proposed simulator (0 = all cores).
    pub threads: usize,
    /// Largest qubit count attempted with the dense baseline.
    pub dense_limit: usize,
    /// Noise model applied after every gate.
    pub noise: NoiseModel,
    /// Master seed.
    pub seed: u64,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            shots: 200,
            budget: Duration::from_secs(30),
            threads: 0,
            dense_limit: 22,
            noise: NoiseModel::paper_defaults(),
            seed: 2021,
        }
    }
}

impl HarnessConfig {
    /// Reads overrides from environment variables (`QSDD_SHOTS`,
    /// `QSDD_BUDGET_SECS`, `QSDD_THREADS`, `QSDD_DENSE_LIMIT`).
    pub fn from_env() -> Self {
        let mut config = HarnessConfig::default();
        if let Some(shots) = read_env("QSDD_SHOTS") {
            config.shots = shots;
        }
        if let Some(budget) = read_env("QSDD_BUDGET_SECS") {
            config.budget = Duration::from_secs(budget as u64);
        }
        if let Some(threads) = read_env("QSDD_THREADS") {
            config.threads = threads;
        }
        if let Some(limit) = read_env("QSDD_DENSE_LIMIT") {
            config.dense_limit = limit;
        }
        config
    }
}

fn read_env(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

/// Measures one table cell: `shots` stochastic runs of `circuit` with the
/// selected engine, aborting once the wall-clock budget is exceeded.
///
/// The budget is checked between chunks of shots, so the reported timeout is
/// conservative (like the 1-hour limit in the paper).
pub fn run_cell(engine: Engine, circuit: &Circuit, config: &HarnessConfig) -> CellOutcome {
    if engine == Engine::Dense && circuit.num_qubits() > config.dense_limit {
        return CellOutcome::Skipped;
    }
    // The dense baseline runs on one worker.
    let (backend, threads) = match engine {
        Engine::Dense => (BackendKind::Statevector, 1),
        Engine::DecisionDiagram => (BackendKind::DecisionDiagram, config.threads),
    };
    let started = Instant::now();
    let chunk = (config.shots / 20).max(1);
    let mut done = 0usize;
    while done < config.shots {
        let this_chunk = chunk.min(config.shots - done);
        StochasticSimulator::new()
            .with_backend(backend)
            .with_shots(this_chunk)
            .with_threads(threads)
            .with_seed(config.seed.wrapping_add(done as u64))
            .with_noise(config.noise)
            .run(circuit);
        done += this_chunk;
        if started.elapsed() > config.budget {
            return CellOutcome::TimedOut(config.budget.as_secs_f64());
        }
    }
    CellOutcome::Seconds(started.elapsed().as_secs_f64())
}

/// Prints a table header with the standard columns.
pub fn print_header(first_column: &str) {
    println!(
        "{first_column:>16} {:>20} {:>20} {:>10}",
        Engine::Dense.label(),
        Engine::DecisionDiagram.label(),
        "speedup"
    );
}

/// Prints one table row and returns the (baseline, proposed) outcomes.
pub fn print_row(
    label: &str,
    circuit: &Circuit,
    config: &HarnessConfig,
) -> (CellOutcome, CellOutcome) {
    let dense = run_cell(Engine::Dense, circuit, config);
    let proposed = run_cell(Engine::DecisionDiagram, circuit, config);
    let speedup = match (dense.seconds(), proposed.seconds()) {
        (Some(a), Some(b)) if b > 0.0 => format!("{:.1}x", a / b),
        (None, Some(_)) => ">limit".to_string(),
        _ => "-".to_string(),
    };
    println!(
        "{label:>16} {:>20} {:>20} {:>10}",
        dense.format(),
        proposed.format(),
        speedup
    );
    (dense, proposed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsdd_circuit::generators::ghz;

    #[test]
    fn cell_outcome_formatting() {
        assert_eq!(CellOutcome::Seconds(1.234).format(), "1.23");
        assert_eq!(CellOutcome::TimedOut(60.0).format(), ">60");
        assert_eq!(CellOutcome::Skipped.format(), "-");
        assert_eq!(CellOutcome::Seconds(2.0).seconds(), Some(2.0));
        assert_eq!(CellOutcome::Skipped.seconds(), None);
    }

    #[test]
    fn dense_cells_above_the_limit_are_skipped() {
        let config = HarnessConfig {
            shots: 1,
            dense_limit: 10,
            ..HarnessConfig::default()
        };
        let outcome = run_cell(Engine::Dense, &ghz(12), &config);
        assert_eq!(outcome, CellOutcome::Skipped);
    }

    #[test]
    fn small_cells_complete_within_budget() {
        let config = HarnessConfig {
            shots: 5,
            budget: Duration::from_secs(20),
            ..HarnessConfig::default()
        };
        let outcome = run_cell(Engine::DecisionDiagram, &ghz(8), &config);
        assert!(matches!(outcome, CellOutcome::Seconds(_)));
    }

    #[test]
    fn tiny_budget_reports_timeout() {
        let config = HarnessConfig {
            shots: 2000,
            budget: Duration::from_millis(1),
            ..HarnessConfig::default()
        };
        let outcome = run_cell(Engine::DecisionDiagram, &ghz(20), &config);
        assert!(matches!(outcome, CellOutcome::TimedOut(_)));
    }
}
