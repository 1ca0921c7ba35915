//! A job cut off by its deadline leaves the caller's execution context
//! reusable.
//!
//! The server runs every job of a worker on that worker's one long-lived
//! [`ExecContext`] and keeps serving after a `timed_out` job, so the next
//! job on the same context must be byte-identical to the same job on a
//! fresh context: histogram, dedup statistics and the bit patterns of the
//! observable sums — on both back-ends, in dedup and per-shot mode.

use std::time::Duration;

use qsdd::circuit::generators::qft;
use qsdd::core::{
    execute, BackendKind, Deadline, ExecContext, Observable, OptLevel, RunMode, RunPlan,
    ShotEngine, TimedOut,
};
use qsdd::noise::NoiseModel;

#[test]
fn a_timed_out_job_leaves_the_context_reusable() {
    let observables = [
        Observable::BasisProbability(0),
        Observable::QubitExcitation(3),
    ];
    for backend in [BackendKind::DecisionDiagram, BackendKind::Statevector] {
        // Paper noise on QFT-12: damping sends most trajectories live, so
        // the job is far longer than its budget and is cut between items.
        let engine = ShotEngine::new(
            &qft(12),
            backend,
            NoiseModel::paper_defaults(),
            12,
            OptLevel::O0,
        );
        for mode in [RunMode::Dedup, RunMode::PerShot] {
            let label = format!("{backend} {mode:?}");
            let mut ctx = ExecContext::new();
            let cut = RunPlan {
                deadline: Deadline::within(Duration::from_millis(20)),
                ..RunPlan::new(400, 1, mode.clone())
            };
            let timed_out = execute(&engine, &mut ctx, &cut, &observables);
            assert_eq!(timed_out.unwrap_err(), TimedOut, "{label}");

            let next = RunPlan::new(16, 1, mode);
            let reused = execute(&engine, &mut ctx, &next, &observables).unwrap();
            let fresh = execute(&engine, &mut ExecContext::new(), &next, &observables).unwrap();
            assert_eq!(reused.counts, fresh.counts, "{label}");
            assert_eq!(reused.dedup, fresh.dedup, "{label}");
            assert_eq!(reused.error_events, fresh.error_events, "{label}");
            assert_eq!(reused.dd_nodes_peak, fresh.dd_nodes_peak, "{label}");
            for (a, b) in reused
                .observable_estimates
                .iter()
                .zip(&fresh.observable_estimates)
            {
                assert_eq!(a.to_bits(), b.to_bits(), "{label}: observable sum");
            }
        }
    }
}
