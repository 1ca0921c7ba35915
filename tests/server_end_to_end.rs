//! Loopback integration tests of the `qsdd-server` HTTP service.
//!
//! Everything here talks to a real listener over real TCP: submissions,
//! polling, request coalescing, cache behaviour, backpressure and
//! end-to-end equivalence with direct library execution (the path
//! `qsdd_cli run` drives).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use qsdd::batch::{JobReport, JobStatus};
use qsdd::circuit::generators::ghz;
use qsdd::core::{
    execute, BackendKind, ExecContext, OptLevel, RunMode, RunPlan, ShotEngine, StochasticSimulator,
};
use qsdd::json::{self, Value};
use qsdd::noise::NoiseModel;
use qsdd::server::{client, Server, ServerConfig};

/// Boots a server with `threads` simulation workers on an ephemeral port.
fn boot(threads: usize) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads,
        ..ServerConfig::default()
    })
    .expect("bind loopback")
}

/// Polls `GET /v1/jobs/<id>` until the job reaches a terminal state;
/// returns the full envelope JSON.
fn poll_job(addr: std::net::SocketAddr, id: &str) -> Value {
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut session = client::Client::connect(addr).expect("connect");
    loop {
        let (status, body) = session
            .request("GET", &format!("/v1/jobs/{id}"), None)
            .expect("poll");
        assert_eq!(status, 200, "poll failed: {body}");
        let envelope = json::parse(&body).expect("envelope json");
        match envelope.get("status").and_then(Value::as_str) {
            Some("completed") | Some("failed") => return envelope,
            _ => {
                assert!(Instant::now() < deadline, "job {id} never finished");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Extracts the raw `"result"` object of a completed envelope as compact
/// JSON text (the byte-comparable payload).
fn result_text(envelope: &Value) -> String {
    envelope
        .get("result")
        .expect("completed jobs carry a result")
        .to_string()
}

#[test]
fn healthz_stats_and_unknown_routes() {
    let server = boot(1);
    let addr = server.addr();
    let (status, body) = client::request(addr, "GET", "/v1/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, r#"{"status":"ok"}"#);

    let (status, body) = client::request(addr, "GET", "/v1/stats", None).unwrap();
    assert_eq!(status, 200);
    let stats = json::parse(&body).unwrap();
    assert_eq!(stats.get("jobs_accepted").and_then(Value::as_u64), Some(0));
    assert!(stats.get("uptime_secs").and_then(Value::as_f64).is_some());

    let (status, _) = client::request(addr, "GET", "/v1/nope", None).unwrap();
    assert_eq!(status, 404);
    let (status, _) = client::request(addr, "DELETE", "/v1/jobs", None).unwrap();
    assert_eq!(status, 405);
    let (status, body) = client::request(addr, "POST", "/v1/jobs", Some("{not json")).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("error"));
    let (status, _) = client::request(addr, "GET", "/v1/jobs/jdeadbeef", None).unwrap();
    assert_eq!(status, 404);
    server.shutdown_and_join();
}

#[test]
fn http_report_is_byte_identical_to_direct_execution() {
    // The acceptance contract: for a fixed (circuit, noise, seed, shots,
    // backend), the report served over HTTP equals the library run that
    // `qsdd_cli run` performs — histogram, error counts, node statistics
    // and dedup stats, byte for byte through the same JSON writer.
    let server = boot(2);
    let addr = server.addr();
    let body = r#"{"circuit":{"generator":"ghz","qubits":6},"shots":400,"seed":11}"#;
    let (status, response) = client::request(addr, "POST", "/v1/jobs", Some(body)).unwrap();
    assert_eq!(status, 202, "{response}");
    let id = json::parse(&response)
        .unwrap()
        .get("id")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();
    let envelope = poll_job(addr, &id);
    let via_http = JobReport::from_value(envelope.get("result").unwrap()).expect("report parses");

    // The same simulation, directly through the simulator facade (the
    // engine `qsdd_cli run` drives), with the server's defaults.
    let outcome = StochasticSimulator::new()
        .with_backend(BackendKind::DecisionDiagram)
        .with_shots(400)
        .with_seed(11)
        .with_noise(NoiseModel::paper_defaults())
        .run(&ghz(6));
    let reference = JobReport {
        // The payload names the job by its content address (pure function
        // of the canonical key), which is also the id we polled.
        name: qsdd::server::parse_job_request(body)
            .unwrap()
            .content_address(),
        backend: "dd".to_string(),
        status: JobStatus::Completed,
        qubits: 6,
        shots_requested: 400,
        shots_executed: 400,
        early_stopped: false,
        counts: outcome
            .counts
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect::<BTreeMap<u64, u64>>(),
        error_events: outcome.error_events,
        dd_nodes_avg: outcome.dd_nodes_avg,
        dd_nodes_peak: outcome.dd_nodes_peak,
        unique_trajectories: outcome.dedup.as_ref().unwrap().unique_trajectories,
        dedup_hit_rate: outcome.dedup_hit_rate(),
        covered_mass: 0.0,
        enumerated_trajectories: 0,
        wall_time: Duration::ZERO,
        stage_timings: Default::default(),
    };
    assert_eq!(via_http.results_json(), reference.results_json());
    // The dedup extension field matches too.
    assert_eq!(
        envelope
            .get("result")
            .unwrap()
            .get("live_shots")
            .and_then(Value::as_u64),
        Some(outcome.dedup.as_ref().unwrap().live_shots)
    );
    // The envelope carries the per-stage `timings` breakdown: every stage
    // key plus the total, in seconds — and the cached result payload stays
    // timing-free (timings are per-envelope, not part of the byte-stable
    // payload).
    let timings = envelope.get("timings").expect("envelope carries timings");
    for stage in [
        "parse",
        "transpile",
        "compile",
        "presample",
        "group",
        "execute",
        "aggregate",
        "cache_lookup",
        "queue_wait",
        "total",
    ] {
        assert!(
            timings.get(stage).and_then(Value::as_f64).is_some(),
            "timings missing `{stage}`: {timings:?}"
        );
    }
    assert!(
        timings.get("execute").and_then(Value::as_f64).unwrap() > 0.0,
        "a 400-shot job must report execute time"
    );
    assert!(
        timings.get("total").and_then(Value::as_f64).unwrap()
            >= timings.get("execute").and_then(Value::as_f64).unwrap()
    );
    assert!(
        envelope
            .get("result")
            .unwrap()
            .get("stage_seconds")
            .is_none(),
        "the cacheable payload must stay timing-free"
    );

    // The envelope echoes the normalized circuit.
    let qasm = envelope
        .get("circuit_qasm")
        .and_then(Value::as_str)
        .expect("ghz is expressible");
    assert!(qasm.starts_with("OPENQASM 2.0;"), "{qasm}");
    assert_eq!(
        qsdd::circuit::qasm::parse_source(qasm)
            .unwrap()
            .operations(),
        ghz(6).operations()
    );
    server.shutdown_and_join();
}

#[test]
fn observable_sums_match_the_serial_runner_bit_for_bit() {
    let server = boot(1);
    let addr = server.addr();
    let body = r#"{"circuit":{"generator":"ghz","qubits":5},"shots":300,"seed":21,
                   "observables":[{"basis_probability":0},{"qubit_excitation":2}]}"#;
    let (status, response) = client::request(addr, "POST", "/v1/jobs", Some(body)).unwrap();
    assert_eq!(status, 202, "{response}");
    let id = json::parse(&response)
        .unwrap()
        .get("id")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();
    let envelope = poll_job(addr, &id);
    let estimates: Vec<f64> = envelope
        .get("result")
        .unwrap()
        .get("observable_estimates")
        .and_then(Value::as_array)
        .expect("estimates present")
        .iter()
        .map(|v| v.as_f64().unwrap())
        .collect();

    // Server workers execute serially; the reference is the one-thread
    // deduplicating runner, which is bit-stable.
    let engine = ShotEngine::new(
        &ghz(5),
        BackendKind::DecisionDiagram,
        NoiseModel::paper_defaults(),
        21,
        OptLevel::O0,
    );
    let reference = execute(
        &engine,
        &mut ExecContext::new(),
        &RunPlan::new(300, 1, RunMode::Dedup),
        &[
            qsdd::core::Observable::BasisProbability(0),
            qsdd::core::Observable::QubitExcitation(2),
        ],
    )
    .unwrap();
    assert_eq!(estimates.len(), 2);
    for (http, direct) in estimates.iter().zip(&reference.observable_estimates) {
        assert_eq!(http.to_bits(), direct.to_bits(), "sums drifted over HTTP");
    }
    server.shutdown_and_join();
}

#[test]
fn concurrent_identical_submissions_coalesce_to_one_simulation() {
    // Satellite: N concurrent identical POSTs trigger exactly one
    // simulation and every response is byte-identical to the uncached
    // result — across 1, 2 and 8 server threads.
    let body = r#"{"circuit":{"generator":"ghz","qubits":8},"shots":2000,"seed":5}"#;

    // The uncached reference: the same job executed directly (fresh
    // process-local state, no cache involved).
    let input = qsdd::server::parse_job_request(body).unwrap();
    let engine = ShotEngine::new(
        &input.circuit,
        input.backend,
        input.noise,
        input.seed,
        input.opt,
    );
    let reference = qsdd::server::result_payload(
        &input,
        &qsdd::core::run_engine_in(&engine, &mut engine.new_context(), input.shots, &[], true),
    );

    for threads in [1usize, 2, 8] {
        let server = boot(threads);
        let addr = server.addr();
        let clients = 16;
        let barrier = Arc::new(Barrier::new(clients));
        let results: Vec<(String, String)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let barrier = Arc::clone(&barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        let (status, response) =
                            client::request(addr, "POST", "/v1/jobs", Some(body)).unwrap();
                        assert!(status == 200 || status == 202, "unexpected {status}");
                        let id = json::parse(&response)
                            .unwrap()
                            .get("id")
                            .and_then(Value::as_str)
                            .unwrap()
                            .to_string();
                        let envelope = poll_job(addr, &id);
                        (id, result_text(&envelope))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        // Content addressing: every submission resolved to the same job id,
        // and every result equals the uncached reference byte for byte.
        for (id, result) in &results {
            assert_eq!(id, &results[0].0, "ids diverged at {threads} threads");
            assert_eq!(
                result, &reference,
                "result bytes diverged at {threads} threads"
            );
        }
        let (_, stats) = client::request(addr, "GET", "/v1/stats", None).unwrap();
        let stats = json::parse(&stats).unwrap();
        assert_eq!(
            stats.get("simulations").and_then(Value::as_u64),
            Some(1),
            "exactly one simulation at {threads} threads"
        );
        assert_eq!(
            stats.get("jobs_accepted").and_then(Value::as_u64),
            Some(clients as u64)
        );
        let coalesced = stats.get("coalesced").and_then(Value::as_u64).unwrap();
        let hits = stats.get("cache_hits").and_then(Value::as_u64).unwrap();
        assert_eq!(coalesced + hits, clients as u64 - 1);
        server.shutdown_and_join();
    }
}

#[test]
fn load_test_64_concurrent_clients_with_cache_hits() {
    // Acceptance: >= 64 concurrent clients, zero dropped or incorrect
    // responses, and a nonzero cache hit rate on the repeated workload.
    let server = boot(4);
    let addr = server.addr();
    let clients = 64;
    let distinct_jobs = 8;
    let waves = 2;
    let failures = Arc::new(AtomicU64::new(0));
    let mut first_wave: Vec<Option<String>> = vec![None; distinct_jobs];

    for wave in 0..waves {
        let barrier = Arc::new(Barrier::new(clients));
        let results: Vec<(usize, String)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|client_index| {
                    let barrier = Arc::clone(&barrier);
                    let failures = Arc::clone(&failures);
                    scope.spawn(move || {
                        let job = client_index % distinct_jobs;
                        let body = format!(
                            r#"{{"circuit":{{"generator":"ghz","qubits":7}},"shots":500,"seed":{job}}}"#
                        );
                        barrier.wait();
                        // Submit through the bounded-backoff retry helper:
                        // a 64-client stampede may transiently fill the
                        // queue, and 429s are an invitation to retry, not
                        // a dropped response.
                        let (status, _, response) = client::with_retry(
                            5,
                            Duration::from_millis(10),
                            client_index as u64,
                            || {
                                client::Client::connect(addr)?.request_with_headers(
                                    "POST",
                                    "/v1/jobs",
                                    Some(&body),
                                )
                            },
                        )
                        .unwrap();
                        if status != 200 && status != 202 {
                            failures.fetch_add(1, Ordering::SeqCst);
                            return (job, String::new());
                        }
                        let id = json::parse(&response)
                            .unwrap()
                            .get("id")
                            .and_then(Value::as_str)
                            .unwrap()
                            .to_string();
                        let envelope = poll_job(addr, &id);
                        if envelope.get("status").and_then(Value::as_str) != Some("completed") {
                            failures.fetch_add(1, Ordering::SeqCst);
                            return (job, String::new());
                        }
                        (job, result_text(&envelope))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        assert_eq!(failures.load(Ordering::SeqCst), 0, "dropped responses");
        for (job, result) in results {
            assert!(!result.is_empty(), "missing result for job {job}");
            match &first_wave[job] {
                None => first_wave[job] = Some(result),
                Some(reference) => {
                    assert_eq!(&result, reference, "job {job} diverged (wave {wave})")
                }
            }
        }
    }

    let (_, stats) = client::request(addr, "GET", "/v1/stats", None).unwrap();
    let stats = json::parse(&stats).unwrap();
    let accepted = stats.get("jobs_accepted").and_then(Value::as_u64).unwrap();
    assert_eq!(accepted, (clients * waves) as u64);
    assert_eq!(stats.get("rejected").and_then(Value::as_u64), Some(0));
    // Only `distinct_jobs` simulations ran; everything else was served from
    // the cache or coalesced onto an in-flight run.
    assert_eq!(
        stats.get("simulations").and_then(Value::as_u64),
        Some(distinct_jobs as u64)
    );
    let hit_rate = stats.get("cache_hit_rate").and_then(Value::as_f64).unwrap();
    assert!(
        hit_rate > 0.5,
        "expected a high cache hit rate, got {hit_rate}"
    );
    server.shutdown_and_join();
}

#[test]
fn malformed_weighted_submissions_bounce_with_400() {
    // Negative paths of the weighted job knobs: every malformed combination
    // must be rejected at parse time with a 400 and a structured error —
    // nothing reaches the queue, so the stats stay clean.
    let server = boot(1);
    let addr = server.addr();
    let cases: &[(&str, &str)] = &[
        // Oversized enumeration budget: each pattern is one trajectory
        // simulation, so the cap is a CPU-bound guard.
        (
            r#"{"circuit":{"generator":"ghz","qubits":6},"weighted":{"max_patterns":100001}}"#,
            "exceeds the limit",
        ),
        // Weighted with zero shots needs the exact-histogram mode (there is
        // no shot budget to size the residual tail or the histogram).
        (
            r#"{"circuit":{"generator":"ghz","qubits":6},"shots":0,"weighted":true}"#,
            "exact_histogram",
        ),
        // Knob domain errors.
        (
            r#"{"circuit":{"generator":"ghz","qubits":6},"weighted":{"mass_cutoff":0}}"#,
            "mass_cutoff",
        ),
        (
            r#"{"circuit":{"generator":"ghz","qubits":6},"weighted":{"mass_cutoff":1.5}}"#,
            "mass_cutoff",
        ),
        (
            r#"{"circuit":{"generator":"ghz","qubits":6},"weighted":"yes"}"#,
            "must be",
        ),
        (
            r#"{"circuit":{"generator":"ghz","qubits":6},"weighted":{"cutoff":0.9}}"#,
            "unknown field",
        ),
    ];
    for (body, needle) in cases {
        let (status, response) = client::request(addr, "POST", "/v1/jobs", Some(body)).unwrap();
        assert_eq!(status, 400, "accepted malformed body: {body}");
        let error = json::parse(&response)
            .unwrap()
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string();
        assert!(
            error.contains(needle),
            "error `{error}` does not mention `{needle}`"
        );
    }
    let (_, stats) = client::request(addr, "GET", "/v1/stats", None).unwrap();
    let stats = json::parse(&stats).unwrap();
    assert_eq!(stats.get("jobs_accepted").and_then(Value::as_u64), Some(0));
    assert_eq!(stats.get("simulations").and_then(Value::as_u64), Some(0));
    server.shutdown_and_join();
}

#[test]
fn cached_weighted_results_are_byte_identical() {
    // Weighted jobs flow through the same content-addressed cache as
    // sampled jobs: a repeated submission must be served from the cache
    // with a byte-identical result, and both must equal direct library
    // execution through the weighted driver.
    let server = boot(2);
    let addr = server.addr();
    let body = r#"{"circuit":{"generator":"ghz","qubits":6},"shots":500,"seed":3,
                   "weighted":{"mass_cutoff":0.99,"max_patterns":64}}"#;

    let input = qsdd::server::parse_job_request(body).unwrap();
    let engine = ShotEngine::new(
        &input.circuit,
        input.backend,
        input.noise,
        input.seed,
        input.opt,
    );
    let reference = qsdd::server::result_payload(
        &input,
        &qsdd::core::run_engine_weighted_in(
            &engine,
            &mut engine.new_context(),
            input.shots,
            &[],
            input.weighted.as_ref().expect("weighted options parsed"),
        ),
    );

    let mut results = Vec::new();
    for _ in 0..2 {
        let (status, response) = client::request(addr, "POST", "/v1/jobs", Some(body)).unwrap();
        assert!(status == 200 || status == 202, "unexpected {status}");
        let id = json::parse(&response)
            .unwrap()
            .get("id")
            .and_then(Value::as_str)
            .unwrap()
            .to_string();
        results.push(result_text(&poll_job(addr, &id)));
    }
    assert_eq!(results[0], results[1], "cache replay changed the bytes");
    assert_eq!(results[0], reference, "served result diverged from direct");

    // The weighted extension fields made it into the payload.
    let payload = json::parse(&results[0]).unwrap();
    let covered = payload
        .get("covered_mass")
        .and_then(Value::as_f64)
        .expect("weighted results report covered_mass");
    assert!(covered > 0.9, "GHZ-6 paper noise covers most of the mass");
    assert!(payload
        .get("enumerated_trajectories")
        .and_then(Value::as_u64)
        .is_some());
    assert!(payload.get("tail_shots").and_then(Value::as_u64).is_some());
    assert!(
        payload.get("distribution").is_some(),
        "weighted results carry the exact distribution"
    );

    let (_, stats) = client::request(addr, "GET", "/v1/stats", None).unwrap();
    let stats = json::parse(&stats).unwrap();
    assert_eq!(
        stats.get("simulations").and_then(Value::as_u64),
        Some(1),
        "the second submission must be a cache hit"
    );
    assert!(stats.get("cache_hits").and_then(Value::as_u64).unwrap() >= 1);
    server.shutdown_and_join();
}

#[test]
fn full_queue_rejects_with_429_and_drains_on_shutdown() {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    // Slow distinct jobs: the worker picks up the first, the second fills
    // the queue, everything after bounces with 429.
    let slow_body = |seed: usize| {
        format!(
            r#"{{"circuit":{{"generator":"qft","qubits":9}},"backend":"dense","dedup":false,"shots":1500,"seed":{seed}}}"#
        )
    };
    let mut session = client::Client::connect(addr).unwrap();
    let mut ids = Vec::new();
    let mut rejected = 0;
    for seed in 0..6 {
        let (status, headers, response) = session
            .request_with_headers("POST", "/v1/jobs", Some(&slow_body(seed)))
            .unwrap();
        match status {
            202 => ids.push(
                json::parse(&response)
                    .unwrap()
                    .get("id")
                    .and_then(Value::as_str)
                    .unwrap()
                    .to_string(),
            ),
            429 => {
                rejected += 1;
                // Sheds advertise when to retry.
                let retry_after = headers
                    .iter()
                    .find(|(name, _)| name == "retry-after")
                    .map(|(_, value)| value.as_str());
                assert_eq!(retry_after, Some("1"), "429 without Retry-After");
            }
            other => panic!("unexpected status {other}: {response}"),
        }
    }
    assert!(rejected >= 1, "expected backpressure with a 1-deep queue");
    assert!(!ids.is_empty());
    let (_, stats) = client::request(addr, "GET", "/v1/stats", None).unwrap();
    let stats = json::parse(&stats).unwrap();
    assert!(stats.get("rejected").and_then(Value::as_u64).unwrap() >= 1);
    // The explicit alias load generators alert on mirrors `rejected`.
    assert_eq!(
        stats.get("rejected_jobs").and_then(Value::as_u64),
        stats.get("rejected").and_then(Value::as_u64)
    );

    // Graceful shutdown over HTTP: accepted jobs still complete (the queue
    // drains), then the listener goes away.
    let (status, _) = client::request(addr, "POST", "/v1/shutdown", None).unwrap();
    assert_eq!(status, 200);
    server.join();
    for id in &ids {
        // The cells completed before the workers exited.
        // (The listener is closed now, so verify through the library view:
        // nothing to poll — completion is implied by join returning after
        // the drain. Reconnecting must fail.)
        let _ = id;
    }
    assert!(
        client::request(addr, "GET", "/v1/healthz", None).is_err(),
        "listener survived shutdown"
    );
}
