//! The serving-layer probe of the traced runs: the workload's circuits,
//! plus one inline-OpenQASM job at opt 2 and one weighted job, submitted to
//! an in-process `qsdd-server` with a durable store, each once cold and once
//! cached. It times the HTTP round trips, reads the job envelopes, the
//! program's spans and `/v1/stats` and `/v1/metrics`, and checks that the
//! cold reply, the cached reply, an in-process run of the same job and the
//! reply a restarted server restores from its store are byte-identical.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use qsdd_circuit::{generators, qasm};
use qsdd_core::{run_engine_in, run_engine_weighted_in, BackendKind, ShotEngine};
use qsdd_server::client::Client;
use qsdd_server::{client, parse_job_request, result_payload, Server, ServerConfig};

use crate::checks::Checks;
use crate::stats::{median, quantile};
use crate::Outcome;

/// Server workers (`nproc` on the reference machine).
const WORKERS: usize = 2;
/// Pauses between status polls of a queued job: the first, and the cap
/// the doubling backoff stops at.
const POLL_FIRST: Duration = Duration::from_micros(250);
const POLL_CAP: Duration = Duration::from_millis(2);
/// Spacing of the probe's schedule.
const PROBE_SPACING: Duration = Duration::from_millis(250);
/// A request not answered within this is a failure.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(20);

/// The JSON body of a generator job.
pub fn generator_body(
    kind: &str,
    qubits: usize,
    backend: BackendKind,
    shots: u64,
    seed: u64,
) -> String {
    let backend = match backend {
        BackendKind::DecisionDiagram => "dd",
        BackendKind::Statevector => "dense",
    };
    format!(
        r#"{{"circuit":{{"generator":"{kind}","qubits":{qubits}}},"backend":"{backend}","shots":{shots},"seed":{seed}}}"#
    )
}

/// A finished request.
#[derive(Debug, Default)]
struct Fetched {
    id: String,
    cached: bool,
    submit_ms: f64,
    get_ms: f64,
    polls: u64,
    /// The final `GET /v1/jobs/<id>` body.
    envelope: String,
}

impl Fetched {
    fn payload(&self) -> Option<&str> {
        let start = self.envelope.find(",\"result\":")? + ",\"result\":".len();
        self.envelope.get(start..self.envelope.len() - 1)
    }
}

/// The first string field `key` of a JSON body, found without parsing the
/// whole body (envelopes carry the status and id ahead of the result).
fn string_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let marker = format!("\"{key}\":\"");
    let start = body.find(&marker)? + marker.len();
    let end = body[start..].find('"')? + start;
    Some(&body[start..end])
}

/// Submits `body` and fetches the job's result: a cached submission costs
/// one GET, a queued one is polled until it completes.
fn submit_and_fetch(conn: &mut Client, body: &str) -> Result<Fetched, String> {
    let started = Instant::now();
    let (status, reply) = conn
        .request("POST", "/v1/jobs", Some(body))
        .map_err(|e| format!("POST: {e}"))?;
    let mut fetched = Fetched {
        submit_ms: started.elapsed().as_secs_f64() * 1e3,
        ..Fetched::default()
    };
    if status != 200 && status != 202 {
        return Err(format!("POST answered {status}: {reply}"));
    }
    fetched.cached = status == 200;
    fetched.id = string_field(&reply, "id")
        .ok_or_else(|| format!("no id in {reply}"))?
        .to_string();
    let (envelope, polls, get_ms) = await_completion(conn, &fetched.id)?;
    fetched.envelope = envelope;
    fetched.polls = polls;
    fetched.get_ms = get_ms;
    Ok(fetched)
}

/// Polls `GET /v1/jobs/<id>` until the job completes; returns the final
/// envelope, the number of GETs and the last GET's round trip in ms.
fn await_completion(conn: &mut Client, id: &str) -> Result<(String, u64, f64), String> {
    let path = format!("/v1/jobs/{id}");
    let started = Instant::now();
    let mut polls = 0;
    let mut pause = POLL_FIRST;
    loop {
        let get_started = Instant::now();
        let (status, envelope) = conn
            .request("GET", &path, None)
            .map_err(|e| format!("GET: {e}"))?;
        let get_ms = get_started.elapsed().as_secs_f64() * 1e3;
        polls += 1;
        if status != 200 {
            return Err(format!("GET answered {status}: {envelope}"));
        }
        match string_field(&envelope, "status") {
            Some("completed") => return Ok((envelope, polls, get_ms)),
            Some("failed") => return Err(format!("job failed: {envelope}")),
            _ => {}
        }
        if started.elapsed() > REQUEST_TIMEOUT {
            return Err(format!("job {id} not done within {REQUEST_TIMEOUT:?}"));
        }
        std::thread::sleep(pause);
        pause = (pause * 2).min(POLL_CAP);
    }
}

/// A temporary directory inside the checkout, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Result<TempDir, String> {
        let path = PathBuf::from(".bench_tmp").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(TempDir(path))
    }

    fn path(&self) -> String {
        self.0.to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// Starts a two-worker server on `store` and waits for its first healthy
/// answer.
fn start_server(store: &TempDir) -> Result<Server, String> {
    let started = Instant::now();
    let server = Server::start(ServerConfig {
        threads: WORKERS,
        store_dir: Some(store.path()),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    loop {
        match client::request(server.addr(), "GET", "/v1/healthz", None) {
            Ok((200, _)) => return Ok(server),
            _ if started.elapsed() > Duration::from_secs(10) => {
                server.shutdown_and_join();
                return Err("server never became healthy".to_string());
            }
            _ => std::thread::sleep(Duration::from_micros(100)),
        }
    }
}

/// The in-process run of a job body through the server's own parse,
/// engine and `run_engine_in` path, rendered as the server renders it.
fn in_process_payload(body: &str) -> Result<String, String> {
    let input = parse_job_request(body)?;
    let engine = ShotEngine::new(
        &input.circuit,
        input.backend,
        input.noise,
        input.seed,
        input.opt,
    );
    let mut ctx = engine.new_context();
    let outcome = match &input.weighted {
        Some(options) => {
            run_engine_weighted_in(&engine, &mut ctx, input.shots, &input.observables, options)
        }
        None => run_engine_in(
            &engine,
            &mut ctx,
            input.shots,
            &input.observables,
            input.dedup,
        ),
    };
    Ok(result_payload(&input, &outcome))
}

/// Serving-layer figures gathered from the probe.
#[derive(Debug, Default)]
pub struct ServerFigures {
    submit_ms: Vec<f64>,
    get_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    execute_ms: Vec<f64>,
    late_ms: Vec<f64>,
    polls: u64,
    fetched: u64,
    cache_hits: u64,
    accepted: u64,
    append_ms: Vec<f64>,
    appends_counted: u64,
    requests: u64,
}

impl ServerFigures {
    pub fn report(&self, out: &mut Outcome) {
        out.push("server.submit_ms_p50", median(&self.submit_ms), "ms");
        out.push(
            "server.submit_ms_p99",
            quantile(&self.submit_ms, 0.99),
            "ms",
        );
        out.push("server.get_ms_p50", median(&self.get_ms), "ms");
        out.push(
            "server.queue_wait_ms_p99",
            quantile(&self.queue_wait_ms, 0.99),
            "ms",
        );
        out.push("server.execute_ms_p50", median(&self.execute_ms), "ms");
        out.push(
            "server.cache_hit_ratio",
            self.cache_hits as f64 / self.accepted.max(1) as f64,
            "ratio",
        );
        out.push(
            "server.polls_per_job",
            self.polls as f64 / self.fetched.max(1) as f64,
            "1/job",
        );
        out.push("server.requests", self.requests as f64, "count");
        out.push("store.append_ms_p50", median(&self.append_ms), "ms");
        out.push("store.appends", self.appends_counted as f64, "count");
        out.push("gen.late_ms_p99", quantile(&self.late_ms, 0.99), "ms");
    }

    /// Folds in a fetched reply's client-side timings and, for a job the
    /// server executed, its envelope's stage timings.
    fn absorb(&mut self, fetched: &Fetched) -> Result<(), String> {
        self.submit_ms.push(fetched.submit_ms);
        self.get_ms.push(fetched.get_ms);
        self.polls += fetched.polls;
        self.fetched += 1;
        if fetched.cached {
            return Ok(());
        }
        let envelope =
            qsdd_json::parse(&fetched.envelope).map_err(|e| format!("envelope: {e:?}"))?;
        let timing = |key: &str| {
            envelope
                .get("timings")
                .and_then(|t| t.get(key))
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0)
                * 1e3
        };
        self.queue_wait_ms.push(timing("queue_wait"));
        self.execute_ms.push(timing("execute"));
        Ok(())
    }

    /// Reads the program's span tree of an executed job: the duration of
    /// its `store_append` span.
    fn read_trace(&mut self, conn: &mut Client, fetched: &Fetched) -> Result<(), String> {
        let path = format!("/v1/jobs/{}/trace", fetched.id);
        let (status, body) = conn
            .request("GET", &path, None)
            .map_err(|e| e.to_string())?;
        if status != 200 {
            // A coalesced job executed under another id.
            return Ok(());
        }
        let trace = qsdd_json::parse(&body).map_err(|e| format!("trace: {e:?}"))?;
        for span in trace.get("spans").and_then(|s| s.as_array()).unwrap_or(&[]) {
            if span.get("name").and_then(|n| n.as_str()) == Some("store_append") {
                let field = |key: &str| span.get(key).and_then(|v| v.as_u64()).unwrap_or(0);
                let ns = field("end_ns").saturating_sub(field("start_ns"));
                self.append_ms.push(ns as f64 / 1e6);
            }
        }
        Ok(())
    }

    /// Reads `/v1/stats` and the store-append count of `/v1/metrics`.
    fn scrape(&mut self, addr: std::net::SocketAddr) -> Result<(), String> {
        let (_, stats) =
            client::request(addr, "GET", "/v1/stats", None).map_err(|e| e.to_string())?;
        let stats = qsdd_json::parse(&stats).map_err(|e| format!("stats: {e:?}"))?;
        let count = |key: &str| stats.get(key).and_then(|v| v.as_u64()).unwrap_or(0);
        self.cache_hits = count("cache_hits");
        self.accepted = count("jobs_accepted");
        let (_, metrics) =
            client::request(addr, "GET", "/v1/metrics", None).map_err(|e| e.to_string())?;
        self.appends_counted = metrics
            .lines()
            .find(|line| line.starts_with("qsdd_store_append_seconds_count"))
            .and_then(|line| line.rsplit(' ').next())
            .and_then(|count| count.parse::<u64>().ok())
            .unwrap_or(0);
        Ok(())
    }
}

/// The serving paths a simulation workload does not take: a QFT-6 written
/// as inline OpenQASM through the opt-2 transpiler, and a weighted GHZ-10.
pub fn path_bodies(seed: u64) -> Vec<String> {
    let source = qasm::write_source(&generators::qft(6)).expect("QFT is OpenQASM 2.0");
    vec![
        format!(
            r#"{{"circuit":{{"qasm":{}}},"shots":400,"seed":{seed},"opt":2}}"#,
            qsdd_json::Value::from(source.as_str())
        ),
        format!(
            r#"{{"circuit":{{"generator":"ghz","qubits":10}},"shots":1000,"seed":{seed},"weighted":true}}"#
        ),
    ]
}

/// Submits every body of `bodies` once on one connection (so a cold
/// submission stays ahead of its repeat), `PROBE_SPACING` apart; failures
/// count into `checks` and leave `None`.
fn submit_all(
    conn: &mut Client,
    bodies: &[String],
    late_ms: &mut Vec<f64>,
    checks: &mut Checks,
) -> Vec<Option<Fetched>> {
    let started = Instant::now();
    let mut replies = Vec::with_capacity(bodies.len());
    for (index, body) in bodies.iter().enumerate() {
        let due = started + PROBE_SPACING * index as u32;
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        late_ms.push(due.elapsed().as_secs_f64() * 1e3);
        let reply = submit_and_fetch(conn, body);
        checks.check("probe request completes", reply.is_ok(), || {
            format!("{body}: {reply:?}")
        });
        replies.push(reply.ok());
    }
    replies
}

/// The serving layers on `bodies`: each submitted cold and then again (a
/// cache hit) against a fresh two-worker server with a durable store. The
/// cached reply, an in-process run of the job and the reply of a server
/// restarted on the same store must all equal the cold reply byte for
/// byte.
pub fn probe_server(bodies: &[String], checks: &mut Checks) -> Result<ServerFigures, String> {
    let store = TempDir::new("probe")?;
    let server = start_server(&store)?;
    let mut figures = ServerFigures::default();
    let mut conn = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let cold = submit_all(&mut conn, bodies, &mut figures.late_ms, checks);
    let cached = submit_all(&mut conn, bodies, &mut figures.late_ms, checks);
    figures.requests = 2 * bodies.len() as u64;
    for (body, (cold, cached)) in bodies.iter().zip(cold.iter().zip(&cached)) {
        let Some(cold) = cold else { continue };
        figures.absorb(cold)?;
        figures.read_trace(&mut conn, cold)?;
        let cold_payload = cold.payload();
        if let Some(cached) = cached {
            figures.absorb(cached)?;
            let ok = cached.cached && cached.payload() == cold_payload;
            checks.check("cached reply equals cold reply", ok, || body.clone());
        }
        let local = in_process_payload(body);
        let ok = matches!((&local, cold_payload), (Ok(p), Some(c)) if p == c);
        checks.check("in-process run equals cold reply", ok, || {
            format!("{body}: {local:?} vs {cold_payload:?}")
        });
    }
    figures.scrape(server.addr())?;
    server.shutdown_and_join();

    // A restart on the same store answers every job from its records.
    let server = start_server(&store)?;
    let mut conn = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    for (body, cold) in bodies.iter().zip(&cold) {
        let Some(cold) = cold else { continue };
        let restored = submit_and_fetch(&mut conn, body);
        let ok = matches!(&restored, Ok(f) if f.cached && f.payload() == cold.payload());
        checks.check("restored reply equals cold reply", ok, || {
            format!("{body}: {restored:?}")
        });
    }
    server.shutdown_and_join();
    Ok(figures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_is_the_envelope_result() {
        let fetched = Fetched {
            envelope: r#"{"id":"j1","status":"completed","timings":{},"result":{"a":1}}"#
                .to_string(),
            ..Fetched::default()
        };
        assert_eq!(fetched.payload(), Some(r#"{"a":1}"#));
        assert_eq!(string_field(&fetched.envelope, "status"), Some("completed"));
    }
}
