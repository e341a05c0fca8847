//! The decision server: `std::net` + a worker pool, nothing async.
//!
//! An accept thread pushes connections onto a bounded queue; a fixed pool
//! of worker threads pops them and speaks HTTP/1.1 (keep-alive and
//! pipelining included). Overload sheds load at the door: a full queue
//! answers 503 from the accept thread without ever touching a worker.
//! Each request carries a deadline from the moment its connection was
//! accepted; a request whose deadline expired while it sat in the queue
//! is answered 503 rather than burning a worker on an answer nobody is
//! waiting for. Shutdown is graceful: stop accepting, drain the queue,
//! finish in-flight requests, join every thread.
//!
//! Routes:
//!
//! * `POST /decide` — body is a [`DecisionRequest`] JSON document (the
//!   `--config` file format plus optional `health`/`faults`/`robust`);
//!   answers the [`espresso::DecisionResponse`] JSON. Decisions are
//!   cached by canonical request hash — a repeated identical request is
//!   answered bit-identically from cache without re-running the
//!   algorithms.
//! * `GET /metrics` — flat JSON counters + latency percentiles.
//! * `GET /healthz` — liveness probe.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use espresso::service::{decide_with_warm, DecisionRequest};
use espresso::warm::WarmStartCache;
use espresso::EspressoError;
use espresso_json::{Json, ToJson};

use crate::cache::{fnv1a64, ShardedLru};
use crate::fleet::{FleetController, FleetError, HealthDelta, JobSpec};
use crate::http::{parse_request, status_text, write_response, HttpError, Limits, Parsed, Request};
use crate::metrics::Metrics;
use crate::pool::BoundedQueue;

use espresso_json::FromJson;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads (each owns one connection at a time).
    pub workers: usize,
    /// Bounded connection-queue depth; overflow is answered 503.
    pub queue_depth: usize,
    /// Decision-cache capacity, entries.
    pub cache_entries: usize,
    /// Decision-cache shard count.
    pub cache_shards: usize,
    /// Per-request deadline, measured from accept (first request) or from
    /// the end of the previous response (keep-alive requests). Doubles as
    /// the keep-alive idle timeout.
    pub deadline: Duration,
    /// Request resource caps.
    pub limits: Limits,
    /// The fleet control plane, when enabled: `/fleet/*` routes answer
    /// 404 without it.
    pub fleet: Option<Arc<FleetController>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
                .max(2),
            queue_depth: 256,
            cache_entries: 1024,
            cache_shards: 8,
            deadline: Duration::from_secs(5),
            limits: Limits::default(),
            fleet: None,
        }
    }
}

struct Shared {
    shutdown: AtomicBool,
    queue: BoundedQueue<Conn>,
    cache: ShardedLru,
    /// Selection-artifact cache shared across requests: where the body
    /// cache only hits on byte-identical requests, warm starts reuse the
    /// expensive planner work across requests that differ only in health
    /// (see [`espresso::warm`]).
    warm: WarmStartCache,
    metrics: Metrics,
    deadline: Duration,
    limits: Limits,
    fleet: Option<Arc<FleetController>>,
}

struct Conn {
    stream: TcpStream,
    accepted: Instant,
}

/// A running decision server. Dropping it shuts it down gracefully.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts the server: one accept thread plus
    /// `config.workers` worker threads.
    ///
    /// # Errors
    ///
    /// [`EspressoError::Io`] naming the bind address if it cannot be
    /// bound.
    pub fn start(config: ServeConfig) -> Result<Server, EspressoError> {
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| EspressoError::io(&config.addr, &e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| EspressoError::io(&config.addr, &e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| EspressoError::io(&config.addr, &e))?;

        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            queue: BoundedQueue::new(config.queue_depth),
            cache: ShardedLru::new(config.cache_entries, config.cache_shards),
            warm: WarmStartCache::new(config.cache_entries.max(2), config.cache_shards.max(1)),
            metrics: Metrics::new(),
            deadline: config.deadline,
            limits: config.limits,
            fleet: config.fleet,
        });

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    while let Some(conn) = shared.queue.pop() {
                        handle_connection(&shared, conn);
                    }
                })
            })
            .collect();

        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The current `/metrics` document (for embedders and tests).
    pub fn metrics_json(&self) -> String {
        render_metrics(&self.shared)
    }

    /// Signals shutdown without waiting: the accept loop stops, queued
    /// connections are drained, in-flight requests finish.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Gracefully stops the server and joins every thread.
    pub fn shutdown(mut self) {
        self.join();
    }

    fn join(&mut self) {
        self.request_shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // The accept loop closes the queue on exit; workers drain and stop.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.join();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn = Conn {
                    stream,
                    accepted: Instant::now(),
                };
                if let Err(conn) = shared.queue.try_push(conn) {
                    // Backpressure: shed at the door, cheaply.
                    shared
                        .metrics
                        .rejected_queue_full
                        .fetch_add(1, Ordering::Relaxed);
                    shared.metrics.record_status(503);
                    let _ = conn.stream.set_write_timeout(Some(Duration::from_millis(200)));
                    let body = error_body(503, "worker queue is full, retry later");
                    let _ = (&conn.stream).write_all(&write_response(
                        503,
                        "application/json",
                        body.as_bytes(),
                        false,
                    ));
                }
            }
            // Nonblocking accept: poll so the shutdown flag is honored
            // promptly even with no inbound traffic.
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    shared.queue.close();
}

enum ReadOutcome {
    /// A complete request.
    Request(Box<Request>),
    /// The peer closed (or went idle past the deadline) between requests.
    Closed,
    /// The bytes can never become a valid request, or ran out of time
    /// mid-request: answer and hang up.
    Fail(HttpError),
}

fn read_request(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    shared: &Shared,
    deadline: Instant,
    mid_request_is_error: bool,
) -> ReadOutcome {
    let mut chunk = [0u8; 4096];
    loop {
        if !buf.is_empty() {
            match parse_request(buf, &shared.limits) {
                Ok(Parsed::Complete { request, consumed }) => {
                    buf.drain(..consumed);
                    return ReadOutcome::Request(Box::new(request));
                }
                Ok(Parsed::Partial) => {}
                Err(e) => return ReadOutcome::Fail(e),
            }
        }
        if shared.shutdown.load(Ordering::SeqCst) && buf.is_empty() {
            return ReadOutcome::Closed;
        }
        let now = Instant::now();
        if now >= deadline {
            return if buf.is_empty() && !mid_request_is_error {
                // Idle keep-alive connection: close quietly.
                ReadOutcome::Closed
            } else {
                ReadOutcome::Fail(HttpError {
                    status: 408,
                    message: "deadline expired while reading the request".into(),
                })
            };
        }
        // Short read timeouts keep both the deadline and the shutdown
        // flag responsive.
        let wait = (deadline - now).min(Duration::from_millis(100));
        let _ = stream.set_read_timeout(Some(wait.max(Duration::from_millis(1))));
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if buf.is_empty() {
                    ReadOutcome::Closed
                } else {
                    ReadOutcome::Fail(HttpError {
                        status: 400,
                        message: "connection closed mid-request".into(),
                    })
                };
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return ReadOutcome::Closed,
        }
    }
}

fn handle_connection(shared: &Shared, conn: Conn) {
    let mut stream = conn.stream;
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    // The first request's deadline starts at accept: time spent waiting in
    // the queue counts against it.
    let mut deadline = conn.accepted + shared.deadline;
    let mut first = true;
    loop {
        match read_request(&mut stream, &mut buf, shared, deadline, first) {
            ReadOutcome::Request(request) => {
                let t0 = Instant::now();
                shared.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
                let keep_alive = request.wants_keep_alive()
                    && !shared.shutdown.load(Ordering::SeqCst);
                let (status, content_type, body) = route(shared, &request, deadline);
                shared.metrics.record_status(status);
                if request.path == "/decide" {
                    shared
                        .metrics
                        .record_request_latency(t0.elapsed().as_secs_f64());
                }
                let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
                if stream
                    .write_all(&write_response(status, content_type, &body, keep_alive))
                    .is_err()
                    || !keep_alive
                {
                    return;
                }
                first = false;
                deadline = Instant::now() + shared.deadline;
            }
            ReadOutcome::Closed => return,
            ReadOutcome::Fail(e) => {
                shared.metrics.record_status(e.status);
                let body = error_body(e.status, &e.message);
                let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
                let _ = stream.write_all(&write_response(
                    e.status,
                    "application/json",
                    body.as_bytes(),
                    false,
                ));
                return;
            }
        }
    }
}

type Response = (u16, &'static str, Vec<u8>);

fn route(shared: &Shared, request: &Request, deadline: Instant) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/decide") => decide_route(shared, request, deadline),
        ("GET", "/metrics") => {
            let doc = render_metrics(shared);
            (200, "application/json", doc.into_bytes())
        }
        ("GET", "/healthz") => (
            200,
            "application/json",
            br#"{"status":"ok"}"#.to_vec(),
        ),
        (method, path) if path == "/fleet" || path.starts_with("/fleet/") => {
            fleet_route(shared, method, path, request, deadline)
        }
        (_, "/decide" | "/metrics" | "/healthz") => {
            let body = error_body(405, &format!("method {} not allowed here", request.method));
            (405, "application/json", body.into_bytes())
        }
        (_, path) => {
            let body = error_body(
                404,
                &format!("no such endpoint {path:?}; try /decide, /fleet/*, /metrics, or /healthz"),
            );
            (404, "application/json", body.into_bytes())
        }
    }
}

fn render_metrics(shared: &Shared) -> String {
    let mut extra = vec![
        ("warm_start_hits".to_string(), shared.warm.hits() as f64),
        ("warm_start_misses".to_string(), shared.warm.misses() as f64),
    ];
    if let Some(fleet) = &shared.fleet {
        extra.extend(fleet.metric_entries());
    }
    shared.metrics.render_with(&shared.cache.stats(), &extra)
}

fn json_response(status: u16, body: String) -> Response {
    (status, "application/json", body.into_bytes())
}

fn fleet_error_response(e: &FleetError) -> Response {
    match e {
        // A spec the requester can fix is their problem; durability
        // failures are ours.
        FleetError::Request(e) => espresso_error_response(e),
        FleetError::Io(_) | FleetError::Corrupt { .. } => {
            json_response(500, error_body(500, &e.to_string()))
        }
    }
}

/// The `/fleet/*` routes. All of them answer from the job table — a job
/// whose re-plan is queued, shed, or failing serves its previous decision
/// marked stale rather than erroring.
fn fleet_route(
    shared: &Shared,
    method: &str,
    path: &str,
    request: &Request,
    deadline: Instant,
) -> Response {
    let Some(fleet) = &shared.fleet else {
        let body = error_body(
            404,
            "the fleet control plane is not enabled on this server; start with --fleet-dir",
        );
        return json_response(404, body);
    };
    let body_text = |request: &Request| -> Result<String, Response> {
        std::str::from_utf8(&request.body)
            .map(str::to_string)
            .map_err(|_| json_response(400, error_body(400, "request body is not valid UTF-8")))
    };
    match (method, path) {
        ("POST", "/fleet/register") => {
            let text = match body_text(request) {
                Ok(text) => text,
                Err(resp) => return resp,
            };
            let spec = match Json::parse(&text)
                .map_err(|e| e.to_string())
                .and_then(|v| JobSpec::from_json(&v).map_err(|e| e.to_string()))
            {
                Ok(spec) => spec,
                Err(e) => return json_response(400, error_body(400, &format!("bad job spec: {e}"))),
            };
            let id = spec.id.clone();
            match fleet.register(spec) {
                Ok(outcome) => json_response(
                    200,
                    Json::obj(vec![
                        ("job", id.to_json()),
                        ("priority", outcome.priority.to_json()),
                        ("already_registered", outcome.already_registered.to_json()),
                    ])
                    .render(),
                ),
                Err(e) => fleet_error_response(&e),
            }
        }
        ("POST", "/fleet/health") => {
            let text = match body_text(request) {
                Ok(text) => text,
                Err(resp) => return resp,
            };
            let delta = match Json::parse(&text)
                .map_err(|e| e.to_string())
                .and_then(|v| HealthDelta::from_json(&v).map_err(|e| e.to_string()))
            {
                Ok(delta) => delta,
                Err(e) => {
                    return json_response(400, error_body(400, &format!("bad health delta: {e}")))
                }
            };
            let cluster = delta.cluster.clone();
            match fleet.apply_health(&delta) {
                Ok(outcome) => json_response(
                    200,
                    Json::obj(vec![
                        ("cluster", cluster.to_json()),
                        ("applied", outcome.applied.to_json()),
                        ("epoch", outcome.epoch.to_json()),
                        ("jobs_invalidated", outcome.jobs_invalidated.to_json()),
                        (
                            "dead_letters_requeued",
                            outcome.dead_letters_requeued.to_json(),
                        ),
                    ])
                    .render(),
                ),
                Err(e) => fleet_error_response(&e),
            }
        }
        ("POST", "/fleet/drain") => {
            // Bounded by the request deadline so a busy queue cannot
            // wedge a worker past it.
            let budget = deadline
                .saturating_duration_since(Instant::now())
                .min(Duration::from_secs(60));
            let drained = fleet.drain(budget);
            json_response(
                200,
                Json::obj(vec![
                    ("drained", drained.to_json()),
                    ("pending", fleet.pending_replans().to_json()),
                ])
                .render(),
            )
        }
        ("POST", "/fleet/snapshot") => match fleet.snapshot_now() {
            Ok(()) => json_response(200, r#"{"snapshot":true}"#.to_string()),
            Err(e) => fleet_error_response(&e),
        },
        ("GET", "/fleet/jobs") => json_response(200, fleet.jobs_doc()),
        // `/fleet/deadletter` is the documented inspection alias; the
        // hyphenated spelling predates it and keeps working.
        ("GET", "/fleet/dead-letters" | "/fleet/deadletter") => {
            json_response(200, fleet.dead_letters_doc())
        }
        ("GET", _) if path.starts_with("/fleet/job/") => {
            let id = &path["/fleet/job/".len()..];
            match fleet.decision_doc(id) {
                Some(doc) => json_response(200, doc),
                None => json_response(
                    404,
                    error_body(404, &format!("no job {id:?} is registered")),
                ),
            }
        }
        (
            _,
            "/fleet/register" | "/fleet/health" | "/fleet/drain" | "/fleet/snapshot"
            | "/fleet/jobs" | "/fleet/dead-letters" | "/fleet/deadletter",
        ) => json_response(
            405,
            error_body(405, &format!("method {method} not allowed here")),
        ),
        _ => json_response(
            404,
            error_body(
                404,
                &format!(
                    "no such fleet endpoint {path:?}; try /fleet/register, /fleet/health, \
                     /fleet/job/<id>, /fleet/jobs, /fleet/drain, or /fleet/deadletter"
                ),
            ),
        ),
    }
}

fn decide_route(shared: &Shared, request: &Request, deadline: Instant) -> Response {
    shared.metrics.decide_requests.fetch_add(1, Ordering::Relaxed);
    if Instant::now() >= deadline {
        shared
            .metrics
            .rejected_deadline
            .fetch_add(1, Ordering::Relaxed);
        let body = error_body(503, "request deadline expired while queued");
        return (503, "application/json", body.into_bytes());
    }
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => {
            let body = error_body(400, "request body is not valid UTF-8");
            return (400, "application/json", body.into_bytes());
        }
    };
    let decision_request = match DecisionRequest::parse(text) {
        Ok(req) => req,
        Err(e) => return espresso_error_response(&e),
    };
    let key = fnv1a64(decision_request.canonical_key().as_bytes());
    // `Cache-Control: no-cache` forces recomputation — the audit layer's
    // lever for proving cached and computed answers are byte-identical.
    // The fresh result still replaces the cache entry.
    let bypass = request
        .header("cache-control")
        .is_some_and(|v| v.to_ascii_lowercase().contains("no-cache"));
    if bypass {
        shared.metrics.cache_bypass.fetch_add(1, Ordering::Relaxed);
    } else if let Some(cached) = shared.cache.get(key) {
        return (200, "application/json", cached.as_ref().clone());
    }
    let t0 = Instant::now();
    match decide_with_warm(&decision_request, &shared.warm) {
        Ok(decision) => {
            shared
                .metrics
                .record_decision_latency(t0.elapsed().as_secs_f64());
            shared
                .metrics
                .decisions_computed
                .fetch_add(1, Ordering::Relaxed);
            let body = Json::encode(&decision.response()).into_bytes();
            shared.cache.insert(key, Arc::new(body.clone()));
            (200, "application/json", body)
        }
        Err(e) => espresso_error_response(&e),
    }
}

/// Maps an [`EspressoError`] to an HTTP response carrying the *same*
/// message the CLI prints — file/dotted-field context included — so a
/// malformed config in a request body is as debuggable as a malformed
/// `--config` file.
fn espresso_error_response(e: &EspressoError) -> Response {
    let status = match e {
        // Everything the requester can fix is a 400-class problem...
        EspressoError::Json { .. }
        | EspressoError::Config { .. }
        | EspressoError::UnknownModel { .. }
        | EspressoError::Cluster(_)
        | EspressoError::Fault { .. } => 400,
        // ...while I/O is the server's problem (nothing in a request body
        // should touch the filesystem).
        EspressoError::Io { .. } => 500,
    };
    let kind = match e {
        EspressoError::Io { .. } => "Io",
        EspressoError::Json { .. } => "Json",
        EspressoError::Config { .. } => "Config",
        EspressoError::UnknownModel { .. } => "UnknownModel",
        EspressoError::Cluster(_) => "Cluster",
        EspressoError::Fault { .. } => "Fault",
    };
    let body = Json::obj(vec![
        ("error", e.to_string().to_json()),
        ("kind", kind.to_json()),
        ("status", status.to_json()),
    ])
    .render();
    (status, "application/json", body.into_bytes())
}

fn error_body(status: u16, message: &str) -> String {
    Json::obj(vec![
        ("error", message.to_json()),
        ("kind", status_text(status).to_json()),
        ("status", status.to_json()),
    ])
    .render()
}
