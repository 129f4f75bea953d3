//! `simc serve` — a long-running synthesis daemon over the staged
//! [`Pipeline`].
//!
//! The server is a hand-rolled HTTP/1.1 JSON line protocol on
//! `std::net::TcpListener` (the workspace builds offline; no HTTP
//! dependency), fronting the same pipeline + [`simc_cache`] stack the
//! CLI uses:
//!
//! * `POST /v1/analyze` · `POST /v1/synth` · `POST /v1/verify` — the
//!   request body is a spec (`.g` or `.sg` text, auto-detected); the
//!   response is a single JSON object.
//! * `POST /v1/convert` — re-emit the spec in the interchange format
//!   named by the `X-Simc-Format` header (an EDIF body is parsed back
//!   and re-emitted without synthesis); `GET /v1/formats` lists the
//!   registry, byte-identical to `simc convert --list`.
//! * `GET /healthz` — liveness plus queue depth.
//! * `GET /stats` — the full [`simc_obs`] report as JSON.
//! * `POST /shutdown` — graceful drain: stop accepting, finish every
//!   queued request, join the workers, return.
//!
//! Statuses mirror the CLI exit-code contract: `200` ↔ exit 0, `422` ↔
//! exit 1 (a well-formed request with a negative answer: hazards found,
//! synthesis gave up), `400` ↔ exit 2 (malformed input), plus the
//! daemon-only refusals `429` (deadline/budget exhausted, the
//! [`ErrorKind::ResourceLimit`] path) and `503` (queue full — shed,
//! retry later). A panic inside a request is caught and answered with
//! `500`; the worker survives.
//!
//! A compute request is answered in this order:
//!
//! 1. **Request defects** (unknown target or format, non-numeric
//!    budget) answer `400`, an already-expired deadline `429`.
//! 2. **The response memo** — present only when the daemon has a cache
//!    (`--cache-dir`). The flow is deterministic, so a `200` answer is a
//!    function of the raw request: endpoint, format, target, the two
//!    budget headers and the body bytes. A byte-identical repeat of an
//!    earlier `200` request is answered from an in-memory map without
//!    parsing, elaborating or entering a flight, so the response carries
//!    **no** `X-Simc-Flight` header. Non-`200` answers are never
//!    memoized, and the memo does not outlive the process.
//! 3. **Single-flight deduplication** (see [`flight`]): the spec is
//!    elaborated and keyed by its canonical `.sg` hash (plus target and
//!    budgets), so N identical or isomorphic in-flight requests run one
//!    pipeline and share its result — the `X-Simc-Flight: led|joined`
//!    response header says which path a request took. The leader of a
//!    flight that answers `200` fills the memo. The pipeline's stages
//!    revive from the artifact cache, which does survive a restart.
//!
//! The worker pool is a bounded queue drained by
//! `simc_mc::parallel::parallel_map`, the same scoped-thread pool the
//! synthesis stages use.
//!
//! Request headers: `X-Simc-Target: c-element|rs-latch`,
//! `X-Simc-Format: sg|edif|spice|dot|verilog` (`/v1/convert` only),
//! `X-Simc-Deadline-Ms: <n>` (maps to [`Pipeline::with_deadline`]),
//! `X-Simc-Max-States: <n>` (verifier state budget), `X-Simc-Stats: 1`
//! (append this request's own counter deltas — captured with
//! [`simc_obs::scope`] — to the response).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
pub mod http;

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use simc_cache::{domains, Cache, Key, KeyHasher, MemCache};
use simc_mc::parallel::{parallel_map_exact, ParallelSynth};
use simc_mc::synth::Target;
use simc_formats::Format;
use simc_netlist::VerifyOptions;
use simc_obs::{self as obs, Counter};
use simc_pipeline::{Error, ErrorKind, Pipeline};

use flight::{FlightMap, FlightResult, Role};
use http::Request;

/// Per-connection socket timeout: generous for synthesis, finite so a
/// stalled peer cannot pin a worker forever.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(60);

/// Byte budget of the response memo. Its values are response bodies
/// (hundreds of bytes for a verdict, tens of kilobytes for a converted
/// netlist), so this holds thousands of distinct requests.
const MEMO_BYTES: usize = 8 << 20;

/// Server configuration; start with [`Server::start`].
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Worker threads draining the request queue (0 → machine size).
    pub workers: usize,
    /// Requests queued beyond the in-service ones before the server
    /// sheds load with `503` (0 → `4 × workers`).
    pub queue_capacity: usize,
    /// Shared artifact cache; every request's pipeline attaches to it.
    /// A daemon with a cache also keeps an in-memory response memo.
    pub cache: Option<Arc<dyn Cache>>,
    /// Honour the `X-Simc-Test-Sleep-Ms` header, which holds a leader's
    /// computation open so tests can join flights deterministically.
    /// Never enabled by the CLI.
    pub test_hooks: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_capacity: 0,
            cache: None,
            test_hooks: false,
        }
    }
}

/// State shared by the acceptor and the worker pool.
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    queue_capacity: usize,
    workers: usize,
    draining: AtomicBool,
    flights: FlightMap<Outcome>,
    cache: Option<Arc<dyn Cache>>,
    /// Raw request → `200` body, consulted before any parsing; only a
    /// daemon with a cache has one.
    memo: Option<MemCache>,
    test_hooks: bool,
}

/// A queued compute request.
struct Job {
    stream: TcpStream,
    request: Request,
    received: Instant,
}

/// A compute endpoint's JSON result. Cloned between a flight's leader
/// and its joiners, so it carries no per-request state.
#[derive(Debug, Clone)]
struct Outcome {
    status: u16,
    body: String,
}

/// The final response of one request, including per-request metadata
/// the flight result must not carry.
struct Response {
    status: u16,
    body: String,
    role: Option<Role>,
}

/// The compute endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Endpoint {
    Analyze,
    Synth,
    Verify,
    Convert,
}

impl Endpoint {
    fn of(path: &str) -> Option<Endpoint> {
        match path {
            "/v1/analyze" => Some(Endpoint::Analyze),
            "/v1/synth" => Some(Endpoint::Synth),
            "/v1/verify" => Some(Endpoint::Verify),
            "/v1/convert" => Some(Endpoint::Convert),
            _ => None,
        }
    }

    fn tag(self) -> &'static str {
        match self {
            Endpoint::Analyze => "analyze",
            Endpoint::Synth => "synth",
            Endpoint::Verify => "verify",
            Endpoint::Convert => "convert",
        }
    }
}

/// A running server. Dropping the handle does **not** stop it; send
/// `POST /shutdown` and call [`Server::join`].
pub struct Server {
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts accepting. Worker threads are spawned through
    /// `simc_mc::parallel::parallel_map` on a pool thread. Counter
    /// recording is switched on: a daemon's `/stats` endpoint is its
    /// only introspection surface, so metrics are not opt-in here.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        obs::set_counters(true);
        let workers = if config.workers == 0 {
            ParallelSynth::available().threads()
        } else {
            config.workers
        };
        let queue_capacity = if config.queue_capacity == 0 {
            4 * workers
        } else {
            config.queue_capacity
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            queue_capacity,
            workers,
            draining: AtomicBool::new(false),
            flights: FlightMap::new(),
            memo: config.cache.is_some().then(|| MemCache::new(MEMO_BYTES)),
            cache: config.cache,
            test_hooks: config.test_hooks,
        });
        // The pool: one long-lived worker loop per slot, all driven by
        // the same scoped-thread runner the cover search uses.
        let pool = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("simc-serve-pool".to_string())
                .spawn(move || {
                    let slots: Vec<usize> = (0..shared.workers).collect();
                    // The *exact* variant: pool workers block on the
                    // queue and on joined flights, so they must exist
                    // even when they outnumber hardware threads.
                    parallel_map_exact(&slots, shared.workers, |_| worker_loop(&shared));
                })
                .expect("spawn worker pool")
        };
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("simc-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared, pool))
                .expect("spawn acceptor")
        };
        Ok(Server { addr, accept: Some(accept) })
    }

    /// The bound address (the ephemeral port for `127.0.0.1:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the server has shut down (after `POST /shutdown`):
    /// the acceptor has stopped, the queue is drained and every worker
    /// has exited.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// Locks ignoring poison (workers catch panics themselves; a poisoned
/// queue would otherwise wedge the whole daemon).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// Accepts connections until `POST /shutdown`, then drains: workers
/// finish the queue, the pool joins, and the loop returns.
fn accept_loop(listener: &TcpListener, shared: &Shared, pool: JoinHandle<()>) {
    for incoming in listener.incoming() {
        let Ok(mut stream) = incoming else { continue };
        let received = Instant::now();
        let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
        let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
        let request = match http::read_request(&mut stream) {
            Ok(request) => request,
            Err(http::HttpError::Io(_)) => continue,
            Err(error) => {
                let status = match error {
                    http::HttpError::TooLarge(status, _) => status,
                    _ => 400,
                };
                count_response(status);
                respond(&mut stream, status, None, &error_body("parse", &error.to_string()));
                continue;
            }
        };
        obs::add(Counter::ServeRequests, 1);
        let path_is_known = |path: &str| {
            Endpoint::of(path).is_some()
                || matches!(path, "/healthz" | "/stats" | "/shutdown" | "/v1/formats")
        };
        // Owned copies: the enqueue arm moves `request` into the job.
        let method = request.method.clone();
        let path = request.path.clone();
        match (method.as_str(), path.as_str()) {
            ("GET", "/healthz") => {
                let status = if shared.draining.load(Ordering::Relaxed) {
                    "draining"
                } else {
                    "ok"
                };
                let body = format!(
                    "{{\"status\":\"{status}\",\"queued\":{},\"in_flight\":{},\"workers\":{}}}",
                    lock(&shared.queue).len(),
                    shared.flights.in_flight(),
                    shared.workers,
                );
                respond(&mut stream, 200, None, &body);
            }
            ("GET", "/stats") => {
                respond(&mut stream, 200, None, &obs::report().to_json());
            }
            ("GET", "/v1/formats") => {
                // One source of truth: the same registry document the
                // CLI prints for `simc convert --list`.
                respond(&mut stream, 200, None, &simc_formats::listing_json());
            }
            ("POST", "/shutdown") => {
                respond(&mut stream, 200, None, "{\"status\":\"draining\"}");
                break;
            }
            ("POST", path) if Endpoint::of(path).is_some() => {
                let mut queue = lock(&shared.queue);
                if queue.len() >= shared.queue_capacity {
                    drop(queue);
                    count_response(503);
                    respond(
                        &mut stream,
                        503,
                        None,
                        &error_body("overload", "request queue is full; retry later"),
                    );
                } else {
                    queue.push_back(Job { stream, request, received });
                    drop(queue);
                    shared.queue_cv.notify_one();
                }
            }
            (_, path) if path_is_known(path) => {
                count_response(405);
                respond(
                    &mut stream,
                    405,
                    None,
                    &error_body("routing", &format!("method not allowed on `{path}`")),
                );
            }
            (_, path) => {
                count_response(404);
                respond(
                    &mut stream,
                    404,
                    None,
                    &error_body("routing", &format!("no such endpoint `{path}`")),
                );
            }
        }
    }
    // Drain: no new work arrives (the listener is ours and we stopped
    // accepting); wake every worker so idle ones observe the flag, and
    // busy ones finish the queue first.
    shared.draining.store(true, Ordering::SeqCst);
    shared.queue_cv.notify_all();
    let _ = pool.join();
}

/// One worker: pop, serve, repeat; exit once draining and empty.
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.draining.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared.queue_cv.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(mut job) = job else { return };
        let want_stats = job.request.header("x-simc-stats") == Some("1");
        let scope = want_stats.then(obs::scope);
        let response = run_request(shared, &job);
        let mut body = response.body;
        if let Some(scope) = scope {
            body = splice_stats(&body, &scope.finish());
        }
        respond(&mut job.stream, response.status, response.role, &body);
    }
}

/// Computes a response, converting a panic anywhere in the request path
/// into `500` instead of a dead worker.
fn run_request(shared: &Shared, job: &Job) -> Response {
    let response = match catch_unwind(AssertUnwindSafe(|| compute(shared, job))) {
        Ok(response) => response,
        Err(_) => Response {
            status: 500,
            body: error_body("panic", "request computation panicked; worker recovered"),
            role: None,
        },
    };
    count_response(response.status);
    response
}

/// The compute path shared by the `/v1/*` endpoints: the request-defect
/// checks, then the response memo (when the daemon has a cache), then
/// [`computed`]. A memo hit builds no pipeline and enters no flight, so
/// it carries no `X-Simc-Flight` header; a flight leader's `200` body is
/// memoized for the next byte-identical request.
fn compute(shared: &Shared, job: &Job) -> Response {
    let params = match Params::of(&job.request, job.received) {
        Ok(params) => params,
        Err(outcome) => return plain(outcome),
    };
    let Some(memo) = &shared.memo else {
        return computed(shared, job, &params);
    };
    let key = params.memo_key(&job.request.body);
    if let Some(body) = simc_cache::lookup(memo, &key).and_then(|body| String::from_utf8(body).ok())
    {
        return Response { status: 200, body, role: None };
    }
    let response = computed(shared, job, &params);
    if response.status == 200 && response.role == Some(Role::Led) {
        simc_cache::store(memo, &key, response.body.as_bytes());
    }
    response
}

/// A response that did not go through the single-flight table.
fn plain(outcome: Outcome) -> Response {
    Response { status: outcome.status, body: outcome.body, role: None }
}

/// The request headers that shape the answer, checked for defects.
struct Params {
    endpoint: Endpoint,
    target: Target,
    /// `/v1/convert` only.
    format: Option<&'static dyn Format>,
    max_states: Option<u64>,
    deadline_ms: Option<u64>,
    /// `deadline_ms` after the request was received.
    deadline: Option<Instant>,
}

impl Params {
    /// Reads the headers of a request received at `received`. A defect
    /// is a ready-made `400`, an already-expired deadline a `429`.
    fn of(request: &Request, received: Instant) -> Result<Params, Outcome> {
        let endpoint = Endpoint::of(&request.path).expect("router admits compute paths only");
        let target = match request.header("x-simc-target") {
            None | Some("c-element") => Target::CElement,
            Some("rs-latch") => Target::RsLatch,
            Some(other) => {
                return Err(error_outcome(
                    400,
                    "parse",
                    &format!("unknown target `{other}` (expected `c-element` or `rs-latch`)"),
                ));
            }
        };
        let max_states = header_u64(request, "x-simc-max-states")?;
        let deadline_ms = header_u64(request, "x-simc-deadline-ms")?;
        let deadline = deadline_ms.map(|ms| received + Duration::from_millis(ms));
        if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
            return Err(error_outcome(
                429,
                "resource limit",
                "deadline exceeded while queued",
            ));
        }
        // `/v1/convert` needs a target format before any work happens; a
        // missing or unknown id is a request defect, same as a bad target.
        let format = match (endpoint, request.header("x-simc-format")) {
            (Endpoint::Convert, None) => {
                return Err(error_outcome(
                    400,
                    "parse",
                    "`/v1/convert` needs an `X-Simc-Format` header (see `GET /v1/formats`)",
                ));
            }
            (Endpoint::Convert, Some(id)) => match simc_formats::by_id(id) {
                Ok(format) => Some(format),
                Err(error) => return Err(error_outcome(400, "parse", &error.to_string())),
            },
            _ => None,
        };
        Ok(Params { endpoint, target, format, max_states, deadline_ms, deadline })
    }

    /// Starts a key over every field that shapes the answer except the
    /// spec. Deadlines are part of it: a tightly-budgeted request must
    /// not publish its refusal to an unbudgeted duplicate.
    fn hasher(&self, domain: &str) -> KeyHasher {
        let mut hasher = KeyHasher::new(domain);
        hasher.update(self.endpoint.tag().as_bytes());
        hasher.update(self.format.map_or("", |f| f.id()).as_bytes());
        hasher.update(target_tag(self.target).as_bytes());
        hasher.update_u64(self.max_states.unwrap_or(u64::MAX));
        hasher.update_u64(self.deadline_ms.unwrap_or(u64::MAX));
        hasher
    }

    /// The response-memo key: the fields plus the raw body bytes.
    fn memo_key(&self, body: &[u8]) -> Key {
        let mut hasher = self.hasher(domains::SERVE_RESPONSE);
        hasher.update(body);
        hasher.finish()
    }
}

/// Answers a request by computing it: parse, elaborate, and run the
/// endpoint's stages inside a flight keyed on the canonical spec.
fn computed(shared: &Shared, job: &Job, params: &Params) -> Response {
    let &Params { endpoint, target, format, max_states, deadline, .. } = params;
    let Ok(spec) = std::str::from_utf8(&job.request.body) else {
        return plain(error_outcome(400, "parse", "request body is not UTF-8"));
    };
    // A convert body that is already an EDIF netlist skips the synthesis
    // pipeline: parse + re-emit, single-flighted over the raw body.
    if endpoint == Endpoint::Convert && simc_formats::looks_like_edif(spec) {
        let format = format.expect("convert requests carry a format");
        let mut hasher = KeyHasher::new(domains::SERVE_FLIGHT);
        hasher.update(endpoint.tag().as_bytes());
        hasher.update(format.id().as_bytes());
        hasher.update(b"reemit");
        hasher.update(spec.as_bytes());
        let key = hasher.finish();
        let cache = shared.cache.clone();
        let text = spec.to_string();
        let result = shared.flights.run(key, move || {
            obs::add(Counter::ServeComputations, 1);
            match simc_formats::reemit_cached(
                cache.as_deref(),
                &text,
                &simc_formats::EdifFormat,
                format,
            ) {
                Ok(out) => convert_outcome(format.id(), &out),
                Err(error) => outcome_for_error(&Error::from(error)),
            }
        });
        return flight_response(result);
    }
    let mut pipeline = Pipeline::from_text(spec).with_target(target).with_threads(1);
    if let Some(cache) = &shared.cache {
        pipeline = pipeline.with_cache(Arc::clone(cache));
    }
    if let Some(max_states) = max_states {
        let options = VerifyOptions { max_states: max_states as usize, ..VerifyOptions::default() };
        pipeline = pipeline.with_verify_options(options);
    }
    if let Some(deadline) = deadline {
        pipeline = pipeline.with_deadline(deadline);
    }
    // Elaborate up front: the single-flight key hashes the *canonical*
    // form, so isomorphic submissions (renamed models, reordered lines)
    // join the same flight. Elaboration itself is cache-memoized.
    let key = {
        let canonical = match pipeline.elaborated() {
            Ok(elaborated) => elaborated.canonical_text(),
            Err(error) => return plain(outcome_for_error(&error)),
        };
        let mut hasher = params.hasher(domains::SERVE_FLIGHT);
        hasher.update(canonical.as_bytes());
        hasher.finish()
    };
    let hold_ms = if shared.test_hooks {
        match header_u64(&job.request, "x-simc-test-sleep-ms") {
            Ok(value) => value,
            Err(response) => return plain(response),
        }
    } else {
        None
    };
    let result = shared.flights.run(key, move || {
        obs::add(Counter::ServeComputations, 1);
        if let Some(ms) = hold_ms {
            std::thread::sleep(Duration::from_millis(ms));
        }
        endpoint_outcome(endpoint, format, pipeline)
    });
    flight_response(result)
}

/// Maps a finished flight onto the response, counting joins.
fn flight_response(result: FlightResult<Outcome>) -> Response {
    match result {
        FlightResult::Value(outcome, role) => {
            if role == Role::Joined {
                obs::add(Counter::ServeInflightJoined, 1);
            }
            Response { status: outcome.status, body: outcome.body, role: Some(role) }
        }
        FlightResult::LeaderFailed => Response {
            status: 500,
            body: error_body("panic", "shared computation panicked; retry"),
            role: Some(Role::Joined),
        },
    }
}

/// Runs the stages an endpoint needs and renders its result body.
fn endpoint_outcome(
    endpoint: Endpoint,
    format: Option<&'static dyn Format>,
    mut pipeline: Pipeline,
) -> Outcome {
    let escape = obs::json::escape;
    match endpoint {
        Endpoint::Analyze => {
            let (states, edges, semimodular, csc, usc) = match pipeline.elaborated() {
                Ok(elaborated) => {
                    let sg = elaborated.sg();
                    let analysis = sg.analysis();
                    (
                        sg.state_count(),
                        sg.edge_count(),
                        analysis.is_semimodular(),
                        analysis.has_csc(),
                        analysis.has_usc(),
                    )
                }
                Err(error) => return outcome_for_error(&error),
            };
            let mc_satisfied = match pipeline.covered() {
                Ok(covered) => covered.report().satisfied(),
                Err(error) => return outcome_for_error(&error),
            };
            Outcome {
                status: 200,
                body: format!(
                    "{{\"status\":\"ok\",\"states\":{states},\"edges\":{edges},\
                     \"semi_modular\":{semimodular},\"csc\":{csc},\"usc\":{usc},\
                     \"mc_satisfied\":{mc_satisfied}}}"
                ),
            }
        }
        Endpoint::Synth => match pipeline.implemented() {
            Ok(implemented) => Outcome {
                status: 200,
                body: format!(
                    "{{\"status\":\"ok\",\"working_states\":{},\"added_signals\":{},\
                     \"cubes\":{},\"literals\":{},\"equations\":{}}}",
                    implemented.working_sg().state_count(),
                    implemented.added_signals(),
                    implemented.implementation().cube_count(),
                    implemented.implementation().literal_count(),
                    escape(&implemented.implementation().equations()),
                ),
            },
            Err(error) => outcome_for_error(&error),
        },
        Endpoint::Verify => {
            let added = match pipeline.implemented() {
                Ok(implemented) => implemented.added_signals(),
                Err(error) => return outcome_for_error(&error),
            };
            match pipeline.verified() {
                Ok(verified) => {
                    let violations: Vec<String> =
                        verified.violations().iter().map(|v| escape(v)).collect();
                    Outcome {
                        // A hazardous verdict is a *negative answer*,
                        // not a malfunction: 422, mirroring CLI exit 1.
                        status: if verified.is_ok() { 200 } else { 422 },
                        body: format!(
                            "{{\"status\":{},\"verdict\":\"{}\",\"explored\":{},\
                             \"added_signals\":{added},\"violations\":[{}]}}",
                            if verified.is_ok() { "\"ok\"" } else { "\"fail\"" },
                            if verified.is_ok() { "hazard-free" } else { "hazardous" },
                            verified.explored(),
                            violations.join(","),
                        ),
                    }
                }
                Err(error) => outcome_for_error(&error),
            }
        }
        Endpoint::Convert => {
            let format = format.expect("convert requests carry a format");
            match pipeline.converted(format.id()) {
                Ok(text) => convert_outcome(format.id(), &text),
                Err(error) => outcome_for_error(&error),
            }
        }
    }
}

/// The `/v1/convert` success body: the emitted text plus its format.
fn convert_outcome(format: &str, text: &str) -> Outcome {
    Outcome {
        status: 200,
        body: format!(
            "{{\"status\":\"ok\",\"format\":{},\"bytes\":{},\"text\":{}}}",
            obs::json::escape(format),
            text.len(),
            obs::json::escape(text),
        ),
    }
}

/// Maps a pipeline error onto the status contract (the HTTP analogue of
/// `cli_error` in the CLI front end).
fn outcome_for_error(error: &Error) -> Outcome {
    let status = match error.kind() {
        ErrorKind::Parse => 400,
        ErrorKind::ResourceLimit => 429,
        ErrorKind::Synthesis | ErrorKind::Verification => 422,
        _ => 500,
    };
    error_outcome(status, &error.kind().to_string(), &error.to_string())
}

fn error_outcome(status: u16, kind: &str, message: &str) -> Outcome {
    Outcome { status, body: error_body(kind, message) }
}

fn error_body(kind: &str, message: &str) -> String {
    format!(
        "{{\"status\":\"error\",\"kind\":{},\"error\":{}}}",
        obs::json::escape(kind),
        obs::json::escape(message),
    )
}

/// Parses an optional numeric header; the error is a ready-made `400`.
fn header_u64(request: &Request, name: &str) -> Result<Option<u64>, Outcome> {
    match request.header(name) {
        None => Ok(None),
        Some(value) => value.parse::<u64>().map(Some).map_err(|_| {
            error_outcome(400, "parse", &format!("header {name} needs an unsigned integer"))
        }),
    }
}

/// Updates the serve outcome counters for a response status. `429` is
/// the deadline/budget refusal, `503` the shed path; every other
/// non-2xx is a request that *failed* rather than was refused.
fn count_response(status: u16) {
    match status {
        429 => obs::add(Counter::ServeDeadlineExceeded, 1),
        503 => obs::add(Counter::ServeShedOverload, 1),
        400.. => obs::add(Counter::ServeErrors, 1),
        _ => {}
    }
}

/// Splices a request's own counter deltas into its JSON body (which
/// always ends in `}`): `...,"stats":{"serve.computations":1}}`.
/// Zero counters are omitted.
fn splice_stats(body: &str, stats: &[(Counter, u64)]) -> String {
    let trimmed = body.strip_suffix('}').unwrap_or(body);
    let mut out = String::with_capacity(body.len() + 64);
    out.push_str(trimmed);
    out.push_str(",\"stats\":{");
    let mut first = true;
    for &(counter, value) in stats {
        if value == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&obs::json::escape(counter.name()));
        out.push(':');
        out.push_str(&value.to_string());
    }
    out.push_str("}}");
    out
}

/// Writes a response, attaching the `X-Simc-Flight` header when the
/// request went through the single-flight table. Write failures mean
/// the client vanished; the server does not care.
fn respond(stream: &mut TcpStream, status: u16, role: Option<Role>, body: &str) {
    let mut headers: Vec<(&str, &str)> = Vec::new();
    match role {
        Some(Role::Led) => headers.push(("X-Simc-Flight", "led")),
        Some(Role::Joined) => headers.push(("X-Simc-Flight", "joined")),
        None => {}
    }
    let _ = http::write_response(stream, status, &headers, body);
}

/// Stable tag naming a target inside flight keys.
fn target_tag(target: Target) -> &'static str {
    match target {
        Target::CElement => "c-element",
        Target::RsLatch => "rs-latch",
    }
}
