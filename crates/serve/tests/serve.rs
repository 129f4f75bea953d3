//! End-to-end tests of the `simc serve` daemon over real sockets: the
//! status contract, single-flight deduplication, deadline and overload
//! shedding, per-request stats, and graceful drain.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use simc_serve::{ServeConfig, Server};

/// A parsed response: status, lower-cased headers, body.
struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// Sends one request and reads the response to EOF (the server closes).
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut raw = format!("{method} {path} HTTP/1.1\r\nHost: test\r\n");
    for (name, value) in headers {
        raw.push_str(&format!("{name}: {value}\r\n"));
    }
    raw.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("head/body split");
    let mut lines = head.lines();
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line `{status_line}`"));
    let headers = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Response { status, headers, body: body.to_string() }
}

fn post(addr: SocketAddr, path: &str, headers: &[(&str, &str)], body: &str) -> Response {
    request(addr, "POST", path, headers, body)
}

/// A small MC-satisfied spec (the paper's toggle example) as `.sg` text.
fn toggle_text() -> String {
    simc_sg::write_sg(&simc_benchmarks::figures::toggle(), "toggle")
}

/// A spec that needs MC-reduction (more work for the hold-open tests).
fn figure4_text() -> String {
    simc_sg::write_sg(&simc_benchmarks::figures::figure4(), "figure4")
}

fn start(config: ServeConfig) -> Server {
    Server::start(config).expect("server starts")
}

#[test]
fn compute_endpoints_round_trip() {
    let server = start(ServeConfig { workers: 2, ..ServeConfig::default() });
    let addr = server.addr();
    let spec = toggle_text();

    let analyze = post(addr, "/v1/analyze", &[], &spec);
    assert_eq!(analyze.status, 200, "{}", analyze.body);
    assert!(analyze.body.contains("\"mc_satisfied\":true"), "{}", analyze.body);

    let synth = post(addr, "/v1/synth", &[], &spec);
    assert_eq!(synth.status, 200, "{}", synth.body);
    assert!(synth.body.contains("\"equations\""), "{}", synth.body);
    assert_eq!(synth.header("x-simc-flight"), Some("led"));

    let verify = post(addr, "/v1/verify", &[("X-Simc-Target", "rs-latch")], &spec);
    assert_eq!(verify.status, 200, "{}", verify.body);
    assert!(verify.body.contains("\"verdict\":\"hazard-free\""), "{}", verify.body);

    let health = request(addr, "GET", "/healthz", &[], "");
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"status\":\"ok\""), "{}", health.body);

    let stats = request(addr, "GET", "/stats", &[], "");
    assert_eq!(stats.status, 200);
    assert!(stats.body.contains("serve.requests"), "{}", stats.body);

    assert_eq!(post(addr, "/shutdown", &[], "").status, 200);
    server.join();
}

#[test]
fn status_contract_maps_failures() {
    let server = start(ServeConfig { workers: 2, ..ServeConfig::default() });
    let addr = server.addr();

    // Malformed spec -> 400 (the CLI's exit 2).
    let bad = post(addr, "/v1/verify", &[], ".model x\n.state graph\nbad line\n.end\n");
    assert_eq!(bad.status, 400, "{}", bad.body);
    assert!(bad.body.contains("\"kind\":\"parse\""), "{}", bad.body);

    // Unknown target header -> 400 before any pipeline work.
    let target = post(addr, "/v1/synth", &[("X-Simc-Target", "nand")], &toggle_text());
    assert_eq!(target.status, 400, "{}", target.body);

    // Routing errors.
    assert_eq!(post(addr, "/v1/nonsense", &[], "").status, 404);
    assert_eq!(request(addr, "GET", "/v1/synth", &[], "").status, 405);

    // An expired deadline -> 429 (the budget-refusal path).
    let late = post(addr, "/v1/verify", &[("X-Simc-Deadline-Ms", "0")], &toggle_text());
    assert_eq!(late.status, 429, "{}", late.body);
    assert!(late.body.contains("deadline exceeded"), "{}", late.body);

    // A verifier state budget of 1 -> TooManyStates -> 429.
    let tiny = post(addr, "/v1/verify", &[("X-Simc-Max-States", "1")], &toggle_text());
    assert_eq!(tiny.status, 429, "{}", tiny.body);

    assert_eq!(post(addr, "/shutdown", &[], "").status, 200);
    server.join();
}

#[test]
fn duplicate_concurrent_submissions_share_one_computation() {
    const CLIENTS: usize = 4;
    let server = start(ServeConfig {
        workers: CLIENTS,
        test_hooks: true,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let spec = figure4_text();
    // The hold keeps the leader's flight open long enough for every
    // duplicate to be dequeued and join it.
    let responses: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let spec = &spec;
                scope.spawn(move || {
                    post(
                        addr,
                        "/v1/verify",
                        &[("X-Simc-Test-Sleep-Ms", "800"), ("X-Simc-Stats", "1")],
                        spec,
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client ok")).collect()
    });
    let mut led = 0;
    let mut joined = 0;
    for response in &responses {
        assert_eq!(response.status, 200, "{}", response.body);
        assert!(
            response.body.contains("\"verdict\":\"hazard-free\""),
            "{}",
            response.body
        );
        match response.header("x-simc-flight") {
            Some("led") => led += 1,
            Some("joined") => joined += 1,
            other => panic!("missing flight header: {other:?}"),
        }
    }
    assert_eq!(led, 1, "exactly one request computes");
    assert_eq!(joined, CLIENTS - 1, "every duplicate joins the leader");
    // Per-request scoped stats: the leader reports its computation,
    // joiners report the join (and no pipeline work of their own).
    let leader = responses
        .iter()
        .find(|r| r.header("x-simc-flight") == Some("led"))
        .expect("leader");
    assert!(leader.body.contains("\"serve.computations\":1"), "{}", leader.body);
    let joiner = responses
        .iter()
        .find(|r| r.header("x-simc-flight") == Some("joined"))
        .expect("joiner");
    assert!(joiner.body.contains("\"serve.inflight_joined\":1"), "{}", joiner.body);
    assert!(!joiner.body.contains("\"serve.computations\""), "{}", joiner.body);

    assert_eq!(post(addr, "/shutdown", &[], "").status, 200);
    server.join();
}

#[test]
fn full_queue_sheds_with_503() {
    let server = start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        test_hooks: true,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let spec = toggle_text();
    std::thread::scope(|scope| {
        // Occupy the single worker with a held-open computation.
        let busy = scope.spawn(|| {
            post(addr, "/v1/synth", &[("X-Simc-Test-Sleep-Ms", "1500")], &spec)
        });
        // Wait until the worker has dequeued it (the queue reads empty).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let health = request(addr, "GET", "/healthz", &[], "");
            if health.body.contains("\"queued\":0,\"in_flight\":1") {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "worker never dequeued");
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        // One slot in the queue...
        let queued = scope.spawn(|| post(addr, "/v1/analyze", &[], &spec));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let health = request(addr, "GET", "/healthz", &[], "");
            if health.body.contains("\"queued\":1") {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "job never queued");
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        // ...and the next submission is shed.
        let shed = post(addr, "/v1/analyze", &[], &spec);
        assert_eq!(shed.status, 503, "{}", shed.body);
        assert!(shed.body.contains("\"kind\":\"overload\""), "{}", shed.body);
        assert_eq!(busy.join().expect("busy ok").status, 200);
        assert_eq!(queued.join().expect("queued ok").status, 200);
    });
    assert_eq!(post(addr, "/shutdown", &[], "").status, 200);
    server.join();
}

#[test]
fn shutdown_drains_in_flight_work() {
    let server = start(ServeConfig {
        workers: 1,
        test_hooks: true,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let spec = toggle_text();
    let slow = {
        let spec = spec.clone();
        std::thread::spawn(move || {
            post(addr, "/v1/verify", &[("X-Simc-Test-Sleep-Ms", "700")], &spec)
        })
    };
    // Let the worker pick the job up, then ask for shutdown while it is
    // still computing.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let health = request(addr, "GET", "/healthz", &[], "");
        if health.body.contains("\"in_flight\":1") {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "worker never started");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let draining = post(addr, "/shutdown", &[], "");
    assert_eq!(draining.status, 200);
    assert!(draining.body.contains("draining"), "{}", draining.body);
    // Join blocks until the queue is drained; the in-flight request
    // still completes successfully.
    server.join();
    let response = slow.join().expect("slow request survived the drain");
    assert_eq!(response.status, 200, "{}", response.body);
}

#[test]
fn requests_share_the_warm_artifact_cache() {
    let cache: Arc<dyn simc_cache::Cache> = Arc::new(simc_cache::MemCache::new(8 << 20));
    let server = start(ServeConfig {
        workers: 2,
        cache: Some(Arc::clone(&cache)),
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let spec = toggle_text();
    let cold = post(addr, "/v1/verify", &[("X-Simc-Stats", "1")], &spec);
    assert_eq!(cold.status, 200, "{}", cold.body);
    // The same spec under another name: it misses the response memo and
    // the flight is over, so this computes — but every stage is revived
    // from the shared cache (hits, no pipeline work).
    let renamed = spec.replacen(".model toggle", ".model renamed", 1);
    assert_ne!(renamed, spec);
    let warm = post(addr, "/v1/verify", &[("X-Simc-Stats", "1")], &renamed);
    assert_eq!(warm.status, 200, "{}", warm.body);
    assert!(counted_computation(&warm), "{}", warm.body);
    assert!(warm.body.contains("\"cache.hits\""), "{}", warm.body);
    assert!(!warm.body.contains("\"sat.solves\""), "warm run does no SAT work: {}", warm.body);
    assert_eq!(cold.body.split("\"stats\"").next(), warm.body.split("\"stats\"").next());
    assert_eq!(post(addr, "/shutdown", &[], "").status, 200);
    server.join();
}

/// A daemon with an in-memory artifact cache, which switches on the
/// response memo.
fn start_cached() -> Server {
    let cache: Arc<dyn simc_cache::Cache> = Arc::new(simc_cache::MemCache::new(8 << 20));
    start(ServeConfig { workers: 2, cache: Some(cache), ..ServeConfig::default() })
}

/// Posts with `X-Simc-Stats: 1` added, so the body ends in the
/// request's own counter deltas.
fn post_with_stats(
    addr: SocketAddr,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> Response {
    let mut headers = headers.to_vec();
    headers.push(("X-Simc-Stats", "1"));
    post(addr, path, &headers, body)
}

/// One counter of a response's stats splice (absent when zero).
fn stat(response: &Response, counter: &str) -> Option<u64> {
    let (_, rest) = response.body.split_once(&format!("\"{counter}\":"))?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn counted_computation(response: &Response) -> bool {
    stat(response, "serve.computations") == Some(1)
}

/// A well-formed spec synthesis refuses (an output is disabled by an
/// input: not output semi-modular), answered 422 from inside a flight.
const NOT_SEMIMODULAR: &str = ".model np
.inputs a
.outputs b
.state graph
s0 a+ s1
s0 b+ s2
s2 a+ s3
s1 a- s0
s3 b- s4
s4 a- s0
.marking {s0}
.end
";

#[test]
fn repeated_request_is_answered_from_the_memo() {
    let server = start_cached();
    let addr = server.addr();
    let spec = figure4_text();
    let first = post(addr, "/v1/verify", &[], &spec);
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(first.header("x-simc-flight"), Some("led"));

    // The repeat is the first answer byte for byte, and it ran no
    // flight, so it carries no flight header.
    let repeat = post(addr, "/v1/verify", &[], &spec);
    assert_eq!(repeat.status, 200, "{}", repeat.body);
    assert_eq!(repeat.body, first.body);
    assert_eq!(repeat.header("x-simc-flight"), None);

    // It did no work: no computation, no elaboration, one memo hit.
    let counted = post_with_stats(addr, "/v1/verify", &[], &spec);
    assert_eq!(counted.status, 200, "{}", counted.body);
    assert_eq!(counted.header("x-simc-flight"), None);
    assert_eq!(stat(&counted, "serve.computations"), None, "{}", counted.body);
    assert_eq!(stat(&counted, "reach.states"), None, "{}", counted.body);
    assert_eq!(stat(&counted, "cache.hits"), Some(1), "{}", counted.body);
    assert_eq!(stat(&counted, "cache.misses"), None, "{}", counted.body);
    assert_eq!(post(addr, "/shutdown", &[], "").status, 200);
    server.join();
}

#[test]
fn memo_key_covers_every_field_that_shapes_the_answer() {
    let server = start_cached();
    let addr = server.addr();
    let spec = toggle_text();
    let base: &[(&str, &str)] =
        &[("X-Simc-Max-States", "100000"), ("X-Simc-Deadline-Ms", "60000")];
    assert!(counted_computation(&post_with_stats(addr, "/v1/verify", base, &spec)));
    assert!(!counted_computation(&post_with_stats(addr, "/v1/verify", base, &spec)));

    // One field changed at a time: each is computed, not served.
    let variants = [
        ("target", [base, &[("X-Simc-Target", "rs-latch")]].concat(), spec.clone()),
        ("max-states", vec![("X-Simc-Max-States", "100001"), base[1]], spec.clone()),
        ("deadline", vec![base[0], ("X-Simc-Deadline-Ms", "60001")], spec.clone()),
        // An isomorphic spec one byte away: same canonical form, so the
        // stage caches answer it, but the memo must not.
        ("body", base.to_vec(), spec.replacen(".model toggle", ".model togglf", 1)),
    ];
    assert_ne!(variants[3].2, spec, "the body variant differs from the base");
    for (field, headers, body) in &variants {
        let response = post_with_stats(addr, "/v1/verify", headers, body);
        assert_eq!(response.status, 200, "{field}: {}", response.body);
        assert!(counted_computation(&response), "{field}: {}", response.body);
        assert_eq!(response.header("x-simc-flight"), Some("led"), "{field}");
    }

    // The format is part of the key too.
    let edif = post_with_stats(addr, "/v1/convert", &[("X-Simc-Format", "edif")], &spec);
    assert_eq!(edif.status, 200, "{}", edif.body);
    assert!(counted_computation(&edif), "{}", edif.body);
    let sg = post_with_stats(addr, "/v1/convert", &[("X-Simc-Format", "sg")], &spec);
    assert_eq!(sg.status, 200, "{}", sg.body);
    assert!(counted_computation(&sg), "{}", sg.body);
    assert!(sg.body.contains("\"format\":\"sg\""), "{}", sg.body);
    let repeat = post_with_stats(addr, "/v1/convert", &[("X-Simc-Format", "edif")], &spec);
    assert!(!counted_computation(&repeat), "{}", repeat.body);
    assert_eq!(post(addr, "/shutdown", &[], "").status, 200);
    server.join();
}

#[test]
fn failed_answers_are_computed_again() {
    let server = start_cached();
    let addr = server.addr();
    // 422: a refusal from inside a flight; each repeat runs it again.
    for _ in 0..2 {
        let refused = post_with_stats(addr, "/v1/synth", &[], NOT_SEMIMODULAR);
        assert_eq!(refused.status, 422, "{}", refused.body);
        assert!(counted_computation(&refused), "{}", refused.body);
        assert_eq!(refused.header("x-simc-flight"), Some("led"));
    }
    // 429: a blown state budget, also computed on every repeat.
    for _ in 0..2 {
        let budget =
            post_with_stats(addr, "/v1/verify", &[("X-Simc-Max-States", "1")], &toggle_text());
        assert_eq!(budget.status, 429, "{}", budget.body);
        assert!(counted_computation(&budget), "{}", budget.body);
    }
    // 400: a malformed spec fails in parsing, before any flight; the
    // repeat parses again rather than hitting the memo.
    let malformed = ".model x\n.state graph\nbad line\n.end\n";
    for _ in 0..2 {
        let bad = post_with_stats(addr, "/v1/verify", &[], malformed);
        assert_eq!(bad.status, 400, "{}", bad.body);
        assert!(bad.body.contains("\"kind\":\"parse\""), "{}", bad.body);
        assert_eq!(stat(&bad, "cache.hits"), None, "{}", bad.body);
    }
    assert_eq!(post(addr, "/shutdown", &[], "").status, 200);
    server.join();
}

#[test]
fn cacheless_daemon_computes_every_request() {
    let server = start(ServeConfig { workers: 2, ..ServeConfig::default() });
    let addr = server.addr();
    let spec = toggle_text();
    let mut bodies = Vec::new();
    for _ in 0..3 {
        let response = post_with_stats(addr, "/v1/synth", &[], &spec);
        assert_eq!(response.status, 200, "{}", response.body);
        assert!(counted_computation(&response), "{}", response.body);
        assert_eq!(response.header("x-simc-flight"), Some("led"));
        bodies.push(response.body.split("\"stats\"").next().map(str::to_string));
    }
    assert!(bodies.windows(2).all(|w| w[0] == w[1]));
    assert_eq!(post(addr, "/shutdown", &[], "").status, 200);
    server.join();
}
