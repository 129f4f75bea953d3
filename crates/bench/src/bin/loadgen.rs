//! Replays the benchmark suite against a live `simc serve` daemon at
//! high concurrency and records the results as the `serve` section of
//! `BENCH_pipeline.json`.
//!
//! The driver spawns the real binary (`simc serve --port 0`), learns the
//! ephemeral address from the daemon's announcement line, and runs two
//! passes over the suite's `.sg` specifications:
//!
//! * a **cold** pass issuing every benchmark `--dup` times concurrently
//!   — duplicates arrive while the leader is still computing, so the
//!   daemon's single-flight map must coalesce them
//!   (`serve.inflight_joined > 0`);
//! * a **warm** pass replaying each benchmark once — every repeat must
//!   be answered from the daemon's caches (hit-rate ≥ 0.9); a
//!   byte-identical repeat is one hit in its response memo.
//!
//! Both gates are hard: the run exits 1 when dedup or the warm cache
//! fails to show up in `/stats`, so CI catches a regressed daemon, not
//! just a slow one. `--contract` adds status-contract probes (malformed
//! spec → 400, expired deadline → 429, unknown route → 404, wrong
//! method → 405) and `--smoke` shrinks the sweep for the CI gate.
//!
//! Usage: `loadgen [--server PATH] [--dup N] [--threads N] [--smoke]
//! [--contract] [--out BENCH_pipeline.json]`

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use simc_benchmarks::suite;
use simc_obs::json::{self, Value};

/// Benchmarks replayed under `--smoke`: the same subset as the
/// `repro_pipeline` CI gate, so the daemon smoke exercises both a
/// trivial spec and the insertion-heavy sequencers.
const SMOKE_SET: &[&str] = &["duplicator", "berkel3", "ganesh_8"];

/// Client-side socket timeout — a hung daemon fails the run instead of
/// wedging CI.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

/// Minimum cache hit-rate the warm pass must reach.
const WARM_HIT_RATE_FLOOR: f64 = 0.9;

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--server PATH] [--dup N] [--threads N] [--smoke] [--contract] \
         [--out BENCH_pipeline.json]"
    );
    std::process::exit(2);
}

/// The spawned daemon plus everything needed to tear it down. Dropping
/// the guard kills the child, so a panicking assertion never leaks a
/// listening process into CI.
struct Daemon {
    child: Child,
    addr: String,
    cache_dir: PathBuf,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

impl Daemon {
    /// Spawns `server serve --port 0` with a scratch disk cache and
    /// parses the announcement line for the bound address.
    fn spawn(server: &str, threads: usize) -> Daemon {
        let cache_dir = std::env::temp_dir()
            .join(format!("simc-loadgen-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&cache_dir).ok();
        let mut child = Command::new(server)
            .args([
                "serve",
                "--port",
                "0",
                "--threads",
                &threads.to_string(),
                "--cache-dir",
            ])
            .arg(&cache_dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .unwrap_or_else(|e| {
                eprintln!("error: spawning `{server} serve`: {e}");
                std::process::exit(1);
            });
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("daemon announcement");
        let Some(addr) = line.trim().strip_prefix("listening on http://") else {
            let _ = child.kill();
            eprintln!("error: unexpected daemon announcement `{}`", line.trim());
            std::process::exit(1);
        };
        Daemon { addr: addr.to_string(), child, cache_dir }
    }

    /// One HTTP exchange: returns `(status, body)`.
    fn request(&self, method: &str, path: &str, headers: &[(&str, &str)], body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(&self.addr).expect("connect to daemon");
        stream.set_read_timeout(Some(CLIENT_TIMEOUT)).expect("read timeout");
        stream.set_write_timeout(Some(CLIENT_TIMEOUT)).expect("write timeout");
        let mut raw = format!("{method} {path} HTTP/1.1\r\nHost: loadgen\r\n");
        for (name, value) in headers {
            raw.push_str(&format!("{name}: {value}\r\n"));
        }
        raw.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
        stream.write_all(raw.as_bytes()).expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let status = response
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad response `{response}`"));
        let body = response.split_once("\r\n\r\n").map_or("", |(_, b)| b).to_string();
        (status, body)
    }

    fn post(&self, path: &str, body: &str) -> (u16, String) {
        self.request("POST", path, &[], body)
    }

    /// Snapshot of the daemon's `/stats` counters.
    fn stats(&self) -> Value {
        let (status, body) = self.request("GET", "/stats", &[], "");
        assert_eq!(status, 200, "/stats failed: {body}");
        json::parse(&body).expect("stats JSON parses")
    }

    /// Asks the daemon to drain and waits for a clean exit.
    fn shutdown(mut self) {
        let (status, body) = self.post("/shutdown", "");
        assert_eq!(status, 200, "shutdown refused: {body}");
        let status = self.child.wait().expect("daemon exits");
        assert!(status.success(), "daemon exit status: {status:?}");
        let _ = std::fs::remove_dir_all(&self.cache_dir);
        // The child is already reaped; keep Drop from killing a dead pid.
        std::mem::forget(self);
    }
}

/// One counter out of a `/stats` snapshot (0 when absent).
fn counter(stats: &Value, name: &str) -> u64 {
    stats
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

/// Replaces any previous `serve` section and inserts `serve` (already
/// rendered as a JSON object) as the last section of the document.
fn splice_serve(text: &str, serve: &str) -> String {
    // The section is always spliced last, so stripping means truncating
    // at its lead-in and restoring the closing brace.
    let base = match text.find(",\n  \"serve\": {") {
        Some(i) => format!("{}\n}}\n", &text[..i]),
        None => text.to_string(),
    };
    let trimmed = base.trim_end();
    let body = trimmed.strip_suffix('}').expect("document ends with `}`").trim_end();
    format!("{body},\n  \"serve\": {serve}\n}}\n")
}

fn main() {
    let mut server = "./target/release/simc".to_string();
    let mut dup = 4usize;
    let mut threads = 0usize;
    let mut smoke = false;
    let mut contract = false;
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {flag} requires a value");
                usage()
            })
        };
        match a.as_str() {
            "--server" => server = value("--server"),
            "--out" => out_path = Some(value("--out")),
            "--dup" => {
                let v = value("--dup");
                dup = v.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
                    eprintln!("error: --dup takes a positive integer, got `{v}`");
                    usage()
                });
            }
            "--threads" => {
                let v = value("--threads");
                threads = v.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
                    eprintln!("error: --threads takes a positive integer, got `{v}`");
                    usage()
                });
            }
            "--smoke" => smoke = true,
            "--contract" => contract = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument `{other}`");
                usage()
            }
        }
    }
    if smoke {
        dup = dup.min(2);
    }
    // The pool must at least fit one full duplicate wave, or the queue —
    // not the flight map — would serialize the duplicates.
    if threads == 0 {
        threads = dup.max(4);
    }

    let mut benchmarks = suite::all();
    if smoke {
        benchmarks.retain(|b| SMOKE_SET.contains(&b.name));
        assert_eq!(benchmarks.len(), SMOKE_SET.len(), "smoke subset missing from suite");
    }
    let specs: Vec<(String, String)> = benchmarks
        .iter()
        .map(|b| {
            let sg = b.stg.to_state_graph().expect("suite benchmark reaches");
            (b.name.to_string(), simc_sg::write_sg(&sg, b.name))
        })
        .collect();

    let daemon = Daemon::spawn(&server, threads);
    println!("daemon at http://{} ({} workers)", daemon.addr, threads);

    if contract {
        let (status, body) = daemon.post("/v1/verify", ".model x\nnot a spec\n");
        assert_eq!(status, 400, "malformed spec: {body}");
        let (status, body) =
            daemon.request("POST", "/v1/verify", &[("X-Simc-Deadline-Ms", "0")], &specs[0].1);
        assert_eq!(status, 429, "expired deadline: {body}");
        let (status, _) = daemon.post("/v1/nonsense", "");
        assert_eq!(status, 404, "unknown route");
        let (status, _) = daemon.request("GET", "/v1/synth", &[], "");
        assert_eq!(status, 405, "wrong method");
        println!("contract: 400/429/404/405 all answered as specified");
    }

    let before = daemon.stats();

    // Cold pass: every benchmark `dup` times, duplicates concurrent.
    let cold_start = Instant::now();
    for (name, spec) in &specs {
        let responses: Vec<(u16, String)> = std::thread::scope(|scope| {
            let handles: Vec<_> =
                (0..dup).map(|_| scope.spawn(|| daemon.post("/v1/verify", spec))).collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        for (status, body) in &responses {
            assert_eq!(*status, 200, "{name} cold: {body}");
        }
    }
    let cold_s = cold_start.elapsed().as_secs_f64();
    let after_cold = daemon.stats();

    // Warm pass: each benchmark once — every repeat is a cache hit.
    let warm_start = Instant::now();
    for (name, spec) in &specs {
        let (status, body) = daemon.post("/v1/verify", spec);
        assert_eq!(status, 200, "{name} warm: {body}");
    }
    let warm_s = warm_start.elapsed().as_secs_f64();
    let after_warm = daemon.stats();

    let requests = counter(&after_warm, "serve.requests") - counter(&before, "serve.requests");
    let computations =
        counter(&after_warm, "serve.computations") - counter(&before, "serve.computations");
    let joined = counter(&after_cold, "serve.inflight_joined")
        - counter(&before, "serve.inflight_joined");
    let warm_hits = counter(&after_warm, "cache.hits") - counter(&after_cold, "cache.hits");
    let warm_misses =
        counter(&after_warm, "cache.misses") - counter(&after_cold, "cache.misses");
    let warm_hit_rate = warm_hits as f64 / (warm_hits + warm_misses).max(1) as f64;

    println!(
        "cold: {} benchmark(s) x {dup} in {:.1} ms   warm: {:.1} ms ({:.2}x)",
        specs.len(),
        cold_s * 1e3,
        warm_s * 1e3,
        cold_s / warm_s.max(1e-9)
    );
    println!(
        "dedup: {computations} computation(s) for {requests} request(s), {joined} joined in flight"
    );
    println!("warm cache: {warm_hits} hit(s), {warm_misses} miss(es) ({warm_hit_rate:.3})");

    // The two acceptance gates, hard-failed so CI notices.
    assert!(joined > 0, "no duplicate request ever joined an in-flight computation");
    assert!(
        warm_hit_rate >= WARM_HIT_RATE_FLOOR,
        "warm pass hit-rate {warm_hit_rate:.3} below {WARM_HIT_RATE_FLOOR}"
    );

    daemon.shutdown();
    println!("daemon drained and exited cleanly");

    let serve = format!(
        "{{\n    \"mode\": \"{}\",\n    \"workers\": {threads},\n    \"benchmarks\": {},\n    \
         \"dup\": {dup},\n    \"requests\": {requests},\n    \"computations\": {computations},\n    \
         \"inflight_joined\": {joined},\n    \"cold_s\": {cold_s:.6},\n    \"warm_s\": {warm_s:.6},\n    \
         \"warm_hits\": {warm_hits},\n    \"warm_misses\": {warm_misses},\n    \
         \"warm_hit_rate\": {warm_hit_rate:.4}\n  }}",
        if smoke { "smoke" } else { "full" },
        specs.len(),
    );
    if let Some(out_path) = out_path {
        let text = std::fs::read_to_string(&out_path)
            .unwrap_or_else(|e| panic!("reading {out_path}: {e}"));
        let spliced = splice_serve(&text, &serve);
        // The spliced document must still satisfy the workspace parser.
        json::parse(&spliced).expect("spliced BENCH JSON parses");
        std::fs::write(&out_path, &spliced).expect("write spliced BENCH JSON");
        println!("spliced serve section into {out_path}");
    } else {
        println!("serve section (pass --out to record):\n{serve}");
    }
}
