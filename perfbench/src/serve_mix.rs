//! The open-loop workload `serve-mix` against a spawned `simc serve`.
//!
//! Requests go out on a seeded schedule at a fixed offered rate, from at
//! most `nproc` connections at once, and each is timed from its due
//! time. The mix repeats one round (see [`round`]): `/v1/verify` repeats
//! of the primed Table 1 specs (cache reads), `/v1/synth` on fresh fuzz
//! specs (misses and cache writes) and `/v1/convert` to EDIF of larger
//! fresh fuzz specs (misses, cache writes and an EDIF emit). Reads and
//! writes share the daemon's one cache.

use std::collections::{BTreeMap, HashSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use simc_fuzz::{GenConfig, Rng};
use simc_obs::json::{self, Value};
use simc_pipeline::Pipeline;

use crate::{check, median, metric, per_layer_metrics, percentile, Args, Outcome, OUT_DIR};

/// Offered load, requests per second: the daemon's two workers are idle
/// most of the time, so requests seldom queue behind one another.
const RATE_PER_S: f64 = 60.0;

/// Requests per round.
const ROUND_LEN: usize = 100;

/// `/v1/synth` requests per round.
const SYNTHS_PER_ROUND: usize = 1;

/// A fresh-spec class: a fuzz generator configuration (no CSC injection,
/// so nothing is inserted and none fail) and the one state count every
/// spec of the class has. Synthesis time follows the state count
/// closely, so the specs of a class cost about the same.
struct FreshClass {
    config: GenConfig,
    states: usize,
}

/// The `/v1/synth` specs: nine handshake signals plus the synchronizer,
/// 768 states, about 6 ms of synthesis in-process.
const SYNTH_CLASS: FreshClass = FreshClass {
    config: GenConfig {
        signals: 9,
        concurrency: 90,
        csc_injection: false,
    },
    states: 768,
};

/// The `/v1/convert` specs: ten handshake signals, all concurrent (2 048
/// states), about 17 ms of synthesis in-process.
const CONVERT_CLASS: FreshClass = FreshClass {
    config: GenConfig {
        signals: 10,
        concurrency: 90,
        csc_injection: false,
    },
    states: 2048,
};

/// The generator seed of the fresh-spec pools.
const FUZZ_SEED: u64 = 0xDAC94;

/// Client-side timeout of one exchange.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `/v1/verify` of a primed Table 1 spec: a cache read.
    Verify,
    /// `/v1/synth` of a fresh spec: a miss and cache writes.
    Synth,
    /// `/v1/convert` to EDIF of a larger fresh spec: a miss, cache
    /// writes and an emit.
    Convert,
}

/// One round of the mix, in order: [`ROUND_LEN`] requests, one
/// conversion first, [`SYNTHS_PER_ROUND`] synth misses spread evenly,
/// verify repeats for the rest (98% verify, 1% synth, 1% convert).
///
/// A conversion is the slowest request, a synth miss the next, a verify
/// repeat the fastest (below a millisecond). With these shares p50 and
/// p90 both lie among the verify repeats, at about their 51st and 92nd
/// percentiles. The misses stay out of the reported percentiles: their
/// latency follows the shared machine's load and disk from minute to
/// minute (see the README), while the hits' does not.
fn round() -> [Kind; ROUND_LEN] {
    let mut round = [Kind::Verify; ROUND_LEN];
    round[0] = Kind::Convert;
    let spacing = ROUND_LEN / SYNTHS_PER_ROUND;
    for k in 0..SYNTHS_PER_ROUND {
        round[spacing / 2 + k * spacing] = Kind::Synth;
    }
    round
}

impl Kind {
    fn endpoint(self) -> &'static str {
        match self {
            Kind::Verify => "/v1/verify",
            Kind::Synth => "/v1/synth",
            Kind::Convert => "/v1/convert",
        }
    }

    /// The per-layer latency class.
    fn class(self) -> &'static str {
        match self {
            Kind::Verify => "serve.hit_p50_ms",
            Kind::Synth => "serve.miss_p50_ms",
            Kind::Convert => "serve.convert_p50_ms",
        }
    }
}

/// Where the specs sit in the spec list: the nine Table 1 specs, then
/// the synth specs ([`SYNTHS_PER_ROUND`] per round), then the convert
/// specs (one per round).
const FIRST_FRESH: usize = 9;

/// One scheduled request.
struct Request {
    due: Duration,
    kind: Kind,
    /// Index into the spec list.
    spec: usize,
}

/// One answered request.
struct Answer {
    index: usize,
    latency_ms: f64,
    lateness_ms: f64,
    status: u16,
    body: String,
}

/// The responses of the priming requests for one repeated spec.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Primed {
    verify: String,
    synth: String,
}

/// A spawned daemon; dropping it kills the process and removes its cache.
struct Daemon {
    child: Child,
    addr: String,
    cache_dir: PathBuf,
    /// Held open so the daemon's later writes never meet a closed pipe.
    stdout: BufReader<ChildStdout>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

impl Daemon {
    /// Spawns `simc serve` on an ephemeral port with an empty cache
    /// directory and waits for its announcement.
    fn spawn(simc: &str, round: usize) -> Result<Daemon, String> {
        let cache_dir =
            PathBuf::from(OUT_DIR).join(format!("serve-cache-{}-{round}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut child = Command::new(simc)
            .args([
                "serve",
                "--port",
                "0",
                "--threads",
                &threads.to_string(),
                "--cache-dir",
            ])
            .arg(&cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning `{simc} serve`: {e}"))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            cache_dir,
            stdout,
        };
        let mut line = String::new();
        daemon
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading the daemon announcement: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("listening on http://")
            .ok_or_else(|| format!("unexpected daemon announcement `{}`", line.trim()))?
            .to_string();
        Ok(daemon)
    }

    fn stats(&self) -> Result<BTreeMap<String, f64>, String> {
        let (status, body) = exchange(&self.addr, "GET", "/stats", None, "")?;
        if status != 200 {
            return Err(format!("/stats answered {status}"));
        }
        let stats = json::parse(&body).map_err(|e| format!("/stats JSON: {e:?}"))?;
        let counters = stats
            .get("counters")
            .and_then(Value::as_object)
            .ok_or("/stats has no counters")?;
        Ok(counters
            .iter()
            .filter_map(|(name, v)| v.as_f64().map(|v| (name.clone(), v)))
            .collect())
    }

    /// Asks the daemon to drain and waits for a clean exit.
    fn shutdown(mut self) -> Result<(), String> {
        let (status, _) = exchange(&self.addr, "POST", "/shutdown", None, "")?;
        let exit = self
            .child
            .wait()
            .map_err(|e| format!("waiting for the daemon: {e}"))?;
        if status != 200 || !exit.success() {
            return Err(format!("daemon shutdown: status {status}, exit {exit}"));
        }
        Ok(())
    }
}

/// One HTTP/1.1 exchange on a fresh connection: `(status, body)`.
fn exchange(
    addr: &str,
    method: &str,
    path: &str,
    format: Option<&str>,
    body: &str,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(CLIENT_TIMEOUT));
    let _ = stream.set_write_timeout(Some(CLIENT_TIMEOUT));
    let mut raw = format!("{method} {path} HTTP/1.1\r\nHost: perfbench\r\n");
    if let Some(format) = format {
        raw.push_str(&format!("X-Simc-Format: {format}\r\n"));
    }
    raw.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    stream
        .write_all(raw.as_bytes())
        .map_err(|e| format!("send {path}: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read {path}: {e}"))?;
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed response to {path}"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_string();
    Ok((status, body))
}

fn post(addr: &str, kind: Kind, spec: &str) -> Result<(u16, String), String> {
    let format = (kind == Kind::Convert).then_some("edif");
    exchange(addr, "POST", kind.endpoint(), format, spec)
}

/// Sends the priming requests, each a miss: verify and synth of the
/// Table 1 specs.
fn prime(daemon: &Daemon, specs: &[String]) -> Result<Vec<Primed>, String> {
    let send = |kind: Kind, spec: &String| -> Result<String, String> {
        match post(&daemon.addr, kind, spec)? {
            (200, body) => Ok(body),
            (status, body) => Err(format!(
                "priming {}: status {status}: {body}",
                kind.endpoint()
            )),
        }
    };
    specs[..FIRST_FRESH]
        .iter()
        .map(|spec| {
            Ok(Primed {
                verify: send(Kind::Verify, spec)?,
                synth: send(Kind::Synth, spec)?,
            })
        })
        .collect()
}

/// The `simc` binary, built from the checkout (release, offline).
fn build_simc() -> Result<String, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "simc",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building simc: {status}"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    Ok(format!("{target}/release/simc"))
}

/// The spec list: the Table 1 texts, then `rounds` fresh specs per
/// `/v1/synth` slot of a round, then `rounds` fresh convert specs.
fn specs(seed: u64, rounds: usize) -> Result<Vec<String>, String> {
    let mut rng = Rng::new(seed);
    let mut specs: Vec<String> = simc_benchmarks::suite::all()
        .iter()
        .map(|b| crate::shuffle_arcs(&b.stg.to_g_string(), &mut rng))
        .collect();
    specs.extend(fresh(&SYNTH_CLASS, rounds * SYNTHS_PER_ROUND, &mut rng)?);
    specs.extend(fresh(&CONVERT_CLASS, rounds, &mut rng)?);
    Ok(specs)
}

/// `count` fresh specs of `class` with pairwise distinct state graphs:
/// the first `count` matching recipes of a fixed generator seed, in an
/// order drawn from `rng`.
///
/// Every run of the same length thus synthesizes the same set: a seeded
/// draw of a few hundred random specs would move the run's `literals` by
/// several percent between seeds, more than a change to synthesis should
/// be allowed to.
fn fresh(class: &FreshClass, count: usize, rng: &mut Rng) -> Result<Vec<String>, String> {
    let mut fresh = Vec::with_capacity(count);
    let mut seen = HashSet::new();
    let mut case = 0u64;
    while fresh.len() < count {
        if case > 20 * count as u64 {
            return Err(format!(
                "too few distinct {}-state fuzz specs",
                class.states
            ));
        }
        let recipe = simc_fuzz::random_recipe(&mut Rng::for_case(FUZZ_SEED, case), class.config);
        case += 1;
        let stg = simc_fuzz::gen::to_stg(&recipe).map_err(|e| e.to_string())?;
        let sg = stg.to_state_graph().map_err(|e| e.to_string())?;
        if sg.state_count() == class.states
            && seen.insert(simc_sg::canonical_sg(&sg, simc_formats::CANONICAL_MODEL))
        {
            fresh.push(stg.to_g_string());
        }
    }
    for i in (1..fresh.len()).rev() {
        fresh.swap(i, rng.below(i as u64 + 1) as usize);
    }
    Ok(fresh)
}

/// The seeded schedule: whole rounds filling `seconds` at
/// [`RATE_PER_S`], each request due at a seeded point of its slot, each
/// verify repeat on a seeded Table 1 spec, each synth and convert on the
/// next fresh spec of its class.
fn schedule(seed: u64, seconds: Duration) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ 0x5e7e_d5c4_ed01_e000);
    let round = round();
    let rounds = rounds(seconds);
    let first_convert = FIRST_FRESH + rounds * SYNTHS_PER_ROUND;
    let (mut synths, mut converts) = (0, 0);
    let mut requests = Vec::with_capacity(rounds * round.len());
    for _ in 0..rounds {
        for &kind in &round {
            let slot = requests.len() as f64 + rng.below(1_000_000) as f64 * 1e-6;
            let spec = match kind {
                Kind::Verify => rng.below(FIRST_FRESH as u64) as usize,
                Kind::Synth => {
                    synths += 1;
                    FIRST_FRESH + synths - 1
                }
                Kind::Convert => {
                    converts += 1;
                    first_convert + converts - 1
                }
            };
            requests.push(Request {
                due: Duration::from_secs_f64(slot / RATE_PER_S),
                kind,
                spec,
            });
        }
    }
    requests
}

/// The whole rounds that fit in `seconds` at [`RATE_PER_S`].
fn rounds(seconds: Duration) -> usize {
    ((seconds.as_secs_f64() * RATE_PER_S) as usize / ROUND_LEN).max(1)
}

/// Sends every request on its schedule from `clients` connections.
fn drive(addr: &str, specs: &[String], requests: &[Request], clients: usize) -> (Vec<Answer>, f64) {
    let next = AtomicUsize::new(0);
    let answers = Mutex::new(Vec::with_capacity(requests.len()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(request) = requests.get(index) else {
                    break;
                };
                let due = start + request.due;
                wait_until(due);
                let sent = Instant::now();
                let (status, body) =
                    post(addr, request.kind, &specs[request.spec]).unwrap_or_else(|e| (0, e));
                let done = Instant::now();
                let answer = Answer {
                    index,
                    latency_ms: (done - due).as_secs_f64() * 1e3,
                    lateness_ms: (sent - due).as_secs_f64() * 1e3,
                    status,
                    body,
                };
                answers.lock().expect("answer list lock").push(answer);
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let mut answers = answers.into_inner().expect("answer list lock");
    answers.sort_by_key(|a| a.index);
    (answers, wall)
}

/// Waits for `due` by yielding, never sleeping. A client that sleeps
/// until its due time leaves the virtual processors idle, and every
/// request then pays the wake-up of an idle processor: hits took
/// 0.65–1.2 ms against 0.55 ms with yielding clients. Clients that run
/// in the `SCHED_IDLE` class (yielding only to the daemon) made the
/// conversion median swing between 27 and 57 ms over three runs at 40
/// requests per second.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

fn field<'a>(body: &'a Value, name: &str) -> Result<&'a Value, String> {
    body.get(name)
        .ok_or_else(|| format!("response has no `{name}`"))
}

/// Synthesizes `spec` in this process, checks the circuit with the
/// independent checker and the program's verifier, and compares it with
/// the daemon's `/v1/synth` response and its EDIF, each when given.
/// Returns `(literals, circuit signals)`.
fn check_spec(spec: &str, synth: Option<&str>, edif: Option<&str>) -> Result<(f64, f64), String> {
    let mut pipeline = Pipeline::from_text(spec);
    let implemented = pipeline.implemented().map_err(|e| e.to_string())?;
    check::check(
        implemented.working_sg(),
        &check::covers_of(implemented.implementation()),
    )
    .map_err(|e| format!("independent check: {e}"))?;
    let literals = implemented.implementation().literal_count();
    if let Some(synth) = synth {
        let response = json::parse(synth).map_err(|e| format!("synth JSON: {e:?}"))?;
        let answered = field(&response, "literals")?
            .as_u64()
            .ok_or("`literals` is not a count")?;
        let added = field(&response, "added_signals")?
            .as_u64()
            .ok_or("bad `added_signals`")?;
        let equations = field(&response, "equations")?
            .as_str()
            .ok_or("bad `equations`")?;
        if equations != implemented.implementation().equations()
            || answered != u64::from(literals)
            || added != implemented.added_signals() as u64
        {
            return Err("the daemon's circuit differs from the in-process one".to_string());
        }
    }
    let signals = implemented.working_sg().signal_count();
    if let Some(edif) = edif {
        let response = json::parse(edif).map_err(|e| format!("convert JSON: {e:?}"))?;
        let text = field(&response, "text")?.as_str().ok_or("bad `text`")?;
        let parsed = simc_formats::read_edif(text).map_err(|e| format!("EDIF: {e}"))?;
        if simc_formats::canonical_netlist(&parsed)
            != simc_formats::canonical_netlist(implemented.netlist())
        {
            return Err("the EDIF reads back to a different netlist".to_string());
        }
    }
    if !pipeline.verified().map_err(|e| e.to_string())?.is_ok() {
        return Err("the program's verifier found hazards".to_string());
    }
    Ok((f64::from(literals), signals as f64))
}

/// The outcome of [`check_answers`].
struct Answered<'a> {
    /// Each answer's problem, if any.
    problems: Vec<Option<String>>,
    /// The `/v1/synth` body of each spec, primed or answered.
    synth: Vec<Option<&'a str>>,
    /// The `/v1/convert` body of each spec that was converted.
    edif: Vec<Option<&'a str>>,
}

/// Per-answer checks that need no synthesis: every answer is 200 and
/// every verify repeat is byte-identical to its spec's priming response
/// (the miss).
fn check_answers<'a>(
    requests: &[Request],
    answers: &'a [Answer],
    primed: &'a [Primed],
    spec_count: usize,
) -> Answered<'a> {
    let mut synth: Vec<Option<&str>> = vec![None; spec_count];
    let mut edif: Vec<Option<&str>> = vec![None; spec_count];
    for (i, p) in primed.iter().enumerate() {
        synth[i] = Some(&p.synth);
    }
    let problems = answers
        .iter()
        .map(|answer| {
            let request = &requests[answer.index];
            let endpoint = request.kind.endpoint();
            if answer.status != 200 {
                return Some(format!(
                    "{endpoint} answered {}: {}",
                    answer.status, answer.body
                ));
            }
            match request.kind {
                Kind::Verify if primed[request.spec].verify != answer.body => Some(format!(
                    "{endpoint} of spec {}: the hit answered differently from the miss",
                    request.spec
                )),
                Kind::Verify => None,
                Kind::Synth => {
                    synth[request.spec] = Some(&answer.body);
                    None
                }
                Kind::Convert => {
                    edif[request.spec] = Some(&answer.body);
                    None
                }
            }
        })
        .collect();
    Answered {
        problems,
        synth,
        edif,
    }
}

/// The failed operations: every answer with a problem of its own, and
/// every answer about a spec whose circuit failed a check.
fn count_failed(
    requests: &[Request],
    answers: &[Answer],
    problems: &[Option<String>],
    spec_failed: &[bool],
) -> u64 {
    answers
        .iter()
        .zip(problems)
        .filter(|(answer, problem)| problem.is_some() || spec_failed[requests[answer.index].spec])
        .count() as u64
}

/// Checks every spec that was answered, on `nproc` threads once the
/// daemon is gone: [`check_spec`] against the spec's synth and convert
/// bodies, and a Table 1 spec's primed verdict as well. `None` for a
/// spec that nothing answered.
fn check_specs(
    specs: &[String],
    answered: &Answered,
    primed: &[Primed],
) -> Vec<Option<Result<(f64, f64), String>>> {
    let check = |i: usize| {
        let (synth, edif) = (answered.synth[i], answered.edif[i]);
        if synth.is_none() && edif.is_none() {
            return None;
        }
        if i < FIRST_FRESH && !primed[i].verify.contains("\"verdict\":\"hazard-free\"") {
            return Some(Err(format!("the daemon's verdict is {}", primed[i].verify)));
        }
        Some(check_spec(&specs[i], synth, edif))
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::with_capacity(specs.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= specs.len() {
                    break;
                }
                let result = check(i);
                results.lock().expect("result list lock").push((i, result));
            });
        }
    });
    let mut results = results.into_inner().expect("result list lock");
    results.sort_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, result)| result).collect()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let simc = build_simc()?;
    let requests = schedule(args.seed, args.seconds);
    let specs = specs(args.seed, rounds(args.seconds))?;

    // Set-up: spawn on an empty cache, wait for the announcement, prime
    // the repeated specs; several times, keeping the last daemon.
    let mut setup = Vec::new();
    let mut errors = Vec::new();
    let mut last: Option<(Daemon, Vec<Primed>)> = None;
    for round in 0..crate::SETUP_REPEATS {
        if let Some((daemon, _)) = last.take() {
            daemon.shutdown()?;
        }
        let start = Instant::now();
        let daemon = Daemon::spawn(&simc, round)?;
        let primed = prime(&daemon, &specs)?;
        setup.push(start.elapsed().as_secs_f64());
        if last.as_ref().is_some_and(|(_, earlier)| *earlier != primed) {
            errors.push("priming answered differently on a fresh cache".to_string());
        }
        last = Some((daemon, primed));
    }
    let (daemon, primed) = last.expect("at least one set-up round");
    let before = daemon.stats()?;
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (answers, wall) = drive(&daemon.addr, &specs, &requests, clients);
    let after = daemon.stats()?;
    let peak_rss_mb = crate::peak_rss_mb(&daemon.child.id().to_string())?;
    daemon.shutdown()?;

    // Output checks: each answer on its own, then every circuit once.
    let answered = check_answers(&requests, &answers, &primed, specs.len());
    errors.extend(answered.problems.iter().flatten().cloned());
    let mut spec_failed = vec![false; specs.len()];
    let mut literals = 0.0;
    let mut circuit_signals = 0.0;
    for (i, result) in check_specs(&specs, &answered, &primed)
        .into_iter()
        .enumerate()
    {
        match result {
            None => {}
            Some(Ok((l, s))) => {
                literals += l;
                circuit_signals += s;
            }
            Some(Err(e)) => {
                spec_failed[i] = true;
                errors.push(format!("spec {i}: {e}"));
            }
        }
    }
    let failed = count_failed(&requests, &answers, &answered.problems, &spec_failed);
    errors.dedup();

    let latencies: Vec<f64> = answers.iter().map(|a| a.latency_ms).collect();
    let metrics = if args.trace {
        let mut values: BTreeMap<&str, f64> = BTreeMap::new();
        for &(name, unit) in crate::PER_LAYER {
            if unit == "ms" {
                continue;
            }
            if let (Some(a), Some(b)) = (after.get(name), before.get(name)) {
                values.insert(name, a - b);
            }
        }
        let count = |name| values.get(name).copied().unwrap_or(0.0);
        let (hits, misses) = (count("cache.hits"), count("cache.misses"));
        values.insert("cache.hit_ratio", hits / (hits + misses).max(1.0));
        for kind in [Kind::Verify, Kind::Synth, Kind::Convert] {
            let samples: Vec<f64> = answers
                .iter()
                .filter(|a| requests[a.index].kind == kind)
                .map(|a| a.latency_ms)
                .collect();
            values.insert(kind.class(), median(&samples));
        }
        let lateness: Vec<f64> = answers.iter().map(|a| a.lateness_ms).collect();
        values.insert("loadgen.lateness_p99_ms", percentile(&lateness, 0.99));
        per_layer_metrics(&values)
    } else {
        vec![
            metric("setup_s", median(&setup), "s"),
            metric("throughput_ops_per_s", answers.len() as f64 / wall, "1/s"),
            metric("latency_p50_ms", percentile(&latencies, 0.50), "ms"),
            metric("latency_p90_ms", percentile(&latencies, 0.90), "ms"),
            metric("peak_rss_mb", peak_rss_mb, "MiB"),
            metric("literals", literals, "count"),
            metric("circuit_signals", circuit_signals, "count"),
        ]
    };
    Ok(Outcome {
        attempted: answers.len() as u64,
        failed,
        errors,
        metrics,
        notes: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One round's requests, each answered 200 with `body(kind, spec)`.
    fn answered(body: impl Fn(Kind, usize) -> String) -> (Vec<Request>, Vec<Answer>) {
        let requests = schedule(1, Duration::from_secs_f64(ROUND_LEN as f64 / RATE_PER_S));
        let answers = requests
            .iter()
            .enumerate()
            .map(|(index, r)| Answer {
                index,
                latency_ms: 1.0,
                lateness_ms: 0.0,
                status: 200,
                body: body(r.kind, r.spec),
            })
            .collect();
        (requests, answers)
    }

    /// The spec-list length of a one-round run.
    const SPECS: usize = FIRST_FRESH + SYNTHS_PER_ROUND + 1;

    fn primed() -> Vec<Primed> {
        (0..FIRST_FRESH)
            .map(|i| Primed {
                verify: format!("verify {i}"),
                synth: format!("synth {i}"),
            })
            .collect()
    }

    #[test]
    fn the_round_has_its_shares() {
        let round = round();
        let count = |kind| round.iter().filter(|&&k| k == kind).count();
        assert_eq!(count(Kind::Synth), SYNTHS_PER_ROUND);
        assert_eq!(count(Kind::Convert), 1);
    }

    #[test]
    fn the_percentiles_lie_among_the_hits() {
        // Class latencies in disjoint ranges, ascending within a class.
        let round = round();
        let mut latencies = Vec::new();
        let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for r in 0..100 {
            for (i, &kind) in round.iter().enumerate() {
                let base = match kind {
                    Kind::Verify => 0.0,
                    Kind::Synth => 10.0,
                    Kind::Convert => 50.0,
                };
                let latency = base + (r * ROUND_LEN + i) as f64 * 1e-5;
                latencies.push(latency);
                by_class.entry(kind.class()).or_default().push(latency);
            }
        }
        let hits = &by_class[Kind::Verify.class()];
        let among_hits = percentile(hits, 0.91)..=percentile(hits, 0.93);
        assert!(among_hits.contains(&percentile(&latencies, 0.90)));
        assert!(percentile(&latencies, 0.50) < 1.0);
    }

    #[test]
    fn the_schedule_uses_each_fresh_spec_once() {
        let seconds = Duration::from_secs(3);
        let requests = schedule(5, seconds);
        let fresh: Vec<usize> = requests
            .iter()
            .filter(|r| r.kind != Kind::Verify)
            .map(|r| r.spec)
            .collect();
        let distinct: HashSet<usize> = fresh.iter().copied().collect();
        assert_eq!(distinct.len(), fresh.len());
        let rounds = rounds(seconds);
        assert_eq!(requests.len(), rounds * ROUND_LEN);
        assert_eq!(
            fresh.iter().max(),
            Some(&(FIRST_FRESH + rounds * (SYNTHS_PER_ROUND + 1) - 1))
        );
    }

    #[test]
    fn matching_hits_fail_nothing() {
        let (requests, answers) = answered(|kind, spec| match kind {
            Kind::Verify => format!("verify {spec}"),
            _ => "fresh".to_string(),
        });
        let primed = primed();
        let answered = check_answers(&requests, &answers, &primed, SPECS);
        let problems = answered.problems;
        assert!(problems.iter().all(Option::is_none));
        assert_eq!(answered.synth[FIRST_FRESH], Some("fresh"));
        assert_eq!(answered.edif[SPECS - 1], Some("fresh"));
        let spec_failed = vec![false; SPECS];
        assert_eq!(
            count_failed(&requests, &answers, &problems, &spec_failed),
            0
        );
    }

    #[test]
    fn a_mismatching_hit_and_a_bad_status_count_as_failed() {
        let (requests, mut answers) = answered(|kind, spec| match kind {
            Kind::Verify => format!("verify {spec}"),
            _ => "fresh".to_string(),
        });
        let hits: Vec<usize> = (0..answers.len())
            .filter(|&i| requests[i].kind == Kind::Verify)
            .collect();
        answers[hits[0]].body.push_str(" changed");
        answers[hits[1]].status = 500;
        let primed = primed();
        let problems = check_answers(&requests, &answers, &primed, SPECS).problems;
        assert!(problems[hits[0]]
            .as_deref()
            .is_some_and(|p| p.contains("differently")));
        assert!(problems[hits[1]]
            .as_deref()
            .is_some_and(|p| p.contains("500")));
        let spec_failed = vec![false; SPECS];
        assert_eq!(
            count_failed(&requests, &answers, &problems, &spec_failed),
            2
        );
    }

    #[test]
    fn a_failed_circuit_fails_every_request_about_its_spec() {
        let (requests, answers) = answered(|kind, spec| match kind {
            Kind::Verify => format!("verify {spec}"),
            _ => "fresh".to_string(),
        });
        let primed = primed();
        let problems = check_answers(&requests, &answers, &primed, SPECS).problems;
        let mut spec_failed = vec![false; SPECS];
        spec_failed[SPECS - 1] = true;
        // The round's one conversion.
        assert_eq!(
            count_failed(&requests, &answers, &problems, &spec_failed),
            1
        );
        let table1 = requests[1].spec;
        spec_failed[table1] = true;
        let repeats = requests.iter().filter(|r| r.spec == table1).count() as u64;
        assert_eq!(
            count_failed(&requests, &answers, &problems, &spec_failed),
            1 + repeats
        );
    }

    #[test]
    fn check_spec_rejects_a_circuit_the_program_did_not_make() {
        let spec = simc_benchmarks::suite::all()[0].stg.to_g_string();
        let mut pipeline = Pipeline::from_text(spec.as_str());
        let implemented = pipeline.implemented().expect("synthesizes");
        let implementation = implemented.implementation();
        let body = |literals: u32| {
            format!(
                "{{\"literals\":{literals},\"added_signals\":{},\"equations\":{}}}",
                implemented.added_signals(),
                json::escape(&implementation.equations())
            )
        };
        let literals = implementation.literal_count();
        assert!(check_spec(&spec, Some(&body(literals)), None).is_ok());
        let err =
            check_spec(&spec, Some(&body(literals + 1)), None).expect_err("wrong literal count");
        assert!(err.contains("differs"), "{err}");
    }
}
