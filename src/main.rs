//! `simc` — command-line front end for the synthesis flow.
//!
//! ```text
//! simc analyze <spec.g>                 reachability, properties, MC report
//! simc reduce  <spec.g>                 insert state signals until MC holds
//! simc synth   <spec.g> [--rs] [--baseline] [--share] [--complex] [--verilog]
//! simc verify  <spec.g> [--rs] [--baseline] [--share] [--complex]  full flow + verdict
//! simc dot     <spec.g>                 Graphviz of the state graph
//! simc convert <spec|file.edif> --to <fmt>  emit sg/edif/spice/dot/verilog; --list
//! simc batch   <manifest> [--threads <n>] [--out <path>]    run many specs
//! simc fuzz    [--seed <n>] [--iters <n>] [--threads <n>]   differential fuzzing
//! simc fuzz    --campaign [--corpus <dir>] [--shards <n>]   coverage-guided campaign
//! simc serve   [--port <n>] [--threads <n>] [--queue <n>]   HTTP synthesis daemon
//! ```
//!
//! `<spec>` is an STG in the SIS/petrify `.g` format or a state graph in
//! the `.sg` format (auto-detected via `.state graph`); `-` reads stdin;
//! `benchmarks/<name>` resolves a member of the built-in Table 1 suite
//! (or the large `scale-ring-*` family) when no such file exists on disk.
//!
//! Each subcommand's surface — its flags, whether it takes a spec, its
//! usage line — is declared once in the [`COMMANDS`] table; the parser
//! and every rejection diagnostic are generated from it, so the binary
//! has exactly one source of truth for what each command accepts.
//!
//! `--dot <path>` writes a Graphviz export alongside any spec-processing
//! subcommand: the state graph for `analyze`/`dot`, the synthesized
//! netlist for `synth`/`verify` — so large repros stay inspectable. The
//! rendering goes through the interchange-format registry (see
//! [`simc::formats`]), the same `dot` format `simc convert` exposes;
//! `synth --verilog` prints the registry's `verilog` format the same way.
//!
//! `synth` and `verify` build one of the paper's implementations of the
//! spec — the standard architecture, shared AND gates (`--share`), the
//! Beerel–Meng baseline (`--baseline`) or complex gates (`--complex`) —
//! through one route function, then print through one tail per command.
//!
//! `simc convert` re-emits a spec in any registered interchange format
//! (`--to sg|edif|spice|dot|verilog`); an input that is itself an EDIF netlist
//! (from an earlier `convert`) is parsed back and re-emitted without
//! running synthesis. `simc convert --list` prints the registry as JSON,
//! byte-identical to the daemon's `GET /v1/formats`.
//!
//! Every subcommand accepts `--stats` (pipeline counters and phase
//! timings on stderr) and `--stats-json <path>` (the same report as a
//! JSON document). Every spec-processing subcommand accepts
//! `--cache-dir <dir>`, an on-disk content-addressed artifact cache that
//! memoizes elaboration, region analysis, cover minimization,
//! MC-reduction, format conversions and verification verdicts across
//! runs; cached and uncached runs produce byte-identical output.
//!
//! `simc batch` reads a manifest with one spec per line (`#` comments,
//! `--rs` per line, `benchmarks/*` expands the built-in suite), runs the
//! full flow for each job in parallel over a shared cache, and emits a
//! deterministic JSON summary.
//!
//! `simc serve` starts the long-running HTTP daemon (see [`simc::serve`]):
//! `POST /v1/{analyze,synth,verify,convert}` with a spec body,
//! single-flight deduplicated over a shared warm cache, until
//! `POST /shutdown` drains it. `--port 0` (the default) binds an
//! ephemeral port; the chosen address is printed to stdout as
//! `listening on http://...`.
//!
//! Exit codes: `0` success, `1` operational failure (hazards found, CSC
//! violation, oracle disagreement, failed batch job), `2` usage error or
//! malformed input.
//!
//! Since the pipeline rework the subcommands run on [`simc::Pipeline`];
//! spec numbering in outputs is the canonical (BFS-renumbered) form, so
//! isomorphic inputs print identically.

use std::borrow::Cow;
use std::io::{Read, Write as _};
use std::process::ExitCode;
use std::sync::Arc;

use simc::cache::{Cache, DiskCache, LayeredCache, MemCache};
use simc::formats::Artifact;
use simc::mc::baseline::synthesize_baseline;
use simc::mc::gen::synthesize_generalized;
use simc::mc::parallel::parallel_map;
use simc::mc::synth::Target;
use simc::netlist::{verify, Netlist, VerifyOptions};
use simc::sg::StateGraph;
use simc::{ErrorKind, Pipeline};

/// A CLI failure carrying its exit code.
enum CliError {
    /// Exit 2: bad invocation or malformed input — the request never made
    /// sense, rerunning it unchanged cannot succeed.
    Usage(String),
    /// Exit 1: a well-formed request whose answer is negative — hazards
    /// found, a property violated, a search that gave up.
    Failure(String),
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        CliError::Usage(message.into())
    }

    fn failure(message: impl Into<String>) -> Self {
        CliError::Failure(message.into())
    }
}

/// Maps a pipeline error to the CLI exit-code contract: parse-kind
/// errors are usage errors (exit 2), everything else is operational
/// (exit 1).
fn cli_error(error: simc::Error, context: &str) -> CliError {
    let message = format!("{context}: {error}");
    match error.kind() {
        ErrorKind::Parse => CliError::usage(message),
        _ => CliError::failure(message),
    }
}

/// An operational failure (exit 1) carrying a component error's message.
fn failed(error: impl std::fmt::Display) -> CliError {
    CliError::failure(error.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Failure(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

/// How a subcommand treats its first argument.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SpecArg {
    /// No spec argument: flags start right after the command.
    No,
    /// The first argument is always the spec (or manifest) path.
    Yes,
    /// The first argument is the spec only when it does not look like a
    /// flag — `simc convert --list` needs no input.
    Auto,
}

/// One subcommand's declared surface. The parser, the usage text and all
/// flag-rejection diagnostics are generated from [`COMMANDS`], so adding
/// a flag to a command is one edit in this table.
struct CommandSpec {
    name: &'static str,
    spec_arg: SpecArg,
    /// Accepted flags that take no value.
    switches: &'static [&'static str],
    /// Accepted flags that take one value.
    value_flags: &'static [&'static str],
    /// The command's usage line.
    usage: &'static str,
}

/// Switches every subcommand accepts.
const GLOBAL_SWITCHES: &[&str] = &["--stats"];

/// Value-taking flags every subcommand accepts.
const GLOBAL_VALUE_FLAGS: &[&str] = &["--stats-json"];

/// The declarative subcommand table (see [`CommandSpec`]).
const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "analyze",
        spec_arg: SpecArg::Yes,
        switches: &["--rs"],
        value_flags: &["--dot", "--cache-dir"],
        usage: "simc analyze <spec> [--rs] [--dot <path>] [--cache-dir <dir>]",
    },
    CommandSpec {
        name: "reduce",
        spec_arg: SpecArg::Yes,
        switches: &["--rs"],
        value_flags: &["--cache-dir"],
        usage: "simc reduce <spec> [--rs] [--cache-dir <dir>]",
    },
    CommandSpec {
        name: "synth",
        spec_arg: SpecArg::Yes,
        switches: &["--rs", "--baseline", "--share", "--complex", "--verilog"],
        value_flags: &["--dot", "--threads", "--cache-dir"],
        usage: "simc synth <spec> [--rs] [--baseline] [--share] [--complex] [--verilog] \
                [--dot <path>] [--threads <n>] [--cache-dir <dir>]",
    },
    CommandSpec {
        name: "verify",
        spec_arg: SpecArg::Yes,
        switches: &["--rs", "--baseline", "--share", "--complex"],
        value_flags: &["--dot", "--threads", "--cache-dir"],
        usage: "simc verify <spec> [--rs] [--baseline] [--share] [--complex] \
                [--dot <path>] [--threads <n>] [--cache-dir <dir>]",
    },
    CommandSpec {
        name: "dot",
        spec_arg: SpecArg::Yes,
        switches: &[],
        value_flags: &["--dot", "--cache-dir"],
        usage: "simc dot <spec> [--dot <path>] [--cache-dir <dir>]",
    },
    CommandSpec {
        name: "convert",
        spec_arg: SpecArg::Auto,
        switches: &["--rs", "--list"],
        value_flags: &["--to", "--cache-dir"],
        usage: "simc convert <spec|netlist.edif> --to <format> [--rs] [--cache-dir <dir>]  \
                (or: simc convert --list)",
    },
    CommandSpec {
        name: "batch",
        spec_arg: SpecArg::Yes,
        switches: &["--rs"],
        value_flags: &["--threads", "--cache-dir", "--out"],
        usage: "simc batch <manifest> [--rs] [--threads <n>] [--cache-dir <dir>] [--out <path>]",
    },
    CommandSpec {
        name: "fuzz",
        spec_arg: SpecArg::No,
        switches: &["--campaign"],
        value_flags: &["--seed", "--iters", "--shards", "--corpus", "--threads", "--out"],
        usage: "simc fuzz [--campaign] [--seed <n>] [--iters <n>] [--shards <n>] \
                [--corpus <dir>] [--threads <n>] [--out <path>]",
    },
    CommandSpec {
        name: "serve",
        spec_arg: SpecArg::No,
        switches: &[],
        value_flags: &["--addr", "--port", "--queue", "--threads", "--cache-dir"],
        usage: "simc serve [--addr <host:port>] [--port <n>] [--threads <n>] [--queue <n>] \
                [--cache-dir <dir>]",
    },
];

/// In-memory cache budget fronting the on-disk store (per process).
const MEM_CACHE_BYTES: usize = 32 << 20;

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::usage(usage()));
    };
    match command.as_str() {
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            return Ok(());
        }
        _ => {}
    }
    let Some(spec) = COMMANDS.iter().find(|c| c.name == command) else {
        return Err(CliError::usage(format!("unknown command `{command}`\n{}", usage())));
    };
    let (spec_path, rest) = match spec.spec_arg {
        SpecArg::No => (None, args.get(1..).unwrap_or_default()),
        SpecArg::Yes => (args.get(1), args.get(2..).unwrap_or_default()),
        SpecArg::Auto => match args.get(1) {
            Some(first) if !first.starts_with("--") => {
                (Some(first), args.get(2..).unwrap_or_default())
            }
            _ => (None, args.get(1..).unwrap_or_default()),
        },
    };
    let mut switches: Vec<&str> = Vec::new();
    let mut values: Vec<(&str, &str)> = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        let arg = rest[i].as_str();
        if GLOBAL_SWITCHES.contains(&arg) || spec.switches.contains(&arg) {
            switches.push(arg);
        } else if GLOBAL_VALUE_FLAGS.contains(&arg) || spec.value_flags.contains(&arg) {
            i += 1;
            let value = rest.get(i).ok_or_else(|| {
                CliError::usage(format!("{arg} needs {}\n{}", value_noun(arg), usage()))
            })?;
            values.push((arg, value));
        } else {
            return Err(CliError::usage(flag_rejection(arg)));
        }
        i += 1;
    }
    let value_of = |flag: &str| values.iter().rev().find(|(f, _)| *f == flag).map(|&(_, v)| v);
    let stats_json = value_of("--stats-json");
    let stats = switches.contains(&"--stats") || stats_json.is_some();
    if stats {
        simc::obs::set_stats(true);
    }
    let target = if switches.contains(&"--rs") { Target::RsLatch } else { Target::CElement };
    let cache = make_cache(value_of("--cache-dir"))?;
    let dot_path = value_of("--dot");
    let out_path = value_of("--out");
    let threads = value_of("--threads");
    let result = match spec.name {
        "analyze" => {
            let mut pipeline = pipeline_for(spec_path, target, &cache)?;
            if dot_path.is_some() {
                let rendered = render("dot", &Artifact::Sg(elaborated(&mut pipeline)?.sg()));
                write_dot(dot_path, || rendered)?;
            }
            analyze(pipeline)
        }
        "reduce" => reduce(pipeline_for(spec_path, target, &cache)?),
        "synth" | "verify" => {
            let mut pipeline = pipeline_for(spec_path, target, &cache)?;
            if let Some(value) = threads {
                pipeline = pipeline.with_threads(parse_count("--threads", value)?);
            }
            let route = Route::of(&switches);
            if spec.name == "synth" {
                synth(pipeline, route, target, switches.contains(&"--verilog"), dot_path)
            } else {
                do_verify(pipeline, route, target, dot_path)
            }
        }
        "dot" => {
            let mut pipeline = pipeline_for(spec_path, target, &cache)?;
            let rendered = render("dot", &Artifact::Sg(elaborated(&mut pipeline)?.sg()));
            match dot_path {
                Some(_) => write_dot(dot_path, || rendered)?,
                None => println!("{rendered}"),
            }
            Ok(())
        }
        "convert" => convert(
            spec_path,
            switches.contains(&"--list"),
            value_of("--to"),
            target,
            &cache,
        ),
        "batch" => batch(spec_path, target, &cache, threads, out_path),
        "fuzz" => fuzz(&values, switches.contains(&"--campaign"), out_path),
        "serve" => serve(&values, &cache),
        other => unreachable!("`{other}` is in COMMANDS but not dispatched"),
    };
    if stats {
        let report = simc::obs::report();
        eprint!("{}", report.render());
        if let Some(path) = stats_json {
            std::fs::write(path, report.to_json())
                .map_err(|e| CliError::failure(format!("writing {path}: {e}")))?;
        }
    }
    result
}

/// The usage text, generated from [`COMMANDS`].
fn usage() -> String {
    let mut out = String::from("usage: ");
    for (i, command) in COMMANDS.iter().enumerate() {
        if i > 0 {
            out.push_str("\n       ");
        }
        out.push_str(command.usage);
    }
    out.push_str(
        "\n       every command also accepts [--stats] [--stats-json <path>]; \
         <spec> is a .g/.sg file, `-` for stdin, or benchmarks/<name>",
    );
    out
}

/// What a value-taking flag's missing operand should be called.
fn value_noun(flag: &str) -> &'static str {
    match flag {
        "--stats-json" | "--dot" | "--out" => "a file path",
        "--cache-dir" | "--corpus" => "a directory path",
        "--to" => "a format id",
        _ => "a value",
    }
}

/// The diagnostic for a flag the current command does not accept:
/// names the commands that do (generated from [`COMMANDS`]), or reports
/// an unknown flag when none does.
fn flag_rejection(arg: &str) -> String {
    let accepters: Vec<String> = COMMANDS
        .iter()
        .filter(|c| c.switches.contains(&arg) || c.value_flags.contains(&arg))
        .map(|c| format!("`simc {}`", c.name))
        .collect();
    match accepters.split_last() {
        None => format!("unknown flag `{arg}`\n{}", usage()),
        Some((only, [])) => format!("`{arg}` is only valid with {only}\n{}", usage()),
        Some((last, init)) => format!(
            "`{arg}` is only valid with {} or {last}\n{}",
            init.join(", "),
            usage()
        ),
    }
}

/// Renders an artifact through a registered format — the same emitters
/// `simc convert --to <format>` uses, so every Graphviz (`--dot`) and
/// Verilog (`--verilog`) export in the binary shares one code path.
fn render(format: &str, artifact: &Artifact<'_>) -> String {
    simc::formats::by_id(format)
        .and_then(|f| f.emit(artifact))
        .expect("the dot and verilog formats are registered and emit netlists")
}

/// `simc convert`: re-emit the spec (or an EDIF netlist) in a registered
/// interchange format; `--list` prints the registry as JSON.
fn convert(
    spec_path: Option<&String>,
    list: bool,
    to: Option<&str>,
    target: Target,
    cache: &Option<Arc<dyn Cache>>,
) -> Result<(), CliError> {
    if list {
        print!("{}", simc::formats::listing_json());
        return Ok(());
    }
    let Some(to) = to else {
        return Err(CliError::usage(format!(
            "`simc convert` needs `--to <format>` (or `--list`)\n{}",
            usage()
        )));
    };
    let format = simc::formats::by_id(to)
        .map_err(|e| CliError::usage(format!("{e}\n{}", simc::formats::listing_json())))?;
    let (spec, label) = load_spec(spec_path)?;
    let text = match spec {
        // An input that is already an EDIF netlist: parse it back and
        // re-emit without running the synthesis pipeline.
        Spec::Text(text) if simc::formats::looks_like_edif(&text) => {
            simc::formats::reemit_cached(
                cache.as_deref(),
                &text,
                &simc::formats::EdifFormat,
                format,
            )
            .map_err(|e| cli_error(simc::Error::from(e), &format!("converting {label}")))?
        }
        spec => {
            let mut pipeline = pipeline_from_spec(spec, &label, target, cache)?;
            pipeline
                .converted(to)
                .map_err(|e| cli_error(e, &format!("converting {label}")))?
        }
    };
    print!("{text}");
    Ok(())
}

/// Parses a numeric flag's value: a decimal or `0x`-prefixed hexadecimal
/// u64.
fn parse_number(flag: &str, value: &str) -> Result<u64, CliError> {
    let parsed = match value.strip_prefix("0x").or_else(|| value.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => value.parse().ok(),
    };
    parsed.ok_or_else(|| {
        CliError::usage(format!("{flag} needs an unsigned integer, got `{value}`"))
    })
}

/// Parses a count flag (`--threads`, `--shards`, `--queue`): an unsigned
/// integer of at least 1, decimal or `0x` hexadecimal.
fn parse_count(flag: &str, value: &str) -> Result<usize, CliError> {
    match parse_number(flag, value)? {
        0 => Err(CliError::usage(format!("{flag} must be at least 1"))),
        count => Ok(count as usize),
    }
}

/// Opens the layered artifact cache when `--cache-dir` was given.
fn make_cache(cache_dir: Option<&str>) -> Result<Option<Arc<dyn Cache>>, CliError> {
    let Some(dir) = cache_dir else { return Ok(None) };
    let disk = DiskCache::new(dir)
        .map_err(|e| CliError::failure(format!("opening cache dir {dir}: {e}")))?;
    Ok(Some(Arc::new(LayeredCache::new(MemCache::new(MEM_CACHE_BYTES), disk))))
}

fn fuzz(values: &[(&str, &str)], campaign: bool, out_path: Option<&str>) -> Result<(), CliError> {
    let mut config = simc::fuzz::CampaignConfig::default();
    for &(flag, value) in values {
        let campaign_only = matches!(flag, "--corpus" | "--shards");
        if campaign_only && !campaign {
            return Err(CliError::usage(format!("`{flag}` requires `--campaign`")));
        }
        match flag {
            "--corpus" => config.corpus_dir = Some(std::path::PathBuf::from(value)),
            "--seed" => config.seed = parse_number(flag, value)?,
            "--iters" => config.iters = parse_number(flag, value)?,
            "--threads" => config.threads = parse_count(flag, value)?,
            "--shards" => config.shards = parse_count(flag, value)?,
            _ => {} // `--out` and the global flags, read by `run`
        }
    }
    if out_path.is_some() && !campaign {
        return Err(CliError::usage(
            "`--out` with `simc fuzz` requires `--campaign`".to_string(),
        ));
    }
    // Zero iterations runs no oracle at all: "success" would be
    // vacuous, so the request itself is malformed.
    if config.iters == 0 {
        return Err(CliError::usage("--iters must be at least 1".to_string()));
    }
    if !campaign {
        let report = simc::fuzz::run(simc::fuzz::FuzzConfig {
            seed: config.seed,
            iters: config.iters,
            threads: config.threads,
            ..simc::fuzz::FuzzConfig::default()
        });
        let faults = (report.faults_injected, report.faults_detected);
        let summary = report.summary();
        return report_fuzz(&mut std::io::stdout(), &summary, config.seed, &report.failures, faults);
    }
    // A campaign's deterministic JSON summary goes to stdout (or
    // `--out`), its human-readable report to stderr, so the summary
    // stays byte-comparable across runs.
    let report = simc::fuzz::run_campaign(&config)
        .map_err(|e| CliError::failure(format!("campaign corpus: {e}")))?;
    let faults = (report.faults_injected, report.faults_detected);
    let summary = report.summary();
    let verdict =
        report_fuzz(&mut std::io::stderr(), &summary, config.seed, &report.failures, faults);
    let json = report.to_json();
    match out_path {
        Some(path) => std::fs::write(path, &json)
            .map_err(|e| CliError::failure(format!("writing {path}: {e}")))?,
        None => print!("{json}"),
    }
    verdict
}

/// Prints a fuzz run's summary and every shrunk failure with its repro,
/// and turns the outcome into the exit verdict: a failure when an oracle
/// disagreed or an injected fault went undetected.
fn report_fuzz(
    out: &mut dyn std::io::Write,
    summary: &str,
    seed: u64,
    failures: &[simc::fuzz::FailureReport],
    (injected, detected): (u64, u64),
) -> Result<(), CliError> {
    let _ = writeln!(out, "{summary}");
    for failure in failures {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "case {} (seed {seed:#x}) disagrees with oracle `{}`: {}",
            failure.case_index,
            failure.oracle.name(),
            failure.detail
        );
        let _ = writeln!(out, "shrunk in {} step(s) to this repro:", failure.shrink_steps);
        let _ = write!(out, "{}", failure.repro_sg);
    }
    if !failures.is_empty() {
        Err(CliError::failure(format!("{} oracle disagreement(s)", failures.len())))
    } else if injected != detected {
        Err(CliError::failure(format!(
            "{}/{injected} injected fault(s) went undetected",
            injected - detected
        )))
    } else {
        Ok(())
    }
}

/// Runs the HTTP daemon until a `POST /shutdown` drains it.
fn serve(values: &[(&str, &str)], cache: &Option<Arc<dyn Cache>>) -> Result<(), CliError> {
    let mut config = simc::serve::ServeConfig { cache: cache.clone(), ..Default::default() };
    for &(flag, value) in values {
        match flag {
            "--threads" => config.workers = parse_count(flag, value)?,
            "--addr" => config.addr = value.to_string(),
            "--port" => {
                let port: u16 = value.parse().map_err(|_| {
                    CliError::usage(format!("--port needs a port number, got `{value}`"))
                })?;
                config.addr = format!("127.0.0.1:{port}");
            }
            "--queue" => config.queue_capacity = parse_count(flag, value)?,
            _ => {} // `--cache-dir` and the global flags, read by `run`
        }
    }
    let addr = config.addr.clone();
    let server = simc::serve::Server::start(config)
        .map_err(|e| CliError::failure(format!("binding {addr}: {e}")))?;
    // Announce the bound (possibly ephemeral) port on stdout and flush:
    // drivers like `loadgen` block on this line to learn the address.
    println!("listening on http://{}", server.addr());
    let _ = std::io::stdout().flush();
    server.join();
    Ok(())
}

/// A loaded specification: raw text, or an already-built state graph
/// (the built-in benchmark fallback).
enum Spec {
    Text(String),
    Sg(StateGraph),
}

impl Spec {
    /// A pipeline over the spec for `target`, on the shared cache if any.
    fn into_pipeline(self, target: Target, cache: &Option<Arc<dyn Cache>>) -> Pipeline {
        let pipeline = match self {
            Spec::Text(text) => Pipeline::from_text(text),
            Spec::Sg(sg) => Pipeline::from_sg(sg),
        }
        .with_target(target);
        match cache {
            Some(cache) => pipeline.with_cache(Arc::clone(cache)),
            None => pipeline,
        }
    }
}

/// Loads a spec argument: `-` is stdin, a readable file is its text, and
/// `benchmarks/<name>` falls back to the built-in Table 1 suite.
fn load_spec(path: Option<&String>) -> Result<(Spec, String), CliError> {
    let path = path.ok_or_else(|| CliError::usage(usage()))?;
    if path == "-" {
        let mut buffer = String::new();
        std::io::stdin()
            .read_to_string(&mut buffer)
            .map_err(|e| CliError::usage(format!("reading stdin: {e}")))?;
        return Ok((Spec::Text(buffer), path.clone()));
    }
    match std::fs::read_to_string(path) {
        Ok(text) => Ok((Spec::Text(text), path.clone())),
        // Fall back to the built-in Table 1 suite: `benchmarks/<name>`
        // works without the specs existing on disk.
        Err(e) => match builtin_benchmark(path) {
            Some(stg) => {
                let sg = stg
                    .to_state_graph()
                    .map_err(|e| CliError::usage(format!("reachability of {path}: {e}")))?;
                Ok((Spec::Sg(sg), path.clone()))
            }
            None => Err(CliError::usage(format!("reading {path}: {e}"))),
        },
    }
}

/// Builds a pipeline for a spec argument and eagerly elaborates it so
/// parse errors carry the spec path and exit 2.
fn pipeline_for(
    path: Option<&String>,
    target: Target,
    cache: &Option<Arc<dyn Cache>>,
) -> Result<Pipeline, CliError> {
    let (spec, label) = load_spec(path)?;
    pipeline_from_spec(spec, &label, target, cache)
}

/// Builds and eagerly elaborates a pipeline from an already-loaded spec
/// (see [`pipeline_for`]; `simc convert` loads the spec itself so it can
/// sniff EDIF inputs first).
fn pipeline_from_spec(
    spec: Spec,
    label: &str,
    target: Target,
    cache: &Option<Arc<dyn Cache>>,
) -> Result<Pipeline, CliError> {
    let mut pipeline = spec.into_pipeline(target, cache);
    pipeline
        .elaborated()
        .map_err(|e| cli_error(e, &format!("parsing {label}")))?;
    Ok(pipeline)
}

/// Resolves `benchmarks/<name>` (or a bare suite name) against the
/// built-in reconstructed Table 1 suite and the large scale family.
/// Scale members resolve by name only — `benchmarks/*` in a batch
/// manifest deliberately expands to the suite alone, so routine batches
/// stay cheap.
fn builtin_benchmark(path: &str) -> Option<simc::stg::Stg> {
    let name = path.strip_prefix("benchmarks/").unwrap_or(path);
    if let Some(b) = simc::benchmarks::suite::all().into_iter().find(|b| b.name == name) {
        return Some(b.stg);
    }
    simc::benchmarks::scale::all()
        .into_iter()
        .find(|b| b.name == name)
        .map(|b| b.stg)
}

/// The elaborated stage of a pipeline built by [`pipeline_for`].
///
/// `pipeline_for` already elaborated eagerly, so this re-fetch is served
/// from the memo and cannot fail in practice — but a failure must still
/// be a diagnostic with exit 2, never a panic (a panicking front end
/// takes a whole `simc serve` worker down with it; the CLI contract is
/// the same one the daemon maps to HTTP statuses).
fn elaborated(pipeline: &mut Pipeline) -> Result<&simc::Elaborated, CliError> {
    pipeline.elaborated().map_err(|e| cli_error(e, "elaboration"))
}

/// Writes a Graphviz export when `--dot <path>` was given; the render
/// closure only runs when needed.
fn write_dot(path: Option<&str>, render: impl FnOnce() -> String) -> Result<(), CliError> {
    let Some(path) = path else { return Ok(()) };
    std::fs::write(path, render())
        .map_err(|e| CliError::failure(format!("writing {path}: {e}")))
}

fn analyze(mut pipeline: Pipeline) -> Result<(), CliError> {
    let sg = elaborated(&mut pipeline)?.sg().clone();
    println!("states: {}", sg.state_count());
    println!("edges:  {}", sg.edge_count());
    let inputs: Vec<&str> = sg
        .input_signals()
        .iter()
        .map(|&s| sg.signal(s).name())
        .collect();
    let outputs: Vec<&str> = sg
        .non_input_signals()
        .iter()
        .map(|&s| sg.signal(s).name())
        .collect();
    println!("inputs: {}", inputs.join(" "));
    println!("non-inputs: {}", outputs.join(" "));
    let analysis = sg.analysis();
    println!("semi-modular: {}", analysis.is_semimodular());
    println!("output semi-modular: {}", analysis.is_output_semimodular());
    println!("output distributive: {}", analysis.is_output_distributive());
    println!("CSC: {}", analysis.has_csc());
    println!("USC: {}", analysis.has_usc());
    let regions = pipeline.regioned().map_err(|e| cli_error(e, "region analysis"))?.regions();
    println!("excitation regions: {}", regions.er_count());
    println!("output persistent: {}", regions.is_output_persistent(&sg));
    let report = pipeline.covered().map_err(|e| cli_error(e, "cover check"))?.report();
    println!(
        "MC requirement: {}",
        if report.satisfied() { "satisfied" } else { "VIOLATED" }
    );
    print!("{}", report.render(&sg));
    Ok(())
}

fn reduce(mut pipeline: Pipeline) -> Result<(), CliError> {
    let before = elaborated(&mut pipeline)?.sg().state_count();
    let implemented = pipeline.implemented().map_err(|e| cli_error(e, "MC-reduction"))?;
    println!(
        "inserted {} signal(s); {} -> {} states",
        implemented.added_signals(),
        before,
        implemented.working_sg().state_count()
    );
    for line in implemented.reduce_log() {
        println!("  {line}");
    }
    println!();
    print!("{}", implemented.working_report().render(implemented.working_sg()));
    Ok(())
}

/// Which of the paper's implementations of a state graph `synth` and
/// `verify` build.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Route {
    /// The standard C-element / RS-latch architecture after MC-reduction:
    /// the pipeline's own synthesis and verification stages.
    Standard,
    /// Shared AND gates (`--share`) over the MC-reduced graph.
    Share,
    /// The Beerel–Meng-style baseline (`--baseline`). It deliberately
    /// skips MC-reduction, so it fails (exit 1) exactly where that style
    /// of synthesis would.
    Baseline,
    /// One atomic complex gate per output (`--complex`): CSC suffices,
    /// so no signal is inserted.
    Complex,
}

impl Route {
    /// The route the switches select; `--complex` wins over `--baseline`,
    /// which wins over `--share`.
    fn of(switches: &[&str]) -> Route {
        if switches.contains(&"--complex") {
            Route::Complex
        } else if switches.contains(&"--baseline") {
            Route::Baseline
        } else if switches.contains(&"--share") {
            Route::Share
        } else {
            Route::Standard
        }
    }
}

/// What a route built: the netlist, the graph that netlist must
/// implement, and its equations (none for complex gates).
struct Routed<'p> {
    netlist: Cow<'p, Netlist>,
    graph: &'p StateGraph,
    equations: Option<String>,
}

/// Builds the netlist of `route`. The standard route borrows the
/// pipeline's implementation; the others synthesize beside it.
fn implement(
    pipeline: &mut Pipeline,
    route: Route,
    target: Target,
) -> Result<Routed<'_>, CliError> {
    if let Route::Baseline | Route::Complex = route {
        let graph = elaborated(pipeline)?.sg();
        let (netlist, equations) = if route == Route::Complex {
            (simc::mc::complex::synthesize_complex(graph).map_err(failed)?, None)
        } else {
            let implementation = synthesize_baseline(graph, target).map_err(failed)?;
            (implementation.to_netlist().map_err(failed)?, Some(implementation.equations()))
        };
        return Ok(Routed { netlist: Cow::Owned(netlist), graph, equations });
    }
    let implemented = pipeline.implemented().map_err(|e| cli_error(e, "synthesis"))?;
    let added = implemented.added_signals();
    if added > 0 {
        eprintln!("note: inserted {added} state signal(s) to satisfy MC");
    }
    let graph = implemented.working_sg();
    if route == Route::Share {
        let implementation = synthesize_generalized(graph, target).map_err(failed)?;
        let netlist = implementation.to_netlist().map_err(failed)?;
        let equations = Some(implementation.equations());
        return Ok(Routed { netlist: Cow::Owned(netlist), graph, equations });
    }
    let equations = Some(implemented.implementation().equations());
    Ok(Routed { netlist: Cow::Borrowed(implemented.netlist()), graph, equations })
}

fn synth(
    mut pipeline: Pipeline,
    route: Route,
    target: Target,
    verilog: bool,
    dot_path: Option<&str>,
) -> Result<(), CliError> {
    let routed = implement(&mut pipeline, route, target)?;
    let netlist = Artifact::Netlist(&routed.netlist);
    write_dot(dot_path, || render("dot", &netlist))?;
    if verilog {
        print!("{}", render("verilog", &netlist));
    } else if let Some(equations) = &routed.equations {
        print!("{equations}");
    } else {
        println!("(one atomic complex gate per output; see --verilog for the functions)");
    }
    eprintln!("{}", routed.netlist.stats());
    Ok(())
}

fn do_verify(
    mut pipeline: Pipeline,
    route: Route,
    target: Target,
    dot_path: Option<&str>,
) -> Result<(), CliError> {
    // The alternative routes are not pipeline stages: the verifier runs
    // directly on their netlists. The standard route's verdict is the
    // pipeline's (and so shares its cache).
    let direct = {
        let routed = implement(&mut pipeline, route, target)?;
        // Export before the verdict so hazardous repros stay inspectable.
        write_dot(dot_path, || render("dot", &Artifact::Netlist(&routed.netlist)))?;
        if route == Route::Standard {
            None
        } else {
            let (netlist, graph) = (routed.netlist.as_ref(), routed.graph);
            let report = verify(netlist, graph, VerifyOptions::default()).map_err(failed)?;
            let violations =
                report.violations.iter().map(|v| report.describe(netlist, graph, v)).collect();
            Some((report.is_ok(), report.explored, violations))
        }
    };
    let (ok, explored, violations): (bool, usize, Vec<String>) = match direct {
        Some(verdict) => verdict,
        None => {
            let verified = pipeline.verified().map_err(|e| cli_error(e, "verification"))?;
            (verified.is_ok(), verified.explored(), verified.violations().to_vec())
        }
    };
    println!(
        "{} ({explored} composed states explored)",
        if ok { "hazard-free" } else { "HAZARDOUS" }
    );
    for violation in &violations {
        println!("  {violation}");
    }
    if ok {
        Ok(())
    } else {
        Err(CliError::failure(format!("{} violation(s) found", violations.len())))
    }
}

/// One batch job: a spec reference plus its synthesis target.
struct BatchJob {
    spec: String,
    target: Target,
}

/// The outcome of one batch job, ready for JSON rendering.
struct JobOutcome {
    spec: String,
    target: Target,
    result: Result<JobMetrics, (ErrorKind, String)>,
}

/// Synthesis and verification metrics of a successful job.
struct JobMetrics {
    states: usize,
    working_states: usize,
    added: usize,
    mc_satisfied: bool,
    cubes: usize,
    literals: u32,
    and_gates: usize,
    or_gates: usize,
    latch_rails: usize,
    other_gates: usize,
    verified: bool,
    explored: usize,
    violations: usize,
}

fn batch(
    manifest: Option<&String>,
    default_target: Target,
    cache: &Option<Arc<dyn Cache>>,
    threads: Option<&str>,
    out_path: Option<&str>,
) -> Result<(), CliError> {
    let manifest_path = manifest.ok_or_else(|| CliError::usage(usage()))?;
    let threads = match threads {
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
        Some(value) => parse_count("--threads", value)?,
    };
    let text = std::fs::read_to_string(manifest_path)
        .map_err(|e| CliError::usage(format!("reading {manifest_path}: {e}")))?;
    let jobs = parse_manifest(&text, manifest_path, default_target)?;
    let outcomes = parallel_map(&jobs, threads, |job| run_job(job, cache));
    let ok = outcomes.iter().filter(|o| o.result.as_ref().is_ok_and(|m| m.verified)).count();
    let failed = outcomes.len() - ok;
    let json = render_batch_json(manifest_path, &outcomes);
    match out_path {
        Some(path) => {
            std::fs::write(path, &json)
                .map_err(|e| CliError::failure(format!("writing {path}: {e}")))?;
            eprintln!("batch: {ok}/{} job(s) ok; summary written to {path}", outcomes.len());
        }
        None => print!("{json}"),
    }
    if failed == 0 {
        Ok(())
    } else {
        Err(CliError::failure(format!("{failed} of {} batch job(s) failed", outcomes.len())))
    }
}

/// Parses a batch manifest: one spec per line, `#` comments, optional
/// per-line `--rs`, and `benchmarks/*` expanding the built-in suite.
fn parse_manifest(
    text: &str,
    path: &str,
    default_target: Target,
) -> Result<Vec<BatchJob>, CliError> {
    let mut jobs = Vec::new();
    for (index, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut spec: Option<&str> = None;
        let mut target = default_target;
        for token in line.split_whitespace() {
            match token {
                "--rs" => target = Target::RsLatch,
                "--celement" => target = Target::CElement,
                token if token.starts_with("--") => {
                    return Err(CliError::usage(format!(
                        "{path} line {}: unknown option `{token}`",
                        index + 1
                    )));
                }
                token => {
                    if spec.is_some() {
                        return Err(CliError::usage(format!(
                            "{path} line {}: more than one spec on a line",
                            index + 1
                        )));
                    }
                    spec = Some(token);
                }
            }
        }
        let spec = spec.ok_or_else(|| {
            CliError::usage(format!("{path} line {}: no spec named", index + 1))
        })?;
        if spec == "-" {
            return Err(CliError::usage(format!(
                "{path} line {}: stdin (`-`) is not valid in a manifest",
                index + 1
            )));
        }
        if spec == "benchmarks/*" {
            jobs.extend(simc::benchmarks::suite::all().into_iter().map(|b| BatchJob {
                spec: format!("benchmarks/{}", b.name),
                target,
            }));
        } else {
            jobs.push(BatchJob { spec: spec.to_string(), target });
        }
    }
    if jobs.is_empty() {
        return Err(CliError::usage(format!("{path}: manifest names no jobs")));
    }
    Ok(jobs)
}

/// Runs one batch job through the full pipeline. Parallelism is across
/// jobs, so each job's pipeline is single-threaded; the shared cache
/// still deduplicates work between isomorphic jobs.
fn run_job(job: &BatchJob, cache: &Option<Arc<dyn Cache>>) -> JobOutcome {
    let outcome = |result| JobOutcome { spec: job.spec.clone(), target: job.target, result };
    let spec = match load_spec(Some(&job.spec)) {
        Ok((spec, _)) => spec,
        Err(CliError::Usage(m)) | Err(CliError::Failure(m)) => {
            return outcome(Err((ErrorKind::Parse, m)));
        }
    };
    let mut pipeline = spec.into_pipeline(job.target, cache).with_threads(1);
    let run = |pipeline: &mut Pipeline| -> Result<JobMetrics, simc::Error> {
        let states = pipeline.elaborated()?.sg().state_count();
        let mc_satisfied = pipeline.covered()?.report().satisfied();
        let implemented = pipeline.implemented()?;
        let working_states = implemented.working_sg().state_count();
        let added = implemented.added_signals();
        let cubes = implemented.implementation().cube_count();
        let literals = implemented.implementation().literal_count();
        let stats = implemented.netlist().stats();
        let (and_gates, or_gates, latch_rails, other_gates) =
            (stats.and_gates, stats.or_gates, stats.latch_rails, stats.other_gates);
        let verified = pipeline.verified()?;
        Ok(JobMetrics {
            states,
            working_states,
            added,
            mc_satisfied,
            cubes,
            literals,
            and_gates,
            or_gates,
            latch_rails,
            other_gates,
            verified: verified.is_ok(),
            explored: verified.explored(),
            violations: verified.violations().len(),
        })
    };
    outcome(run(&mut pipeline).map_err(|e| (e.kind(), e.to_string())))
}

fn target_name(target: Target) -> &'static str {
    match target {
        Target::CElement => "c-element",
        Target::RsLatch => "rs-latch",
    }
}

/// Renders the deterministic batch summary (no timings, stable order).
fn render_batch_json(manifest_path: &str, outcomes: &[JobOutcome]) -> String {
    use std::fmt::Write as _;
    let escape = simc::obs::json::escape;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"manifest\": {},", escape(manifest_path));
    let ok = outcomes.iter().filter(|o| o.result.as_ref().is_ok_and(|m| m.verified)).count();
    let _ = writeln!(out, "  \"jobs_total\": {},", outcomes.len());
    let _ = writeln!(out, "  \"jobs_ok\": {},", ok);
    let _ = writeln!(out, "  \"jobs_failed\": {},", outcomes.len() - ok);
    out.push_str("  \"jobs\": [\n");
    for (index, outcome) in outcomes.iter().enumerate() {
        out.push_str("    {");
        let _ = write!(out, "\"spec\": {}, ", escape(&outcome.spec));
        let _ = write!(out, "\"target\": {}, ", escape(target_name(outcome.target)));
        match &outcome.result {
            Ok(m) => {
                let _ = write!(
                    out,
                    "\"status\": \"ok\", \"states\": {}, \"working_states\": {}, \
                     \"added_signals\": {}, \"mc_satisfied\": {}, \"cubes\": {}, \
                     \"literals\": {}, \"and_gates\": {}, \"or_gates\": {}, \
                     \"latch_rails\": {}, \"other_gates\": {}, \"verified\": {}, \
                     \"explored\": {}, \"violations\": {}",
                    m.states,
                    m.working_states,
                    m.added,
                    m.mc_satisfied,
                    m.cubes,
                    m.literals,
                    m.and_gates,
                    m.or_gates,
                    m.latch_rails,
                    m.other_gates,
                    m.verified,
                    m.explored,
                    m.violations
                );
            }
            Err((kind, message)) => {
                let _ = write!(
                    out,
                    "\"status\": \"error\", \"kind\": {}, \"error\": {}",
                    escape(&kind.to_string()),
                    escape(message)
                );
            }
        }
        out.push('}');
        if index + 1 < outcomes.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}
