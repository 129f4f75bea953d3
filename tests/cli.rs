//! Integration tests for the `simc` command-line binary.
//!
//! Exit-code contract: 0 = success, 1 = operational failure (hazards,
//! CSC violation, oracle disagreement), 2 = usage error or malformed
//! input.

use std::io::Write as _;
use std::process::{Command, Stdio};

const D_ELEMENT: &str = "
.model delement
.inputs r a2
.outputs a r2
.graph
r+ r2+
r2+ a2+
a2+ r2-
r2- a2-
a2- a+
a+ r-
r- a-
a- r+
.marking { <a-,r+> }
.end
";

fn run_with_stdin(args: &[&str], stdin: &str) -> (String, String, i32) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_simc"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    // The binary may exit (e.g. on a bad flag) before reading stdin;
    // a broken pipe here is not a test failure.
    let _ = child.stdin.as_mut().expect("stdin piped").write_all(stdin.as_bytes());
    let output = child.wait_with_output().expect("binary runs");
    (
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
        output.status.code().expect("binary not killed by signal"),
    )
}

#[test]
fn analyze_reports_properties() {
    let (stdout, _, code) = run_with_stdin(&["analyze", "-"], D_ELEMENT);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("states: 8"), "{stdout}");
    assert!(stdout.contains("CSC: false"), "{stdout}");
    assert!(stdout.contains("MC requirement: VIOLATED"), "{stdout}");
}

#[test]
fn reduce_inserts_one_signal() {
    let (stdout, _, code) = run_with_stdin(&["reduce", "-"], D_ELEMENT);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("inserted 1 signal"), "{stdout}");
}

#[test]
fn verify_passes_after_reduction() {
    let (stdout, stderr, code) = run_with_stdin(&["verify", "-"], D_ELEMENT);
    assert_eq!(code, 0, "{stdout} {stderr}");
    assert!(stdout.contains("hazard-free"), "{stdout}");
    assert!(stderr.contains("inserted 1 state signal"), "{stderr}");
}

#[test]
fn synth_prints_equations() {
    let (stdout, _, code) = run_with_stdin(&["synth", "-"], D_ELEMENT);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("Sa"), "{stdout}");
    assert!(stdout.contains("= S"), "{stdout}");
}

#[test]
fn baseline_fails_on_csc_conflict() {
    // A well-formed spec the baseline cannot implement: an *operational*
    // failure, exit 1 — not a usage error.
    let (_, stderr, code) = run_with_stdin(&["synth", "-", "--baseline"], D_ELEMENT);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("state coding"), "{stderr}");
}

#[test]
fn dot_outputs_graphviz() {
    let (stdout, _, code) = run_with_stdin(&["dot", "-"], D_ELEMENT);
    assert_eq!(code, 0);
    assert!(stdout.contains("digraph sg"), "{stdout}");
}

#[test]
fn sg_format_autodetected() {
    let sg_text = "
.model t
.inputs a
.outputs b
.state graph
s0 a+ s1
s1 b+ s2
s2 a- s3
s3 b- s0
.marking {s0}
.end
";
    let (stdout, _, code) = run_with_stdin(&["analyze", "-"], sg_text);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("states: 4"), "{stdout}");
    assert!(stdout.contains("MC requirement: satisfied"), "{stdout}");
}

#[test]
fn unknown_command_exits_2() {
    let (_, stderr, code) = run_with_stdin(&["frobnicate", "-"], "");
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn missing_spec_argument_exits_2() {
    let (_, stderr, code) = run_with_stdin(&["analyze"], "");
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn verilog_emission() {
    let (stdout, _, code) = run_with_stdin(&["synth", "-", "--verilog"], D_ELEMENT);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("module simc_celement"), "{stdout}");
    assert!(stdout.contains("module simc_top ("), "{stdout}");
    assert!(stdout.contains("endmodule"), "{stdout}");
}

#[test]
fn stats_flag_reports_counters_and_spans() {
    let (stdout, stderr, code) = run_with_stdin(&["verify", "-", "--stats"], D_ELEMENT);
    assert_eq!(code, 0, "{stdout} {stderr}");
    assert!(stdout.contains("hazard-free"), "{stdout}");
    assert!(stderr.contains("counters:"), "{stderr}");
    assert!(stderr.contains("spans"), "{stderr}");
    assert!(stderr.contains("sat.solves"), "{stderr}");
    assert!(stderr.contains("verify.states_explored"), "{stderr}");
}

#[test]
fn stats_json_writes_parseable_report() {
    let path = std::env::temp_dir().join(format!("simc_stats_{}.json", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");
    let (stdout, stderr, code) =
        run_with_stdin(&["verify", "-", "--stats-json", path_str], D_ELEMENT);
    assert_eq!(code, 0, "{stdout} {stderr}");
    let text = std::fs::read_to_string(&path).expect("stats JSON written");
    std::fs::remove_file(&path).ok();
    let doc = simc::obs::json::parse(&text).expect("stats JSON parses");
    let solves = doc
        .get("counters")
        .and_then(|c| c.get("sat.solves"))
        .and_then(simc::obs::json::Value::as_u64);
    assert!(solves.is_some_and(|n| n > 0), "sat.solves missing or zero in {text}");
    assert!(doc.get("spans").is_some(), "spans section missing in {text}");
}

#[test]
fn stats_json_without_path_exits_2() {
    let (_, stderr, code) = run_with_stdin(&["verify", "-", "--stats-json"], D_ELEMENT);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("--stats-json needs a file path"), "{stderr}");
}

#[test]
fn unknown_flag_exits_2() {
    let (_, stderr, code) = run_with_stdin(&["verify", "-", "--bogus"], D_ELEMENT);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("unknown flag"), "{stderr}");
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn malformed_g_input_exits_2() {
    let (_, stderr, code) = run_with_stdin(&["analyze", "-"], ".graph\nnonsense here\n");
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("error"), "{stderr}");
}

#[test]
fn malformed_sg_input_exits_2_with_line_number() {
    let garbage = ".model x\n.state graph\nthis is not an edge line\n.end\n";
    let (_, stderr, code) = run_with_stdin(&["analyze", "-"], garbage);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("line 3"), "{stderr}");
}

#[test]
fn malformed_g_marking_exits_2_with_line_number() {
    let garbage = ".model x\n.inputs a\n.outputs b\n.graph\na+ b+\n.marking { <q+,a+> }\n.end\n";
    let (_, stderr, code) = run_with_stdin(&["analyze", "-"], garbage);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("line 6"), "{stderr}");
}

#[test]
fn unreadable_file_exits_2() {
    let (_, stderr, code) = run_with_stdin(&["analyze", "/nonexistent/simc_spec.g"], "");
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("reading"), "{stderr}");
}

#[test]
fn builtin_benchmark_resolves_without_file() {
    let (stdout, _, code) = run_with_stdin(&["analyze", "benchmarks/Delement"], "");
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("states:"), "{stdout}");
}

#[test]
fn complex_gate_flow() {
    // Figure-1-style CSC-satisfying spec through the complex-gate path.
    let toggle = "
.model toggle
.inputs a
.outputs b
.graph
a+ b+
b+ a-
a- b-
b- a+
.marking { <b-,a+> }
.end
";
    let (stdout, _, code) = run_with_stdin(&["verify", "-", "--complex"], toggle);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("hazard-free"), "{stdout}");
}

#[test]
fn fuzz_smoke_run_is_clean() {
    let (stdout, stderr, code) =
        run_with_stdin(&["fuzz", "--seed", "0xDAC94", "--iters", "10"], "");
    assert_eq!(code, 0, "{stdout} {stderr}");
    assert!(stdout.contains("10 case(s): 0 failure(s)"), "{stdout}");
}

#[test]
fn fuzz_accepts_decimal_and_reports_stats() {
    let (stdout, stderr, code) =
        run_with_stdin(&["fuzz", "--seed", "7", "--iters", "5", "--stats"], "");
    assert_eq!(code, 0, "{stdout} {stderr}");
    assert!(stderr.contains("fuzz.cases"), "{stderr}");
    assert!(stderr.contains("fuzz.faults_injected"), "{stderr}");
}

#[test]
fn fuzz_bad_seed_exits_2() {
    let (_, stderr, code) = run_with_stdin(&["fuzz", "--seed", "not-a-number"], "");
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("--seed"), "{stderr}");
}

#[test]
fn fuzz_zero_threads_exits_2() {
    let (_, stderr, code) = run_with_stdin(&["fuzz", "--threads", "0"], "");
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("--threads"), "{stderr}");
}

#[test]
fn fuzz_flags_rejected_elsewhere() {
    let (_, stderr, code) = run_with_stdin(&["verify", "-", "--seed", "3"], D_ELEMENT);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("only valid with `simc fuzz`"), "{stderr}");
}

#[test]
fn fuzz_zero_iters_exits_2_in_legacy_mode() {
    // Zero iterations runs no oracle: "success" would be vacuous.
    let (_, stderr, code) = run_with_stdin(&["fuzz", "--iters", "0"], "");
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("--iters"), "{stderr}");
}

#[test]
fn fuzz_zero_iters_exits_2_in_campaign_mode() {
    let (_, stderr, code) = run_with_stdin(&["fuzz", "--campaign", "--iters", "0"], "");
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("--iters"), "{stderr}");
}

#[test]
fn fuzz_campaign_emits_deterministic_json() {
    let args = ["fuzz", "--campaign", "--seed", "0xDAC94", "--iters", "16"];
    let (stdout, stderr, code) = run_with_stdin(&args, "");
    assert_eq!(code, 0, "{stdout} {stderr}");
    assert!(stdout.contains("\"fuzz_campaign\""), "{stdout}");
    assert!(stdout.contains("\"ok\": true"), "{stdout}");
    assert!(stdout.contains("\"curve\""), "{stdout}");
    assert!(!stdout.contains("shard"), "summary leaks shard count: {stdout}");
    // Byte-identical on a re-run and on a different shard width.
    let (again, _, _) = run_with_stdin(&args, "");
    assert_eq!(stdout, again, "campaign summary not deterministic");
    let (sharded, _, code) = run_with_stdin(
        &["fuzz", "--campaign", "--seed", "0xDAC94", "--iters", "16", "--shards", "8"],
        "",
    );
    assert_eq!(code, 0);
    assert_eq!(stdout, sharded, "shard count leaked into the summary");
}

#[test]
fn fuzz_campaign_corpus_persists_and_out_writes_file() {
    let tmp = TempDir::new("fuzz_campaign");
    let corpus = tmp.file("corpus");
    let out = tmp.file("summary.json");
    let args = [
        "fuzz", "--campaign", "--seed", "9", "--iters", "16", "--corpus", &corpus, "--out", &out,
    ];
    let (stdout, stderr, code) = run_with_stdin(&args, "");
    assert_eq!(code, 0, "{stdout} {stderr}");
    assert!(stdout.is_empty(), "--out must keep stdout clean: {stdout}");
    let summary = std::fs::read_to_string(&out).expect("summary written");
    assert!(summary.contains("\"corpus\": {\"initial\": 0"), "{summary}");
    // The corpus directory now holds entries; a warm rerun loads them.
    let (_, _, code) = run_with_stdin(&args, "");
    assert_eq!(code, 0);
    let warm = std::fs::read_to_string(&out).expect("summary rewritten");
    assert!(!warm.contains("\"initial\": 0"), "corpus did not persist: {warm}");
}

#[test]
fn fuzz_campaign_flags_require_campaign_mode() {
    for args in [
        ["fuzz", "--shards", "2"].as_slice(),
        ["fuzz", "--corpus", "/tmp/nowhere"].as_slice(),
        ["fuzz", "--out", "/tmp/nowhere.json"].as_slice(),
    ] {
        let (_, stderr, code) = run_with_stdin(args, "");
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(stderr.contains("--campaign"), "{args:?}: {stderr}");
    }
}

#[test]
fn campaign_flag_rejected_elsewhere() {
    let (_, stderr, code) = run_with_stdin(&["verify", "-", "--campaign"], D_ELEMENT);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("only valid with `simc fuzz`"), "{stderr}");
}

/// A scratch directory removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("simc_cli_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn file(&self, name: &str) -> String {
        self.0.join(name).to_str().expect("utf-8 temp path").to_string()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn batch_warm_cache_run_is_byte_identical_and_hits() {
    let tmp = TempDir::new("batch");
    let manifest = tmp.file("manifest.txt");
    std::fs::write(&manifest, "# smoke manifest\nbenchmarks/Delement\nbenchmarks/Delement --rs\n")
        .expect("write manifest");
    let cache_dir = tmp.file("cache");
    let stats_cold = tmp.file("cold.json");
    let stats_warm = tmp.file("warm.json");
    let run = |stats: &str| {
        run_with_stdin(
            &["batch", &manifest, "--cache-dir", &cache_dir, "--threads", "2", "--stats-json", stats],
            "",
        )
    };
    let (cold_out, cold_err, cold_code) = run(&stats_cold);
    assert_eq!(cold_code, 0, "{cold_out} {cold_err}");
    let (warm_out, warm_err, warm_code) = run(&stats_warm);
    assert_eq!(warm_code, 0, "{warm_out} {warm_err}");
    assert_eq!(cold_out, warm_out, "warm batch output differs from cold");
    assert!(cold_out.contains("\"status\": \"ok\""), "{cold_out}");
    assert!(cold_out.contains("\"jobs_failed\": 0"), "{cold_out}");
    let warm_stats = std::fs::read_to_string(&stats_warm).expect("warm stats written");
    let doc = simc::obs::json::parse(&warm_stats).expect("stats JSON parses");
    let hits = doc
        .get("counters")
        .and_then(|c| c.get("cache.hits"))
        .and_then(simc::obs::json::Value::as_u64);
    assert!(hits.is_some_and(|n| n > 0), "cache.hits missing or zero in {warm_stats}");
    let misses = doc
        .get("counters")
        .and_then(|c| c.get("cache.misses"))
        .and_then(simc::obs::json::Value::as_u64);
    assert_eq!(misses, Some(0), "warm run should not miss: {warm_stats}");
}

#[test]
fn batch_summary_written_to_out_file() {
    let tmp = TempDir::new("batch_out");
    let manifest = tmp.file("manifest.txt");
    std::fs::write(&manifest, "benchmarks/Delement\n").expect("write manifest");
    let out = tmp.file("summary.json");
    let (stdout, stderr, code) =
        run_with_stdin(&["batch", &manifest, "--threads", "1", "--out", &out], "");
    assert_eq!(code, 0, "{stdout} {stderr}");
    let summary = std::fs::read_to_string(&out).expect("summary written");
    let doc = simc::obs::json::parse(&summary).expect("summary JSON parses");
    assert_eq!(
        doc.get("jobs_total").and_then(simc::obs::json::Value::as_u64),
        Some(1),
        "{summary}"
    );
}

#[test]
fn batch_manifest_with_unknown_option_exits_2() {
    let tmp = TempDir::new("batch_bad");
    let manifest = tmp.file("manifest.txt");
    std::fs::write(&manifest, "benchmarks/Delement --frobnicate\n").expect("write manifest");
    let (_, stderr, code) = run_with_stdin(&["batch", &manifest], "");
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("unknown option"), "{stderr}");
    assert!(stderr.contains("line 1"), "{stderr}");
}

#[test]
fn batch_with_failing_job_exits_1() {
    let tmp = TempDir::new("batch_fail");
    let manifest = tmp.file("manifest.txt");
    std::fs::write(&manifest, "benchmarks/Delement\n/nonexistent/simc_spec.g\n")
        .expect("write manifest");
    let (stdout, stderr, code) = run_with_stdin(&["batch", &manifest], "");
    assert_eq!(code, 1, "{stdout} {stderr}");
    assert!(stdout.contains("\"status\": \"error\""), "{stdout}");
    assert!(stderr.contains("1 of 2 batch job(s) failed"), "{stderr}");
}

#[test]
fn out_flag_rejected_outside_batch() {
    let (_, stderr, code) = run_with_stdin(&["verify", "-", "--out", "x.json"], D_ELEMENT);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("only valid with `simc batch`"), "{stderr}");
}

#[test]
fn cache_dir_verify_is_byte_identical_across_runs() {
    let tmp = TempDir::new("cache_dir");
    let cache_dir = tmp.file("cache");
    let run = || run_with_stdin(&["verify", "-", "--cache-dir", &cache_dir], D_ELEMENT);
    let (cold_out, cold_err, cold_code) = run();
    assert_eq!(cold_code, 0, "{cold_out} {cold_err}");
    let (warm_out, warm_err, warm_code) = run();
    assert_eq!(warm_code, 0, "{warm_out} {warm_err}");
    assert_eq!(cold_out, warm_out, "warm verify stdout differs from cold");
    assert!(cold_out.contains("hazard-free"), "{cold_out}");
    assert!(warm_err.contains("inserted 1 state signal"), "{warm_err}");
}

#[test]
fn serve_round_trips_over_http_and_drains_cleanly() {
    use std::io::{BufRead as _, BufReader, Read as _};
    use std::net::TcpStream;

    let tmp = TempDir::new("serve_cli");
    let cache_dir = tmp.file("cache");
    let mut child = Command::new(env!("CARGO_BIN_EXE_simc"))
        .args(["serve", "--port", "0", "--threads", "2", "--cache-dir", &cache_dir])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    // The daemon announces its (ephemeral) address as the first stdout
    // line; everything after that speaks HTTP over a raw socket.
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("listening line");
    let addr = line
        .trim()
        .strip_prefix("listening on http://")
        .unwrap_or_else(|| panic!("unexpected announcement `{line}`"))
        .to_string();

    let send = |method: &str, path: &str, body: &str| -> (u16, String) {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(raw.as_bytes()).expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let status = response
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad response `{response}`"));
        let body = response.split_once("\r\n\r\n").expect("head/body split").1.to_string();
        (status, body)
    };

    let spec = simc::sg::write_sg(&simc::benchmarks::figures::toggle(), "toggle");
    let (status, body) = send("POST", "/v1/verify", &spec);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("hazard-free"), "{body}");
    // Malformed input maps to 400 — the HTTP face of CLI exit 2.
    let (status, body) = send("POST", "/v1/verify", "not a spec");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"kind\":\"parse\""), "{body}");
    // The format registry is one document: the daemon serves the same
    // bytes the CLI prints for `simc convert --list`.
    let (status, body) = send("GET", "/v1/formats", "");
    assert_eq!(status, 200, "{body}");
    let (list, _, code) = run_with_stdin(&["convert", "--list"], "");
    assert_eq!(code, 0, "{list}");
    assert_eq!(body, list, "GET /v1/formats differs from `simc convert --list`");
    // `/v1/convert` routes through the same registry, keyed by header.
    let send_convert = |format: Option<&str>, body: &str| -> (u16, String) {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let header = format.map_or(String::new(), |f| format!("X-Simc-Format: {f}\r\n"));
        let raw = format!(
            "POST /v1/convert HTTP/1.1\r\nHost: t\r\n{header}Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(raw.as_bytes()).expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let status = response
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad response `{response}`"));
        let body = response.split_once("\r\n\r\n").expect("head/body split").1.to_string();
        (status, body)
    };
    let (status, body) = send_convert(Some("edif"), &spec);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"format\":\"edif\""), "{body}");
    assert!(body.contains("edifVersion"), "{body}");
    let (status, body) = send_convert(None, &spec);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("X-Simc-Format"), "{body}");
    let (status, body) = send_convert(Some("xml"), &spec);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("unknown format"), "{body}");
    let (status, body) = send("POST", "/shutdown", "");
    assert_eq!(status, 200, "{body}");

    let status = child.wait().expect("serve exits");
    assert!(status.success(), "serve exit: {status:?}");
}

#[test]
fn convert_emits_formats_and_round_trips() {
    let tmp = TempDir::new("convert");
    let (list, _, code) = run_with_stdin(&["convert", "--list"], "");
    assert_eq!(code, 0, "{list}");
    for id in ["\"sg\"", "\"edif\"", "\"spice\"", "\"dot\""] {
        assert!(list.contains(id), "registry listing lacks {id}: {list}");
    }
    let (edif, err, code) = run_with_stdin(&["convert", "benchmarks/Delement", "--to", "edif"], "");
    assert_eq!(code, 0, "{err}");
    assert!(edif.contains("edifVersion"), "{edif}");
    // Re-converting the emitted deck must be byte-identical: after one
    // parse the port order is the net order, so emit ∘ parse is the
    // identity on emitted files.
    let deck = tmp.file("d.edif");
    std::fs::write(&deck, &edif).expect("write deck");
    let (again, err, code) = run_with_stdin(&["convert", &deck, "--to", "edif"], "");
    assert_eq!(code, 0, "{err}");
    assert_eq!(again, edif, "EDIF re-emission is not idempotent");
    // The other writers accept both spec and EDIF inputs.
    let (spice, err, code) = run_with_stdin(&["convert", &deck, "--to", "spice"], "");
    assert_eq!(code, 0, "{err}");
    assert!(spice.contains(".subckt"), "{spice}");
    let (dot, err, code) = run_with_stdin(&["convert", "benchmarks/Delement", "--to", "dot"], "");
    assert_eq!(code, 0, "{err}");
    assert!(dot.contains("digraph netlist"), "{dot}");
}

#[test]
fn convert_rejects_bad_requests() {
    let (_, err, code) = run_with_stdin(&["convert", "benchmarks/Delement", "--to", "xml"], "");
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("unknown format"), "{err}");
    let (_, err, code) = run_with_stdin(&["convert", "benchmarks/Delement"], "");
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("--to"), "{err}");
    // Malformed EDIF fails with a typed, line-carrying error — exit 2,
    // the same contract as a malformed `.g`/`.sg` spec.
    let broken = "(edif simc\n  (edifVersion 2 0 0";
    let (_, err, code) = run_with_stdin(&["convert", "-", "--to", "edif"], broken);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("line"), "{err}");
}

#[test]
fn convert_warm_cache_skips_reemission() {
    let tmp = TempDir::new("convert_cache");
    let cache_dir = tmp.file("cache");
    let cold_stats = tmp.file("cold.json");
    let warm_stats = tmp.file("warm.json");
    let run = |stats: &str| {
        run_with_stdin(
            &[
                "convert",
                "benchmarks/Delement",
                "--to",
                "edif",
                "--cache-dir",
                &cache_dir,
                "--stats-json",
                stats,
            ],
            "",
        )
    };
    let (cold, cold_err, code) = run(&cold_stats);
    assert_eq!(code, 0, "{cold_err}");
    let (warm, warm_err, code) = run(&warm_stats);
    assert_eq!(code, 0, "{warm_err}");
    assert_eq!(cold, warm, "cached conversion differs from cold");
    let counter = |path: &str, name: &str| {
        let text = std::fs::read_to_string(path).expect("stats written");
        let doc = simc::obs::json::parse(&text).expect("stats JSON parses");
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(simc::obs::json::Value::as_u64)
    };
    // Cold run does the emission; the warm run is answered entirely by
    // the shared cache — no emit, no cache miss.
    assert_eq!(counter(&cold_stats, "convert.emits"), Some(1), "cold run should emit once");
    assert_eq!(counter(&warm_stats, "convert.emits"), Some(0), "warm run re-emitted");
    assert_eq!(counter(&warm_stats, "cache.misses"), Some(0), "warm run missed the cache");
    let hits = counter(&warm_stats, "cache.hits");
    assert!(hits.is_some_and(|n| n > 0), "warm run shows no cache hits");
}

#[test]
fn verify_rejects_verilog() {
    let (_, stderr, code) = run_with_stdin(&["verify", "-", "--verilog"], D_ELEMENT);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("`--verilog` is only valid with `simc synth`"), "{stderr}");
}

#[test]
fn threads_accept_hex_on_synth_as_on_batch() {
    let tmp = TempDir::new("hex_threads");
    let manifest = tmp.file("manifest.txt");
    std::fs::write(&manifest, "benchmarks/Delement\n").expect("write manifest");
    let (_, stderr, code) = run_with_stdin(&["batch", &manifest, "--threads", "0x2"], "");
    assert_eq!(code, 0, "{stderr}");
    let (hex, stderr, code) = run_with_stdin(&["synth", "-", "--threads", "0x2"], D_ELEMENT);
    assert_eq!(code, 0, "{stderr}");
    let (decimal, _, _) = run_with_stdin(&["synth", "-", "--threads", "2"], D_ELEMENT);
    assert_eq!(hex, decimal, "--threads 0x2 and --threads 2 disagree");
    let (_, stderr, code) = run_with_stdin(&["synth", "-", "--threads", "0x0"], D_ELEMENT);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("--threads must be at least 1"), "{stderr}");
}

#[test]
fn synth_share_prints_shared_equations() {
    let (stdout, stderr, code) = run_with_stdin(&["synth", "-", "--share"], D_ELEMENT);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("Scsc0 = a2\n"), "{stdout}");
    assert!(stderr.contains("inserted 1 state signal"), "{stderr}");
    assert!(stderr.contains("13 literals"), "{stderr}");
}

#[test]
fn synth_complex_verilog_prints_one_gate_per_output() {
    let args = ["synth", "benchmarks/mp-forward-pkt", "--complex", "--verilog"];
    let (stdout, stderr, code) = run_with_stdin(&args, "");
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.starts_with("// Asynchronous primitive library"), "{stdout}");
    assert!(stdout.contains("  assign ack = (done);\n"), "{stdout}");
    assert!(stderr.contains("4 other, 7 literals"), "{stderr}");
}

#[test]
fn synth_complex_verilog_initialises_only_instantiated_cells() {
    let args = ["synth", "benchmarks/mp-forward-pkt", "--complex", "--verilog"];
    let (stdout, stderr, code) = run_with_stdin(&args, "");
    assert_eq!(code, 0, "{stderr}");
    // `done` is a feedback complex gate, emitted as an `assign`.
    assert!(stdout.contains("  assign done = "), "{stdout}");
    let instances: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.trim().strip_prefix("simc_celement "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    for line in stdout.lines() {
        if let Some((cell, _)) = line.trim().split_once(".q = ") {
            assert!(instances.contains(&cell), "{cell} is not instantiated:\n{stdout}");
        }
    }
}

#[test]
fn verify_baseline_runs_the_verifier_or_fails_on_csc() {
    let (stdout, stderr, code) =
        run_with_stdin(&["verify", "benchmarks/mp-forward-pkt", "--baseline"], "");
    assert_eq!(code, 0, "{stderr}");
    assert_eq!(stdout, "hazard-free (28 composed states explored)\n");
    let (stdout, stderr, code) = run_with_stdin(&["verify", "-", "--baseline"], D_ELEMENT);
    assert_eq!(code, 1, "{stdout}");
    assert!(stderr.contains("complete state coding violation"), "{stderr}");
}

#[test]
fn convert_to_verilog_matches_synth_verilog() {
    let (converted, stderr, code) =
        run_with_stdin(&["convert", "benchmarks/Delement", "--to", "verilog"], "");
    assert_eq!(code, 0, "{stderr}");
    let (synthesized, stderr, code) =
        run_with_stdin(&["synth", "benchmarks/Delement", "--verilog"], "");
    assert_eq!(code, 0, "{stderr}");
    assert_eq!(converted, synthesized);
    assert!(converted.contains("module simc_top ("), "{converted}");
}
