//! Byte-for-byte golden outputs of the three front ends over the Table 1
//! suite: the `simc` subcommands, `simc batch` and `simc serve`.
//!
//! `tests/golden/` holds, for every Table 1 row:
//!
//! * `synth/<row>{,.rs,.share}.txt` — stdout of
//!   `simc synth benchmarks/<row>`, plain, with `--rs` and with `--share`;
//! * `analyze/<row>{,.rs}.txt` — stdout of `simc analyze benchmarks/<row>`,
//!   plain and with `--rs`;
//! * `verify/<row>{,.rs}.txt` — stdout of `simc verify benchmarks/<row>`,
//!   plain and with `--rs`;
//! * `batch/suite{,.rs}.json` — stdout of `simc batch suite.manifest`
//!   (`--rs`) over a manifest naming `benchmarks/*`;
//! * `serve/<endpoint>.txt` — one line per row and target,
//!   `<row> <target> <status> <body>`, answered by an in-process
//!   `simc::serve::Server` to the row's `.sg` text. `convert.txt` holds
//!   two lines per row and target: the spec converted to `edif`, and that
//!   EDIF netlist posted back and re-emitted as `edif` (tagged `edif`).
//!
//! Speed and refactoring work must leave every file unchanged. A
//! deliberate change of results rewrites them all in the same change
//! with one command:
//!
//! ```text
//! cargo test --release --test golden -- --ignored regenerate_golden_files
//! ```

use std::path::PathBuf;
use std::process::Command;

use simc::mc::synth::Target;
use simc::serve::{ServeConfig, Server};

/// One golden file: its path under `tests/golden/` and the bytes the
/// current build produces for it.
struct Golden {
    path: String,
    actual: Vec<u8>,
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn rows() -> Vec<&'static str> {
    simc::benchmarks::suite::all().into_iter().map(|b| b.name).collect()
}

/// Runs `simc` with `args` in `dir` and returns its stdout, asserting
/// a clean exit.
fn simc_stdout(args: &[&str], dir: Option<&std::path::Path>) -> Vec<u8> {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_simc"));
    cmd.args(args);
    if let Some(dir) = dir {
        cmd.current_dir(dir);
    }
    let out = cmd.output().expect("simc runs");
    assert!(
        out.status.success(),
        "simc {args:?}: exit {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// `simc <command> benchmarks/<row> [flag]` for every row and mode; a
/// mode is a file suffix and its flag.
fn cli_goldens(command: &str, modes: &[(&str, Option<&str>)]) -> Vec<Golden> {
    let mut goldens = Vec::new();
    for row in rows() {
        for &(suffix, flag) in modes {
            let spec = format!("benchmarks/{row}");
            let mut args = vec![command, spec.as_str()];
            args.extend(flag);
            goldens.push(Golden {
                path: format!("{command}/{row}{suffix}.txt"),
                actual: simc_stdout(&args, None),
            });
        }
    }
    goldens
}

fn synth_goldens() -> Vec<Golden> {
    cli_goldens("synth", &[("", None), (".rs", Some("--rs")), (".share", Some("--share"))])
}

fn analyze_goldens() -> Vec<Golden> {
    cli_goldens("analyze", &[("", None), (".rs", Some("--rs"))])
}

fn verify_goldens() -> Vec<Golden> {
    cli_goldens("verify", &[("", None), (".rs", Some("--rs"))])
}

fn batch_goldens() -> Vec<Golden> {
    // The summary names its manifest, so the manifest sits at a fixed
    // relative path in a scratch directory.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden_batch");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    std::fs::write(dir.join("suite.manifest"), "benchmarks/*\n").expect("write manifest");
    [("", None), (".rs", Some("--rs"))]
        .into_iter()
        .map(|(suffix, flag)| {
            let mut args = vec!["batch", "suite.manifest"];
            args.extend(flag);
            Golden {
                path: format!("batch/suite{suffix}.json"),
                actual: simc_stdout(&args, Some(&dir)),
            }
        })
        .collect()
}

/// Posts `body` to `path` with `headers`; returns `<status> <body>`.
fn post(addr: std::net::SocketAddr, path: &str, headers: &[(&str, &str)], body: &str) -> String {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut raw = format!("POST {path} HTTP/1.1\r\nHost: golden\r\n");
    for (name, value) in headers {
        raw.push_str(&format!("{name}: {value}\r\n"));
    }
    raw.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("head/body split");
    let status = head.split_whitespace().nth(1).expect("status code");
    format!("{status} {body}")
}

fn serve_goldens() -> Vec<Golden> {
    let server =
        Server::start(ServeConfig { workers: 1, ..ServeConfig::default() }).expect("server starts");
    let addr = server.addr();
    let endpoints = ["analyze", "synth", "verify", "convert"];
    let mut files = vec![String::new(); endpoints.len()];
    for b in simc::benchmarks::suite::all() {
        let sg = b.stg.to_state_graph().expect("suite rows elaborate");
        let spec = simc::sg::write_sg(&sg, b.name);
        for (target, tag) in [(Target::CElement, "c-element"), (Target::RsLatch, "rs-latch")] {
            let headers = [("X-Simc-Target", tag), ("X-Simc-Format", "edif")];
            for (endpoint, file) in endpoints.iter().zip(&mut files) {
                // Only `/v1/convert` reads the format header.
                let headers = if *endpoint == "convert" { &headers[..] } else { &headers[..1] };
                let response = post(addr, &format!("/v1/{endpoint}"), headers, &spec);
                file.push_str(&format!("{} {tag} {response}\n", b.name));
            }
            let edif = simc::Pipeline::from_text(spec.as_str())
                .with_target(target)
                .converted("edif")
                .expect("suite rows convert to edif");
            let response = post(addr, "/v1/convert", &headers, &edif);
            files[3].push_str(&format!("{} {tag} edif {response}\n", b.name));
        }
    }
    post(addr, "/shutdown", &[], "");
    server.join();
    endpoints
        .iter()
        .zip(files)
        .map(|(endpoint, text)| Golden {
            path: format!("serve/{endpoint}.txt"),
            actual: text.into_bytes(),
        })
        .collect()
}

/// Asserts every golden file matches, reporting all mismatches at once.
fn check(goldens: Vec<Golden>) {
    let mut mismatches = Vec::new();
    for golden in goldens {
        let path = golden_dir().join(&golden.path);
        let expected = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("golden file {} missing: {e}", path.display()));
        if golden.actual != expected {
            mismatches.push(format!(
                "{}:\n--- golden\n{}--- got\n{}",
                path.display(),
                String::from_utf8_lossy(&expected),
                String::from_utf8_lossy(&golden.actual)
            ));
        }
    }
    assert!(mismatches.is_empty(), "output changed:\n{}", mismatches.join("\n"));
}

#[test]
fn synth_outputs_match_the_golden_files() {
    check(synth_goldens());
}

#[test]
fn analyze_outputs_match_the_golden_files() {
    check(analyze_goldens());
}

#[test]
fn verify_outputs_match_the_golden_files() {
    check(verify_goldens());
}

#[test]
fn batch_outputs_match_the_golden_files() {
    check(batch_goldens());
}

#[test]
fn serve_responses_match_the_golden_files() {
    check(serve_goldens());
}

/// Rewrites every golden file from the current build (see the module
/// docs for the command).
#[test]
#[ignore = "rewrites tests/golden; run explicitly after a deliberate change of results"]
fn regenerate_golden_files() {
    let all =
        [synth_goldens(), analyze_goldens(), verify_goldens(), batch_goldens(), serve_goldens()];
    for golden in all.into_iter().flatten() {
        let path = golden_dir().join(&golden.path);
        std::fs::create_dir_all(path.parent().expect("golden files sit in a directory"))
            .expect("create golden dir");
        std::fs::write(&path, &golden.actual)
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    }
}
