//! Profiles the full synthesis pipeline over the benchmark suite,
//! sequentially and in parallel, and emits `BENCH_pipeline.json`.
//!
//! Per benchmark the pipeline is: STG reachability → MC-reduction →
//! region analysis → MC cover search → synthesis + verification; each
//! phase is wall-clock timed via `simc_obs` spans. A second, sequential
//! pass re-runs every benchmark with the observability counters on and
//! records the paper-table structural columns (states, inserted signals,
//! gates, literals) plus the full counter report. A third pass runs each
//! benchmark twice through the typed pipeline over a shared artifact
//! cache and records cold-vs-warm wall-clock (the `cache` section). The
//! timed sweeps run with counters *off*, so the recorded timings measure
//! the pipeline at its zero-overhead default. A final deterministic pass
//! compares coverage-guided fuzz campaigns against fresh-only generation
//! at a fixed budget (the `fuzz_coverage` section) and fails unless the
//! campaign reaches at least twice the fresh-only edge count.
//!
//! Usage: `repro_pipeline [--threads N] [--out PATH] [--markdown]
//! [--smoke] [--check BASELINE]`
//!
//! * `--threads N`   parallel-run worker count (defaults to the machine's
//!   available parallelism, floor 4)
//! * `--out PATH`    output path (default `BENCH_pipeline.json`; with
//!   `--check`, results are written only when `--out` is given)
//! * `--smoke`       only profile a 2-benchmark subset (CI gate)
//! * `--check PATH`  compare against a committed baseline: structural
//!   columns and counters must match exactly, per-benchmark totals must
//!   not regress more than 10% (plus a small absolute grace for
//!   sub-millisecond phases); exits 1 on regression

use simc_bench::profile::{
    cache_sweep, counters_sweep, fuzz_coverage_sweep, scale_sweep, to_json, BenchmarkCounters,
    FuzzCoverage, ScaleTimings, SuiteRun,
};
use simc_bench::report::Table;
use simc_benchmarks::{scale, suite};
use simc_obs::json::{self, Value};

/// Benchmarks profiled under `--smoke`: one trivial spec and the two
/// insertion-heavy sequencers, so the gate exercises both pipeline halves
/// and the state-assignment hot path at its deepest.
const SMOKE_SET: &[&str] = &["duplicator", "berkel3", "ganesh_8"];

/// Relative regression tolerance for `--check`.
const CHECK_RELATIVE: f64 = 0.10;

/// Absolute grace in seconds: sub-millisecond phases jitter far beyond
/// 10% between runs, so small absolute drift is never a regression.
const CHECK_ABSOLUTE_S: f64 = 0.05;

/// Relative regression tolerance for the hot pipeline phases — state
/// assignment, reachability and verification — each gated on its own.
/// `assign_s` dominates the sequencers and `reach_s`/`verify_s` the
/// scale family, so a >20% slowdown in any of them fails even when the
/// 10%+50ms total gate would absorb it.
const CHECK_PHASE_RELATIVE: f64 = 0.20;

/// Absolute grace for the phase gates (scheduler jitter on short runs).
const CHECK_PHASE_ABSOLUTE_S: f64 = 0.02;

/// Phases gated per benchmark with the 20%+20ms rule.
const CHECKED_PHASES: &[&str] = &["assign_s", "reach_s", "verify_s"];

/// Seed of the fuzz-coverage comparison (the CI campaign seed).
const FUZZ_COVERAGE_SEED: u64 = 0xDAC94;

/// Case budget of the fuzz-coverage comparison. At this budget the
/// coverage-guided campaign must clear the reproduction's ≥2× gate over
/// fresh-only generation.
const FUZZ_COVERAGE_ITERS: u64 = 256;

fn usage() -> ! {
    eprintln!(
        "usage: repro_pipeline [--threads N] [--out PATH] [--markdown] [--smoke] [--check BASELINE]"
    );
    std::process::exit(2);
}

fn main() {
    let mut threads = None;
    let mut out_path = None;
    let mut markdown = false;
    let mut smoke = false;
    let mut check_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threads" => {
                let v = args.next().unwrap_or_else(|| {
                    eprintln!("error: --threads requires a value");
                    usage()
                });
                threads = Some(v.parse::<usize>().map(|n| n.max(1)).unwrap_or_else(|_| {
                    eprintln!("error: --threads takes a positive integer, got `{v}`");
                    usage()
                }));
            }
            "--out" => {
                out_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("error: --out requires a path");
                    usage()
                }));
            }
            "--check" => {
                check_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("error: --check requires a baseline path");
                    usage()
                }));
            }
            "--markdown" => markdown = true,
            "--smoke" => smoke = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument `{other}`");
                usage()
            }
        }
    }
    let threads = threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()).max(4));
    // A check run must not overwrite the baseline it compares against.
    let out_path =
        out_path.or_else(|| check_path.is_none().then(|| "BENCH_pipeline.json".to_string()));

    let mut benchmarks = suite::all();
    if smoke {
        benchmarks.retain(|b| SMOKE_SET.contains(&b.name));
        assert_eq!(benchmarks.len(), SMOKE_SET.len(), "smoke subset missing from suite");
    }
    let sequential = SuiteRun::sweep("sequential", &benchmarks, 1);
    let parallel = SuiteRun::sweep(&format!("parallel-{threads}"), &benchmarks, threads);
    let counters = counters_sweep(&benchmarks);
    let cache = cache_sweep(&benchmarks);
    let mut scale_members = scale::all();
    if smoke {
        // The widest members dominate the sweep; CI gates on the smallest.
        scale_members.retain(|m| m.width <= 13);
    }
    let scale_timings = scale_sweep(&scale_members);
    let fuzz_coverage = fuzz_coverage_sweep(FUZZ_COVERAGE_SEED, FUZZ_COVERAGE_ITERS);

    let mut table = Table::new(&[
        "example", "states", "reach ms", "regions ms", "cover ms", "assign ms", "verify ms",
        "total ms", "verified",
    ]);
    let ms = |s: f64| format!("{:.2}", s * 1e3);
    for t in &sequential.timings {
        table.row(&[
            t.name.clone(),
            t.states.to_string(),
            ms(t.reach),
            ms(t.regions),
            ms(t.cover),
            ms(t.assign),
            ms(t.verify),
            ms(t.total()),
            if t.verified { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!("Pipeline phase profile (sequential) — {} benchmarks", benchmarks.len());
    println!();
    if markdown {
        print!("{}", table.to_markdown());
    } else {
        print!("{}", table.to_text());
    }
    println!();
    println!(
        "sequential wall: {:.1} ms   parallel-{} wall: {:.1} ms   speedup: {:.2}x",
        sequential.wall * 1e3,
        threads,
        parallel.wall * 1e3,
        sequential.wall / parallel.wall
    );
    let (cold_total, warm_total): (f64, f64) =
        cache.iter().fold((0.0, 0.0), |(c, w), t| (c + t.cold, w + t.warm));
    println!(
        "artifact cache: cold {:.1} ms   warm {:.1} ms   speedup: {:.2}x",
        cold_total * 1e3,
        warm_total * 1e3,
        cold_total / warm_total.max(1e-6)
    );
    for t in &cache {
        assert!(t.identical, "{}: warm cached run diverged from cold", t.name);
    }
    for s in &scale_timings {
        println!(
            "scale {}: {} spec states, verify full {:.1} ms ({} states) -> reduced {:.1} ms ({} states)",
            s.name,
            s.spec_states,
            s.verify_full * 1e3,
            s.explored_full,
            s.verify_reduced * 1e3,
            s.explored_reduced
        );
        assert!(s.verified, "{}: scale member must verify hazard-free", s.name);
    }
    println!(
        "fuzz coverage @ {} cases: campaign {} edges vs fresh {} edges ({:.2}x, corpus {})",
        fuzz_coverage.iters,
        fuzz_coverage.campaign_edges,
        fuzz_coverage.fresh_edges,
        fuzz_coverage.ratio(),
        fuzz_coverage.corpus_size
    );
    assert!(
        fuzz_coverage.ratio() >= 2.0,
        "coverage-guided campaign must reach at least 2x the fresh-only edges, got {:.2}x",
        fuzz_coverage.ratio()
    );

    // Every thread count must produce identical results.
    for (s, p) in sequential.timings.iter().zip(&parallel.timings) {
        assert_eq!(s.name, p.name);
        assert_eq!(s.states, p.states, "{}: state count differs across thread counts", s.name);
        assert_eq!(s.verified, p.verified, "{}: verdict differs across thread counts", s.name);
    }
    // The counter pass replays the same pipeline; its structure must agree.
    for (s, c) in sequential.timings.iter().zip(&counters) {
        assert_eq!(s.name, c.name);
        assert_eq!(s.states, c.states, "{}: state count differs in counter pass", s.name);
    }

    let json = to_json(
        &[sequential.clone(), parallel],
        &counters,
        &cache,
        &scale_timings,
        Some(&fuzz_coverage),
    );
    // Round-trip self-validation: the hand-rolled emitter must satisfy
    // the workspace's own parser before anything is written to disk.
    if let Err(e) = json::parse(&json) {
        eprintln!("error: emitted JSON is malformed: {e}");
        std::process::exit(1);
    }
    if let Some(out_path) = out_path {
        std::fs::write(&out_path, &json).expect("write BENCH_pipeline.json");
        println!("wrote {out_path}");
    }

    if let Some(baseline) = check_path {
        match check_against_baseline(
            &baseline,
            &sequential,
            &counters,
            &scale_timings,
            &fuzz_coverage,
        ) {
            Ok(n) => println!("check: {n} benchmark(s) within tolerance of {baseline}"),
            Err(problems) => {
                for p in &problems {
                    eprintln!("check: {p}");
                }
                eprintln!("check: {} regression(s) against {baseline}", problems.len());
                std::process::exit(1);
            }
        }
    }
}

/// The `benchmarks` array of the `sequential` run in a parsed
/// `BENCH_pipeline.json` document (empty when the shape is unexpected).
fn sequential_benchmarks(doc: &Value) -> Vec<&Value> {
    doc.get("runs")
        .and_then(Value::as_array)
        .and_then(|runs| {
            runs.iter()
                .find(|r| r.get("label").and_then(Value::as_str) == Some("sequential"))
        })
        .and_then(|r| r.get("benchmarks"))
        .and_then(Value::as_array)
        .map(|b| b.iter().collect())
        .unwrap_or_default()
}

/// Compares the sequential run and counter pass against a committed
/// `BENCH_pipeline.json`. Structural columns and pipeline counters are
/// deterministic and must match exactly; wall-clock totals may drift
/// within `CHECK_RELATIVE` + `CHECK_ABSOLUTE_S`. Benchmarks absent from
/// the baseline are skipped, so a smoke run checks against a full one.
fn check_against_baseline(
    path: &str,
    sequential: &SuiteRun,
    counters: &[BenchmarkCounters],
    scale: &[ScaleTimings],
    fuzz: &FuzzCoverage,
) -> Result<usize, Vec<String>> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("reading baseline {path}: {e}"));
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("parsing baseline {path}: {e}"));
    let mut problems = Vec::new();
    let mut checked = 0usize;

    let base_seq = sequential_benchmarks(&doc);
    for t in &sequential.timings {
        let Some(base) = base_seq
            .iter()
            .find(|b| b.get("name").and_then(Value::as_str) == Some(&t.name))
        else {
            continue;
        };
        checked += 1;
        if base.get("states").and_then(Value::as_u64) != Some(t.states as u64) {
            problems.push(format!(
                "{}: states {} != baseline {:?}",
                t.name,
                t.states,
                base.get("states").and_then(Value::as_u64)
            ));
        }
        if base.get("verified").and_then(Value::as_bool) != Some(t.verified) {
            problems.push(format!("{}: verdict differs from baseline", t.name));
        }
        if let Some(base_total) = base.get("total_s").and_then(Value::as_f64) {
            let limit = base_total * (1.0 + CHECK_RELATIVE) + CHECK_ABSOLUTE_S;
            if t.total() > limit {
                problems.push(format!(
                    "{}: total {:.4}s exceeds baseline {:.4}s by more than {:.0}% + {:.0}ms",
                    t.name,
                    t.total(),
                    base_total,
                    CHECK_RELATIVE * 100.0,
                    CHECK_ABSOLUTE_S * 1e3
                ));
            }
        }
        for &phase in CHECKED_PHASES {
            let Some(base_phase) = base.get(phase).and_then(Value::as_f64) else { continue };
            let now = match phase {
                "assign_s" => t.assign,
                "reach_s" => t.reach,
                "verify_s" => t.verify,
                _ => unreachable!("unknown checked phase"),
            };
            let limit = base_phase * (1.0 + CHECK_PHASE_RELATIVE) + CHECK_PHASE_ABSOLUTE_S;
            if now > limit {
                problems.push(format!(
                    "{}: {phase} {now:.4}s exceeds baseline {base_phase:.4}s by more than {:.0}% + {:.0}ms",
                    t.name,
                    CHECK_PHASE_RELATIVE * 100.0,
                    CHECK_PHASE_ABSOLUTE_S * 1e3
                ));
            }
        }
    }

    if let Some(base_counters) = doc.get("counters").and_then(Value::as_array) {
        for c in counters {
            let Some(base) = base_counters
                .iter()
                .find(|b| b.get("name").and_then(Value::as_str) == Some(&c.name))
            else {
                continue;
            };
            for (field, value) in [
                ("states", c.states),
                ("signals_added", c.signals_added),
                ("gates", c.gates),
                ("literals", c.literals),
            ] {
                if base.get(field).and_then(Value::as_u64) != Some(value as u64) {
                    problems.push(format!(
                        "{}: {field} {value} != baseline {:?}",
                        c.name,
                        base.get(field).and_then(Value::as_u64)
                    ));
                }
            }
            let Some(pipeline) = base.get("pipeline") else { continue };
            for (counter, value) in &c.counters {
                if pipeline.get(counter.name()).and_then(Value::as_u64) != Some(*value) {
                    problems.push(format!(
                        "{}: counter {} = {} != baseline {:?}",
                        c.name,
                        counter.name(),
                        value,
                        pipeline.get(counter.name()).and_then(Value::as_u64)
                    ));
                }
            }
        }
    }

    if let Some(base_scale) = doc.get("scale").and_then(Value::as_array) {
        for s in scale {
            let Some(base) = base_scale
                .iter()
                .find(|b| b.get("name").and_then(Value::as_str) == Some(&s.name))
            else {
                continue;
            };
            checked += 1;
            // Deterministic columns match exactly; the reduced
            // exploration size is part of the engine's contract.
            for (field, value) in
                [("spec_states", s.spec_states), ("explored", s.explored_reduced)]
            {
                if base.get(field).and_then(Value::as_u64) != Some(value as u64) {
                    problems.push(format!(
                        "{}: {field} {value} != baseline {:?}",
                        s.name,
                        base.get(field).and_then(Value::as_u64)
                    ));
                }
            }
            if base.get("verified").and_then(Value::as_bool) != Some(s.verified) {
                problems.push(format!("{}: scale verdict differs from baseline", s.name));
            }
            for (phase, now) in [("reach_s", s.reach), ("verify_s", s.verify_reduced)] {
                let Some(base_phase) = base.get(phase).and_then(Value::as_f64) else {
                    continue;
                };
                let limit = base_phase * (1.0 + CHECK_PHASE_RELATIVE) + CHECK_PHASE_ABSOLUTE_S;
                if now > limit {
                    problems.push(format!(
                        "{}: {phase} {now:.4}s exceeds baseline {base_phase:.4}s by more than {:.0}% + {:.0}ms",
                        s.name,
                        CHECK_PHASE_RELATIVE * 100.0,
                        CHECK_PHASE_ABSOLUTE_S * 1e3
                    ));
                }
            }
        }
    }

    // The coverage comparison is a pure function of (seed, iters) — the
    // committed numbers must reproduce exactly.
    if let Some(base_fuzz) = doc.get("fuzz_coverage") {
        let same_budget = base_fuzz.get("seed").and_then(Value::as_u64) == Some(fuzz.seed)
            && base_fuzz.get("iters").and_then(Value::as_u64) == Some(fuzz.iters);
        if same_budget {
            checked += 1;
            for (field, value) in [
                ("campaign_edges", fuzz.campaign_edges),
                ("fresh_edges", fuzz.fresh_edges),
                ("corpus_size", fuzz.corpus_size),
            ] {
                if base_fuzz.get(field).and_then(Value::as_u64) != Some(value as u64) {
                    problems.push(format!(
                        "fuzz_coverage: {field} {value} != baseline {:?}",
                        base_fuzz.get(field).and_then(Value::as_u64)
                    ));
                }
            }
        }
    }

    if problems.is_empty() {
        Ok(checked)
    } else {
        Err(problems)
    }
}
