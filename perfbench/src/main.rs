//! End-to-end and per-layer benchmark of the simc synthesis flow.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1|scale-ring|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Each run also writes that object to
//! `.perfbench/<workload>.json` (plain) or `.perfbench/<workload>-trace.json`
//! (traced, with the tracing overhead). Any failed output check prints
//! the result with `"correct": false` and exits 1; bad arguments exit 2.
//! See README.md for the workloads, the metrics and reference figures.

mod check;
mod flow;
mod serve_mix;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

/// Where result files and scratch cache directories go, relative to the
/// repository root.
pub const OUT_DIR: &str = ".perfbench";

/// How many times set-up runs in one run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 7;

/// The command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every failed output check; empty when the outputs are correct.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Extra members of the result file (the traced run's overhead).
    pub notes: Vec<(&'static str, f64)>,
}

/// The per-layer metrics of a traced run, in output order, with units.
/// Every traced run prints all of them; a metric a workload does not
/// exercise reads 0 there (README.md says which workload each one is
/// for).
pub const PER_LAYER: &[(&str, &str)] = &[
    // Calls into each layer's public functions, timed from outside.
    ("stg.parse_g_ms", "ms"),
    ("stg.reach_ms", "ms"),
    ("sg.canonical_ms", "ms"),
    ("sg.parse_sg_ms", "ms"),
    ("pipeline.elaborate_ms", "ms"),
    ("sg.regions_ms", "ms"),
    ("mc.cover_ms", "ms"),
    ("mc.implement_ms", "ms"),
    ("netlist.verify_ms", "ms"),
    ("formats.edif_ms", "ms"),
    // The program's own spans.
    ("mc.reduce_ms", "ms"),
    ("mc.assign_sat_ms", "ms"),
    ("mc.assign_expand_ms", "ms"),
    ("mc.reduce_regions_ms", "ms"),
    ("mc.reduce_cover_ms", "ms"),
    // The program's own counters.
    ("sat.solves", "count"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("regions.decompositions", "count"),
    ("beam.nodes_expanded", "count"),
    ("beam.models_examined", "count"),
    ("cover.cubes_checked", "count"),
    ("reach.states", "count"),
    ("arena.states_interned", "count"),
    ("verify.states_explored", "count"),
    ("verify.stubborn_reduced", "count"),
    // serve-mix: client-side latency per request class and the load
    // generator's lateness, then daemon `/stats` deltas.
    ("serve.hit_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.convert_p50_ms", "ms"),
    ("loadgen.lateness_p99_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.bytes_written", "bytes"),
    ("serve.computations", "count"),
    ("convert.emits", "count"),
];

/// The [`PER_LAYER`] metrics, taking each value from `values` (0 when
/// absent).
pub fn per_layer_metrics(values: &BTreeMap<&str, f64>) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| metric(name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload table1|scale-ring|serve-mix --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .map(Duration::from_secs_f64)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace))
            if ["table1", "scale-ring", "serve-mix"].contains(&workload.as_str()) =>
        {
            Args {
                workload,
                seed,
                seconds,
                trace,
            }
        }
        _ => usage(),
    }
}

fn main() {
    let args = parse_args();
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("error: creating {OUT_DIR}: {e}");
        std::process::exit(1);
    }
    let outcome = match args.workload.as_str() {
        "table1" => flow::run(&args, flow::Workload::Table1),
        "scale-ring" => flow::run(&args, flow::Workload::ScaleRing),
        _ => serve_mix::run(&args),
    };
    let outcome = outcome.unwrap_or_else(|e| {
        eprintln!("error: {}: {e}", args.workload);
        std::process::exit(1);
    });
    for error in &outcome.errors {
        eprintln!("check failed: {error}");
    }
    let line = result_json(&outcome);
    let file = if args.trace {
        format!("{OUT_DIR}/{}-trace.json", args.workload)
    } else {
        format!("{OUT_DIR}/{}.json", args.workload)
    };
    let mut document = line.clone();
    if !outcome.notes.is_empty() {
        document.pop();
        for (name, value) in &outcome.notes {
            let _ = write!(document, ", \"{name}\": {}", number(*value));
        }
        document.push('}');
    }
    if let Err(e) = std::fs::write(Path::new(&file), format!("{document}\n")) {
        eprintln!("error: writing {file}: {e}");
        std::process::exit(1);
    }
    println!("{line}");
    if !outcome.errors.is_empty() {
        std::process::exit(1);
    }
}

/// Renders the result object on one line.
fn result_json(outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.errors.is_empty(),
        outcome.attempted,
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// A JSON number with every digit of `value` (JSON has no NaN or
/// infinity; neither is ever measured).
fn number(value: f64) -> String {
    assert!(value.is_finite(), "metric value {value} is not a number");
    format!("{value}")
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `samples`, interpolated linearly
/// between the two nearest order statistics (position `p (n - 1)`, the
/// rule of NumPy's default and Python's `quantiles(method="inclusive")`).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = position.floor() as usize;
    let above = (below + 1).min(sorted.len() - 1);
    sorted[below] + (position - below as f64) * (sorted[above] - sorted[below])
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM line in {path}"))
}

/// Shuffles the arc lines of a `.g` text's `.graph` section: the same
/// net with its arcs listed in a seeded order.
pub fn shuffle_arcs(text: &str, rng: &mut simc_fuzz::Rng) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let start = lines
        .iter()
        .position(|l| *l == ".graph")
        .map_or(lines.len(), |i| i + 1);
    let end = lines[start..]
        .iter()
        .position(|l| l.starts_with('.'))
        .map_or(lines.len(), |i| start + i);
    let mut arcs = lines[start..end].to_vec();
    for i in (1..arcs.len()).rev() {
        arcs.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut out = String::with_capacity(text.len());
    for line in lines[..start].iter().chain(&arcs).chain(&lines[end..]) {
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_percentiles() {
        let samples: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(median(&samples), 50.0);
        assert_eq!(percentile(&samples, 0.9), 90.0);
        assert_eq!(percentile(&samples, 0.99), 99.0);
        assert_eq!(median(&[1.0, 4.0]), 2.5);
        assert!((percentile(&[1.0, 2.0, 4.0], 0.99) - 3.96).abs() < 1e-12);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn shuffled_arcs_keep_the_state_space() {
        let text = simc_benchmarks::suite::ganesh8().stg.to_g_string();
        let shuffled = shuffle_arcs(&text, &mut simc_fuzz::Rng::new(7));
        assert_ne!(text, shuffled);
        let canonical = |t: &str| {
            let sg = simc_stg::parse_g(t)
                .expect("parses")
                .to_state_graph()
                .expect("reaches");
            simc_sg::canonical_sg(&sg, "m")
        };
        assert_eq!(canonical(&text), canonical(&shuffled));
    }
}
