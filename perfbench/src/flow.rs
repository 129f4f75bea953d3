//! The closed-loop workloads `table1` and `scale-ring`: one client on one
//! thread runs cold `Pipeline` passes, without a cache, from `.g` text
//! to a verified netlist, back to back.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use simc_fuzz::Rng;
use simc_obs as obs;
use simc_pipeline::Pipeline;

use crate::{check, median, metric, per_layer_metrics, percentile, Args, Outcome};

/// Concurrency width of the `scale-ring` spec: 2^14 = 16 384 states.
const RING_WIDTH: usize = 13;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All nine reconstructed Table 1 specs per operation.
    Table1,
    /// One two-phase ring of [`RING_WIDTH`] lanes per operation.
    ScaleRing,
}

/// The spec texts of one operation. The seed lists each net's arcs in
/// its own order and, for `table1`, orders the specs: the same work
/// reached through different bytes.
fn inputs(workload: Workload, seed: u64) -> Result<Vec<String>, String> {
    let mut rng = Rng::new(seed);
    match workload {
        Workload::Table1 => {
            let mut specs: Vec<String> = simc_benchmarks::suite::all()
                .iter()
                .map(|b| crate::shuffle_arcs(&b.stg.to_g_string(), &mut rng))
                .collect();
            for i in (1..specs.len()).rev() {
                specs.swap(i, rng.below(i as u64 + 1) as usize);
            }
            Ok(specs)
        }
        Workload::ScaleRing => {
            let stg = simc_benchmarks::scale::ring(RING_WIDTH).map_err(|e| e.to_string())?;
            Ok(vec![crate::shuffle_arcs(&stg.to_g_string(), &mut rng)])
        }
    }
}

/// What one spec's pass produced, compared across operations.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Summary {
    working_states: usize,
    signals: usize,
    added: usize,
    literals: u32,
    explored: usize,
    hazard_free: bool,
}

fn summarize(pipeline: &mut Pipeline) -> Result<Summary, String> {
    let implemented = pipeline.implemented().map_err(|e| e.to_string())?;
    let (working_states, signals, added, literals) = (
        implemented.working_sg().state_count(),
        implemented.working_sg().signal_count(),
        implemented.added_signals(),
        implemented.implementation().literal_count(),
    );
    let verified = pipeline.verified().map_err(|e| e.to_string())?;
    Ok(Summary {
        working_states,
        signals,
        added,
        literals,
        explored: verified.explored(),
        hazard_free: verified.is_ok(),
    })
}

/// One operation: a cold pass over every spec. Returns the pipelines,
/// which hold every stage's artifact, and their summaries.
fn pass(specs: &[String]) -> Result<(Vec<Pipeline>, Vec<Summary>), String> {
    let mut pipelines: Vec<Pipeline> = specs
        .iter()
        .map(|spec| Pipeline::from_text(spec.as_str()))
        .collect();
    let summaries = pipelines
        .iter_mut()
        .map(summarize)
        .collect::<Result<_, _>>()?;
    Ok((pipelines, summaries))
}

/// Full output checks of one operation's pipelines.
fn check_outputs(
    workload: Workload,
    specs: &[String],
    pipelines: &mut [Pipeline],
    summaries: &[Summary],
) -> Vec<String> {
    let mut errors = Vec::new();
    for ((pipeline, summary), spec) in pipelines.iter_mut().zip(summaries).zip(specs) {
        let name = spec
            .lines()
            .next()
            .unwrap_or("")
            .trim_start_matches(".model ");
        let implemented = match pipeline.implemented() {
            Ok(implemented) => implemented,
            Err(e) => {
                errors.push(format!("{name}: {e}"));
                continue;
            }
        };
        let covers = check::covers_of(implemented.implementation());
        if let Err(e) = check::check(implemented.working_sg(), &covers) {
            errors.push(format!("{name}: independent check: {e}"));
        }
        if !summary.hazard_free {
            errors.push(format!("{name}: the program's verifier found hazards"));
        }
        if workload == Workload::ScaleRing {
            let states = 1usize << (RING_WIDTH + 1);
            if summary.working_states != states || summary.added != 0 {
                errors.push(format!(
                    "{name}: {} states and {} inserted signals, expected {states} and 0",
                    summary.working_states, summary.added
                ));
            }
        }
    }
    errors
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn run(args: &Args, workload: Workload) -> Result<Outcome, String> {
    obs::set_stats(false);
    // Set-up: generate the inputs and run one untimed warm-up operation,
    // several times; the last round's outputs are the reference.
    let mut setup = Vec::new();
    let mut reference = None;
    for _ in 0..crate::SETUP_REPEATS {
        // Free the previous round's artifacts first, so that the peak
        // RSS is that of one operation.
        drop(reference.take());
        let start = Instant::now();
        let specs = inputs(workload, args.seed)?;
        let (pipelines, summaries) = pass(&specs)?;
        setup.push(start.elapsed().as_secs_f64());
        reference = Some((specs, pipelines, summaries));
    }
    let (specs, mut pipelines, summaries) = reference.expect("at least one set-up round");
    let mut errors = check_outputs(workload, &specs, &mut pipelines, &summaries);
    drop(pipelines);

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut latencies = Vec::new();
    let mut traced = Traced::default();
    let begin = Instant::now();
    while begin.elapsed() < args.seconds {
        attempted += 1;
        let start = Instant::now();
        let result = pass(&specs).map(|(pipelines, op)| {
            drop(pipelines);
            op
        });
        let elapsed = start.elapsed();
        match result {
            Ok(op) if op == summaries => latencies.push(ms(elapsed)),
            Ok(_) => {
                failed += 1;
                errors.push("an operation's outputs differ from the warm-up's".to_string());
            }
            Err(e) => {
                failed += 1;
                errors.push(e);
            }
        }
        if args.trace {
            attempted += 1;
            if let Err(e) = traced.operation(&specs, &summaries) {
                failed += 1;
                errors.push(e);
            }
        }
    }
    let wall = begin.elapsed().as_secs_f64();
    errors.dedup();

    let metrics = if args.trace {
        per_layer_metrics(&traced.medians())
    } else {
        vec![
            metric("setup_s", median(&setup), "s"),
            metric("throughput_ops_per_s", latencies.len() as f64 / wall, "1/s"),
            metric("latency_p50_ms", median(&latencies), "ms"),
            metric("latency_p90_ms", percentile(&latencies, 0.90), "ms"),
            metric("peak_rss_mb", crate::peak_rss_mb("self")?, "MiB"),
            metric(
                "literals",
                summaries.iter().map(|s| f64::from(s.literals)).sum(),
                "count",
            ),
            metric(
                "circuit_signals",
                summaries.iter().map(|s| s.signals as f64).sum(),
                "count",
            ),
        ]
    };
    let notes = if args.trace {
        traced.overhead(&latencies)
    } else {
        Vec::new()
    };
    Ok(Outcome {
        attempted,
        failed,
        errors,
        metrics,
        notes,
    })
}

/// Per-operation samples of the traced run.
#[derive(Default)]
struct Traced {
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Wall-clock of each traced pass, to compare with the plain ones.
    pass_ms: Vec<f64>,
}

/// Program spans read into per-layer metrics.
const SPANS: &[(&str, &str)] = &[
    ("reduce", "mc.reduce_ms"),
    ("reduce/assign_sat", "mc.assign_sat_ms"),
    ("reduce/assign_expand", "mc.assign_expand_ms"),
    ("reduce/regions", "mc.reduce_regions_ms"),
    ("reduce/cover", "mc.reduce_cover_ms"),
];

impl Traced {
    /// One traced operation: the same pass as a plain one with the
    /// program's spans and counters switched on and every stage timed,
    /// then untraced calls into the layers the pipeline wraps.
    fn operation(&mut self, specs: &[String], reference: &[Summary]) -> Result<(), String> {
        let mut stages = [Duration::ZERO; 5];
        obs::reset();
        obs::set_stats(true);
        let start = Instant::now();
        let mut pipelines = Vec::with_capacity(specs.len());
        let mut summaries = Vec::with_capacity(specs.len());
        for spec in specs {
            let mut pipeline = Pipeline::from_text(spec.as_str());
            let err = |e: simc_pipeline::Error| e.to_string();
            let t = Instant::now();
            pipeline.elaborated().map_err(err)?;
            stages[0] += t.elapsed();
            let t = Instant::now();
            pipeline.regioned().map_err(err)?;
            stages[1] += t.elapsed();
            let t = Instant::now();
            pipeline.covered().map_err(err)?;
            stages[2] += t.elapsed();
            let t = Instant::now();
            pipeline.implemented().map_err(err)?;
            stages[3] += t.elapsed();
            let t = Instant::now();
            pipeline.verified().map_err(err)?;
            stages[4] += t.elapsed();
            summaries.push(summarize(&mut pipeline)?);
            pipelines.push(pipeline);
        }
        self.pass_ms.push(ms(start.elapsed()));
        obs::set_stats(false);
        if summaries != reference {
            return Err("a traced operation's outputs differ from the warm-up's".to_string());
        }
        let report = obs::report();
        for (name, stage) in [
            "pipeline.elaborate_ms",
            "sg.regions_ms",
            "mc.cover_ms",
            "mc.implement_ms",
            "netlist.verify_ms",
        ]
        .into_iter()
        .zip(stages)
        {
            self.push(name, ms(stage));
        }
        for &(path, name) in SPANS {
            self.push(name, report.span(path).map_or(0.0, |s| s.seconds * 1e3));
        }
        for &(counter, value) in &report.counters {
            if let Some(&(name, "count")) = crate::PER_LAYER
                .iter()
                .find(|(name, _)| *name == counter.name())
            {
                self.push(name, value as f64);
            }
        }

        let mut layers = [Duration::ZERO; 5];
        for (spec, pipeline) in specs.iter().zip(&mut pipelines) {
            let t = Instant::now();
            let stg = simc_stg::parse_g(spec).map_err(|e| e.to_string())?;
            layers[0] += t.elapsed();
            let t = Instant::now();
            let sg = stg.to_state_graph().map_err(|e| e.to_string())?;
            layers[1] += t.elapsed();
            let t = Instant::now();
            let canonical = simc_sg::canonical_sg(&sg, simc_formats::CANONICAL_MODEL);
            layers[2] += t.elapsed();
            let t = Instant::now();
            std::hint::black_box(simc_sg::parse_sg(&canonical).map_err(|e| e.to_string())?);
            layers[3] += t.elapsed();
            let netlist = pipeline.implemented().map_err(|e| e.to_string())?.netlist();
            let t = Instant::now();
            std::hint::black_box(simc_formats::write_edif(netlist).map_err(|e| e.to_string())?);
            layers[4] += t.elapsed();
        }
        for (name, layer) in [
            "stg.parse_g_ms",
            "stg.reach_ms",
            "sg.canonical_ms",
            "sg.parse_sg_ms",
            "formats.edif_ms",
        ]
        .into_iter()
        .zip(layers)
        {
            self.push(name, ms(layer));
        }
        Ok(())
    }

    fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    fn medians(&self) -> BTreeMap<&str, f64> {
        self.samples
            .iter()
            .map(|(&name, v)| (name, median(v)))
            .collect()
    }

    /// The tracing overhead: median traced pass against median plain
    /// operation of the same run.
    fn overhead(&self, plain_ms: &[f64]) -> Vec<(&'static str, f64)> {
        let (plain, traced) = (median(plain_ms), median(&self.pass_ms));
        vec![
            ("plain_latency_p50_ms", plain),
            ("traced_latency_p50_ms", traced),
            ("trace_overhead_pct", (traced / plain - 1.0) * 100.0),
            ("traced_operations", self.pass_ms.len() as f64),
        ]
    }
}
