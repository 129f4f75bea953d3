//! Wall-clock profiling of the synthesis pipeline.
//!
//! [`profile_benchmark`] runs the full pipeline — reachability, region
//! analysis, cover search, MC-reduction, synthesis + verification — on
//! one benchmark and records the wall-clock time of each phase via
//! `simc_obs` timing spans (the guard's `finish()` returns the elapsed
//! duration, so attribution stays exact even when benchmarks run
//! concurrently). [`counters_benchmark`] re-runs the pipeline with the
//! observability counters on — sequentially, with a reset per benchmark,
//! since the counter state is process-global — and records the paper's
//! structural columns (states, inserted signals, gates, literals)
//! alongside the full counter report. The `repro_pipeline` binary sweeps
//! the suite with both and emits `BENCH_pipeline.json` (hand-rolled JSON
//! — the workspace builds with no serialization dependency).

use std::fmt::Write as _;
use std::time::Instant;

use simc_benchmarks::suite::Benchmark;
use simc_mc::assign::{reduce_to_mc, ReduceOptions};
use simc_mc::synth::Target;
use simc_mc::{McCheck, ParallelSynth};
use simc_netlist::{verify, VerifyOptions};

/// Wall-clock seconds per pipeline phase for one benchmark.
#[derive(Debug, Clone)]
pub struct PhaseTimings {
    /// Benchmark name.
    pub name: String,
    /// State count of the reduced state graph.
    pub states: usize,
    /// STG reachability: `.g` net → state graph.
    pub reach: f64,
    /// Region analysis of the reduced graph (ER/QR/CFR decomposition).
    pub regions: f64,
    /// MC cover search over every excitation function.
    pub cover: f64,
    /// MC-reduction (state-signal insertion) of the original graph.
    pub assign: f64,
    /// Synthesis to a netlist plus hazard-freedom verification.
    pub verify: f64,
    /// Whether the synthesized netlist verified hazard-free.
    pub verified: bool,
}

impl PhaseTimings {
    /// Total wall-clock seconds across all phases.
    pub fn total(&self) -> f64 {
        self.reach + self.regions + self.cover + self.assign + self.verify
    }
}

/// Runs the full pipeline on one benchmark, timing each phase, using
/// `synth` for the cover search and synthesis.
///
/// # Panics
///
/// Panics if the benchmark's STG fails reachability or MC-reduction —
/// the shipped suite is known-good, so a failure is a regression.
pub fn profile_benchmark(b: &Benchmark, synth: ParallelSynth) -> PhaseTimings {
    // Phase attribution rides on span guards; the guard's `finish()`
    // returns zero with timing off, so switch it on for the profile.
    simc_obs::set_timing(true);

    let span = simc_obs::span("profile_reach");
    let sg = b.stg.to_state_graph().expect("suite benchmark reaches");
    let reach = span.finish().as_secs_f64();

    let span = simc_obs::span("profile_assign");
    let opts = ReduceOptions { threads: synth.threads(), ..ReduceOptions::default() };
    let reduced = reduce_to_mc(&sg, opts).expect("suite benchmark reduces");
    let assign = span.finish().as_secs_f64();

    let span = simc_obs::span("profile_regions");
    let check = McCheck::new(&reduced.sg);
    let regions = span.finish().as_secs_f64();

    let span = simc_obs::span("profile_cover");
    let report = synth.report(&check);
    let cover = span.finish().as_secs_f64();
    assert!(report.satisfied(), "{}: reduced graph must satisfy MC", b.name);

    let span = simc_obs::span("profile_verify");
    let verified = synth
        .synthesize(&reduced.sg, Target::CElement)
        .ok()
        .and_then(|imp| imp.to_netlist().ok())
        .and_then(|nl| verify(&nl, &reduced.sg, VerifyOptions::default()).ok())
        .is_some_and(|r| r.is_ok());
    let verify = span.finish().as_secs_f64();

    PhaseTimings {
        name: b.name.to_string(),
        states: reduced.sg.state_count(),
        reach,
        regions,
        cover,
        assign,
        verify,
        verified,
    }
}

/// One suite sweep: the per-benchmark timings plus the wall-clock of the
/// whole sweep (which differs from the sum when benchmarks themselves run
/// concurrently).
#[derive(Debug, Clone)]
pub struct SuiteRun {
    /// Label for the run (e.g. `"sequential"`, `"parallel-8"`).
    pub label: String,
    /// Worker threads used.
    pub threads: usize,
    /// Per-benchmark phase timings, in suite order.
    pub timings: Vec<PhaseTimings>,
    /// Wall-clock seconds for the whole sweep.
    pub wall: f64,
}

impl SuiteRun {
    /// Sweeps `benchmarks`, profiling each. With more than one thread the
    /// benchmarks run concurrently *and* each cover search fans out.
    pub fn sweep(label: &str, benchmarks: &[Benchmark], threads: usize) -> Self {
        let synth = ParallelSynth::new(threads);
        let start = Instant::now();
        let timings =
            simc_mc::parallel_map(benchmarks, threads, |b| profile_benchmark(b, synth));
        let wall = start.elapsed().as_secs_f64();
        SuiteRun { label: label.to_string(), threads, timings, wall }
    }

    /// Sum of per-benchmark totals (CPU-proportional, order-independent).
    pub fn total(&self) -> f64 {
        self.timings.iter().map(PhaseTimings::total).sum()
    }
}

/// Structural results and pipeline counters for one benchmark — the
/// paper-table columns (states, inserted signals, gate/literal counts)
/// plus the full `simc_obs` counter report of the run.
#[derive(Debug, Clone)]
pub struct BenchmarkCounters {
    /// Benchmark name.
    pub name: String,
    /// State count of the reduced state graph.
    pub states: usize,
    /// State signals inserted by MC-reduction.
    pub signals_added: usize,
    /// Gate count of the synthesized netlist (ANDs + ORs + latch rails +
    /// inverters/buffers).
    pub gates: usize,
    /// Total literal count over all cover cubes (the paper's area proxy).
    pub literals: usize,
    /// Every observability counter of the run, in fixed declaration
    /// order (deterministic for a given benchmark).
    pub counters: Vec<(simc_obs::Counter, u64)>,
}

/// Runs the pipeline on one benchmark with observability counters on and
/// collects [`BenchmarkCounters`].
///
/// Resets the process-global counter state first, so call this
/// *sequentially* — concurrent counter passes would blend their numbers.
///
/// # Panics
///
/// Same conditions as [`profile_benchmark`]: the shipped suite is
/// known-good, so reachability or reduction failures are regressions.
pub fn counters_benchmark(b: &Benchmark) -> BenchmarkCounters {
    let was = simc_obs::counters_enabled();
    simc_obs::set_counters(true);
    simc_obs::reset();

    let sg = b.stg.to_state_graph().expect("suite benchmark reaches");
    let reduced =
        reduce_to_mc(&sg, ReduceOptions::default()).expect("suite benchmark reduces");
    let implementation = simc_mc::synth::synthesize(&reduced.sg, Target::CElement)
        .expect("reduced graph synthesizes");
    let netlist = implementation.to_netlist().expect("netlist builds");
    let report = verify(&netlist, &reduced.sg, VerifyOptions::default())
        .expect("verification runs");
    assert!(report.is_ok(), "{}: synthesized netlist must verify", b.name);

    let stats = netlist.stats();
    let obs_report = simc_obs::report();
    simc_obs::set_counters(was);
    BenchmarkCounters {
        name: b.name.to_string(),
        states: reduced.sg.state_count(),
        signals_added: reduced.added,
        gates: stats.and_gates + stats.or_gates + stats.latch_rails + stats.other_gates,
        literals: implementation.literal_count() as usize,
        counters: obs_report.counters,
    }
}

/// Sequential counter pass over `benchmarks` (see [`counters_benchmark`]).
pub fn counters_sweep(benchmarks: &[Benchmark]) -> Vec<BenchmarkCounters> {
    benchmarks.iter().map(counters_benchmark).collect()
}

/// Wall-clock and exploration sizes for one scale-family member: the
/// pre-PR exploration (`verify_full`) against the stubborn-set-reduced
/// one (`verify_reduced`) — the symbolic engine's before/after.
#[derive(Debug, Clone)]
pub struct ScaleTimings {
    /// Benchmark name (`scale-ring-<width>`).
    pub name: String,
    /// Reachable spec states.
    pub spec_states: usize,
    /// STG reachability seconds (arena-based frontier BFS).
    pub reach: f64,
    /// Region analysis + cover search + synthesis seconds.
    pub synth: f64,
    /// Verification seconds with partial-order reduction (the default).
    pub verify_reduced: f64,
    /// Composed states explored under reduction.
    pub explored_reduced: usize,
    /// Verification seconds with reduction disabled.
    pub verify_full: f64,
    /// Composed states explored without reduction.
    pub explored_full: usize,
    /// Both runs verified hazard-free (they must agree).
    pub verified: bool,
}

/// Profiles the committed scale family: synthesizes each member once and
/// verifies it twice — reduced and full — so the JSON records the
/// reduction's effect on the same netlist.
///
/// # Panics
///
/// Panics if a member fails reachability or synthesis, or if the reduced
/// and full verdicts disagree — all are regressions.
pub fn scale_sweep(members: &[simc_benchmarks::scale::ScaleBenchmark]) -> Vec<ScaleTimings> {
    simc_obs::set_timing(true);
    members
        .iter()
        .map(|m| {
            let span = simc_obs::span("scale_reach");
            let sg = m.stg.to_state_graph().expect("scale member reaches");
            let reach = span.finish().as_secs_f64();

            let span = simc_obs::span("scale_synth");
            let netlist = simc_mc::synth::synthesize(&sg, Target::CElement)
                .expect("scale member synthesizes")
                .to_netlist()
                .expect("scale netlist builds");
            let synth = span.finish().as_secs_f64();

            let span = simc_obs::span("scale_verify_reduced");
            let reduced = verify(&netlist, &sg, VerifyOptions::default())
                .expect("reduced verification runs");
            let verify_reduced = span.finish().as_secs_f64();

            let span = simc_obs::span("scale_verify_full");
            let full = verify(
                &netlist,
                &sg,
                VerifyOptions { reduction: false, ..VerifyOptions::default() },
            )
            .expect("full verification runs");
            let verify_full = span.finish().as_secs_f64();

            assert_eq!(
                reduced.is_ok(),
                full.is_ok(),
                "{}: reduced and full verdicts disagree",
                m.name
            );
            ScaleTimings {
                name: m.name.to_string(),
                spec_states: sg.state_count(),
                reach,
                synth,
                verify_reduced,
                explored_reduced: reduced.explored,
                verify_full,
                explored_full: full.explored,
                verified: reduced.is_ok(),
            }
        })
        .collect()
}

/// Cold/warm wall-clock of the cached typed pipeline for one benchmark.
#[derive(Debug, Clone)]
pub struct CacheTimings {
    /// Benchmark name.
    pub name: String,
    /// First run: every stage computed and stored (seconds).
    pub cold: f64,
    /// Second run over the same cache: every artifact revived (seconds).
    pub warm: f64,
    /// Both runs produced byte-identical equations and verdicts.
    pub identical: bool,
}

impl CacheTimings {
    /// Cold-over-warm speedup (∞-safe: warm is floored at 1 µs).
    pub fn speedup(&self) -> f64 {
        self.cold / self.warm.max(1e-6)
    }
}

/// Runs every benchmark twice through [`simc_pipeline::Pipeline`] over a
/// shared in-memory cache and records cold-vs-warm wall-clock — the
/// cache's headline number. Sequential by design: the warm run must find
/// the cold run's artifacts in place.
///
/// # Panics
///
/// Panics if a suite benchmark fails reachability, synthesis or
/// verification — the shipped suite is known-good.
pub fn cache_sweep(benchmarks: &[Benchmark]) -> Vec<CacheTimings> {
    use simc_cache::{Cache, MemCache};
    use simc_pipeline::Pipeline;
    use std::sync::Arc;

    let cache: Arc<dyn Cache> = Arc::new(MemCache::new(64 << 20));
    benchmarks
        .iter()
        .map(|b| {
            let sg = b.stg.to_state_graph().expect("suite benchmark reaches");
            let run = |cache: Arc<dyn Cache>| {
                let start = Instant::now();
                let mut pipeline = Pipeline::from_sg(sg.clone()).with_cache(cache);
                let equations = pipeline
                    .implemented()
                    .expect("suite benchmark synthesizes")
                    .implementation()
                    .equations();
                let ok = pipeline.verified().expect("suite benchmark verifies").is_ok();
                assert!(ok, "{}: synthesized netlist must verify", b.name);
                (start.elapsed().as_secs_f64(), equations)
            };
            let (cold, cold_equations) = run(Arc::clone(&cache));
            let (warm, warm_equations) = run(Arc::clone(&cache));
            CacheTimings {
                name: b.name.to_string(),
                cold,
                warm,
                identical: cold_equations == warm_equations,
            }
        })
        .collect()
}

/// Coverage comparison between a coverage-guided fuzz campaign and
/// fresh-only generation at the same case budget — the campaign engine's
/// headline number (distinct quotiented state-graph edges reached).
#[derive(Debug, Clone)]
pub struct FuzzCoverage {
    /// Master seed both sweeps derive from.
    pub seed: u64,
    /// Case budget both sweeps spend.
    pub iters: u64,
    /// Distinct edges the coverage-guided campaign reached.
    pub campaign_edges: usize,
    /// Distinct edges fresh-only generation reached at the same budget.
    pub fresh_edges: usize,
    /// Corpus entries the campaign accumulated.
    pub corpus_size: usize,
    /// The campaign's per-round coverage curve (cases, edges).
    pub curve: Vec<(u64, usize)>,
    /// Fresh-only generation's curve at the same round boundaries.
    pub fresh_curve: Vec<(u64, usize)>,
}

impl FuzzCoverage {
    /// Campaign-over-fresh edge ratio (the ≥2× reproduction gate).
    pub fn ratio(&self) -> f64 {
        self.campaign_edges as f64 / self.fresh_edges.max(1) as f64
    }
}

/// Runs a coverage-guided campaign (oracles off — only state graphs and
/// signatures are computed) and a fresh-only sweep with the *same* seed
/// and budget, and records the edges each reached. Fully deterministic:
/// both sweeps are pure functions of `(seed, iters)`.
pub fn fuzz_coverage_sweep(seed: u64, iters: u64) -> FuzzCoverage {
    use simc_fuzz::{gen, run_campaign, signature, CampaignConfig, CoverageMap, Rng};

    let config = CampaignConfig { seed, iters, oracles: false, ..CampaignConfig::default() };
    let report = run_campaign(&config).expect("in-memory campaign cannot hit the filesystem");

    // Fresh-only baseline: the campaign's own fresh-case generator,
    // replayed for every index (what the campaign would do with no
    // corpus feedback), merged into its own coverage map.
    let mut fresh = CoverageMap::new();
    let mut fresh_curve = Vec::with_capacity(report.curve.len());
    let mut next_round = report.curve.iter().map(|p| p.cases).peekable();
    for index in 0..iters {
        let mut rng = Rng::for_case(seed, index);
        let gen_cfg = gen::GenConfig {
            signals: rng.range(1, config.max_signals as u64) as usize,
            concurrency: rng.range(0, 100),
            csc_injection: rng.percent(25),
        };
        let recipe = gen::random_recipe(&mut rng, gen_cfg);
        let sg = gen::to_state_graph(&recipe).expect("generated recipes are live and 1-safe");
        fresh.merge(&signature(&sg));
        if next_round.peek() == Some(&(index + 1)) {
            next_round.next();
            fresh_curve.push((index + 1, fresh.len()));
        }
    }

    FuzzCoverage {
        seed,
        iters,
        campaign_edges: report.edges_covered,
        fresh_edges: fresh.len(),
        corpus_size: report.corpus_size,
        curve: report.curve.iter().map(|p| (p.cases, p.edges)).collect(),
        fresh_curve,
    }
}

/// Renders suite runs and the counter pass as a JSON document (the
/// `BENCH_pipeline.json` schema):
///
/// ```text
/// { "runs": [ { label, threads, wall_s, benchmarks: [...] } ],
///   "counters": [ { name, states, signals_added, gates, literals,
///                   pipeline: { "sat.solves": ..., ... } } ],
///   "cache": [ { name, cold_s, warm_s, speedup, identical } ],
///   "scale": [ { name, spec_states, reach_s, synth_s, verify_s,
///                explored, verified } ],
///   "symbolic_before_after": [ { name, before_s, after_s, ... } ],
///   "fuzz_coverage": { seed, iters, campaign_edges, fresh_edges, ... } }
/// ```
///
/// `symbolic_before_after` compares full against stubborn-set-reduced
/// verification of each scale member, both measured in this run.
/// An empty slice (or `None`) omits its section.
pub fn to_json(
    runs: &[SuiteRun],
    counters: &[BenchmarkCounters],
    cache: &[CacheTimings],
    scale: &[ScaleTimings],
    fuzz: Option<&FuzzCoverage>,
) -> String {
    let mut out = String::from("{\n  \"runs\": [\n");
    for (i, run) in runs.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\n      \"label\": {},\n      \"threads\": {},\n      \"wall_s\": {:.6},\n      \"benchmarks\": [\n",
            json_str(&run.label),
            run.threads,
            run.wall
        );
        for (j, t) in run.timings.iter().enumerate() {
            let _ = writeln!(
                out,
                "        {{ \"name\": {}, \"states\": {}, \"reach_s\": {:.6}, \"regions_s\": {:.6}, \"cover_s\": {:.6}, \"assign_s\": {:.6}, \"verify_s\": {:.6}, \"total_s\": {:.6}, \"verified\": {} }}{}",
                json_str(&t.name),
                t.states,
                t.reach,
                t.regions,
                t.cover,
                t.assign,
                t.verify,
                t.total(),
                t.verified,
                if j + 1 < run.timings.len() { "," } else { "" }
            );
        }
        let _ = write!(
            out,
            "      ]\n    }}{}\n",
            if i + 1 < runs.len() { "," } else { "" }
        );
    }
    out.push_str("  ]");
    if !counters.is_empty() {
        out.push_str(",\n  \"counters\": [\n");
        for (i, c) in counters.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\n      \"name\": {},\n      \"states\": {},\n      \"signals_added\": {},\n      \"gates\": {},\n      \"literals\": {},\n      \"pipeline\": {{\n",
                json_str(&c.name),
                c.states,
                c.signals_added,
                c.gates,
                c.literals
            );
            for (j, (counter, value)) in c.counters.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "        {}: {}{}",
                    json_str(counter.name()),
                    value,
                    if j + 1 < c.counters.len() { "," } else { "" }
                );
            }
            let _ = write!(
                out,
                "      }}\n    }}{}\n",
                if i + 1 < counters.len() { "," } else { "" }
            );
        }
        out.push_str("  ]");
    }
    if !cache.is_empty() {
        out.push_str(",\n  \"cache\": [\n");
        for (i, c) in cache.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{ \"name\": {}, \"cold_s\": {:.6}, \"warm_s\": {:.6}, \"speedup\": {:.2}, \"identical\": {} }}{}",
                json_str(&c.name),
                c.cold,
                c.warm,
                c.speedup(),
                c.identical,
                if i + 1 < cache.len() { "," } else { "" }
            );
        }
        out.push_str("  ]");
    }
    if !scale.is_empty() {
        out.push_str(",\n  \"scale\": [\n");
        for (i, s) in scale.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{ \"name\": {}, \"spec_states\": {}, \"reach_s\": {:.6}, \"synth_s\": {:.6}, \"verify_s\": {:.6}, \"explored\": {}, \"verified\": {} }}{}",
                json_str(&s.name),
                s.spec_states,
                s.reach,
                s.synth,
                s.verify_reduced,
                s.explored_reduced,
                s.verified,
                if i + 1 < scale.len() { "," } else { "" }
            );
        }
        out.push_str("  ],\n  \"symbolic_before_after\": [\n");
        for (i, s) in scale.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{ \"name\": {}, \"before_s\": {:.6}, \"after_s\": {:.6}, \"before_states\": {}, \"after_states\": {}, \"speedup\": {:.2}, \"state_reduction\": {:.2} }}{}",
                json_str(&s.name),
                s.verify_full,
                s.verify_reduced,
                s.explored_full,
                s.explored_reduced,
                s.verify_full / s.verify_reduced.max(1e-9),
                s.explored_full as f64 / (s.explored_reduced.max(1)) as f64,
                if i + 1 < scale.len() { "," } else { "" }
            );
        }
        out.push_str("  ]");
    }
    if let Some(f) = fuzz {
        let curve = |points: &[(u64, usize)]| {
            points
                .iter()
                .map(|(cases, edges)| format!("[{cases}, {edges}]"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let _ = write!(
            out,
            ",\n  \"fuzz_coverage\": {{\n    \"seed\": {},\n    \"iters\": {},\n    \"campaign_edges\": {},\n    \"fresh_edges\": {},\n    \"ratio\": {:.2},\n    \"corpus_size\": {},\n    \"campaign_curve\": [{}],\n    \"fresh_curve\": [{}]\n  }}",
            f.seed,
            f.iters,
            f.campaign_edges,
            f.fresh_edges,
            f.ratio(),
            f.corpus_size,
            curve(&f.curve),
            curve(&f.fresh_curve)
        );
    }
    out.push_str("\n}\n");
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_run() -> SuiteRun {
        SuiteRun {
            label: "test".into(),
            threads: 1,
            timings: vec![PhaseTimings {
                name: "toggle \"x\"".into(),
                states: 4,
                reach: 0.25,
                regions: 0.25,
                cover: 0.25,
                assign: 0.125,
                verify: 0.125,
                verified: true,
            }],
            wall: 1.0,
        }
    }

    #[test]
    fn totals_add_up() {
        let run = dummy_run();
        assert!((run.timings[0].total() - 1.0).abs() < 1e-12);
        assert!((run.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn json_shape_and_escaping() {
        let json = to_json(&[dummy_run()], &[], &[], &[], None);
        assert!(json.contains("\"runs\""));
        assert!(json.contains("\"toggle \\\"x\\\"\""));
        assert!(json.contains("\"wall_s\": 1.000000"));
        assert!(json.contains("\"verified\": true"));
        assert!(!json.contains("\"counters\""));
        assert!(!json.contains("\"cache\""));
        // The hand-rolled emitter must satisfy the workspace's own parser.
        simc_obs::json::parse(&json).expect("emitted JSON parses");
    }

    #[test]
    fn json_cache_section_round_trips() {
        let cache = CacheTimings {
            name: "toggle".into(),
            cold: 0.5,
            warm: 0.005,
            identical: true,
        };
        let json = to_json(&[dummy_run()], &[], &[cache], &[], None);
        let doc = simc_obs::json::parse(&json).expect("emitted JSON parses");
        let section = doc.get("cache").and_then(|v| v.as_array()).unwrap();
        assert_eq!(section.len(), 1);
        assert_eq!(section[0].get("identical").and_then(|v| v.as_bool()), Some(true));
        let speedup = section[0].get("speedup").and_then(|v| v.as_f64()).unwrap();
        assert!((speedup - 100.0).abs() < 1e-9, "{speedup}");
    }

    #[test]
    fn json_scale_sections_round_trip() {
        let scale = ScaleTimings {
            name: "scale-ring-13".into(),
            spec_states: 16384,
            reach: 0.02,
            synth: 0.1,
            verify_reduced: 0.01,
            explored_reduced: 2090,
            verify_full: 0.2,
            explored_full: 32769,
            verified: true,
        };
        let json = to_json(&[dummy_run()], &[], &[], &[scale], None);
        let doc = simc_obs::json::parse(&json).expect("emitted JSON parses");
        let section = doc.get("scale").and_then(|v| v.as_array()).unwrap();
        assert_eq!(section[0].get("spec_states").and_then(|v| v.as_u64()), Some(16384));
        let ba = doc.get("symbolic_before_after").and_then(|v| v.as_array()).unwrap();
        assert_eq!(ba[0].get("before_states").and_then(|v| v.as_u64()), Some(32769));
        let speedup = ba[0].get("speedup").and_then(|v| v.as_f64()).unwrap();
        assert!((speedup - 20.0).abs() < 1e-9, "{speedup}");
    }

    #[test]
    fn json_fuzz_coverage_section_round_trips() {
        let fuzz = FuzzCoverage {
            seed: 0xDAC94,
            iters: 32,
            campaign_edges: 300,
            fresh_edges: 150,
            corpus_size: 24,
            curve: vec![(16, 200), (32, 300)],
            fresh_curve: vec![(16, 120), (32, 150)],
        };
        let json = to_json(&[dummy_run()], &[], &[], &[], Some(&fuzz));
        let doc = simc_obs::json::parse(&json).expect("emitted JSON parses");
        let section = doc.get("fuzz_coverage").unwrap();
        assert_eq!(section.get("campaign_edges").and_then(|v| v.as_u64()), Some(300));
        assert_eq!(section.get("fresh_edges").and_then(|v| v.as_u64()), Some(150));
        let ratio = section.get("ratio").and_then(|v| v.as_f64()).unwrap();
        assert!((ratio - 2.0).abs() < 1e-9, "{ratio}");
        let curve = section.get("campaign_curve").and_then(|v| v.as_array()).unwrap();
        assert_eq!(curve.len(), 2);
    }

    #[test]
    fn fuzz_coverage_sweep_is_deterministic_and_guided_wins() {
        let a = fuzz_coverage_sweep(0xDAC94, 48);
        let b = fuzz_coverage_sweep(0xDAC94, 48);
        assert_eq!(a.campaign_edges, b.campaign_edges);
        assert_eq!(a.fresh_edges, b.fresh_edges);
        assert_eq!(a.curve, b.curve);
        assert_eq!(a.fresh_curve, b.fresh_curve);
        assert!(
            a.campaign_edges > a.fresh_edges,
            "campaign {} should beat fresh {}",
            a.campaign_edges,
            a.fresh_edges
        );
        // Both curves end at their sweep totals.
        assert_eq!(a.curve.last(), Some(&(48, a.campaign_edges)));
        assert_eq!(a.fresh_curve.last(), Some(&(48, a.fresh_edges)));
    }

    #[test]
    fn json_counters_section_round_trips() {
        let counters = BenchmarkCounters {
            name: "toggle".into(),
            states: 4,
            signals_added: 0,
            gates: 3,
            literals: 5,
            counters: simc_obs::Counter::ALL.iter().map(|&c| (c, 7)).collect(),
        };
        let json = to_json(&[dummy_run()], &[counters], &[], &[], None);
        let doc = simc_obs::json::parse(&json).expect("emitted JSON parses");
        let section = doc.get("counters").and_then(|v| v.as_array()).unwrap();
        assert_eq!(section.len(), 1);
        assert_eq!(section[0].get("gates").and_then(|v| v.as_u64()), Some(3));
        let pipeline = section[0].get("pipeline").unwrap();
        assert_eq!(
            pipeline.get("sat.solves").and_then(|v| v.as_u64()),
            Some(7)
        );
    }
}
