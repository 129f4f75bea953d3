//! Parallel synthesis determinism: for every thread count, `ParallelSynth`
//! and the threaded MC-reduction must produce byte-identical reports,
//! equations and netlists to the sequential path.

use proptest::prelude::*;

use simc::benchmarks::{generators, suite};
use simc::mc::assign::{reduce_to_mc, ReduceOptions};
use simc::mc::synth::{synthesize, Target};
use simc::mc::{McCheck, ParallelSynth};
use simc::obs::Counter;
use simc::sg::{canonical_graph, write_sg, StateGraph};

const THREADS: [usize; 3] = [1, 2, 8];

/// The fully rendered observable output of synthesis on one graph: the MC
/// report, and (when synthesis succeeds) the equations and netlist text.
fn observable(sg: &StateGraph, synth: Option<ParallelSynth>) -> String {
    let check = McCheck::new(sg);
    let report = match synth {
        Some(p) => p.report(&check),
        None => check.report(),
    };
    let mut out = report.render(sg);
    let implementation = match synth {
        Some(p) => p.synthesize(sg, Target::CElement),
        None => synthesize(sg, Target::CElement),
    };
    if let Ok(imp) = implementation {
        out.push_str(&imp.equations());
        out.push_str(&format!("{:?}", imp.to_netlist().map(|nl| nl.stats().to_string())));
    }
    out
}

#[test]
fn suite_benchmarks_identical_across_thread_counts() {
    for b in suite::all() {
        let sg = b.stg.to_state_graph().expect("suite benchmark reaches");
        let sequential = observable(&sg, None);
        for threads in THREADS {
            let parallel = observable(&sg, Some(ParallelSynth::new(threads)));
            assert_eq!(parallel, sequential, "{}: {threads} threads diverged", b.name);
        }
    }
}

/// The counters of the work a reduction does: `beam.*`, `sat.*`,
/// `regions.decompositions` and `cover.*`, as a scope open around it
/// captured them.
fn work_counters(counters: &[(Counter, u64)]) -> Vec<(Counter, u64)> {
    let work = |c: Counter| {
        let name = c.name();
        ["beam.", "sat.", "cover."].iter().any(|prefix| name.starts_with(prefix))
            || c == Counter::RegionDecompositions
    };
    counters.iter().copied().filter(|&(c, _)| work(c)).collect()
}

#[test]
fn mc_reduction_identical_across_thread_counts() {
    // The threaded beam search must visit the same frontier in the same
    // order: identical reduced graphs (rendered to `.g` text), insertion
    // counts and logs for every thread count, and the same work counted.
    // The three fastest benchmarks run every batch inline (no depth has
    // more than one node); berkel2's depth-1 batch holds several nodes,
    // so it runs threaded. The rest of the suite runs in
    // `repro_pipeline` and in CI's `simc synth --threads` comparisons.
    let benchmarks = [suite::nak_pa(), suite::nowick(), suite::duplicator(), suite::berkel2()];
    simc::obs::set_counters(true);
    for b in benchmarks {
        let sg = b.stg.to_state_graph().expect("suite benchmark reaches");
        // The scope captures this thread's counters and, through the
        // parallel map, the beam workers'.
        let reduce = |threads: usize| {
            let scope = simc::obs::scope();
            let opts = ReduceOptions { threads, ..ReduceOptions::default() };
            let result = reduce_to_mc(&sg, opts).expect("reduces");
            (result, work_counters(&scope.finish()))
        };
        let (baseline, baseline_counters) = reduce(1);
        assert!(
            baseline_counters.iter().any(|&(c, v)| c == Counter::BeamNodesExpanded && v > 0),
            "{}: counters are recorded",
            b.name
        );
        for threads in THREADS {
            let (result, counters) = reduce(threads);
            assert_eq!(result.added, baseline.added, "{}: {threads} threads", b.name);
            assert_eq!(result.log, baseline.log, "{}: {threads} threads", b.name);
            assert_eq!(
                write_sg(&result.sg, b.name),
                write_sg(&baseline.sg, b.name),
                "{}: {threads} threads",
                b.name
            );
            assert_eq!(counters, baseline_counters, "{}: {threads} threads' counters", b.name);
        }
    }
}

/// A fuzz-generated spec (`simc_fuzz::random_recipe` with double-pulse
/// CSC injection): at two beam nodes the primary candidate search finds
/// nothing, so the portfolio races its alternative configurations, and
/// the first of them rescues one node.
const PORTFOLIO_RACER: &str = "\
.model fuzz
.inputs s2
.outputs s0 s1 s3 s4 s5 z
.graph
s1+ s1-
s0+ s1+
s2+ s3+
s1- s2+
s4+ s5+
s1+/2 s1-/2
s0- s1+/2
s2- s3-
s1-/2 s2-
s4- s5-
s3+ z+
s5+ z+
z+ s0-
z+ s4-
s3- z-
s5- z-
z- s0+
z- s4+
.marking { <z-,s0+> <z-,s4+> }
.end
";

#[test]
fn portfolio_reduction_identical_across_thread_counts() {
    // The portfolio fallback races differently-phase-biased solver
    // configurations; the race must not leak scheduling into results.
    // Synthesize the reduced graph to a netlist and compare the rendered
    // text byte for byte across thread counts. The spec is reduced in
    // canonical numbering, as the pipeline reduces it.
    let sg = canonical_graph(
        &simc::stg::parse_g(PORTFOLIO_RACER)
            .expect("spec parses")
            .to_state_graph()
            .expect("spec reaches"),
    );
    let netlist_of = |threads: usize| {
        // The fuzzer's reduction budget, under which the race happens.
        let opts = ReduceOptions {
            max_signals: 4,
            branch: 4,
            threads,
            portfolio: 3,
            ..ReduceOptions::default()
        };
        let reduced = reduce_to_mc(&sg, opts).expect("reduces");
        let implementation = synthesize(&reduced.sg, Target::CElement).expect("synthesizes");
        format!(
            "{}\n{}\n{:?}",
            write_sg(&reduced.sg, "racer"),
            implementation.equations(),
            implementation.to_netlist().map(|nl| nl.stats().to_string())
        )
    };
    // A single-threaded run records every counter on this thread, so the
    // scope sees the whole reduction.
    simc::obs::set_counters(true);
    let scope = simc::obs::scope();
    let baseline = netlist_of(1);
    let counters = scope.finish();
    let count = |counter: Counter| counters.iter().find(|&&(c, _)| c == counter).map_or(0, |c| c.1);
    assert!(count(Counter::PortfolioRaces) > 0, "the spec no longer races the portfolio");
    let wins = [Counter::PortfolioWinsCfg1, Counter::PortfolioWinsCfg2, Counter::PortfolioWinsCfg3];
    assert!(wins.into_iter().any(|w| count(w) > 0), "no portfolio configuration won a race");
    for threads in THREADS {
        assert_eq!(netlist_of(threads), baseline, "{threads} threads diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_graphs_identical_across_thread_counts(
        kind in 0usize..3,
        size in 2usize..5,
    ) {
        let stg = match kind {
            0 => generators::muller_pipeline(size),
            1 => generators::independent_toggles(size),
            _ => generators::choice_ring(size),
        }
        .unwrap();
        let sg = stg.to_state_graph().unwrap();
        let sequential = observable(&sg, None);
        for threads in THREADS {
            let parallel = observable(&sg, Some(ParallelSynth::new(threads)));
            prop_assert_eq!(&parallel, &sequential, "{} threads diverged", threads);
        }
    }
}
