//! End-to-end flow tests: `.g` text → STG → state graph → MC-reduction →
//! synthesis → speed-independence verification, across the benchmark
//! suite and the generators.
//!
//! The slow sequencers (`ganesh_8`, `berkel3`) are exercised by the
//! release-mode repro binaries and perfbench's `table1` workload; here we
//! keep the debug-mode test suite fast.

use simc::benchmarks::{generators, suite};
use simc::mc::assign::{reduce_to_mc, ReduceOptions};
use simc::mc::synth::{synthesize, Target};
use simc::mc::McCheck;
use simc::netlist::{verify, VerifyOptions};

fn full_flow(name: &str, sg: &simc::sg::StateGraph, expect_added: Option<usize>) {
    let reduced = reduce_to_mc(sg, ReduceOptions::default())
        .unwrap_or_else(|e| panic!("{name}: reduction failed: {e}"));
    if let Some(expected) = expect_added {
        assert_eq!(reduced.added, expected, "{name}: inserted signals");
    }
    // Signal insertion must preserve observable behaviour.
    let inserted: Vec<simc::sg::SignalId> = reduced
        .sg
        .signal_ids()
        .filter(|&x| sg.signal_by_name(reduced.sg.signal(x).name()).is_none())
        .collect();
    assert!(
        simc::sg::equiv::weak_bisimilar(sg, &reduced.sg, &[], &inserted),
        "{name}: reduction changed observable behaviour"
    );
    let check = McCheck::new(&reduced.sg);
    assert!(check.report().satisfied(), "{name}: MC must hold after reduction");
    let mut c_element = None;
    for target in [Target::CElement, Target::RsLatch] {
        let implementation = synthesize(&reduced.sg, target)
            .unwrap_or_else(|e| panic!("{name}: synthesis failed: {e}"));
        // The latch style changes only the storage element: both targets
        // emit the same set/reset product terms.
        let first = c_element.get_or_insert_with(|| implementation.clone());
        assert_eq!(first.equations(), implementation.equations(), "{name} ({target:?})");
        for (a, b) in first.networks().iter().zip(implementation.networks()) {
            assert_eq!((&a.set, &a.reset), (&b.set, &b.reset), "{name} ({target:?}): {}", b.name);
        }
        let netlist = implementation
            .to_netlist()
            .unwrap_or_else(|e| panic!("{name}: netlist failed: {e}"));
        let verdict = verify(&netlist, &reduced.sg, VerifyOptions::default())
            .unwrap_or_else(|e| panic!("{name}: verification failed: {e}"));
        assert!(
            verdict.is_ok(),
            "{name} ({target:?}): {:?}",
            verdict.violations
        );
    }
}

#[test]
fn delement_flow() {
    let sg = suite::delement().stg.to_state_graph().unwrap();
    full_flow("Delement", &sg, Some(1));
}

#[test]
fn luciano_flow() {
    let sg = suite::luciano().stg.to_state_graph().unwrap();
    full_flow("luciano", &sg, Some(1));
}

#[test]
fn nowick_flow() {
    let sg = suite::nowick().stg.to_state_graph().unwrap();
    full_flow("nowick", &sg, Some(1));
}

#[test]
fn nak_pa_flow() {
    let sg = suite::nak_pa().stg.to_state_graph().unwrap();
    full_flow("nak-pa", &sg, Some(1));
}

#[test]
fn mp_forward_pkt_flow() {
    let sg = suite::mp_forward_pkt().stg.to_state_graph().unwrap();
    full_flow("mp-forward-pkt", &sg, Some(0));
}

#[test]
fn duplicator_flow() {
    let sg = suite::duplicator().stg.to_state_graph().unwrap();
    full_flow("duplicator", &sg, Some(2));
}

#[test]
fn berkel2_flow() {
    let sg = suite::berkel2().stg.to_state_graph().unwrap();
    // Our reconstruction takes 2 where the paper's .tim took 1; the count
    // is pinned so regressions surface.
    full_flow("berkel2", &sg, Some(2));
}

#[test]
fn pipelines_need_no_insertion_and_verify() {
    for n in 1..=4 {
        let sg = generators::muller_pipeline(n)
            .unwrap()
            .to_state_graph()
            .unwrap();
        full_flow(&format!("pipeline-{n}"), &sg, Some(0));
    }
}

#[test]
fn toggles_flow() {
    let sg = generators::independent_toggles(2)
        .unwrap()
        .to_state_graph()
        .unwrap();
    full_flow("toggles-2", &sg, Some(0));
}

#[test]
fn choice_ring_flow() {
    let sg = generators::choice_ring(2).unwrap().to_state_graph().unwrap();
    full_flow("choice-ring-2", &sg, None);
}

#[test]
fn g_round_trip_preserves_flow() {
    // Serialize the D-element STG back to .g, reparse, and get the same
    // reduction outcome.
    let stg = suite::delement().stg;
    let text = stg.to_g_string();
    let reparsed = simc::stg::parse_g(&text).unwrap();
    let sg1 = stg.to_state_graph().unwrap();
    let sg2 = reparsed.to_state_graph().unwrap();
    assert_eq!(sg1.state_count(), sg2.state_count());
    assert_eq!(sg1.edge_count(), sg2.edge_count());
    let r1 = reduce_to_mc(&sg1, ReduceOptions::default()).unwrap();
    let r2 = reduce_to_mc(&sg2, ReduceOptions::default()).unwrap();
    assert_eq!(r1.added, r2.added);
}

#[test]
fn generalized_synthesis_on_suite_sample() {
    // The gate-sharing synthesizer (Def. 19 / Theorem 5) also verifies.
    let sg = suite::delement().stg.to_state_graph().unwrap();
    let reduced = reduce_to_mc(&sg, ReduceOptions::default()).unwrap();
    let shared = simc::mc::gen::synthesize_generalized(&reduced.sg, Target::CElement).unwrap();
    let plain = synthesize(&reduced.sg, Target::CElement).unwrap();
    assert!(shared.cube_count() <= plain.cube_count());
    let verdict = verify(
        &shared.to_netlist().unwrap(),
        &reduced.sg,
        VerifyOptions::default(),
    )
    .unwrap();
    assert!(verdict.is_ok(), "{:?}", verdict.violations);
}

#[test]
fn autonomous_oscillator_flow() {
    // A fully autonomous spec (no inputs at all): two outputs chasing
    // each other, a+ → b+ → a- → b- →. Synthesis yields two
    // cross-coupled latches that oscillate; the verifier handles the
    // empty environment.
    let sg = simc::sg::StateGraph::from_starred_codes(
        &[
            ("a", simc::sg::SignalKind::Output),
            ("b", simc::sg::SignalKind::Output),
        ],
        &["0*0", "10*", "1*1", "01*"],
        "0*0",
    )
    .unwrap();
    assert!(sg.analysis().is_output_semimodular());
    assert!(McCheck::new(&sg).report().satisfied());
    let implementation = synthesize(&sg, Target::CElement).unwrap();
    let netlist = implementation.to_netlist().unwrap();
    let verdict = verify(&netlist, &sg, VerifyOptions::default()).unwrap();
    assert!(verdict.is_ok(), "{:?}", verdict.violations);
    assert!(verdict.explored >= 4);
}

#[test]
fn decomposition_of_verified_circuits() {
    // Fanin-bounded decomposition (basic-gate library constraint) of the
    // suite's MC implementations: the flat two-level guarantee does not
    // automatically transfer, so each decomposed circuit is re-verified
    // and its status recorded. Whatever the verdict, the verifier must
    // never error, and fanin must be bounded.
    for b in [suite::delement(), suite::luciano(), suite::mp_forward_pkt()] {
        let sg = b.stg.to_state_graph().unwrap();
        let reduced = reduce_to_mc(&sg, ReduceOptions::default()).unwrap();
        let netlist = synthesize(&reduced.sg, Target::CElement)
            .unwrap()
            .to_netlist()
            .unwrap();
        let small = netlist.decomposed(2).unwrap();
        for g in small.gate_ids() {
            assert!(small.gate_inputs(g).len() <= 2);
        }
        let verdict = verify(&small, &reduced.sg, VerifyOptions::default()).unwrap();
        // The flat implementation is hazard-free; the decomposed one may
        // or may not be — the point is that the tool *decides* it.
        let _ = verdict.is_ok();
    }
}

#[test]
fn decomposition_can_break_speed_independence() {
    // Pin the headline ablation finding: fanin-2 decomposition of the
    // Figure 3 implementation introduces unacknowledged internal nodes
    // and the verifier catches the hazard; fanin-3 leaves the circuit
    // untouched (all gates already fit) and stays clean.
    let sg = simc::benchmarks::figures::figure3();
    let netlist = synthesize(&sg, Target::CElement)
        .unwrap()
        .to_netlist()
        .unwrap();
    let fanin2 = netlist.decomposed(2).unwrap();
    let verdict = verify(&fanin2, &sg, VerifyOptions::default()).unwrap();
    assert!(
        !verdict.is_ok(),
        "fanin-2 decomposition should break SI on figure 3"
    );
    let fanin3 = netlist.decomposed(3).unwrap();
    assert_eq!(fanin3.gate_count(), netlist.gate_count());
    let verdict = verify(&fanin3, &sg, VerifyOptions::default()).unwrap();
    assert!(verdict.is_ok());
}

#[test]
fn vme_read_flow() {
    // The canonical CSC example of the synthesis literature: one state
    // signal repairs the read cycle.
    let sg = simc::benchmarks::extras::vme_read().to_state_graph().unwrap();
    full_flow("vme-read", &sg, Some(1));
}

#[test]
fn call_element_flow() {
    let sg = simc::benchmarks::extras::call_element()
        .to_state_graph()
        .unwrap();
    full_flow("call-element", &sg, None);
}

#[test]
fn c2_inverter_bound_claim() {
    // Section III's "justification of input inversions": the C2 variant
    // (separate inverter gates) is NOT speed-independent under unbounded
    // delays, but behaves under the relational bound
    // d_inv^max < D_sn^min.
    use simc::netlist::{timed_walk, Delays, GateKind, TimedOptions};
    let sg = simc::benchmarks::figures::figure3();
    let implementation = synthesize(&sg, Target::CElement).unwrap();
    let c2 = implementation.to_netlist_with_explicit_inverters().unwrap();
    // There really are separate inverters now.
    let inverters = c2
        .gate_ids()
        .filter(|&g| matches!(c2.gate_kind(g), GateKind::Not))
        .count();
    assert!(inverters > 0, "C2 must contain explicit inverters");
    // (1) Unbounded delays: the exhaustive verifier rejects C2 (the
    // inverters are never acknowledged).
    let verdict = verify(&c2, &sg, VerifyOptions::default()).unwrap();
    assert!(
        !verdict.is_ok(),
        "C2 must be hazardous under the unbounded model"
    );
    // (2) Bounded delays with fast inverters: long timed runs stay clean.
    let fast = Delays::uniform_with(&c2, 4, |g| {
        matches!(c2.gate_kind(g), GateKind::Not).then_some(1)
    });
    for seed in 1..=6 {
        let report = timed_walk(
            &c2,
            &sg,
            &fast,
            TimedOptions { seed, ..TimedOptions::default() },
        )
        .unwrap();
        assert!(report.is_ok(), "seed {seed}: {:?}", report.failure);
    }
}

#[test]
fn sequencer_family_scales() {
    // The generalized Table 1 sequencer family: insertion counts should
    // grow slowly (ideally ~log2 of the round count) and every result
    // must verify.
    for n in 1..=3 {
        let sg = simc::benchmarks::generators::sequencer(n)
            .unwrap()
            .to_state_graph()
            .unwrap();
        let reduced = reduce_to_mc(&sg, ReduceOptions::default())
            .unwrap_or_else(|e| panic!("sequencer-{n}: {e}"));
        // The search is heuristic: allow up to ~n+1 signals (the optimum
        // is ceil(log2(n+1))); regressions beyond that should surface.
        assert!(
            reduced.added <= n + 1,
            "sequencer-{n}: {} signals is excessive",
            reduced.added
        );
        let nl = synthesize(&reduced.sg, Target::CElement)
            .unwrap()
            .to_netlist()
            .unwrap();
        let verdict = verify(&nl, &reduced.sg, VerifyOptions::default()).unwrap();
        assert!(verdict.is_ok(), "sequencer-{n}");
    }
}
