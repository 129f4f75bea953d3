//! Integration tests pinning every claim the paper makes about its
//! figures, exercised through the public facade API.

use simc::benchmarks::figures;
use simc::mc::baseline::synthesize_baseline;
use simc::mc::synth::{synthesize, Target};
use simc::mc::{McCheck, McError};
use simc::netlist::{verify, VerifyOptions, ViolationKind};
use simc::sg::{Dir, Transition};

/// Section II's walkthrough of Figure 1: input conflict in the initial
/// state, output semi-modularity, output distributivity.
#[test]
fn figure1_behavioural_facts() {
    let sg = figures::figure1();
    let analysis = sg.analysis();
    assert!(!analysis.is_semimodular());
    assert!(analysis.is_output_semimodular());
    assert!(analysis.is_output_distributive());
    // "Thus 0*0*00 is a conflict state": all conflicts sit in the initial
    // state and involve only the inputs a and b.
    for conflict in analysis.conflicts() {
        assert_eq!(conflict.state, sg.initial());
        let name = sg.signal(conflict.victim).name();
        assert!(name == "a" || name == "b", "unexpected victim {name}");
    }
}

/// Section II-B: ER(+d1), its minimal state 100*0*, trigger +a, and the
/// non-persistency that drives Example 1.
#[test]
fn figure1_region_facts() {
    let sg = figures::figure1();
    let regions = sg.regions();
    let d = sg.signal_by_name("d").unwrap();
    let a = sg.signal_by_name("a").unwrap();
    let er = regions.ers_of_transition(Transition::rise(d))[0];
    let mins = regions.minimal_states(&sg, er);
    assert_eq!(mins.len(), 1);
    assert_eq!(sg.starred_code(mins[0]), "100*0*");
    let triggers = regions.triggers(&sg, er);
    assert_eq!(triggers.len(), 1);
    assert_eq!(sg.transition_name(triggers[0]), "+a");
    assert!(!regions.is_ordered(&sg, er, a), "a changes inside ER(+d1)");
    assert!(!regions.is_persistent_er(&sg, er));
}

/// Example 1: figure 1 has no MC implementation; the baseline needs at
/// least two cubes for Sd and is hazardous at gate level.
#[test]
fn example1_baseline_fails() {
    let sg = figures::figure1();
    assert!(matches!(
        synthesize(&sg, Target::CElement),
        Err(McError::NotMonotonous { .. })
    ));
    let baseline = synthesize_baseline(&sg, Target::CElement).unwrap();
    let d = sg.signal_by_name("d").unwrap();
    let sd = &baseline
        .networks()
        .iter()
        .find(|n| n.signal == d)
        .unwrap()
        .set;
    assert!(sd.cubes().len() >= 2, "ER(+d) cannot be covered by one cube");
    let netlist = baseline.to_netlist().unwrap();
    let verdict = verify(&netlist, &sg, VerifyOptions::default()).unwrap();
    assert!(verdict.hazards().count() > 0);
}

/// Figure 3 satisfies MC and reproduces equations (2): Sx = a'b'c',
/// Rx = a, d = x̄, and both standard implementations verify (Theorem 3).
#[test]
fn figure3_matches_equations_2() {
    let sg = figures::figure3();
    let report = McCheck::new(&sg).report();
    assert!(report.satisfied(), "{}", report.render(&sg));
    let implementation = synthesize(&sg, Target::CElement).unwrap();
    let eqs = implementation.equations();
    assert!(eqs.contains("Sx = a' b' c'"), "{eqs}");
    assert!(eqs.contains("Rx = a"), "{eqs}");
    assert!(eqs.contains("Sd = x'"), "{eqs}");
    assert!(eqs.contains("Rd = x"), "{eqs}");
    for target in [Target::CElement, Target::RsLatch] {
        let synthesized = synthesize(&sg, target).unwrap();
        // The latch style changes only the storage element: both targets
        // emit the same set/reset product terms.
        assert_eq!(synthesized.equations(), eqs, "{target:?}");
        for (a, b) in implementation.networks().iter().zip(synthesized.networks()) {
            assert_eq!((&a.set, &a.reset), (&b.set, &b.reset), "{target:?}: {}", b.name);
        }
        let netlist = synthesized.to_netlist().unwrap();
        let verdict = verify(&netlist, &sg, VerifyOptions::default()).unwrap();
        assert!(verdict.is_ok(), "{target:?}: {:?}", verdict.violations);
    }
}

/// Theorem 4 and Corollary 1 on the MC-satisfying figures: MC implies CSC
/// and persistency.
#[test]
fn theorem4_and_corollary1() {
    for sg in [figures::toggle(), figures::c_element(), figures::figure3()] {
        let check = McCheck::new(&sg);
        assert!(check.report().satisfied());
        assert!(sg.analysis().has_csc());
        assert!(check.regions().is_output_persistent(&sg));
    }
}

/// Example 2 (Figure 4): persistent, accepted by the baseline, hazardous;
/// the MC requirement rejects it statically.
#[test]
fn example2_hazard_only_mc_catches() {
    let sg = figures::figure4();
    assert!(sg.regions().is_output_persistent(&sg));
    // Static: MC violated.
    let report = McCheck::new(&sg).report();
    assert!(!report.satisfied());
    // The violating function is Sb (up-function of the only output).
    let b = sg.signal_by_name("b").unwrap();
    assert!(report
        .violations()
        .any(|entry| entry.signal == b && entry.dir == Dir::Rise));
    // Dynamic: the baseline circuit has a disabling.
    let baseline = synthesize_baseline(&sg, Target::CElement).unwrap();
    let netlist = baseline.to_netlist().unwrap();
    let verdict = verify(&netlist, &sg, VerifyOptions::default()).unwrap();
    assert!(verdict
        .violations
        .iter()
        .any(|v| matches!(v.kind, ViolationKind::Disabled { .. })));
}

/// Theorem 2's contrapositive on our examples: all MC-satisfying specs
/// here are output distributive.
#[test]
fn mc_implies_distributivity_on_examples() {
    for sg in [figures::toggle(), figures::c_element(), figures::figure3()] {
        if McCheck::new(&sg).report().satisfied() {
            assert!(sg.analysis().is_output_distributive());
        }
    }
}
