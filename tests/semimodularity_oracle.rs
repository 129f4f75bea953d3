//! Reference-oracle test for the output semi-modularity check.
//!
//! [`Analysis::is_output_semimodular`] decides Definition 2 with one mask
//! test per edge. The reference is the definition read off the conflict
//! witnesses: no internally conflict state, i.e.
//! `internal_conflicts().is_empty()`. Both must agree on the suite, the
//! paper figures, fuzz recipes and reduced graphs, and on every variant
//! of them with one edge removed, most of which disable some signal.

use simc::benchmarks::{figures, suite};
use simc::fuzz::{self, GenConfig};
use simc::mc::assign::{reduce_to_mc, ReduceOptions};
use simc::sg::{SgBuilder, StateGraph};

/// `sg` without its `skip`-th edge (in state then row order), or `None`
/// when that leaves a state unreachable.
fn without_edge(sg: &StateGraph, skip: usize) -> Option<StateGraph> {
    let mut b = SgBuilder::new();
    for sig in sg.signal_ids() {
        b.add_signal(sg.signal(sig).name(), sg.signal(sig).kind()).expect("distinct names");
    }
    for s in sg.state_ids() {
        b.add_state(sg.code(s));
    }
    let edges = sg.state_ids().flat_map(|s| sg.succs(s).iter().map(move |&(t, to)| (s, t, to)));
    for (i, (from, t, to)) in edges.enumerate() {
        if i != skip {
            b.add_edge(from, t, to).expect("an edge of a built graph");
        }
    }
    b.set_initial(sg.initial());
    b.build().ok()
}

/// Checks `sg` and each of its one-edge-removed variants; returns how
/// many graphs were output semi-modular and how many were not.
fn check(name: &str, sg: &StateGraph) -> (usize, usize) {
    let variants = (0..sg.edge_count()).filter_map(|skip| without_edge(sg, skip));
    let (mut yes, mut no) = (0, 0);
    for (i, g) in std::iter::once(sg.clone()).chain(variants).enumerate() {
        let analysis = g.analysis();
        let fast = analysis.is_output_semimodular();
        assert_eq!(fast, analysis.internal_conflicts().is_empty(), "{name}, variant {i}");
        if fast {
            yes += 1;
        } else {
            no += 1;
        }
    }
    (yes, no)
}

fn check_all(graphs: &[(String, StateGraph)]) {
    let (mut yes, mut no) = (0, 0);
    for (name, sg) in graphs {
        let (y, n) = check(name, sg);
        yes += y;
        no += n;
    }
    assert!(yes > 0 && no > 0, "both verdicts occur: {yes} semi-modular, {no} not");
}

#[test]
fn suite_specs_agree_with_the_conflict_witnesses() {
    let graphs: Vec<_> = suite::all()
        .into_iter()
        .map(|b| (b.name.to_string(), b.stg.to_state_graph().expect("suite spec reaches")))
        .collect();
    check_all(&graphs);
}

#[test]
fn paper_figures_agree_with_the_conflict_witnesses() {
    let graphs = [
        ("figure1", figures::figure1()),
        ("figure3", figures::figure3()),
        ("figure4", figures::figure4()),
        ("c_element", figures::c_element()),
        ("toggle", figures::toggle()),
    ];
    check_all(&graphs.map(|(name, sg)| (name.to_string(), sg)));
}

#[test]
fn fuzz_graphs_agree_with_the_conflict_witnesses() {
    let graphs: Vec<_> = (0..8u64)
        .map(|seed| {
            let cfg = GenConfig {
                signals: 3 + seed as usize % 3,
                concurrency: 30 + seed * 8,
                csc_injection: seed % 2 == 1,
            };
            let recipe = fuzz::random_recipe(&mut fuzz::Rng::new(0xDAC94 ^ seed), cfg);
            let sg = fuzz::gen::to_state_graph(&recipe).expect("recipe builds");
            (format!("fuzz seed {seed}"), sg)
        })
        .collect();
    check_all(&graphs);
}

#[test]
fn reduced_graphs_agree_with_the_conflict_witnesses() {
    let delement = suite::delement().stg.to_state_graph().expect("Delement reaches");
    let nowick = suite::nowick().stg.to_state_graph().expect("nowick reaches");
    let graphs: Vec<_> = [("figure1", figures::figure1()), ("Delement", delement), ("nowick", nowick)]
        .into_iter()
        .map(|(name, sg)| {
            let reduced = reduce_to_mc(&sg, ReduceOptions::default()).expect("reduces");
            assert!(reduced.added > 0, "{name}: something was inserted");
            (format!("{name} reduced"), reduced.sg)
        })
        .collect();
    check_all(&graphs);
}
