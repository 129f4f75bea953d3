//! Reference-oracle tests for the region decomposition.
//!
//! `reference` below is the straightforward decomposition of Definitions
//! 5–7 and 11: excitation read off the successor lists, one connected-
//! component search per (signal, direction), one flood per quiescent
//! region, and each CFR built by concatenating ER and QR and sorting.
//! [`Regions::compute`] must agree with it field for field through the
//! public accessors, and so must an analysis revived from its cache bytes.

use simc::benchmarks::{figures, scale, suite};
use simc::fuzz::{self, GenConfig};
use simc::mc::assign::{reduce_to_mc, ReduceOptions};
use simc::sg::{Dir, Regions, SignalId, StateGraph, StateId, Transition};

/// One excitation region of the reference decomposition.
struct RefRegion {
    signal: SignalId,
    dir: Dir,
    occurrence: u32,
    states: Vec<StateId>,
    qr: Vec<StateId>,
    cfr: Vec<StateId>,
}

fn excited(sg: &StateGraph, s: StateId, sig: SignalId) -> bool {
    sg.succs(s).iter().any(|(t, _)| t.signal == sig)
}

fn neighbours(sg: &StateGraph, u: StateId) -> impl Iterator<Item = StateId> + '_ {
    sg.succs(u).iter().chain(sg.preds(u)).map(|&(_, v)| v)
}

/// Connected components (undirected) of the states satisfying `pred`,
/// each sorted, in order of smallest state id.
fn components(sg: &StateGraph, pred: impl Fn(StateId) -> bool) -> Vec<Vec<StateId>> {
    let mut seen = vec![false; sg.state_count()];
    let mut out = Vec::new();
    for s in sg.state_ids() {
        if !pred(s) || seen[s.index()] {
            continue;
        }
        seen[s.index()] = true;
        let mut stack = vec![s];
        let mut comp = Vec::new();
        while let Some(u) = stack.pop() {
            comp.push(u);
            for v in neighbours(sg, u) {
                if pred(v) && !seen[v.index()] {
                    seen[v.index()] = true;
                    stack.push(v);
                }
            }
        }
        comp.sort_unstable();
        out.push(comp);
    }
    out.sort_by_key(|c| c[0]);
    out
}

/// The stable-value flood from the states the ER's own transition lands in.
fn quiescent(sg: &StateGraph, sig: SignalId, dir: Dir, er: &[StateId]) -> Vec<StateId> {
    let stable =
        |s: StateId| sg.code(s).value(sig) == dir.value_after() && !excited(sg, s, sig);
    let transition = Transition { signal: sig, dir };
    let mut seen = vec![false; sg.state_count()];
    let mut stack: Vec<StateId> = Vec::new();
    for &s in er {
        if let Some(t) = sg.fire(s, transition) {
            if stable(t) && !seen[t.index()] {
                seen[t.index()] = true;
                stack.push(t);
            }
        }
    }
    let mut out = Vec::new();
    while let Some(u) = stack.pop() {
        out.push(u);
        for v in neighbours(sg, u) {
            if stable(v) && !seen[v.index()] {
                seen[v.index()] = true;
                stack.push(v);
            }
        }
    }
    out.sort_unstable();
    out
}

fn reference(sg: &StateGraph) -> Vec<RefRegion> {
    let mut out = Vec::new();
    for signal in sg.signal_ids() {
        for dir in [Dir::Rise, Dir::Fall] {
            let ers = components(sg, |s| {
                excited(sg, s, signal) && sg.code(s).value(signal) == dir.value_before()
            });
            for (j, states) in ers.into_iter().enumerate() {
                let qr = quiescent(sg, signal, dir, &states);
                let mut cfr = states.clone();
                cfr.extend_from_slice(&qr);
                cfr.sort_unstable();
                cfr.dedup();
                out.push(RefRegion { signal, dir, occurrence: j as u32 + 1, states, qr, cfr });
            }
        }
    }
    out
}

/// The `simc.regions.v1` cache text of the reference decomposition.
fn reference_bytes(regions: &[RefRegion]) -> Vec<u8> {
    let ids = |states: &[StateId]| -> String {
        states.iter().map(|s| format!(" {}", s.index())).collect()
    };
    let mut out = format!("simc.regions.v1\ncount {}\n", regions.len());
    for r in regions {
        out.push_str(&format!(
            "er {} {} {}{}\nqr{}\n",
            r.signal.index(),
            r.dir.sign(),
            r.occurrence,
            ids(&r.states),
            ids(&r.qr)
        ));
    }
    out.into_bytes()
}

fn assert_matches(name: &str, sg: &StateGraph, regions: &Regions, expected: &[RefRegion]) {
    assert_eq!(regions.er_count(), expected.len(), "{name}: region count");
    for ((id, er), want) in regions.ers().zip(expected) {
        let at = format!("{name}: region {}", id.index());
        assert_eq!(er.signal(), want.signal, "{at}: signal");
        assert_eq!(er.dir(), want.dir, "{at}: direction");
        assert_eq!(er.occurrence(), want.occurrence, "{at}: occurrence");
        assert_eq!(er.states(), &want.states[..], "{at}: ER");
        assert_eq!(regions.qr(id), &want.qr[..], "{at}: QR");
        assert_eq!(regions.cfr(id), &want.cfr[..], "{at}: CFR");
        let members = |set: simc::sg::BitSlice<'_>| set.iter().collect::<Vec<_>>();
        assert_eq!(members(regions.er_set(id)), want.states, "{at}: ER set");
        assert_eq!(members(regions.qr_set(id)), want.qr, "{at}: QR set");
        assert_eq!(members(regions.cfr_set(id)), want.cfr, "{at}: CFR set");
        for b in sg.signal_ids() {
            let ordered = b != want.signal && !want.states.iter().any(|&s| excited(sg, s, b));
            assert_eq!(regions.is_ordered(sg, id, b), ordered, "{at}: ordered {b}");
        }
    }
    for sig in sg.signal_ids() {
        let want: Vec<usize> = (0..expected.len()).filter(|&i| expected[i].signal == sig).collect();
        let got: Vec<usize> = regions.ers_of_signal(sig).iter().map(|id| id.index()).collect();
        assert_eq!(got, want, "{name}: regions of {sig}");
    }
}

/// Checks excitation, the computed analysis and its cache-revived copy
/// against the reference.
fn check(name: &str, sg: &StateGraph) {
    for s in sg.state_ids() {
        for a in sg.signal_ids() {
            assert_eq!(sg.is_excited(s, a), excited(sg, s, a), "{name}: {s} excites {a}");
            assert_eq!(sg.excited_mask(s) >> a.index() & 1 == 1, excited(sg, s, a), "{name}");
        }
    }
    let expected = reference(sg);
    let regions = sg.regions();
    assert_matches(name, sg, &regions, &expected);
    let bytes = regions.to_cache_bytes();
    assert_eq!(bytes, reference_bytes(&expected), "{name}: cache bytes");
    let revived = Regions::from_cache_bytes(&bytes, sg.state_count(), sg.signal_count())
        .expect("cache bytes decode");
    assert_matches(&format!("{name} (revived)"), sg, &revived, &expected);
    assert_eq!(revived.to_cache_bytes(), bytes, "{name}: revived cache bytes");
}

#[test]
fn suite_specs_match_the_reference() {
    for b in suite::all() {
        let sg = b.stg.to_state_graph().expect("suite spec reaches");
        check(b.name, &sg);
    }
}

#[test]
fn paper_figures_match_the_reference() {
    let graphs = [
        ("figure1", figures::figure1()),
        ("figure3", figures::figure3()),
        ("figure4", figures::figure4()),
        ("c_element", figures::c_element()),
        ("toggle", figures::toggle()),
    ];
    for (name, sg) in &graphs {
        check(name, sg);
    }
}

#[test]
fn scale_rings_match_the_reference() {
    for width in 3..=6 {
        let sg = scale::ring(width).expect("ring builds").to_state_graph().expect("ring reaches");
        check(&format!("ring({width})"), &sg);
    }
}

#[test]
fn fuzz_graphs_match_the_reference() {
    for seed in 0..8u64 {
        let cfg = GenConfig {
            signals: 3 + seed as usize % 3,
            concurrency: 30 + seed * 8,
            csc_injection: seed % 2 == 1,
        };
        let recipe = fuzz::random_recipe(&mut fuzz::Rng::new(0xDAC94 ^ seed), cfg);
        let sg = fuzz::gen::to_state_graph(&recipe).expect("recipe builds");
        check(&format!("fuzz seed {seed}"), &sg);
    }
}

#[test]
fn graphs_with_inserted_signals_match_the_reference() {
    // Expanded graphs are what the state-assignment search decomposes.
    let delement = suite::delement().stg.to_state_graph().expect("Delement reaches");
    for (name, sg) in [("figure1", figures::figure1()), ("Delement", delement)] {
        let reduced = reduce_to_mc(&sg, ReduceOptions::default()).expect("reduces");
        assert!(reduced.added > 0, "{name}: something was inserted");
        check(&format!("{name} reduced"), &reduced.sg);
    }
}
