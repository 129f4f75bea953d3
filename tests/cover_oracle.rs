//! Reference-oracle tests for the cover checks.
//!
//! [`McCheck`] answers the whole-graph conditions of Defs. 16 and 17 with
//! word operations over per-signal state columns and the region sets.
//! The functions below are the straightforward per-state readings of the
//! same definitions: walk every state, read its code and excitation off
//! the graph, test the cube literal by literal. For every excitation
//! region, its Lemma 3 cube, every cube one literal wider and every cube
//! one literal narrower must get the same answers from both, and the
//! verdict-only function check must agree with the full cover computation.

use simc::benchmarks::{figures, scale, suite};
use simc::cube::Cube;
use simc::fuzz::{self, GenConfig};
use simc::mc::assign::{reduce_to_mc, ReduceOptions};
use simc::mc::McCheck;
use simc::sg::{Dir, ErId, StateGraph, StateId};

fn excited(sg: &StateGraph, s: StateId, sig: usize) -> bool {
    sg.succs(s).iter().any(|(t, _)| t.signal.index() == sig)
}

fn value(sg: &StateGraph, s: StateId, sig: usize) -> bool {
    sg.code(s).bits() >> sig & 1 == 1
}

fn covers(sg: &StateGraph, cube: Cube, s: StateId) -> bool {
    cube.literals().all(|(sig, polarity)| value(sg, s, sig) == polarity)
}

/// Lemma 3: one literal per signal other than the region's own that is
/// excited in none of its states, at the value of its first state.
fn lemma3(check: &McCheck<'_>, er: ErId) -> Cube {
    let sg = check.sg();
    let region = check.regions().er(er);
    let first = region.states()[0];
    let mut cube = Cube::top();
    for b in 0..sg.signal_count() {
        if b != region.signal().index() && !region.states().iter().any(|&s| excited(sg, s, b)) {
            cube = cube.with_literal(b, value(sg, first, b));
        }
    }
    cube
}

/// Def. 16: an up-cube covers no state of `1*-set ∪ 0-set`, a down-cube
/// none of `0*-set ∪ 1-set`.
fn correct(check: &McCheck<'_>, er: ErId, cube: Cube) -> bool {
    let sg = check.sg();
    let region = check.regions().er(er);
    let a = region.signal().index();
    sg.state_ids().all(|s| {
        let (v, e) = (value(sg, s, a), excited(sg, s, a));
        let forbidden = if region.dir() == Dir::Rise { v == e } else { v != e };
        !(forbidden && covers(sg, cube, s))
    })
}

fn outside(check: &McCheck<'_>, er: ErId, cube: Cube) -> Vec<StateId> {
    let sg = check.sg();
    let cfr = check.regions().cfr(er);
    sg.state_ids().filter(|s| !cfr.contains(s) && covers(sg, cube, *s)).collect()
}

/// Def. 17: (1) covers the ER, (3) nothing outside the CFR, (2) never
/// rises from 0 to 1 on an edge inside the CFR.
fn monotonous(check: &McCheck<'_>, er: ErId, cube: Cube) -> bool {
    let sg = check.sg();
    let cfr = check.regions().cfr(er);
    check.regions().er(er).states().iter().all(|&s| covers(sg, cube, s))
        && outside(check, er, cube).is_empty()
        && cfr.iter().all(|&u| {
            covers(sg, cube, u)
                || sg.succs(u).iter().all(|&(_, v)| !cfr.contains(&v) || !covers(sg, cube, v))
        })
}

/// Checks every region's Lemma 3 cube and its one-literal-wider and
/// -narrower variants, and every excitation function's verdict.
fn check(name: &str, sg: &StateGraph) {
    let check = McCheck::new(sg);
    for (er, _) in check.regions().ers() {
        let at = format!("{name}: region {}", er.index());
        let full = lemma3(&check, er);
        assert_eq!(check.lemma3_cube(er), full, "{at}: Lemma 3 cube");
        let wider = full.literals().map(|(sig, _)| full.without_literal(sig));
        // A literal on a signal that changes inside the region leaves some
        // of its states uncovered, which only condition (1) rejects.
        let region = check.regions().er(er);
        let narrower = (0..sg.signal_count())
            .filter(|&b| full.literal(b).is_none() && b != region.signal().index())
            .map(|b| full.with_literal(b, value(sg, region.states()[0], b)));
        for cube in std::iter::once(full).chain(wider).chain(narrower) {
            let at = format!("{at}, cube {:x}/{:x}", cube.care_mask(), cube.value_mask());
            let correct_cover = correct(&check, er, cube);
            assert_eq!(check.is_correct_cover(er, cube), correct_cover, "{at}: Def. 16");
            assert_eq!(check.covered_outside(er, cube), outside(&check, er, cube), "{at}: outside");
            assert_eq!(
                check.is_monotonous_cover(er, cube),
                monotonous(&check, er, cube),
                "{at}: Def. 17"
            );
        }
    }
    for a in sg.signal_ids() {
        for dir in [Dir::Rise, Dir::Fall] {
            let cover = check.function_cover(a, dir);
            let verdict = check.function_failures(a, dir);
            assert_eq!(verdict, cover.map(|_| ()), "{name}: function {dir:?} {a}");
        }
    }
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
    // Expanded graphs are what the state-assignment search scores.
    let delement = suite::delement().stg.to_state_graph().expect("Delement reaches");
    let nowick = suite::nowick().stg.to_state_graph().expect("nowick reaches");
    let graphs = [("figure1", figures::figure1()), ("Delement", delement), ("nowick", nowick)];
    for (name, sg) in graphs {
        let reduced = reduce_to_mc(&sg, ReduceOptions::default()).expect("reduces");
        assert!(reduced.added > 0, "{name}: something was inserted");
        check(&format!("{name} reduced"), &reduced.sg);
    }
}

#[test]
fn graphs_wider_than_one_word_match_the_reference() {
    // No suite graph has more than 64 states. The rings take the
    // multi-word path with full words (128 to 512 states), the two larger
    // fuzz recipes (96 and 120 states) and the reduction of the first end
    // in a partial word.
    for width in 6..=8 {
        let sg = scale::ring(width).expect("ring builds").to_state_graph().expect("ring reaches");
        assert!(sg.state_count() > 64, "ring({width}) spans several words");
        check(&format!("ring({width})"), &sg);
    }
    for (signals, concurrency, seed) in [(5, 60, 3u64), (6, 80, 1)] {
        let cfg = GenConfig { signals, concurrency, csc_injection: true };
        let recipe = fuzz::random_recipe(&mut fuzz::Rng::new(0xDAC94 ^ seed), cfg);
        let sg = fuzz::gen::to_state_graph(&recipe).expect("recipe builds");
        let name = format!("fuzz {signals}/{concurrency}/{seed}");
        assert!(sg.state_count() > 64 && !sg.state_count().is_multiple_of(64), "{name}: partial word");
        check(&name, &sg);
        if signals == 5 {
            let reduced = reduce_to_mc(&sg, ReduceOptions::default()).expect("reduces");
            assert!(!reduced.sg.state_count().is_multiple_of(64), "{name} reduced: partial word");
            check(&format!("{name} reduced"), &reduced.sg);
        }
    }
}
