//! An output checker that works apart from the program's verifier.
//!
//! For every non-input signal it evaluates the synthesized set and reset
//! covers on every reachable state of the working state graph and
//! requires the standard latch, `a' = S R' + a (S + R')`, to produce the
//! signal's implied value: the current value, complemented when the
//! signal is excited (correct covers, Def. 16 of the paper). It also
//! requires the working graph to have complete state coding (MC implies
//! CSC, Th. 4): reachable states with equal codes excite the same
//! non-input signals. Only the graph's states, codes and edges and the
//! covers' cubes are read; excitation, reachability and the latch
//! function are computed here.

use std::collections::HashMap;

use simc_cube::Cube;
use simc_mc::synth::Implementation;
use simc_sg::{SignalId, StateGraph};

/// The set and reset covers of one synthesized signal.
#[derive(Debug, Clone)]
pub struct SignalCovers {
    pub signal: SignalId,
    pub set: Vec<Cube>,
    pub reset: Vec<Cube>,
}

/// The covers of every network of an implementation.
pub fn covers_of(implementation: &Implementation) -> Vec<SignalCovers> {
    implementation
        .networks()
        .iter()
        .map(|nw| SignalCovers {
            signal: nw.signal,
            set: nw.set.cubes().to_vec(),
            reset: nw.reset.cubes().to_vec(),
        })
        .collect()
}

/// Checks `covers` against `sg`; returns the number of reachable states
/// checked, or the first violation found.
pub fn check(sg: &StateGraph, covers: &[SignalCovers]) -> Result<usize, String> {
    let non_inputs = non_input_mask(sg);
    let implemented = covers.iter().fold(0u64, |m, c| m | 1 << c.signal.index());
    if implemented != non_inputs || covers.len() != non_inputs.count_ones() as usize {
        return Err(format!(
            "the covers implement signal set {implemented:#b}, the graph's non-inputs are {non_inputs:#b}"
        ));
    }
    let reachable = reachable(sg);
    for &(code, excited) in &reachable {
        for c in covers {
            let bit = 1u64 << c.signal.index();
            let value = code & bit != 0;
            let implied = value ^ (excited & bit != 0);
            let set = c.set.iter().any(|cube| cube.covers(code));
            let reset = c.reset.iter().any(|cube| cube.covers(code));
            let next = (set && !reset) || (value && (set || !reset));
            if next != implied {
                return Err(format!(
                    "signal {} at code {code:#b}: the latch gives {}, the implied value is {}",
                    sg.signal(c.signal).name(),
                    u8::from(next),
                    u8::from(implied),
                ));
            }
        }
    }
    csc(sg, &reachable)?;
    Ok(reachable.len())
}

/// Requires reachable states with equal codes to excite the same
/// non-input signals.
fn csc(sg: &StateGraph, reachable: &[(u64, u64)]) -> Result<(), String> {
    let non_inputs = non_input_mask(sg);
    let mut excited_by_code: HashMap<u64, u64> = HashMap::with_capacity(reachable.len());
    for &(code, excited) in reachable {
        let excited = excited & non_inputs;
        if *excited_by_code.entry(code).or_insert(excited) != excited {
            return Err(format!(
                "CSC conflict: reachable states share code {code:#b}"
            ));
        }
    }
    Ok(())
}

fn non_input_mask(sg: &StateGraph) -> u64 {
    sg.signal_ids()
        .filter(|&s| sg.signal(s).kind().is_non_input())
        .fold(0, |m, s| m | 1 << s.index())
}

/// `(code, excited signals)` of every state reachable from the initial
/// state, both as bit masks over signal indices.
fn reachable(sg: &StateGraph) -> Vec<(u64, u64)> {
    let mut seen = vec![false; sg.state_count()];
    let mut order = vec![sg.initial()];
    seen[sg.initial().index()] = true;
    let mut out = Vec::with_capacity(sg.state_count());
    while let Some(state) = order.pop() {
        let mut excited = 0u64;
        for &(t, next) in sg.succs(state) {
            excited |= 1 << t.signal.index();
            if !std::mem::replace(&mut seen[next.index()], true) {
                order.push(next);
            }
        }
        out.push((sg.code(state).bits(), excited));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simc_pipeline::Pipeline;

    /// The working graph and covers of `nowick`, whose networks include
    /// single-cube covers with literals.
    fn synthesized() -> (StateGraph, Vec<SignalCovers>) {
        let spec = simc_benchmarks::suite::nowick().stg.to_g_string();
        let mut pipeline = Pipeline::from_text(spec);
        let implemented = pipeline.implemented().expect("nowick synthesizes");
        (
            implemented.working_sg().clone(),
            covers_of(implemented.implementation()),
        )
    }

    /// A signal and direction whose cover is one cube with a literal.
    fn single_cube(covers: &[SignalCovers]) -> (usize, bool) {
        covers
            .iter()
            .enumerate()
            .find_map(|(i, c)| {
                if c.set.len() == 1 && c.set[0].literal_count() > 0 {
                    Some((i, true))
                } else if c.reset.len() == 1 && c.reset[0].literal_count() > 0 {
                    Some((i, false))
                } else {
                    None
                }
            })
            .expect("a single-cube cover")
    }

    fn cover_mut(covers: &mut [SignalCovers], (i, set): (usize, bool)) -> &mut Vec<Cube> {
        if set {
            &mut covers[i].set
        } else {
            &mut covers[i].reset
        }
    }

    #[test]
    fn accepts_the_synthesized_circuit() {
        let (sg, covers) = synthesized();
        assert_eq!(check(&sg, &covers), Ok(sg.state_count()));
    }

    #[test]
    fn rejects_a_dropped_cube() {
        let (sg, mut covers) = synthesized();
        let which = single_cube(&covers);
        cover_mut(&mut covers, which).clear();
        let err = check(&sg, &covers).expect_err("dropped cube must be caught");
        assert!(err.contains("implied value"), "{err}");
    }

    #[test]
    fn rejects_a_flipped_literal() {
        let (sg, mut covers) = synthesized();
        let which = single_cube(&covers);
        let cube = &mut cover_mut(&mut covers, which)[0];
        let (var, polarity) = cube.literals().next().expect("cube has a literal");
        *cube = cube.with_literal(var, !polarity);
        let err = check(&sg, &covers).expect_err("flipped literal must be caught");
        assert!(err.contains("implied value"), "{err}");
    }

    #[test]
    fn rejects_a_csc_conflict() {
        // The D-element's specification repeats a code with different
        // excitation; its working graph after insertion does not.
        let spec = simc_benchmarks::suite::delement()
            .stg
            .to_state_graph()
            .expect("reaches");
        let err = csc(&spec, &reachable(&spec)).expect_err("the spec violates CSC");
        assert!(err.contains("CSC conflict"), "{err}");
        let (sg, _) = synthesized();
        assert_eq!(csc(&sg, &reachable(&sg)), Ok(()));
    }
}
