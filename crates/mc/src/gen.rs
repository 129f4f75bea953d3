//! Generalized Monotonous Covers (Section VI, Def. 19, Theorem 5).
//!
//! One cube may cover a *set* of excitation regions — possibly of
//! different signals — enabling AND-gate sharing across signal networks.
//! The conditions generalize Def. 17 region-wise, with the additional
//! Theorem 5 side condition that every excitation region of a signal
//! intersecting the cube must be covered by it completely (so exactly one
//! AND gate turns on inside each region).

use simc_cube::Cube;
use simc_sat::{Lit, SatResult, Solver};
use simc_sg::{BitSet, Dir, ErId, SignalId, StateGraph};

use crate::cover::{DisagreementMasks, FunctionCover, McCheck};
use crate::error::McError;
use crate::synth::{build_from_covers, Implementation, Target};

/// Whether `cube` is a generalized monotonous cover for the region set
/// `ers` (Def. 19).
pub fn is_generalized_mc(check: &McCheck<'_>, ers: &[ErId], cube: Cube) -> bool {
    if ers.is_empty() {
        return false;
    }
    let sg = check.sg();
    let regions = check.regions();
    // (1) covers every state of every region.
    for &er in ers {
        if !regions.er(er).states().iter().all(|&s| check.covers_state(cube, s)) {
            return false;
        }
    }
    // Union of CFRs.
    let mut in_union = BitSet::new(sg.state_count());
    for &er in ers {
        in_union.union_with(regions.cfr_set(er));
    }
    // (3) covers no reachable state outside the union of CFRs.
    for s in sg.state_ids() {
        if !in_union.contains(s) && check.covers_state(cube, s) {
            return false;
        }
    }
    // (2) at most one change along any trace inside EACH region's CFR.
    for &er in ers {
        let in_cfr = regions.cfr_set(er);
        for u in in_cfr.iter() {
            if check.covers_state(cube, u) {
                continue;
            }
            for &(_, v) in sg.succs(u) {
                if in_cfr.contains(v) && check.covers_state(cube, v) {
                    return false;
                }
            }
        }
    }
    // Theorem 5 side condition: any region of a participating signal that
    // the cube intersects must be fully covered (i.e. in the set).
    let signals: Vec<SignalId> = {
        let mut v: Vec<SignalId> = ers.iter().map(|&er| regions.er(er).signal()).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    for (other, region) in regions.ers() {
        if !signals.contains(&region.signal()) || ers.contains(&other) {
            continue;
        }
        if region.states().iter().any(|&s| check.covers_state(cube, s)) {
            return false;
        }
    }
    true
}

/// Searches for a generalized MC cube covering all of `ers` at once.
///
/// Candidate literals are the signals ordered with *every* region in the
/// set and constant across them all; the SAT encoding mirrors the
/// single-region one with the union-of-CFRs outside set and per-CFR
/// monotonicity clauses.
pub fn generalized_mc_cube(check: &McCheck<'_>, ers: &[ErId]) -> Option<Cube> {
    if ers.is_empty() {
        return None;
    }
    if simc_obs::counters_enabled() {
        simc_obs::add(simc_obs::Counter::CoverSatSearches, 1);
    }
    let sg = check.sg();
    let regions = check.regions();

    // Shared candidate literals.
    let mut candidates: Vec<(SignalId, bool)> = Vec::new();
    let representative = regions.er(ers[0]).states()[0];
    'sig: for b in sg.signal_ids() {
        let value = sg.code(representative).value(b);
        for &er in ers {
            let region = regions.er(er);
            if b == region.signal() || !regions.is_ordered(sg, er, b) {
                continue 'sig;
            }
            for &s in region.states() {
                if sg.code(s).value(b) != value {
                    continue 'sig;
                }
            }
        }
        candidates.push((b, value));
    }
    if candidates.is_empty() {
        return None;
    }

    let mut in_union = BitSet::new(sg.state_count());
    for &er in ers {
        in_union.union_with(regions.cfr_set(er));
    }
    let masks = DisagreementMasks::compute(sg, &candidates);

    let mut solver = Solver::new();
    let vars: Vec<simc_sat::Var> = candidates.iter().map(|_| solver.new_var()).collect();
    for s in sg.state_ids() {
        if in_union.contains(s) {
            continue;
        }
        if masks.is_empty(s) {
            return None;
        }
        solver.add_clause(masks.bits(s).map(|i| Lit::pos(vars[i])));
    }
    for &er in ers {
        let in_cfr = regions.cfr_set(er);
        for u in in_cfr.iter() {
            if masks.is_empty(u) {
                continue;
            }
            for &(_, v) in sg.succs(u) {
                if !in_cfr.contains(v) {
                    continue;
                }
                for l in masks.bits(u) {
                    solver.add_clause(
                        std::iter::once(Lit::neg(vars[l]))
                            .chain(masks.bits(v).map(|i| Lit::pos(vars[i]))),
                    );
                }
            }
        }
    }
    // Iterate models until the Theorem 5 side condition also holds.
    loop {
        match solver.solve() {
            SatResult::Sat(model) => {
                let mut cube = Cube::top();
                let mut blocking = Vec::new();
                for (i, &(sig, value)) in candidates.iter().enumerate() {
                    if model.value(vars[i]) {
                        cube = cube.with_literal(sig.index(), value);
                        blocking.push(Lit::neg(vars[i]));
                    } else {
                        blocking.push(Lit::pos(vars[i]));
                    }
                }
                if is_generalized_mc(check, ers, cube) {
                    return Some(cube);
                }
                solver.add_clause(blocking);
            }
            SatResult::Unsat => return None,
        }
    }
}

/// Synthesizes with per-function region *grouping*: for each excitation
/// function, regions that admit a common generalized MC cube share one
/// AND gate (greedy pairwise merging), reducing product terms relative to
/// [`synthesize`](crate::synth::synthesize).
///
/// # Errors
///
/// Same conditions as plain synthesis: output semi-modularity and the MC
/// requirement (with the degenerate-case exception).
pub fn synthesize_generalized(sg: &StateGraph, target: Target) -> Result<Implementation, McError> {
    let _span = simc_obs::span("synth");
    if !sg.analysis().is_output_semimodular() {
        return Err(McError::NotOutputSemimodular);
    }
    let check = McCheck::new(sg);
    let report = check.report();
    if !report.satisfied() {
        return Err(McError::NotMonotonous { violations: report.violation_count() });
    }
    let mut covers = Vec::new();
    for a in sg.non_input_signals() {
        let set = grouped_cover(&check, a, Dir::Rise)?;
        let reset = grouped_cover(&check, a, Dir::Fall)?;
        covers.push((a, set, reset));
    }
    Ok(build_from_covers(sg, covers, target))
}

fn grouped_cover(check: &McCheck<'_>, a: SignalId, dir: Dir) -> Result<FunctionCover, McError> {
    // Start from the validated per-function cover; only the PerRegion form
    // is regroupable.
    let base = check
        .function_cover(a, dir)
        .map_err(|v| McError::NotMonotonous { violations: v.len() })?;
    let FunctionCover::PerRegion { regions, cubes } = &base else {
        return Ok(base);
    };
    // Greedy merging: try to grow groups left to right.
    let mut groups: Vec<(Vec<ErId>, Cube)> = Vec::new();
    'outer: for (&er, &cube) in regions.iter().zip(cubes) {
        for (members, shared) in &mut groups {
            let mut attempt = members.clone();
            attempt.push(er);
            if let Some(c) = generalized_mc_cube(check, &attempt) {
                *members = attempt;
                *shared = c;
                continue 'outer;
            }
        }
        groups.push((vec![er], cube));
    }
    let mut regions = Vec::new();
    let mut cubes = Vec::new();
    for (members, cube) in groups {
        for er in members {
            regions.push(er);
            cubes.push(cube);
        }
    }
    Ok(FunctionCover::PerRegion { regions, cubes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simc_benchmarks::figures;
    use simc_netlist::{verify, VerifyOptions};
    use simc_sg::Transition;

    #[test]
    fn figure3_d_up_regions_share_one_cube() {
        // The two up-regions of d in Figure 3 are jointly covered by the
        // single literal x' — the generalized form the paper's `d = x̄`
        // relies on.
        let sg = figures::figure3();
        let check = McCheck::new(&sg);
        let d = sg.signal_by_name("d").unwrap();
        let ers = check.regions().ers_of_transition(Transition::rise(d));
        assert_eq!(ers.len(), 2);
        let cube = generalized_mc_cube(&check, &ers).expect("shared cube exists");
        let names: Vec<String> = sg
            .signal_ids()
            .map(|s| sg.signal(s).name().to_string())
            .collect();
        assert_eq!(cube.render(&names), "x'");
        assert!(is_generalized_mc(&check, &ers, cube));
    }

    #[test]
    fn single_region_generalized_equals_plain() {
        let sg = figures::c_element();
        let check = McCheck::new(&sg);
        let c = sg.signal_by_name("c").unwrap();
        let ups = check.regions().ers_of_transition(Transition::rise(c));
        let cube = generalized_mc_cube(&check, &ups).unwrap();
        assert!(is_generalized_mc(&check, &ups, cube));
        let plain = check.mc_cube(ups[0]).unwrap();
        // Both cover the same region correctly; cubes may differ only in
        // don't-care extent.
        assert!(is_generalized_mc(&check, &ups, plain));
    }

    #[test]
    fn generalized_synthesis_verifies() {
        for sg in [figures::c_element(), figures::figure3(), figures::toggle()] {
            let implementation = synthesize_generalized(&sg, Target::CElement).unwrap();
            let nl = implementation.to_netlist().unwrap();
            let report = verify(&nl, &sg, VerifyOptions::default()).unwrap();
            assert!(report.is_ok(), "{:?}", report.violations);
        }
    }

    #[test]
    fn generalized_never_uses_more_cubes() {
        for sg in [figures::c_element(), figures::figure3()] {
            let plain = crate::synth::synthesize(&sg, Target::CElement).unwrap();
            let shared = synthesize_generalized(&sg, Target::CElement).unwrap();
            assert!(shared.cube_count() <= plain.cube_count());
        }
    }

    #[test]
    fn theorem5_side_condition_rejects_partial_coverage() {
        // A cube that intersects a region of the participating signal
        // without covering it completely must be rejected, even when the
        // union conditions hold for the chosen set.
        let sg = figures::figure1();
        let check = McCheck::new(&sg);
        let d = sg.signal_by_name("d").unwrap();
        let ups = check.regions().ers_of_transition(Transition::rise(d));
        assert_eq!(ups.len(), 2);
        // The universal cube covers every state: it trivially covers both
        // regions but also everything outside their CFRs — rejected by
        // condition (3).
        assert!(!is_generalized_mc(&check, &ups, Cube::top()));
        // A cube covering only region 2 (`a b c`, its minterm literals)
        // used for the SET {er1}: intersects er2? No — so the side
        // condition is about er-of-same-signal cubes; verify a cube that
        // covers part of er1 is rejected for {er2}.
        let a = sg.signal_by_name("a").unwrap();
        let b = sg.signal_by_name("b").unwrap();
        let c = sg.signal_by_name("c").unwrap();
        let abc = Cube::top()
            .with_literal(a.index(), true)
            .with_literal(b.index(), true)
            .with_literal(c.index(), true);
        // abc covers er2 = {1110*} and its quiescent state 1*111 — but the
        // edge 1*0*11 → 1*111 inside CFR(+d,2) switches the cube 0 → 1,
        // violating condition (2):
        assert!(!is_generalized_mc(&check, &ups[1..], abc));
        // …and it misses er1 entirely, so the pair is rejected on
        // condition (1) as well.
        assert!(!is_generalized_mc(&check, &ups, abc));
        // The complete search confirms no shared cube exists for the pair
        // (b is at different values in the two regions).
        assert!(generalized_mc_cube(&check, &ups).is_none());
    }

    #[test]
    fn empty_set_rejected() {
        let sg = figures::toggle();
        let check = McCheck::new(&sg);
        assert!(generalized_mc_cube(&check, &[]).is_none());
        assert!(!is_generalized_mc(&check, &[], Cube::top()));
    }
}
