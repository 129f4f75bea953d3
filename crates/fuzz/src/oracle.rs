//! The differential oracles.
//!
//! Theorems 3–5 of the paper promise that MC covers yield hazard-free
//! semi-modular implementations, which gives several *independent*
//! predictions that must agree on every generated case:
//!
//! 1. **MC vs. verifier** — whenever the MC requirement holds (natively
//!    or after reduction), the synthesized netlist passes the exhaustive
//!    composed-state verifier with zero violations;
//! 2. **C-element vs. RS-latch** — both standard implementation styles of
//!    the same state graph verify hazard-free;
//! 3. **1-thread vs. N-thread** — [`ParallelSynth`] produces byte-equal
//!    reports and equations for every thread count;
//! 4. **minimized vs. unminimized covers** — the minimizer's cover and
//!    the raw minterm cover compute the same excitation function on every
//!    care state (Def. 13).
//!
//! A fifth, adversarial mode perturbs synthesized covers (cube dropped,
//! literal flipped, latch swapped) and demands the verifier *catches*
//! every non-equivalent perturbation. A sixth round-trips every
//! synthesized netlist through the EDIF writer and reader and demands
//! the canonical netlist form survives byte-identically.

use simc_cube::{minimize, Cover, Cube, MinimizeOptions};
use simc_mc::assign::ReduceOptions;
use simc_mc::complex::synthesize_complex;
use simc_mc::synth::{build_from_covers, cover_of, Implementation, Target};
use simc_mc::{McCheck, ParallelSynth};
use simc_netlist::{verify, VerifyOptions};
use simc_pipeline::{ErrorKind, Pipeline};
use simc_sg::{Dir, SignalId, StateGraph};

use crate::gen::{self, Recipe};
use crate::rng::Rng;

/// Which oracle flagged a disagreement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum OracleId {
    /// The generator itself produced an invalid specification — a fuzzer
    /// bug, reported like any other disagreement.
    Generator,
    /// Minimized and unminimized covers disagree on a care state, or a
    /// cover fails correctness against the explicit on/off sets.
    MinimizedCovers,
    /// Parallel synthesis diverged from the sequential result.
    ParallelEquality,
    /// The MC pipeline and the exhaustive verifier disagree.
    McVsVerify,
    /// The C-element and RS-latch implementations disagree.
    CVsRs,
    /// An injected fault went undetected by the verifier.
    FaultInjection,
    /// The EDIF emit ∘ parse round trip changed the canonical netlist.
    FormatRoundTrip,
}

impl OracleId {
    /// Short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            OracleId::Generator => "generator",
            OracleId::MinimizedCovers => "minimized-covers",
            OracleId::ParallelEquality => "parallel-equality",
            OracleId::McVsVerify => "mc-vs-verify",
            OracleId::CVsRs => "c-vs-rs",
            OracleId::FaultInjection => "fault-injection",
            OracleId::FormatRoundTrip => "format-roundtrip",
        }
    }
}

/// A single oracle disagreement.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The disagreeing oracle.
    pub oracle: OracleId,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

impl Failure {
    fn new(oracle: OracleId, detail: impl Into<String>) -> Self {
        Failure { oracle, detail: detail.into() }
    }
}

/// Per-case bookkeeping rolled up into the run report.
#[derive(Debug, Clone, Copy, Default)]
pub struct CaseStats {
    /// MC-reduction inserted state signals before synthesis.
    pub reduced: bool,
    /// Reduction gave up (budget), so the synthesis oracles were skipped.
    pub skipped: bool,
    /// The spec had a CSC violation.
    pub csc_violating: bool,
    /// Netlist perturbations attempted.
    pub faults_injected: u64,
    /// Perturbations the verifier (or netlist construction) rejected.
    pub faults_detected: u64,
}

/// Runs every oracle over one recipe.
///
/// `threads` is the N of the 1-vs-N parallel oracle; `fault_rng` drives
/// the deterministic choice of injected faults.
///
/// # Errors
///
/// The first oracle disagreement, as a [`Failure`].
pub fn check_case(
    recipe: &Recipe,
    threads: usize,
    fault_rng: &mut Rng,
) -> Result<CaseStats, Failure> {
    let mut stats = CaseStats::default();
    let sg = gen::to_state_graph(recipe)
        .map_err(|e| Failure::new(OracleId::Generator, format!("invalid spec: {e}")))?;
    let analysis = sg.analysis();
    if !analysis.is_output_semimodular() {
        return Err(Failure::new(
            OracleId::Generator,
            "generated marked-graph spec is not output semi-modular",
        ));
    }
    stats.csc_violating = !analysis.has_csc();
    simc_obs::add(simc_obs::Counter::FuzzOracleChecks, 1);

    // Oracle 4: minimized vs. unminimized covers per excitation function.
    check_cover_equivalence(&sg)?;

    // Oracle 3a: the MC report is identical for every thread count.
    let check = McCheck::new(&sg);
    let sequential = ParallelSynth::sequential().report(&check);
    for t in [2, threads] {
        if t < 2 {
            continue;
        }
        let parallel = ParallelSynth::new(t).report(&check);
        if parallel != sequential {
            return Err(Failure::new(
                OracleId::ParallelEquality,
                format!("McReport with {t} threads differs from sequential"),
            ));
        }
    }

    // Oracle 1: MC satisfied ⟹ the verifier agrees (zero violations).
    // The primary route is the same typed pipeline the CLI runs —
    // elaborate (canonicalize), reduce when MC is violated, synthesize,
    // verify — so fuzzing exercises the shipped code path end to end.
    // Tighter reduction budgets than the CLI default: the fuzzer prefers
    // fast, bounded refusals (counted as skips) over minutes-long
    // searches on adversarial multi-pulse specs.
    let reduce_opts = ReduceOptions {
        max_signals: 4,
        max_candidates: 12,
        beam_width: 6,
        branch: 4,
        ..ReduceOptions::default()
    };
    // One thread per pipeline: the campaign already runs one case per
    // shard thread.
    let mut pipeline = Pipeline::from_sg(sg.clone())
        .with_threads(1)
        .with_reduce_options(reduce_opts)
        .with_target(Target::CElement);
    let (working, implementation) = match pipeline.implemented() {
        Ok(implemented) => {
            stats.reduced = implemented.added_signals() > 0;
            // Oracle 6: the interchange round trip preserves the netlist.
            check_format_round_trip(implemented.netlist())?;
            (implemented.working_sg().clone(), implemented.implementation().clone())
        }
        // A configured budget refusing the case (insertion budget
        // exhausted) is legitimate, not a disagreement: the synthesis
        // oracles are skipped.
        Err(e) if e.kind() == ErrorKind::ResourceLimit => {
            stats.skipped = true;
            return Ok(stats);
        }
        Err(e) => {
            return Err(Failure::new(
                OracleId::McVsVerify,
                format!("MC holds but pipeline synthesis failed: {e}"),
            ));
        }
    };
    match pipeline.verified() {
        Ok(verdict) if verdict.is_ok() => {}
        Ok(verdict) => {
            return Err(Failure::new(
                OracleId::McVsVerify,
                format!(
                    "C-element netlist has {} violation(s); first: {}",
                    verdict.violations().len(),
                    verdict.violations()[0]
                ),
            ));
        }
        // Composed-state budget blow-up: no verdict either way.
        Err(e) if e.kind() == ErrorKind::ResourceLimit => {
            stats.skipped = true;
            return Ok(stats);
        }
        Err(e) => {
            return Err(Failure::new(
                OracleId::McVsVerify,
                format!("C-element verification errored: {e}"),
            ));
        }
    }

    // Oracle 3b: N-thread synthesis is byte-identical.
    for t in [2, threads] {
        if t < 2 {
            continue;
        }
        let parallel = ParallelSynth::new(t)
            .synthesize(&working, Target::CElement)
            .map_err(|e| {
                Failure::new(
                    OracleId::ParallelEquality,
                    format!("{t}-thread synthesis refused what sequential accepted: {e}"),
                )
            })?;
        if parallel.equations() != implementation.equations() {
            return Err(Failure::new(
                OracleId::ParallelEquality,
                format!("{t}-thread equations differ from sequential"),
            ));
        }
    }

    // Oracle 2: the RS-latch style of the same graph also verifies
    // (through the same pipeline route, from the already-reduced graph).
    let mut rs_pipeline = Pipeline::from_sg(working.clone())
        .with_threads(1)
        .with_reduce_options(reduce_opts)
        .with_target(Target::RsLatch);
    match rs_pipeline.verified() {
        Ok(verdict) if verdict.is_ok() => {}
        Ok(verdict) => {
            return Err(Failure::new(
                OracleId::CVsRs,
                format!(
                    "RS-latch netlist has {} violation(s); first: {}",
                    verdict.violations().len(),
                    verdict.violations()[0]
                ),
            ));
        }
        Err(e) if e.kind() == ErrorKind::ResourceLimit => {
            stats.skipped = true;
            return Ok(stats);
        }
        Err(e) => {
            return Err(Failure::new(
                OracleId::CVsRs,
                format!("RS synthesis failed where C succeeded: {e}"),
            ));
        }
    }

    // Oracle 1 (complex-gate corollary): CSC alone suffices for one
    // atomic gate per output.
    if analysis.has_csc() {
        let netlist = synthesize_complex(&sg).map_err(|e| {
            Failure::new(OracleId::McVsVerify, format!("complex-gate synthesis failed: {e}"))
        })?;
        match verify(&netlist, &sg, VerifyOptions::default()) {
            Ok(report) if report.is_ok() => {}
            Ok(report) => {
                return Err(Failure::new(
                    OracleId::McVsVerify,
                    format!(
                        "complex-gate netlist has {} violation(s) despite CSC",
                        report.violations.len()
                    ),
                ));
            }
            Err(simc_netlist::NetlistError::TooManyStates(_)) => {}
            Err(e) => {
                return Err(Failure::new(
                    OracleId::McVsVerify,
                    format!("complex-gate verification errored: {e}"),
                ));
            }
        }
    }

    // Oracle 5: every injected fault must be caught.
    inject_faults(&working, &implementation, fault_rng, &mut stats)?;
    Ok(stats)
}

/// Oracle 6: the EDIF writer and reader are inverses on every netlist
/// the synthesizer can produce, judged on the canonical netlist form
/// (the same acceptance check `simc convert` is held to).
fn check_format_round_trip(netlist: &simc_netlist::Netlist) -> Result<(), Failure> {
    let edif = simc_formats::write_edif(netlist)
        .map_err(|e| Failure::new(OracleId::FormatRoundTrip, format!("EDIF emit failed: {e}")))?;
    let back = simc_formats::read_edif(&edif).map_err(|e| {
        Failure::new(OracleId::FormatRoundTrip, format!("emitted EDIF does not parse: {e}"))
    })?;
    if simc_formats::canonical_netlist(&back) != simc_formats::canonical_netlist(netlist) {
        return Err(Failure::new(
            OracleId::FormatRoundTrip,
            "EDIF round trip changed the canonical netlist",
        ));
    }
    Ok(())
}

/// The explicit care sets of one excitation function (Def. 13): on-set,
/// off-set; everything else is don't-care.
fn care_sets(sg: &StateGraph, a: SignalId, dir: Dir) -> (Vec<u64>, Vec<u64>) {
    let mut on = Vec::new();
    let mut off = Vec::new();
    for s in sg.state_ids() {
        let code = sg.code(s).bits();
        let value = sg.code(s).value(a);
        let excited = sg.is_excited(s, a);
        let (on_here, off_here) = match dir {
            Dir::Rise => (!value && excited, (value && excited) || (!value && !excited)),
            Dir::Fall => (value && excited, (!value && excited) || (value && !excited)),
        };
        if on_here {
            on.push(code);
        } else if off_here {
            off.push(code);
        }
    }
    on.sort_unstable();
    on.dedup();
    off.sort_unstable();
    off.dedup();
    (on, off)
}

/// Oracle 4: on every care state, the minimized cover and the raw
/// minterm ("unminimized") cover agree — both 1 on the on-set, both 0 on
/// the off-set. CSC-conflicting functions (on ∩ off ≠ ∅) are skipped:
/// no cover exists and [`minimize`] reports the conflict instead.
fn check_cover_equivalence(sg: &StateGraph) -> Result<(), Failure> {
    let num_vars = sg.signal_count();
    for &a in &sg.non_input_signals() {
        for dir in [Dir::Rise, Dir::Fall] {
            let (on, off) = care_sets(sg, a, dir);
            let conflicting = on.iter().any(|c| off.binary_search(c).is_ok());
            if conflicting {
                match minimize(&on, &off, MinimizeOptions::new(num_vars)) {
                    Err(_) => continue, // correctly refused
                    Ok(_) => {
                        return Err(Failure::new(
                            OracleId::MinimizedCovers,
                            format!(
                                "minimize accepted conflicting on/off sets of {}{}",
                                sg.signal(a).name(),
                                dir.sign()
                            ),
                        ))
                    }
                }
            }
            let minimized = minimize(&on, &off, MinimizeOptions::new(num_vars))
                .map_err(|e| {
                    Failure::new(
                        OracleId::MinimizedCovers,
                        format!(
                            "minimize failed on disjoint sets of {}{}: {e}",
                            sg.signal(a).name(),
                            dir.sign()
                        ),
                    )
                })?;
            let unminimized =
                Cover::from_cubes(on.iter().map(|&p| Cube::minterm(p, num_vars)).collect());
            for &p in &on {
                if !minimized.covers(p) || !unminimized.covers(p) {
                    return Err(Failure::new(
                        OracleId::MinimizedCovers,
                        format!(
                            "covers of {}{} disagree on on-point {p:#b}",
                            sg.signal(a).name(),
                            dir.sign()
                        ),
                    ));
                }
            }
            for &p in &off {
                if minimized.covers(p) || unminimized.covers(p) {
                    return Err(Failure::new(
                        OracleId::MinimizedCovers,
                        format!(
                            "covers of {}{} disagree on off-point {p:#b}",
                            sg.signal(a).name(),
                            dir.sign()
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// One cover perturbation of a synthesized implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// Drop cube `cube` from the set (`rise = true`) or reset cover of
    /// network `network`.
    DropCube { network: usize, rise: bool, cube: usize },
    /// Flip the polarity of variable `var` in one cube.
    FlipLiteral { network: usize, rise: bool, cube: usize, var: usize },
    /// Swap the set and reset covers of one network.
    SwapLatch { network: usize },
}

/// Maximum faults injected per case — enough for coverage of all three
/// kinds without blowing up runtime on large implementations.
const MAX_FAULTS_PER_CASE: usize = 6;

/// Oracle 5: every *non-equivalent* perturbation of the synthesized
/// covers must be rejected — by netlist construction or by the verifier.
fn inject_faults(
    sg: &StateGraph,
    implementation: &Implementation,
    rng: &mut Rng,
    stats: &mut CaseStats,
) -> Result<(), Failure> {
    // Flatten the implementation to plain cube lists per network.
    let networks: Vec<(SignalId, Vec<Cube>, Vec<Cube>)> = implementation
        .networks()
        .iter()
        .map(|nw| {
            (nw.signal, cover_of(&nw.set).cubes().to_vec(), cover_of(&nw.reset).cubes().to_vec())
        })
        .collect();

    let mut candidates: Vec<Fault> = Vec::new();
    for (ni, (_, set, reset)) in networks.iter().enumerate() {
        for (rise, cubes) in [(true, set), (false, reset)] {
            for (ci, cube) in cubes.iter().enumerate() {
                candidates.push(Fault::DropCube { network: ni, rise, cube: ci });
                for (var, _) in cube.literals() {
                    candidates.push(Fault::FlipLiteral { network: ni, rise, cube: ci, var });
                }
            }
        }
        candidates.push(Fault::SwapLatch { network: ni });
    }

    // Keep only faults that change some excitation function on a care
    // state — a perturbation invisible on every care point is an
    // equivalent mutant the verifier rightly accepts.
    candidates.retain(|&f| fault_is_observable(sg, &networks, f));

    // Deterministic sample without replacement.
    let mut picked: Vec<Fault> = Vec::new();
    let mut pool = candidates;
    while picked.len() < MAX_FAULTS_PER_CASE && !pool.is_empty() {
        let i = rng.below(pool.len() as u64) as usize;
        picked.push(pool.swap_remove(i));
    }

    for fault in picked {
        let mutated = apply_fault(&networks, fault);
        let covers = mutated
            .into_iter()
            .map(|(sig, set, reset)| {
                (
                    sig,
                    simc_mc::cover::FunctionCover::Plain(set),
                    simc_mc::cover::FunctionCover::Plain(reset),
                )
            })
            .collect();
        let perturbed = build_from_covers(sg, covers, Target::CElement);
        let caught = match perturbed.to_netlist() {
            // Construction refusing the perturbation (e.g. an emptied
            // cover) counts as detection.
            Err(_) => true,
            Ok(netlist) => match verify(&netlist, sg, VerifyOptions::default()) {
                // State-budget blow-up: no verdict either way.
                Err(simc_netlist::NetlistError::TooManyStates(_)) => continue,
                Err(_) => true, // structurally rejected
                Ok(report) => !report.is_ok(),
            },
        };
        stats.faults_injected += 1;
        simc_obs::add(simc_obs::Counter::FuzzFaultsInjected, 1);
        if caught {
            stats.faults_detected += 1;
            simc_obs::add(simc_obs::Counter::FuzzFaultsDetected, 1);
        } else {
            return Err(Failure::new(
                OracleId::FaultInjection,
                format!("verifier missed injected fault {fault:?}"),
            ));
        }
    }
    Ok(())
}

/// Whether a fault changes some excitation function on a care state.
fn fault_is_observable(
    sg: &StateGraph,
    networks: &[(SignalId, Vec<Cube>, Vec<Cube>)],
    fault: Fault,
) -> bool {
    let mutated = apply_fault(networks, fault);
    for ((sig, set, reset), (_, mset, mreset)) in networks.iter().zip(&mutated) {
        for (dir, orig, new) in
            [(Dir::Rise, set, mset), (Dir::Fall, reset, mreset)]
        {
            let (on, off) = care_sets(sg, *sig, dir);
            let covers = |cubes: &[Cube], p: u64| cubes.iter().any(|c| c.covers(p));
            let differs = on
                .iter()
                .chain(off.iter())
                .any(|&p| covers(orig, p) != covers(new, p));
            if differs {
                return true;
            }
        }
    }
    false
}

/// Applies a fault to the flattened cover lists.
fn apply_fault(
    networks: &[(SignalId, Vec<Cube>, Vec<Cube>)],
    fault: Fault,
) -> Vec<(SignalId, Vec<Cube>, Vec<Cube>)> {
    let mut out = networks.to_vec();
    match fault {
        Fault::DropCube { network, rise, cube } => {
            let cubes = if rise { &mut out[network].1 } else { &mut out[network].2 };
            cubes.remove(cube);
        }
        Fault::FlipLiteral { network, rise, cube, var } => {
            let cubes = if rise { &mut out[network].1 } else { &mut out[network].2 };
            let pol = cubes[cube].literal(var).expect("fault targets an existing literal");
            cubes[cube] = cubes[cube].with_literal(var, !pol);
        }
        Fault::SwapLatch { network } => {
            let (_, ref mut set, ref mut reset) = out[network];
            std::mem::swap(set, reset);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{GenConfig, Shape};
    use simc_sg::SignalKind;

    fn simple_recipe() -> Recipe {
        Recipe {
            shape: Shape::Seq(vec![
                Shape::Leaf { signal: 0, double: false },
                Shape::Leaf { signal: 1, double: false },
            ]),
            kinds: vec![SignalKind::Input, SignalKind::Output],
        }
    }

    #[test]
    fn clean_case_passes_all_oracles() {
        let mut rng = Rng::new(1);
        let stats = check_case(&simple_recipe(), 4, &mut rng).unwrap();
        assert!(!stats.skipped);
        assert_eq!(stats.faults_injected, stats.faults_detected);
        assert!(stats.faults_injected > 0, "expected some faults to be exercised");
    }

    #[test]
    fn csc_violating_case_reduces_and_passes() {
        let recipe = Recipe {
            shape: Shape::Seq(vec![
                Shape::Leaf { signal: 0, double: true },
                Shape::Leaf { signal: 1, double: false },
            ]),
            kinds: vec![SignalKind::Input, SignalKind::Output],
        };
        let mut rng = Rng::new(2);
        let stats = check_case(&recipe, 2, &mut rng).unwrap();
        assert!(stats.csc_violating);
        assert!(stats.reduced || stats.skipped);
    }

    #[test]
    fn random_cases_pass() {
        let mut rng = Rng::new(0xDAC);
        for i in 0..25 {
            let cfg = GenConfig {
                signals: 1 + (i % 4),
                concurrency: (i as u64 * 17) % 101,
                csc_injection: i % 3 == 0,
            };
            let recipe = crate::gen::random_recipe(&mut rng, cfg);
            let mut frng = Rng::new(i as u64);
            check_case(&recipe, 4, &mut frng)
                .unwrap_or_else(|f| panic!("case {i} failed {:?}: {}", f.oracle, f.detail));
        }
    }
}
