//! MC-reduction: the Section V synthesis procedure.
//!
//! A state graph violating the Monotonous Cover requirement is transformed
//! by inserting new internal *state signals*. Following the generalized
//! state assignment of [Vanbekbergen et al., ICCAD'92] that the paper
//! builds on, each state is labelled with one of four phases
//! `{0, 1, up, down}` for the new signal; a SAT formulation (the paper:
//! "formulated as Boolean constraints … solved as a Boolean satisfiability
//! task") finds labelings that
//!
//! * are consistent along every edge (`0→up→1→down→0` cycles),
//! * never delay an input transition (edges blocked in the pre-fire copy
//!   must be non-input),
//! * keep the failing excitation region phase-constant, and
//! * separate the *bad states* that prevent a monotonous cover.
//!
//! The labelled graph is then *expanded* — `up`/`down` states split into
//! an `x=0` and an `x=1` copy joined by the new signal's transition — and
//! the MC check reruns; insertion repeats until the requirement holds.

mod expand;
mod search;

pub use expand::{expand, Assignment, Phase};

use simc_sg::StateGraph;

use crate::cover::{McCheck, McCubeFailure};
use crate::error::McError;

/// Options for [`reduce_to_mc`].
#[derive(Debug, Clone, Copy)]
pub struct ReduceOptions {
    /// Maximum number of inserted signals.
    pub max_signals: usize,
    /// Maximum SAT models examined per insertion attempt.
    pub max_candidates: usize,
    /// Beam width: how many partial insertion sequences are kept per
    /// depth (insertions are searched breadth-first, so the first depth
    /// with a satisfying graph gives a minimal count within the beam).
    pub beam_width: usize,
    /// Candidates kept per beam node per depth.
    pub branch: usize,
    /// Worker threads for beam-node expansion and the portfolio race
    /// (1 = sequential). Results are identical for every thread count.
    /// `simc_pipeline::Pipeline` sets it to its own thread count.
    pub threads: usize,
    /// Number of alternative solver configurations raced when the primary
    /// configuration finds no candidate at all for a beam node (0
    /// disables the portfolio). Each configuration enumerates from a
    /// different phase bias; every race runs all configurations to
    /// completion and takes the first non-empty one in configuration
    /// order, so results — and the obs counters — are identical for every
    /// thread count.
    pub portfolio: usize,
}

impl Default for ReduceOptions {
    fn default() -> Self {
        ReduceOptions {
            max_signals: 8,
            max_candidates: 12,
            beam_width: 6,
            branch: 3,
            threads: 1,
            portfolio: 3,
        }
    }
}

/// Outcome of a successful [`reduce_to_mc`] run.
#[derive(Debug, Clone)]
pub struct ReduceResult {
    /// The transformed state graph (satisfies the MC requirement).
    pub sg: StateGraph,
    /// Number of state signals inserted.
    pub added: usize,
    /// One line per insertion describing what was targeted.
    pub log: Vec<String>,
}

/// Severity score of a report: violating functions, failing regions,
/// bad-state mass. The search compares the *sum* — an insertion that
/// temporarily breaks the new signal's own coverability while separating
/// many conflicting codes still makes net progress (sequencer-style specs
/// need exactly such intermediate steps).
fn score(check: &McCheck<'_>) -> (usize, usize, usize) {
    score_of_report(&check.report())
}

/// [`score`] from an already-computed report (avoids re-deriving it when
/// the caller needs both).
fn score_of_report(report: &crate::cover::McReport) -> (usize, usize, usize) {
    let functions = report.violation_count();
    let failures = report.region_failures();
    let regions = failures.len();
    let bad: usize = failures.iter().map(|(_, f)| failure_mass(f)).sum();
    (functions, regions, bad)
}

fn failure_mass(f: &McCubeFailure) -> usize {
    match f {
        McCubeFailure::NotCorrect { covered_outside } => covered_outside.len(),
        McCubeFailure::NotMonotonous { witness_edges } => witness_edges.len(),
    }
}

/// [`score`] with an early abort: returns `None` as soon as the partial
/// violation mass strictly exceeds `bound`. The candidate filter only
/// keeps expansions whose mass is at most the parent's, so aborted scores
/// are exactly the ones it would reject — most models fail the bound
/// within the first violating function, skipping the bulk of the cover
/// computation on the hot path. The score reads only which functions
/// fail and how, so it asks for verdicts alone and never builds the
/// minimised covers [`McCheck::report`] would. It takes the check by
/// value so the check's tables are freed inside the span.
fn score_bounded(check: McCheck<'_>, bound: usize) -> Option<(usize, usize, usize)> {
    let span = simc_obs::span("cover");
    let score = (|| {
        let (mut functions, mut regions, mut bad) = (0usize, 0usize, 0usize);
        for a in check.sg().non_input_signals() {
            for dir in [simc_sg::Dir::Rise, simc_sg::Dir::Fall] {
                if let Err(failures) = check.function_failures(a, dir) {
                    functions += 1;
                    regions += failures.len();
                    bad += failures.iter().map(|(_, f)| failure_mass(f)).sum::<usize>();
                    if functions + regions + bad > bound {
                        return None;
                    }
                }
            }
        }
        Some((functions, regions, bad))
    })();
    drop(check);
    span.finish();
    score
}

/// Transforms `sg` into an MC-satisfying state graph by inserting state
/// signals (Section V).
///
/// # Errors
///
/// Fails if `sg` is not output semi-modular, the signal budget is
/// exhausted, or no helpful insertion can be found (the search is
/// heuristic in *which* of the SAT-feasible assignments it examines, so a
/// failure here does not prove none exists).
pub fn reduce_to_mc(sg: &StateGraph, opts: ReduceOptions) -> Result<ReduceResult, McError> {
    let _span = simc_obs::span("reduce");
    if !sg.analysis().is_output_semimodular() {
        return Err(McError::NotOutputSemimodular);
    }
    struct Node {
        sg: StateGraph,
        score: (usize, usize, usize),
        log: Vec<String>,
    }
    let root_score = score(&McCheck::new(sg));
    let mut beam = vec![Node { sg: sg.clone(), score: root_score, log: Vec::new() }];
    for depth in 0..=opts.max_signals {
        if let Some(done) = beam.iter().find(|n| n.score.0 == 0) {
            // Certify the transformation: with the inserted signals
            // hidden, the reduced graph must be weakly bisimilar to the
            // specification (the expansion is correct by construction;
            // this is a belt-and-braces check of the whole pipeline).
            let inserted: Vec<simc_sg::SignalId> = done
                .sg
                .signal_ids()
                .filter(|&x| sg.signal_by_name(done.sg.signal(x).name()).is_none())
                .collect();
            let span = simc_obs::span("certificate");
            let bisimilar = simc_sg::equiv::weak_bisimilar(sg, &done.sg, &[], &inserted);
            span.finish();
            if !bisimilar {
                return Err(McError::InsertionFailed {
                    reason: "internal error: insertion changed observable behaviour"
                        .to_string(),
                });
            }
            if simc_obs::counters_enabled() {
                simc_obs::add(simc_obs::Counter::BeamSignalsInserted, depth as u64);
            }
            return Ok(ReduceResult {
                sg: done.sg.clone(),
                added: depth,
                log: done.log.clone(),
            });
        }
        if depth == opts.max_signals {
            return Err(McError::SignalBudgetExceeded { budget: opts.max_signals });
        }
        let last_scores: Vec<_> = beam.iter().map(|n| n.score).collect();
        // Beam nodes expand independently; fan them across the pool in
        // fixed-size batches. After each batch, if some candidate already
        // solves the graph, the remaining siblings are skipped — they
        // could only add alternatives the next iteration would discard.
        // The batch size is a constant (not tied to `opts.threads`), so
        // the early-exit point — and with it the result — is identical
        // for every thread count.
        const NODE_BATCH: usize = 4;
        let mut pool: Vec<Node> = Vec::new();
        let mut expanded_nodes = 0usize;
        'depth: for batch in beam.chunks(NODE_BATCH) {
            // A node is one SAT enumeration plus a score per model, so
            // even a figure-sized node outweighs a thread spawn: the
            // batch is not sized by states × edges (which would keep
            // every suite graph inline). A one-node batch still runs
            // inline, through the map's clamp to the item count.
            let expansions = crate::parallel::parallel_map(batch, opts.threads, |node| {
                let span = simc_obs::span("node_check");
                let check = McCheck::new(&node.sg);
                span.finish();
                let name = fresh_name(&node.sg, depth);
                let mut cands =
                    search::candidate_insertions(&check, &name, opts.max_candidates, opts.branch);
                if cands.is_empty() && opts.portfolio > 0 {
                    cands = portfolio_rescue(&check, &name, &opts);
                }
                (name, cands)
            });
            expanded_nodes += batch.len();
            let mut solved = false;
            for (node, (name, cands)) in batch.iter().zip(expansions) {
                for cand in cands {
                    let mut log = node.log.clone();
                    log.push(format!("inserted `{name}`: {}", cand.description));
                    solved = solved || cand.score.0 == 0;
                    pool.push(Node { sg: cand.sg, score: cand.score, log });
                }
            }
            if solved {
                break 'depth;
            }
        }
        if simc_obs::counters_enabled() {
            simc_obs::add(simc_obs::Counter::BeamNodesExpanded, expanded_nodes as u64);
        }
        if pool.is_empty() {
            return Err(McError::InsertionFailed {
                reason: format!(
                    "no feasible insertion at depth {depth}; frontier scores {last_scores:?}"
                ),
            });
        }
        // Order by total violation mass (distance-to-done proxy), then
        // tuple; keep at most one node per distinct score so the beam
        // stays diverse instead of filling with siblings of one strategy.
        let mass = |s: (usize, usize, usize)| s.0 + s.1 + s.2;
        pool.sort_by_key(|n| (mass(n.score), n.score, n.sg.state_count()));
        // Same score does not mean same future potential; only drop exact
        // structural footprints.
        let before_dedup = pool.len();
        pool.dedup_by_key(|n| (n.score, n.sg.state_count(), n.sg.edge_count()));
        let after_dedup = pool.len();
        pool.truncate(opts.beam_width);
        if simc_obs::counters_enabled() {
            simc_obs::add(simc_obs::Counter::BeamDeduped, (before_dedup - after_dedup) as u64);
            simc_obs::add(simc_obs::Counter::BeamPruned, (after_dedup - pool.len()) as u64);
        }
        beam = pool;
    }
    unreachable!("loop returns within the budget bound")
}

/// Races the alternative solver configurations for a beam node whose
/// primary search came up empty. All configurations run to completion —
/// racing changes wall-clock only — and the winner is the first non-empty
/// result in configuration order, so the outcome (and every counter) is
/// deterministic for any thread count.
fn portfolio_rescue(
    check: &McCheck<'_>,
    name: &str,
    opts: &ReduceOptions,
) -> Vec<search::Candidate> {
    if simc_obs::counters_enabled() {
        simc_obs::add(simc_obs::Counter::PortfolioRaces, 1);
    }
    let configs: Vec<u64> = (1..=opts.portfolio as u64).collect();
    let mut results = crate::parallel::parallel_map(&configs, opts.threads, |&config| {
        search::candidate_insertions_config(check, name, opts.max_candidates, opts.branch, config)
    });
    for (i, cands) in results.iter_mut().enumerate() {
        if !cands.is_empty() {
            if simc_obs::counters_enabled() {
                let win = match i {
                    0 => simc_obs::Counter::PortfolioWinsCfg1,
                    1 => simc_obs::Counter::PortfolioWinsCfg2,
                    _ => simc_obs::Counter::PortfolioWinsCfg3,
                };
                simc_obs::add(win, 1);
            }
            return std::mem::take(cands);
        }
    }
    Vec::new()
}

fn fresh_name(sg: &StateGraph, round: usize) -> String {
    let mut i = round;
    loop {
        let name = format!("csc{i}");
        if sg.signal_by_name(&name).is_none() {
            return name;
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{synthesize, Target};
    use simc_benchmarks::figures;
    use simc_netlist::{verify, VerifyOptions};

    #[test]
    fn already_satisfying_graphs_need_nothing() {
        for sg in [figures::toggle(), figures::c_element(), figures::figure3()] {
            let result = reduce_to_mc(&sg, ReduceOptions::default()).unwrap();
            assert_eq!(result.added, 0);
            assert_eq!(result.sg.state_count(), sg.state_count());
        }
    }

    #[test]
    fn figure1_reduces_with_one_signal_like_the_paper() {
        // Example 1: "it is sufficient to add only one signal x".
        let sg = figures::figure1();
        let result = reduce_to_mc(&sg, ReduceOptions::default()).unwrap();
        assert!(
            result.added <= 2,
            "paper adds 1 signal; allow small slack, got {}",
            result.added
        );
        assert!(McCheck::new(&result.sg).report().satisfied());
        // End-to-end Theorem 3: the reduced graph synthesizes to a
        // hazard-free standard C-implementation.
        let implementation = synthesize(&result.sg, Target::CElement).unwrap();
        let nl = implementation.to_netlist().unwrap();
        let report = verify(&nl, &result.sg, VerifyOptions::default()).unwrap();
        assert!(report.is_ok(), "{:?}", report.violations);
    }

    #[test]
    fn figure4_reduces_and_synthesizes() {
        // Example 2: "MC requirement easily recognizes this situation and
        // can remove the hazard by adding one signal."
        let sg = figures::figure4();
        let result = reduce_to_mc(&sg, ReduceOptions::default()).unwrap();
        assert!(result.added >= 1);
        assert!(result.added <= 2, "paper adds 1, got {}", result.added);
        let implementation = synthesize(&result.sg, Target::CElement).unwrap();
        let nl = implementation.to_netlist().unwrap();
        let report = verify(&nl, &result.sg, VerifyOptions::default()).unwrap();
        assert!(report.is_ok(), "{:?}", report.violations);
    }

    #[test]
    fn budget_is_respected() {
        let sg = figures::figure1();
        let opts = ReduceOptions { max_signals: 0, ..ReduceOptions::default() };
        let err = reduce_to_mc(&sg, opts).unwrap_err();
        assert!(matches!(err, McError::SignalBudgetExceeded { budget: 0 }));
    }

    #[test]
    fn log_mentions_inserted_signal() {
        let sg = figures::figure1();
        let result = reduce_to_mc(&sg, ReduceOptions::default()).unwrap();
        assert_eq!(result.log.len(), result.added);
        if let Some(first) = result.log.first() {
            assert!(first.contains("csc0"), "{first}");
        }
    }
}
