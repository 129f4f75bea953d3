//! SAT search for helpful phase assignments.

use simc_sat::{Lit, SatResult, Solver, Var};
use simc_sg::{ErId, StateGraph, StateId};

use crate::assign::expand::{expand_validated, Assignment, Phase};
use crate::assign::{score_bounded, score_of_report};
use crate::cover::{McCheck, McCubeFailure};

/// Total violation mass: the search's progress measure. Strictly
/// decreasing, so insertion loops terminate.
fn sum(score: (usize, usize, usize)) -> usize {
    score.0 + score.1 + score.2
}

/// Per-state SAT variables: `v` (high side: One/Down), `e` (excited:
/// Up/Down). `Zero = (0,0)`, `Up = (0,1)`, `One = (1,0)`, `Down = (1,1)`.
struct Encoding {
    v: Vec<Var>,
    e: Vec<Var>,
}

impl Encoding {
    fn decode(&self, model: &simc_sat::Model, n: usize) -> Assignment {
        let phases = (0..n)
            .map(|i| match (model.value(self.v[i]), model.value(self.e[i])) {
                (false, false) => Phase::Zero,
                (false, true) => Phase::Up,
                (true, false) => Phase::One,
                (true, true) => Phase::Down,
            })
            .collect();
        Assignment::new(phases)
    }

    fn blocking_clause(&self, model: &simc_sat::Model, n: usize) -> Vec<Lit> {
        // The phase vector is determined by the excitation bits plus one
        // phase bit: along any edge `v[next] = v[s] ⊕ (e[s] ∧ ¬e[next])`
        // (the only v-changing transitions are Up→One and Down→Zero), and
        // reachable state graphs are connected. Blocking the e-vector and
        // a single v anchor therefore blocks exactly this assignment.
        let mut lits = vec![Lit::with_polarity(self.v[0], !model.value(self.v[0]))];
        lits.extend((0..n).map(|i| Lit::with_polarity(self.e[i], !model.value(self.e[i]))));
        lits
    }

    /// Compact memo key for one decoded assignment (2 bits per state).
    fn model_key(&self, model: &simc_sat::Model, n: usize) -> Vec<u8> {
        (0..n)
            .map(|i| u8::from(model.value(self.v[i])) | (u8::from(model.value(self.e[i])) << 1))
            .collect()
    }
}

/// Builds the base constraint system: edge-phase compatibility, the
/// input-non-delay rule, and non-trivial toggling.
fn base_solver(sg: &StateGraph) -> (Solver, Encoding) {
    let n = sg.state_count();
    let mut solver = Solver::new();
    let v: Vec<Var> = (0..n).map(|_| solver.new_var()).collect();
    let e: Vec<Var> = (0..n).map(|_| solver.new_var()).collect();

    // Edge compatibility: forbid the 8 disallowed (phase, phase) pairs.
    // In (v, e) terms the allowed relation is exactly:
    //   same phase, or one step along the cycle 00 → 01 → 10 → 11 → 00.
    let phases = [Phase::Zero, Phase::Up, Phase::One, Phase::Down];
    let bits = |p: Phase| match p {
        Phase::Zero => (false, false),
        Phase::Up => (false, true),
        Phase::One => (true, false),
        Phase::Down => (true, true),
    };
    for s in sg.state_ids() {
        for &(t, next) in sg.succs(s) {
            let is_input = !sg.signal(t.signal).kind().is_non_input();
            for &p in &phases {
                for &q in &phases {
                    let forbid = !p.allows_edge_to(q)
                        || (is_input && p.delays_edge_to(q));
                    if forbid {
                        let (pv, pe) = bits(p);
                        let (qv, qe) = bits(q);
                        solver.add_clause([
                            Lit::with_polarity(v[s.index()], !pv),
                            Lit::with_polarity(e[s.index()], !pe),
                            Lit::with_polarity(v[next.index()], !qv),
                            Lit::with_polarity(e[next.index()], !qe),
                        ]);
                    }
                }
            }
        }
    }
    // Some Up state and some Down state must exist.
    let up_aux: Vec<Var> = (0..n).map(|_| solver.new_var()).collect();
    let down_aux: Vec<Var> = (0..n).map(|_| solver.new_var()).collect();
    for i in 0..n {
        // up_aux[i] → ¬v[i] ∧ e[i]
        solver.add_clause([Lit::neg(up_aux[i]), Lit::neg(v[i])]);
        solver.add_clause([Lit::neg(up_aux[i]), Lit::pos(e[i])]);
        // down_aux[i] → v[i] ∧ e[i]
        solver.add_clause([Lit::neg(down_aux[i]), Lit::pos(v[i])]);
        solver.add_clause([Lit::neg(down_aux[i]), Lit::pos(e[i])]);
    }
    solver.add_clause(up_aux.iter().map(|&a| Lit::pos(a)));
    solver.add_clause(down_aux.iter().map(|&a| Lit::pos(a)));
    (solver, Encoding { v, e })
}

/// Adds the violation-targeting constraints for a failing region: the
/// region is phase-constant (`Zero` or `One`) and each targeted bad state
/// takes the *opposite* stable phase, so the new signal's literal
/// separates them. All clauses are guarded by `act` so the problem can be
/// retracted from the shared solver.
fn add_targeting(
    solver: &mut Solver,
    act: Lit,
    enc: &Encoding,
    check: &McCheck<'_>,
    er: ErId,
    same_side: &[StateId],
    other_side: &[StateId],
) {
    let region = check.regions().er(er);
    let first = region.states()[0];
    // Mirror symmetry break: flipping every v bit maps Zero↔One and
    // Up↔Down and preserves the base system and all relative ties, so
    // each candidate has an equal-scoring mirror twin. Pin the anchor to
    // the low side to enumerate one representative per pair.
    solver.add_clause_under(act, [Lit::neg(enc.v[first.index()])]);
    let tie = |solver: &mut Solver, s: StateId, equal: bool| {
        solver.add_clause_under(act, [Lit::neg(enc.e[s.index()])]);
        if s == first {
            return;
        }
        if equal {
            // v[s] ↔ v[first]
            solver.add_clause_under(
                act,
                [Lit::neg(enc.v[s.index()]), Lit::pos(enc.v[first.index()])],
            );
            solver.add_clause_under(
                act,
                [Lit::pos(enc.v[s.index()]), Lit::neg(enc.v[first.index()])],
            );
        } else {
            // v[s] ≠ v[first]
            solver.add_clause_under(
                act,
                [Lit::pos(enc.v[s.index()]), Lit::pos(enc.v[first.index()])],
            );
            solver.add_clause_under(
                act,
                [Lit::neg(enc.v[s.index()]), Lit::neg(enc.v[first.index()])],
            );
        }
    };
    for &s in region.states() {
        tie(solver, s, true);
    }
    for &s in same_side {
        tie(solver, s, true);
    }
    for &b in other_side {
        tie(solver, b, false);
    }
}

/// Adds the *degenerate-function* targeting (the paper's own Figure 1 →
/// Figure 3 transformation): make the new signal usable as a single
/// literal covering the whole failing excitation function correctly
/// (Section IV note 2). The regions sit at `x = 0` (literal `x̄`) and the
/// forbidden states at `x = 1`:
///
/// * every region state takes phase `Zero` or `Down` (an `x = 0` copy
///   exists and keeps the region's transition);
/// * stable-forbidden states (`0-set` for an up-function) take `One`;
/// * excited-forbidden states (the opposite excitation regions) take
///   `One`, or `Up` with all their own-signal successors at `One` — the
///   blocked low-copy edge removes the excitation from the `x = 0` copy.
///
/// The `x = 1`-region dual is the v-mirror of this system and yields
/// mirror-twin candidates with identical scores, so it is not generated.
/// All clauses are guarded by `act` so the problem can be retracted.
fn add_degenerate_targeting(
    solver: &mut Solver,
    act: Lit,
    enc: &Encoding,
    check: &McCheck<'_>,
    signal: simc_sg::SignalId,
    dir: simc_sg::Dir,
) {
    let sg = check.sg();
    let regions = check.regions();
    // Phase-literal helpers: one = (v, ¬e), zero = (¬v, ¬e),
    // up = (¬v, e), down = (v, e).
    let v = |s: StateId| enc.v[s.index()];
    let e = |s: StateId| enc.e[s.index()];

    for (_, region) in regions.ers() {
        if region.signal() != signal || region.dir() != dir {
            continue;
        }
        for &s in region.states() {
            // phase ∈ {Zero, Down}: v ↔ e
            solver.add_clause_under(act, [Lit::neg(v(s)), Lit::pos(e(s))]);
            solver.add_clause_under(act, [Lit::pos(v(s)), Lit::neg(e(s))]);
        }
    }
    // Forbidden sets (Def. 16): for an up-function, `0-set` (stable at
    // the pre-transition value) and `1*-set` (the opposite excitation
    // regions); dually for a down-function.
    for s in sg.state_ids() {
        let value = sg.code(s).value(signal);
        let excited = sg.is_excited(s, signal);
        let stable_forbidden = value == dir.value_before() && !excited;
        let excited_forbidden = value == dir.value_after() && excited;
        if stable_forbidden {
            // must be One
            solver.add_clause_under(act, [Lit::pos(v(s))]);
            solver.add_clause_under(act, [Lit::neg(e(s))]);
        } else if excited_forbidden {
            // One, or Up with every own-signal successor at One.
            let targets: Vec<StateId> = sg
                .succs(s)
                .iter()
                .filter(|(t, _)| t.signal == signal)
                .map(|&(_, t)| t)
                .collect();
            let z = solver.new_var();
            // z → Up(s) ∧ targets One
            solver.add_clause_under(act, [Lit::neg(z), Lit::neg(v(s))]);
            solver.add_clause_under(act, [Lit::neg(z), Lit::pos(e(s))]);
            for &t in &targets {
                solver.add_clause_under(act, [Lit::neg(z), Lit::pos(v(t))]);
                solver.add_clause_under(act, [Lit::neg(z), Lit::neg(e(t))]);
            }
            // One(s) ∨ z
            solver.add_clause_under(act, [Lit::pos(v(s)), Lit::pos(z)]);
            solver.add_clause_under(act, [Lit::neg(e(s)), Lit::pos(z)]);
        }
    }
}

/// Splits a set of states sharing one binary code into two stable phase
/// classes: members of `low` tie to the representative's phase, members
/// of `high` to the opposite — the direct encoding of one counter bit
/// over repeated rounds.
fn add_group_split(
    solver: &mut Solver,
    act: Lit,
    enc: &Encoding,
    low: &[StateId],
    high: &[StateId],
) {
    let first = low[0];
    // Mirror symmetry break (see `add_targeting`): pin the low half low.
    solver.add_clause_under(act, [Lit::neg(enc.v[first.index()])]);
    let tie = |solver: &mut Solver, s: StateId, equal: bool| {
        solver.add_clause_under(act, [Lit::neg(enc.e[s.index()])]);
        if s == first {
            return;
        }
        if equal {
            solver
                .add_clause_under(act, [Lit::neg(enc.v[s.index()]), Lit::pos(enc.v[first.index()])]);
            solver
                .add_clause_under(act, [Lit::pos(enc.v[s.index()]), Lit::neg(enc.v[first.index()])]);
        } else {
            solver
                .add_clause_under(act, [Lit::pos(enc.v[s.index()]), Lit::pos(enc.v[first.index()])]);
            solver
                .add_clause_under(act, [Lit::neg(enc.v[s.index()]), Lit::neg(enc.v[first.index()])]);
        }
    };
    for &s in low {
        tie(solver, s, true);
    }
    for &s in high {
        tie(solver, s, false);
    }
}

/// The multi-member binary-code groups of the graph (CSC-style conflict
/// classes), each sorted by state id (≈ cyclic order for reachability
/// numbering).
fn code_groups(sg: &StateGraph) -> Vec<Vec<StateId>> {
    let mut by_code: std::collections::HashMap<u64, Vec<StateId>> =
        std::collections::HashMap::new();
    for s in sg.state_ids() {
        by_code.entry(sg.code(s).bits()).or_default().push(s);
    }
    let mut groups: Vec<Vec<StateId>> = by_code
        .into_values()
        .filter(|g| g.len() >= 2)
        .collect();
    for g in &mut groups {
        g.sort_unstable();
    }
    groups.sort();
    groups
}

/// The states whose exclusion would fix the failure.
fn bad_states(failure: &McCubeFailure) -> Vec<StateId> {
    match failure {
        McCubeFailure::NotCorrect { covered_outside } => covered_outside.clone(),
        McCubeFailure::NotMonotonous { witness_edges } => {
            let mut v: Vec<StateId> = witness_edges.iter().map(|&(_, to)| to).collect();
            v.sort_unstable();
            v.dedup();
            v
        }
    }
}

/// One evaluated insertion candidate.
pub(super) struct Candidate {
    /// The expanded state graph.
    pub(super) sg: StateGraph,
    /// Log line describing the targeting.
    pub(super) description: String,
    /// Violation score of the expansion.
    pub(super) score: (usize, usize, usize),
}

/// Once a problem has contributed at least one pool candidate, abandon it
/// after this many consecutive models that fail to add another: targeted
/// enumerations front-load their useful models, and the post-discovery
/// tail is where the pre-incremental search burned most of its scoring
/// time. Problems that have not produced anything yet keep their full
/// `max_candidates` budget — some (e.g. the duplicator benchmark's
/// winning split) need a long run of rejected models before the first
/// useful one appears.
const STAGNATION_WINDOW: usize = 6;

/// Tries SAT-feasible assignments targeted at each failing region /
/// function and returns the `keep` best-scoring expansions (whether or
/// not they improve on the current score — the beam search decides).
pub(super) fn candidate_insertions(
    check: &McCheck<'_>,
    name: &str,
    max_candidates: usize,
    keep: usize,
) -> Vec<Candidate> {
    candidate_insertions_config(check, name, max_candidates, keep, 0)
}

/// [`candidate_insertions`] under an explicit solver configuration.
///
/// Config 0 is the primary deterministic configuration; nonzero configs
/// start each problem from a different phase bias and are raced by the
/// portfolio fallback when the primary finds no candidate at all.
pub(super) fn candidate_insertions_config(
    check: &McCheck<'_>,
    name: &str,
    max_candidates: usize,
    keep: usize,
    config: u64,
) -> Vec<Candidate> {
    let sg = check.sg();
    let report = check.report();
    let parent_score = score_of_report(&report);
    let parent_sum = sum(parent_score);
    let mut pool: Vec<Candidate> = Vec::new();

    // Each "problem" is one constraint system to enumerate candidates from.
    enum Problem {
        /// Strategy A: region-stable separation of bad states, with an
        /// optional same-side subset (bipartition).
        Separate { er: ErId, same: Vec<StateId>, others: Vec<StateId>, label: String },
        /// Strategy B: make the whole function a single x-literal
        /// (the paper's Figure 1 → Figure 3 transformation).
        Degenerate { signal: simc_sg::SignalId, dir: simc_sg::Dir, label: String },
        /// Strategy C: split a binary-code conflict group into two stable
        /// halves — one counter bit over repeated rounds.
        GroupSplit { low: Vec<StateId>, high: Vec<StateId>, label: String },
    }

    let mut problems: Vec<Problem> = Vec::new();
    // Strategy C problems first: they attack the root cause of CSC-style
    // violations and produce the balanced (binary-counter) insertions.
    for group in code_groups(sg) {
        for k in 1..group.len() {
            problems.push(Problem::GroupSplit {
                low: group[..k].to_vec(),
                high: group[k..].to_vec(),
                label: format!(
                    "code group {} split {}|{}",
                    sg.code(group[0]).display(sg.signal_count()),
                    k,
                    group.len() - k
                ),
            });
        }
        if group.len() >= 4 {
            // The alternating split: one parity bit of a round counter
            // (toggles twice per cycle — multiple up/down regions).
            let (mut low, mut high) = (Vec::new(), Vec::new());
            for (i, &s) in group.iter().enumerate() {
                if i % 2 == 0 {
                    low.push(s);
                } else {
                    high.push(s);
                }
            }
            problems.push(Problem::GroupSplit {
                low,
                high,
                label: format!(
                    "code group {} alternating split",
                    sg.code(group[0]).display(sg.signal_count())
                ),
            });
        }
    }
    for entry in report.violations() {
        let fname = format!(
            "{}{}",
            if entry.dir == simc_sg::Dir::Rise { "S" } else { "R" },
            sg.signal(entry.signal).name()
        );
        // Only the x=0-region orientation: the x=1 dual is its v-mirror
        // and would enumerate equal-scoring twins.
        problems.push(Problem::Degenerate {
            signal: entry.signal,
            dir: entry.dir,
            label: format!("{fname} as single x-literal (region at x=0)"),
        });
        if let Err(failures) = &entry.result {
            for (er, failure) in failures {
                let bad = bad_states(failure);
                let region = check.regions().er(*er);
                let head = format!(
                    "ER({}{},{}) [{}]",
                    region.dir().sign(),
                    sg.signal(region.signal()).name(),
                    region.occurrence(),
                    failure.kind()
                );
                // Bipartitions of the bad set along its (cyclic) order:
                // k = 0 separates the region from everything; middle k
                // values give balanced splits (binary round counters);
                // plus single-state separations.
                for k in 0..bad.len() {
                    problems.push(Problem::Separate {
                        er: *er,
                        same: bad[..k].to_vec(),
                        others: bad[k..].to_vec(),
                        label: head.clone(),
                    });
                }
                if bad.len() > 2 {
                    for &b in &bad {
                        problems.push(Problem::Separate {
                            er: *er,
                            same: Vec::new(),
                            others: vec![b],
                            label: head.clone(),
                        });
                    }
                }
            }
        }
    }

    // One incremental solver for the whole search: each problem's
    // targeting goes in under a fresh activation literal and is retracted
    // afterwards, so conflict clauses learned on the shared base system
    // (edge compatibility, toggling) transfer across problems instead of
    // being rediscovered from scratch per candidate.
    let sp = simc_obs::span("base_solver");
    let (mut solver, enc) = base_solver(sg);
    sp.finish();
    // Assignments already scored (problems overlap; identical phase
    // vectors expand to identical graphs and can only duplicate).
    let mut seen = std::collections::HashSet::new();
    for problem in &problems {
        let sp = simc_obs::span("targeting");
        let act = solver.activation();
        let label = match problem {
            Problem::Separate { er, same, others, label } => {
                add_targeting(&mut solver, act, &enc, check, *er, same, others);
                label
            }
            Problem::Degenerate { signal, dir, label } => {
                add_degenerate_targeting(&mut solver, act, &enc, check, *signal, *dir);
                label
            }
            Problem::GroupSplit { low, high, label } => {
                add_group_split(&mut solver, act, &enc, low, high);
                label
            }
        };
        // A fixed phase baseline per problem keeps the enumeration order
        // independent of whatever the previous problem converged to.
        solver.reset_polarities();
        if config != 0 {
            solver.scramble_polarities(0x5eed ^ config.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        }
        sp.finish();
        let mut examined = 0;
        let mut stagnant = 0;
        let mut pushed = 0usize;
        let mut solved = false;
        // Once the pool already holds `keep` candidates, later problems
        // compete only to displace them — give them a trickle budget
        // instead of the full enumeration.
        let budget =
            if pool.len() >= keep { max_candidates.min(STAGNATION_WINDOW) } else { max_candidates };
        while examined < budget && (pushed == 0 || stagnant < STAGNATION_WINDOW) {
            // The span covers enumerating one model: steering, solving,
            // blocking it and the repeat test.
            let sp = simc_obs::span("assign_sat");
            if examined % 4 == 3 {
                // Spread the enumeration across the assignment space.
                solver.scramble_polarities(0x9e37 + examined as u64 + (config << 16));
            }
            let outcome = solver.solve_with_assumptions(&[act]);
            match outcome {
                SatResult::Sat(model) => {
                    examined += 1;
                    stagnant += 1;
                    if simc_obs::counters_enabled() {
                        simc_obs::add(simc_obs::Counter::BeamModelsExamined, 1);
                    }
                    solver.add_clause_under(
                        act,
                        enc.blocking_clause(&model, sg.state_count()),
                    );
                    let fresh = seen.insert(enc.model_key(&model, sg.state_count()));
                    sp.finish();
                    if !fresh {
                        continue;
                    }
                    let sp = simc_obs::span("assign_expand");
                    let asg = enc.decode(&model, sg.state_count());
                    if asg.validate(sg).is_err() {
                        continue;
                    }
                    let expanded = expand_validated(sg, &asg, name);
                    let semimod = expanded
                        .as_ref()
                        .map(|x| x.analysis().is_output_semimodular())
                        .unwrap_or(false);
                    sp.finish();
                    let Ok(expanded) = expanded else { continue };
                    if !semimod {
                        continue;
                    }
                    // Require progress: strictly lower total violation
                    // mass, or an equal-mass step that reduces the tuple
                    // (an extra useless signal never helps). The bounded
                    // scorer aborts — and we reject — exactly when the
                    // mass exceeds the parent's.
                    let Some(new_score) = score_bounded(McCheck::new(&expanded), parent_sum)
                    else {
                        continue;
                    };
                    let improves = sum(new_score) < parent_sum
                        || (sum(new_score) == parent_sum && new_score < parent_score);
                    if !improves {
                        continue;
                    }
                    // Deduplicate candidates with identical footprints.
                    let duplicate = pool.iter().any(|c| {
                        c.score == new_score && c.sg.state_count() == expanded.state_count()
                    });
                    if duplicate {
                        continue;
                    }
                    stagnant = 0;
                    pushed += 1;
                    if new_score.0 == 0 {
                        solved = true;
                    }
                    pool.push(Candidate {
                        sg: expanded,
                        description: format!("targeting {label} → {new_score:?}"),
                        score: new_score,
                    });
                    if solved {
                        break;
                    }
                }
                SatResult::Unsat => {
                    sp.finish();
                    break;
                }
            }
        }
        solver.retract(act);
        // A fully solved graph is good enough; stop probing problems.
        if solved {
            break;
        }
    }
    pool.sort_by_key(|c| (c.score, c.sg.state_count()));
    pool.truncate(keep);
    if simc_obs::counters_enabled() {
        simc_obs::add(simc_obs::Counter::BeamCandidatesKept, pool.len() as u64);
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use simc_benchmarks::figures;

    #[test]
    fn base_solver_is_satisfiable_on_cycles() {
        let sg = figures::toggle();
        let (mut solver, enc) = base_solver(&sg);
        let result = solver.solve();
        assert!(result.is_sat());
        let model = result.model().unwrap();
        let asg = enc.decode(&model, sg.state_count());
        // Decoded assignments from the base system always validate.
        asg.validate(&sg).unwrap();
    }

    #[test]
    fn figure1_insertion_found() {
        let sg = figures::figure1();
        let check = McCheck::new(&sg);
        let current = crate::assign::score(&check);
        assert!(current.0 > 0);
        let found = candidate_insertions(&check, "x", 24, 4);
        assert!(!found.is_empty());
        let best = &found[0];
        assert_eq!(best.sg.signal_count(), 5);
        assert_eq!(best.score, (0, 0, 0));
        assert!(best.description.contains("targeting"), "{}", best.description);
    }
}
