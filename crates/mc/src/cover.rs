//! Cover cubes and the Monotonous Cover condition (Section IV).
//!
//! For an excitation region `ER(±a_j)` a *cover cube* (Def. 15) is a
//! product of literals over signals *ordered* with the region; the
//! *monotonous cover* condition (Def. 17) additionally demands that the
//! cube (1) covers the whole region, (2) changes at most once along any
//! trace inside the constant-function region, and (3) covers no reachable
//! state outside it. [`McCheck`] decides the existence of such cubes —
//! completely, via the workspace SAT solver — and produces the per-region
//! [`McReport`] that drives synthesis and MC-reduction.

use std::sync::OnceLock;

use simc_cube::Cube;
use simc_sat::{Lit, SatResult, Solver};
use simc_sg::{BitSlice, Dir, ErId, Regions, SignalId, StateGraph, StateId};

/// Why no monotonous-cover cube exists for a region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum McCubeFailure {
    /// Even the maximal (Lemma 3) cube covers reachable states outside the
    /// constant-function region — no *correct* single-cube cover exists.
    /// Typical causes: non-persistency (Theorem 1) or CSC conflicts.
    NotCorrect {
        /// Reachable states outside CFR that every candidate cube covers.
        covered_outside: Vec<StateId>,
    },
    /// Correct covers exist, but every one of them switches more than once
    /// along some trace inside the CFR (condition 2 of Def. 17).
    NotMonotonous {
        /// CFR edges `u → v` on which the maximal cube rises from 0 to 1.
        witness_edges: Vec<(StateId, StateId)>,
    },
}

impl McCubeFailure {
    /// Short human-readable tag.
    pub fn kind(&self) -> &'static str {
        match self {
            McCubeFailure::NotCorrect { .. } => "no correct cover",
            McCubeFailure::NotMonotonous { .. } => "no monotonous cover",
        }
    }
}

/// How one excitation function (`S_a` or `R_a`) is covered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FunctionCover {
    /// One monotonous cover cube per excitation region (Def. 18);
    /// `regions` and `cubes` are parallel.
    PerRegion {
        /// The covered excitation regions, in region-id order.
        regions: Vec<ErId>,
        /// The MC cube of each region.
        cubes: Vec<Cube>,
    },
    /// The paper's degenerate case (Section IV, note 2): the whole
    /// function is a single literal that covers every region *correctly*
    /// (Def. 16) — monotonicity is not required because the AND and OR
    /// gates disappear and the literal drives the latch input directly.
    SingleLiteral(Cube),
    /// An unattributed cube list (used by the Beerel–Meng-style baseline,
    /// whose minimized covers have no per-region structure).
    Plain(Vec<Cube>),
}

impl FunctionCover {
    /// The cubes of the function, in region order (a single-literal cover
    /// yields one cube). Borrowed — no per-call allocation.
    pub fn cubes(&self) -> &[Cube] {
        match self {
            FunctionCover::PerRegion { cubes, .. } => cubes,
            FunctionCover::SingleLiteral(c) => std::slice::from_ref(c),
            FunctionCover::Plain(cubes) => cubes,
        }
    }

    /// The regions attributed to the cubes (empty for the degenerate and
    /// plain forms, which carry no per-region structure).
    pub fn regions(&self) -> &[ErId] {
        match self {
            FunctionCover::PerRegion { regions, .. } => regions,
            _ => &[],
        }
    }
}

/// One excitation function's entry in an [`McReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McEntry {
    /// The function's signal.
    pub signal: SignalId,
    /// `Rise` for the up-excitation function `S_a`, `Fall` for `R_a`.
    pub dir: Dir,
    /// The function's cover, or the per-region failures when neither the
    /// per-region nor the degenerate form exists.
    pub result: Result<FunctionCover, Vec<(ErId, McCubeFailure)>>,
}

/// The outcome of checking the MC requirement (Def. 18, with the
/// degenerate-case exception of Section IV) on a state graph: one entry
/// per excitation function of each non-input signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McReport {
    entries: Vec<McEntry>,
}

impl McReport {
    /// Assembles a report from precomputed entries (the parallel driver
    /// computes them out-of-line, and artifact stores rebuild decoded
    /// reports through it). Entries must be in signal order, up before
    /// down, as produced by [`McCheck::report`].
    pub fn from_entries(entries: Vec<McEntry>) -> Self {
        McReport { entries }
    }

    /// Whether the graph satisfies the MC requirement.
    pub fn satisfied(&self) -> bool {
        self.entries.iter().all(|e| e.result.is_ok())
    }

    /// All function entries, in signal order (up before down).
    pub fn entries(&self) -> &[McEntry] {
        &self.entries
    }

    /// The entries whose functions have no valid cover.
    pub fn violations(&self) -> impl Iterator<Item = &McEntry> {
        self.entries.iter().filter(|e| e.result.is_err())
    }

    /// Number of violating functions.
    pub fn violation_count(&self) -> usize {
        self.violations().count()
    }

    /// All region-level failures across violating functions.
    pub fn region_failures(&self) -> Vec<(ErId, &McCubeFailure)> {
        self.entries
            .iter()
            .filter_map(|e| e.result.as_ref().err())
            .flatten()
            .map(|(er, f)| (*er, f))
            .collect()
    }

    /// Renders the report with signal names, one function per line.
    pub fn render(&self, sg: &StateGraph) -> String {
        let names: Vec<&str> = sg.signal_ids().map(|s| sg.signal(s).name()).collect();
        let mut out = String::new();
        for e in &self.entries {
            let head = format!(
                "{}{}",
                if e.dir == Dir::Rise { "S" } else { "R" },
                sg.signal(e.signal).name()
            );
            match &e.result {
                Ok(FunctionCover::SingleLiteral(c)) => {
                    out.push_str(&format!("{head} = {} (direct)\n", c.render(&names)));
                }
                Ok(cover) => {
                    let cubes: Vec<String> =
                        cover.cubes().iter().map(|c| c.render(&names)).collect();
                    out.push_str(&format!("{head} = {}\n", cubes.join(" + ")));
                }
                Err(failures) => {
                    let kinds: Vec<&str> = failures.iter().map(|(_, f)| f.kind()).collect();
                    out.push_str(&format!("{head}: VIOLATION ({})\n", kinds.join(", ")));
                    for (_, failure) in failures {
                        match failure {
                            McCubeFailure::NotCorrect { covered_outside } => {
                                let codes: Vec<String> = covered_outside
                                    .iter()
                                    .take(4)
                                    .map(|&s| sg.starred_code(s))
                                    .collect();
                                out.push_str(&format!(
                                    "    covers outside CFR: {}{}\n",
                                    codes.join(", "),
                                    if covered_outside.len() > 4 { ", …" } else { "" }
                                ));
                            }
                            McCubeFailure::NotMonotonous { witness_edges } => {
                                if let Some(&(u, v)) = witness_edges.first() {
                                    out.push_str(&format!(
                                        "    re-rises inside CFR on {} -> {}\n",
                                        sg.starred_code(u),
                                        sg.starred_code(v)
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// Monotonous-cover analysis of a state graph.
///
/// Owns the region decomposition; ask it for cover cubes region by region
/// or for the whole-graph [`McReport`].
///
/// Alongside the regions it keeps two word columns per signal: the states
/// where the signal is 1 and the states where it is excited, laid out as
/// [`simc_sg::BitSet`] words. The set of states a cube covers is then the
/// AND of one column (or its complement) per literal, and the whole-graph
/// conditions of Defs. 16 and 17 are a few word operations against the
/// region sets instead of a walk over every state.
#[derive(Debug)]
pub struct McCheck<'g> {
    sg: &'g StateGraph,
    regions: Regions,
    /// Signal `b`'s value-1 column is the `words`-long run at word
    /// `2 * b * words` (`words` per state set), its excited column the run
    /// after it. Built by the first check that needs them, so building a
    /// checker costs only the region decomposition.
    columns: OnceLock<Vec<u64>>,
}

impl<'g> McCheck<'g> {
    /// Computes the region decomposition of `sg`.
    pub fn new(sg: &'g StateGraph) -> Self {
        McCheck::from_parts(sg, sg.regions())
    }

    /// Builds a checker from a precomputed region decomposition of the
    /// same graph (e.g. one revived from an artifact store), skipping the
    /// recompute that [`McCheck::new`] performs.
    pub fn from_parts(sg: &'g StateGraph, regions: Regions) -> Self {
        debug_assert!(regions.ers().all(|(_, er)| er
            .states()
            .iter()
            .all(|s| s.index() < sg.state_count())));
        McCheck { sg, regions, columns: OnceLock::new() }
    }

    /// The underlying state graph.
    pub fn sg(&self) -> &StateGraph {
        self.sg
    }

    /// The region decomposition.
    pub fn regions(&self) -> &Regions {
        &self.regions
    }

    /// The candidate literals for cover cubes of `er` (Def. 15): one per
    /// signal ordered with the region, with the value the signal holds
    /// throughout it.
    pub fn candidate_literals(&self, er: ErId) -> Vec<(SignalId, bool)> {
        let region = self.regions.er(er);
        let representative = region.states()[0];
        self.regions
            .ordered_signals(self.sg, er)
            .into_iter()
            .map(|b| (b, self.sg.code(representative).value(b)))
            .collect()
    }

    /// The smallest cover cube (Lemma 3): the minterm of the minimal state
    /// with the region's own signal and all concurrent signals deleted —
    /// equivalently, all candidate literals at once. Its care set is the
    /// complement of the region's excitation mask.
    pub fn lemma3_cube(&self, er: ErId) -> Cube {
        let region = self.regions.er(er);
        let signals = u64::MAX >> (64 - self.sg.signal_count().max(1));
        let own = 1u64 << region.signal().index();
        let care = signals & !own & !self.regions.excitation_mask(self.sg, er);
        Cube::from_masks(care, self.sg.code(region.states()[0]).bits())
    }

    /// Whether `cube` covers state `s` (by its binary code).
    pub fn covers_state(&self, cube: Cube, s: StateId) -> bool {
        cube.covers(self.sg.code(s).bits())
    }

    /// The word columns of every signal.
    fn columns(&self) -> Columns<'_> {
        let sg = self.sg;
        let words = sg.state_count().div_ceil(64);
        let columns = self.columns.get_or_init(|| {
            let mut columns = vec![0u64; 2 * sg.signal_count() * words];
            for s in sg.state_ids() {
                let (word, bit) = (s.index() / 64, 1u64 << (s.index() % 64));
                for (column, mut signals) in [(0, sg.code(s).bits()), (1, sg.excited_mask(s))] {
                    while signals != 0 {
                        let b = signals.trailing_zeros() as usize;
                        columns[(2 * b + column) * words + word] |= bit;
                        signals &= signals - 1;
                    }
                }
            }
            columns
        });
        Columns { columns, words, state_count: sg.state_count() }
    }

    /// The reachable states outside `CFR(er)` that `cube` covers, in
    /// ascending order — condition (3) of Def. 17 fails exactly when
    /// this is non-empty.
    pub fn covered_outside(&self, er: ErId, cube: Cube) -> Vec<StateId> {
        let columns = self.columns();
        let cfr = self.regions.cfr_set(er).words();
        let mut out = Vec::new();
        for (word, &inside) in cfr.iter().enumerate() {
            let mut bits = columns.covered(cube, word) & !inside;
            while bits != 0 {
                out.push(StateId::new(64 * word + bits.trailing_zeros() as usize));
                bits &= bits - 1;
            }
        }
        out
    }

    /// Correct covering (Def. 16): an up-cube must not cover `1*-set(a) ∪
    /// 0-set(a)`; a down-cube must not cover `0*-set(a) ∪ 1-set(a)`.
    pub fn is_correct_cover(&self, er: ErId, cube: Cube) -> bool {
        let region = self.regions.er(er);
        let a = region.signal().index();
        let rising = region.dir() == Dir::Rise;
        let columns = self.columns();
        (0..columns.words).all(|word| {
            // Rising: value and excitation agree (1* or 0); falling: they
            // differ (0* or 1).
            let differ = columns.ones(a, word) ^ columns.excited(a, word);
            let forbidden = if rising { !differ } else { differ };
            columns.covered(cube, word) & forbidden == 0
        })
    }

    /// Monotonous cover (Def. 17): covers all of ER, switches at most once
    /// along any trace inside CFR, covers nothing reachable outside CFR.
    pub fn is_monotonous_cover(&self, er: ErId, cube: Cube) -> bool {
        let ok = self.is_monotonous_cover_inner(er, cube);
        if simc_obs::counters_enabled() {
            simc_obs::add(simc_obs::Counter::CoverCubesChecked, 1);
            if !ok {
                simc_obs::add(simc_obs::Counter::CoverCubesRejected, 1);
            }
        }
        ok
    }

    fn is_monotonous_cover_inner(&self, er: ErId, cube: Cube) -> bool {
        let in_er = self.regions.er_set(er).words();
        let in_cfr = self.regions.cfr_set(er);
        let columns = self.columns();
        // (1) covers every ER state and (3) covers no reachable state
        // outside CFR.
        let whole = in_er.iter().zip(in_cfr.words()).enumerate().all(|(word, (&er, &cfr))| {
            let covered = columns.covered(cube, word);
            er & !covered == 0 && covered & !cfr == 0
        });
        // (2) no 0 → 1 switch on an edge inside CFR (the cube starts at 1
        // in ER, so this limits it to a single 1 → 0 change per trace).
        whole && self.rising_edges(in_cfr, cube).next().is_none()
    }

    /// Finds a monotonous cover cube for `er`, preferring few literals.
    ///
    /// Complete: if the maximal (Lemma 3) cube is not itself monotonous, a
    /// SAT search decides whether *any* subset of the candidate literals
    /// yields an MC cube.
    ///
    /// # Errors
    ///
    /// Returns the precise [`McCubeFailure`] when no MC cube exists.
    pub fn mc_cube(&self, er: ErId) -> Result<Cube, McCubeFailure> {
        self.mc_cube_unminimised(er).map(|cube| self.minimize_literals(er, cube))
    }

    /// [`McCheck::mc_cube`] before its literal minimisation: the verdict,
    /// with the Lemma 3 cube or the SAT search's cube on success.
    fn mc_cube_unminimised(&self, er: ErId) -> Result<Cube, McCubeFailure> {
        let full = self.lemma3_cube(er);
        // Condition (3) for the maximal cube: any candidate cube covers a
        // superset of its states, so a violation here is unfixable.
        let covered_outside = self.covered_outside(er, full);
        if !covered_outside.is_empty() {
            return Err(McCubeFailure::NotCorrect { covered_outside });
        }
        if self.is_monotonous_cover(er, full) {
            return Ok(full);
        }
        // The maximal cube fails only condition (2); search literal
        // subsets with SAT.
        let in_cfr = self.regions.cfr_set(er);
        self.sat_search(er, in_cfr).ok_or_else(|| McCubeFailure::NotMonotonous {
            witness_edges: self.rising_edges(in_cfr, full).collect(),
        })
    }

    /// Covers one excitation function: per-region MC cubes (Def. 18), or
    /// the degenerate single-literal form when those fail.
    pub fn function_cover(
        &self,
        a: SignalId,
        dir: Dir,
    ) -> Result<FunctionCover, Vec<(ErId, McCubeFailure)>> {
        let ers = self.function_ers(a, dir);
        let cubes = match self.verdict(&ers, a) {
            Verdict::Regions(cubes) => cubes,
            Verdict::Degenerate(lit) => return Ok(FunctionCover::SingleLiteral(lit)),
            Verdict::Failed(failures) => return Err(failures),
        };
        let cubes: Vec<Cube> =
            ers.iter().zip(cubes).map(|(&er, cube)| self.minimize_literals(er, cube)).collect();
        // Prefer the degenerate single-literal form when it is strictly
        // cheaper — the paper's own equations do (e.g. `Rx = a` in
        // equations (2)): the AND and OR gates disappear and the literal
        // drives the latch directly.
        let per_region_literals: u32 = {
            let mut distinct: Vec<Cube> = Vec::new();
            for &c in &cubes {
                if !distinct.contains(&c) {
                    distinct.push(c);
                }
            }
            distinct.iter().map(|c| c.literal_count()).sum()
        };
        if per_region_literals > 1 {
            if let Some(lit) = self.degenerate_literal(&ers, a) {
                return Ok(FunctionCover::SingleLiteral(lit));
            }
        }
        Ok(FunctionCover::PerRegion { regions: ers, cubes })
    }

    /// The verdict of [`McCheck::function_cover`] alone: the same
    /// per-region failures when the function has no cover, and `Ok`
    /// whenever it has one — without minimising the cubes or looking for
    /// a cheaper degenerate form, which only shape the cover itself.
    ///
    /// # Errors
    ///
    /// Returns exactly the failures [`McCheck::function_cover`] returns.
    pub fn function_failures(
        &self,
        a: SignalId,
        dir: Dir,
    ) -> Result<(), Vec<(ErId, McCubeFailure)>> {
        match self.verdict(&self.function_ers(a, dir), a) {
            Verdict::Failed(failures) => Err(failures),
            Verdict::Regions(_) | Verdict::Degenerate(_) => Ok(()),
        }
    }

    /// The regions of the excitation function `a`, `dir`, in id order.
    fn function_ers(&self, a: SignalId, dir: Dir) -> Vec<ErId> {
        self.regions
            .ers_of_signal(a)
            .iter()
            .copied()
            .filter(|&id| self.regions.er(id).dir() == dir)
            .collect()
    }

    /// Whether the function of signal `a` over `ers` has a cover: every
    /// region's unminimised MC cube, or else the degenerate literal.
    fn verdict(&self, ers: &[ErId], a: SignalId) -> Verdict {
        let mut cubes = Vec::with_capacity(ers.len());
        let mut failures = Vec::new();
        for &er in ers {
            match self.mc_cube_unminimised(er) {
                Ok(cube) => cubes.push(cube),
                Err(f) => failures.push((er, f)),
            }
        }
        if failures.is_empty() {
            return Verdict::Regions(cubes);
        }
        match self.degenerate_literal(ers, a) {
            Some(lit) => Verdict::Degenerate(lit),
            None => Verdict::Failed(failures),
        }
    }

    /// The degenerate form: a single literal constant across every region
    /// of the function and correct for each (Section IV, note 2).
    fn degenerate_literal(&self, ers: &[ErId], a: SignalId) -> Option<Cube> {
        let first = self.regions.er(*ers.first()?).states()[0];
        let columns = self.columns();
        'sig: for b in self.sg.signal_ids() {
            if b == a {
                continue;
            }
            // b must hold one value throughout every region.
            let value = self.sg.code(first).value(b);
            for &er in ers {
                for (word, &inside) in self.regions.er_set(er).words().iter().enumerate() {
                    let ones = columns.ones(b.index(), word);
                    if inside & if value { !ones } else { ones } != 0 {
                        continue 'sig;
                    }
                }
            }
            // b must also be ordered with every region (no b transition
            // inside — otherwise the wire's change would race the region).
            if !ers.iter().all(|&er| self.regions.is_ordered(self.sg, er, b)) {
                continue;
            }
            let cube = Cube::top().with_literal(b.index(), value);
            if ers.iter().all(|&er| self.is_correct_cover(er, cube)) {
                if simc_obs::counters_enabled() {
                    simc_obs::add(simc_obs::Counter::CoverDegenerate, 1);
                }
                return Some(cube);
            }
        }
        None
    }

    /// Checks the whole-graph MC requirement (Def. 18 with the degenerate
    /// exception) over the excitation functions of non-input signals.
    pub fn report(&self) -> McReport {
        let _span = simc_obs::span("cover");
        let mut entries = Vec::new();
        for a in self.sg.non_input_signals() {
            for dir in [Dir::Rise, Dir::Fall] {
                entries.push(McEntry {
                    signal: a,
                    dir,
                    result: self.function_cover(a, dir),
                });
            }
        }
        McReport { entries }
    }

    // -- internals ----------------------------------------------------------

    /// The CFR edges `u → v` on which `cube` rises from 0 to 1, in CFR
    /// order then successor order.
    fn rising_edges<'a>(
        &'a self,
        in_cfr: BitSlice<'a>,
        cube: Cube,
    ) -> impl Iterator<Item = (StateId, StateId)> + 'a {
        in_cfr.iter().filter(move |&u| !self.covers_state(cube, u)).flat_map(move |u| {
            self.sg
                .succs(u)
                .iter()
                .filter(move |&&(_, v)| in_cfr.contains(v) && self.covers_state(cube, v))
                .map(move |&(_, v)| (u, v))
        })
    }

    /// SAT model: one variable per candidate literal; a state's
    /// *disagreement set* D(s) is the set of candidate literals whose
    /// polarity `s` violates. Constraints:
    /// * every reachable state outside CFR must be excluded: `∨ D(s)`;
    /// * monotonicity per CFR edge `u → v`: excluding `u` forces excluding
    ///   `v` (`¬l ∨ ∨ D(v)` for each `l ∈ D(u)`).
    ///
    /// Disagreement sets are precomputed as per-state bitmasks in one pass
    /// over the codes, so clause generation walks words, not signals.
    fn sat_search(&self, er: ErId, in_cfr: BitSlice<'_>) -> Option<Cube> {
        if simc_obs::counters_enabled() {
            simc_obs::add(simc_obs::Counter::CoverSatSearches, 1);
        }
        let candidates = self.candidate_literals(er);
        if candidates.is_empty() {
            return None;
        }
        let mut solver = Solver::new();
        let vars: Vec<simc_sat::Var> =
            candidates.iter().map(|_| solver.new_var()).collect();
        let masks = DisagreementMasks::compute(self.sg, &candidates);
        for s in self.sg.state_ids() {
            if in_cfr.contains(s) {
                continue;
            }
            if masks.is_empty(s) {
                return None; // state agrees with every literal: uncoverable
            }
            solver.add_clause(masks.bits(s).map(|i| Lit::pos(vars[i])));
        }
        for u in in_cfr.iter() {
            if masks.is_empty(u) {
                continue;
            }
            for &(_, v) in self.sg.succs(u) {
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
        match solver.solve() {
            SatResult::Sat(model) => {
                let mut cube = Cube::top();
                for (i, &(sig, value)) in candidates.iter().enumerate() {
                    if model.value(vars[i]) {
                        cube = cube.with_literal(sig.index(), value);
                    }
                }
                debug_assert!(self.is_monotonous_cover(er, cube));
                Some(cube)
            }
            SatResult::Unsat => None,
        }
    }

    /// Greedily drops literals while the cube stays monotonous (smaller
    /// AND gates; larger cubes only extend into don't-care space).
    fn minimize_literals(&self, er: ErId, mut cube: Cube) -> Cube {
        let literals: Vec<(usize, bool)> = cube.literals().collect();
        for (var, _) in literals {
            let widened = cube.without_literal(var);
            if self.is_monotonous_cover(er, widened) {
                cube = widened;
            }
        }
        cube
    }
}

/// A borrowed view of [`McCheck`]'s word columns.
struct Columns<'a> {
    columns: &'a [u64],
    words: usize,
    state_count: usize,
}

impl Columns<'_> {
    /// Word `word` of the states where signal `b` is 1.
    fn ones(&self, b: usize, word: usize) -> u64 {
        self.columns[2 * b * self.words + word]
    }

    /// Word `word` of the states where signal `b` is excited.
    fn excited(&self, b: usize, word: usize) -> u64 {
        self.columns[(2 * b + 1) * self.words + word]
    }

    /// Word `word` of the set of states `cube` covers: the AND of one
    /// value column, or its complement, per literal.
    fn covered(&self, cube: Cube, word: usize) -> u64 {
        let rest = self.state_count - 64 * word;
        let mut covered = if rest >= 64 { u64::MAX } else { (1 << rest) - 1 };
        let mut literals = cube.care_mask();
        while literals != 0 {
            let b = literals.trailing_zeros() as usize;
            let ones = self.ones(b, word);
            covered &= if cube.value_mask() >> b & 1 == 1 { ones } else { !ones };
            literals &= literals - 1;
        }
        covered
    }
}

/// Whether one excitation function has a cover, and which form carries it.
enum Verdict {
    /// Every region has an MC cube (unminimised, parallel to its regions).
    Regions(Vec<Cube>),
    /// Some region has none, but the degenerate literal covers them all.
    Degenerate(Cube),
    /// No cover: the failing regions.
    Failed(Vec<(ErId, McCubeFailure)>),
}

/// Per-state disagreement sets over a fixed candidate-literal list,
/// packed as bitmasks: bit `i` of state `s`'s mask is set when `s`
/// violates candidate literal `i`. Computed in one pass over the codes;
/// shared by the single-region and generalized SAT searches.
pub(crate) struct DisagreementMasks {
    words: usize,
    masks: Vec<u64>,
}

impl DisagreementMasks {
    pub(crate) fn compute(sg: &StateGraph, candidates: &[(SignalId, bool)]) -> Self {
        let words = candidates.len().div_ceil(64).max(1);
        let mut masks = vec![0u64; sg.state_count() * words];
        for s in sg.state_ids() {
            let code = sg.code(s);
            let mask = &mut masks[s.index() * words..][..words];
            for (i, &(sig, value)) in candidates.iter().enumerate() {
                if code.value(sig) != value {
                    mask[i / 64] |= 1 << (i % 64);
                }
            }
        }
        DisagreementMasks { words, masks }
    }

    fn mask(&self, s: StateId) -> &[u64] {
        &self.masks[s.index() * self.words..][..self.words]
    }

    /// Whether `s` agrees with every candidate literal.
    pub(crate) fn is_empty(&self, s: StateId) -> bool {
        self.mask(s).iter().all(|&w| w == 0)
    }

    /// The candidate-literal indices `s` disagrees with, ascending.
    pub(crate) fn bits(&self, s: StateId) -> impl Iterator<Item = usize> + '_ {
        self.mask(s).iter().enumerate().flat_map(|(wi, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(wi * 64 + bit)
            })
        })
    }
}

/// Convenience: the excitation regions of signal `a` grouped as in the
/// paper's notation, `(up regions, down regions)`.
pub fn up_down_regions(regions: &Regions, a: SignalId) -> (Vec<ErId>, Vec<ErId>) {
    let mut up = Vec::new();
    let mut down = Vec::new();
    for (id, er) in regions.ers() {
        if er.signal() == a {
            match er.dir() {
                Dir::Rise => up.push(id),
                Dir::Fall => down.push(id),
            }
        }
    }
    (up, down)
}

#[allow(dead_code)]
fn _assert_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<McReport>();
    check::<McCubeFailure>();
    check::<FunctionCover>();
    // The parallel driver shares one `McCheck` across worker threads.
    check::<McCheck<'static>>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use simc_benchmarks::figures;

    fn names(sg: &StateGraph) -> Vec<String> {
        sg.signal_ids()
            .map(|s| sg.signal(s).name().to_string())
            .collect()
    }

    fn er_of(check: &McCheck, name: &str, dir: Dir, occ: u32) -> ErId {
        let sig = check.sg().signal_by_name(name).unwrap();
        check
            .regions()
            .ers()
            .find(|(_, er)| er.signal() == sig && er.dir() == dir && er.occurrence() == occ)
            .map(|(id, _)| id)
            .unwrap()
    }

    #[test]
    fn toggle_satisfies_mc() {
        let sg = figures::toggle();
        let check = McCheck::new(&sg);
        let report = check.report();
        assert!(report.satisfied(), "{}", report.render(&sg));
        // ER(+b) gets cube `a`, ER(-b) gets cube `a'`.
        let up = er_of(&check, "b", Dir::Rise, 1);
        let cube = check.mc_cube(up).unwrap();
        assert_eq!(cube.render(&names(&sg)), "a");
        let down = er_of(&check, "b", Dir::Fall, 1);
        let cube = check.mc_cube(down).unwrap();
        assert_eq!(cube.render(&names(&sg)), "a'");
        // Function-level view agrees.
        let b = sg.signal_by_name("b").unwrap();
        let cover = check.function_cover(b, Dir::Rise).unwrap();
        assert_eq!(cover.cubes().len(), 1);
    }

    #[test]
    fn c_element_satisfies_mc() {
        let sg = figures::c_element();
        let check = McCheck::new(&sg);
        let report = check.report();
        assert!(report.satisfied(), "{}", report.render(&sg));
        let up = er_of(&check, "c", Dir::Rise, 1);
        assert_eq!(check.mc_cube(up).unwrap().render(&names(&sg)), "a b");
        let down = er_of(&check, "c", Dir::Fall, 1);
        assert_eq!(check.mc_cube(down).unwrap().render(&names(&sg)), "a' b'");
    }

    #[test]
    fn figure1_violates_mc_at_plus_d() {
        // Example 1: ER(+d,1) cannot be covered by one cube — +a is a
        // non-persistent trigger, so the Lemma 3 cube (only literal b')
        // covers quiescent-0 states and fails condition (3).
        let sg = figures::figure1();
        let check = McCheck::new(&sg);
        let report = check.report();
        assert!(!report.satisfied());
        let up1 = er_of(&check, "d", Dir::Rise, 1);
        match check.mc_cube(up1) {
            Err(McCubeFailure::NotCorrect { covered_outside }) => {
                assert!(!covered_outside.is_empty());
            }
            other => panic!("expected NotCorrect, got {other:?}"),
        }
    }

    #[test]
    fn figure1_lemma3_cube_of_plus_d_is_b_bar() {
        // Signals a and c change inside ER(+d,1); only b (at 0) is ordered.
        let sg = figures::figure1();
        let check = McCheck::new(&sg);
        let up1 = er_of(&check, "d", Dir::Rise, 1);
        let cube = check.lemma3_cube(up1);
        assert_eq!(cube.render(&names(&sg)), "b'");
    }

    #[test]
    fn figure3_satisfies_mc() {
        // After inserting x, every excitation function has a valid cover.
        let sg = figures::figure3();
        let check = McCheck::new(&sg);
        let report = check.report();
        assert!(report.satisfied(), "{}", report.render(&sg));
    }

    #[test]
    fn figure3_matches_paper_equations() {
        // Equations (2): `d = x̄` is the paper's degenerate direct
        // connection — the up-excitation function of d is the single
        // literal x' (covering both up-regions correctly), and Rd is the
        // literal x. Sx's maximal cube is a'b'c'd (the paper prints `abc`
        // with lost overbars and minimizes away d).
        let sg = figures::figure3();
        let check = McCheck::new(&sg);
        let n = names(&sg);
        let d = sg.signal_by_name("d").unwrap();
        match check.function_cover(d, Dir::Rise) {
            Ok(FunctionCover::SingleLiteral(c)) => {
                assert_eq!(c.render(&n), "x'");
            }
            other => panic!("Sd should be the direct literal x', got {other:?}"),
        }
        match check.function_cover(d, Dir::Fall) {
            Ok(FunctionCover::SingleLiteral(c)) => assert_eq!(c.render(&n), "x"),
            Ok(FunctionCover::PerRegion { cubes, .. }) => {
                assert_eq!(cubes.len(), 1);
                assert_eq!(cubes[0].render(&n), "x");
            }
            other => panic!("Rd should be the literal x, got {other:?}"),
        }
        let x_up = er_of(&check, "x", Dir::Rise, 1);
        let cube = check.mc_cube(x_up).unwrap();
        let lemma3 = check.lemma3_cube(x_up);
        assert_eq!(lemma3.render(&n), "a' b' c' d", "maximal cube");
        assert!(cube.contains(lemma3) || cube == lemma3);
    }

    #[test]
    fn figure4_violates_mc_but_is_persistent() {
        // Example 2: persistent SG where Beerel-style correct covers exist
        // but cube `a` covers state 1001 of ER(+b,2) — conditions (3)
        // fails for ER(+b,1)'s only candidates.
        let sg = figures::figure4();
        let check = McCheck::new(&sg);
        assert!(check.regions().is_output_persistent(&sg));
        let report = check.report();
        assert!(!report.satisfied(), "{}", report.render(&sg));
        let up1 = er_of(&check, "b", Dir::Rise, 1);
        let failure = check.mc_cube(up1).unwrap_err();
        match failure {
            McCubeFailure::NotCorrect { covered_outside } => {
                // State 1001 (a=1, b=0, c=0, d=1) of ER(+b,2) is covered.
                let hit = covered_outside
                    .iter()
                    .any(|&s| sg.code(s).bits() == 0b1001);
                assert!(hit, "expected state 1001 among {covered_outside:?}");
            }
            other => panic!("expected NotCorrect, got {other:?}"),
        }
    }

    #[test]
    fn theorem4_mc_implies_csc() {
        // Every MC-satisfying example must satisfy CSC.
        for sg in [figures::toggle(), figures::c_element(), figures::figure3()] {
            let check = McCheck::new(&sg);
            if check.report().satisfied() {
                assert!(sg.analysis().has_csc());
            }
        }
    }

    #[test]
    fn corollary1_mc_implies_persistency() {
        for sg in [figures::toggle(), figures::c_element(), figures::figure3()] {
            let check = McCheck::new(&sg);
            if check.report().satisfied() {
                assert!(check.regions().is_output_persistent(&sg));
            }
        }
    }

    #[test]
    fn correct_cover_definition() {
        let sg = figures::toggle();
        let check = McCheck::new(&sg);
        let up = er_of(&check, "b", Dir::Rise, 1);
        let a = sg.signal_by_name("a").unwrap();
        let good = Cube::top().with_literal(a.index(), true);
        assert!(check.is_correct_cover(up, good));
        // The universal cube covers 0-set states: incorrect.
        assert!(!check.is_correct_cover(up, Cube::top()));
    }

    #[test]
    fn report_renders() {
        let sg = figures::figure1();
        let text = McCheck::new(&sg).report().render(&sg);
        assert!(text.contains("Sd"), "{text}");
        assert!(text.contains("VIOLATION"), "{text}");
    }

    #[test]
    fn region_failures_point_at_ers() {
        let sg = figures::figure1();
        let check = McCheck::new(&sg);
        let report = check.report();
        let failures = report.region_failures();
        assert!(!failures.is_empty());
    }

    #[test]
    fn up_down_grouping() {
        let sg = figures::figure1();
        let check = McCheck::new(&sg);
        let d = sg.signal_by_name("d").unwrap();
        let (up, down) = up_down_regions(check.regions(), d);
        assert_eq!(up.len(), 2);
        assert_eq!(down.len(), 1);
    }
}
