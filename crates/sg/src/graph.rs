//! The state-graph structure and its builders.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use crate::code::{StateCode, MAX_SIGNALS};
use crate::error::SgError;
use crate::props::Analysis;
use crate::regions::Regions;
use crate::signal::{Dir, Signal, SignalId, SignalKind, Transition};

/// Index of a state within a [`StateGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub(crate) u32);

impl StateId {
    /// Creates a state id from a raw index.
    pub fn new(index: usize) -> Self {
        StateId(index as u32)
    }

    /// The raw index of this state.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct StateData {
    code: StateCode,
    /// Bit `i` set iff some edge out of the state fires signal `i`.
    excited: u64,
}

/// One direction of a graph's edges in compressed rows: the edges of
/// state `s` are `edges[offsets[s]..offsets[s + 1]]`, so a whole graph's
/// adjacency is two allocations however many states it has.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Rows {
    offsets: Vec<u32>,
    edges: Vec<(Transition, StateId)>,
}

impl Rows {
    /// Row offsets over `n` states for rows sized by how often each state
    /// occurs in `rows`.
    fn offsets(n: usize, rows: impl Iterator<Item = StateId>) -> Vec<u32> {
        let mut offsets = vec![0u32; n + 1];
        for row in rows {
            offsets[row.index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        offsets
    }

    /// Files each `(row, edge)` pair into its row over `n` states,
    /// keeping the pairs' order within every row: a stable counting sort
    /// that walks `pairs` twice (once to count, once to place).
    fn grouped<I>(n: usize, pairs: I) -> Rows
    where
        I: Iterator<Item = (StateId, (Transition, StateId))> + Clone,
    {
        let offsets = Rows::offsets(n, pairs.clone().map(|(row, _)| row));
        let mut cursor = offsets[..n].to_vec();
        let placeholder = (Transition::rise(SignalId::new(0)), StateId(0));
        let mut edges = vec![placeholder; offsets[n] as usize];
        for (row, edge) in pairs {
            let slot = &mut cursor[row.index()];
            edges[*slot as usize] = edge;
            *slot += 1;
        }
        Rows { offsets, edges }
    }

    fn row(&self, s: StateId) -> &[(Transition, StateId)] {
        let i = s.index();
        &self.edges[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// A finite-automaton state graph `G = <X, S, T, δ, s0>` (Section II-A).
///
/// States carry consistent binary codes; each edge fires exactly one signal
/// transition (interleaved concurrency). Distinct states *may* share a code
/// — that is a Complete State Coding conflict, not a structural error.
///
/// Construct one with [`SgBuilder`], [`StateGraph::from_starred_codes`], or
/// the higher-level translators in the `simc-stg` crate.
///
/// Equality is structural: same signals in the same order, same codes,
/// successor and predecessor lists in the same order, same initial
/// state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateGraph {
    signals: Vec<Signal>,
    states: Vec<StateData>,
    succs: Rows,
    preds: Rows,
    initial: StateId,
}

impl StateGraph {
    /// Number of signals.
    pub fn signal_count(&self) -> usize {
        self.signals.len()
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Number of edges (fired transitions).
    pub fn edge_count(&self) -> usize {
        self.succs.edges.len()
    }

    /// The initial state `s0`.
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// All signal ids.
    pub fn signal_ids(&self) -> impl Iterator<Item = SignalId> + '_ {
        (0..self.signals.len()).map(SignalId::new)
    }

    /// All state ids.
    pub fn state_ids(&self) -> impl Iterator<Item = StateId> + '_ {
        (0..self.states.len()).map(StateId::new)
    }

    /// The description of signal `sig`.
    ///
    /// # Panics
    ///
    /// Panics if `sig` is out of range.
    pub fn signal(&self, sig: SignalId) -> &Signal {
        &self.signals[sig.index()]
    }

    /// Looks a signal up by name.
    pub fn signal_by_name(&self, name: &str) -> Option<SignalId> {
        self.signals
            .iter()
            .position(|s| s.name() == name)
            .map(SignalId::new)
    }

    /// Ids of all input signals.
    pub fn input_signals(&self) -> Vec<SignalId> {
        self.signal_ids()
            .filter(|&s| self.signal(s).kind() == SignalKind::Input)
            .collect()
    }

    /// Ids of all non-input (output and internal) signals.
    pub fn non_input_signals(&self) -> Vec<SignalId> {
        self.signal_ids()
            .filter(|&s| self.signal(s).kind().is_non_input())
            .collect()
    }

    /// The binary code of state `s`.
    pub fn code(&self, s: StateId) -> StateCode {
        self.states[s.index()].code
    }

    /// Outgoing edges of `s`: `(transition, successor)` pairs.
    pub fn succs(&self, s: StateId) -> &[(Transition, StateId)] {
        self.succs.row(s)
    }

    /// Incoming edges of `s`: `(transition, predecessor)` pairs.
    pub fn preds(&self, s: StateId) -> &[(Transition, StateId)] {
        self.preds.row(s)
    }

    /// Whether signal `sig` is *excited* in state `s` (Section II-A): some
    /// transition of `sig` is enabled there.
    pub fn is_excited(&self, s: StateId, sig: SignalId) -> bool {
        self.excited_mask(s) >> sig.index() & 1 == 1
    }

    /// The signals excited in `s` as a bit mask: bit `i` is set iff signal
    /// `i` is excited there.
    pub fn excited_mask(&self, s: StateId) -> u64 {
        self.states[s.index()].excited
    }

    /// Signals excited in `s`, in id order.
    pub fn excited(&self, s: StateId) -> Vec<SignalId> {
        let mask = self.excited_mask(s);
        self.signal_ids().filter(|sig| mask >> sig.index() & 1 == 1).collect()
    }

    /// The successor reached from `s` by firing `t`, if `t` is enabled.
    pub fn fire(&self, s: StateId, t: Transition) -> Option<StateId> {
        self.succs(s)
            .iter()
            .find(|(label, _)| *label == t)
            .map(|&(_, target)| target)
    }

    /// Renders the code of `s` with excitation stars, e.g. `1*010*`
    /// (asterisk after each excited signal's value).
    pub fn starred_code(&self, s: StateId) -> String {
        let code = self.code(s);
        let mut out = String::new();
        for i in 0..self.signal_count() {
            let sig = SignalId::new(i);
            out.push(if code.value(sig) { '1' } else { '0' });
            if self.is_excited(s, sig) {
                out.push('*');
            }
        }
        out
    }

    /// Renders a transition with the signal's *name*, e.g. `+d`.
    pub fn transition_name(&self, t: Transition) -> String {
        format!("{}{}", t.dir.sign(), self.signal(t.signal).name())
    }

    /// Fresh behavioural-analysis view of this graph (conflicts,
    /// semi-modularity, distributivity, CSC, …).
    pub fn analysis(&self) -> Analysis<'_> {
        Analysis::new(self)
    }

    /// Fresh region-analysis view of this graph (excitation/quiescent
    /// regions and everything derived from them).
    pub fn regions(&self) -> Regions {
        let span = simc_obs::span("regions");
        let regions = Regions::compute(self);
        if simc_obs::counters_enabled() {
            simc_obs::add(simc_obs::Counter::RegionDecompositions, 1);
            simc_obs::add(simc_obs::Counter::RegionsFound, regions.er_count() as u64);
        }
        span.finish();
        regions
    }

    /// Finds the state with the given plain binary code, if codes are
    /// unique. Returns the first match.
    pub fn state_by_code(&self, code: StateCode) -> Option<StateId> {
        self.states
            .iter()
            .position(|s| s.code == code)
            .map(StateId::new)
    }

    /// Builds the SG from the paper's *starred code* notation.
    ///
    /// Each entry of `codes` is a string like `1*010*` over the declared
    /// signals (first signal leftmost): the digit is the signal's value in
    /// the state, and a `*` after a digit marks the signal as excited. All
    /// states of the graph must be listed; edges are inferred by firing each
    /// excited signal and locating the resulting code. This is exactly how
    /// Figures 1, 3 and 4 of the paper define their graphs.
    ///
    /// # Errors
    ///
    /// Fails if a code is malformed or duplicated, a successor state is not
    /// listed, the initial code is unknown, or the result is inconsistent.
    pub fn from_starred_codes(
        signals: &[(&str, SignalKind)],
        codes: &[&str],
        initial: &str,
    ) -> Result<StateGraph, SgError> {
        Self::from_starred_codes_with_overrides(signals, codes, initial, &[])
    }

    /// [`StateGraph::from_starred_codes`] with explicit successors for
    /// ambiguous edges.
    ///
    /// Distinct states may share a binary code (that is how CSC conflicts
    /// look); when firing a signal could land on several listed states
    /// with the same code, the intended arc must be pinned with an
    /// override `(from, signal, to)` where `from`/`to` are the *full
    /// starred* strings from the listing (those are unique) and `signal`
    /// is the firing signal's name. The paper's Figure 4 needs two such
    /// overrides for its twin `1100` states.
    ///
    /// # Errors
    ///
    /// As [`StateGraph::from_starred_codes`], plus
    /// [`SgError::AmbiguousSuccessor`] for unresolved duplicate-code
    /// targets.
    pub fn from_starred_codes_with_overrides(
        signals: &[(&str, SignalKind)],
        codes: &[&str],
        initial: &str,
        overrides: &[(&str, &str, &str)],
    ) -> Result<StateGraph, SgError> {
        let mut builder = SgBuilder::new();
        let mut sig_ids = HashMap::new();
        for (name, kind) in signals {
            let id = builder.add_signal(name, *kind)?;
            sig_ids.insert((*name).to_string(), id);
        }
        let n = signals.len();
        let normalize = |raw: &str| raw.replace([' ', '_'], "");

        // Parse every starred code into (code, excited-set).
        let mut parsed: Vec<(StateCode, Vec<SignalId>)> = Vec::with_capacity(codes.len());
        let mut by_key: HashMap<String, usize> = HashMap::new();
        let mut by_code: HashMap<StateCode, Vec<usize>> = HashMap::new();
        for raw in codes {
            let (code, excited) = parse_starred(raw, n)?;
            if by_key.insert(normalize(raw), parsed.len()).is_some() {
                return Err(SgError::DuplicateCode((*raw).to_string()));
            }
            by_code.entry(code).or_default().push(parsed.len());
            parsed.push((code, excited));
        }

        // Index the overrides by (from-state index, firing signal).
        let mut pinned: HashMap<(usize, SignalId), usize> = HashMap::new();
        for (from, sig_name, to) in overrides {
            let &fi = by_key
                .get(&normalize(from))
                .ok_or_else(|| SgError::UnknownInitialState((*from).to_string()))?;
            let &ti = by_key
                .get(&normalize(to))
                .ok_or_else(|| SgError::UnknownInitialState((*to).to_string()))?;
            let sig = *sig_ids
                .get(*sig_name)
                .ok_or_else(|| SgError::UnknownSignal((*sig_name).to_string()))?;
            pinned.insert((fi, sig), ti);
        }

        // Intern states in listed order so ids are stable and documentable.
        let ids: Vec<StateId> = parsed
            .iter()
            .map(|(code, _)| builder.add_state(*code))
            .collect();

        // Infer edges: firing an excited signal toggles its bit.
        for (i, (code, excited)) in parsed.iter().enumerate() {
            for &sig in excited {
                let target_code = code.toggled(sig);
                let j = match pinned.get(&(i, sig)) {
                    Some(&j) => {
                        if parsed[j].0 != target_code {
                            return Err(SgError::MissingSuccessor {
                                from: (*codes)[i].to_string(),
                                expected: target_code.display(n),
                            });
                        }
                        j
                    }
                    None => {
                        let candidates = by_code.get(&target_code).map(Vec::as_slice);
                        match candidates {
                            Some([j]) => *j,
                            Some([]) | None => {
                                return Err(SgError::MissingSuccessor {
                                    from: (*codes)[i].to_string(),
                                    expected: target_code.display(n),
                                })
                            }
                            Some(_) => {
                                return Err(SgError::AmbiguousSuccessor {
                                    from: (*codes)[i].to_string(),
                                    signal: i_to_name(signals, sig),
                                })
                            }
                        }
                    }
                };
                let dir = Dir::from_value(code.value(sig));
                builder.add_edge(ids[i], Transition { signal: sig, dir }, ids[j])?;
            }
        }

        let &init_idx = by_key
            .get(&normalize(initial))
            .ok_or_else(|| SgError::UnknownInitialState(initial.to_string()))?;
        builder.set_initial(ids[init_idx]);
        builder.build()
    }

    /// Ids of states reachable from the initial state.
    pub fn reachable(&self) -> Vec<StateId> {
        let mut seen = vec![false; self.states.len()];
        let mut queue = VecDeque::new();
        seen[self.initial.index()] = true;
        queue.push_back(self.initial);
        let mut out = vec![self.initial];
        while let Some(s) = queue.pop_front() {
            for &(_, t) in self.succs(s) {
                if !seen[t.index()] {
                    seen[t.index()] = true;
                    out.push(t);
                    queue.push_back(t);
                }
            }
        }
        out
    }

    /// A shortest firing sequence from the initial state to `target`.
    ///
    /// Returns the transitions along one shortest path, or `None` if
    /// `target` is unreachable.
    pub fn trace_to(&self, target: StateId) -> Option<Vec<Transition>> {
        let mut prev: Vec<Option<(StateId, Transition)>> = vec![None; self.states.len()];
        let mut seen = vec![false; self.states.len()];
        let mut queue = VecDeque::new();
        seen[self.initial.index()] = true;
        queue.push_back(self.initial);
        while let Some(s) = queue.pop_front() {
            if s == target {
                let mut path = Vec::new();
                let mut cur = s;
                while let Some((p, t)) = prev[cur.index()] {
                    path.push(t);
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            for &(t, next) in self.succs(s) {
                if !seen[next.index()] {
                    seen[next.index()] = true;
                    prev[next.index()] = Some((s, t));
                    queue.push_back(next);
                }
            }
        }
        None
    }

    /// Exports the graph in Graphviz `dot` format with starred-code labels.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph sg {\n  rankdir=TB;\n");
        for s in self.state_ids() {
            let shape = if s == self.initial { "doublecircle" } else { "circle" };
            out.push_str(&format!(
                "  {} [label=\"{}\", shape={shape}];\n",
                s.index(),
                self.starred_code(s)
            ));
        }
        for s in self.state_ids() {
            for &(t, target) in self.succs(s) {
                out.push_str(&format!(
                    "  {} -> {} [label=\"{}\"];\n",
                    s.index(),
                    target.index(),
                    self.transition_name(t)
                ));
            }
        }
        out.push_str("}\n");
        out
    }
}

fn i_to_name(signals: &[(&str, crate::signal::SignalKind)], sig: SignalId) -> String {
    signals[sig.index()].0.to_string()
}

fn parse_starred(raw: &str, n: usize) -> Result<(StateCode, Vec<SignalId>), SgError> {
    let mut code = StateCode::zero();
    let mut excited = Vec::new();
    let mut idx = 0usize;
    let mut chars = raw.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '0' | '1' => {
                if idx >= n {
                    return Err(SgError::BadStarredCode(raw.to_string()));
                }
                let sig = SignalId::new(idx);
                code = code.with_value(sig, c == '1');
                if chars.peek() == Some(&'*') {
                    chars.next();
                    excited.push(sig);
                }
                idx += 1;
            }
            ' ' | '_' => {}
            _ => return Err(SgError::BadStarredCode(raw.to_string())),
        }
    }
    if idx != n {
        return Err(SgError::BadStarredCode(raw.to_string()));
    }
    Ok((code, excited))
}

/// Incremental builder for [`StateGraph`].
///
/// # Example
///
/// ```
/// use simc_sg::{Dir, SgBuilder, SignalKind, StateCode, Transition};
///
/// # fn main() -> Result<(), simc_sg::SgError> {
/// let mut b = SgBuilder::new();
/// let a = b.add_signal("a", SignalKind::Input)?;
/// let s0 = b.add_state(StateCode::zero());
/// let s1 = b.add_state(StateCode::zero().with_value(a, true));
/// b.add_edge(s0, Transition::rise(a), s1)?;
/// b.add_edge(s1, Transition::fall(a), s0)?;
/// b.set_initial(s0);
/// let sg = b.build()?;
/// assert_eq!(sg.state_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SgBuilder {
    signals: Vec<Signal>,
    states: Vec<StateData>,
    /// Every edge's `(transition, target)` in insertion order, and its
    /// source at the same index of `sources`.
    edges: Vec<(Transition, StateId)>,
    sources: Vec<StateId>,
    initial: Option<StateId>,
}

impl SgBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        SgBuilder::default()
    }

    /// Declares a signal; ids are assigned in declaration order.
    ///
    /// # Errors
    ///
    /// Fails on duplicate names or when exceeding the 64-signal limit.
    pub fn add_signal(&mut self, name: &str, kind: SignalKind) -> Result<SignalId, SgError> {
        if self.signals.len() >= MAX_SIGNALS {
            return Err(SgError::TooManySignals {
                requested: self.signals.len() + 1,
                max: MAX_SIGNALS,
            });
        }
        if self.signals.iter().any(|s| s.name() == name) {
            return Err(SgError::DuplicateSignal(name.to_string()));
        }
        self.signals.push(Signal::new(name, kind));
        Ok(SignalId::new(self.signals.len() - 1))
    }

    /// Adds a state with the given code and returns its id.
    pub fn add_state(&mut self, code: StateCode) -> StateId {
        self.states.push(StateData { code, excited: 0 });
        StateId::new(self.states.len() - 1)
    }

    /// Adds the edge `from --t--> to`.
    ///
    /// # Errors
    ///
    /// Fails if the codes of `from` and `to` do not differ in exactly the
    /// signal of `t`, or the direction does not match the code change.
    pub fn add_edge(&mut self, from: StateId, t: Transition, to: StateId) -> Result<(), SgError> {
        let cf = self.states[from.index()].code;
        let ct = self.states[to.index()].code;
        let n = self.signals.len();
        match cf.single_difference(ct) {
            Some(sig) if sig == t.signal => {
                let expected_dir = Dir::from_value(cf.value(sig));
                if expected_dir != t.dir {
                    return Err(SgError::MislabelledEdge {
                        label: format!("{}{}", t.dir.sign(), self.signals[sig.index()].name()),
                        from: cf.display(n),
                    });
                }
            }
            _ => {
                return Err(SgError::InconsistentEdge {
                    from: cf.display(n),
                    to: ct.display(n),
                })
            }
        }
        self.states[from.index()].excited |= 1 << t.signal.index();
        self.edges.push((t, to));
        self.sources.push(from);
        Ok(())
    }

    /// Sets the initial state (defaults to the first added state).
    pub fn set_initial(&mut self, s: StateId) {
        self.initial = Some(s);
    }

    /// Finalizes the graph. Each state's successors and predecessors
    /// keep the order in which their edges were added.
    ///
    /// # Errors
    ///
    /// Fails if no state was added or some state is unreachable from the
    /// initial state (the paper's analyses all quantify over reachable
    /// states, so we keep graphs reachable by construction).
    pub fn build(self) -> Result<StateGraph, SgError> {
        if self.states.is_empty() {
            return Err(SgError::Empty);
        }
        let initial = self.initial.unwrap_or(StateId::new(0));
        let n = self.signals.len();
        let states = self.states.len();
        assert!(u32::try_from(self.edges.len()).is_ok(), "edge count fits the u32 row offsets");
        let preds = Rows::grouped(
            states,
            self.edges.iter().zip(&self.sources).map(|(&(t, to), &from)| (to, (t, from))),
        );
        // Builders add edges state by state (breadth-first, or in file
        // order), so the insertion order usually is the successor order
        // already and the edge list becomes the rows as it is.
        let succs = if self.sources.is_sorted() {
            Rows { offsets: Rows::offsets(states, self.sources.iter().copied()), edges: self.edges }
        } else {
            Rows::grouped(states, self.sources.iter().copied().zip(self.edges.iter().copied()))
        };
        drop(self.sources);
        let sg = StateGraph { signals: self.signals, states: self.states, succs, preds, initial };
        // A depth-first sweep with both buffers sized up front: every
        // candidate expansion of the assignment search comes through here.
        let mut seen = vec![false; sg.state_count()];
        let mut stack = Vec::with_capacity(sg.state_count());
        seen[initial.index()] = true;
        stack.push(initial);
        while let Some(s) = stack.pop() {
            for &(_, t) in sg.succs(s) {
                if !seen[t.index()] {
                    seen[t.index()] = true;
                    stack.push(t);
                }
            }
        }
        if let Some(bad) = sg.state_ids().find(|s| !seen[s.index()]) {
            return Err(SgError::Unreachable(sg.code(bad).display(n)));
        }
        Ok(sg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toggle_ring() -> StateGraph {
        // a+ -> b+ -> a- -> b- ring: 00 -> 10 -> 11 -> 01 -> 00
        let mut b = SgBuilder::new();
        let a = b.add_signal("a", SignalKind::Input).unwrap();
        let bb = b.add_signal("b", SignalKind::Output).unwrap();
        let s00 = b.add_state(StateCode::zero());
        let s10 = b.add_state(StateCode::zero().with_value(a, true));
        let s11 = b.add_state(StateCode::from_bits(0b11));
        let s01 = b.add_state(StateCode::zero().with_value(bb, true));
        b.add_edge(s00, Transition::rise(a), s10).unwrap();
        b.add_edge(s10, Transition::rise(bb), s11).unwrap();
        b.add_edge(s11, Transition::fall(a), s01).unwrap();
        b.add_edge(s01, Transition::fall(bb), s00).unwrap();
        b.set_initial(s00);
        b.build().unwrap()
    }

    #[test]
    fn builder_round_trip() {
        let sg = toggle_ring();
        assert_eq!(sg.state_count(), 4);
        assert_eq!(sg.edge_count(), 4);
        assert_eq!(sg.signal_count(), 2);
        let a = sg.signal_by_name("a").unwrap();
        assert!(sg.is_excited(sg.initial(), a));
        assert_eq!(sg.excited(sg.initial()), vec![a]);
    }

    #[test]
    fn fire_follows_edges() {
        let sg = toggle_ring();
        let a = sg.signal_by_name("a").unwrap();
        let s1 = sg.fire(sg.initial(), Transition::rise(a)).unwrap();
        assert!(sg.code(s1).value(a));
        assert!(sg.fire(sg.initial(), Transition::fall(a)).is_none());
    }

    #[test]
    fn starred_code_rendering() {
        let sg = toggle_ring();
        assert_eq!(sg.starred_code(sg.initial()), "0*0");
    }

    #[test]
    fn edge_validation_rejects_jumps() {
        let mut b = SgBuilder::new();
        let a = b.add_signal("a", SignalKind::Input).unwrap();
        let _b2 = b.add_signal("b", SignalKind::Input).unwrap();
        let s0 = b.add_state(StateCode::zero());
        let s3 = b.add_state(StateCode::from_bits(0b11));
        let err = b.add_edge(s0, Transition::rise(a), s3).unwrap_err();
        assert!(matches!(err, SgError::InconsistentEdge { .. }));
    }

    #[test]
    fn edge_validation_rejects_wrong_direction() {
        let mut b = SgBuilder::new();
        let a = b.add_signal("a", SignalKind::Input).unwrap();
        let s0 = b.add_state(StateCode::zero());
        let s1 = b.add_state(StateCode::from_bits(0b1));
        let err = b.add_edge(s0, Transition::fall(a), s1).unwrap_err();
        assert!(matches!(err, SgError::MislabelledEdge { .. }));
    }

    #[test]
    fn unreachable_state_rejected() {
        let mut b = SgBuilder::new();
        let a = b.add_signal("a", SignalKind::Input).unwrap();
        let s0 = b.add_state(StateCode::zero());
        let _orphan = b.add_state(StateCode::from_bits(0b1));
        b.set_initial(s0);
        // no edges: orphan unreachable
        let err = b.build().unwrap_err();
        assert!(matches!(err, SgError::Unreachable(_)));
        let _ = a;
    }

    #[test]
    fn starred_codes_build_figure_style_graph() {
        let sg = StateGraph::from_starred_codes(
            &[("a", SignalKind::Input), ("b", SignalKind::Output)],
            &["0*0", "10*", "1*1", "01*"],
            "0*0",
        )
        .unwrap();
        assert_eq!(sg.state_count(), 4);
        assert_eq!(sg.edge_count(), 4);
        let b = sg.signal_by_name("b").unwrap();
        let s10 = sg.state_by_code(StateCode::from_bits(0b01)).unwrap(); // a=1,b=0
        assert!(sg.is_excited(s10, b));
    }

    #[test]
    fn starred_codes_reject_missing_successor() {
        let err = StateGraph::from_starred_codes(
            &[("a", SignalKind::Input)],
            &["0*"],
            "0*",
        )
        .unwrap_err();
        assert!(matches!(err, SgError::MissingSuccessor { .. }));
    }

    #[test]
    fn starred_codes_reject_duplicates_and_bad_strings() {
        let err = StateGraph::from_starred_codes(
            &[("a", SignalKind::Input)],
            &["0*", "0*"],
            "0*",
        )
        .unwrap_err();
        assert!(matches!(err, SgError::DuplicateCode(_)));
        let err = StateGraph::from_starred_codes(
            &[("a", SignalKind::Input)],
            &["2*"],
            "2*",
        )
        .unwrap_err();
        assert!(matches!(err, SgError::BadStarredCode(_)));
    }

    #[test]
    fn trace_to_finds_shortest_path() {
        let sg = toggle_ring();
        let s11 = sg.state_by_code(StateCode::from_bits(0b11)).unwrap();
        let trace = sg.trace_to(s11).unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(sg.trace_to(sg.initial()).unwrap().len(), 0);
    }

    /// Two independent inputs toggling concurrently: every state has two
    /// successors and two predecessors. The edges are added in `order`.
    fn square(order: &[usize]) -> StateGraph {
        let mut b = SgBuilder::new();
        let a = b.add_signal("a", SignalKind::Input).unwrap();
        let c = b.add_signal("c", SignalKind::Input).unwrap();
        let states: Vec<StateId> =
            (0..4).map(|bits| b.add_state(StateCode::from_bits(bits))).collect();
        let toggle = |bits: u64, sig: SignalId| {
            let dir = if bits >> sig.index() & 1 == 1 { Dir::Fall } else { Dir::Rise };
            (Transition { signal: sig, dir }, bits ^ 1 << sig.index())
        };
        let edges: Vec<(StateId, Transition, StateId)> = (0..4u64)
            .flat_map(|bits| [a, c].map(|sig| (bits, toggle(bits, sig))))
            .map(|(bits, (t, to))| (states[bits as usize], t, states[to as usize]))
            .collect();
        for &i in order {
            let (from, t, to) = edges[i];
            b.add_edge(from, t, to).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn rows_keep_insertion_order() {
        // Sources in order (the rows are the edge list as added) and out
        // of order (the counting sort), each with reversed pairs.
        for order in [[1, 0, 2, 3, 5, 4, 6, 7], [7, 2, 4, 1, 6, 0, 3, 5]] {
            let sg = square(&order);
            assert_eq!(sg.edge_count(), 8);
            let mut succs = vec![Vec::new(); 4];
            let mut preds = vec![Vec::new(); 4];
            let reference = square(&[0, 1, 2, 3, 4, 5, 6, 7]);
            for &i in &order {
                let from = StateId::new(i / 2);
                let (t, to) = reference.succs(from)[i % 2];
                succs[from.index()].push((t, to));
                preds[to.index()].push((t, from));
            }
            for s in sg.state_ids() {
                assert_eq!(sg.succs(s), succs[s.index()], "{order:?}: successors of {s}");
                assert_eq!(sg.preds(s), preds[s.index()], "{order:?}: predecessors of {s}");
            }
        }
    }

    #[test]
    fn sg_round_trip_is_structurally_equal() {
        // `parse_sg` numbers states and lists edges in the order the text
        // names them, which for a canonical graph is its own order.
        let in_order = square(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let back = crate::io::parse_sg(&crate::io::write_sg(&in_order, "square")).unwrap();
        assert_eq!(back, in_order);
        let shuffled = square(&[7, 2, 4, 1, 6, 0, 3, 5]);
        assert_ne!(shuffled, in_order, "equality compares row order");
        let canonical = crate::io::canonical_graph(&shuffled);
        assert_eq!(canonical, crate::io::canonical_graph(&in_order));
        let back = crate::io::parse_sg(&crate::io::write_sg(&canonical, "square")).unwrap();
        assert_eq!(back, canonical);
    }

    #[test]
    fn dot_export_mentions_all_states() {
        let sg = toggle_ring();
        let dot = sg.to_dot();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("0*0"));
        assert!(dot.contains("+a"));
    }
}
