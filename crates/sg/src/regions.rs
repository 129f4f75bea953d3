//! Region analysis: excitation, quiescent and constant-function regions
//! (Definitions 5–12 of the paper).

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::bitset::BitSet;
use crate::graph::{StateGraph, StateId};
use crate::signal::{Dir, SignalId, Transition};

/// Index of an excitation region within a [`Regions`] analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ErId(pub(crate) u32);

impl ErId {
    /// Creates a region id from a raw index (as reported by
    /// [`ErId::index`]). Region ids are only meaningful relative to the
    /// [`Regions`] analysis they came from; this constructor exists so
    /// external artifact stores can round-trip region-attributed data.
    pub fn new(index: usize) -> Self {
        ErId(index as u32)
    }

    /// The raw index of this region.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An excitation region `ER(±a_j)` (Definition 5): a maximal connected set
/// of states in which signal `a` has the same value and is excited.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExcitationRegion {
    signal: SignalId,
    dir: Dir,
    occurrence: u32,
    states: Vec<StateId>,
}

impl ExcitationRegion {
    /// The excited signal `a`.
    pub fn signal(&self) -> SignalId {
        self.signal
    }

    /// Direction of the pending transition (`+a` or `-a`).
    pub fn dir(&self) -> Dir {
        self.dir
    }

    /// The transition label `±a` this region corresponds to.
    pub fn transition(&self) -> Transition {
        Transition { signal: self.signal, dir: self.dir }
    }

    /// 1-based occurrence index `j` distinguishing multiple transitions of
    /// the same signal and direction (deterministic but arbitrary order).
    pub fn occurrence(&self) -> u32 {
        self.occurrence
    }

    /// The states of the region, sorted by id.
    pub fn states(&self) -> &[StateId] {
        &self.states
    }

    /// Whether `s` belongs to the region.
    pub fn contains(&self, s: StateId) -> bool {
        self.states.binary_search(&s).is_ok()
    }

    /// Number of states in the region.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the region is empty (never true for computed regions).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

/// Region analysis of a [`StateGraph`]. Obtain via [`StateGraph::regions`].
///
/// Holds every excitation region of every signal together with the derived
/// quiescent regions, and answers the ordering/trigger/persistency queries
/// of Section II-B.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Regions {
    ers: Vec<ExcitationRegion>,
    /// Quiescent region per ER, parallel to `ers` (may be empty).
    qrs: Vec<Vec<StateId>>,
    /// Constant-function region `ER ∪ QR` per ER, sorted, parallel to
    /// `ers` — cached here because cover checking queries it constantly.
    cfrs: Vec<Vec<StateId>>,
    /// Characteristic sets parallel to `ers`: ER, QR and CFR membership as
    /// dense bitsets, so region queries are block-wise bit ops instead of
    /// per-state binary searches.
    er_sets: Vec<BitSet>,
    qr_sets: Vec<BitSet>,
    cfr_sets: Vec<BitSet>,
    /// Region ids grouped by signal, indexed by `SignalId`.
    by_signal: Vec<Vec<ErId>>,
    /// Per ER, the OR of its states' excitation masks: bit `b` is set iff
    /// signal `b` is excited somewhere in the region, so Definition 11's
    /// ordering test is one bit test. [`Regions::compute`] fills it during
    /// its sweep; a decoded analysis fills it from the graph passed to its
    /// first ordering query.
    er_masks: OnceLock<Vec<u64>>,
}

impl Regions {
    /// Computes all regions of `sg`.
    ///
    /// One sweep per signal labels its excitation regions in order of
    /// their smallest state (which numbers the occurrences) and floods
    /// each region's quiescent region from the states its own transition
    /// lands in.
    pub fn compute(sg: &StateGraph) -> Self {
        let n = sg.state_count();
        // Per region, in id order: signal, direction, occurrence, ER set,
        // OR of its states' excitation masks, QR set.
        let mut found = Vec::new();
        let graph = Sweep::new(sg);
        // `labelled[s] == i + 1` once `s` joined an ER of signal `i` (at
        // most 64 signals, so the tag fits a byte and never needs reset).
        let mut labelled = vec![0u8; n];
        let mut stack = Vec::new();
        let mut qr_stack = Vec::new();
        for sig in sg.signal_ids() {
            let bit = 1u64 << sig.index();
            let label = sig.index() as u8 + 1;
            // Regions of the signal by value before firing (0: rise,
            // 1: fall), each list in order of smallest state id.
            let mut by_dir: [Vec<(BitSet, u64, BitSet)>; 2] = [Vec::new(), Vec::new()];
            for start in sg.state_ids() {
                if labelled[start.index()] == label || graph.excited(start) & bit == 0 {
                    continue;
                }
                let before = sg.code(start).value(sig);
                let (mut er, mut qr, mut mask) = (BitSet::new(n), BitSet::new(n), 0);
                labelled[start.index()] = label;
                stack.push(start);
                while let Some(u) = stack.pop() {
                    er.insert(u);
                    mask |= graph.excited(u);
                    // The state the region's own transition lands in seeds
                    // its QR (Definition 6).
                    if let Some(v) = graph.fire(u, bit) {
                        if graph.is(v, bit, !before, false) && !qr.contains(v) {
                            qr.insert(v);
                            qr_stack.push(v);
                        }
                    }
                    for &v in graph.neighbours(u) {
                        if labelled[v.index()] != label && graph.is(v, bit, before, true) {
                            labelled[v.index()] = label;
                            stack.push(v);
                        }
                    }
                }
                while let Some(u) = qr_stack.pop() {
                    for &v in graph.neighbours(u) {
                        if !qr.contains(v) && graph.is(v, bit, !before, false) {
                            qr.insert(v);
                            qr_stack.push(v);
                        }
                    }
                }
                by_dir[usize::from(before)].push((er, mask, qr));
            }
            for dir in [Dir::Rise, Dir::Fall] {
                let components = std::mem::take(&mut by_dir[usize::from(dir.value_before())]);
                for (j, (er, mask, qr)) in components.into_iter().enumerate() {
                    found.push((sig, dir, (j + 1) as u32, er, mask, qr));
                }
            }
        }
        // The sorted slices are built once the sweep's scratch is freed,
        // so the two never occupy memory together.
        drop((graph, labelled, stack, qr_stack));
        let mut regions = Regions::empty(sg.signal_count());
        let mut er_masks = Vec::with_capacity(found.len());
        for (signal, dir, occurrence, er_set, mask, qr_set) in found {
            let er = ExcitationRegion { signal, dir, occurrence, states: members(&er_set) };
            regions.push(er, er_set, members(&qr_set), qr_set);
            er_masks.push(mask);
        }
        regions.er_masks = OnceLock::from(er_masks);
        regions
    }

    /// An analysis with no regions over `signal_count` signals.
    fn empty(signal_count: usize) -> Regions {
        Regions {
            ers: Vec::new(),
            qrs: Vec::new(),
            cfrs: Vec::new(),
            er_sets: Vec::new(),
            qr_sets: Vec::new(),
            cfr_sets: Vec::new(),
            by_signal: vec![Vec::new(); signal_count],
            er_masks: OnceLock::new(),
        }
    }

    /// Appends one ER with its QR and derives the CFR (the word-wise union
    /// of the two sets). Shared by [`Regions::compute`] and
    /// [`Regions::from_cache_bytes`] so decoded analyses are
    /// indistinguishable from freshly computed ones.
    fn push(&mut self, er: ExcitationRegion, er_set: BitSet, qr: Vec<StateId>, qr_set: BitSet) {
        let mut cfr_set = er_set.clone();
        cfr_set.union_with(&qr_set);
        self.by_signal[er.signal.index()].push(ErId(self.ers.len() as u32));
        self.ers.push(er);
        self.qrs.push(qr);
        self.cfrs.push(members(&cfr_set));
        self.er_sets.push(er_set);
        self.qr_sets.push(qr_set);
        self.cfr_sets.push(cfr_set);
    }

    /// Per-ER excitation masks, derived from `sg` on first use when the
    /// analysis was decoded rather than computed.
    fn er_masks(&self, sg: &StateGraph) -> &[u64] {
        self.er_masks.get_or_init(|| {
            self.ers
                .iter()
                .map(|er| er.states.iter().fold(0, |mask, &s| mask | sg.excited_mask(s)))
                .collect()
        })
    }

    /// Serializes the analysis for an external artifact store.
    ///
    /// Only the excitation and quiescent regions are stored; the derived
    /// CFR tables and per-signal index are rebuilt by
    /// [`Regions::from_cache_bytes`] exactly as [`Regions::compute`]
    /// builds them, so a decoded analysis is indistinguishable from the
    /// original.
    pub fn to_cache_bytes(&self) -> Vec<u8> {
        use std::fmt::Write as _;
        let mut out = String::from("simc.regions.v1\n");
        let _ = writeln!(out, "count {}", self.ers.len());
        for (er, qr) in self.ers.iter().zip(&self.qrs) {
            let _ = write!(out, "er {} {} {}", er.signal.index(), er.dir.sign(), er.occurrence);
            for s in &er.states {
                let _ = write!(out, " {}", s.index());
            }
            out.push_str("\nqr");
            for s in qr {
                let _ = write!(out, " {}", s.index());
            }
            out.push('\n');
        }
        out.into_bytes()
    }

    /// Decodes an analysis previously serialized with
    /// [`Regions::to_cache_bytes`] for a graph with `state_count` states
    /// and `signal_count` signals.
    ///
    /// Returns `None` on any structural mismatch (truncation, bad tokens,
    /// out-of-range ids, unsorted region states) so corrupted store
    /// entries degrade to a recompute instead of a panic.
    pub fn from_cache_bytes(
        bytes: &[u8],
        state_count: usize,
        signal_count: usize,
    ) -> Option<Regions> {
        let text = std::str::from_utf8(bytes).ok()?;
        let mut lines = text.lines();
        if lines.next()? != "simc.regions.v1" {
            return None;
        }
        let count: usize = lines.next()?.strip_prefix("count ")?.parse().ok()?;
        let parse_states = |tokens: std::str::SplitWhitespace<'_>| -> Option<Vec<StateId>> {
            let mut states = Vec::new();
            for token in tokens {
                let index: usize = token.parse().ok()?;
                if index >= state_count {
                    return None;
                }
                states.push(StateId(index as u32));
            }
            if states.windows(2).any(|w| w[0] >= w[1]) {
                return None;
            }
            Some(states)
        };
        let mut regions = Regions::empty(signal_count);
        for _ in 0..count {
            let mut tokens = lines.next()?.split_whitespace();
            if tokens.next()? != "er" {
                return None;
            }
            let signal_index: usize = tokens.next()?.parse().ok()?;
            if signal_index >= signal_count {
                return None;
            }
            let dir = match tokens.next()? {
                "+" => Dir::Rise,
                "-" => Dir::Fall,
                _ => return None,
            };
            let occurrence: u32 = tokens.next()?.parse().ok()?;
            let states = parse_states(tokens)?;
            if states.is_empty() {
                return None;
            }
            let er_set = BitSet::from_ids(state_count, states.iter().copied());
            let er = ExcitationRegion {
                signal: SignalId(signal_index as u32),
                dir,
                occurrence,
                states,
            };
            let mut tokens = lines.next()?.split_whitespace();
            if tokens.next()? != "qr" {
                return None;
            }
            let qr = parse_states(tokens)?;
            let qr_set = BitSet::from_ids(state_count, qr.iter().copied());
            regions.push(er, er_set, qr, qr_set);
        }
        if lines.next().is_some() {
            return None;
        }
        Some(regions)
    }

    /// All excitation regions.
    pub fn ers(&self) -> impl Iterator<Item = (ErId, &ExcitationRegion)> {
        self.ers.iter().enumerate().map(|(i, er)| (ErId(i as u32), er))
    }

    /// The region with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn er(&self, id: ErId) -> &ExcitationRegion {
        &self.ers[id.index()]
    }

    /// Number of excitation regions.
    pub fn er_count(&self) -> usize {
        self.ers.len()
    }

    /// Regions of a particular signal, in id order.
    pub fn ers_of_signal(&self, sig: SignalId) -> &[ErId] {
        &self.by_signal[sig.index()]
    }

    /// Regions of a particular transition `±a` (all occurrences).
    pub fn ers_of_transition(&self, t: Transition) -> Vec<ErId> {
        self.ers_of_signal(t.signal)
            .iter()
            .copied()
            .filter(|&id| self.er(id).dir() == t.dir)
            .collect()
    }

    /// The region containing state `s` for signal `sig`, if `sig` is
    /// excited there.
    pub fn er_containing(&self, s: StateId, sig: SignalId) -> Option<ErId> {
        self.ers_of_signal(sig)
            .iter()
            .copied()
            .find(|&id| self.er_sets[id.index()].contains(s))
    }

    /// The quiescent region `QR(±a_j)` following the given ER
    /// (Definition 6). May be empty when the next transition of the signal
    /// is enabled immediately.
    pub fn qr(&self, id: ErId) -> &[StateId] {
        &self.qrs[id.index()]
    }

    /// The constant-function region `CFR(±a_j) = ER ∪ QR` (Definition 7),
    /// sorted by state id. Cached at [`Regions::compute`] time.
    pub fn cfr(&self, id: ErId) -> &[StateId] {
        &self.cfrs[id.index()]
    }

    /// The same CFR as a dense bitset, for O(1) membership tests.
    pub fn cfr_set(&self, id: ErId) -> &BitSet {
        &self.cfr_sets[id.index()]
    }

    /// The ER as a dense characteristic bitset over all states.
    pub fn er_set(&self, id: ErId) -> &BitSet {
        &self.er_sets[id.index()]
    }

    /// The QR as a dense characteristic bitset over all states.
    pub fn qr_set(&self, id: ErId) -> &BitSet {
        &self.qr_sets[id.index()]
    }

    /// Minimal states of the ER (Definition 8): states with no predecessor
    /// inside the region.
    pub fn minimal_states(&self, sg: &StateGraph, id: ErId) -> Vec<StateId> {
        let er = self.er(id);
        er.states()
            .iter()
            .copied()
            .filter(|&s| sg.preds(s).iter().all(|&(_, p)| !er.contains(p)))
            .collect()
    }

    /// Unique entry condition (Definition 9): exactly one minimal state.
    pub fn has_unique_entry(&self, sg: &StateGraph, id: ErId) -> bool {
        self.minimal_states(sg, id).len() == 1
    }

    /// Trigger transitions of the ER (Definition 10): labels of edges
    /// entering the region from outside.
    pub fn triggers(&self, sg: &StateGraph, id: ErId) -> Vec<Transition> {
        let er = self.er(id);
        let mut out: Vec<Transition> = er
            .states()
            .iter()
            .flat_map(|&u| sg.preds(u).iter())
            .filter(|&&(_, v)| !er.contains(v))
            .map(|&(t, _)| t)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Trigger signals of the ER (underlying signals of the triggers).
    pub fn trigger_signals(&self, sg: &StateGraph, id: ErId) -> Vec<SignalId> {
        let mut out: Vec<SignalId> =
            self.triggers(sg, id).into_iter().map(|t| t.signal).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Whether signal `b` is *ordered* with respect to the ER
    /// (Definition 11): no transition of `b` is excited within the region.
    ///
    /// The region's own signal is never ordered with respect to itself.
    pub fn is_ordered(&self, sg: &StateGraph, id: ErId, b: SignalId) -> bool {
        b != self.er(id).signal() && self.er_masks(sg)[id.index()] >> b.index() & 1 == 0
    }

    /// Signals concurrent with the ER (Definition 11), excluding the ER's
    /// own signal.
    pub fn concurrent_signals(&self, sg: &StateGraph, id: ErId) -> Vec<SignalId> {
        sg.signal_ids()
            .filter(|&b| b != self.er(id).signal() && !self.is_ordered(sg, id, b))
            .collect()
    }

    /// Signals ordered with the ER (Definition 11), excluding its own.
    pub fn ordered_signals(&self, sg: &StateGraph, id: ErId) -> Vec<SignalId> {
        sg.signal_ids()
            .filter(|&b| b != self.er(id).signal() && self.is_ordered(sg, id, b))
            .collect()
    }

    /// Persistency of an ER (Definition 12): all trigger signals ordered.
    pub fn is_persistent_er(&self, sg: &StateGraph, id: ErId) -> bool {
        self.trigger_signals(sg, id)
            .into_iter()
            .all(|b| self.is_ordered(sg, id, b))
    }

    /// Persistency of the whole graph, over all ERs of all signals.
    pub fn is_persistent(&self, sg: &StateGraph) -> bool {
        self.ers().all(|(id, _)| self.is_persistent_er(sg, id))
    }

    /// Persistency over the ERs of non-input signals only — the part that
    /// matters for implementability (Theorem 1).
    pub fn is_output_persistent(&self, sg: &StateGraph) -> bool {
        self.ers()
            .filter(|(_, er)| sg.signal(er.signal()).kind().is_non_input())
            .all(|(id, _)| self.is_persistent_er(sg, id))
    }

    /// The paper's `0-set(a)`: all states where `a` is 0 and stable
    /// (union of the quiescent regions after `-a` transitions).
    pub fn zero_set(&self, sg: &StateGraph, a: SignalId) -> Vec<StateId> {
        value_set(sg, a, false, false)
    }

    /// The paper's `0*-set(a)`: states where `a` is 0 and excited
    /// (union of up-excitation regions).
    pub fn zero_star_set(&self, sg: &StateGraph, a: SignalId) -> Vec<StateId> {
        value_set(sg, a, false, true)
    }

    /// The paper's `1-set(a)`: states where `a` is 1 and stable.
    pub fn one_set(&self, sg: &StateGraph, a: SignalId) -> Vec<StateId> {
        value_set(sg, a, true, false)
    }

    /// The paper's `1*-set(a)`: states where `a` is 1 and excited
    /// (union of down-excitation regions).
    pub fn one_star_set(&self, sg: &StateGraph, a: SignalId) -> Vec<StateId> {
        value_set(sg, a, true, true)
    }
}

fn value_set(sg: &StateGraph, a: SignalId, value: bool, excited: bool) -> Vec<StateId> {
    sg.state_ids()
        .filter(|&s| sg.code(s).value(a) == value && sg.is_excited(s, a) == excited)
        .collect()
}

/// The graph as [`Regions::compute`] sweeps it: every state's neighbours
/// in both directions in one flat array (successors first) and its code
/// and excitation mask side by side, so a flood reads one contiguous run
/// per visited state instead of chasing three pointers.
struct Sweep {
    /// `bounds[2s]..bounds[2s + 1]` index the successors of `s` in
    /// `edges`, `bounds[2s + 1]..bounds[2s + 2]` its predecessors.
    bounds: Vec<usize>,
    edges: Vec<StateId>,
    /// `(code bits, excitation mask)` per state.
    states: Vec<(u64, u64)>,
}

impl Sweep {
    fn new(sg: &StateGraph) -> Sweep {
        let mut bounds = Vec::with_capacity(2 * sg.state_count() + 1);
        let mut edges = Vec::with_capacity(2 * sg.edge_count());
        for s in sg.state_ids() {
            for list in [sg.succs(s), sg.preds(s)] {
                bounds.push(edges.len());
                edges.extend(list.iter().map(|&(_, v)| v));
            }
        }
        bounds.push(edges.len());
        let states = sg.state_ids().map(|s| (sg.code(s).bits(), sg.excited_mask(s))).collect();
        Sweep { bounds, edges, states }
    }

    fn excited(&self, s: StateId) -> u64 {
        self.states[s.index()].1
    }

    /// Whether the signal of `bit` has `value` in `s` and is excited
    /// there or not.
    fn is(&self, s: StateId, bit: u64, value: bool, excited: bool) -> bool {
        let (code, mask) = self.states[s.index()];
        (code & bit != 0) == value && (mask & bit != 0) == excited
    }

    /// The first successor of `s` reached by a transition of the signal
    /// of `bit` (the one whose code differs there), as
    /// [`StateGraph::fire`] picks it.
    fn fire(&self, s: StateId, bit: u64) -> Option<StateId> {
        let code = self.states[s.index()].0;
        let succs = &self.edges[self.bounds[2 * s.index()]..self.bounds[2 * s.index() + 1]];
        succs.iter().copied().find(|v| (self.states[v.index()].0 ^ code) & bit != 0)
    }

    fn neighbours(&self, s: StateId) -> &[StateId] {
        &self.edges[self.bounds[2 * s.index()]..self.bounds[2 * s.index() + 2]]
    }
}

/// Members of `set` in ascending order, allocated to size.
fn members(set: &BitSet) -> Vec<StateId> {
    let mut out = Vec::with_capacity(set.count());
    out.extend(set.iter());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::SignalKind;
    use crate::StateGraph;

    fn figure1() -> StateGraph {
        StateGraph::from_starred_codes(
            &[
                ("a", SignalKind::Input),
                ("b", SignalKind::Input),
                ("c", SignalKind::Output),
                ("d", SignalKind::Output),
            ],
            &[
                "0*0*00", "100*0*", "010*0", "1*010*", "100*1", "0*110", "1*0*11",
                "1110*", "1*111", "011*1", "01*01", "0001*", "0010*", "00*11",
            ],
            "0*0*00",
        )
        .unwrap()
    }

    fn er_of(sg: &StateGraph, regions: &Regions, name: &str, dir: Dir, occ: u32) -> ErId {
        let sig = sg.signal_by_name(name).unwrap();
        regions
            .ers()
            .find(|(_, er)| er.signal() == sig && er.dir() == dir && er.occurrence() == occ)
            .map(|(id, _)| id)
            .unwrap()
    }

    #[test]
    fn figure1_er_plus_d_matches_paper() {
        // The paper highlights ER(+d1) ⊇ {100*0*, 1*010*} (states where d=0
        // and d is excited, connected). The `a` and `b` input branches each
        // contain a rise of d, so there are two up-excitation regions: the
        // a-branch region {100*0*, 1*010*, 0010*} and the b-branch {1110*}.
        let sg = figure1();
        let regions = sg.regions();
        let d = sg.signal_by_name("d").unwrap();
        let up_ers = regions.ers_of_transition(Transition::rise(d));
        assert_eq!(up_ers.len(), 2, "+d fires once per input branch");
        let er = regions.er(up_ers[0]);
        let codes: Vec<String> =
            er.states().iter().map(|&s| sg.starred_code(s)).collect();
        assert!(codes.contains(&"100*0*".to_string()), "{codes:?}");
        assert!(codes.contains(&"1*010*".to_string()), "{codes:?}");
        assert!(codes.contains(&"0010*".to_string()), "{codes:?}");
        assert_eq!(er.len(), 3);
        assert_eq!(regions.er(up_ers[1]).len(), 1);
    }

    #[test]
    fn figure1_qr_plus_d() {
        let sg = figure1();
        let regions = sg.regions();
        let d = sg.signal_by_name("d").unwrap();
        let er_id = regions.ers_of_transition(Transition::rise(d))[0];
        let qr = regions.qr(er_id);
        // After +d fires, d stays 1 and stable through e.g. 100*1, 1*0*11 …
        let codes: Vec<String> = qr.iter().map(|&s| sg.starred_code(s)).collect();
        assert!(codes.contains(&"100*1".to_string()), "{codes:?}");
        assert!(!qr.is_empty());
        // CFR = ER ∪ QR has no overlap.
        let cfr = regions.cfr(er_id);
        assert_eq!(cfr.len(), regions.er(er_id).len() + qr.len());
    }

    #[test]
    fn figure1_minimal_state_and_trigger_of_plus_d() {
        // Paper: "We can reach the minimal state of ER(+d1) (state 100*0*)
        // only by transition +a firing. So +a is the only trigger."
        let sg = figure1();
        let regions = sg.regions();
        let er_id = er_of(&sg, &regions, "d", Dir::Rise, 1);
        let mins = regions.minimal_states(&sg, er_id);
        assert_eq!(mins.len(), 1);
        assert_eq!(sg.starred_code(mins[0]), "100*0*");
        assert!(regions.has_unique_entry(&sg, er_id));
        let trigs = regions.triggers(&sg, er_id);
        assert_eq!(trigs.len(), 1);
        assert_eq!(sg.transition_name(trigs[0]), "+a");
    }

    #[test]
    fn figure1_plus_d_is_non_persistent() {
        // Paper: inside ER(+d1), -a is excited, so trigger +a is
        // non-persistent to +d — signal a is concurrent with ER(+d1).
        let sg = figure1();
        let regions = sg.regions();
        let a = sg.signal_by_name("a").unwrap();
        let er_id = er_of(&sg, &regions, "d", Dir::Rise, 1);
        assert!(!regions.is_ordered(&sg, er_id, a));
        assert!(regions.concurrent_signals(&sg, er_id).contains(&a));
        assert!(!regions.is_persistent_er(&sg, er_id));
        assert!(!regions.is_output_persistent(&sg));
    }

    #[test]
    fn figure1_value_sets_partition_states() {
        let sg = figure1();
        let regions = sg.regions();
        for sig in sg.signal_ids() {
            let total = regions.zero_set(&sg, sig).len()
                + regions.zero_star_set(&sg, sig).len()
                + regions.one_set(&sg, sig).len()
                + regions.one_star_set(&sg, sig).len();
            assert_eq!(total, sg.state_count());
        }
    }

    #[test]
    fn value_sets_match_region_unions() {
        let sg = figure1();
        let regions = sg.regions();
        for sig in sg.signal_ids() {
            let mut from_ers: Vec<StateId> = regions
                .ers_of_transition(Transition::rise(sig))
                .into_iter()
                .flat_map(|id| regions.er(id).states().to_vec())
                .collect();
            from_ers.sort_unstable();
            let mut direct = regions.zero_star_set(&sg, sig);
            direct.sort_unstable();
            assert_eq!(from_ers, direct, "0*-set mismatch for {sig}");
        }
    }

    #[test]
    fn er_contains_and_lookup() {
        let sg = figure1();
        let regions = sg.regions();
        let d = sg.signal_by_name("d").unwrap();
        let er_id = regions.ers_of_transition(Transition::rise(d))[0];
        let er = regions.er(er_id);
        for &s in er.states() {
            assert!(er.contains(s));
            assert_eq!(regions.er_containing(s, d), Some(er_id));
        }
        assert_eq!(regions.er_containing(sg.initial(), d), None);
    }

    #[test]
    fn empty_quiescent_region_when_immediately_reexcited() {
        // An autonomous two-state blinker: x toggles forever; after +x the
        // signal is immediately excited to fall, so QR(+x) is empty.
        let sg = StateGraph::from_starred_codes(
            &[("x", SignalKind::Output)],
            &["0*", "1*"],
            "0*",
        )
        .unwrap();
        let regions = sg.regions();
        assert_eq!(regions.er_count(), 2);
        for (id, _) in regions.ers() {
            assert!(regions.qr(id).is_empty());
            assert_eq!(regions.cfr(id).len(), 1);
        }
    }

    #[test]
    fn triggers_of_oscillator_are_own_transitions() {
        let sg = StateGraph::from_starred_codes(
            &[("x", SignalKind::Output)],
            &["0*", "1*"],
            "0*",
        )
        .unwrap();
        let regions = sg.regions();
        let x = sg.signal_by_name("x").unwrap();
        let up = regions.ers_of_transition(Transition::rise(x))[0];
        let trigs = regions.triggers(&sg, up);
        assert_eq!(trigs.len(), 1);
        assert_eq!(sg.transition_name(trigs[0]), "-x");
    }

    #[test]
    fn every_excited_state_is_in_exactly_one_er_of_its_signal() {
        let sg = figure1();
        let regions = sg.regions();
        for s in sg.state_ids() {
            for sig in sg.signal_ids() {
                let count = regions
                    .ers()
                    .filter(|(_, er)| er.signal() == sig && er.contains(s))
                    .count();
                if sg.is_excited(s, sig) {
                    assert_eq!(count, 1);
                } else {
                    assert_eq!(count, 0);
                }
            }
        }
    }
}
