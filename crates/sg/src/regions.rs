//! Region analysis: excitation, quiescent and constant-function regions
//! (Definitions 5–12 of the paper).

use std::sync::OnceLock;

use crate::bitset::BitSlice;
use crate::graph::{StateGraph, StateId};
use crate::signal::{Dir, SignalId, Transition};

/// Index of an excitation region within a [`Regions`] analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
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
///
/// A view into its [`Regions`] analysis, which stores every region's
/// states in one pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExcitationRegion<'a> {
    signal: SignalId,
    dir: Dir,
    occurrence: u32,
    states: &'a [StateId],
}

impl<'a> ExcitationRegion<'a> {
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
    pub fn states(&self) -> &'a [StateId] {
        self.states
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
///
/// The per-region tables live in a few flat arrays sized exactly when the
/// analysis is built, so an analysis costs the same handful of
/// allocations however many regions it holds. QR and CFR members are read
/// off their sets on demand rather than stored twice.
#[derive(Debug, Clone)]
pub struct Regions {
    /// `(signal, direction, occurrence)` per region.
    heads: Vec<(SignalId, Dir, u32)>,
    /// The state domain of every characteristic set.
    state_count: usize,
    /// ER, QR and CFR membership of every region as dense bitsets, back to
    /// back: region `i`'s three sets are the consecutive `words`-long runs
    /// starting at word `3 * i * words`, so region queries are block-wise
    /// bit ops instead of per-state binary searches.
    sets: Vec<u64>,
    /// Every region's ER states, sorted, back to back:
    /// `bounds[i]..bounds[i + 1]` indexes region `i`'s in `members`.
    members: Vec<StateId>,
    bounds: Vec<usize>,
    /// Region ids grouped by signal, each group in id order:
    /// `by_signal[signal_bounds[b]..signal_bounds[b + 1]]` are signal `b`'s.
    by_signal: Vec<ErId>,
    signal_bounds: Vec<usize>,
    /// Per ER, the OR of its states' excitation masks: bit `b` is set iff
    /// signal `b` is excited somewhere in the region, so Definition 11's
    /// ordering test is one bit test. [`Regions::compute`] fills it during
    /// its sweep; a decoded analysis fills it from the graph passed to its
    /// first ordering query.
    er_masks: OnceLock<Vec<u64>>,
}

fn insert(words: &mut [u64], s: StateId) {
    words[s.index() / 64] |= 1 << (s.index() % 64);
}

fn contains(words: &[u64], s: StateId) -> bool {
    words[s.index() / 64] >> (s.index() % 64) & 1 == 1
}

impl Regions {
    /// Computes all regions of `sg`.
    ///
    /// Two sweeps per signal, rising regions first, label its excitation
    /// regions in order of their smallest state (which numbers the
    /// occurrences) and flood each region's quiescent region from the
    /// states its own transition lands in. Each region's sets are written
    /// straight into the word arena in id order.
    pub fn compute(sg: &StateGraph) -> Self {
        let n = sg.state_count();
        let mut regions = Regions::empty(n);
        let mut er_masks = Vec::new();
        // Whether the signal of `bit` has `value` in `s` and is excited
        // there or not.
        let is = |s: StateId, bit: u64, value: bool, excited: bool| {
            (sg.code(s).bits() & bit != 0) == value && (sg.excited_mask(s) & bit != 0) == excited
        };
        let neighbours = |s: StateId| sg.succs(s).iter().chain(sg.preds(s)).map(|&(_, v)| v);
        // `labelled[s] == i + 1` once `s` joined an ER of signal `i` (at
        // most 64 signals, so the tag fits a byte and never needs reset).
        let mut labelled = vec![0u8; n];
        let mut stack = Vec::new();
        let mut qr_stack = Vec::new();
        for sig in sg.signal_ids() {
            let bit = 1u64 << sig.index();
            let label = sig.index() as u8 + 1;
            for dir in [Dir::Rise, Dir::Fall] {
                let before = dir.value_before();
                let mut occurrence = 0;
                for start in sg.state_ids() {
                    if labelled[start.index()] == label || !is(start, bit, before, true) {
                        continue;
                    }
                    occurrence += 1;
                    let (er, qr) = regions.push_region(sig, dir, occurrence);
                    let mut mask = 0;
                    labelled[start.index()] = label;
                    stack.push(start);
                    while let Some(u) = stack.pop() {
                        insert(er, u);
                        mask |= sg.excited_mask(u);
                        // The state the region's own transition lands in
                        // seeds its QR (Definition 6).
                        if let Some(v) = sg.fire(u, Transition { signal: sig, dir }) {
                            if is(v, bit, !before, false) && !contains(qr, v) {
                                insert(qr, v);
                                qr_stack.push(v);
                            }
                        }
                        for v in neighbours(u) {
                            if labelled[v.index()] != label && is(v, bit, before, true) {
                                labelled[v.index()] = label;
                                stack.push(v);
                            }
                        }
                    }
                    while let Some(u) = qr_stack.pop() {
                        for v in neighbours(u) {
                            if !contains(qr, v) && is(v, bit, !before, false) {
                                insert(qr, v);
                                qr_stack.push(v);
                            }
                        }
                    }
                    er_masks.push(mask);
                }
            }
        }
        // The member lists are laid out once the sweep's scratch is freed,
        // so the two never occupy memory together.
        drop((labelled, stack, qr_stack));
        regions.finish(sg.signal_count());
        regions.er_masks = OnceLock::from(er_masks);
        regions
    }

    /// An analysis with no regions over `state_count` states.
    fn empty(state_count: usize) -> Regions {
        Regions {
            heads: Vec::new(),
            state_count,
            sets: Vec::new(),
            members: Vec::new(),
            bounds: Vec::new(),
            by_signal: Vec::new(),
            signal_bounds: Vec::new(),
            er_masks: OnceLock::new(),
        }
    }

    /// Appends a region with empty sets and returns its ER and QR words
    /// for the caller to fill; [`Regions::finish`] derives the CFR.
    fn push_region(
        &mut self,
        signal: SignalId,
        dir: Dir,
        occurrence: u32,
    ) -> (&mut [u64], &mut [u64]) {
        let words = self.state_count.div_ceil(64);
        self.heads.push((signal, dir, occurrence));
        let base = self.sets.len();
        self.sets.resize(base + 3 * words, 0);
        let (er, rest) = self.sets[base..].split_at_mut(words);
        (er, &mut rest[..words])
    }

    /// Derives each CFR (the word-wise union of its ER and QR), the ER
    /// member lists and the per-signal index from the filled heads and
    /// sets, allocating every table to its exact size. Shared by
    /// [`Regions::compute`] and [`Regions::from_cache_bytes`] so decoded
    /// analyses are indistinguishable from freshly computed ones.
    fn finish(&mut self, signal_count: usize) {
        self.heads.shrink_to_fit();
        self.sets.shrink_to_fit();
        let words = self.state_count.div_ceil(64);
        for region in self.sets.chunks_exact_mut(3 * words.max(1)) {
            let (er, rest) = region.split_at_mut(words);
            let (qr, cfr) = rest.split_at_mut(words);
            for ((c, e), q) in cfr.iter_mut().zip(&*er).zip(&*qr) {
                *c = e | q;
            }
        }
        let ers = || (0..self.heads.len()).map(|i| self.er_set(ErId(i as u32)));
        let mut members = Vec::with_capacity(ers().map(BitSlice::count).sum());
        let mut bounds = Vec::with_capacity(self.heads.len() + 1);
        bounds.push(0);
        for er in ers() {
            members.extend(er.iter());
            bounds.push(members.len());
        }
        let mut signal_bounds = vec![0usize; signal_count + 1];
        for &(signal, ..) in &self.heads {
            signal_bounds[signal.index() + 1] += 1;
        }
        for b in 0..signal_count {
            signal_bounds[b + 1] += signal_bounds[b];
        }
        let mut by_signal = vec![ErId(0); self.heads.len()];
        let mut next = signal_bounds.clone();
        for (i, &(signal, ..)) in self.heads.iter().enumerate() {
            by_signal[next[signal.index()]] = ErId(i as u32);
            next[signal.index()] += 1;
        }
        self.members = members;
        self.bounds = bounds;
        self.by_signal = by_signal;
        self.signal_bounds = signal_bounds;
    }

    /// Per-ER excitation masks, derived from `sg` on first use when the
    /// analysis was decoded rather than computed.
    fn er_masks(&self, sg: &StateGraph) -> &[u64] {
        self.er_masks.get_or_init(|| {
            self.ers()
                .map(|(_, er)| er.states.iter().fold(0, |mask, &s| mask | sg.excited_mask(s)))
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
        let _ = writeln!(out, "count {}", self.er_count());
        for (id, er) in self.ers() {
            let _ = write!(out, "er {} {} {}", er.signal.index(), er.dir.sign(), er.occurrence);
            for s in er.states {
                let _ = write!(out, " {}", s.index());
            }
            out.push_str("\nqr");
            for s in self.qr_set(id).iter() {
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
        // Writes the listed states into `set`; the list must be strictly
        // ascending and in range. Returns how many were listed.
        let parse_states = |tokens: std::str::SplitWhitespace<'_>, set: &mut [u64]| {
            let mut last = None;
            let mut listed = 0;
            for token in tokens {
                let index: usize = token.parse().ok()?;
                if index >= state_count || last.is_some_and(|l| l >= index) {
                    return None;
                }
                last = Some(index);
                insert(set, StateId(index as u32));
                listed += 1;
            }
            Some(listed)
        };
        let mut regions = Regions::empty(state_count);
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
            let (er, qr) = regions.push_region(SignalId(signal_index as u32), dir, occurrence);
            if parse_states(tokens, er)? == 0 {
                return None;
            }
            let mut tokens = lines.next()?.split_whitespace();
            if tokens.next()? != "qr" {
                return None;
            }
            parse_states(tokens, qr)?;
        }
        if lines.next().is_some() {
            return None;
        }
        regions.finish(signal_count);
        Some(regions)
    }

    /// All excitation regions.
    pub fn ers(&self) -> impl Iterator<Item = (ErId, ExcitationRegion<'_>)> {
        (0..self.heads.len()).map(|i| (ErId(i as u32), self.er(ErId(i as u32))))
    }

    /// The region with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn er(&self, id: ErId) -> ExcitationRegion<'_> {
        let (signal, dir, occurrence) = self.heads[id.index()];
        let states = &self.members[self.bounds[id.index()]..self.bounds[id.index() + 1]];
        ExcitationRegion { signal, dir, occurrence, states }
    }

    /// Number of excitation regions.
    pub fn er_count(&self) -> usize {
        self.heads.len()
    }

    /// Regions of a particular signal, in id order.
    pub fn ers_of_signal(&self, sig: SignalId) -> &[ErId] {
        &self.by_signal[self.signal_bounds[sig.index()]..self.signal_bounds[sig.index() + 1]]
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
        self.ers_of_signal(sig).iter().copied().find(|&id| self.er_set(id).contains(s))
    }

    /// The quiescent region `QR(±a_j)` following the given ER
    /// (Definition 6), sorted by state id. May be empty when the next
    /// transition of the signal is enabled immediately. Collected from
    /// [`Regions::qr_set`].
    pub fn qr(&self, id: ErId) -> Vec<StateId> {
        self.qr_set(id).iter().collect()
    }

    /// The constant-function region `CFR(±a_j) = ER ∪ QR` (Definition 7),
    /// sorted by state id. Collected from [`Regions::cfr_set`], whose
    /// `iter` walks the same states in the same order without allocating.
    pub fn cfr(&self, id: ErId) -> Vec<StateId> {
        self.cfr_set(id).iter().collect()
    }

    /// One of a region's characteristic sets: 0 = ER, 1 = QR, 2 = CFR.
    fn set(&self, id: ErId, part: usize) -> BitSlice<'_> {
        let words = self.state_count.div_ceil(64);
        BitSlice::new(&self.sets[(3 * id.index() + part) * words..][..words], self.state_count)
    }

    /// The same CFR as a dense bitset, for O(1) membership tests.
    pub fn cfr_set(&self, id: ErId) -> BitSlice<'_> {
        self.set(id, 2)
    }

    /// The ER as a dense characteristic bitset over all states.
    pub fn er_set(&self, id: ErId) -> BitSlice<'_> {
        self.set(id, 0)
    }

    /// The QR as a dense characteristic bitset over all states.
    pub fn qr_set(&self, id: ErId) -> BitSlice<'_> {
        self.set(id, 1)
    }

    /// The OR of the excitation masks of the ER's states: bit `b` is set
    /// iff signal `b` is excited somewhere in the region.
    pub fn excitation_mask(&self, sg: &StateGraph, id: ErId) -> u64 {
        self.er_masks(sg)[id.index()]
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
        b != self.er(id).signal() && self.excitation_mask(sg, id) >> b.index() & 1 == 0
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
