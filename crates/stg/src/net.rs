//! The Petri-net model and its token game.

use std::fmt;

use simc_sg::{Dir, Signal, SignalId, SignalKind};

use crate::error::StgError;

/// Index of a transition in an [`Stg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransId(pub(crate) u32);

impl TransId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of a place in an [`Stg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlaceId(pub(crate) u32);

impl PlaceId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A node of the net: either a transition or a place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeId {
    /// A transition node.
    Trans(TransId),
    /// A place node.
    Place(PlaceId),
}

/// The label of a transition: a signal edge with an occurrence index
/// (`a+`, `b-/2`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransLabel {
    /// The signal that fires.
    pub signal: SignalId,
    /// Rise or fall.
    pub dir: Dir,
    /// 1-based occurrence index (`a+/2` → 2; plain `a+` → 1).
    pub occurrence: u32,
}

#[derive(Debug, Clone)]
pub(crate) struct TransData {
    pub(crate) label: TransLabel,
    pub(crate) preset: Vec<PlaceId>,
    pub(crate) postset: Vec<PlaceId>,
}

#[derive(Debug, Clone)]
pub(crate) struct PlaceData {
    pub(crate) name: String,
    pub(crate) preset: Vec<TransId>,
    pub(crate) postset: Vec<TransId>,
}

/// A token marking over the places of an [`Stg`] (1-safe: a bitset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Marking(pub(crate) u128);

impl Marking {
    /// The empty marking.
    pub fn empty() -> Self {
        Marking(0)
    }

    /// Whether `p` holds a token.
    pub fn holds(self, p: PlaceId) -> bool {
        self.0 >> p.index() & 1 == 1
    }

    /// Returns the marking with a token added on `p`.
    #[must_use]
    pub fn with_token(self, p: PlaceId) -> Self {
        Marking(self.0 | (1u128 << p.index()))
    }

    /// Returns the marking with the token on `p` removed.
    #[must_use]
    pub fn without_token(self, p: PlaceId) -> Self {
        Marking(self.0 & !(1u128 << p.index()))
    }

    /// Number of tokens.
    pub fn token_count(self) -> u32 {
        self.0.count_ones()
    }
}

/// A signal transition graph: a 1-safe Petri net whose transitions are
/// labelled with signal edges. Build with [`StgBuilder`](crate::StgBuilder)
/// or [`parse_g`](crate::parse_g).
#[derive(Debug, Clone)]
pub struct Stg {
    pub(crate) name: String,
    pub(crate) signals: Vec<Signal>,
    pub(crate) transitions: Vec<TransData>,
    pub(crate) places: Vec<PlaceData>,
    pub(crate) initial: Marking,
    /// Explicitly specified initial signal values (otherwise inferred).
    pub(crate) initial_values: Option<u64>,
}

impl Stg {
    /// The model name (from `.model`, or as given to the builder).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of signals.
    pub fn signal_count(&self) -> usize {
        self.signals.len()
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// Number of places (explicit and implicit).
    pub fn place_count(&self) -> usize {
        self.places.len()
    }

    /// The signal table (index = [`SignalId`] value).
    pub fn signals(&self) -> &[Signal] {
        &self.signals
    }

    /// The description of signal `sig`.
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

    /// Ids of input signals.
    pub fn input_count(&self) -> usize {
        self.signals
            .iter()
            .filter(|s| s.kind() == SignalKind::Input)
            .count()
    }

    /// Number of non-input signals.
    pub fn non_input_count(&self) -> usize {
        self.signals.len() - self.input_count()
    }

    /// The label of transition `t`.
    pub fn label(&self, t: TransId) -> TransLabel {
        self.transitions[t.index()].label
    }

    /// The display name of transition `t`, e.g. `a+` or `b-/2`.
    pub fn transition_name(&self, t: TransId) -> String {
        let l = self.label(t);
        let base = format!("{}{}", self.signal(l.signal).name(), l.dir.sign());
        if l.occurrence == 1 {
            base
        } else {
            format!("{base}/{}", l.occurrence)
        }
    }

    /// All transition ids.
    pub fn transition_ids(&self) -> impl Iterator<Item = TransId> + '_ {
        (0..self.transitions.len()).map(|i| TransId(i as u32))
    }

    /// The initial marking.
    pub fn initial_marking(&self) -> Marking {
        self.initial
    }

    /// Whether transition `t` is enabled in `m` (all preset places marked).
    pub fn is_enabled(&self, m: Marking, t: TransId) -> bool {
        self.transitions[t.index()].preset.iter().all(|&p| m.holds(p))
    }

    /// Transitions enabled in `m`.
    pub fn enabled(&self, m: Marking) -> Vec<TransId> {
        self.transition_ids().filter(|&t| self.is_enabled(m, t)).collect()
    }

    /// Collects the transitions enabled in `m` into `out` (cleared first).
    ///
    /// Allocation-free variant of [`Stg::enabled`] for callers that probe
    /// millions of markings with a reusable scratch buffer.
    pub fn enabled_into(&self, m: Marking, out: &mut Vec<TransId>) {
        out.clear();
        out.extend(self.transition_ids().filter(|&t| self.is_enabled(m, t)));
    }

    /// Fires `t` from `m`.
    ///
    /// # Errors
    ///
    /// Fails if `t` is not enabled or firing would violate 1-safeness.
    pub fn fire(&self, m: Marking, t: TransId) -> Result<Marking, StgError> {
        if !self.is_enabled(m, t) {
            return Err(StgError::UnknownNode(format!(
                "{} not enabled",
                self.transition_name(t)
            )));
        }
        let data = &self.transitions[t.index()];
        let mut next = m;
        for &p in &data.preset {
            next = next.without_token(p);
        }
        for &p in &data.postset {
            if next.holds(p) {
                return Err(StgError::NotOneSafe {
                    place: self.places[p.index()].name.clone(),
                });
            }
            next = next.with_token(p);
        }
        Ok(next)
    }

    /// Exports the net in Graphviz `dot` format: boxes for transitions,
    /// circles for places (implicit places collapse to plain arrows),
    /// double circles for marked places.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph stg {\n  rankdir=TB;\n");
        for t in self.transition_ids() {
            out.push_str(&format!(
                "  t{} [label=\"{}\", shape=box];\n",
                t.index(),
                self.transition_name(t)
            ));
        }
        for (pi, place) in self.places.iter().enumerate() {
            let p = PlaceId(pi as u32);
            let implicit =
                place.name.starts_with('<') && place.preset.len() == 1 && place.postset.len() == 1;
            if implicit && !self.initial.holds(p) {
                out.push_str(&format!(
                    "  t{} -> t{};\n",
                    place.preset[0].index(),
                    place.postset[0].index()
                ));
                continue;
            }
            let shape = if self.initial.holds(p) { "doublecircle" } else { "circle" };
            out.push_str(&format!(
                "  p{pi} [label=\"{}\", shape={shape}];\n",
                place.name.replace(['<', '>'], "")
            ));
            for &src in &place.preset {
                out.push_str(&format!("  t{} -> p{pi};\n", src.index()));
            }
            for &dst in &place.postset {
                out.push_str(&format!("  p{pi} -> t{};\n", dst.index()));
            }
        }
        out.push_str("}\n");
        out
    }

    /// Serializes the net in `.g` format (parsable by [`parse_g`]).
    ///
    /// [`parse_g`]: crate::parse_g
    pub fn to_g_string(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(".model {}\n", self.name));
        let list = |kind: SignalKind| -> String {
            self.signals
                .iter()
                .filter(|s| s.kind() == kind)
                .map(|s| s.name().to_string())
                .collect::<Vec<_>>()
                .join(" ")
        };
        let inputs = list(SignalKind::Input);
        if !inputs.is_empty() {
            out.push_str(&format!(".inputs {inputs}\n"));
        }
        let outputs = list(SignalKind::Output);
        if !outputs.is_empty() {
            out.push_str(&format!(".outputs {outputs}\n"));
        }
        let internal = list(SignalKind::Internal);
        if !internal.is_empty() {
            out.push_str(&format!(".internal {internal}\n"));
        }
        out.push_str(".graph\n");
        // Emit arcs: transition -> its postset places' postsets when the
        // place is implicit (exactly one producer/consumer and an implicit
        // name); otherwise via the named place.
        for (pi, place) in self.places.iter().enumerate() {
            let p = PlaceId(pi as u32);
            if place.name.starts_with('<') {
                // implicit place: producer -> consumer
                for &src in &place.preset {
                    for &dst in &place.postset {
                        out.push_str(&format!(
                            "{} {}\n",
                            self.transition_name(src),
                            self.transition_name(dst)
                        ));
                    }
                }
            } else {
                for &src in &place.preset {
                    out.push_str(&format!(
                        "{} {}\n",
                        self.transition_name(src),
                        place.name
                    ));
                }
                for &dst in &place.postset {
                    out.push_str(&format!("{} {}\n", place.name, self.transition_name(dst)));
                }
                let _ = p;
            }
        }
        // Marking.
        out.push_str(".marking {");
        for (pi, place) in self.places.iter().enumerate() {
            if self.initial.holds(PlaceId(pi as u32)) {
                if place.name.starts_with('<') {
                    let src = place.preset.first();
                    let dst = place.postset.first();
                    if let (Some(&s), Some(&d)) = (src, dst) {
                        out.push_str(&format!(
                            " <{},{}>",
                            self.transition_name(s),
                            self.transition_name(d)
                        ));
                    }
                } else {
                    out.push_str(&format!(" {}", place.name));
                }
            }
        }
        out.push_str(" }\n.end\n");
        out
    }
}

impl fmt::Display for Stg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stg `{}`: {} signals, {} transitions, {} places",
            self.name,
            self.signal_count(),
            self.transition_count(),
            self.place_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::StgBuilder;

    fn two_phase() -> Stg {
        let mut b = StgBuilder::new("two-phase");
        b.add_signal("a", SignalKind::Input).unwrap();
        b.add_signal("b", SignalKind::Output).unwrap();
        let ap = b.add_transition("a+").unwrap();
        let bp = b.add_transition("b+").unwrap();
        let am = b.add_transition("a-").unwrap();
        let bm = b.add_transition("b-").unwrap();
        b.arc_tt(ap, bp);
        b.arc_tt(bp, am);
        b.arc_tt(am, bm);
        let p = b.arc_tt(bm, ap);
        b.mark_place(p);
        b.build().unwrap()
    }

    #[test]
    fn token_game_basics() {
        let stg = two_phase();
        let m0 = stg.initial_marking();
        assert_eq!(m0.token_count(), 1);
        let enabled = stg.enabled(m0);
        assert_eq!(enabled.len(), 1);
        assert_eq!(stg.transition_name(enabled[0]), "a+");
        let m1 = stg.fire(m0, enabled[0]).unwrap();
        assert_eq!(m1.token_count(), 1);
        assert_ne!(m0, m1);
        // a+ no longer enabled
        assert!(!stg.is_enabled(m1, enabled[0]));
    }

    #[test]
    fn fire_disabled_errors() {
        let stg = two_phase();
        let m0 = stg.initial_marking();
        let bp = stg
            .transition_ids()
            .find(|&t| stg.transition_name(t) == "b+")
            .unwrap();
        assert!(stg.fire(m0, bp).is_err());
    }

    #[test]
    fn marking_ops() {
        let m = Marking::empty().with_token(PlaceId(3));
        assert!(m.holds(PlaceId(3)));
        assert!(!m.holds(PlaceId(2)));
        assert_eq!(m.without_token(PlaceId(3)), Marking::empty());
        assert_eq!(m.token_count(), 1);
    }

    #[test]
    fn g_round_trip() {
        let stg = two_phase();
        let text = stg.to_g_string();
        let parsed = crate::parse_g(&text).unwrap();
        assert_eq!(parsed.signal_count(), 2);
        assert_eq!(parsed.transition_count(), 4);
        let sg1 = stg.to_state_graph().unwrap();
        let sg2 = parsed.to_state_graph().unwrap();
        assert_eq!(sg1.state_count(), sg2.state_count());
        assert_eq!(sg1.edge_count(), sg2.edge_count());
    }

    #[test]
    fn dot_export() {
        let stg = two_phase();
        let dot = stg.to_dot();
        assert!(dot.contains("digraph stg"));
        assert!(dot.contains("a+"));
        assert!(dot.contains("doublecircle"), "marked place rendered: {dot}");
    }

    #[test]
    fn display_summary() {
        let stg = two_phase();
        let s = stg.to_string();
        assert!(s.contains("two-phase"));
        assert!(s.contains("4 transitions"));
    }
}
