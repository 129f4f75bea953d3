//! Behavioural properties of state graphs (Definitions 1–4 and 14).
//!
//! Everything here quantifies over the states of the graph, which are all
//! reachable by construction (see [`SgBuilder::build`](crate::SgBuilder)).

use std::collections::HashMap;

use crate::graph::{StateGraph, StateId};
use crate::signal::{SignalId, SignalKind, Transition};

/// A conflict witness (Definition 1): signal `victim` is excited in `state`
/// but firing `by` leads to `after`, where `victim` is stable again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conflict {
    /// The conflict state `w`.
    pub state: StateId,
    /// The signal that gets disabled.
    pub victim: SignalId,
    /// The transition whose firing disables `victim`.
    pub by: Transition,
    /// The state `u` in which `victim` is no longer excited.
    pub after: StateId,
}

/// A detonant witness (Definition 3): `signal` is stable in `state` but
/// excited in two distinct direct successors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Detonant {
    /// The detonant state `w`.
    pub state: StateId,
    /// The signal excited in both successors.
    pub signal: SignalId,
    /// First successor in which `signal` is excited.
    pub succ_a: StateId,
    /// Second successor in which `signal` is excited.
    pub succ_b: StateId,
}

/// A Complete State Coding violation (Definition 14): two states share a
/// binary code but enable different non-input transitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CscViolation {
    /// First state of the clashing pair.
    pub state_a: StateId,
    /// Second state of the clashing pair.
    pub state_b: StateId,
    /// Non-input transitions enabled in `state_a` but not `state_b`, and
    /// vice versa (symmetric difference).
    pub differing: Vec<Transition>,
}

/// Behavioural-analysis view over a [`StateGraph`].
///
/// Cheap to create; each query walks the graph. Obtain via
/// [`StateGraph::analysis`].
#[derive(Debug, Clone, Copy)]
pub struct Analysis<'g> {
    sg: &'g StateGraph,
}

impl<'g> Analysis<'g> {
    pub(crate) fn new(sg: &'g StateGraph) -> Self {
        Analysis { sg }
    }

    /// All conflict witnesses (Definition 1).
    ///
    /// A state `w` is a conflict state with respect to signal `a` iff `a`
    /// is excited in `w` and firing some other enabled transition leads to
    /// a state where `a` is stable.
    pub fn conflicts(&self) -> Vec<Conflict> {
        let sg = self.sg;
        let mut out = Vec::new();
        for w in sg.state_ids() {
            let excited = sg.excited(w);
            if excited.len() < 2 {
                continue;
            }
            for &(by, u) in sg.succs(w) {
                for &victim in &excited {
                    if victim == by.signal {
                        continue;
                    }
                    if !sg.is_excited(u, victim) {
                        out.push(Conflict { state: w, victim, by, after: u });
                    }
                }
            }
        }
        out
    }

    /// Conflict witnesses whose victim is a non-input signal — the
    /// *internally conflict states* that localize hazards.
    pub fn internal_conflicts(&self) -> Vec<Conflict> {
        self.conflicts()
            .into_iter()
            .filter(|c| self.sg.signal(c.victim).kind().is_non_input())
            .collect()
    }

    /// Semi-modularity (Definition 2): no conflict state at all.
    pub fn is_semimodular(&self) -> bool {
        self.conflicts().is_empty()
    }

    /// Output semi-modularity (Definition 2): no *internally* conflict
    /// state; input conflicts (environment choice) are permitted.
    ///
    /// Equal to `internal_conflicts().is_empty()`, but decided with one
    /// mask test per edge and no allocation: state `w` with edge
    /// `(by, u)` is an internal conflict state iff some non-input signal
    /// other than `by`'s is excited in `w` and not in `u`.
    pub fn is_output_semimodular(&self) -> bool {
        let sg = self.sg;
        let non_input = sg
            .signal_ids()
            .filter(|&s| sg.signal(s).kind().is_non_input())
            .fold(0u64, |mask, s| mask | 1 << s.index());
        sg.state_ids().all(|w| {
            let excited = sg.excited_mask(w) & non_input;
            sg.succs(w).iter().all(|&(by, u)| {
                excited & !(1 << by.signal.index()) & !sg.excited_mask(u) == 0
            })
        })
    }

    /// All detonant witnesses (Definition 3) for the given signal filter.
    ///
    /// Following the intent of the definition (OR-causality breaking
    /// distributivity), the two successors must be reached by *concurrent*
    /// transitions — each must remain enabled after the other fires,
    /// forming a diamond. Alternatives of a choice (as in the initial state
    /// of the paper's Figure 1, which the paper explicitly calls
    /// detonant-free) do not count.
    fn detonants_where(&self, keep: impl Fn(SignalId) -> bool) -> Vec<Detonant> {
        let sg = self.sg;
        let mut out = Vec::new();
        for w in sg.state_ids() {
            let succs = sg.succs(w);
            if succs.len() < 2 {
                continue;
            }
            for sig in sg.signal_ids().filter(|&s| keep(s)) {
                if sg.is_excited(w, sig) {
                    continue; // must be stable in w
                }
                let hot: Vec<(Transition, StateId)> = succs
                    .iter()
                    .filter(|&&(t, u)| t.signal != sig && sg.is_excited(u, sig))
                    .copied()
                    .collect();
                let witness = hot.iter().enumerate().find_map(|(i, &(ta, ua))| {
                    hot[i + 1..]
                        .iter()
                        .find(|&&(tb, ub)| {
                            sg.fire(ua, tb).is_some() && sg.fire(ub, ta).is_some()
                        })
                        .map(|&(_, ub)| (ua, ub))
                });
                if let Some((succ_a, succ_b)) = witness {
                    out.push(Detonant { state: w, signal: sig, succ_a, succ_b });
                }
            }
        }
        out
    }

    /// All detonant witnesses (Definition 3), any signal.
    pub fn detonants(&self) -> Vec<Detonant> {
        self.detonants_where(|_| true)
    }

    /// Detonant witnesses with respect to non-input signals only.
    pub fn internal_detonants(&self) -> Vec<Detonant> {
        self.detonants_where(|s| self.sg.signal(s).kind().is_non_input())
    }

    /// Distributivity (Definition 4): semi-modular and no detonant states.
    pub fn is_distributive(&self) -> bool {
        self.is_semimodular() && self.detonants().is_empty()
    }

    /// Output distributivity (Definition 4): output semi-modular and no
    /// detonant states with respect to non-input signals.
    pub fn is_output_distributive(&self) -> bool {
        self.is_output_semimodular() && self.internal_detonants().is_empty()
    }

    /// All Complete State Coding violations (Definition 14).
    ///
    /// States with identical binary codes must enable identical sets of
    /// non-input transitions. Returns one violation per clashing pair.
    pub fn csc_violations(&self) -> Vec<CscViolation> {
        let sg = self.sg;
        let mut groups: HashMap<u64, Vec<StateId>> = HashMap::new();
        for s in sg.state_ids() {
            groups.entry(sg.code(s).bits()).or_default().push(s);
        }
        let mut out = Vec::new();
        for group in groups.values() {
            if group.len() < 2 {
                continue;
            }
            for (i, &a) in group.iter().enumerate() {
                for &b in &group[i + 1..] {
                    let ea = self.enabled_non_input(a);
                    let eb = self.enabled_non_input(b);
                    if ea != eb {
                        let mut differing: Vec<Transition> = ea
                            .iter()
                            .filter(|t| !eb.contains(t))
                            .chain(eb.iter().filter(|t| !ea.contains(t)))
                            .copied()
                            .collect();
                        differing.sort_unstable();
                        out.push(CscViolation { state_a: a, state_b: b, differing });
                    }
                }
            }
        }
        out
    }

    /// Whether the graph satisfies the CSC requirement.
    pub fn has_csc(&self) -> bool {
        self.csc_violations().is_empty()
    }

    /// Whether every pair of states has a unique binary code (USC — a
    /// strictly stronger requirement than CSC).
    pub fn has_usc(&self) -> bool {
        let sg = self.sg;
        let mut seen = HashMap::new();
        for s in sg.state_ids() {
            if seen.insert(sg.code(s).bits(), s).is_some() {
                return false;
            }
        }
        true
    }

    fn enabled_non_input(&self, s: StateId) -> Vec<Transition> {
        let sg = self.sg;
        let mut v: Vec<Transition> = sg
            .succs(s)
            .iter()
            .map(|&(t, _)| t)
            .filter(|t| sg.signal(t.signal).kind() == SignalKind::Output
                || sg.signal(t.signal).kind() == SignalKind::Internal)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SgBuilder;
    use crate::signal::SignalKind;
    use crate::StateCode;
    use crate::StateGraph;

    /// The paper's Figure 1 SG: inputs a, b choose between two branches;
    /// the initial state 0*0*00 is an input conflict state.
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

    #[test]
    fn figure1_is_input_conflicting_only() {
        let sg = figure1();
        let an = sg.analysis();
        assert!(!an.is_semimodular());
        assert!(an.is_output_semimodular());
        // The only conflicts live in the initial state, between a and b.
        for c in an.conflicts() {
            assert_eq!(c.state, sg.initial());
            let name = sg.signal(c.victim).name();
            assert!(name == "a" || name == "b");
        }
    }

    #[test]
    fn figure1_is_output_distributive() {
        let sg = figure1();
        let an = sg.analysis();
        assert!(an.is_output_distributive());
        assert!(!an.is_distributive()); // not even semi-modular
    }

    #[test]
    fn figure1_has_csc() {
        let sg = figure1();
        assert!(sg.analysis().has_csc());
        assert!(sg.analysis().has_usc());
    }

    /// A two-input OR-causality style graph with a genuine output conflict:
    /// output c is excited in 00 but firing +a disables it.
    fn output_conflict_graph() -> StateGraph {
        // signals: a (input), c (output)
        // states: 0*0* --+a--> 10 (c stable!), 0*0* --+c--> 0*1 --+a--> 11 ...
        // Build: 00: a*,c* ; 10: terminal-ish back edge; 01: a*; 11: -a ...
        // Keep it a valid consistent graph:
        // 00 -> +a -> 10 ; 00 -> +c -> 01 ; 01 -> +a -> 11 ; 11 -> -c -> 10 ;
        // 10 -> -a -> 00
        let mut b = SgBuilder::new();
        let a = b.add_signal("a", SignalKind::Input).unwrap();
        let c = b.add_signal("c", SignalKind::Output).unwrap();
        let s00 = b.add_state(StateCode::zero());
        let s10 = b.add_state(StateCode::zero().with_value(a, true));
        let s01 = b.add_state(StateCode::zero().with_value(c, true));
        let s11 = b.add_state(StateCode::from_bits(0b11));
        b.add_edge(s00, Transition::rise(a), s10).unwrap();
        b.add_edge(s00, Transition::rise(c), s01).unwrap();
        b.add_edge(s01, Transition::rise(a), s11).unwrap();
        b.add_edge(s11, Transition::fall(c), s10).unwrap();
        b.add_edge(s10, Transition::fall(a), s00).unwrap();
        b.set_initial(s00);
        b.build().unwrap()
    }

    #[test]
    fn output_conflict_detected() {
        let sg = output_conflict_graph();
        let an = sg.analysis();
        assert!(!an.is_output_semimodular());
        let witnesses = an.internal_conflicts();
        assert_eq!(witnesses.len(), 1);
        let w = &witnesses[0];
        assert_eq!(sg.signal(w.victim).name(), "c");
        assert_eq!(sg.transition_name(w.by), "+a");
    }

    #[test]
    fn detonant_detection() {
        // Diamond where d becomes excited on both branches:
        //        00 0  (a*, b*)  [signals a,b inputs; d output]
        //  +a /        \ +b
        //   100 (b*,d*)  010 (a*,d*)
        //      \ +b    / +a
        //        110 (d*)
        //        +d -> 111 ... close the cycle -a -b -d
        let mut bld = SgBuilder::new();
        let a = bld.add_signal("a", SignalKind::Input).unwrap();
        let b = bld.add_signal("b", SignalKind::Input).unwrap();
        let d = bld.add_signal("d", SignalKind::Output).unwrap();
        let s000 = bld.add_state(StateCode::zero());
        let s100 = bld.add_state(StateCode::zero().with_value(a, true));
        let s010 = bld.add_state(StateCode::zero().with_value(b, true));
        let s110 = bld.add_state(StateCode::zero().with_value(a, true).with_value(b, true));
        let s111 = bld.add_state(StateCode::from_bits(0b111));
        let s011 = bld.add_state(StateCode::from_bits(0b110)); // a=0,b=1,d=1
        let s001 = bld.add_state(StateCode::from_bits(0b100)); // d=1 only
        bld.add_edge(s000, Transition::rise(a), s100).unwrap();
        bld.add_edge(s000, Transition::rise(b), s010).unwrap();
        bld.add_edge(s100, Transition::rise(b), s110).unwrap();
        bld.add_edge(s010, Transition::rise(a), s110).unwrap();
        // d excited in s100 and s010 (and s110); fire d only from s110 for
        // simplicity would make conflicts; give d edges everywhere it is
        // excited to keep it semi-modular.
        let s101 = bld.add_state(StateCode::from_bits(0b101)); // a=1,d=1
        bld.add_edge(s100, Transition::rise(d), s101).unwrap();
        bld.add_edge(s010, Transition::rise(d), s011).unwrap();
        bld.add_edge(s110, Transition::rise(d), s111).unwrap();
        bld.add_edge(s101, Transition::rise(b), s111).unwrap();
        bld.add_edge(s011, Transition::rise(a), s111).unwrap();
        // unwind: -a, -b, then -d
        let s011b = s011;
        let _ = s011b;
        bld.add_edge(s111, Transition::fall(a), s011).unwrap();
        bld.add_edge(s011, Transition::fall(b), s001).unwrap();
        bld.add_edge(s001, Transition::fall(d), s000).unwrap();
        bld.set_initial(s000);
        let sg = bld.build().unwrap();
        let an = sg.analysis();
        let dets = an.detonants();
        assert!(
            dets.iter().any(|w| sg.signal(w.signal).name() == "d" && w.state == s000),
            "s000 should be detonant for d: {dets:?}"
        );
        assert!(!an.is_distributive());
    }

    #[test]
    fn csc_violation_detected() {
        // Two states share code 10 but enable different output transitions.
        // a+ ; c+ ; a- ; c- … with a second visit to a=1,c=0 enabling
        // nothing vs. +c. Build a line: 00 ->+a 10 ->+c 11 ->-a 01 ->-c 00'
        // Can't easily revisit same code with different excitation without
        // more signals; use 3 signals.
        // 000 ->+a 100(+c) ->+c 101 ->-a 001 ->+a 100' (-c? no)…
        // Simpler known case: toggle with missing state signal:
        // states: 0*00? … Use the classic: a+ b+ a- b- vs a+ b+ b- a-.
        let mut bld = SgBuilder::new();
        let a = bld.add_signal("a", SignalKind::Input).unwrap();
        let c = bld.add_signal("c", SignalKind::Output).unwrap();
        // cycle: 00 -+a-> 10 -+c-> 11 --a-> 01 -+a-> 11' ... needs care:
        // 11' would duplicate 11. Instead:
        // 00 -+a-> 10 -+c-> 11 --a-> 01 --c-> 00 (single cycle, fine), then
        // add a second branch from 00: -? Instead force duplicate codes via
        // two different visits of 10: impossible in one cycle without more
        // signals. So build graph with two states of code 10 directly:
        let s00 = bld.add_state(StateCode::zero());
        let s10a = bld.add_state(StateCode::zero().with_value(a, true));
        let s11 = bld.add_state(StateCode::from_bits(0b11));
        let s10b = bld.add_state(StateCode::zero().with_value(a, true));
        // 00 -+a-> 10a(+c excited) -+c-> 11 --c-> 10b (c falls) --a-> 00
        bld.add_edge(s00, Transition::rise(a), s10a).unwrap();
        bld.add_edge(s10a, Transition::rise(c), s11).unwrap();
        bld.add_edge(s11, Transition::fall(c), s10b).unwrap();
        bld.add_edge(s10b, Transition::fall(a), s00).unwrap();
        bld.set_initial(s00);
        let sg = bld.build().unwrap();
        let an = sg.analysis();
        assert!(!an.has_usc());
        let viols = an.csc_violations();
        assert_eq!(viols.len(), 1);
        assert_eq!(viols[0].differing.len(), 1);
        assert_eq!(sg.transition_name(viols[0].differing[0]), "+c");
        assert!(!an.has_csc());
    }

    #[test]
    fn usc_without_csc_impossible() {
        // has_usc implies has_csc by definition.
        let sg = figure1();
        let an = sg.analysis();
        assert!(an.has_usc());
        assert!(an.has_csc());
    }
}
