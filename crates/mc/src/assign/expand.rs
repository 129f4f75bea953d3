//! Phase assignments and state-graph expansion.

use std::collections::VecDeque;

use simc_sg::{SgBuilder, SignalKind, StateGraph, StateId, Transition};

use crate::error::McError;

/// The four-valued label of a state for a new signal `x`
/// (the `{0, 1, up, down}` codes of the generalized state assignment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// `x` is stable at 0.
    Zero,
    /// `x` is excited to rise (`+x` fires somewhere in this region).
    Up,
    /// `x` is stable at 1.
    One,
    /// `x` is excited to fall.
    Down,
}

impl Phase {
    /// Whether the `x = 0` copy of a state with this phase exists.
    pub fn has_low_copy(self) -> bool {
        matches!(self, Phase::Zero | Phase::Up | Phase::Down)
    }

    /// Whether the `x = 1` copy exists.
    pub fn has_high_copy(self) -> bool {
        matches!(self, Phase::One | Phase::Up | Phase::Down)
    }

    /// Whether the pair `(self, next)` is allowed along an edge
    /// (the cyclic order `0 → up → 1 → down → 0`, loops allowed).
    pub fn allows_edge_to(self, next: Phase) -> bool {
        matches!(
            (self, next),
            (Phase::Zero, Phase::Zero)
                | (Phase::Zero, Phase::Up)
                | (Phase::Up, Phase::Up)
                | (Phase::Up, Phase::One)
                | (Phase::One, Phase::One)
                | (Phase::One, Phase::Down)
                | (Phase::Down, Phase::Down)
                | (Phase::Down, Phase::Zero)
        )
    }

    /// Whether an edge `self → next` is *blocked* in one of the copies
    /// (and therefore must not carry an input transition).
    pub fn delays_edge_to(self, next: Phase) -> bool {
        matches!((self, next), (Phase::Up, Phase::One) | (Phase::Down, Phase::Zero))
    }
}

/// A phase labelling of every state for one new signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    phases: Vec<Phase>,
}

impl Assignment {
    /// Wraps a per-state phase vector (indexed by [`StateId`]).
    pub fn new(phases: Vec<Phase>) -> Self {
        Assignment { phases }
    }

    /// The phase of state `s`.
    pub fn phase(&self, s: StateId) -> Phase {
        self.phases[s.index()]
    }

    /// Number of labelled states.
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// Whether the assignment is empty.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Validates the assignment against `sg`: edge compatibility, input
    /// non-delay, and that the signal actually toggles (some `Up` and
    /// some `Down` state exist).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated rule.
    pub fn validate(&self, sg: &StateGraph) -> Result<(), McError> {
        if self.phases.len() != sg.state_count() {
            return Err(McError::InsertionFailed {
                reason: "assignment length differs from state count".to_string(),
            });
        }
        let mut has_up = false;
        let mut has_down = false;
        for s in sg.state_ids() {
            match self.phase(s) {
                Phase::Up => has_up = true,
                Phase::Down => has_down = true,
                _ => {}
            }
            for &(t, next) in sg.succs(s) {
                let (p, q) = (self.phase(s), self.phase(next));
                if !p.allows_edge_to(q) {
                    return Err(McError::InsertionFailed {
                        reason: format!(
                            "edge {} from {} breaks phase order {p:?} → {q:?}",
                            sg.transition_name(t),
                            sg.starred_code(s)
                        ),
                    });
                }
                if p.delays_edge_to(q) && !sg.signal(t.signal).kind().is_non_input() {
                    return Err(McError::InsertionFailed {
                        reason: format!(
                            "input transition {} would be delayed by the insertion",
                            sg.transition_name(t)
                        ),
                    });
                }
            }
        }
        if !has_up || !has_down {
            return Err(McError::InsertionFailed {
                reason: "inserted signal never toggles".to_string(),
            });
        }
        Ok(())
    }
}

/// Expands `sg` with a new internal signal `name` labelled by `asg`.
///
/// `Up`/`Down` states split into an `x = 0` and an `x = 1` copy joined by
/// the new signal's transition; original edges connect same-rail copies
/// (which silently blocks the non-input transitions crossing `up → 1` and
/// `down → 0` in the pre-fire copy — the insertion's whole point).
///
/// # Errors
///
/// Fails if the assignment is invalid or the expansion is structurally
/// inconsistent (never for validated assignments).
pub fn expand(sg: &StateGraph, asg: &Assignment, name: &str) -> Result<StateGraph, McError> {
    asg.validate(sg)?;
    expand_validated(sg, asg, name)
}

/// [`expand`] for an assignment that already passed
/// [`Assignment::validate`] against `sg`.
pub(crate) fn expand_validated(
    sg: &StateGraph,
    asg: &Assignment,
    name: &str,
) -> Result<StateGraph, McError> {
    let mut builder = SgBuilder::new();
    for sig in sg.signal_ids() {
        builder.add_signal(sg.signal(sig).name(), sg.signal(sig).kind())?;
    }
    let x = builder.add_signal(name, SignalKind::Internal)?;

    // Breadth-first construction over (state, rail) pairs so only
    // reachable copies are materialized. The copy of original state `s`
    // on rail `r` of the new signal lives in slot `2·s + r` of `ids`.
    let initial_rail = match asg.phase(sg.initial()) {
        Phase::Zero | Phase::Up => false,
        Phase::One | Phase::Down => true,
    };
    let slot = |s: StateId, rail: bool| 2 * s.index() + usize::from(rail);
    let mut ids: Vec<Option<StateId>> = vec![None; 2 * sg.state_count()];
    let mut queue = VecDeque::new();

    let code_of = |s: StateId, rail: bool| sg.code(s).with_value(x, rail);
    let s0 = builder.add_state(code_of(sg.initial(), initial_rail));
    builder.set_initial(s0);
    ids[slot(sg.initial(), initial_rail)] = Some(s0);
    queue.push_back((sg.initial(), initial_rail, s0));

    let mut targets: Vec<(Transition, StateId, bool)> = Vec::new();
    while let Some((s, rail, from)) = queue.pop_front() {
        targets.clear();
        // The new signal's own transition.
        match (asg.phase(s), rail) {
            (Phase::Up, false) => targets.push((Transition::rise(x), s, true)),
            (Phase::Down, true) => targets.push((Transition::fall(x), s, false)),
            _ => {}
        }
        // Original transitions stay on the same rail when the target copy
        // exists.
        for &(t, next) in sg.succs(s) {
            let exists = if rail {
                asg.phase(next).has_high_copy()
            } else {
                asg.phase(next).has_low_copy()
            };
            // A Down state's low copy exists, but entering it from a One
            // state's high rail is impossible; the rail decides.
            if exists {
                targets.push((t, next, rail));
            }
        }
        for &(t, next, next_rail) in &targets {
            let to = match ids[slot(next, next_rail)] {
                Some(to) => to,
                None => {
                    let to = builder.add_state(code_of(next, next_rail));
                    ids[slot(next, next_rail)] = Some(to);
                    queue.push_back((next, next_rail, to));
                    to
                }
            };
            builder.add_edge(from, t, to)?;
        }
    }
    builder.build().map_err(McError::Sg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simc_benchmarks::figures;

    /// Toggle: 4 states 0*0 → 10* → 1*1 → 01* →. Insert x rising after +a
    /// and falling after -a.
    fn toggle_assignment() -> (StateGraph, Assignment) {
        let sg = figures::toggle();
        // state order from the starred listing: 0*0, 10*, 1*1, 01*
        let phases = vec![Phase::Zero, Phase::Up, Phase::One, Phase::Down];
        (sg, Assignment::new(phases))
    }

    #[test]
    fn valid_assignment_expands() {
        let (sg, asg) = toggle_assignment();
        asg.validate(&sg).unwrap();
        let expanded = expand(&sg, &asg, "x").unwrap();
        // 4 states + one extra copy for Up and Down each = 6.
        assert_eq!(expanded.state_count(), 6);
        assert_eq!(expanded.signal_count(), 3);
        let x = expanded.signal_by_name("x").unwrap();
        assert_eq!(expanded.signal(x).kind(), SignalKind::Internal);
        // Consistency and reachability are enforced by the builder; also
        // the expansion preserves output semi-modularity here.
        assert!(expanded.analysis().is_output_semimodular());
    }

    #[test]
    fn phase_rules() {
        assert!(Phase::Zero.allows_edge_to(Phase::Up));
        assert!(!Phase::Zero.allows_edge_to(Phase::One));
        assert!(!Phase::Up.allows_edge_to(Phase::Zero));
        assert!(Phase::Down.allows_edge_to(Phase::Zero));
        assert!(Phase::Up.delays_edge_to(Phase::One));
        assert!(!Phase::Up.delays_edge_to(Phase::Up));
    }

    #[test]
    fn invalid_edge_rejected() {
        let sg = figures::toggle();
        let phases = vec![Phase::Zero, Phase::One, Phase::One, Phase::Down];
        let err = Assignment::new(phases).validate(&sg).unwrap_err();
        assert!(matches!(err, McError::InsertionFailed { .. }));
    }

    #[test]
    fn input_delay_rejected() {
        // Toggle edges: +a (input) from 0*0 to 10*; make that edge cross
        // Up → One so the input would be delayed.
        let sg = figures::toggle();
        let phases = vec![Phase::Up, Phase::One, Phase::Down, Phase::Zero];
        let err = Assignment::new(phases).validate(&sg).unwrap_err();
        assert!(matches!(err, McError::InsertionFailed { .. }));
    }

    #[test]
    fn never_toggling_rejected() {
        let sg = figures::toggle();
        let phases = vec![Phase::Zero; 4];
        let err = Assignment::new(phases).validate(&sg).unwrap_err();
        assert!(matches!(err, McError::InsertionFailed { .. }));
    }

    #[test]
    fn double_toggle_assignment_expands() {
        // x toggles twice per cycle: valid phase sequences may contain
        // several Up/Down islands (needed for round-parity counter bits).
        // Use an 8-state ring a+ b+ a- b- a+/2 b+/2 ... no — reuse two
        // chained toggles: 0*0 -> 10* -> 1*1 -> 01* over (a, b), and label
        // Up/One/Down/Zero so x rises before b+ and falls before b-.
        let sg = figures::toggle();
        let phases = vec![Phase::Up, Phase::One, Phase::Down, Phase::Zero];
        // Edge a+ from state 0 (Up) to state 1 (One) is an input: delayed
        // — invalid. Flip to a legal single-toggle variant instead and
        // check the stricter case via the c-element's 8-state graph.
        assert!(Assignment::new(phases).validate(&sg).is_err());

        let celem = figures::c_element();
        // States: 0*0*0, 10*0, 0*10, 110*, 1*1*1, 01*1, 1*01, 001*.
        // Let x rise while c rises (state 110*) and fall while c falls
        // (state 001*): Up = {110*}, One = {1*1*1, 01*1, 1*01},
        // Down = {001*}, Zero = rest.
        let phases = vec![
            Phase::Zero, // 0*0*0
            Phase::Zero, // 10*0
            Phase::Zero, // 0*10
            Phase::Up,   // 110*
            Phase::One,  // 1*1*1
            Phase::One,  // 01*1
            Phase::One,  // 1*01
            Phase::Down, // 001*
        ];
        let asg = Assignment::new(phases);
        asg.validate(&celem).unwrap();
        let expanded = expand(&celem, &asg, "x").unwrap();
        assert_eq!(expanded.state_count(), 10);
        assert!(expanded.analysis().is_output_semimodular());
        // Observable behaviour preserved.
        let x = expanded.signal_by_name("x").unwrap();
        assert!(simc_sg::equiv::weak_bisimilar(&celem, &expanded, &[], &[x]));
    }

    #[test]
    fn expansion_preserves_original_language_shape() {
        let (sg, asg) = toggle_assignment();
        let expanded = expand(&sg, &asg, "x").unwrap();
        // Projecting away x gives back exactly the original codes.
        let x = expanded.signal_by_name("x").unwrap();
        let mut projected: Vec<u64> = expanded
            .state_ids()
            .map(|s| expanded.code(s).bits() & !(1 << x.index()))
            .collect();
        projected.sort_unstable();
        projected.dedup();
        assert_eq!(projected.len(), sg.state_count());
    }
}
