//! Gate primitives and their next-state functions.

/// The primitive gates of the paper's implementation structures.
///
/// Combinational gates compute their output from inputs alone; the latch
/// rails are sequential (they *hold* when neither set nor reset is
/// active). Input inversions on AND/OR gates are part of the gate, per the
/// paper's justification that bundled input inverters preserve
/// speed-independence under the realistic bound `d_inv^max < D_sn^min`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// AND gate; bit `i` of the mask inverts input `i`.
    And {
        /// Inversion bubbles per input position.
        inverted: u64,
    },
    /// OR gate; bit `i` of the mask inverts input `i`.
    Or {
        /// Inversion bubbles per input position.
        inverted: u64,
    },
    /// NAND gate; bit `i` of the mask inverts input `i`.
    Nand {
        /// Inversion bubbles per input position.
        inverted: u64,
    },
    /// NOR gate; bit `i` of the mask inverts input `i`. Cross-coupled NOR
    /// pairs realize the RS latches of the standard RS-implementation out
    /// of basic gates.
    Nor {
        /// Inversion bubbles per input position.
        inverted: u64,
    },
    /// Inverter (single input).
    Not,
    /// Buffer (single input) — used to model explicit wire delays.
    Buf,
    /// An atomic *complex gate*: a sum-of-products over its inputs, with
    /// the gate's own current output appended as the last input when
    /// `feedback` is set (the next-state-function implementation style of
    /// Chu's thesis, which the paper contrasts with its basic-gate
    /// architecture). Assumed internally hazard-free, like the latches.
    Complex {
        /// Whether the gate's own output is an implicit last input.
        feedback: bool,
    },
    /// A Muller C-element used as set/reset memory: inputs `[set, reset]`
    /// (bit `i` of the mask inverts input `i`, bundled like AND-gate
    /// bubbles); `set` alone drives it to 1, `reset` alone to 0, otherwise
    /// it *holds* — including the transient `set = reset = 1` overlap that
    /// arises while excitation logic settles (`C = AB + (A+B)C` with
    /// `B = R̄` holds there). A *stable* `set = reset = 1` is flagged by
    /// the verifier as a logic error.
    CElement {
        /// Inversion bubbles on [set, reset].
        inverted: u64,
    },
}

impl GateKind {
    /// Whether the gate holds state (its evaluation reads its own output).
    pub fn is_sequential(self) -> bool {
        matches!(
            self,
            GateKind::CElement { .. } | GateKind::Complex { feedback: true }
        )
    }

    /// Evaluates the gate's *target* value from input values and (for
    /// sequential gates) the current output.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` has the wrong arity for the kind (builders
    /// validate arity up front).
    pub fn eval(self, inputs: &[bool], current: bool) -> bool {
        match self {
            GateKind::And { inverted } => inputs
                .iter()
                .enumerate()
                .all(|(i, &v)| v != (inverted >> i & 1 == 1)),
            GateKind::Or { inverted } => inputs
                .iter()
                .enumerate()
                .any(|(i, &v)| v != (inverted >> i & 1 == 1)),
            GateKind::Nand { inverted } => !inputs
                .iter()
                .enumerate()
                .all(|(i, &v)| v != (inverted >> i & 1 == 1)),
            GateKind::Nor { inverted } => !inputs
                .iter()
                .enumerate()
                .any(|(i, &v)| v != (inverted >> i & 1 == 1)),
            GateKind::Not => !inputs[0],
            GateKind::Buf => inputs[0],
            GateKind::Complex { .. } => {
                unreachable!("complex gates evaluate through Netlist::eval_complex")
            }
            GateKind::CElement { inverted } => {
                let set = inputs[0] != (inverted & 1 == 1);
                let reset = inputs[1] != (inverted >> 1 & 1 == 1);
                match (set, reset) {
                    (true, false) => true,
                    (false, true) => false,
                    _ => current, // hold on (0,0) and on transient (1,1)
                }
            }
        }
    }

    /// Human-readable kind name.
    pub fn name(self) -> &'static str {
        match self {
            GateKind::And { .. } => "and",
            GateKind::Or { .. } => "or",
            GateKind::Nand { .. } => "nand",
            GateKind::Nor { .. } => "nor",
            GateKind::Not => "not",
            GateKind::Buf => "buf",
            GateKind::Complex { .. } => "complex",
            GateKind::CElement { .. } => "c-element",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_or_with_inversions() {
        let and = GateKind::And { inverted: 0b10 };
        // in1 is inverted: f = a · b̄
        assert!(and.eval(&[true, false], false));
        assert!(!and.eval(&[true, true], false));
        assert!(!and.eval(&[false, false], false));
        let or = GateKind::Or { inverted: 0b01 };
        // f = ā + b
        assert!(or.eval(&[false, false], false));
        assert!(or.eval(&[true, true], false));
        assert!(!or.eval(&[true, false], false));
    }

    #[test]
    fn not_and_buf() {
        assert!(GateKind::Not.eval(&[false], false));
        assert!(!GateKind::Not.eval(&[true], true));
        assert!(GateKind::Buf.eval(&[true], false));
    }

    #[test]
    fn c_element_semantics() {
        let c = GateKind::CElement { inverted: 0 };
        assert!(c.eval(&[true, false], false)); // set
        assert!(!c.eval(&[false, true], true)); // reset
        assert!(c.eval(&[false, false], true)); // hold 1
        assert!(!c.eval(&[false, false], false)); // hold 0
        assert!(c.eval(&[true, true], true)); // transient clash holds
        assert!(!c.eval(&[true, true], false));
        assert!(c.is_sequential());
        assert!(!GateKind::Not.is_sequential());
        // Input bubbles: reset active-low.
        let c = GateKind::CElement { inverted: 0b10 };
        assert!(!c.eval(&[false, false], true)); // reset (low) active
        assert!(c.eval(&[true, true], false)); // set active, reset idle
    }

    #[test]
    fn nand_nor() {
        let nand = GateKind::Nand { inverted: 0 };
        assert!(!nand.eval(&[true, true], false));
        assert!(nand.eval(&[true, false], false));
        let nor = GateKind::Nor { inverted: 0 };
        assert!(nor.eval(&[false, false], false));
        assert!(!nor.eval(&[true, false], false));
        // Cross-coupled NOR truth: set side
        assert!(!GateKind::Nor { inverted: 0 }.eval(&[true, false], true));
    }

    #[test]
    fn empty_and_is_true_empty_or_is_false() {
        assert!(GateKind::And { inverted: 0 }.eval(&[], false));
        assert!(!GateKind::Or { inverted: 0 }.eval(&[], false));
    }
}
