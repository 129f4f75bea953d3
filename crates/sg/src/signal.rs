//! Signals and signal transitions.

use std::fmt;

/// Index of a signal within a [`StateGraph`](crate::StateGraph).
///
/// Signal ids are dense: a graph with `n` signals uses ids `0..n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SignalId(pub(crate) u32);

impl SignalId {
    /// Creates a signal id from a raw index.
    pub fn new(index: usize) -> Self {
        SignalId(index as u32)
    }

    /// The raw index of this signal.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SignalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// The role a signal plays in a specification.
///
/// Only *non-input* signals (outputs and internal signals) are synthesized
/// into logic; input signals are produced by the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignalKind {
    /// Driven by the environment; never synthesized.
    Input,
    /// Observable non-input signal implemented by the circuit.
    Output,
    /// Non-observable non-input signal (e.g. an inserted state signal).
    Internal,
}

impl SignalKind {
    /// Whether the signal must be implemented by the circuit.
    pub fn is_non_input(self) -> bool {
        !matches!(self, SignalKind::Input)
    }
}

/// A named signal together with its [`SignalKind`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Signal {
    name: String,
    kind: SignalKind,
}

impl Signal {
    /// Creates a new signal description.
    pub fn new(name: impl Into<String>, kind: SignalKind) -> Self {
        Signal { name: name.into(), kind }
    }

    /// The signal's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The signal's kind.
    pub fn kind(&self) -> SignalKind {
        self.kind
    }
}

/// Direction of a signal transition: rising (`+a`) or falling (`-a`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dir {
    /// A `0 -> 1` transition, written `+a`.
    Rise,
    /// A `1 -> 0` transition, written `-a`.
    Fall,
}

impl Dir {
    /// The direction that takes signal value `from` to its complement.
    pub fn from_value(from: bool) -> Self {
        if from {
            Dir::Fall
        } else {
            Dir::Rise
        }
    }

    /// The signal value *before* a transition in this direction fires.
    pub fn value_before(self) -> bool {
        matches!(self, Dir::Fall)
    }

    /// The signal value *after* a transition in this direction fires.
    pub fn value_after(self) -> bool {
        matches!(self, Dir::Rise)
    }

    /// The opposite direction.
    pub fn opposite(self) -> Self {
        match self {
            Dir::Rise => Dir::Fall,
            Dir::Fall => Dir::Rise,
        }
    }

    /// The sign character used in the paper's notation (`+` or `-`).
    pub fn sign(self) -> char {
        match self {
            Dir::Rise => '+',
            Dir::Fall => '-',
        }
    }
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.sign())
    }
}

/// A signal transition label `±a`: one signal changing in one direction.
///
/// Multiple occurrences of the same transition within a cycle (the paper's
/// `*a_j` index) are distinguished at the *region* level, not in the label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Transition {
    /// The changing signal.
    pub signal: SignalId,
    /// Whether it rises or falls.
    pub dir: Dir,
}

impl Transition {
    /// Creates a rising transition `+signal`.
    pub fn rise(signal: SignalId) -> Self {
        Transition { signal, dir: Dir::Rise }
    }

    /// Creates a falling transition `-signal`.
    pub fn fall(signal: SignalId) -> Self {
        Transition { signal, dir: Dir::Fall }
    }
}

impl fmt::Display for Transition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.dir.sign(), self.signal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dir_roundtrip() {
        assert_eq!(Dir::from_value(false), Dir::Rise);
        assert_eq!(Dir::from_value(true), Dir::Fall);
        assert!(!Dir::Rise.value_before());
        assert!(Dir::Rise.value_after());
        assert!(Dir::Fall.value_before());
        assert!(!Dir::Fall.value_after());
        assert_eq!(Dir::Rise.opposite(), Dir::Fall);
        assert_eq!(Dir::Fall.opposite(), Dir::Rise);
    }

    #[test]
    fn kind_non_input() {
        assert!(!SignalKind::Input.is_non_input());
        assert!(SignalKind::Output.is_non_input());
        assert!(SignalKind::Internal.is_non_input());
    }

    #[test]
    fn transition_display() {
        let t = Transition::rise(SignalId::new(3));
        assert_eq!(t.to_string(), "+x3");
        let t = Transition::fall(SignalId::new(0));
        assert_eq!(t.to_string(), "-x0");
    }

    #[test]
    fn signal_accessors() {
        let s = Signal::new("req", SignalKind::Input);
        assert_eq!(s.name(), "req");
        assert_eq!(s.kind(), SignalKind::Input);
    }
}
