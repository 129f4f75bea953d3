//! Binary state codes.

use std::fmt;

use crate::signal::SignalId;

/// Maximum number of signals representable in a [`StateCode`].
pub(crate) const MAX_SIGNALS: usize = 64;

/// The binary labelling `<s(1), …, s(n)>` of a state: one bit per signal.
///
/// Bit `i` holds the value of the signal with [`SignalId`] `i`. Codes are
/// *not* necessarily unique across states of a graph — duplicate codes are
/// exactly what the Complete State Coding analysis looks for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateCode(u64);

impl StateCode {
    /// The all-zero code.
    pub fn zero() -> Self {
        StateCode(0)
    }

    /// Creates a code from its raw bit representation.
    pub fn from_bits(bits: u64) -> Self {
        StateCode(bits)
    }

    /// The raw bit representation (bit `i` = value of signal `i`).
    pub fn bits(self) -> u64 {
        self.0
    }

    /// The value of signal `sig` in this code.
    pub fn value(self, sig: SignalId) -> bool {
        (self.0 >> sig.index()) & 1 == 1
    }

    /// Returns the code with signal `sig` set to `value`.
    pub fn with_value(self, sig: SignalId, value: bool) -> Self {
        let mask = 1u64 << sig.index();
        if value {
            StateCode(self.0 | mask)
        } else {
            StateCode(self.0 & !mask)
        }
    }

    /// Returns the code with signal `sig` toggled.
    pub fn toggled(self, sig: SignalId) -> Self {
        StateCode(self.0 ^ (1u64 << sig.index()))
    }

    /// The Hamming distance to `other` (number of differing signals).
    pub fn distance(self, other: StateCode) -> u32 {
        (self.0 ^ other.0).count_ones()
    }

    /// If `self` and `other` differ in exactly one signal, returns it.
    pub fn single_difference(self, other: StateCode) -> Option<SignalId> {
        let diff = self.0 ^ other.0;
        if diff != 0 && diff & (diff - 1) == 0 {
            Some(SignalId::new(diff.trailing_zeros() as usize))
        } else {
            None
        }
    }

    /// Renders the code as a `0`/`1` string over the first `n` signals,
    /// signal 0 leftmost — the order used in the paper's figures.
    pub fn display(self, n: usize) -> String {
        (0..n)
            .map(|i| if self.value(SignalId::new(i)) { '1' } else { '0' })
            .collect()
    }
}

impl fmt::Display for StateCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:b}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(i: usize) -> SignalId {
        SignalId::new(i)
    }

    #[test]
    fn set_get_toggle() {
        let c = StateCode::zero().with_value(sig(3), true);
        assert!(c.value(sig(3)));
        assert!(!c.value(sig(2)));
        let c2 = c.toggled(sig(3));
        assert_eq!(c2, StateCode::zero());
        let c3 = c.toggled(sig(0));
        assert!(c3.value(sig(0)));
        assert!(c3.value(sig(3)));
    }

    #[test]
    fn with_value_clears() {
        let c = StateCode::from_bits(0b1111).with_value(sig(1), false);
        assert_eq!(c.bits(), 0b1101);
    }

    #[test]
    fn distance_and_single_difference() {
        let a = StateCode::from_bits(0b1010);
        let b = StateCode::from_bits(0b1000);
        assert_eq!(a.distance(b), 1);
        assert_eq!(a.single_difference(b), Some(sig(1)));
        let c = StateCode::from_bits(0b0001);
        assert_eq!(a.distance(c), 3);
        assert_eq!(a.single_difference(c), None);
        assert_eq!(a.single_difference(a), None);
    }

    #[test]
    fn display_order_is_signal_zero_first() {
        // Signal 0 leftmost, as in the paper's `a b c d` column headers.
        let c = StateCode::zero().with_value(sig(0), true).with_value(sig(3), true);
        assert_eq!(c.display(4), "1001");
    }
}
