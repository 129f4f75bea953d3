//! Product terms over up to 64 Boolean variables.

use std::fmt;

/// A cube (product term): a conjunction of literals over variables `0..64`.
///
/// Internally a pair of bitmasks: `care` marks the variables that appear as
/// literals, `value` gives each literal's polarity (meaningful only where
/// `care` is set). The cube with no literals is the universal cube
/// ([`Cube::top`]); cubes here are never the empty product — emptiness only
/// arises from failed intersections, which return `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cube {
    care: u64,
    value: u64,
}

impl Cube {
    /// The universal cube (no literals; covers every minterm).
    pub fn top() -> Self {
        Cube { care: 0, value: 0 }
    }

    /// The full minterm of `code` over `n` variables: one literal per
    /// variable, polarity taken from `code`.
    pub fn minterm(code: u64, n: usize) -> Self {
        let care = mask(n);
        Cube { care, value: code & care }
    }

    /// Creates a cube from raw masks. Bits of `value` outside `care` are
    /// cleared.
    pub fn from_masks(care: u64, value: u64) -> Self {
        Cube { care, value: value & care }
    }

    /// Returns this cube with the literal on `var` set to `polarity`.
    #[must_use]
    pub fn with_literal(self, var: usize, polarity: bool) -> Self {
        let bit = 1u64 << var;
        Cube {
            care: self.care | bit,
            value: if polarity { self.value | bit } else { self.value & !bit },
        }
    }

    /// Returns this cube with any literal on `var` removed.
    #[must_use]
    pub fn without_literal(self, var: usize) -> Self {
        let bit = 1u64 << var;
        Cube { care: self.care & !bit, value: self.value & !bit }
    }

    /// The polarity of the literal on `var`, or `None` if absent.
    pub fn literal(self, var: usize) -> Option<bool> {
        let bit = 1u64 << var;
        if self.care & bit != 0 {
            Some(self.value & bit != 0)
        } else {
            None
        }
    }

    /// Indices of the variables appearing as literals, ascending.
    pub fn literals(self) -> impl Iterator<Item = (usize, bool)> {
        let care = self.care;
        let value = self.value;
        (0..64).filter_map(move |i| {
            let bit = 1u64 << i;
            if care & bit != 0 {
                Some((i, value & bit != 0))
            } else {
                None
            }
        })
    }

    /// Number of literals (the cube's *dimension* complement: more
    /// literals means a smaller cube).
    pub fn literal_count(self) -> u32 {
        self.care.count_ones()
    }

    /// The care mask (bit `i` set iff variable `i` appears).
    pub fn care_mask(self) -> u64 {
        self.care
    }

    /// The polarity mask (valid where [`Cube::care_mask`] is set).
    pub fn value_mask(self) -> u64 {
        self.value
    }

    /// Whether the minterm `code` satisfies every literal.
    pub fn covers(self, code: u64) -> bool {
        code & self.care == self.value
    }

    /// Whether every minterm of `other` is covered by `self`.
    pub fn contains(self, other: Cube) -> bool {
        // self's literals must be a subset of other's, with equal polarity.
        self.care & other.care == self.care && other.value & self.care == self.value
    }

    /// The intersection (product) of two cubes, or `None` if they conflict
    /// in some literal (empty product).
    pub fn intersect(self, other: Cube) -> Option<Cube> {
        let both = self.care & other.care;
        if (self.value ^ other.value) & both != 0 {
            return None;
        }
        Some(Cube { care: self.care | other.care, value: self.value | other.value })
    }

    /// Whether the two cubes share at least one minterm.
    pub fn overlaps(self, other: Cube) -> bool {
        self.intersect(other).is_some()
    }

    /// The smallest cube containing both (the supercube): literals on
    /// which both agree.
    pub fn supercube(self, other: Cube) -> Cube {
        let care = self.care & other.care & !(self.value ^ other.value);
        Cube { care, value: self.value & care }
    }

    /// The number of conflicting literals between the cubes (the
    /// *distance*; 0 means they overlap).
    pub fn distance(self, other: Cube) -> u32 {
        ((self.value ^ other.value) & self.care & other.care).count_ones()
    }

    /// The cofactor of this cube with respect to `var = polarity`:
    /// `None` if the cube requires the opposite polarity, otherwise the
    /// cube with the literal on `var` removed.
    pub fn cofactor(self, var: usize, polarity: bool) -> Option<Cube> {
        match self.literal(var) {
            Some(p) if p != polarity => None,
            _ => Some(self.without_literal(var)),
        }
    }

    /// Number of minterms covered over `n` variables.
    ///
    /// # Panics
    ///
    /// Panics if `n < literal_count()` would make the result negative —
    /// i.e. if a literal index is `>= n`.
    pub fn minterm_count(self, n: usize) -> u64 {
        let k = self.literal_count() as usize;
        assert!(
            self.care & !mask(n) == 0,
            "cube has literals beyond variable count"
        );
        1u64 << (n - k)
    }

    /// Renders the cube with the given variable names: plain name for a
    /// positive literal, name + `'` for a negative one, `1` for the
    /// universal cube. Matches the paper's equation style (`ab'c`).
    pub fn render(self, names: &[impl AsRef<str>]) -> String {
        if self.care == 0 {
            return "1".to_string();
        }
        let mut out = String::new();
        for (var, polarity) in self.literals() {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(names[var].as_ref());
            if !polarity {
                out.push('\'');
            }
        }
        out
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.care == 0 {
            return write!(f, "1");
        }
        let mut first = true;
        for (var, polarity) in self.literals() {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            write!(f, "x{var}{}", if polarity { "" } else { "'" })?;
        }
        Ok(())
    }
}

pub(crate) fn mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_covers_everything() {
        let t = Cube::top();
        assert!(t.covers(0));
        assert!(t.covers(u64::MAX));
        assert_eq!(t.literal_count(), 0);
        assert_eq!(t.to_string(), "1");
    }

    #[test]
    fn minterm_covers_only_itself() {
        let m = Cube::minterm(0b101, 3);
        assert!(m.covers(0b101));
        assert!(!m.covers(0b100));
        assert!(!m.covers(0b111));
        assert_eq!(m.literal_count(), 3);
        assert_eq!(m.minterm_count(3), 1);
    }

    #[test]
    fn literal_manipulation() {
        let c = Cube::top().with_literal(2, true).with_literal(0, false);
        assert_eq!(c.literal(2), Some(true));
        assert_eq!(c.literal(0), Some(false));
        assert_eq!(c.literal(1), None);
        let c2 = c.without_literal(2);
        assert_eq!(c2.literal(2), None);
        assert_eq!(c2.literal_count(), 1);
        // flipping polarity overwrites
        let c3 = c.with_literal(0, true);
        assert_eq!(c3.literal(0), Some(true));
    }

    #[test]
    fn containment() {
        let big = Cube::top().with_literal(0, true);
        let small = big.with_literal(1, false);
        assert!(big.contains(small));
        assert!(!small.contains(big));
        assert!(big.contains(big));
        let other = Cube::top().with_literal(0, false);
        assert!(!big.contains(other));
    }

    #[test]
    fn intersection_and_distance() {
        let a = Cube::top().with_literal(0, true);
        let b = Cube::top().with_literal(1, false);
        let ab = a.intersect(b).unwrap();
        assert_eq!(ab.literal_count(), 2);
        assert!(ab.covers(0b01));
        let a_neg = Cube::top().with_literal(0, false);
        assert!(a.intersect(a_neg).is_none());
        assert_eq!(a.distance(a_neg), 1);
        assert_eq!(a.distance(b), 0);
        assert!(a.overlaps(b));
        assert!(!a.overlaps(a_neg));
    }

    #[test]
    fn supercube_drops_conflicts() {
        let m1 = Cube::minterm(0b00, 2);
        let m2 = Cube::minterm(0b01, 2);
        let sup = m1.supercube(m2);
        // variable 0 conflicts, variable 1 agreed at 0
        assert_eq!(sup.literal(0), None);
        assert_eq!(sup.literal(1), Some(false));
        assert!(sup.contains(m1) && sup.contains(m2));
    }

    #[test]
    fn cofactor_behaviour() {
        let c = Cube::top().with_literal(0, true).with_literal(1, false);
        assert_eq!(c.cofactor(0, true), Some(Cube::top().with_literal(1, false)));
        assert_eq!(c.cofactor(0, false), None);
        // cofactor on absent variable is the cube itself
        assert_eq!(c.cofactor(5, true), Some(c));
    }

    #[test]
    fn minterm_count_scales() {
        let c = Cube::top().with_literal(0, true);
        assert_eq!(c.minterm_count(4), 8);
        assert_eq!(Cube::top().minterm_count(4), 16);
    }

    #[test]
    fn render_matches_paper_style() {
        let c = Cube::top().with_literal(0, true).with_literal(1, false).with_literal(2, true);
        assert_eq!(c.render(&["a", "b", "c"]), "a b' c");
    }
}
