//! Sum-of-products covers.

use std::fmt;

use crate::cube::Cube;

/// A sum-of-products cover: an ordered list of [`Cube`]s whose union is
/// the function's on-set (plus possibly don't-cares).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cover {
    cubes: Vec<Cube>,
}

impl Cover {
    /// The empty cover (constant 0).
    pub fn empty() -> Self {
        Cover { cubes: Vec::new() }
    }

    /// Creates a cover from cubes, preserving order.
    pub fn from_cubes(cubes: Vec<Cube>) -> Self {
        Cover { cubes }
    }

    /// The cubes, in order.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Number of cubes (product terms / AND gates).
    pub fn len(&self) -> usize {
        self.cubes.len()
    }

    /// Whether the cover has no cubes.
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Appends a cube.
    pub fn push(&mut self, cube: Cube) {
        self.cubes.push(cube);
    }

    /// Total number of literals across all cubes (a standard area proxy).
    pub fn literal_count(&self) -> u32 {
        self.cubes.iter().map(|c| c.literal_count()).sum()
    }

    /// Whether the minterm `code` is covered by some cube.
    pub fn covers(&self, code: u64) -> bool {
        self.cubes.iter().any(|c| c.covers(code))
    }

    /// The cubes covering `code`.
    pub fn covering_cubes(&self, code: u64) -> Vec<Cube> {
        self.cubes.iter().copied().filter(|c| c.covers(code)).collect()
    }

    /// Removes cubes contained in another cube of the cover
    /// (single-cube containment minimization).
    pub fn remove_contained(&mut self) {
        let cubes = std::mem::take(&mut self.cubes);
        let mut kept: Vec<Cube> = Vec::with_capacity(cubes.len());
        for (i, c) in cubes.iter().enumerate() {
            let dominated = cubes.iter().enumerate().any(|(j, d)| {
                j != i && d.contains(*c) && (!c.contains(*d) || j < i)
            });
            if !dominated {
                kept.push(*c);
            }
        }
        self.cubes = kept;
    }

    /// Renders the cover with variable names, cubes joined by ` + `;
    /// the empty cover renders as `0`.
    pub fn render(&self, names: &[impl AsRef<str>]) -> String {
        if self.cubes.is_empty() {
            return "0".to_string();
        }
        self.cubes
            .iter()
            .map(|c| c.render(names))
            .collect::<Vec<_>>()
            .join(" + ")
    }
}

impl fmt::Display for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cubes.is_empty() {
            return write!(f, "0");
        }
        let rendered: Vec<String> = self.cubes.iter().map(|c| c.to_string()).collect();
        write!(f, "{}", rendered.join(" + "))
    }
}

impl FromIterator<Cube> for Cover {
    fn from_iter<I: IntoIterator<Item = Cube>>(iter: I) -> Self {
        Cover { cubes: iter.into_iter().collect() }
    }
}

impl Extend<Cube> for Cover {
    fn extend<I: IntoIterator<Item = Cube>>(&mut self, iter: I) {
        self.cubes.extend(iter);
    }
}

impl IntoIterator for Cover {
    type Item = Cube;
    type IntoIter = std::vec::IntoIter<Cube>;

    fn into_iter(self) -> Self::IntoIter {
        self.cubes.into_iter()
    }
}

impl<'a> IntoIterator for &'a Cover {
    type Item = &'a Cube;
    type IntoIter = std::slice::Iter<'a, Cube>;

    fn into_iter(self) -> Self::IntoIter {
        self.cubes.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cover_is_zero() {
        let c = Cover::empty();
        assert!(!c.covers(0));
        assert_eq!(c.render(&["a"]), "0");
        assert_eq!(c.to_string(), "0");
        assert!(c.is_empty());
    }

    #[test]
    fn covers_union() {
        let a = Cube::top().with_literal(0, true);
        let b = Cube::top().with_literal(1, true);
        let cover = Cover::from_cubes(vec![a, b]);
        assert!(cover.covers(0b01));
        assert!(cover.covers(0b10));
        assert!(cover.covers(0b11));
        assert!(!cover.covers(0b00));
        assert_eq!(cover.covering_cubes(0b11).len(), 2);
        assert_eq!(cover.literal_count(), 2);
    }

    #[test]
    fn remove_contained_keeps_maximal() {
        let big = Cube::top().with_literal(0, true);
        let small = big.with_literal(1, false);
        let mut cover = Cover::from_cubes(vec![small, big]);
        cover.remove_contained();
        assert_eq!(cover.cubes(), &[big]);
    }

    #[test]
    fn remove_contained_handles_duplicates() {
        let c = Cube::top().with_literal(0, true);
        let mut cover = Cover::from_cubes(vec![c, c, c]);
        cover.remove_contained();
        assert_eq!(cover.len(), 1);
    }

    #[test]
    fn render_equation_style() {
        let ab = Cube::top().with_literal(0, true).with_literal(1, false);
        let c = Cube::top().with_literal(2, true);
        let cover = Cover::from_cubes(vec![ab, c]);
        assert_eq!(cover.render(&["a", "b", "c"]), "a b' + c");
    }

    #[test]
    fn collect_and_extend() {
        let cubes = [Cube::top().with_literal(0, true)];
        let mut cover: Cover = cubes.iter().copied().collect();
        cover.extend([Cube::top().with_literal(1, true)]);
        assert_eq!(cover.len(), 2);
        let back: Vec<Cube> = (&cover).into_iter().copied().collect();
        assert_eq!(back.len(), 2);
    }
}
