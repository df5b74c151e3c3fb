//! Origin–destination matrices of extracted trips.

/// A dense directed OD matrix over `n` areas.
///
/// The paper's mobility is directed ("first at the source area and then
/// the destination area"), so `T[i→j]` and `T[j→i]` are distinct cells.
/// Diagonal cells (same-area consecutive pairs) are not trips and hold
/// no count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OdMatrix {
    n: usize,
    counts: Vec<u64>,
}

impl OdMatrix {
    /// An all-zero `n × n` matrix.
    #[must_use]
    pub(crate) fn new(n: usize) -> Self {
        Self {
            n,
            counts: vec![0; n * n],
        }
    }

    /// Records `count` trips of one directed pair.
    ///
    /// # Panics
    ///
    /// If an index is out of range or `origin == dest` (a same-area pair
    /// is not a trip).
    pub(crate) fn add(&mut self, origin: usize, dest: usize, count: u64) {
        assert!(origin < self.n && dest < self.n, "area index out of range");
        assert_ne!(origin, dest, "diagonal entries are not trips");
        self.counts[origin * self.n + dest] += count;
    }

    /// Trip count of a directed pair.
    ///
    /// # Panics
    ///
    /// If an index is out of range.
    #[inline]
    #[must_use]
    pub fn count(&self, origin: usize, dest: usize) -> u64 {
        assert!(origin < self.n && dest < self.n, "area index out of range");
        self.counts[origin * self.n + dest]
    }

    /// Total trips recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Number of directed pairs with at least one trip.
    #[must_use]
    pub fn nonzero_pairs(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Iterates over every ordered off-diagonal pair `(origin, dest,
    /// count)`, including zero-count pairs (fitting wants to know which
    /// pairs were never observed).
    pub(crate) fn iter_pairs(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        (0..self.n).flat_map(move |i| {
            (0..self.n)
                .filter(move |&j| j != i)
                .map(move |j| (i, j, self.counts[i * self.n + j]))
        })
    }

    /// Merges another matrix of the same dimension into this one.
    ///
    /// # Panics
    ///
    /// If dimensions differ.
    pub(crate) fn merge(&mut self, other: &OdMatrix) {
        assert_eq!(self.n, other.n, "OD matrix dimensions differ");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_count() {
        let mut m = OdMatrix::new(3);
        m.add(0, 1, 1);
        m.add(0, 1, 1);
        m.add(2, 0, 1);
        assert_eq!(m.count(0, 1), 2);
        assert_eq!(m.count(1, 0), 0);
        assert_eq!(m.count(2, 0), 1);
        assert_eq!(m.total(), 3);
        assert_eq!(m.nonzero_pairs(), 2);
    }

    #[test]
    #[should_panic(expected = "diagonal entries are not trips")]
    fn diagonal_rejected() {
        OdMatrix::new(3).add(1, 1, 1);
    }

    #[test]
    #[should_panic(expected = "area index out of range")]
    fn out_of_range_rejected() {
        OdMatrix::new(3).add(0, 3, 1);
    }

    #[test]
    fn iter_pairs_covers_off_diagonal_exactly() {
        let mut m = OdMatrix::new(4);
        m.add(1, 2, 1);
        let pairs: Vec<(usize, usize, u64)> = m.iter_pairs().collect();
        assert_eq!(pairs.len(), 12); // 4·3 ordered pairs
        assert!(pairs.iter().all(|&(i, j, _)| i != j));
        assert_eq!(
            pairs.iter().find(|&&(i, j, _)| i == 1 && j == 2).unwrap().2,
            1
        );
        let zeros = pairs.iter().filter(|&&(_, _, c)| c == 0).count();
        assert_eq!(zeros, 11);
    }

    #[test]
    fn flows_are_directed() {
        let mut m = OdMatrix::new(2);
        m.add(0, 1, 1);
        m.add(0, 1, 1);
        m.add(1, 0, 1);
        assert_eq!(m.count(0, 1), 2);
        assert_eq!(m.count(1, 0), 1);
    }

    #[test]
    fn merge_adds_cellwise() {
        let mut a = OdMatrix::new(2);
        a.add(0, 1, 1);
        let mut b = OdMatrix::new(2);
        b.add(0, 1, 1);
        b.add(1, 0, 1);
        a.merge(&b);
        assert_eq!(a.count(0, 1), 2);
        assert_eq!(a.count(1, 0), 1);
    }

    #[test]
    #[should_panic(expected = "OD matrix dimensions differ")]
    fn merge_dimension_mismatch_panics() {
        OdMatrix::new(2).merge(&OdMatrix::new(3));
    }

    #[test]
    fn empty_matrix_queries() {
        let m = OdMatrix::new(5);
        assert_eq!(m.total(), 0);
        assert_eq!(m.nonzero_pairs(), 0);
    }
}
