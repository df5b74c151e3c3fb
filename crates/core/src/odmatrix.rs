//! Origin–destination matrices of extracted trips.

/// A dense directed OD matrix over `n` areas.
///
/// The paper's mobility is directed ("first at the source area and then
/// the destination area"), so `T[i→j]` and `T[j→i]` are distinct cells.
/// Diagonal cells (same-area consecutive pairs) are not trips and are
/// rejected by [`OdMatrix::record`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OdMatrix {
    n: usize,
    counts: Vec<u64>,
}

impl OdMatrix {
    /// An all-zero `n × n` matrix.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            n,
            counts: vec![0; n * n],
        }
    }

    /// Number of areas.
    #[inline]
    #[must_use]
    pub fn n_areas(&self) -> usize {
        self.n
    }

    /// Records one trip.
    ///
    /// # Panics
    ///
    /// If an index is out of range or `origin == dest` (a same-area pair
    /// is not a trip).
    #[inline]
    pub fn record(&mut self, origin: usize, dest: usize) {
        self.add(origin, dest, 1);
    }

    /// Records `count` trips of one directed pair.
    ///
    /// # Panics
    ///
    /// As [`OdMatrix::record`].
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
    pub fn iter_pairs(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        (0..self.n).flat_map(move |i| {
            (0..self.n)
                .filter(move |&j| j != i)
                .map(move |j| (i, j, self.counts[i * self.n + j]))
        })
    }

    /// Total outflow of an area (row sum).
    ///
    /// # Panics
    ///
    /// If the index is out of range.
    #[must_use]
    pub fn outflow(&self, origin: usize) -> u64 {
        assert!(origin < self.n, "area index out of range");
        self.counts[origin * self.n..(origin + 1) * self.n]
            .iter()
            .sum()
    }

    /// Total inflow of an area (column sum).
    ///
    /// # Panics
    ///
    /// If the index is out of range.
    #[must_use]
    pub fn inflow(&self, dest: usize) -> u64 {
        assert!(dest < self.n, "area index out of range");
        (0..self.n).map(|i| self.counts[i * self.n + dest]).sum()
    }

    /// Merges another matrix of the same dimension into this one.
    ///
    /// # Panics
    ///
    /// If dimensions differ.
    pub fn merge(&mut self, other: &OdMatrix) {
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
        m.record(0, 1);
        m.record(0, 1);
        m.record(2, 0);
        assert_eq!(m.count(0, 1), 2);
        assert_eq!(m.count(1, 0), 0);
        assert_eq!(m.count(2, 0), 1);
        assert_eq!(m.total(), 3);
        assert_eq!(m.nonzero_pairs(), 2);
    }

    #[test]
    #[should_panic(expected = "diagonal entries are not trips")]
    fn diagonal_rejected() {
        OdMatrix::new(3).record(1, 1);
    }

    #[test]
    #[should_panic(expected = "area index out of range")]
    fn out_of_range_rejected() {
        OdMatrix::new(3).record(0, 3);
    }

    #[test]
    fn iter_pairs_covers_off_diagonal_exactly() {
        let mut m = OdMatrix::new(4);
        m.record(1, 2);
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
        m.record(0, 1);
        m.record(0, 1);
        m.record(1, 0);
        assert_eq!(m.count(0, 1), 2);
        assert_eq!(m.count(1, 0), 1);
        assert_eq!(m.outflow(0), 2);
        assert_eq!(m.inflow(0), 1);
        assert_eq!(m.outflow(1), 1);
        assert_eq!(m.inflow(1), 2);
    }

    #[test]
    fn merge_adds_cellwise() {
        let mut a = OdMatrix::new(2);
        a.record(0, 1);
        let mut b = OdMatrix::new(2);
        b.record(0, 1);
        b.record(1, 0);
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
        assert_eq!(m.outflow(4), 0);
        assert_eq!(m.inflow(0), 0);
    }
}
