//! Logarithmic binning for heavy-tailed data.
//!
//! The paper's Figure 2 plots log-binned probability densities spanning
//! eight-plus decades, and Figure 4's red dots are "the averaged values in
//! the bins after logarithmic binning". Both operations live here.

use crate::{Result, StatsError};

/// Log-spaced bin edges over `[min, max]`.
#[derive(Debug, Clone)]
pub struct LogBins {
    /// Bin edges, ascending, length `n_bins + 1`.
    edges: Vec<f64>,
}

/// Statistics of one logarithmic bin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinStat {
    /// Geometric centre of the bin.
    pub center: f64,
    /// Lower edge (inclusive).
    pub lo: f64,
    /// Upper edge (exclusive except for the final bin).
    pub hi: f64,
    /// Samples in the bin.
    pub count: u64,
    /// Probability density: `count / (total · width)`; meaningful only
    /// from [`LogBins::pdf`].
    pub density: f64,
    /// Mean of the paired `y` values; meaningful only from
    /// [`LogBins::binned_mean`], NaN otherwise.
    pub mean_y: f64,
}

impl LogBins {
    /// Creates `n_bins` logarithmically spaced bins covering
    /// `[min, max]`.
    ///
    /// # Errors
    ///
    /// * [`StatsError::NonPositiveValue`] — `min ≤ 0` (log scale).
    /// * [`StatsError::Degenerate`] — `max ≤ min` or `n_bins == 0`.
    pub fn new(min: f64, max: f64, n_bins: usize) -> Result<Self> {
        if !(min > 0.0) || !min.is_finite() {
            return Err(StatsError::NonPositiveValue(min));
        }
        if !(max > min) || !max.is_finite() {
            return Err(StatsError::Degenerate("log bins need max > min > 0"));
        }
        if n_bins == 0 {
            return Err(StatsError::Degenerate("log bins need n_bins > 0"));
        }
        let lmin = min.ln();
        let step = (max.ln() - lmin) / n_bins as f64;
        let edges = (0..=n_bins)
            .map(|i| (lmin + step * i as f64).exp())
            .collect();
        Ok(Self { edges })
    }

    /// Creates bins covering the positive values of `xs` with
    /// `bins_per_decade` bins per factor of ten.
    ///
    /// # Errors
    ///
    /// [`StatsError::Degenerate`] when `xs` has no positive finite values
    /// or all positive values are equal.
    pub fn covering(xs: &[f64], bins_per_decade: usize) -> Result<Self> {
        let mut min = f64::INFINITY;
        let mut max: f64 = 0.0;
        for &x in xs {
            if x > 0.0 && x.is_finite() {
                min = min.min(x);
                max = max.max(x);
            }
        }
        if !min.is_finite() || max <= min {
            return Err(StatsError::Degenerate(
                "need at least two distinct positive values",
            ));
        }
        let decades = (max / min).log10();
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a ceiled, positive bin count; `as` saturates past usize::MAX"
        )]
        let n_bins = ((decades * bins_per_decade as f64).ceil() as usize).max(1);
        // Nudge the top edge up so `max` falls inside the final bin even
        // after floating-point round-trips.
        Self::new(min, max * (1.0 + 1e-12), n_bins)
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.edges.len() - 1
    }

    /// Whether there are no bins (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bin index of `x`, or `None` when `x` is outside `[min, max]` or not
    /// positive. The final bin includes its upper edge.
    fn index_of(&self, x: f64) -> Option<usize> {
        if !(x > 0.0) || !x.is_finite() {
            return None;
        }
        let first = self.edges[0];
        #[expect(
            clippy::unwrap_used,
            reason = "every constructor rejects fewer than two edges (LogBins::new / \
                      from_edges), so `last()` cannot be None"
        )]
        let last = *self.edges.last().unwrap();
        if x < first || x > last {
            return None;
        }
        // Binary search on edges.
        match self.edges.binary_search_by(|e| e.total_cmp(&x)) {
            Ok(i) => Some(i.min(self.len() - 1)),
            Err(i) => Some(i - 1),
        }
    }

    /// Empty per-bin skeleton with centres/edges filled in.
    fn skeleton(&self) -> Vec<BinStat> {
        (0..self.len())
            .map(|i| BinStat {
                center: (self.edges[i] * self.edges[i + 1]).sqrt(),
                lo: self.edges[i],
                hi: self.edges[i + 1],
                count: 0,
                density: 0.0,
                mean_y: f64::NAN,
            })
            .collect()
    }

    /// Log-binned probability density of `xs` (non-positive and
    /// out-of-range samples are ignored; density integrates to the
    /// retained fraction).
    pub fn pdf(&self, xs: &[f64]) -> Vec<BinStat> {
        let mut bins = self.skeleton();
        let mut total = 0u64;
        for &x in xs {
            if let Some(i) = self.index_of(x) {
                bins[i].count += 1;
                total += 1;
            }
        }
        if total > 0 {
            for b in &mut bins {
                b.density = b.count as f64 / (total as f64 * (b.hi - b.lo));
            }
        }
        bins
    }

    /// Bins pairs by `x` and records the arithmetic mean of the `y`
    /// values per bin (the paper's Fig. 4 red dots). Pairs whose `x` falls
    /// outside the bins are skipped.
    ///
    /// # Errors
    ///
    /// [`StatsError::LengthMismatch`] when slices differ in length.
    pub fn binned_mean(&self, x: &[f64], y: &[f64]) -> Result<Vec<BinStat>> {
        crate::check_paired(x, y)?;
        let mut bins = self.skeleton();
        let mut sums = vec![0.0f64; self.len()];
        for (&xi, &yi) in x.iter().zip(y) {
            if let Some(i) = self.index_of(xi) {
                bins[i].count += 1;
                sums[i] += yi;
            }
        }
        for (b, s) in bins.iter_mut().zip(sums) {
            if b.count > 0 {
                b.mean_y = s / b.count as f64;
            }
        }
        Ok(bins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_are_log_spaced() {
        let b = LogBins::new(1.0, 1000.0, 3).unwrap();
        assert_eq!(b.len(), 3);
        let ratios: Vec<f64> = (0..3).map(|i| b.edges[i + 1] / b.edges[i]).collect();
        for r in &ratios {
            assert!((r - 10.0).abs() < 1e-9, "ratio {r}");
        }
    }

    #[test]
    fn construction_rejects_bad_ranges() {
        assert!(LogBins::new(0.0, 10.0, 5).is_err());
        assert!(LogBins::new(-1.0, 10.0, 5).is_err());
        assert!(LogBins::new(10.0, 10.0, 5).is_err());
        assert!(LogBins::new(10.0, 1.0, 5).is_err());
        assert!(LogBins::new(1.0, 10.0, 0).is_err());
    }

    #[test]
    fn index_of_boundaries() {
        let b = LogBins::new(1.0, 100.0, 2).unwrap(); // edges ~1, ~10, ~100
        assert_eq!(b.index_of(1.0), Some(0));
        assert_eq!(b.index_of(9.99), Some(0));
        // 10.0 sits on the interior edge; float placement of the edge may
        // put it on either side, but it must land in one of the two bins.
        assert!(matches!(b.index_of(10.0), Some(0) | Some(1)));
        assert_eq!(b.index_of(100.0), Some(1)); // top edge inclusive
        assert_eq!(b.index_of(100.01), None);
        assert_eq!(b.index_of(0.99), None);
        assert_eq!(b.index_of(0.0), None);
        assert_eq!(b.index_of(-5.0), None);
        assert_eq!(b.index_of(f64::NAN), None);
    }

    #[test]
    fn covering_spans_the_data() {
        let xs = [0.5, 3.0, 700.0, 42.0];
        let b = LogBins::covering(&xs, 4).unwrap();
        for &x in &xs {
            assert!(b.index_of(x).is_some(), "x = {x} not covered");
        }
    }

    #[test]
    fn covering_ignores_nonpositive() {
        let xs = [-1.0, 0.0, 2.0, 20.0];
        let b = LogBins::covering(&xs, 2).unwrap();
        assert!(b.index_of(2.0).is_some());
        assert!(b.index_of(-1.0).is_none());
    }

    #[test]
    fn covering_rejects_degenerate() {
        assert!(LogBins::covering(&[5.0, 5.0], 2).is_err());
        assert!(LogBins::covering(&[-1.0, 0.0], 2).is_err());
        assert!(LogBins::covering(&[], 2).is_err());
    }

    #[test]
    fn pdf_integrates_to_one_for_in_range_data() {
        let xs: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let b = LogBins::covering(&xs, 5).unwrap();
        let pdf = b.pdf(&xs);
        let integral: f64 = pdf.iter().map(|s| s.density * (s.hi - s.lo)).sum();
        assert!((integral - 1.0).abs() < 1e-9, "integral {integral}");
        let total: u64 = pdf.iter().map(|s| s.count).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn pdf_of_uniform_log_data_is_flat_in_log() {
        // Samples placed at bin centres, equally many per bin → density
        // inversely proportional to bin width.
        let b = LogBins::new(1.0, 10_000.0, 4).unwrap();
        let mut xs = Vec::new();
        let pdf0 = b.pdf(&[]);
        for s in &pdf0 {
            for _ in 0..100 {
                xs.push(s.center);
            }
        }
        let pdf = b.pdf(&xs);
        for s in &pdf {
            assert_eq!(s.count, 100);
            let expect = 100.0 / (400.0 * (s.hi - s.lo));
            assert!((s.density - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn binned_mean_reproduces_constant_relation() {
        let x: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 2.0 * v).collect();
        let b = LogBins::covering(&x, 3).unwrap();
        let stats = b.binned_mean(&x, &y).unwrap();
        for s in stats.iter().filter(|s| s.count > 0) {
            // mean(2x over bin) must sit inside [2·lo, 2·hi].
            assert!(s.mean_y >= 2.0 * s.lo && s.mean_y <= 2.0 * s.hi);
        }
    }

    #[test]
    fn binned_mean_empty_bins_are_nan() {
        let b = LogBins::new(1.0, 1000.0, 3).unwrap();
        let stats = b.binned_mean(&[2.0], &[5.0]).unwrap();
        assert_eq!(stats[0].count, 1);
        assert_eq!(stats[0].mean_y, 5.0);
        assert!(stats[1].mean_y.is_nan());
        assert!(stats[2].mean_y.is_nan());
    }

    #[test]
    fn binned_mean_length_mismatch() {
        let b = LogBins::new(1.0, 10.0, 2).unwrap();
        assert!(b.binned_mean(&[1.0, 2.0], &[1.0]).is_err());
    }

    #[test]
    fn bin_center_is_geometric_mean_of_edges() {
        let b = LogBins::new(1.0, 100.0, 2).unwrap();
        let pdf = b.pdf(&[]);
        assert!((pdf[0].center - (1.0f64 * 10.0).sqrt()).abs() < 1e-9);
        assert!((pdf[1].center - (10.0f64 * 100.0).sqrt()).abs() < 1e-9);
    }
}
