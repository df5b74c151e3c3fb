//! Fixed-bucket histograms over `u64` samples.
//!
//! Buckets are cumulative-exclusive ("less than or equal"): a sample `v`
//! lands in the first bucket whose upper bound satisfies `v <= bound`;
//! samples above the last bound land in the overflow bucket. Bounds are
//! frozen at registration, so two runs of the same pipeline produce the
//! same bucket layout byte for byte.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The shared state behind a [`Histogram`] handle.
#[derive(Debug)]
pub(crate) struct HistogramInner {
    /// Ascending upper bounds; bucket `i` counts samples `<= bounds[i]`.
    pub(crate) bounds: Vec<u64>,
    /// One cell per bound plus a trailing overflow cell.
    pub(crate) buckets: Vec<AtomicU64>,
    /// Total samples recorded.
    pub(crate) count: AtomicU64,
    /// Sum of all recorded samples (saturating).
    pub(crate) sum: AtomicU64,
}

impl HistogramInner {
    pub(crate) fn new(bounds: &[u64]) -> Self {
        let mut sorted: Vec<u64> = bounds.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let buckets = (0..=sorted.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds: sorted,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A cloneable handle onto one registered fixed-bucket histogram.
///
/// Cheap to clone (one `Arc`); recording is a couple of relaxed atomic
/// adds and never locks, so handles may be cached in hot loops.
#[derive(Debug, Clone)]
pub struct Histogram {
    pub(crate) inner: Arc<HistogramInner>,
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, value: u64) {
        let idx = self.inner.bounds.partition_point(|&b| b < value);
        self.inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records every sample of a slice.
    pub fn record_all(&self, values: &[u64]) {
        for &v in values {
            self.record(v);
        }
    }

    /// Total samples recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// The frozen bucket upper bounds.
    #[must_use]
    pub fn bounds(&self) -> &[u64] {
        &self.inner.bounds
    }

    /// Per-bucket counts: one entry per bound, then the overflow count.
    #[must_use]
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// The overflow-bucket count (samples above the last bound).
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.inner
            .buckets
            .last()
            .map_or(0, |b| b.load(Ordering::Relaxed))
    }

    /// Estimated value at quantile `q` in `[0, 1]`.
    ///
    /// The quantile rank `r = q * count` is walked through the
    /// cumulative bucket counts; within the bucket it lands in, the
    /// value is interpolated linearly between the bucket's lower edge
    /// (the previous bound, or 0 for the first bucket) and its upper
    /// bound. Consequences pinned by the unit tests:
    ///
    /// * a rank landing exactly on a cumulative-count boundary returns
    ///   exactly that bucket's upper bound;
    /// * ranks in the overflow bucket saturate at the last bound (the
    ///   histogram does not know how far above it samples went);
    /// * an empty histogram returns 0.
    ///
    /// The result is rounded to the nearest integer so it can live in
    /// the integer-only JSON document.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        self.inner.quantile(q)
    }
}

impl HistogramInner {
    /// [`Histogram::quantile`], over the shared state.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 || self.bounds.is_empty() {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Lossless for any count a histogram can practically hold.
        let rank = q * count as f64;
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let in_bucket = bucket.load(Ordering::Relaxed);
            let upper = match self.bounds.get(i) {
                Some(&b) => b,
                // Overflow bucket: saturate at the last bound.
                None => return *self.bounds.last().unwrap_or(&0),
            };
            let next = cumulative + in_bucket;
            if rank <= next as f64 && in_bucket > 0 {
                let lower = if i == 0 { 0 } else { self.bounds[i - 1] };
                let frac = (rank - cumulative as f64) / in_bucket as f64;
                let value = lower as f64 + frac.clamp(0.0, 1.0) * (upper - lower) as f64;
                return value.round() as u64;
            }
            cumulative = next;
        }
        *self.bounds.last().unwrap_or(&0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(bounds: &[u64]) -> Histogram {
        Histogram {
            inner: Arc::new(HistogramInner::new(bounds)),
        }
    }

    #[test]
    fn samples_land_in_le_buckets() {
        let h = hist(&[1, 5, 10]);
        for v in [0, 1, 2, 5, 6, 10, 11, 1000] {
            h.record(v);
        }
        // <=1: {0,1}; <=5: {2,5}; <=10: {6,10}; overflow: {11,1000}.
        assert_eq!(h.bucket_counts(), vec![2, 2, 2, 2]);
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1035);
        assert_eq!(h.overflow(), 2);
    }

    #[test]
    fn bounds_are_sorted_and_deduped() {
        let h = hist(&[10, 1, 10, 5]);
        assert_eq!(h.bounds(), &[1, 5, 10]);
        assert_eq!(h.bucket_counts().len(), 4);
    }

    #[test]
    fn quantile_pins_exactly_at_bucket_boundaries() {
        // 4 samples in (0, 10], 4 in (10, 20]: the p50 rank (4.0) lands
        // exactly on the first bucket's cumulative edge, so p50 is
        // exactly the first bound — no bleed into the next bucket.
        let h = hist(&[10, 20]);
        for v in [2, 4, 6, 8, 12, 14, 16, 18] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 10);
        assert_eq!(h.quantile(1.0), 20);
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn quantile_interpolates_linearly_within_a_bucket() {
        // All 10 samples in the (0, 100] bucket: rank q*10 sits at
        // fraction q of the bucket, so pXX == XX exactly.
        let h = hist(&[100]);
        for _ in 0..10 {
            h.record(50);
        }
        assert_eq!(h.quantile(0.5), 50);
        assert_eq!(h.quantile(0.9), 90);
        assert_eq!(h.quantile(0.99), 99);
    }

    #[test]
    fn quantile_saturates_in_overflow_and_handles_empty() {
        let h = hist(&[10]);
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        h.record(5);
        h.record(1_000); // overflow
                         // p99 rank lands in the overflow bucket: saturate at the last
                         // bound rather than invent a value the histogram never saw.
        assert_eq!(h.quantile(0.99), 10);
    }

    #[test]
    fn quantile_skips_empty_leading_buckets() {
        let h = hist(&[10, 20, 30]);
        for v in [25, 25, 25, 25] {
            h.record(v);
        }
        // Everything sits in (20, 30]; p50 interpolates inside it.
        assert_eq!(h.quantile(0.5), 25);
        assert_eq!(h.quantile(1.0), 30);
    }
}
