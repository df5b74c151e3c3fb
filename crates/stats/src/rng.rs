//! A tiny embedded pseudo-random generator.
//!
//! SplitMix64 (Steele, Lea & Flood 2014) is a 64-bit splittable
//! generator with excellent statistical quality for its size and a
//! one-line step function. It is the workspace's one random stream: the
//! synthetic corpus, the stochastic epidemic engine and every seeded
//! property-test loop draw from it, so a seed fixes every bit of their
//! output on every platform.

/// SplitMix64 generator state.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift
    /// (unbiased enough for index sampling; the modulo bias of the plain
    /// approach would be < 2⁻⁵³ anyway for realistic bounds).
    ///
    /// # Panics
    ///
    /// If `bound == 0`.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "integer-only u128 fixed-point multiply; the shift guarantees the result is \
                  < bound and fits in usize"
    )]
    pub fn next_below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "bound must be positive");
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..10).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn known_reference_sequence() {
        // Reference values for seed 0 from the canonical SplitMix64
        // implementation (Vigna).
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut rng = SplitMix64::new(7);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn next_below_bounds_and_coverage() {
        let mut rng = SplitMix64::new(99);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.next_below(10);
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        SplitMix64::new(0).next_below(0);
    }
}
