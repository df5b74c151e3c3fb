//! Descriptive statistics: moments, quantiles, summaries.

use crate::{check_finite, Result, StatsError};

/// Arithmetic mean.
///
/// # Errors
///
/// [`StatsError::TooFewSamples`] on empty input,
/// [`StatsError::NonFiniteValue`] if any value is NaN/∞.
pub fn mean(xs: &[f64]) -> Result<f64> {
    if xs.is_empty() {
        return Err(StatsError::TooFewSamples { needed: 1, got: 0 });
    }
    check_finite(xs)?;
    Ok(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Unbiased (n−1) sample variance, via Welford's algorithm for numerical
/// stability on large, offset-heavy inputs (epoch timestamps).
///
/// # Errors
///
/// Needs at least 2 finite samples.
pub fn variance(xs: &[f64]) -> Result<f64> {
    if xs.len() < 2 {
        return Err(StatsError::TooFewSamples {
            needed: 2,
            got: xs.len(),
        });
    }
    check_finite(xs)?;
    let mut mean = 0.0;
    let mut m2 = 0.0;
    for (i, &x) in xs.iter().enumerate() {
        let delta = x - mean;
        mean += delta / (i + 1) as f64;
        m2 += delta * (x - mean);
    }
    Ok(m2 / (xs.len() - 1) as f64)
}

/// Linear-interpolation quantile (type-7, the NumPy/R default).
/// `q` must be in `[0, 1]`.
///
/// # Errors
///
/// [`StatsError::TooFewSamples`] on empty input,
/// [`StatsError::Degenerate`] for `q` outside `[0, 1]`.
#[expect(
    clippy::cast_possible_truncation,
    reason = "h = q·(n − 1) with q in [0, 1], so floor(h) and ceil(h) index the sample"
)]
pub fn quantile(xs: &[f64], q: f64) -> Result<f64> {
    if xs.is_empty() {
        return Err(StatsError::TooFewSamples { needed: 1, got: 0 });
    }
    if !(0.0..=1.0).contains(&q) || q.is_nan() {
        return Err(StatsError::Degenerate("quantile q must be in [0,1]"));
    }
    check_finite(xs)?;
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let h = q * (sorted.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    Ok(sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo]))
}

/// Median (the 0.5 quantile).
///
/// # Errors
///
/// Same as [`quantile`].
pub fn median(xs: &[f64]) -> Result<f64> {
    quantile(xs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]).unwrap(), 2.0);
        assert_eq!(mean(&[5.0]).unwrap(), 5.0);
        assert!(mean(&[]).is_err());
        assert!(mean(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn variance_textbook() {
        // Var([2,4,4,4,5,5,7,9]) with n-1 = 32/7
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((variance(&xs).unwrap() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn variance_stable_under_large_offset() {
        // Epoch-seconds-sized offsets must not destroy precision.
        let base = 1.4e9;
        let xs: Vec<f64> = [1.0, 2.0, 3.0, 4.0, 5.0].iter().map(|x| x + base).collect();
        assert!((variance(&xs).unwrap() - 2.5).abs() < 1e-6);
    }

    #[test]
    fn variance_needs_two_samples() {
        assert_eq!(
            variance(&[1.0]),
            Err(StatsError::TooFewSamples { needed: 2, got: 1 })
        );
    }

    #[test]
    fn quantile_type7_matches_numpy() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        // numpy.percentile([1,2,3,4], 25) = 1.75
        assert!((quantile(&xs, 0.25).unwrap() - 1.75).abs() < 1e-12);
        assert_eq!(quantile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&xs, 1.0).unwrap(), 4.0);
        assert!((quantile(&xs, 0.5).unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_unsorted_input() {
        let xs = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(median(&xs).unwrap(), 5.0);
    }

    #[test]
    fn quantile_rejects_bad_q() {
        assert!(quantile(&[1.0], -0.1).is_err());
        assert!(quantile(&[1.0], 1.1).is_err());
        assert!(quantile(&[1.0], f64::NAN).is_err());
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]).unwrap(), 2.5);
    }
}
