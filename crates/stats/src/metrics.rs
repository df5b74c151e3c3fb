//! Estimation-quality metrics.
//!
//! Table II of the paper scores each model with the Pearson correlation
//! (see [`crate::correlation`]) and **HitRate@50%** — "percentage of
//! estimates which have smaller than 50% relative errors". This module
//! implements HitRate@q plus the extra metrics the paper's future work
//! calls for: RMSE (also in log space) and the
//! Sørensen similarity index (common-part-of-commuters) that the mobility
//! literature uses to compare flow matrices.

use crate::check::{debug_assert_nonneg, debug_assert_prob};
use crate::{check_paired, Result, StatsError};

/// Fraction of estimates whose relative error `|est − obs| / obs` is
/// strictly below `q`. Pairs with `obs <= 0` are skipped (relative error
/// undefined); returns the fraction over the remaining pairs.
///
/// `hit_rate(est, obs, 0.5)` is the paper's HitRate@50%.
///
/// # Errors
///
/// * [`StatsError::LengthMismatch`] — slices differ in length.
/// * [`StatsError::TooFewSamples`] — no pair had a positive observation.
pub fn hit_rate(estimated: &[f64], observed: &[f64], q: f64) -> Result<f64> {
    check_paired(estimated, observed)?;
    let mut used = 0usize;
    let mut hits = 0usize;
    for (&e, &o) in estimated.iter().zip(observed) {
        if o > 0.0 && o.is_finite() && e.is_finite() {
            used += 1;
            if ((e - o) / o).abs() < q {
                hits += 1;
            }
        }
    }
    if used == 0 {
        return Err(StatsError::TooFewSamples { needed: 1, got: 0 });
    }
    Ok(debug_assert_prob(hits as f64 / used as f64, "hit rate"))
}

/// Root-mean-square error.
///
/// # Errors
///
/// Mismatched lengths or empty input.
pub fn rmse(estimated: &[f64], observed: &[f64]) -> Result<f64> {
    check_paired(estimated, observed)?;
    if estimated.is_empty() {
        return Err(StatsError::TooFewSamples { needed: 1, got: 0 });
    }
    let ss: f64 = estimated
        .iter()
        .zip(observed)
        .map(|(&e, &o)| (e - o) * (e - o))
        .sum();
    Ok((ss / estimated.len() as f64).sqrt())
}

/// RMSE of `log10` values over pairs where both sides are positive —
/// "error in decades", matching the paper's visual reading of Fig. 4
/// ("estimation error is roughly bounded by one decade").
///
/// # Errors
///
/// Mismatched lengths, or no pair with both values positive.
pub fn log_rmse(estimated: &[f64], observed: &[f64]) -> Result<f64> {
    check_paired(estimated, observed)?;
    let mut used = 0usize;
    let mut ss = 0.0;
    for (&e, &o) in estimated.iter().zip(observed) {
        if e > 0.0 && o > 0.0 && e.is_finite() && o.is_finite() {
            used += 1;
            let d = e.log10() - o.log10();
            ss += d * d;
        }
    }
    if used == 0 {
        return Err(StatsError::TooFewSamples { needed: 1, got: 0 });
    }
    Ok(debug_assert_nonneg((ss / used as f64).sqrt(), "log-RMSE"))
}

/// Sørensen similarity index between two non-negative flow vectors
/// ("common part of commuters"): `2·Σ min(eᵢ, oᵢ) / (Σeᵢ + Σoᵢ)` ∈ [0, 1].
///
/// # Errors
///
/// Mismatched lengths; [`StatsError::Degenerate`] when both vectors sum
/// to zero; [`StatsError::NonPositiveValue`] on any negative entry.
pub fn sorensen_index(estimated: &[f64], observed: &[f64]) -> Result<f64> {
    check_paired(estimated, observed)?;
    let mut min_sum = 0.0;
    let mut total = 0.0;
    for (&e, &o) in estimated.iter().zip(observed) {
        if e < 0.0 || !e.is_finite() {
            return Err(StatsError::NonPositiveValue(e));
        }
        if o < 0.0 || !o.is_finite() {
            return Err(StatsError::NonPositiveValue(o));
        }
        min_sum += e.min(o);
        total += e + o;
    }
    if total == 0.0 {
        return Err(StatsError::Degenerate("both flow vectors are zero"));
    }
    Ok(debug_assert_prob(2.0 * min_sum / total, "Sørensen index"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_counts_strictly_under_threshold() {
        let obs = [100.0, 100.0, 100.0, 100.0];
        let est = [100.0, 149.0, 151.0, 50.0];
        // errors: 0%, 49%, 51%, 50% → hits at q=0.5: first two only
        // (50% is NOT < 50%).
        let hr = hit_rate(&est, &obs, 0.5).unwrap();
        assert_eq!(hr, 0.5);
    }

    #[test]
    fn hit_rate_skips_zero_observations() {
        let obs = [0.0, 100.0];
        let est = [5.0, 100.0];
        assert_eq!(hit_rate(&est, &obs, 0.5).unwrap(), 1.0);
    }

    #[test]
    fn hit_rate_perfect_and_hopeless() {
        let obs = [10.0, 20.0, 30.0];
        assert_eq!(hit_rate(&obs, &obs, 0.5).unwrap(), 1.0);
        let est = [1000.0, 2000.0, 3000.0];
        assert_eq!(hit_rate(&est, &obs, 0.5).unwrap(), 0.0);
    }

    #[test]
    fn hit_rate_errors() {
        assert!(hit_rate(&[1.0], &[1.0, 2.0], 0.5).is_err());
        assert!(hit_rate(&[1.0], &[0.0], 0.5).is_err());
    }

    #[test]
    fn rmse_known_value() {
        let est = [1.0, 2.0, 3.0];
        let obs = [2.0, 2.0, 5.0];
        // errors −1, 0, −2 → rmse = sqrt(5/3)
        assert!((rmse(&est, &obs).unwrap() - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn rmse_zero_for_identical() {
        let xs = [1.0, 5.0, 9.0];
        assert_eq!(rmse(&xs, &xs).unwrap(), 0.0);
    }

    #[test]
    fn log_rmse_measures_decades() {
        let obs = [100.0, 1000.0];
        let est = [1000.0, 10000.0]; // each off by exactly one decade
        assert!((log_rmse(&est, &obs).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn log_rmse_skips_nonpositive() {
        let obs = [0.0, 100.0];
        let est = [10.0, 100.0];
        assert_eq!(log_rmse(&est, &obs).unwrap(), 0.0);
    }

    #[test]
    fn sorensen_identical_is_one_disjoint_is_zero() {
        let a = [1.0, 2.0, 3.0];
        assert!((sorensen_index(&a, &a).unwrap() - 1.0).abs() < 1e-12);
        let b = [0.0, 0.0, 6.0];
        let c = [6.0, 0.0, 0.0];
        assert_eq!(sorensen_index(&b, &c).unwrap(), 0.0);
    }

    #[test]
    fn sorensen_half_overlap() {
        let a = [2.0, 0.0];
        let b = [1.0, 1.0];
        // min-sum = 1, total = 4 → 0.5
        assert!((sorensen_index(&a, &b).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sorensen_errors() {
        assert!(sorensen_index(&[0.0], &[0.0]).is_err());
        assert!(sorensen_index(&[-1.0], &[1.0]).is_err());
        assert!(sorensen_index(&[1.0, 2.0], &[1.0]).is_err());
    }
}
