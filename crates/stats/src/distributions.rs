//! Probability distributions needed by the hypothesis tests: Student-t and
//! Kolmogorov–Smirnov.

use crate::special::inc_beta;
use crate::{Result, StatsError};

/// Two-tailed p-value for a t statistic: `P(|T| ≥ |t|)`.
///
/// # Errors
///
/// [`StatsError::Degenerate`] for `df ≤ 0`.
pub(crate) fn student_t_two_tailed(t: f64, df: f64) -> Result<f64> {
    if df <= 0.0 || df.is_nan() {
        return Err(StatsError::Degenerate("student t requires df > 0"));
    }
    if t.is_nan() {
        return Ok(f64::NAN);
    }
    // P(|T| >= |t|) = I_{df/(df+t^2)}(df/2, 1/2), directly — avoids the
    // 1-(1-x) cancellation for huge |t| (the paper's p = 2e-15 regime).
    Ok(inc_beta(df / 2.0, 0.5, df / (df + t * t)))
}

/// Two-sample Kolmogorov–Smirnov test.
///
/// Returns the KS statistic `D = sup |F₁(x) − F₂(x)|` and the asymptotic
/// two-sided p-value from the Kolmogorov distribution
/// `Q(λ) = 2 Σ (−1)^{k−1} e^{−2k²λ²}` with the effective-sample-size
/// argument `λ = (√n_e + 0.12 + 0.11/√n_e)·D` (Numerical Recipes'
/// `kstwo`). Used to compare distributions across time windows (is the
/// waiting-time law stationary over the collection period?).
///
/// # Errors
///
/// [`StatsError::TooFewSamples`] when either sample is empty;
/// [`StatsError::NonFiniteValue`] on NaN/∞.
pub fn ks_two_sample(a: &[f64], b: &[f64]) -> Result<(f64, f64)> {
    if a.is_empty() || b.is_empty() {
        return Err(StatsError::TooFewSamples {
            needed: 1,
            got: a.len().min(b.len()),
        });
    }
    crate::check_finite(a)?;
    crate::check_finite(b)?;
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    sa.sort_by(f64::total_cmp);
    sb.sort_by(f64::total_cmp);
    let (na, nb) = (sa.len() as f64, sb.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < sa.len() && j < sb.len() {
        let xa = sa[i];
        let xb = sb[j];
        if xa <= xb {
            i += 1;
        }
        if xb <= xa {
            j += 1;
        }
        d = d.max((i as f64 / na - j as f64 / nb).abs());
    }
    let ne = (na * nb / (na + nb)).sqrt();
    let lambda = (ne + 0.12 + 0.11 / ne) * d;
    Ok((d, kolmogorov_q(lambda)))
}

/// Kolmogorov survival function `Q(λ)`.
fn kolmogorov_q(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = sign * (-2.0 * (k as f64) * (k as f64) * lambda * lambda).exp();
        sum += term;
        if term.abs() < 1e-12 * sum.abs().max(1e-12) {
            break;
        }
        sign = -sign;
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(got: f64, want: f64, tol: f64) {
        assert!((got - want).abs() < tol, "got {got}, want {want}");
    }

    #[test]
    fn t_two_tailed_reference_values() {
        // SciPy 2*t.sf(2.0, 10) = 0.07338803477074023
        close(
            student_t_two_tailed(2.0, 10.0).unwrap(),
            0.073_388_034_770_740_23,
            1e-12,
        );
        // Extreme statistic: 2*t.sf(12, 58) ~ 2.9e-17 — must not round to 0
        // or lose sign; this is the paper's p = 2e-15 regime.
        let p = student_t_two_tailed(12.0, 58.0).unwrap();
        assert!(p > 0.0 && p < 1e-15, "p = {p}");
    }

    #[test]
    fn t_two_tailed_is_symmetric_in_t() {
        let a = student_t_two_tailed(2.5, 20.0).unwrap();
        let b = student_t_two_tailed(-2.5, 20.0).unwrap();
        close(a, b, 1e-15);
    }

    #[test]
    fn t_functions_reject_bad_df() {
        assert!(student_t_two_tailed(1.0, 0.0).is_err());
        assert!(student_t_two_tailed(1.0, -3.0).is_err());
        assert!(student_t_two_tailed(1.0, f64::NAN).is_err());
    }

    #[test]
    fn t_nan_statistic_propagates() {
        assert!(student_t_two_tailed(f64::NAN, 5.0).unwrap().is_nan());
    }

    #[test]
    fn ks_identical_samples_accept() {
        let xs: Vec<f64> = (0..500).map(|i| (i % 37) as f64).collect();
        let (d, p) = ks_two_sample(&xs, &xs).unwrap();
        assert!(d < 1e-12);
        assert!(p > 0.99);
    }

    #[test]
    fn ks_disjoint_samples_reject() {
        let a: Vec<f64> = (0..300).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..300).map(|i| 10_000.0 + i as f64).collect();
        let (d, p) = ks_two_sample(&a, &b).unwrap();
        assert!((d - 1.0).abs() < 1e-12);
        assert!(p < 1e-10, "p = {p}");
    }

    #[test]
    fn ks_same_distribution_usually_accepts() {
        // Two deterministic interleavings of the same uniform grid.
        let a: Vec<f64> = (0..1_000).map(|i| (i * 2) as f64).collect();
        let b: Vec<f64> = (0..1_000).map(|i| (i * 2 + 1) as f64).collect();
        let (d, p) = ks_two_sample(&a, &b).unwrap();
        assert!(d < 0.01, "d = {d}");
        assert!(p > 0.5, "p = {p}");
    }

    #[test]
    fn ks_shifted_distribution_detected() {
        let a: Vec<f64> = (0..800).map(|i| (i % 100) as f64).collect();
        let b: Vec<f64> = (0..800).map(|i| (i % 100) as f64 + 30.0).collect();
        let (d, p) = ks_two_sample(&a, &b).unwrap();
        assert!(d > 0.25, "d = {d}");
        assert!(p < 1e-6, "p = {p}");
    }

    #[test]
    fn ks_is_symmetric_and_validates() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.5, 2.5];
        let (d1, p1) = ks_two_sample(&a, &b).unwrap();
        let (d2, p2) = ks_two_sample(&b, &a).unwrap();
        assert_eq!(d1, d2);
        assert_eq!(p1, p2);
        assert!(ks_two_sample(&[], &b).is_err());
        assert!(ks_two_sample(&a, &[f64::NAN]).is_err());
    }

    #[test]
    fn kolmogorov_q_boundaries() {
        assert_eq!(kolmogorov_q(0.0), 1.0);
        assert!(kolmogorov_q(0.3) > 0.99);
        // Known value: Q(1.0) ≈ 0.26999967167735456
        assert!((kolmogorov_q(1.0) - 0.269_999_671_677_354_56).abs() < 1e-9);
        assert!(kolmogorov_q(3.0) < 1e-7);
    }
}
