//! Power-law fitting for heavy-tailed distributions.
//!
//! The paper observes that "the distribution of the number of Tweets per
//! user essentially follows a power-law distribution" (Fig. 2a). This
//! module provides the Clauset–Shalizi–Newman continuous MLE
//! `α̂ = 1 + n / Σ ln(xᵢ/xmin)`, the Kolmogorov–Smirnov distance between
//! the sample and the fitted law, and an `xmin` scan that minimises it.

use crate::{Result, StatsError};

/// A fitted power law `p(x) ∝ x^(−α)` for `x ≥ xmin`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawFit {
    /// Fitted exponent α (> 1 for a normalisable tail).
    pub alpha: f64,
    /// Lower cut-off used for the fit.
    pub xmin: f64,
    /// Samples at or above `xmin`.
    pub n_tail: usize,
    /// Kolmogorov–Smirnov distance between the tail sample and the fit.
    pub ks_distance: f64,
}

/// Fits α by maximum likelihood with a fixed `xmin`.
///
/// # Errors
///
/// * [`StatsError::NonPositiveValue`] — `xmin ≤ 0`.
/// * [`StatsError::TooFewSamples`] — fewer than 2 samples ≥ `xmin`.
/// * [`StatsError::Degenerate`] — all tail samples equal `xmin` (α
///   diverges).
pub fn fit_alpha(xs: &[f64], xmin: f64) -> Result<PowerLawFit> {
    if !(xmin > 0.0) || !xmin.is_finite() {
        return Err(StatsError::NonPositiveValue(xmin));
    }
    let mut sum_log = 0.0;
    let mut tail: Vec<f64> = Vec::new();
    for &x in xs {
        if x.is_finite() && x >= xmin {
            sum_log += (x / xmin).ln();
            tail.push(x);
        }
    }
    if tail.len() < 2 {
        return Err(StatsError::TooFewSamples {
            needed: 2,
            got: tail.len(),
        });
    }
    if sum_log <= 0.0 {
        return Err(StatsError::Degenerate("all tail samples equal xmin"));
    }
    let n = tail.len() as f64;
    let alpha = 1.0 + n / sum_log;
    let ks = ks_distance_tail(&mut tail, xmin, alpha);
    Ok(PowerLawFit {
        alpha,
        xmin,
        n_tail: tail.len(),
        ks_distance: ks,
    })
}

/// Scans candidate `xmin` values (the distinct sample values up to the
/// 90th percentile) and returns the fit minimising the KS distance —
/// Clauset et al.'s recommended procedure.
///
/// # Errors
///
/// [`StatsError::TooFewSamples`] when fewer than 10 positive samples
/// (an `xmin` scan on less is meaningless); propagates fit errors when
/// every candidate fails.
pub fn fit_scan_xmin(xs: &[f64]) -> Result<PowerLawFit> {
    let mut positive: Vec<f64> = xs
        .iter()
        .copied()
        .filter(|&x| x > 0.0 && x.is_finite())
        .collect();
    if positive.len() < 10 {
        return Err(StatsError::TooFewSamples {
            needed: 10,
            got: positive.len(),
        });
    }
    positive.sort_by(f64::total_cmp);
    #[expect(
        clippy::cast_possible_truncation,
        reason = "floor(0.9·n) < n indexes the sample"
    )]
    let cutoff = positive[(positive.len() as f64 * 0.9).floor() as usize];
    let mut candidates: Vec<f64> = positive.clone();
    candidates.dedup();
    let mut best: Option<PowerLawFit> = None;
    for &xmin in candidates.iter().filter(|&&v| v <= cutoff) {
        if let Ok(fit) = fit_alpha(&positive, xmin) {
            if best.is_none_or(|b| fit.ks_distance < b.ks_distance) {
                best = Some(fit);
            }
        }
    }
    best.ok_or(StatsError::Degenerate("no xmin candidate produced a fit"))
}

/// KS distance between the sorted tail sample and the continuous power-law
/// CDF `1 − (x/xmin)^(1−α)`.
fn ks_distance_tail(tail: &mut [f64], xmin: f64, alpha: f64) -> f64 {
    tail.sort_by(f64::total_cmp);
    let n = tail.len() as f64;
    let mut ks: f64 = 0.0;
    for (i, &x) in tail.iter().enumerate() {
        let model = 1.0 - (x / xmin).powf(1.0 - alpha);
        let emp_hi = (i + 1) as f64 / n;
        let emp_lo = i as f64 / n;
        ks = ks.max((model - emp_hi).abs()).max((model - emp_lo).abs());
    }
    ks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// One Pareto sample from a uniform variate `u ∈ (0, 1)`:
    /// `x = xmin · (1 − u)^(−1/(α−1))`.
    fn pareto_inverse_cdf(u: f64, xmin: f64, alpha: f64) -> f64 {
        xmin * (1.0 - u).powf(-1.0 / (alpha - 1.0))
    }

    fn pareto_sample(n: usize, xmin: f64, alpha: f64, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| pareto_inverse_cdf(rng.next_f64(), xmin, alpha))
            .collect()
    }

    #[test]
    fn mle_recovers_known_alpha() {
        for alpha in [1.8, 2.5, 3.2] {
            let xs = pareto_sample(50_000, 1.0, alpha, 42);
            let fit = fit_alpha(&xs, 1.0).unwrap();
            assert!(
                (fit.alpha - alpha).abs() < 0.05,
                "alpha {alpha}: fitted {}",
                fit.alpha
            );
            assert_eq!(fit.n_tail, 50_000);
        }
    }

    #[test]
    fn ks_distance_small_for_true_power_law() {
        let xs = pareto_sample(20_000, 1.0, 2.2, 7);
        let fit = fit_alpha(&xs, 1.0).unwrap();
        // Expected KS ~ 1/sqrt(n) ≈ 0.007; allow generous headroom.
        assert!(fit.ks_distance < 0.02, "ks = {}", fit.ks_distance);
    }

    #[test]
    fn ks_distance_large_for_uniform_data() {
        let xs: Vec<f64> = (1..=1000).map(|i| 1.0 + i as f64 / 1000.0).collect();
        let fit = fit_alpha(&xs, 1.0).unwrap();
        assert!(fit.ks_distance > 0.1, "ks = {}", fit.ks_distance);
    }

    #[test]
    fn xmin_scan_finds_true_cutoff_region() {
        // Power law only above xmin = 10; uniform noise below.
        let mut xs = pareto_sample(20_000, 10.0, 2.5, 11);
        let mut rng = SplitMix64::new(13);
        for _ in 0..5_000 {
            xs.push(1.0 + 9.0 * rng.next_f64());
        }
        let fit = fit_scan_xmin(&xs).unwrap();
        assert!(
            fit.xmin >= 5.0 && fit.xmin <= 20.0,
            "scan chose xmin = {}",
            fit.xmin
        );
        assert!((fit.alpha - 2.5).abs() < 0.15, "alpha = {}", fit.alpha);
    }

    #[test]
    fn tail_restriction_respected() {
        let xs = [0.5, 1.0, 2.0, 4.0, 8.0];
        let fit = fit_alpha(&xs, 1.0).unwrap();
        assert_eq!(fit.n_tail, 4); // 0.5 excluded
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(fit_alpha(&[1.0, 2.0], 0.0).is_err());
        assert!(fit_alpha(&[1.0, 2.0], -1.0).is_err());
        assert!(fit_alpha(&[0.5], 1.0).is_err()); // nothing in tail
        assert!(matches!(
            fit_alpha(&[2.0, 2.0, 2.0], 2.0),
            Err(StatsError::Degenerate(_))
        ));
        assert!(fit_scan_xmin(&[1.0, 2.0, 3.0]).is_err()); // < 10 samples
    }

    #[test]
    fn pareto_inverse_cdf_boundaries() {
        assert_eq!(pareto_inverse_cdf(0.0, 2.0, 3.0), 2.0); // u=0 → xmin
        let big = pareto_inverse_cdf(0.999999, 2.0, 3.0);
        assert!(big > 100.0); // u→1 → tail
    }

    #[test]
    fn pareto_median_matches_theory() {
        // Median of Pareto(xmin, alpha) = xmin · 2^(1/(α−1))
        let xs = pareto_sample(100_000, 1.0, 2.5, 3);
        let med = crate::descriptive::median(&xs).unwrap();
        let theory = 2.0f64.powf(1.0 / 1.5);
        assert!((med - theory).abs() / theory < 0.02, "median {med}");
    }
}
