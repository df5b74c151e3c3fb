//! Gravity models (paper Eqs. 1–2), fitted by log-space least squares.
//!
//! "For Gravity models, given a series of m, n and d values, the
//! parameters α, β, and γ can be estimated from least-square fitting
//! after taking logarithm of the formulas" (§IV). Observations with a
//! zero flow, population or distance cannot enter a log fit and are
//! skipped; the number used is recorded on the fit.

use crate::fitted::FittedModel;
use crate::traits::{FlowObservation, ModelError};
use tweetmob_obs::{Json, ToJson};
use tweetmob_stats::check::debug_assert_finite;
use tweetmob_stats::regression::Ols;

/// Fitted 4-parameter gravity model: `P = C · mᵅ nᵝ / dᵞ` (Eq. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gravity4Fit {
    /// Scaling constant `C`.
    pub c: f64,
    /// Origin-population exponent α.
    pub alpha: f64,
    /// Destination-population exponent β.
    pub beta: f64,
    /// Distance-decay exponent γ.
    pub gamma: f64,
    /// R² of the log-space regression.
    pub log_r_squared: f64,
    /// Observations used in the fit.
    pub n_used: usize,
}

/// Fitted 2-parameter gravity model: `P = C · m n / dᵞ` (Eq. 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gravity2Fit {
    /// Scaling constant `C`.
    pub c: f64,
    /// Distance-decay exponent γ.
    pub gamma: f64,
    /// R² of the log-space regression.
    pub log_r_squared: f64,
    /// Observations used in the fit.
    pub n_used: usize,
}

impl Gravity4Fit {
    /// Fits `log P = log C + α·log m + β·log n − γ·log d` by OLS.
    ///
    /// # Errors
    ///
    /// [`ModelError::TooFewObservations`] with fewer than 4 fittable
    /// observations; [`ModelError::DegenerateFit`] on collinear inputs
    /// (e.g. every observation sharing one origin population).
    pub fn fit(observations: &[FlowObservation]) -> Result<Self, ModelError> {
        let _span = tweetmob_obs::span!("fit/gravity4");
        let mut ols = Ols::new(3);
        for o in observations.iter().filter(|o| o.fittable()) {
            ols.add(
                &[
                    o.origin_population.log10(),
                    o.dest_population.log10(),
                    o.distance_km.log10(),
                ],
                o.observed_flow.log10(),
            )?;
        }
        let n_used = ols.n();
        let fit = ols.solve()?;
        Ok(Self {
            c: debug_assert_finite(10f64.powf(fit.intercept()), "gravity-4 C"),
            alpha: debug_assert_finite(fit.coef(0), "gravity-4 alpha"),
            beta: debug_assert_finite(fit.coef(1), "gravity-4 beta"),
            gamma: debug_assert_finite(-fit.coef(2), "gravity-4 gamma"),
            log_r_squared: debug_assert_finite(fit.r_squared, "gravity-4 R^2"),
            n_used,
        })
    }
}

impl ToJson for Gravity4Fit {
    fn to_json(&self) -> Json {
        Json::obj([
            ("c", self.c.into()),
            ("alpha", self.alpha.into()),
            ("beta", self.beta.into()),
            ("gamma", self.gamma.into()),
            ("log_r_squared", self.log_r_squared.into()),
            ("n_used", self.n_used.into()),
        ])
    }
}

impl FittedModel for Gravity4Fit {
    fn predict_flow(&self, obs: &FlowObservation) -> f64 {
        self.c * obs.origin_population.powf(self.alpha) * obs.dest_population.powf(self.beta)
            / obs.distance_km.powf(self.gamma)
    }
}

impl Gravity2Fit {
    /// Fits `log P − log(mn) = log C − γ·log d` by OLS (one predictor).
    ///
    /// # Errors
    ///
    /// As [`Gravity4Fit::fit`], with a 2-observation minimum.
    pub fn fit(observations: &[FlowObservation]) -> Result<Self, ModelError> {
        let _span = tweetmob_obs::span!("fit/gravity2");
        let mut ols = Ols::new(1);
        for o in observations.iter().filter(|o| o.fittable()) {
            let lhs =
                o.observed_flow.log10() - o.origin_population.log10() - o.dest_population.log10();
            ols.add(&[o.distance_km.log10()], lhs)?;
        }
        let n_used = ols.n();
        let fit = ols.solve()?;
        Ok(Self {
            c: debug_assert_finite(10f64.powf(fit.intercept()), "gravity-2 C"),
            gamma: debug_assert_finite(-fit.coef(0), "gravity-2 gamma"),
            log_r_squared: debug_assert_finite(fit.r_squared, "gravity-2 R^2"),
            n_used,
        })
    }
}

impl ToJson for Gravity2Fit {
    fn to_json(&self) -> Json {
        Json::obj([
            ("c", self.c.into()),
            ("gamma", self.gamma.into()),
            ("log_r_squared", self.log_r_squared.into()),
            ("n_used", self.n_used.into()),
        ])
    }
}

impl FittedModel for Gravity2Fit {
    fn predict_flow(&self, obs: &FlowObservation) -> f64 {
        self.c * obs.origin_population * obs.dest_population / obs.distance_km.powf(self.gamma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(m: f64, n: f64, d: f64, t: f64) -> FlowObservation {
        FlowObservation {
            origin_population: m,
            dest_population: n,
            distance_km: d,
            intervening_population: 0.0,
            observed_flow: t,
        }
    }

    /// Deterministic pseudo-random positive value in [lo, hi).
    fn prand(k: &mut u64, lo: f64, hi: f64) -> f64 {
        *k = k
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lo + (*k >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }

    fn synthetic(c: f64, alpha: f64, beta: f64, gamma: f64, n: usize) -> Vec<FlowObservation> {
        let mut k = 42u64;
        (0..n)
            .map(|_| {
                let m = prand(&mut k, 1e3, 1e6);
                let nn = prand(&mut k, 1e3, 1e6);
                let d = prand(&mut k, 5.0, 3_000.0);
                obs(m, nn, d, c * m.powf(alpha) * nn.powf(beta) / d.powf(gamma))
            })
            .collect()
    }

    #[test]
    fn gravity4_recovers_exact_parameters() {
        let data = synthetic(0.003, 0.85, 1.1, 1.8, 300);
        let fit = Gravity4Fit::fit(&data).unwrap();
        assert!((fit.alpha - 0.85).abs() < 1e-9, "alpha {}", fit.alpha);
        assert!((fit.beta - 1.1).abs() < 1e-9, "beta {}", fit.beta);
        assert!((fit.gamma - 1.8).abs() < 1e-9, "gamma {}", fit.gamma);
        assert!((fit.c - 0.003).abs() / 0.003 < 1e-9, "c {}", fit.c);
        assert!((fit.log_r_squared - 1.0).abs() < 1e-9);
        assert_eq!(fit.n_used, 300);
    }

    #[test]
    fn gravity2_recovers_exact_parameters() {
        let data = synthetic(0.01, 1.0, 1.0, 2.0, 200);
        let fit = Gravity2Fit::fit(&data).unwrap();
        assert!((fit.gamma - 2.0).abs() < 1e-9);
        assert!((fit.c - 0.01).abs() / 0.01 < 1e-9);
        assert_eq!(fit.n_used, 200);
    }

    #[test]
    fn gravity4_prediction_matches_generating_law() {
        let data = synthetic(0.2, 1.0, 0.9, 2.2, 100);
        let fit = Gravity4Fit::fit(&data).unwrap();
        for o in &data {
            let rel = (fit.predict_flow(o) - o.observed_flow).abs() / o.observed_flow;
            assert!(rel < 1e-7, "relative error {rel}");
        }
    }

    #[test]
    fn gravity2_is_gravity4_with_unit_exponents() {
        let data = synthetic(0.05, 1.0, 1.0, 1.5, 150);
        let g2 = Gravity2Fit::fit(&data).unwrap();
        let g4 = Gravity4Fit::fit(&data).unwrap();
        // On data generated with α=β=1 both models coincide.
        assert!((g4.alpha - 1.0).abs() < 1e-9);
        assert!((g4.beta - 1.0).abs() < 1e-9);
        assert!((g2.gamma - g4.gamma).abs() < 1e-9);
    }

    #[test]
    fn noisy_fit_recovers_parameters_approximately() {
        let mut data = synthetic(0.01, 1.0, 1.0, 2.0, 400);
        let mut k = 7u64;
        for o in &mut data {
            // Multiplicative noise up to ±30 %.
            o.observed_flow *= prand(&mut k, 0.7, 1.3);
        }
        let fit = Gravity2Fit::fit(&data).unwrap();
        assert!((fit.gamma - 2.0).abs() < 0.05, "gamma {}", fit.gamma);
        assert!(fit.log_r_squared > 0.98);
    }

    #[test]
    fn zero_flow_observations_are_skipped() {
        let mut data = synthetic(0.01, 1.0, 1.0, 2.0, 50);
        data.push(obs(1e5, 1e5, 100.0, 0.0)); // unobserved pair
        let fit = Gravity2Fit::fit(&data).unwrap();
        assert_eq!(fit.n_used, 50);
    }

    #[test]
    fn too_few_observations_error() {
        let data = vec![obs(1e5, 1e5, 100.0, 10.0)];
        assert!(matches!(
            Gravity4Fit::fit(&data),
            Err(ModelError::TooFewObservations { .. })
        ));
        assert!(matches!(
            Gravity2Fit::fit(&[]),
            Err(ModelError::TooFewObservations { .. })
        ));
    }

    #[test]
    fn constant_distance_is_degenerate_for_g2() {
        let data: Vec<FlowObservation> = (1..20)
            .map(|i| obs(1e4 * i as f64, 1e4, 100.0, i as f64))
            .collect();
        assert!(matches!(
            Gravity2Fit::fit(&data),
            Err(ModelError::DegenerateFit(_))
        ));
    }
}
