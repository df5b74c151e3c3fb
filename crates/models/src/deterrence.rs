//! Deterrence-function ablations for the gravity model.
//!
//! The paper's Eq. 1–2 assume a *power-law* distance deterrence `d^−γ`.
//! The transport literature also uses an *exponential* deterrence
//! `exp(−d/κ)` (short-range, cost-dominated travel) and the *Tanner*
//! function `d^−γ·exp(−d/κ)` combining both. Fitting all three on the
//! same flows answers a question the paper leaves open ("evaluate model
//! performances … at more varieties of distances scales"): which decay
//! family does tweet-extracted mobility actually follow, and at which
//! scale does the crossover sit? All fits remain linear least squares in
//! log space — the exponential term contributes `−d·log₁₀e/κ`, linear in
//! raw distance.

use crate::fitted::FittedModel;
use crate::traits::{FlowObservation, ModelError};
use tweetmob_stats::regression::Ols;

const LOG10_E: f64 = std::f64::consts::LOG10_E;

/// Gravity with pure exponential deterrence: `P = C·m·n·exp(−d/κ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GravityExpFit {
    /// Scaling constant `C`.
    pub c: f64,
    /// Deterrence length scale κ, km.
    pub kappa_km: f64,
    /// R² of the log-space regression.
    pub log_r_squared: f64,
    /// Observations used.
    pub n_used: usize,
}

impl GravityExpFit {
    /// Fits `log P − log(mn) = log C − (log₁₀e/κ)·d`.
    ///
    /// # Errors
    ///
    /// As the other gravity fits; additionally
    /// [`ModelError::DegenerateFit`] when the fitted slope is
    /// non-negative (flows *growing* with distance — no deterrence
    /// length exists).
    pub fn fit(observations: &[FlowObservation]) -> Result<Self, ModelError> {
        let mut ols = Ols::new(1);
        for o in observations.iter().filter(|o| o.fittable()) {
            let lhs =
                o.observed_flow.log10() - o.origin_population.log10() - o.dest_population.log10();
            ols.add(&[o.distance_km], lhs)?;
        }
        let n_used = ols.n();
        let fit = ols.solve()?;
        let slope = fit.coef(0);
        if slope >= 0.0 {
            return Err(ModelError::DegenerateFit(
                "non-negative distance slope: no exponential deterrence",
            ));
        }
        Ok(Self {
            c: 10f64.powf(fit.intercept()),
            kappa_km: -LOG10_E / slope,
            log_r_squared: fit.r_squared,
            n_used,
        })
    }
}

impl FittedModel for GravityExpFit {
    fn predict_flow(&self, obs: &FlowObservation) -> f64 {
        self.c
            * obs.origin_population
            * obs.dest_population
            * (-obs.distance_km / self.kappa_km).exp()
    }
}

/// Gravity with the Tanner deterrence: `P = C·m·n·d^−γ·exp(−d/κ)`.
///
/// The sign of `1/κ` is unconstrained: a fitted negative `inv_kappa`
/// means the power law alone over-suppresses long-range flows and the
/// exponential term corrects upward. `γ` likewise may come out of the
/// regression with either sign on degenerate data; both are reported as
/// fitted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TannerFit {
    /// Scaling constant `C`.
    pub c: f64,
    /// Power-law exponent γ.
    pub gamma: f64,
    /// Inverse deterrence length 1/κ (per km; may be negative, see type
    /// docs).
    pub inv_kappa: f64,
    /// R² of the log-space regression.
    pub log_r_squared: f64,
    /// Observations used.
    pub n_used: usize,
}

impl TannerFit {
    /// Fits `log P − log(mn) = log C − γ·log d − (log₁₀e·(1/κ))·d`.
    ///
    /// # Errors
    ///
    /// As the other gravity fits (degenerate when `d` and `log d` are
    /// collinear over the sample, e.g. all distances equal).
    pub fn fit(observations: &[FlowObservation]) -> Result<Self, ModelError> {
        let mut ols = Ols::new(2);
        for o in observations.iter().filter(|o| o.fittable()) {
            let lhs =
                o.observed_flow.log10() - o.origin_population.log10() - o.dest_population.log10();
            ols.add(&[o.distance_km.log10(), o.distance_km], lhs)?;
        }
        let n_used = ols.n();
        let fit = ols.solve()?;
        Ok(Self {
            c: 10f64.powf(fit.intercept()),
            gamma: -fit.coef(0),
            inv_kappa: -fit.coef(1) / LOG10_E,
            log_r_squared: fit.r_squared,
            n_used,
        })
    }
}

impl FittedModel for TannerFit {
    fn predict_flow(&self, obs: &FlowObservation) -> f64 {
        self.c
            * obs.origin_population
            * obs.dest_population
            * obs.distance_km.powf(-self.gamma)
            * (-obs.distance_km * self.inv_kappa).exp()
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

    fn prand(k: &mut u64, lo: f64, hi: f64) -> f64 {
        *k = k
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lo + (*k >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }

    #[test]
    fn exponential_fit_recovers_kappa() {
        let mut k = 1u64;
        let data: Vec<FlowObservation> = (0..200)
            .map(|_| {
                let m = prand(&mut k, 1e3, 1e6);
                let n = prand(&mut k, 1e3, 1e6);
                let d = prand(&mut k, 5.0, 800.0);
                obs(m, n, d, 0.001 * m * n * (-d / 150.0).exp())
            })
            .collect();
        let fit = GravityExpFit::fit(&data).unwrap();
        assert!(
            (fit.kappa_km - 150.0).abs() < 1e-6,
            "kappa {}",
            fit.kappa_km
        );
        assert!((fit.c - 0.001).abs() / 0.001 < 1e-9);
        for o in &data {
            assert!((fit.predict_flow(o) - o.observed_flow).abs() / o.observed_flow < 1e-9);
        }
    }

    #[test]
    fn exponential_fit_rejects_increasing_flows() {
        let data: Vec<FlowObservation> = (1..30)
            .map(|i| obs(1e4, 1e4, 10.0 * i as f64, (i * i) as f64))
            .collect();
        assert!(matches!(
            GravityExpFit::fit(&data),
            Err(ModelError::DegenerateFit(_))
        ));
    }

    #[test]
    fn tanner_fit_recovers_both_parameters() {
        let mut k = 3u64;
        let data: Vec<FlowObservation> = (0..400)
            .map(|_| {
                let m = prand(&mut k, 1e3, 1e6);
                let n = prand(&mut k, 1e3, 1e6);
                let d = prand(&mut k, 5.0, 2_000.0);
                obs(m, n, d, 0.5 * m * n * d.powf(-1.2) * (-d / 900.0).exp())
            })
            .collect();
        let fit = TannerFit::fit(&data).unwrap();
        assert!((fit.gamma - 1.2).abs() < 1e-6, "gamma {}", fit.gamma);
        assert!(
            (fit.inv_kappa - 1.0 / 900.0).abs() < 1e-9,
            "1/kappa {}",
            fit.inv_kappa
        );
        assert!((fit.log_r_squared - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tanner_degrades_gracefully_to_pure_power_law() {
        // Data with no exponential component: inv_kappa must come out ≈ 0.
        let mut k = 5u64;
        let data: Vec<FlowObservation> = (0..300)
            .map(|_| {
                let m = prand(&mut k, 1e3, 1e6);
                let n = prand(&mut k, 1e3, 1e6);
                let d = prand(&mut k, 5.0, 2_000.0);
                obs(m, n, d, 0.01 * m * n / (d * d))
            })
            .collect();
        let fit = TannerFit::fit(&data).unwrap();
        assert!((fit.gamma - 2.0).abs() < 1e-6, "gamma {}", fit.gamma);
        assert!(fit.inv_kappa.abs() < 1e-9, "1/kappa {}", fit.inv_kappa);
    }

    #[test]
    fn tanner_collinear_distances_degenerate() {
        let data: Vec<FlowObservation> = (1..30)
            .map(|i| obs(1e3 * i as f64, 1e4, 100.0, i as f64))
            .collect();
        assert!(matches!(
            TannerFit::fit(&data),
            Err(ModelError::DegenerateFit(_))
        ));
    }
}
