//! Intervening-opportunities model (extension beyond the paper).
//!
//! Stouffer's 1940 law holds that the number of movers over a distance is
//! proportional to the opportunities at that distance and inversely
//! proportional to the intervening opportunities. In the notation of the
//! paper's Eq. 3 quantities, we use the common flow form
//!
//! `P = C · m · n / (s + n)`
//!
//! — origin mass times the destination's share of opportunities at or
//! inside its radius. Like Radiation it needs only a scaling constant, so
//! it slots into the same comparison harness; the paper's future work
//! asks for evaluating "more metrics and at more varieties of distance
//! scales", and an extra opportunity-class model is the natural ablation
//! companion (is Radiation's misfit specific to its functional form, or
//! shared by all intervening-opportunity laws?).

use crate::fitted::FittedModel;
use crate::traits::{log_intercept, FlowObservation, ModelError};
use tweetmob_obs::{Json, ToJson};

/// Fitted intervening-opportunities model: `P = C · m n / (s + n)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpportunitiesFit {
    /// Scaling constant `C`.
    pub c: f64,
    /// Observations used in the fit.
    pub n_used: usize,
}

impl OpportunitiesFit {
    /// The structural factor `m n / (s + n)`.
    pub(crate) fn structural_factor(obs: &FlowObservation) -> f64 {
        obs.origin_population * obs.dest_population
            / (obs.intervening_population + obs.dest_population)
    }

    /// Fits `C` as the log-space intercept (geometric mean of `T / φ`).
    ///
    /// # Errors
    ///
    /// [`ModelError::TooFewObservations`] when no observation is usable.
    pub fn fit_columnar(observations: &[FlowObservation]) -> Result<Self, ModelError> {
        let _span = tweetmob_obs::span!("fit/opportunities");
        let (log_c, n_used) = log_intercept(observations, Self::structural_factor)?;
        Ok(Self {
            c: 10f64.powf(log_c),
            n_used,
        })
    }
}

impl ToJson for OpportunitiesFit {
    fn to_json(&self) -> Json {
        Json::obj([("c", self.c.into()), ("n_used", self.n_used.into())])
    }
}

impl FittedModel for OpportunitiesFit {
    fn predict_flow(&self, obs: &FlowObservation) -> f64 {
        self.c * Self::structural_factor(obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(m: f64, n: f64, s: f64, t: f64) -> FlowObservation {
        FlowObservation {
            origin_population: m,
            dest_population: n,
            distance_km: 100.0,
            intervening_population: s,
            observed_flow: t,
        }
    }

    #[test]
    fn structural_factor_limits() {
        // s = 0: φ = m (all opportunities are at the destination).
        let o = obs(500.0, 100.0, 0.0, 1.0);
        assert!((OpportunitiesFit::structural_factor(&o) - 500.0).abs() < 1e-12);
        // s >> n: φ ≈ m·n/s.
        let o = obs(500.0, 100.0, 1e6, 1.0);
        let phi = OpportunitiesFit::structural_factor(&o);
        assert!((phi - 500.0 * 100.0 / 1_000_100.0).abs() < 1e-9);
    }

    #[test]
    fn fit_recovers_constant() {
        let data: Vec<FlowObservation> = (1..30)
            .map(|i| {
                let (m, n, s) = (1e4, 1e3 * i as f64, 5e2 * i as f64);
                obs(m, n, s, 3.0 * m * n / (s + n))
            })
            .collect();
        let fit = OpportunitiesFit::fit_columnar(&data).unwrap();
        assert!((fit.c - 3.0).abs() / 3.0 < 1e-9);
        for o in &data {
            assert!((fit.predict_flow(o) - o.observed_flow).abs() / o.observed_flow < 1e-9);
        }
    }

    #[test]
    fn fit_requires_usable_observations() {
        assert!(OpportunitiesFit::fit_columnar(&[]).is_err());
        assert!(OpportunitiesFit::fit_columnar(&[obs(1e4, 1e3, 0.0, 0.0)]).is_err());
    }
}
