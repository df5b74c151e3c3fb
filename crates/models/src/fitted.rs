//! The fit → artifact → predict split: immutable fitted artifacts.
//!
//! Fitting and prediction used to be one lifecycle — a model was fitted
//! and consumed inside a single `mobility` invocation. The serving and
//! streaming work both need the other shape: fit once, persist the
//! result, and let any number of later processes (or threads) predict
//! from the same immutable artifact. This module is the model-layer
//! half of that split:
//!
//! * [`FittedModel`] — the prediction-only trait every fitted-artifact
//!   struct implements. It is object-safe, carries no training state,
//!   and is what a server holds behind an `Arc`.
//! * [`ModelKind`] — the closed set of the four paper models an
//!   artifact container stores and a query addresses by name.
//! * [`FittedModelSet`] — all four fitted artifacts together: the unit
//!   the `tweetmob fit` command produces and `ModelBundle` serialises.

use crate::gravity::{Gravity2Fit, Gravity4Fit};
use crate::opportunities::OpportunitiesFit;
use crate::radiation::RadiationFit;
use crate::traits::{FlowObservation, ModelError};
use tweetmob_obs::{Json, ToJson};

/// A fitted, immutable mobility-model artifact: everything needed to
/// predict a flow, nothing needed to fit one.
///
/// Implementors are plain `Copy` parameter structs — loading one from
/// an artifact file and predicting
/// with it is bit-identical to predicting with the freshly fitted
/// value, because prediction touches only the stored parameters. A
/// model's name is not its own: the four paper models are named by
/// [`ModelKind::name`], and [`evaluate`](crate::evaluate) takes the
/// name from its caller.
pub trait FittedModel {
    /// Predicted flow for the observation's `(m, n, d, s)`; the
    /// observation's `observed_flow` is ignored.
    fn predict_flow(&self, obs: &FlowObservation) -> f64;
}

/// The four models of the paper's comparison, as a closed enum — the
/// one identity of each model: it names it ([`ModelKind::name`]),
/// orders it ([`ModelKind::ALL`]), indexes it ([`ModelKind::index`])
/// and is the dispatch key for artifact queries
/// (`tweetmob predict --model …`).
///
/// Variants are declared in [`ModelKind::ALL`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// 4-parameter gravity (Eq. 1).
    Gravity4,
    /// 2-parameter gravity (Eq. 2).
    Gravity2,
    /// Radiation (Eq. 3).
    Radiation,
    /// Intervening opportunities (extension).
    Opportunities,
}

impl ModelKind {
    /// All four kinds, in the paper's comparison order.
    pub const ALL: [ModelKind; 4] = [
        ModelKind::Gravity4,
        ModelKind::Gravity2,
        ModelKind::Radiation,
        ModelKind::Opportunities,
    ];

    /// Position of the kind in [`ModelKind::ALL`].
    #[must_use]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Display name, as report tables and evaluations print it.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            ModelKind::Gravity4 => "Gravity 4Param",
            ModelKind::Gravity2 => "Gravity 2Param",
            ModelKind::Radiation => "Radiation",
            ModelKind::Opportunities => "Opportunities",
        }
    }

    /// The CLI/flag spelling of the kind.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            ModelKind::Gravity4 => "gravity4",
            ModelKind::Gravity2 => "gravity2",
            ModelKind::Radiation => "radiation",
            ModelKind::Opportunities => "opportunities",
        }
    }

    /// Parses the CLI spelling ([`ModelKind::key`]); `None` on anything
    /// else.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.key() == s)
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

/// The four fitted artifacts of one mobility experiment, together.
///
/// This is the payload the artifact container persists: fitting
/// happens once (through [`FittedModelSet::fit`] or the experiment
/// runner), and the resulting set is immutable and cheap to copy or
/// share. Field order is the paper's comparison order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FittedModelSet {
    /// Fitted 4-parameter gravity model (Eq. 1).
    pub gravity4: Gravity4Fit,
    /// Fitted 2-parameter gravity model (Eq. 2).
    pub gravity2: Gravity2Fit,
    /// Fitted radiation model (Eq. 3).
    pub radiation: RadiationFit,
    /// Fitted intervening-opportunities model (extension).
    pub opportunities: OpportunitiesFit,
}

impl FittedModelSet {
    /// Fits all four models on one observation set — the single fitting
    /// routine behind `tweetmob fit`, `tweetmob mobility` and the
    /// artifact container.
    ///
    /// # Errors
    ///
    /// The first fit failure, as the individual fitters report it
    /// ([`ModelError::TooFewObservations`] /
    /// [`ModelError::DegenerateFit`]).
    pub fn fit(observations: &[FlowObservation]) -> Result<Self, ModelError> {
        Ok(Self {
            gravity4: Gravity4Fit::fit(observations)?,
            gravity2: Gravity2Fit::fit(observations)?,
            radiation: RadiationFit::fit_columnar(observations)?,
            opportunities: OpportunitiesFit::fit_columnar(observations)?,
        })
    }

    /// The fitted artifact of one kind, as a trait object.
    #[must_use]
    pub fn model(&self, kind: ModelKind) -> &dyn FittedModel {
        match kind {
            ModelKind::Gravity4 => &self.gravity4,
            ModelKind::Gravity2 => &self.gravity2,
            ModelKind::Radiation => &self.radiation,
            ModelKind::Opportunities => &self.opportunities,
        }
    }

    /// The fitted parameters of one kind, as JSON.
    #[must_use]
    pub fn params_json(&self, kind: ModelKind) -> Json {
        match kind {
            ModelKind::Gravity4 => self.gravity4.to_json(),
            ModelKind::Gravity2 => self.gravity2.to_json(),
            ModelKind::Radiation => self.radiation.to_json(),
            ModelKind::Opportunities => self.opportunities.to_json(),
        }
    }

    /// Predicted flow of one kind for one observation.
    #[must_use]
    pub fn predict(&self, kind: ModelKind, obs: &FlowObservation) -> f64 {
        self.model(kind).predict_flow(obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(m: f64, n: f64, d: f64, s: f64, t: f64) -> FlowObservation {
        FlowObservation {
            origin_population: m,
            dest_population: n,
            distance_km: d,
            intervening_population: s,
            observed_flow: t,
        }
    }

    fn synthetic() -> Vec<FlowObservation> {
        let mut k = 17u64;
        let mut next = |lo: f64, hi: f64| {
            k = k.wrapping_mul(6364136223846793005).wrapping_add(1);
            lo + (k >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
        };
        (0..80)
            .map(|_| {
                let m = next(1e3, 1e6);
                let n = next(1e3, 1e6);
                let d = next(5.0, 3_000.0);
                let s = next(0.0, 1e6);
                obs(m, n, d, s, 0.01 * m * n / (d * d))
            })
            .collect()
    }

    #[test]
    fn kind_key_round_trips() {
        for kind in ModelKind::ALL {
            assert_eq!(ModelKind::parse(kind.key()), Some(kind));
            assert_eq!(kind.to_string(), kind.key());
        }
        assert_eq!(ModelKind::parse("bogus"), None);
    }

    #[test]
    fn fit_all_matches_individual_fits() {
        let data = synthetic();
        let set = FittedModelSet::fit(&data).unwrap();
        assert_eq!(set.gravity4, Gravity4Fit::fit(&data).unwrap());
        assert_eq!(set.gravity2, Gravity2Fit::fit(&data).unwrap());
        assert_eq!(set.radiation, RadiationFit::fit_columnar(&data).unwrap());
        assert_eq!(
            set.opportunities,
            OpportunitiesFit::fit_columnar(&data).unwrap()
        );
    }

    #[test]
    fn dispatch_matches_direct_prediction_bit_for_bit() {
        let data = synthetic();
        let set = FittedModelSet::fit(&data).unwrap();
        for o in &data {
            assert_eq!(
                set.predict(ModelKind::Gravity4, o).to_bits(),
                set.gravity4.predict_flow(o).to_bits()
            );
            assert_eq!(
                set.predict(ModelKind::Gravity2, o).to_bits(),
                set.gravity2.predict_flow(o).to_bits()
            );
            assert_eq!(
                set.predict(ModelKind::Radiation, o).to_bits(),
                set.radiation.predict_flow(o).to_bits()
            );
            assert_eq!(
                set.predict(ModelKind::Opportunities, o).to_bits(),
                set.opportunities.predict_flow(o).to_bits()
            );
        }
    }

    #[test]
    fn kind_names_and_indexes_stay_stable() {
        let names = ModelKind::ALL.map(ModelKind::name);
        assert_eq!(
            names,
            [
                "Gravity 4Param",
                "Gravity 2Param",
                "Radiation",
                "Opportunities"
            ]
        );
        for (i, kind) in ModelKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }

    #[test]
    fn fit_failure_propagates() {
        assert!(FittedModelSet::fit(&[]).is_err());
    }
}
