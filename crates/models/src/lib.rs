//! # tweetmob-models
//!
//! The mobility models of the paper's §IV, with fitting and evaluation:
//!
//! * **Gravity, 4 parameters** (Eq. 1): `P ∝ C · mᵅ nᵝ / dᵞ` — fitted by
//!   least squares in log space ([`Gravity4Fit`]).
//! * **Gravity, 2 parameters** (Eq. 2): `P ∝ C · m n / dᵞ`
//!   ([`Gravity2Fit`]).
//! * **Radiation** (Eq. 3): `P ∝ C · m n / ((m+s)(m+n+s))`, where `s` is
//!   the population within radius `d` of the origin excluding origin and
//!   destination ([`RadiationFit`], with [`InterveningPopulation`]
//!   computing `s` efficiently).
//! * **Intervening opportunities** (Stouffer 1940) as an extension model
//!   beyond the paper ([`OpportunitiesFit`]). Like Radiation it has one
//!   parameter, the scaling constant, fitted as the log-space intercept
//!   by one serial sum over the observations.
//! * **Deterrence-function ablations** — exponential and Tanner
//!   (`d^−γ·e^{−d/κ}`) gravity variants ([`GravityExpFit`],
//!   [`TannerFit`]).
//! * **Doubly-constrained gravity** via iterative proportional fitting
//!   ([`DoublyConstrainedFit`]) — the production variant whose predicted
//!   marginals match the observed trip productions/attractions exactly.
//!
//! Fitting and prediction are split: every fitted parameter struct is an
//! immutable, serializable artifact implementing [`FittedModel`]
//! (one method, `predict_flow`), so the evaluation
//! harness ([`evaluate`]) can score any of them with the
//! paper's two Table-II metrics (log-space Pearson, HitRate@50%) plus
//! the extra metrics the paper's future work calls for. The four
//! paper-comparison fits travel together as a [`FittedModelSet`] — the
//! unit the artifact container in `tweetmob-data` persists for
//! fit-once / predict-many serving. [`ModelKind`] is each one's
//! identity: it names, orders and indexes them, and a caller passes
//! its [`ModelKind::name`] to [`evaluate`].
//!
//! ## Example
//!
//! ```
//! use tweetmob_models::{FittedModel, FlowObservation, Gravity2Fit};
//!
//! // Flows that exactly follow P = 0.01·mn/d²...
//! let obs: Vec<FlowObservation> = (1..20)
//!     .map(|i| {
//!         let (m, n, d) = (1e5, 5e4 + i as f64 * 1e3, 50.0 + i as f64 * 30.0);
//!         FlowObservation {
//!             origin_population: m,
//!             dest_population: n,
//!             distance_km: d,
//!             intervening_population: 0.0,
//!             observed_flow: 0.01 * m * n / (d * d),
//!         }
//!     })
//!     .collect();
//! // ...are recovered with γ = 2.
//! let fit = Gravity2Fit::fit(&obs).unwrap();
//! assert!((fit.gamma - 2.0).abs() < 1e-9);
//! assert!((fit.predict_flow(&obs[3]) - obs[3].observed_flow).abs() < 1e-6);
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::cast_possible_truncation
)]
#![expect(
    clippy::neg_cmp_op_on_partial_ord,
    reason = "`!(x > 0.0)` guards are deliberate: they also reject NaN"
)]

mod deterrence;
mod evaluation;
mod fitted;
mod gravity;
mod ipf;
mod opportunities;
mod radiation;
mod traits;

pub use deterrence::{GravityExpFit, TannerFit};
pub use evaluation::{evaluate, evaluate_vectors, ModelEvaluation};
pub use fitted::{FittedModel, FittedModelSet, ModelKind};
pub use gravity::{Gravity2Fit, Gravity4Fit};
pub use ipf::{DoublyConstrainedFit, IpfError};
pub use opportunities::OpportunitiesFit;
pub use radiation::{InterveningPopulation, RadiationFit};
pub use traits::{FlowObservation, ModelError};
