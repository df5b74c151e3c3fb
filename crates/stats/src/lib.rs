//! # tweetmob-stats
//!
//! From-scratch statistics substrate for the `tweetmob` workspace. No
//! external math dependencies: special functions (ln-gamma, regularised
//! incomplete beta) are implemented here and everything else builds on
//! them.
//!
//! The paper needs, and this crate provides:
//!
//! * **Pearson correlation with a two-tailed p-value** — the paper reports
//!   r = 0.816, p = 2.06e-15 for population estimation (Fig. 3) and uses
//!   Pearson again for Table II. The p-value requires the Student-t CDF,
//!   hence [`special`] and [`distributions`].
//! * **Least-squares fitting in log space** — gravity-model parameters are
//!   "estimated from least-square fitting after taking logarithm of the
//!   formulas" (§IV). [`regression::Ols`] is a small multiple-regression
//!   solver (normal equations + Gaussian elimination with partial
//!   pivoting).
//! * **Logarithmic binning** — Figs. 2 and 4 use log-binned PDFs and
//!   log-binned means ([`binning`]).
//! * **Power-law fitting** — Fig. 2(a) "essentially follows a power-law
//!   distribution"; [`powerlaw`] has a Clauset-style MLE and KS distance.
//! * **HitRate@q and friends** — Table II's HitRate@50% plus RMSE/SSI
//!   used as additional metrics ([`metrics`]), answering the paper's
//!   future-work call for "more metrics".
//! * **A tiny embedded SplitMix64 generator** ([`rng`]) so the crate
//!   stays dependency-free.
//! * **Concentration indices** ([`concentration`]) — Gini and Theil —
//!   quantifying the "sparse and uneven population distribution" the
//!   paper blames for Radiation's misfit.
//! * **Numeric-invariant assertions** ([`check`]) — finite / non-negative
//!   / probability checks threaded through the fitting and evaluation
//!   hot paths so poisoned values fail loudly instead of propagating.
//!
//! ## Example
//!
//! ```
//! use tweetmob_stats::correlation::pearson;
//!
//! let x = [1.0, 2.0, 3.0, 4.0, 5.0];
//! let y = [2.1, 3.9, 6.2, 7.8, 10.1];
//! let r = pearson(&x, &y).unwrap();
//! assert!(r.r > 0.99);
//! assert!(r.p_two_tailed < 0.01);
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
    reason = "`!(x > 0.0)` guards are deliberate: unlike `x <= 0.0` they also reject NaN"
)]
#![expect(
    clippy::excessive_precision,
    reason = "special-function coefficients are quoted at published precision"
)]

pub mod binning;
pub mod check;
pub mod concentration;
pub mod correlation;
pub mod descriptive;
pub mod distributions;
pub mod metrics;
pub mod powerlaw;
pub mod regression;
pub mod rng;
pub mod special;

/// Error type shared by the statistics routines.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// Input slice(s) shorter than the minimum the routine needs.
    TooFewSamples {
        /// Samples required.
        needed: usize,
        /// Samples supplied.
        got: usize,
    },
    /// Paired-input routines got slices of different lengths.
    LengthMismatch {
        /// Length of the first input.
        left: usize,
        /// Length of the second input.
        right: usize,
    },
    /// An input that must be strictly positive (e.g. for logarithms)
    /// contained a non-positive or non-finite value.
    NonPositiveValue(f64),
    /// Input contained NaN or ±∞ where finite values are required.
    NonFiniteValue(f64),
    /// A degenerate input made the statistic undefined (e.g. zero variance
    /// for correlation, singular design matrix for OLS).
    Degenerate(&'static str),
    /// A routine that needs at least one effective sample saw none at all
    /// (e.g. population rescaling when no tweets hit any study area).
    EmptySample(&'static str),
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::TooFewSamples { needed, got } => {
                write!(f, "need at least {needed} samples, got {got}")
            }
            StatsError::LengthMismatch { left, right } => {
                write!(f, "paired inputs have different lengths: {left} vs {right}")
            }
            StatsError::NonPositiveValue(v) => {
                write!(f, "value {v} must be strictly positive")
            }
            StatsError::NonFiniteValue(v) => write!(f, "value {v} is not finite"),
            StatsError::Degenerate(what) => write!(f, "degenerate input: {what}"),
            StatsError::EmptySample(what) => write!(f, "empty sample: {what}"),
        }
    }
}

impl std::error::Error for StatsError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, StatsError>;

pub(crate) fn check_finite(xs: &[f64]) -> Result<()> {
    for &x in xs {
        if !x.is_finite() {
            return Err(StatsError::NonFiniteValue(x));
        }
    }
    Ok(())
}

pub(crate) fn check_paired(x: &[f64], y: &[f64]) -> Result<()> {
    if x.len() != y.len() {
        return Err(StatsError::LengthMismatch {
            left: x.len(),
            right: y.len(),
        });
    }
    Ok(())
}
