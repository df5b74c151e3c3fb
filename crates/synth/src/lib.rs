//! # tweetmob-synth
//!
//! Synthetic Australian geo-tagged tweet-stream generator — the
//! substitution for the paper's proprietary 6.3 M-tweet Twitter dataset
//! (DESIGN.md §2).
//!
//! The generator reproduces every statistical property the paper's
//! experiments depend on, over the *real* Australian geography (an
//! embedded gazetteer of cities, NSW towns and Sydney suburbs with census
//! populations):
//!
//! * power-law tweets-per-user and heavy-tailed waiting times (Fig. 2,
//!   Table I calibration: ≈ 13.3 tweets/user, ≈ 35.5 h mean gap);
//! * homes assigned ∝ census population with frozen per-place adoption
//!   bias (Fig. 3 scatter);
//! * trips from a two-regime gravity kernel with frozen pair noise
//!   (Fig. 4 / Table II: Gravity fits well but imperfectly; Radiation
//!   misfits because of the real coastal population layout — it is never
//!   used in generation).
//!
//! The calibration behind these properties is a set of crate-private
//! constants in the generator (`ACTIVITY_ALPHA`, `ACTIVITY_SPAN_FRACTION`,
//! `WAITING_SIGMA`, `MOVE_PROBABILITY`, `GRAVITY_GAMMA`,
//! `PAIR_NOISE_SIGMA`, `BIAS_SIGMA`, …), so a [`GeneratorConfig`] picks
//! only the user count and the seed. Everything is deterministic given
//! [`GeneratorConfig::seed`], including under multi-threaded generation.
//!
//! ## Example
//!
//! ```
//! use tweetmob_synth::{GeneratorConfig, TweetGenerator};
//!
//! let mut cfg = GeneratorConfig::small();
//! cfg.n_users = 100;
//! let dataset = TweetGenerator::new(cfg).generate();
//! assert_eq!(dataset.n_users(), 100);
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod config;
pub mod counterfactual;
pub mod gazetteer;
mod kernel;
mod sampling;

mod generator;

pub use config::{ConfigError, GeneratorConfig};
pub use gazetteer::{
    Area, Place, BACKGROUND_TOWNS, NATIONAL_TOP20, NSW_TOP20, SYDNEY_SUBURBS_TOP20,
};
pub use generator::TweetGenerator;
