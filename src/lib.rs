//! # tweetmob
//!
//! Facade crate for the `tweetmob` workspace — a Rust reproduction of
//! *"Multi-scale Population and Mobility Estimation with Geo-tagged
//! Tweets"* (Liu et al., ICDE 2015 workshops / arXiv:1412.0327).
//!
//! The workspace estimates population distributions and inter-area
//! mobility flows from (synthetic) geo-tagged tweet streams at three
//! geographic scales — national, state and metropolitan — and compares
//! gravity and radiation mobility models, reproducing every table and
//! figure of the paper. See `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for measured-vs-paper results.
//!
//! This crate re-exports the public API of each subsystem under one
//! namespace:
//!
//! * [`geo`] — geodesy, pair-geometry cache, density rasteriser;
//! * [`stats`] — correlation/p-values, OLS, log binning, power laws,
//!   metrics;
//! * [`data`] — tweet records, columnar dataset, Table-I summaries, I/O;
//! * [`synth`] — the synthetic Australian tweet-stream generator;
//! * [`models`] — gravity / radiation / intervening-opportunities models;
//! * [`core`] — the multi-scale estimation framework (the paper's
//!   contribution);
//! * [`epidemic`] — metapopulation SIR/SEIR over fitted mobility networks
//!   (the paper's stated future-work application);
//! * [`obs`] — structured spans, counters and pipeline metrics (the
//!   instrumentation every stage above records into);
//! * [`par`] — the shared deterministic worker pool every parallel
//!   stage dispatches on (`--threads`, scoped overrides).
//!
//! ## Quickstart
//!
//! ```
//! use tweetmob::synth::{GeneratorConfig, TweetGenerator};
//! use tweetmob::core::{Experiment, Scale};
//!
//! // Generate a small synthetic tweet stream over real Australian
//! // geography, then run the paper's population-estimation experiment.
//! let config = GeneratorConfig::small();
//! let dataset = TweetGenerator::new(config).generate();
//! let experiment = Experiment::new(&dataset);
//! let pop = experiment.population_correlation(Scale::National).unwrap();
//! assert!(pop.correlation.r > 0.5);
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub use tweetmob_core as core;
pub use tweetmob_data as data;
pub use tweetmob_epidemic as epidemic;
pub use tweetmob_geo as geo;
pub use tweetmob_models as models;
pub use tweetmob_obs as obs;
pub use tweetmob_par as par;
pub use tweetmob_stats as stats;
pub use tweetmob_synth as synth;
