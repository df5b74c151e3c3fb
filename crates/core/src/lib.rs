//! # tweetmob-core
//!
//! The paper's contribution: multi-scale population and mobility
//! estimation from geo-tagged tweet streams.
//!
//! The pipeline mirrors §III–IV of the paper exactly:
//!
//! 1. **Scales** ([`Scale`]): national (top-20 Australian cities, ε =
//!    50 km), state (top-20 NSW cities, ε = 25 km), metropolitan (top-20
//!    Sydney suburbs, ε = 2 km; 0.5 km sensitivity variant).
//! 2. **Population estimation** ([`Experiment::population_correlation`]):
//!    count unique Twitter users within ε of each area centre, rescale by
//!    `C = Σ census / Σ twitter`, and correlate with census populations
//!    (Fig. 3; paper reports pooled r = 0.816, p = 2.06e-15).
//! 3. **Mobility extraction** ([`Experiment::mobility`]): count pairs of
//!    consecutive tweets by the same user that appear first in a source
//!    area and then in a destination area (§IV), assemble an OD matrix,
//!    then fit and score Gravity 4-param, Gravity 2-param and Radiation
//!    (Fig. 4, Table II).
//!
//! ## Example
//!
//! ```
//! use tweetmob_core::{Experiment, Scale};
//! use tweetmob_synth::{GeneratorConfig, TweetGenerator};
//!
//! let ds = TweetGenerator::new(GeneratorConfig::small()).generate();
//! let exp = Experiment::new(&ds);
//! let pop = exp.population_correlation(Scale::National).unwrap();
//! assert_eq!(pop.areas.len(), 20);
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::cast_possible_truncation
)]

mod ablation;
mod areaset;
mod displacement;
mod experiment;
mod odmatrix;
mod population;
mod scan;
mod temporal;
mod trips;

pub use ablation::{deterrence_ablation, DeterrenceAblation};
pub use areaset::{AreaSet, Scale};
pub use displacement::{displacement_profile, DisplacementProfile, DisplacementShares};
pub use experiment::{Experiment, ExperimentError, MobilityReport, PopulationSource};
pub use odmatrix::OdMatrix;
pub use population::{correlation_json, AreaPopulation, PooledPopulation, PopulationCorrelation};
pub use scan::{data_funnel, DataFunnel};
pub use temporal::{
    temporal_stability, waiting_time_stationarity, TemporalStability, WindowResult,
};
pub use trips::extract_trips;

/// The shared deterministic worker pool every parallel stage runs on
/// (re-exported so pipeline callers can pin thread counts via
/// `tweetmob_core::par::with_threads` / `set_threads_override`).
pub use tweetmob_par as par;
