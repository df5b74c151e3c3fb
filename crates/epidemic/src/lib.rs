//! # tweetmob-epidemic
//!
//! Metapopulation disease-spread simulation over mobility networks — the
//! application the paper is building towards ("the outcomes of the study
//! form the cornerstones for future work towards a model-based,
//! responsive prediction method from Twitter data for disease spread").
//!
//! The pipeline: fit a mobility model on Twitter-extracted flows
//! (`tweetmob-core`), convert the predicted flows into per-capita
//! migration rates ([`MobilityNetwork`]), then simulate SIR/SEIR dynamics
//! across the patches with either a deterministic RK4 integrator or a
//! stochastic binomial chain ([`OutbreakScenario`] runs both).
//!
//! ## Example
//!
//! ```
//! use tweetmob_epidemic::{MobilityNetwork, OutbreakScenario};
//!
//! // Two towns, strongly coupled.
//! let net = MobilityNetwork::from_flows(
//!     vec![10_000.0, 5_000.0],
//!     &[(0, 1, 30.0), (1, 0, 30.0)],
//!     0.05,
//! ).unwrap();
//! let scenario = OutbreakScenario::new(net, 0.4, 0.2).seed(0, 10.0);
//! let timeline = scenario.run_deterministic(120.0, 0.25).unwrap();
//! // The outbreak reaches the second town.
//! assert!(timeline.peak_infected(1) > 1.0);
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![expect(
    clippy::neg_cmp_op_on_partial_ord,
    reason = "`!(x > 0.0)` guards are deliberate: they also reject NaN"
)]

mod deterministic;
pub mod effective;
pub mod network;
pub mod r0;
pub mod scenario;
mod stochastic;

pub use effective::{arrival_time_correlation, effective_distance_from, ArrivalCorrelation};
pub use network::{MobilityNetwork, NetworkError};
pub use r0::{estimate_r0, R0Estimate};
pub use scenario::{EpidemicTimeline, OutbreakScenario, ScenarioError, SeirParams};
