//! Generator configuration: how many users, and which seed.

use std::fmt;

/// Error type for invalid generator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid generator config: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Inputs of the synthetic tweet-stream generator.
///
/// The world itself is fixed: its calibration constants (crate-private,
/// in the generator) reproduce the paper's Table I — mean tweets/user ≈
/// 13.3, mean waiting time ≈ 35.5 h, mean distinct locations/user ≈
/// 4.76 — over the Sept 2013 – Apr 2014 collection window. A config
/// only picks how many users that world holds and which seed draws
/// them.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Number of synthetic users (paper: 473,956). Must be > 0.
    pub n_users: u32,
    /// Master RNG seed; every run with the same config is bit-identical.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    /// The default experiment scale (20,000 users): every paper
    /// experiment reproduces its qualitative shape at this size in
    /// seconds.
    fn default() -> Self {
        Self {
            n_users: 20_000,
            seed: 0x7EE7_30B5,
        }
    }
}

impl GeneratorConfig {
    /// A fast preset (2,000 users) for unit tests and doc examples.
    pub fn small() -> Self {
        Self {
            n_users: 2_000,
            ..Self::default()
        }
    }
}
