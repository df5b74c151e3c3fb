//! Generator configuration and calibrated presets.

use std::fmt;
use tweetmob_data::Timestamp;

/// Error type for invalid generator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid generator config: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Parameters of the synthetic tweet-stream generator.
///
/// Defaults are calibrated against the paper's Table I: mean tweets/user ≈
/// 13.3, mean waiting time ≈ 35.5 h, mean distinct locations/user ≈ 4.76,
/// over a Sept 2013 – Apr 2014 window. Changing a knob changes one
/// behavioural axis:
///
/// | knob | controls |
/// |---|---|
/// | `activity_alpha` | tail of the tweets-per-user power law (Fig. 2a) |
/// | `activity_span_fraction` | fraction of the window a typical user is active for — drives the mean waiting time (Table I) |
/// | `waiting_sigma` | burstiness of inter-tweet gaps (Fig. 2b spread) |
/// | `move_probability` | how often a consecutive tweet pair is a trip (Fig. 4 sample size) |
/// | `gravity_gamma` | distance decay of the ground-truth trip kernel |
/// | `pair_noise_sigma` | irreducible per-pair flow noise → imperfect model fits (Table II < 1.0) |
/// | `bias_sigma` | per-place Twitter-adoption noise → Fig. 3 scatter |
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Number of synthetic users (paper: 473,956).
    pub n_users: u32,
    /// Master RNG seed; every run with the same config is bit-identical.
    pub seed: u64,
    /// Power-law exponent of the tweets-per-user distribution
    /// (continuous Pareto with an exponential cutoff at 350 tweets,
    /// floor'd to integers, capped; see `sampling::sample_tweet_count`).
    /// 1.73 solves the paper's mean of 13.3 tweets/user together with
    /// its 180-of-473,956 (0.038 %) share of users over 1,000 tweets; the
    /// law's shares over 50 / 100 / 500 tweets are then 4.9 / 2.6 /
    /// 0.26 % (paper: 4.95 / 2.12 / 0.16 %).
    pub activity_alpha: f64,
    /// Hard cap on tweets per user (the paper's max observed is ~10⁴).
    pub max_tweets_per_user: u32,
    /// Mean fraction of the collection window a user's activity spans
    /// (exponentially distributed, clipped to 1). 0.12 reproduces the
    /// paper's 35.5 h mean waiting time once the ~half of users with a
    /// single tweet (who contribute no gaps) are accounted for.
    pub activity_span_fraction: f64,
    /// Log-normal σ of the mean-one gap mixture (≈ 2.0 spans 4+ decades
    /// per user; pooled across users the span exceeds 8 decades).
    pub waiting_sigma: f64,
    /// Probability that a tweet is preceded by a move to another place.
    pub move_probability: f64,
    /// Probability that a move from *away* returns home rather than
    /// sampling a fresh destination.
    pub return_probability: f64,
    /// Probability that a move uses the far (≥ 100 km, inter-city)
    /// kernel regime rather than the local one. Keeps national-scale OD
    /// matrices populated despite local moves dominating raw counts.
    pub far_move_probability: f64,
    /// Ground-truth gravity exponent γ of the trip kernel.
    pub gravity_gamma: f64,
    /// Ground-truth destination-population exponent of the trip kernel.
    pub gravity_dest_exponent: f64,
    /// Log-normal σ of the frozen per-(origin, destination) flow noise.
    pub pair_noise_sigma: f64,
    /// Log-normal σ of the frozen per-place Twitter-adoption bias.
    pub bias_sigma: f64,
    /// Fraction of tweets relocated uniformly inside the Australia bbox
    /// (GPS glitches, travellers in transit) — fills in the Fig. 1 map.
    pub outback_noise: f64,
    /// Collection window start.
    pub window_start: Timestamp,
    /// Collection window end.
    pub window_end: Timestamp,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            n_users: 20_000,
            seed: 0x7EE7_30B5,
            activity_alpha: 1.73,
            max_tweets_per_user: 20_000,
            activity_span_fraction: 0.12,
            waiting_sigma: 2.0,
            move_probability: 0.18,
            return_probability: 0.6,
            far_move_probability: 0.25,
            gravity_gamma: 2.0,
            gravity_dest_exponent: 1.0,
            pair_noise_sigma: 0.55,
            bias_sigma: 0.45,
            outback_noise: 0.004,
            window_start: Timestamp::COLLECTION_START,
            window_end: Timestamp::COLLECTION_END,
        }
    }
}

impl GeneratorConfig {
    /// A fast preset (~2,000 users) for unit tests and doc examples.
    pub fn small() -> Self {
        Self {
            n_users: 2_000,
            ..Self::default()
        }
    }

    /// The default experiment scale (~20,000 users): every paper
    /// experiment reproduces its qualitative shape at this size in
    /// seconds.
    pub fn medium() -> Self {
        Self::default()
    }

    /// A larger run (~80,000 users) for tighter statistics.
    pub fn large() -> Self {
        Self {
            n_users: 80_000,
            ..Self::default()
        }
    }

    /// The paper's full scale: 473,956 users (minutes of generation,
    /// gigabytes of tweets).
    pub fn paper_scale() -> Self {
        Self {
            n_users: 473_956,
            ..Self::default()
        }
    }

    /// Returns the same config with a different seed (for replicates).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] describing the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n_users == 0 {
            return Err(ConfigError("n_users must be > 0".into()));
        }
        if !(self.activity_alpha > 1.0) {
            return Err(ConfigError(format!(
                "activity_alpha must be > 1 (got {})",
                self.activity_alpha
            )));
        }
        if self.max_tweets_per_user < 1 {
            return Err(ConfigError("max_tweets_per_user must be ≥ 1".into()));
        }
        if !(self.activity_span_fraction > 0.0 && self.activity_span_fraction <= 1.0) {
            return Err(ConfigError(format!(
                "activity_span_fraction must be in (0, 1] (got {})",
                self.activity_span_fraction
            )));
        }
        if !(self.waiting_sigma > 0.0) {
            return Err(ConfigError("waiting_sigma must be > 0".into()));
        }
        for (name, p) in [
            ("move_probability", self.move_probability),
            ("return_probability", self.return_probability),
            ("far_move_probability", self.far_move_probability),
            ("outback_noise", self.outback_noise),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(ConfigError(format!("{name} must be in [0, 1] (got {p})")));
            }
        }
        if !(self.gravity_gamma > 0.0) {
            return Err(ConfigError("gravity_gamma must be > 0".into()));
        }
        if !(self.gravity_dest_exponent > 0.0) {
            return Err(ConfigError("gravity_dest_exponent must be > 0".into()));
        }
        if self.pair_noise_sigma < 0.0 || self.bias_sigma < 0.0 {
            return Err(ConfigError("noise sigmas must be ≥ 0".into()));
        }
        if self.window_end <= self.window_start {
            return Err(ConfigError("window_end must be after window_start".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for cfg in [
            GeneratorConfig::small(),
            GeneratorConfig::medium(),
            GeneratorConfig::large(),
            GeneratorConfig::paper_scale(),
        ] {
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn paper_scale_matches_table_one_user_count() {
        assert_eq!(GeneratorConfig::paper_scale().n_users, 473_956);
    }

    #[test]
    fn with_seed_changes_only_seed() {
        let a = GeneratorConfig::small();
        let b = a.clone().with_seed(99);
        assert_eq!(b.seed, 99);
        assert_eq!(a.n_users, b.n_users);
    }

    #[test]
    fn validation_catches_each_bad_knob() {
        let ok = GeneratorConfig::small();
        let cases: Vec<(&str, GeneratorConfig)> = vec![
            (
                "n_users",
                GeneratorConfig {
                    n_users: 0,
                    ..ok.clone()
                },
            ),
            (
                "alpha",
                GeneratorConfig {
                    activity_alpha: 1.0,
                    ..ok.clone()
                },
            ),
            (
                "max_tweets",
                GeneratorConfig {
                    max_tweets_per_user: 0,
                    ..ok.clone()
                },
            ),
            (
                "span",
                GeneratorConfig {
                    activity_span_fraction: 0.0,
                    ..ok.clone()
                },
            ),
            (
                "span_hi",
                GeneratorConfig {
                    activity_span_fraction: 1.5,
                    ..ok.clone()
                },
            ),
            (
                "sigma",
                GeneratorConfig {
                    waiting_sigma: 0.0,
                    ..ok.clone()
                },
            ),
            (
                "move_p",
                GeneratorConfig {
                    move_probability: 1.5,
                    ..ok.clone()
                },
            ),
            (
                "return_p",
                GeneratorConfig {
                    return_probability: -0.1,
                    ..ok.clone()
                },
            ),
            (
                "gamma",
                GeneratorConfig {
                    gravity_gamma: 0.0,
                    ..ok.clone()
                },
            ),
            (
                "dest_exp",
                GeneratorConfig {
                    gravity_dest_exponent: 0.0,
                    ..ok.clone()
                },
            ),
            (
                "pair_noise",
                GeneratorConfig {
                    pair_noise_sigma: -1.0,
                    ..ok.clone()
                },
            ),
            (
                "window",
                GeneratorConfig {
                    window_end: ok.window_start,
                    ..ok.clone()
                },
            ),
        ];
        for (label, cfg) in cases {
            assert!(cfg.validate().is_err(), "{label} should fail validation");
        }
    }
}
