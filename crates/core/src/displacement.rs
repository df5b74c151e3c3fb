//! Trip-displacement analysis — "more varieties of distance scales".
//!
//! The mobility literature's first diagnostic of any location stream is
//! the distribution of consecutive-position displacements P(Δr)
//! (González et al. 2008 found truncated power laws in phone data;
//! Hawelka et al. 2014 — the paper's ref. [9] — the same in tweets).
//! This module extracts per-user consecutive-tweet displacements,
//! log-bins them, fits the tail exponent, and splits the mass into the
//! paper's three distance regimes (intra-urban / inter-city / continental).

use tweetmob_data::TweetDataset;
use tweetmob_geo::TrigPoint;
use tweetmob_stats::binning::{BinStat, LogBins};
use tweetmob_stats::powerlaw::{fit_alpha, PowerLawFit};
use tweetmob_stats::StatsError;

/// Distance regimes used to summarise the displacement mass.
#[derive(Debug, Clone, Copy)]
pub struct DisplacementShares {
    /// Δr < 5 km: within-venue and intra-suburb moves.
    pub local: f64,
    /// 5 km ≤ Δr < 100 km: intra-metropolitan travel.
    pub metropolitan: f64,
    /// 100 km ≤ Δr < 1,000 km: inter-city (the paper's state scale).
    pub intercity: f64,
    /// Δr ≥ 1,000 km: continental hops (the paper's national scale).
    pub continental: f64,
}

/// The displacement analysis of one dataset.
#[derive(Debug, Clone)]
pub struct DisplacementProfile {
    /// Consecutive-tweet displacements, km (only pairs with Δr > 0).
    pub n_jumps: usize,
    /// Log-binned PDF of displacements.
    pub pdf: Vec<BinStat>,
    /// Power-law tail fit above 1 km (the GPS-jitter floor), if the
    /// sample supports one.
    pub tail: Option<PowerLawFit>,
    /// Mass shares per distance regime.
    pub shares: DisplacementShares,
    /// Median displacement, km.
    pub median_km: f64,
}

/// Extracts all positive consecutive-tweet displacements, per user.
///
/// Each point's trigonometry is hoisted into a [`TrigPoint`] once and
/// reused for both the jump into and out of it — interior points of a
/// user's trace would otherwise pay the degree→radian and cosine work
/// twice. Distances stay bit-identical to per-pair
/// [`haversine_km`](tweetmob_geo::haversine_km).
pub(crate) fn displacements_km(dataset: &TweetDataset) -> Vec<f64> {
    let mut out = Vec::new();
    for view in dataset.iter_users() {
        let mut prev: Option<TrigPoint> = None;
        for p in view.iter_points() {
            let cur = TrigPoint::new(p);
            if let Some(last) = prev {
                let d = last.distance_km(&cur);
                if d > 0.0 {
                    out.push(d);
                }
            }
            prev = Some(cur);
        }
    }
    out
}

/// Runs the full displacement analysis.
///
/// # Errors
///
/// [`StatsError`] when the dataset yields fewer than 10 positive
/// displacements (nothing to profile).
pub fn displacement_profile(dataset: &TweetDataset) -> Result<DisplacementProfile, StatsError> {
    let jumps = displacements_km(dataset);
    if jumps.len() < 10 {
        return Err(StatsError::TooFewSamples {
            needed: 10,
            got: jumps.len(),
        });
    }
    let bins = LogBins::covering(&jumps, 4)?;
    let pdf = bins.pdf(&jumps);
    let tail = fit_alpha(&jumps, 1.0).ok();
    let total = jumps.len() as f64;
    let share =
        |lo: f64, hi: f64| jumps.iter().filter(|&&d| d >= lo && d < hi).count() as f64 / total;
    let shares = DisplacementShares {
        local: share(0.0, 5.0),
        metropolitan: share(5.0, 100.0),
        intercity: share(100.0, 1_000.0),
        continental: share(1_000.0, f64::INFINITY),
    };
    let median_km = tweetmob_stats::descriptive::median(&jumps)?;
    Ok(DisplacementProfile {
        n_jumps: jumps.len(),
        pdf,
        tail,
        shares,
        median_km,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use tweetmob_data::{Timestamp, Tweet, UserId};
    use tweetmob_geo::{destination, Point};
    use tweetmob_synth::{GeneratorConfig, TweetGenerator};

    fn medium() -> &'static TweetDataset {
        static DS: OnceLock<TweetDataset> = OnceLock::new();
        DS.get_or_init(|| TweetGenerator::new(GeneratorConfig::default()).generate())
    }

    #[test]
    fn displacements_are_per_user_consecutive() {
        let base = Point::new_unchecked(-33.0, 151.0);
        let ds = TweetDataset::from_tweets(vec![
            Tweet::new(UserId(1), Timestamp::from_secs(0), base),
            Tweet::new(
                UserId(1),
                Timestamp::from_secs(10),
                destination(base, 90.0, 7.0),
            ),
            // User 2 far away must not create a cross-user jump.
            Tweet::new(
                UserId(2),
                Timestamp::from_secs(5),
                destination(base, 0.0, 500.0),
            ),
        ]);
        let jumps = displacements_km(&ds);
        assert_eq!(jumps.len(), 1);
        assert!((jumps[0] - 7.0).abs() < 0.01);
    }

    #[test]
    fn zero_displacements_are_dropped() {
        let p = Point::new_unchecked(-33.0, 151.0);
        let ds = TweetDataset::from_tweets(vec![
            Tweet::new(UserId(1), Timestamp::from_secs(0), p),
            Tweet::new(UserId(1), Timestamp::from_secs(10), p),
        ]);
        assert!(displacements_km(&ds).is_empty());
    }

    #[test]
    fn profile_of_synthetic_stream_is_multiscale() {
        let profile = displacement_profile(medium()).unwrap();
        assert!(profile.n_jumps > 10_000);
        // Most mass is local (venue jitter + errands)…
        assert!(
            profile.shares.local > 0.5,
            "local share {}",
            profile.shares.local
        );
        // …but all four regimes are populated: the generator produces
        // genuinely multi-scale mobility.
        assert!(profile.shares.metropolitan > 0.01);
        assert!(profile.shares.intercity > 0.005);
        assert!(profile.shares.continental > 0.001);
        let total = profile.shares.local
            + profile.shares.metropolitan
            + profile.shares.intercity
            + profile.shares.continental;
        assert!((total - 1.0).abs() < 1e-9);
        // The tail exists and is heavy (α < 3.5 like every human-mobility
        // study).
        let tail = profile.tail.expect("tail fit");
        assert!(tail.alpha < 3.5, "alpha {}", tail.alpha);
        assert!(profile.median_km < 5.0, "median {}", profile.median_km);
    }

    #[test]
    fn pdf_integrates_to_at_most_one() {
        let profile = displacement_profile(medium()).unwrap();
        let integral: f64 = profile.pdf.iter().map(|b| b.density * (b.hi - b.lo)).sum();
        assert!(integral <= 1.0 + 1e-9);
        assert!(integral > 0.9, "integral {integral}");
    }

    #[test]
    fn too_small_dataset_errors() {
        let p = Point::new_unchecked(-33.0, 151.0);
        let ds = TweetDataset::from_tweets(vec![
            Tweet::new(UserId(1), Timestamp::from_secs(0), p),
            Tweet::new(
                UserId(1),
                Timestamp::from_secs(10),
                destination(p, 90.0, 1.0),
            ),
        ]);
        assert!(displacement_profile(&ds).is_err());
    }
}
