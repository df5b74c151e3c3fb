//! Temporal responsiveness (DESIGN.md experiment E12).
//!
//! The paper's whole motivation is *timeliness*: censuses lag by years,
//! while tweets arrive continuously, so a Twitter-based estimate could
//! react to an outbreak "in an emergent situation". That only matters if
//! a *short* window of tweets already carries the population signal.
//! This module splits the collection period into equal windows, repeats
//! the Fig. 3 population estimation inside each, and reports (a) how well
//! each window alone correlates with census and (b) how stable the
//! window estimates are against the full-period estimate.

use crate::areaset::Scale;
use crate::experiment::{Experiment, ExperimentError};
use crate::population::population_from_counts;
use crate::scan::scan;
use tweetmob_data::{Timestamp, TweetDataset};
use tweetmob_stats::correlation::{log_pearson, Correlation};
use tweetmob_stats::distributions::ks_two_sample;

/// Population estimation inside one time window.
#[derive(Debug, Clone)]
pub struct WindowResult {
    /// Window start (inclusive).
    pub start: Timestamp,
    /// Window end (inclusive).
    pub end: Timestamp,
    /// Tweets inside the window.
    pub n_tweets: usize,
    /// Unique users inside the window.
    pub n_users: usize,
    /// Correlation of the window's rescaled estimates vs census.
    pub vs_census: Correlation,
    /// Correlation of the window's user counts vs the full-period
    /// counts — the stability of the estimator over time.
    pub vs_full_period: Correlation,
}

/// The full temporal-stability result.
#[derive(Debug, Clone)]
pub struct TemporalStability {
    /// Scale analysed.
    pub scale: &'static str,
    /// Per-window results, chronological.
    pub windows: Vec<WindowResult>,
}

impl TemporalStability {
    /// The lowest per-window census correlation — the worst case for a
    /// "one window is enough" claim.
    pub fn worst_census_r(&self) -> f64 {
        self.windows
            .iter()
            .map(|w| w.vs_census.r)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Two-sample KS test of waiting-time stationarity: compares the
/// inter-tweet gap distribution of the first and second halves of the
/// collection window. A small KS statistic means the tweeting dynamics
/// the paper characterises in Fig. 2(b) are stable over the collection
/// period — a prerequisite for treating any sub-window as
/// representative.
///
/// Each user contributes at most 32 gaps per half. Without the cap a
/// single hyper-active account (tens of thousands of sub-minute gaps,
/// all landing in whichever half its activity burst occupies) dominates
/// the pooled sample, and the test measures *which half holds the
/// whales* instead of whether the population's dynamics drift.
///
/// Returns `(ks_statistic, p_value)`.
///
/// # Errors
///
/// [`ExperimentError::Stats`] when either half has no waiting times.
pub fn waiting_time_stationarity(dataset: &TweetDataset) -> Result<(f64, f64), ExperimentError> {
    const MAX_GAPS_PER_USER: usize = 32;
    let (mut t_min, mut t_max) = (i64::MAX, i64::MIN);
    for t in dataset.times() {
        t_min = t_min.min(t.as_secs());
        t_max = t_max.max(t.as_secs());
    }
    let mid = Timestamp::from_secs(t_min + (t_max - t_min) / 2);
    let first = dataset.filter_time_range(Timestamp::from_secs(t_min), mid);
    let second = dataset.filter_time_range(mid.plus_secs(1), Timestamp::from_secs(t_max));
    let capped_gaps = |ds: &TweetDataset| -> Vec<f64> {
        let mut out = Vec::new();
        for view in ds.iter_users() {
            for w in view.times.windows(2).take(MAX_GAPS_PER_USER) {
                out.push(w[1].seconds_since(w[0]) as f64);
            }
        }
        out
    };
    let a = capped_gaps(&first);
    let b = capped_gaps(&second);
    Ok(ks_two_sample(&a, &b)?)
}

/// Splits the dataset's observed time span into `n_windows` equal
/// windows and repeats the population estimation at `scale` inside each,
/// against the full-period counts of the experiment's scan of `scale`.
///
/// # Errors
///
/// [`ExperimentError::Stats`] when a window is too empty to correlate;
/// windows are all-or-nothing so the result is rectangular.
///
/// # Panics
///
/// If `n_windows == 0` or the dataset is empty.
pub fn temporal_stability(
    experiment: &Experiment<'_>,
    scale: Scale,
    n_windows: usize,
) -> Result<TemporalStability, ExperimentError> {
    let dataset = experiment.dataset();
    assert!(n_windows > 0, "need at least one window");
    assert!(!dataset.is_empty(), "dataset is empty");
    let (mut t_min, mut t_max) = (i64::MAX, i64::MIN);
    for t in dataset.times() {
        t_min = t_min.min(t.as_secs());
        t_max = t_max.max(t.as_secs());
    }
    // Window `k` starts `span · k / n_windows` seconds after `t_min`,
    // computed in `i128` so that no corpus or window count overflows it.
    let span = (i128::from(t_max) - i128::from(t_min)).max(1);
    let start_of = |k: usize| {
        let start = i128::from(t_min) + span * k as i128 / n_windows as i128;
        Timestamp::from_secs(i64::try_from(start).unwrap_or(i64::MAX))
    };

    // Full-period reference counts.
    let full = experiment.scanned(scale, scale.search_radius_km());
    let full_counts: Vec<f64> = full.scan.users.iter().map(|&u| u as f64).collect();

    let mut windows = Vec::with_capacity(n_windows);
    for k in 0..n_windows {
        let start = start_of(k);
        let end = if k + 1 == n_windows {
            Timestamp::from_secs(t_max)
        } else {
            start_of(k + 1).plus_secs(-1)
        };
        let slice = dataset.filter_time_range(start, end);
        let pop = population_from_counts(&full.areas, &scan(&slice, &full.areas).users)?;
        let counts: Vec<f64> = pop.areas.iter().map(|a| a.twitter_users as f64).collect();
        let vs_full = log_pearson(&counts, &full_counts)?;
        windows.push(WindowResult {
            start,
            end,
            n_tweets: slice.n_tweets(),
            n_users: slice.n_users(),
            vs_census: pop.correlation,
            vs_full_period: vs_full,
        });
    }
    Ok(TemporalStability {
        scale: scale.name(),
        windows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use tweetmob_data::{Tweet, UserId};
    use tweetmob_synth::{GeneratorConfig, TweetGenerator};

    fn medium() -> &'static TweetDataset {
        static DS: OnceLock<TweetDataset> = OnceLock::new();
        DS.get_or_init(|| TweetGenerator::new(GeneratorConfig::default()).generate())
    }

    #[test]
    fn monthly_windows_carry_the_population_signal() {
        // 8 windows ≈ the paper's 8 collection months. Every single
        // month must already correlate strongly with census at the
        // national scale — this is the "responsive estimation" claim.
        let stability = temporal_stability(&Experiment::new(medium()), Scale::National, 8).unwrap();
        assert_eq!(stability.windows.len(), 8);
        for w in &stability.windows {
            assert!(w.n_tweets > 0, "empty window");
            assert!(
                w.vs_census.r > 0.6,
                "window starting {} has census r = {}",
                w.start,
                w.vs_census.r
            );
            assert!(
                w.vs_full_period.r > 0.9,
                "window starting {} unstable: r = {}",
                w.start,
                w.vs_full_period.r
            );
        }
        assert!(stability.worst_census_r() > 0.6);
    }

    #[test]
    fn windows_partition_the_span() {
        let stability = temporal_stability(&Experiment::new(medium()), Scale::National, 4).unwrap();
        let total: usize = stability.windows.iter().map(|w| w.n_tweets).sum();
        assert_eq!(total, medium().n_tweets());
        // Chronological and non-overlapping.
        for pair in stability.windows.windows(2) {
            assert!(pair[0].end < pair[1].start);
        }
    }

    #[test]
    fn single_window_equals_full_period() {
        let stability = temporal_stability(&Experiment::new(medium()), Scale::National, 1).unwrap();
        let w = &stability.windows[0];
        assert_eq!(w.n_tweets, medium().n_tweets());
        // Perfect self-correlation.
        assert!((w.vs_full_period.r - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "need at least one window")]
    fn zero_windows_panics() {
        let _ = temporal_stability(&Experiment::new(medium()), Scale::National, 0);
    }

    #[test]
    fn windows_of_extreme_times_do_not_overflow() {
        // Neither reader loads these times, but a dataset built in memory
        // can hold them: the span, 1.8e19 s, does not fit in an `i64`.
        let sydney = tweetmob_geo::Point::new_unchecked(-33.87, 151.21);
        let at = |secs: i64| Tweet::new(UserId(1), Timestamp::from_secs(secs), sydney);
        let ds = TweetDataset::from_tweets(vec![
            at(-9_000_000_000_000_000_000),
            at(9_000_000_000_000_000_000),
        ]);
        // The windows between the two tweets are empty, so no window
        // yields a correlation; the split itself must not overflow.
        let got = temporal_stability(&Experiment::new(&ds), Scale::National, 8);
        assert!(matches!(got, Err(ExperimentError::Stats(_))), "{got:?}");
    }

    #[test]
    fn waiting_times_are_stationary_across_halves() {
        // The generator has no drift; the two halves' gap distributions
        // must be statistically close (gaps within a half are shorter on
        // average than full-stream gaps, but identically so in both).
        let (ks, _p) = waiting_time_stationarity(medium()).unwrap();
        assert!(ks < 0.05, "ks = {ks}");
    }
}
