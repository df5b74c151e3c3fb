//! Population estimation from unique Twitter users (paper §III, Fig. 3).

use crate::areaset::AreaSet;
use std::fmt;
use tweetmob_obs::{Json, ToJson};
use tweetmob_stats::correlation::{log_pearson, pearson, Correlation};
use tweetmob_stats::StatsError;

/// One area's population estimate.
#[derive(Debug, Clone)]
pub struct AreaPopulation {
    /// Area name.
    pub name: &'static str,
    /// Census population.
    pub census: f64,
    /// Unique Twitter users with at least one tweet within ε of the
    /// centre.
    pub twitter_users: u64,
    /// `C · twitter_users` where `C = Σ census / Σ twitter` over the
    /// scale (the paper's rescaling `C·p_Twitter ≈ p_Census`).
    pub rescaled: f64,
}

/// Population-estimation result for one area set.
#[derive(Debug, Clone)]
pub struct PopulationCorrelation {
    /// Per-area estimates, in area-set order.
    pub areas: Vec<AreaPopulation>,
    /// The rescaling factor `C`.
    pub rescale_factor: f64,
    /// Pearson correlation of log10(rescaled) vs log10(census) — the
    /// paper's log-log Fig. 3 reading.
    pub correlation: Correlation,
    /// Pearson correlation on raw (linear) values, for reference.
    pub correlation_raw: Correlation,
    /// Median unique-user count across the areas (paper §III quotes
    /// 4166 / 743 / 3988 for its scales).
    pub median_users: f64,
}

impl fmt::Display for PopulationCorrelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<18} {:>12} {:>14} {:>14}",
            "area", "census", "twitter users", "rescaled"
        )?;
        for a in &self.areas {
            writeln!(
                f,
                "{:<18} {:>12.0} {:>14} {:>14.0}",
                a.name, a.census, a.twitter_users, a.rescaled
            )?;
        }
        write!(
            f,
            "r(log) = {:.3} (p = {:.2e}), r(raw) = {:.3}, C = {:.1}",
            self.correlation.r,
            self.correlation.p_two_tailed,
            self.correlation_raw.r,
            self.rescale_factor
        )
    }
}

/// A [`Correlation`] as the `{"r", "p_two_tailed", "n"}` object of
/// `tweetmob export`.
#[must_use]
pub fn correlation_json(c: &Correlation) -> Json {
    Json::obj([
        ("r", c.r.into()),
        ("p_two_tailed", c.p_two_tailed.into()),
        ("n", c.n.into()),
    ])
}

/// The per-scale `population` object of `tweetmob export`.
impl ToJson for PopulationCorrelation {
    fn to_json(&self) -> Json {
        let areas = self
            .areas
            .iter()
            .map(|a| {
                Json::obj([
                    ("name", a.name.into()),
                    ("census", a.census.into()),
                    ("twitter_users", a.twitter_users.into()),
                    ("rescaled", a.rescaled.into()),
                ])
            })
            .collect();
        Json::obj([
            ("areas", Json::Arr(areas)),
            ("rescale_factor", self.rescale_factor.into()),
            ("correlation", correlation_json(&self.correlation)),
            ("correlation_raw", correlation_json(&self.correlation_raw)),
            ("median_users", self.median_users.into()),
        ])
    }
}

/// Pooled population correlation over several scales — the paper's
/// headline "60 samples … Pearson correlation coefficient of 0.816 …
/// two-tailed p-value of 2.06×10⁻¹⁵".
#[derive(Debug, Clone)]
pub struct PooledPopulation {
    /// Per-scale results, in input order.
    pub per_scale: Vec<PopulationCorrelation>,
    /// Pooled log-space correlation across all areas of all scales
    /// (each scale rescaled by its own `C` first, as in Fig. 3).
    pub pooled: Correlation,
    /// Pooled raw-value correlation.
    pub pooled_raw: Correlation,
}

impl PooledPopulation {
    /// Pools per-scale results (each already rescaled by its own `C`)
    /// into the paper's 60-sample correlation, keeping them in input
    /// order as [`PooledPopulation::per_scale`].
    ///
    /// # Errors
    ///
    /// Correlation failures on the pooled samples.
    pub fn of(per_scale: Vec<PopulationCorrelation>) -> Result<Self, StatsError> {
        let mut est = Vec::new();
        let mut census = Vec::new();
        for scale in &per_scale {
            for a in &scale.areas {
                est.push(a.rescaled);
                census.push(a.census);
            }
        }
        let pooled = log_pearson(&est, &census)?;
        let pooled_raw = pearson(&est, &census)?;
        Ok(Self {
            per_scale,
            pooled,
            pooled_raw,
        })
    }
}

/// Rescales and correlates per-area distinct-user counts (aligned with
/// `areas`, from a [`crate::scan`]) against census populations, under
/// the `population` span.
///
/// # Errors
///
/// [`StatsError::EmptySample`] when no tweet falls within any study
/// area — the rescaling factor `Σcensus / Σtwitter` is undefined (it
/// used to silently come out NaN and poison every downstream metric).
/// Otherwise propagates correlation failures (e.g. every area had the
/// same user count → zero variance).
pub(crate) fn population_from_counts(
    areas: &AreaSet,
    twitter: &[u64],
) -> Result<PopulationCorrelation, StatsError> {
    let _span = tweetmob_obs::span!("population");
    let census = areas.census_populations();
    let census_total: f64 = census.iter().sum();
    let twitter_total: f64 = twitter.iter().map(|&u| u as f64).sum();
    if twitter_total <= 0.0 {
        return Err(StatsError::EmptySample(
            "no tweets within any study area; rescaling factor undefined",
        ));
    }
    let rescale_factor = census_total / twitter_total;
    let rescaled: Vec<f64> = twitter.iter().map(|&u| u as f64 * rescale_factor).collect();
    let correlation = log_pearson(&rescaled, &census)?;
    let correlation_raw = pearson(&rescaled, &census)?;
    let user_counts: Vec<f64> = twitter.iter().map(|&u| u as f64).collect();
    let median_users = tweetmob_stats::descriptive::median(&user_counts)?;

    let areas_out = areas
        .areas()
        .iter()
        .zip(twitter.iter().zip(&rescaled))
        .map(|(a, (&tw, &rs))| AreaPopulation {
            name: a.name,
            census: a.population as f64,
            twitter_users: tw,
            rescaled: rs,
        })
        .collect();
    Ok(PopulationCorrelation {
        areas: areas_out,
        rescale_factor,
        correlation,
        correlation_raw,
        median_users,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::areaset::Scale;
    use crate::scan::scan;
    use tweetmob_data::{Timestamp, Tweet, TweetDataset, UserId};

    /// One scan of `dataset` over `areas`, rescaled and correlated.
    fn estimate_population(
        dataset: &TweetDataset,
        areas: &AreaSet,
    ) -> Result<PopulationCorrelation, StatsError> {
        population_from_counts(areas, &scan(dataset, areas).users)
    }

    /// Builds a dataset with `users_per_area[i]` distinct users tweeting
    /// at national area `i`'s centre.
    fn dataset_with_users(users_per_area: &[u64]) -> TweetDataset {
        let areas = Scale::National.areas();
        let mut tweets = Vec::new();
        let mut uid = 0u32;
        for (i, &n) in users_per_area.iter().enumerate() {
            for _ in 0..n {
                // Two tweets per user, both at the same centre: unique
                // user counting must not double-count.
                tweets.push(Tweet::new(
                    UserId(uid),
                    Timestamp::from_secs(100),
                    areas[i].center,
                ));
                tweets.push(Tweet::new(
                    UserId(uid),
                    Timestamp::from_secs(200),
                    areas[i].center,
                ));
                uid += 1;
            }
        }
        TweetDataset::from_tweets(tweets)
    }

    #[test]
    fn unique_users_counted_once() {
        // Users proportional to census → perfect correlation, C exact.
        let areas = AreaSet::of_scale(Scale::National);
        let users: Vec<u64> = areas
            .areas()
            .iter()
            .map(|a| (a.population / 10_000).max(1))
            .collect();
        let ds = dataset_with_users(&users);
        let pop = estimate_population(&ds, &areas).unwrap();
        for (a, &want) in pop.areas.iter().zip(&users) {
            assert_eq!(a.twitter_users, want, "{}", a.name);
        }
        assert!(pop.correlation.r > 0.999, "r = {}", pop.correlation.r);
        // C should be close to 10,000 (the construction ratio).
        assert!(
            (pop.rescale_factor - 10_000.0).abs() / 10_000.0 < 0.05,
            "C = {}",
            pop.rescale_factor
        );
    }

    #[test]
    fn rescaled_totals_match_census_total() {
        let areas = AreaSet::of_scale(Scale::National);
        let users: Vec<u64> = (1..=20).map(|i| i * 7).collect();
        let ds = dataset_with_users(&users);
        let pop = estimate_population(&ds, &areas).unwrap();
        let rescaled_total: f64 = pop.areas.iter().map(|a| a.rescaled).sum();
        let census_total: f64 = pop.areas.iter().map(|a| a.census).sum();
        assert!((rescaled_total - census_total).abs() / census_total < 1e-9);
    }

    #[test]
    fn scrambled_users_give_weak_correlation() {
        // Assign user counts inversely to population rank (the census
        // list is descending, so ascending counts anti-align) → negative
        // or weak correlation.
        let users: Vec<u64> = (1..=20).map(|i| i * 50).collect();
        let areas = AreaSet::of_scale(Scale::National);
        let ds = dataset_with_users(&users);
        let pop = estimate_population(&ds, &areas).unwrap();
        assert!(pop.correlation.r < 0.3, "r = {}", pop.correlation.r);
    }

    #[test]
    fn users_outside_radius_not_counted() {
        // One user 60 km from Sydney: outside the 50 km national radius.
        let sydney = Scale::National.areas()[0].center;
        let far = tweetmob_geo::destination(sydney, 90.0, 60.0);
        let mut tweets = vec![Tweet::new(UserId(0), Timestamp::from_secs(1), far)];
        // Give every other area one user so correlation is defined.
        for (user, a) in (2..).zip(Scale::National.areas().iter().skip(1)) {
            tweets.push(Tweet::new(UserId(user), Timestamp::from_secs(1), a.center));
        }
        let ds = TweetDataset::from_tweets(tweets);
        let areas = AreaSet::of_scale(Scale::National);
        let pop = estimate_population(&ds, &areas).unwrap();
        assert_eq!(pop.areas[0].twitter_users, 0, "Sydney should see nobody");
    }

    #[test]
    fn no_hits_is_an_error_not_nan() {
        // Every tweet is in the outback, outside all national areas.
        // Regression: the rescale factor used to come out NaN and poison
        // every downstream metric silently.
        let tweets: Vec<Tweet> = (0..10)
            .map(|u| {
                Tweet::new(
                    UserId(u),
                    Timestamp::from_secs(i64::from(u)),
                    tweetmob_geo::Point::new_unchecked(-25.0, 135.0),
                )
            })
            .collect();
        let ds = TweetDataset::from_tweets(tweets);
        let areas = AreaSet::of_scale(Scale::National);
        let err = estimate_population(&ds, &areas).unwrap_err();
        assert!(matches!(err, StatsError::EmptySample(_)), "got {err:?}");
    }

    #[test]
    fn pooling_concatenates_scales() {
        let areas = AreaSet::of_scale(Scale::National);
        let users: Vec<u64> = areas
            .areas()
            .iter()
            .map(|a| (a.population / 10_000).max(1))
            .collect();
        let ds = dataset_with_users(&users);
        let a = estimate_population(&ds, &areas).unwrap();
        let b = estimate_population(&ds, &areas).unwrap();
        let pooled = PooledPopulation::of(vec![a, b]).unwrap();
        assert_eq!(pooled.per_scale.len(), 2);
        assert_eq!(pooled.pooled.n, 40);
        assert!(pooled.pooled.r > 0.999);
    }

    #[test]
    fn display_shows_table() {
        let areas = AreaSet::of_scale(Scale::National);
        let users: Vec<u64> = (1..=20).collect();
        let ds = dataset_with_users(&users);
        let text = estimate_population(&ds, &areas).unwrap().to_string();
        assert!(text.contains("Sydney"));
        assert!(text.contains("r(log)"));
    }

    /// Whether `p` lies within ε of `area`'s centre, by plain haversine.
    fn covers(areas: &AreaSet, area: usize, p: tweetmob_geo::Point) -> bool {
        tweetmob_geo::haversine_km(areas.areas()[area].center, p) <= areas.radius_km()
    }

    /// Brute-force oracle for the per-area distinct-user counts: every
    /// tweet × every area, `haversine_km(center, p) <= ε`. No degree
    /// window, no cell table and no spatial index.
    pub(crate) fn population_reference(ds: &TweetDataset, areas: &AreaSet) -> Vec<u64> {
        let mut counts = vec![0u64; areas.len()];
        for view in ds.iter_users() {
            for (a, count) in counts.iter_mut().enumerate() {
                *count += u64::from(view.iter_points().any(|p| covers(areas, a, p)));
            }
        }
        counts
    }

    #[test]
    fn scan_matches_brute_force_reference_at_every_scale_and_thread_count() {
        use tweetmob_synth::{GeneratorConfig, TweetGenerator};
        let ds = TweetGenerator::new(GeneratorConfig::default()).generate();
        let sets = [
            AreaSet::of_scale(Scale::National),
            AreaSet::of_scale(Scale::State),
            AreaSet::of_scale(Scale::Metropolitan),
            AreaSet::of_scale_with_radius(Scale::Metropolitan, 0.5),
        ];
        for areas in &sets {
            let in_area = ds
                .iter_points()
                .filter(|&p| (0..areas.len()).any(|a| covers(areas, a, p)))
                .count() as u64;
            let funnel = crate::scan::data_funnel(&ds, areas);
            assert_eq!(funnel.tweets_in_area, in_area, "ε = {}", areas.radius_km());
            let want = population_reference(&ds, areas);
            assert!(
                want.iter().all(|&u| u > 0),
                "ε = {}: {want:?}",
                areas.radius_km()
            );
            for threads in [1, 8] {
                let got = tweetmob_par::with_threads(threads, || {
                    estimate_population(&ds, areas).unwrap()
                });
                let got: Vec<u64> = got.areas.iter().map(|a| a.twitter_users).collect();
                assert_eq!(got, want, "ε = {} at {threads} threads", areas.radius_km());
            }
        }
    }

    #[test]
    fn a_user_in_two_overlapping_discs_counts_in_both() {
        // Sydney (0) and Wollongong (9) are ~65 km apart, so their 50 km
        // national discs overlap; the midpoint lies inside both.
        let areas = AreaSet::of_scale(Scale::National);
        let (syd, wol) = (areas.areas()[0].center, areas.areas()[9].center);
        let mid = tweetmob_geo::Point::new_unchecked(
            (syd.lat + wol.lat) / 2.0,
            (syd.lon + wol.lon) / 2.0,
        );
        assert!(
            areas.radius_km() < areas.distance_km(0, 9),
            "distinct discs"
        );
        let ds = TweetDataset::from_tweets(vec![
            Tweet::new(UserId(1), Timestamp::from_secs(100), mid),
            Tweet::new(UserId(1), Timestamp::from_secs(200), syd),
            Tweet::new(UserId(2), Timestamp::from_secs(100), wol),
        ]);
        let users = scan(&ds, &areas).users;
        assert_eq!(users, population_reference(&ds, &areas));
        assert_eq!((users[0], users[9]), (1, 2), "{users:?}");
        assert_eq!(users.iter().sum::<u64>(), 3);
    }
}
