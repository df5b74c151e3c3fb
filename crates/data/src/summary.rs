//! Dataset summary statistics — the paper's Table I.

use crate::dataset::TweetDataset;
use crate::time::SECS_PER_HOUR;
use std::fmt;
use tweetmob_obs::{Json, ToJson};

/// Grain of Table I's distinct locations, degrees (~100 m): a user
/// tweeting from the same venue counts one location, which raw float
/// equality would miss.
const LOCATION_GRAIN_DEG: f64 = 1e-3;

/// Counts of "enthusiast" users by activity threshold (paper §II: "the
/// numbers of users with more than 50, 100, 500, 1000 Tweets being 23462,
/// 10031, 766 and 180 respectively").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActivityBuckets {
    /// Users with more than 50 tweets.
    pub over_50: usize,
    /// Users with more than 100 tweets.
    pub over_100: usize,
    /// Users with more than 500 tweets.
    pub over_500: usize,
    /// Users with more than 1000 tweets.
    pub over_1000: usize,
}

/// The row of the paper's Table I, computed from a dataset.
#[derive(Debug, Clone)]
pub struct DatasetSummary {
    /// `[min, max]` longitude over all tweets (NaN pair when empty).
    pub lon_range: (f64, f64),
    /// `[min, max]` latitude over all tweets (NaN pair when empty).
    pub lat_range: (f64, f64),
    /// `[first, last]` tweet timestamps as epoch seconds (0 when empty).
    pub time_range_secs: (i64, i64),
    /// Total tweets.
    pub n_tweets: usize,
    /// Distinct users.
    pub n_users: usize,
    /// Mean tweets per user (paper: 13.3).
    pub avg_tweets_per_user: f64,
    /// Mean waiting time between a user's consecutive tweets, hours
    /// (paper: 35.5 h). NaN when no user has two tweets.
    pub avg_waiting_time_hours: f64,
    /// Mean distinct locations per user at 1e-3° (~100 m) grain
    /// (paper: 4.76).
    pub avg_locations_per_user: f64,
    /// Enthusiast-user counts.
    pub activity: ActivityBuckets,
}

impl DatasetSummary {
    /// Computes every Table-I statistic: one pass over each coordinate
    /// column, and one walk over the users for the time range, activity,
    /// waiting time and distinct locations.
    pub fn of(ds: &TweetDataset) -> Self {
        let (mut lon_min, mut lon_max) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut lat_min, mut lat_max) = (f64::INFINITY, f64::NEG_INFINITY);
        // Columnwise min/max: two flat f64 scans instead of a point walk.
        for &lon in ds.lons() {
            lon_min = lon_min.min(lon);
            lon_max = lon_max.max(lon);
        }
        for &lat in ds.lats() {
            lat_min = lat_min.min(lat);
            lat_max = lat_max.max(lat);
        }
        let (lon_range, lat_range) = if ds.is_empty() {
            ((f64::NAN, f64::NAN), (f64::NAN, f64::NAN))
        } else {
            ((lon_min, lon_max), (lat_min, lat_max))
        };

        // Each user's times are sorted, so their first and last bound the
        // time range, and the user's waiting times telescope to `last −
        // first`. The sum runs in `i128`, which no dataset can overflow.
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        let mut waited = 0i128;
        let mut activity = ActivityBuckets {
            over_50: 0,
            over_100: 0,
            over_500: 0,
            over_1000: 0,
        };
        // One buffer reused across users: sort and dedup count each
        // user's distinct cells without a per-tweet allocation or any
        // hash order. The total is an exact integer, so the mean does
        // not depend on the order users are summed in.
        let mut cells: Vec<(i64, i64)> = Vec::new();
        let mut locations = 0u64;
        for view in ds.iter_users() {
            cells.clear();
            cells.extend(view.lats.iter().zip(view.lons.iter()).map(|(&lat, &lon)| {
                (
                    (lat / LOCATION_GRAIN_DEG).round() as i64,
                    (lon / LOCATION_GRAIN_DEG).round() as i64,
                )
            }));
            cells.sort_unstable();
            cells.dedup();
            locations += cells.len() as u64;
            let (Some(first), Some(last)) = (view.times.first(), view.times.last()) else {
                continue;
            };
            lo = lo.min(first.as_secs());
            hi = hi.max(last.as_secs());
            waited += i128::from(last.as_secs()) - i128::from(first.as_secs());
            let n = view.times.len();
            activity.over_50 += usize::from(n > 50);
            activity.over_100 += usize::from(n > 100);
            activity.over_500 += usize::from(n > 500);
            activity.over_1000 += usize::from(n > 1000);
        }
        let time_range_secs = if ds.is_empty() { (0, 0) } else { (lo, hi) };
        let avg_tweets_per_user = if ds.n_users() > 0 {
            ds.n_tweets() as f64 / ds.n_users() as f64
        } else {
            f64::NAN
        };
        // Every user has a tweet, so each has one wait fewer than tweets.
        // Below 2⁵³ s in total (paper scale is about 7e11 s) the mean is
        // the one a sum of the individual waits gives, to the bit.
        let waits = ds.n_tweets() - ds.n_users();
        let avg_waiting_time_hours = if waits == 0 {
            f64::NAN
        } else {
            waited as f64 / (waits as f64 * SECS_PER_HOUR as f64)
        };
        let avg_locations_per_user = if ds.n_users() == 0 {
            f64::NAN
        } else {
            locations as f64 / ds.n_users() as f64
        };

        Self {
            lon_range,
            lat_range,
            time_range_secs,
            n_tweets: ds.n_tweets(),
            n_users: ds.n_users(),
            avg_tweets_per_user,
            avg_waiting_time_hours,
            avg_locations_per_user,
            activity,
        }
    }
}

impl fmt::Display for DatasetSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Range of longitude : [{:.6}, {:.6}]",
            self.lon_range.0, self.lon_range.1
        )?;
        writeln!(
            f,
            "Range of latitude  : [{:.6}, {:.6}]",
            self.lat_range.0, self.lat_range.1
        )?;
        writeln!(
            f,
            "Collection period  : {} .. {} (epoch s)",
            self.time_range_secs.0, self.time_range_secs.1
        )?;
        writeln!(f, "No. Tweets         : {}", self.n_tweets)?;
        writeln!(f, "No. unique users   : {}", self.n_users)?;
        writeln!(f, "Avg. Tweets/user   : {:.1}", self.avg_tweets_per_user)?;
        writeln!(
            f,
            "Avg. waiting time  : {:.1} h",
            self.avg_waiting_time_hours
        )?;
        writeln!(f, "Avg. locations/user: {:.2}", self.avg_locations_per_user)?;
        write!(
            f,
            "Users with >50/>100/>500/>1000 tweets: {}/{}/{}/{}",
            self.activity.over_50,
            self.activity.over_100,
            self.activity.over_500,
            self.activity.over_1000
        )
    }
}

/// The `summary` object of `tweetmob export`; ranges are `[min, max]`
/// arrays and NaN statistics are `null`.
impl ToJson for DatasetSummary {
    fn to_json(&self) -> Json {
        let pair = |lo: Json, hi: Json| Json::Arr(vec![lo, hi]);
        let a = &self.activity;
        Json::obj([
            (
                "lon_range",
                pair(self.lon_range.0.into(), self.lon_range.1.into()),
            ),
            (
                "lat_range",
                pair(self.lat_range.0.into(), self.lat_range.1.into()),
            ),
            (
                "time_range_secs",
                pair(self.time_range_secs.0.into(), self.time_range_secs.1.into()),
            ),
            ("n_tweets", self.n_tweets.into()),
            ("n_users", self.n_users.into()),
            ("avg_tweets_per_user", self.avg_tweets_per_user.into()),
            ("avg_waiting_time_hours", self.avg_waiting_time_hours.into()),
            ("avg_locations_per_user", self.avg_locations_per_user.into()),
            (
                "activity",
                Json::obj([
                    ("over_50", a.over_50.into()),
                    ("over_100", a.over_100.into()),
                    ("over_500", a.over_500.into()),
                    ("over_1000", a.over_1000.into()),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;
    use crate::tweet::{Tweet, UserId};
    use tweetmob_geo::Point;

    fn t(user: u32, secs: i64, lat: f64, lon: f64) -> Tweet {
        Tweet::new(
            UserId(user),
            Timestamp::from_secs(secs),
            Point::new_unchecked(lat, lon),
        )
    }

    #[test]
    fn summary_of_small_dataset() {
        let ds = TweetDataset::from_tweets(vec![
            t(1, 0, -33.0, 151.0),
            t(1, 7_200, -34.0, 152.0), // 2 h wait
            t(2, 100, -37.0, 145.0),
        ]);
        let s = DatasetSummary::of(&ds);
        assert_eq!(s.n_tweets, 3);
        assert_eq!(s.n_users, 2);
        assert_eq!(s.lon_range, (145.0, 152.0));
        assert_eq!(s.lat_range, (-37.0, -33.0));
        assert_eq!(s.time_range_secs, (0, 7_200));
        assert!((s.avg_tweets_per_user - 1.5).abs() < 1e-12);
        assert!((s.avg_waiting_time_hours - 2.0).abs() < 1e-12);
        // User 1: two distinct locations; user 2: one → mean 1.5.
        assert!((s.avg_locations_per_user - 1.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_locations_are_quantised() {
        let ds = TweetDataset::from_tweets(vec![
            t(1, 0, -33.90001, 151.20001), // same venue as next within 1e-3°
            t(1, 10, -33.90002, 151.20003),
            t(1, 20, -30.0, 140.0), // clearly different
            t(2, 0, -33.90001, 151.20001),
        ]);
        // User 1: two cells; user 2: one → mean 1.5.
        assert_eq!(DatasetSummary::of(&ds).avg_locations_per_user, 1.5);
    }

    #[test]
    fn activity_buckets_thresholds_are_strict() {
        let mut tweets = Vec::new();
        // User 1: exactly 50 tweets (NOT >50); user 2: 51; user 3: 1001.
        for i in 0..50 {
            tweets.push(t(1, i, -33.0, 151.0));
        }
        for i in 0..51 {
            tweets.push(t(2, i, -33.0, 151.0));
        }
        for i in 0..1001 {
            tweets.push(t(3, i, -33.0, 151.0));
        }
        let s = DatasetSummary::of(&TweetDataset::from_tweets(tweets));
        assert_eq!(s.activity.over_50, 2); // users 2 and 3
        assert_eq!(s.activity.over_100, 1); // user 3
        assert_eq!(s.activity.over_500, 1);
        assert_eq!(s.activity.over_1000, 1);
    }

    #[test]
    fn empty_dataset_summary_is_nan_not_panic() {
        let s = DatasetSummary::of(&TweetDataset::from_tweets(Vec::new()));
        assert_eq!(s.n_tweets, 0);
        assert!(s.avg_tweets_per_user.is_nan());
        assert!(s.avg_waiting_time_hours.is_nan());
        assert!(s.avg_locations_per_user.is_nan());
        assert!(s.lon_range.0.is_nan());
    }

    #[test]
    fn single_tweet_users_have_nan_waiting_time() {
        let ds = TweetDataset::from_tweets(vec![t(1, 0, -33.0, 151.0), t(2, 5, -34.0, 150.0)]);
        let s = DatasetSummary::of(&ds);
        assert!(s.avg_waiting_time_hours.is_nan());
    }

    #[test]
    fn waiting_time_is_the_mean_of_the_individual_waits() {
        use tweetmob_stats::rng::SplitMix64;
        for seed in 0..32 {
            let mut rng = SplitMix64::new(seed);
            let tweets: Vec<Tweet> = (0..1 + rng.next_below(400))
                .map(|_| {
                    let user = rng.next_below(40) as u32;
                    t(user, rng.next_below(30_000_000) as i64, -33.0, 151.0)
                })
                .collect();
            let ds = TweetDataset::from_tweets(tweets);
            let waits = ds.waiting_times_secs();
            let s = DatasetSummary::of(&ds);
            if waits.is_empty() {
                assert!(s.avg_waiting_time_hours.is_nan(), "seed {seed}");
                continue;
            }
            let want = waits.iter().map(|&w| w as f64).sum::<f64>()
                / (waits.len() as f64 * SECS_PER_HOUR as f64);
            assert_eq!(
                s.avg_waiting_time_hours.to_bits(),
                want.to_bits(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn extreme_times_do_not_overflow_the_waiting_time() {
        // Neither reader accepts these times, but a dataset built in
        // memory can hold them; the total wait is about 1.8e19 s.
        let ds = TweetDataset::from_tweets(vec![
            t(1, -9_000_000_000_000_000_000, -33.0, 151.0),
            t(1, 9_000_000_000_000_000_000, -33.0, 151.0),
        ]);
        let s = DatasetSummary::of(&ds);
        assert_eq!(s.avg_waiting_time_hours, 1.8e19 / 3_600.0);
    }

    #[test]
    fn display_contains_headline_numbers() {
        let ds = TweetDataset::from_tweets(vec![t(1, 0, -33.0, 151.0), t(1, 3_600, -33.0, 151.0)]);
        let text = DatasetSummary::of(&ds).to_string();
        assert!(text.contains("No. Tweets         : 2"));
        assert!(text.contains("Avg. waiting time  : 1.0 h"));
    }
}
