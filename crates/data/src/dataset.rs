//! Columnar tweet storage sorted by `(user, time)`.

use crate::invariants::ColumnCheck;
use crate::time::Timestamp;
use crate::tweet::{Tweet, UserId};
use tweetmob_geo::{BoundingBox, Point};

/// A struct-of-arrays tweet dataset, sorted by `(user, time)`.
///
/// Storage is fully columnar: parallel `times`, `lats`, `lons` columns
/// rather than a `Vec<Tweet>` (or even a `Vec<Point>`), so the dominant
/// access patterns — coordinate scans for density maps, timestamp scans
/// for waiting times, per-user slices for population and trip
/// extraction — each stream through one contiguous `f64`/`i64` array.
/// User offsets form a CSR layout so a user's tweets are one contiguous,
/// time-ordered slice, and a row's user is found through them rather
/// than stored per row; this is also exactly the on-disk
/// layout of the `TWC0` columnar format ([`crate::columnar`]), which is
/// why loading it needs no re-sort and no per-record decode.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TweetDataset {
    times: Vec<Timestamp>,
    lats: Vec<f64>,
    lons: Vec<f64>,
    /// Distinct user ids, ascending; `user_starts[i]..user_starts[i+1]`
    /// are the row indices of `unique_users[i]`.
    unique_users: Vec<UserId>,
    user_starts: Vec<u32>,
}

/// A borrowed view of one user's time-ordered tweets.
#[derive(Debug, Clone, Copy)]
pub struct UserTweets<'a> {
    /// The user the view belongs to.
    pub user: UserId,
    /// Tweet timestamps, ascending.
    pub times: &'a [Timestamp],
    /// Tweet latitudes, parallel to `times`.
    pub lats: &'a [f64],
    /// Tweet longitudes, parallel to `times`.
    pub lons: &'a [f64],
}

impl UserTweets<'_> {
    /// Number of tweets in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the view is empty (never true for views produced by
    /// [`TweetDataset::user_view`]).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The `k`-th tweet location, assembled from the coordinate columns.
    #[inline]
    pub fn point(&self, k: usize) -> Point {
        Point::new_unchecked(self.lats[k], self.lons[k])
    }

    /// Iterates the view's locations in time order.
    pub fn iter_points(&self) -> impl Iterator<Item = Point> + '_ {
        self.lats
            .iter()
            .zip(self.lons.iter())
            .map(|(&lat, &lon)| Point::new_unchecked(lat, lon))
    }
}

impl TweetDataset {
    /// Builds a dataset from unordered tweets.
    ///
    /// Sorting is by `(user, time)` with ties kept in input order
    /// (stable sort), so two tweets with identical timestamps keep a
    /// deterministic relative order.
    pub fn from_tweets(mut tweets: Vec<Tweet>) -> Self {
        tweets.sort_by_key(|t| (t.user, t.time));
        let mut times = Vec::with_capacity(tweets.len());
        let mut lats = Vec::with_capacity(tweets.len());
        let mut lons = Vec::with_capacity(tweets.len());
        let mut unique_users = Vec::new();
        let mut user_starts = Vec::new();
        for (i, t) in tweets.iter().enumerate() {
            if unique_users.last() != Some(&t.user) {
                unique_users.push(t.user);
                user_starts.push(i as u32);
            }
            times.push(t.time);
            lats.push(t.location.lat);
            lons.push(t.location.lon);
        }
        user_starts.push(tweets.len() as u32);
        Self {
            times,
            lats,
            lons,
            unique_users,
            user_starts,
        }
    }

    /// Builds a dataset directly from pre-sorted columns — the zero-parse
    /// constructor behind the `TWC0` columnar reader and the generator's
    /// direct-to-columns path.
    ///
    /// The caller asserts the `(user, time)` sort invariant; this
    /// constructor *verifies* it with cheap columnwise scans instead of
    /// re-sorting, through the same checker the `TWC0` reader feeds one
    /// decoded chunk at a time:
    ///
    /// * all value columns the same length, at most `u32::MAX` rows;
    /// * `user_starts` is a valid CSR over the rows: starts at 0, ends at
    ///   the row count, strictly increasing (every user owns at least one
    ///   row), one more entry than `unique_users`;
    /// * `unique_users` strictly ascending;
    /// * timestamps non-decreasing within each user's slice, and within
    ///   years 1–9999;
    /// * every coordinate finite and in range (same rules as
    ///   [`Point::new`]).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated invariant.
    /// Callers with a file context wrap it into
    /// [`IoError::Format`](crate::io::IoError::Format).
    pub fn from_sorted_columns(
        unique_users: Vec<UserId>,
        user_starts: Vec<u32>,
        times: Vec<Timestamp>,
        lats: Vec<f64>,
        lons: Vec<f64>,
    ) -> Result<Self, String> {
        let mut check = ColumnCheck::new(
            unique_users.len(),
            user_starts.len(),
            times.len(),
            lats.len(),
            lons.len(),
        );
        check.users(&unique_users);
        check.offsets(&user_starts);
        check.times(&times, &user_starts);
        check.lats(&lats);
        check.lons(&lons);
        check.finish(&unique_users)?;
        Ok(Self::from_checked_columns(
            unique_users,
            user_starts,
            times,
            lats,
            lons,
        ))
    }

    /// Assembles columns a [`ColumnCheck`] has passed.
    pub(crate) fn from_checked_columns(
        unique_users: Vec<UserId>,
        user_starts: Vec<u32>,
        times: Vec<Timestamp>,
        lats: Vec<f64>,
        lons: Vec<f64>,
    ) -> Self {
        Self {
            times,
            lats,
            lons,
            unique_users,
            user_starts,
        }
    }

    /// Total number of tweets.
    #[inline]
    pub fn n_tweets(&self) -> usize {
        self.times.len()
    }

    /// Number of distinct users.
    #[inline]
    pub fn n_users(&self) -> usize {
        self.unique_users.len()
    }

    /// Whether the dataset holds no tweets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// All tweet latitudes, in `(user, time)` order.
    #[inline]
    pub fn lats(&self) -> &[f64] {
        &self.lats
    }

    /// All tweet longitudes, in `(user, time)` order.
    #[inline]
    pub fn lons(&self) -> &[f64] {
        &self.lons
    }

    /// The `i`-th tweet location, assembled from the coordinate columns.
    #[inline]
    pub fn point(&self, i: usize) -> Point {
        Point::new_unchecked(self.lats[i], self.lons[i])
    }

    /// Iterates all tweet locations in `(user, time)` order.
    pub fn iter_points(&self) -> impl Iterator<Item = Point> + '_ {
        self.lats
            .iter()
            .zip(self.lons.iter())
            .map(|(&lat, &lon)| Point::new_unchecked(lat, lon))
    }

    /// The CSR user offsets: `user_starts()[i]..user_starts()[i+1]` are
    /// the row indices of `unique_users()[i]`. Always one entry longer
    /// than [`TweetDataset::unique_users`]; last entry equals
    /// [`TweetDataset::n_tweets`].
    #[inline]
    pub fn user_starts(&self) -> &[u32] {
        &self.user_starts
    }

    /// All tweet timestamps, in `(user, time)` order.
    #[inline]
    pub fn times(&self) -> &[Timestamp] {
        &self.times
    }

    /// Distinct users, ascending.
    #[inline]
    pub fn unique_users(&self) -> &[UserId] {
        &self.unique_users
    }

    /// The view of the `i`-th distinct user (index into
    /// [`TweetDataset::unique_users`]).
    ///
    /// # Panics
    ///
    /// If `i >= n_users()`.
    pub fn user_view(&self, i: usize) -> UserTweets<'_> {
        let lo = self.user_starts[i] as usize;
        let hi = self.user_starts[i + 1] as usize;
        UserTweets {
            user: self.unique_users[i],
            times: &self.times[lo..hi],
            lats: &self.lats[lo..hi],
            lons: &self.lons[lo..hi],
        }
    }

    /// Iterates over every user's tweet view, in ascending user order.
    pub fn iter_users(&self) -> impl Iterator<Item = UserTweets<'_>> + '_ {
        (0..self.n_users()).map(move |i| self.user_view(i))
    }

    /// Iterates over every tweet, in `(user, time)` order; each row's
    /// user comes from the CSR index.
    pub fn iter_tweets(&self) -> impl Iterator<Item = Tweet> + '_ {
        self.unique_users
            .iter()
            .zip(self.user_starts.windows(2))
            .flat_map(move |(&user, w)| {
                (w[0] as usize..w[1] as usize).map(move |i| Tweet {
                    user,
                    time: self.times[i],
                    location: self.point(i),
                })
            })
    }

    /// A new dataset containing only tweets inside `bbox` — the paper's
    /// Table I filter ("we use the longitude and latitude ranges to filter
    /// the Tweets of interest"). Users whose every tweet falls outside
    /// disappear entirely.
    pub fn filter_bbox(&self, bbox: &BoundingBox) -> TweetDataset {
        let tweets: Vec<Tweet> = self
            .iter_tweets()
            .filter(|t| bbox.contains(t.location))
            .collect();
        TweetDataset::from_tweets(tweets)
    }

    /// A new dataset containing only tweets with `start <= time <= end`
    /// — the slicing primitive behind the temporal-responsiveness
    /// analysis (can a single month of tweets estimate population?).
    pub fn filter_time_range(&self, start: Timestamp, end: Timestamp) -> TweetDataset {
        let tweets: Vec<Tweet> = self
            .iter_tweets()
            .filter(|t| t.time.within(start, end))
            .collect();
        TweetDataset::from_tweets(tweets)
    }

    /// Number of tweets per user, aligned with [`TweetDataset::unique_users`].
    pub fn tweets_per_user(&self) -> Vec<u32> {
        self.user_starts.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// All waiting times (seconds between consecutive tweets of the same
    /// user), pooled over users. The paper's Fig. 2(b) "DT" sample.
    pub fn waiting_times_secs(&self) -> Vec<i64> {
        let mut out = Vec::new();
        for view in self.iter_users() {
            for w in view.times.windows(2) {
                out.push(w[1].seconds_since(w[0]));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(user: u32, secs: i64, lat: f64, lon: f64) -> Tweet {
        Tweet::new(
            UserId(user),
            Timestamp::from_secs(secs),
            Point::new_unchecked(lat, lon),
        )
    }

    fn sample() -> TweetDataset {
        TweetDataset::from_tweets(vec![
            t(2, 50, -37.8, 145.0),
            t(1, 4_000, -33.8, 151.1),
            t(1, 100, -33.9, 151.2),
            t(3, 10, -31.9, 115.9),
            t(1, 9_000, -33.9, 151.2),
        ])
    }

    #[test]
    fn counts() {
        let ds = sample();
        assert_eq!(ds.n_tweets(), 5);
        assert_eq!(ds.n_users(), 3);
        assert!(!ds.is_empty());
    }

    #[test]
    fn rows_sorted_by_user_then_time() {
        let ds = sample();
        let rows: Vec<(u32, i64)> = ds
            .iter_tweets()
            .map(|tw| (tw.user.0, tw.time.as_secs()))
            .collect();
        assert_eq!(
            rows,
            vec![(1, 100), (1, 4_000), (1, 9_000), (2, 50), (3, 10)]
        );
    }

    #[test]
    fn user_views_are_time_ordered_slices() {
        let ds = sample();
        assert_eq!(ds.unique_users(), &[UserId(1), UserId(2), UserId(3)]);
        let v = ds.user_view(0);
        assert_eq!(v.user, UserId(1));
        assert_eq!(v.len(), 3);
        assert_eq!(v.times[0].as_secs(), 100);
        assert_eq!(v.times[2].as_secs(), 9_000);
        assert_eq!(v.lats[0], -33.9);
        assert_eq!(v.point(0), Point::new_unchecked(-33.9, 151.2));
        assert!(!ds.unique_users().contains(&UserId(99)));
    }

    #[test]
    fn iter_users_covers_everyone_in_order() {
        let ds = sample();
        let ids: Vec<u32> = ds.iter_users().map(|v| v.user.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        let total: usize = ds.iter_users().map(|v| v.len()).sum();
        assert_eq!(total, ds.n_tweets());
    }

    #[test]
    fn coordinate_columns_are_parallel() {
        let ds = sample();
        assert_eq!(ds.lats().len(), ds.n_tweets());
        assert_eq!(ds.lons().len(), ds.n_tweets());
        for (i, p) in ds.iter_points().enumerate() {
            assert_eq!(p.lat.to_bits(), ds.lats()[i].to_bits());
            assert_eq!(p.lon.to_bits(), ds.lons()[i].to_bits());
            assert_eq!(ds.point(i), p);
        }
        assert_eq!(ds.iter_points().count(), ds.n_tweets());
    }

    #[test]
    fn user_starts_form_a_csr_index() {
        let ds = sample();
        let starts = ds.user_starts();
        assert_eq!(starts.len(), ds.n_users() + 1);
        assert_eq!(starts[0], 0);
        assert_eq!(*starts.last().unwrap() as usize, ds.n_tweets());
        assert_eq!(starts, &[0, 3, 4, 5]);
    }

    #[test]
    fn from_sorted_columns_round_trips() {
        let ds = sample();
        let back = TweetDataset::from_sorted_columns(
            ds.unique_users().to_vec(),
            ds.user_starts().to_vec(),
            ds.times().to_vec(),
            ds.lats().to_vec(),
            ds.lons().to_vec(),
        )
        .unwrap();
        assert_eq!(back.unique_users(), ds.unique_users());
        assert_eq!(back.user_starts(), ds.user_starts());
        assert!(ds
            .iter_tweets()
            .zip(back.iter_tweets())
            .all(|(a, b)| a == b));
    }

    #[test]
    fn from_sorted_columns_rejects_bad_shapes() {
        let ts = |secs: &[i64]| -> Vec<Timestamp> {
            secs.iter().copied().map(Timestamp::from_secs).collect()
        };
        // Unsorted users.
        let err = TweetDataset::from_sorted_columns(
            vec![UserId(2), UserId(1)],
            vec![0, 1, 2],
            ts(&[0, 0]),
            vec![0.0, 0.0],
            vec![0.0, 0.0],
        )
        .unwrap_err();
        assert!(err.contains("unsorted"), "{err}");
        // Times decreasing within a user.
        let err = TweetDataset::from_sorted_columns(
            vec![UserId(1)],
            vec![0, 2],
            ts(&[5, 1]),
            vec![0.0, 0.0],
            vec![0.0, 0.0],
        )
        .unwrap_err();
        assert!(err.contains("timestamps"), "{err}");
        // Offsets not covering the rows.
        let err = TweetDataset::from_sorted_columns(
            vec![UserId(1)],
            vec![0, 1],
            ts(&[0, 0]),
            vec![0.0, 0.0],
            vec![0.0, 0.0],
        )
        .unwrap_err();
        assert!(err.contains("end at the row count"), "{err}");
        // Out-of-range latitude.
        let err = TweetDataset::from_sorted_columns(
            vec![UserId(1)],
            vec![0, 1],
            ts(&[0]),
            vec![95.0],
            vec![0.0],
        )
        .unwrap_err();
        assert!(err.contains("latitude"), "{err}");
        // NaN longitude.
        let err = TweetDataset::from_sorted_columns(
            vec![UserId(1)],
            vec![0, 1],
            ts(&[0]),
            vec![0.0],
            vec![f64::NAN],
        )
        .unwrap_err();
        assert!(err.contains("longitude"), "{err}");
        // Column length mismatch.
        let err = TweetDataset::from_sorted_columns(
            vec![UserId(1)],
            vec![0, 1],
            ts(&[0]),
            vec![0.0, 1.0],
            vec![0.0],
        )
        .unwrap_err();
        assert!(err.contains("length mismatch"), "{err}");
    }

    #[test]
    fn from_sorted_columns_empty_is_valid() {
        let ds = TweetDataset::from_sorted_columns(
            Vec::new(),
            vec![0],
            Vec::new(),
            Vec::new(),
            Vec::new(),
        )
        .unwrap();
        assert!(ds.is_empty());
        assert_eq!(ds.n_users(), 0);
    }

    #[test]
    fn tweets_per_user_counts() {
        let ds = sample();
        assert_eq!(ds.tweets_per_user(), vec![3, 1, 1]);
    }

    #[test]
    fn waiting_times_pooled_per_user_only() {
        let ds = sample();
        let mut w = ds.waiting_times_secs();
        w.sort_unstable();
        // Only user 1 has consecutive pairs: 4000-100, 9000-4000.
        assert_eq!(w, vec![3_900, 5_000]);
    }

    #[test]
    fn filter_bbox_drops_outside_tweets_and_users() {
        let ds = sample();
        // Box around Sydney only.
        let sydney_box = BoundingBox::new(-34.5, -33.0, 150.5, 151.5).unwrap();
        let filtered = ds.filter_bbox(&sydney_box);
        assert_eq!(filtered.n_tweets(), 3);
        assert_eq!(filtered.n_users(), 1);
        assert_eq!(filtered.unique_users(), &[UserId(1)]);
    }

    #[test]
    fn filter_time_range_is_inclusive_and_user_aware() {
        let ds = sample();
        let sliced = ds.filter_time_range(Timestamp::from_secs(50), Timestamp::from_secs(4_000));
        // Keeps: u1@100, u1@4000, u2@50; drops u3@10 and u1@9000.
        assert_eq!(sliced.n_tweets(), 3);
        assert_eq!(sliced.n_users(), 2);
        assert_eq!(sliced.unique_users(), &[UserId(1), UserId(2)]);
        // An empty window yields an empty dataset.
        let none =
            ds.filter_time_range(Timestamp::from_secs(100_000), Timestamp::from_secs(200_000));
        assert!(none.is_empty());
    }

    #[test]
    fn empty_dataset_behaves() {
        let ds = TweetDataset::from_tweets(Vec::new());
        assert!(ds.is_empty());
        assert_eq!(ds.n_users(), 0);
        assert!(ds.waiting_times_secs().is_empty());
        assert!(ds.tweets_per_user().is_empty());
        assert_eq!(ds.iter_users().count(), 0);
    }

    #[test]
    fn duplicate_timestamps_are_kept() {
        let ds = TweetDataset::from_tweets(vec![t(1, 100, -33.0, 151.0), t(1, 100, -34.0, 152.0)]);
        assert_eq!(ds.n_tweets(), 2);
        assert_eq!(ds.waiting_times_secs(), vec![0]);
    }
}
