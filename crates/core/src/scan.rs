//! The one columnar pass behind population and trips.
//!
//! Population (§III: distinct users with a tweet within ε of an area)
//! and mobility (§IV: consecutive same-user tweets joining two areas)
//! are both walks over each user's time-ordered tweets, so one scan
//! produces both. Users are sharded by CSR index range, and most tweets
//! cost one or two cell-table loads and one counter increment. The
//! point's *slot* (`a + 1` for its nearest area `a`, `0` for none)
//! indexes a table of consecutive-slot pairs, from which the OD matrix
//! and the data funnel are read once per chunk. It also sets a bit in
//! the user's covered set, one `u64` kept in a register (an area set
//! holds at most 63 areas, so slots `0..=63` fit), from which the
//! distinct-user counts are read once per user. Only a point in a mixed
//! sub-cell of the cell table runs the exact haversine path; the scan
//! counts those tweets, and `AreaScan::publish` reports the count as
//! `scan/exact_path_tweets`.
//!
//! Every scan runs under one `scan` span and no other span wraps one, so
//! that span's call count is the number of corpus scans a run made.

use crate::areaset::AreaSet;
use crate::odmatrix::OdMatrix;
use std::fmt;
use tweetmob_data::TweetDataset;

/// Where one dataset's tweets and consecutive pairs go at one area set:
/// the per-run data funnel of the population and trips stages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataFunnel {
    /// Tweets scanned.
    pub tweets: u64,
    /// Tweets within ε of at least one area.
    pub tweets_in_area: u64,
    /// Consecutive same-user pairs whose endpoints resolve to the same
    /// area.
    pub same_area: u64,
    /// Consecutive same-user pairs with an endpoint in no area.
    pub unassigned: u64,
    /// Consecutive same-user pairs joining two different areas: the OD
    /// matrix total.
    pub trips: u64,
}

impl DataFunnel {
    /// All consecutive same-user pairs.
    #[must_use]
    pub fn pairs(&self) -> u64 {
        self.same_area + self.unassigned + self.trips
    }

    fn merge(&mut self, other: DataFunnel) {
        self.tweets += other.tweets;
        self.tweets_in_area += other.tweets_in_area;
        self.same_area += other.same_area;
        self.unassigned += other.unassigned;
        self.trips += other.trips;
    }
}

impl fmt::Display for DataFunnel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let share = |n: u64, of: u64| 100.0 * n as f64 / of.max(1) as f64;
        let pairs = self.pairs();
        write!(
            f,
            "{} of {} tweets in ≥1 area ({:.1}%); {} pairs: {} same-area ({:.1}%) / {} unassigned ({:.1}%) / {} trips ({:.1}%)",
            self.tweets_in_area,
            self.tweets,
            share(self.tweets_in_area, self.tweets),
            pairs,
            self.same_area,
            share(self.same_area, pairs),
            self.unassigned,
            share(self.unassigned, pairs),
            self.trips,
            share(self.trips, pairs),
        )
    }
}

/// Everything one scan of a dataset over an area set produces.
#[derive(Debug, Clone)]
pub(crate) struct AreaScan {
    /// The directed OD matrix of consecutive-pair trips.
    pub(crate) od: OdMatrix,
    /// Distinct users with a tweet within ε of each area, in area order.
    pub(crate) users: Vec<u64>,
    /// Tweet and pair tallies.
    pub(crate) funnel: DataFunnel,
    /// Tweets that took the exact haversine path of `AreaSet::slot`.
    pub(crate) exact_path_tweets: u64,
}

impl AreaScan {
    /// Publishes the funnel, and the tweets that took the exact path, to
    /// the global metrics registry. Callers do this once per fit, so the
    /// counters' per-run deltas are the run's funnel.
    pub(crate) fn publish(&self) {
        let _span = tweetmob_obs::span!("trips");
        tweetmob_obs::counter!("trips/extracted").add(self.funnel.trips);
        tweetmob_obs::counter!("trips/dropped_same_area").add(self.funnel.same_area);
        tweetmob_obs::counter!("trips/dropped_unassigned").add(self.funnel.unassigned);
        tweetmob_obs::counter!("trips/tweets_in_area").add(self.funnel.tweets_in_area);
        tweetmob_obs::counter!("scan/exact_path_tweets").add(self.exact_path_tweets);
    }

    /// Reads a chunk's results off its pair table and per-slot user
    /// counts (slot `0`, no area, is dropped). Each tweet sits in
    /// exactly one cell; the cells of row `n+1` are first tweets, and
    /// every other cell is a consecutive pair:
    /// - `1..=n` to a different `1..=n` slot is a trip;
    /// - the diagonal of `1..=n` is a same-area pair;
    /// - row `0` and column `0` are unassigned pairs.
    fn from_pairs(n: usize, pairs: &[u64], slot_users: &[u64], exact_path_tweets: u64) -> Self {
        let mut od = OdMatrix::new(n);
        let mut funnel = DataFunnel::default();
        for (prev, row) in pairs.chunks_exact(n + 1).enumerate() {
            funnel.tweets += row.iter().sum::<u64>();
            funnel.tweets_in_area += row[1..].iter().sum::<u64>();
            if prev > n {
                continue;
            }
            for (slot, &count) in row.iter().enumerate() {
                match (prev, slot) {
                    (0, _) | (_, 0) => funnel.unassigned += count,
                    (a, b) if a == b => funnel.same_area += count,
                    (a, b) => {
                        od.add(a - 1, b - 1, count);
                        funnel.trips += count;
                    }
                }
            }
        }
        Self {
            od,
            users: slot_users[1..].to_vec(),
            funnel,
            exact_path_tweets,
        }
    }
}

/// Scans `dataset` over `areas` once, under the `scan` span, publishing
/// nothing but the `par/scan/*` pool-shape gauges.
///
/// Each chunk of users counts `pairs[prev · (n+1) + slot]` in one
/// `(n+2) × (n+1)` table, where row `n+1` stands for "no previous
/// tweet", so a tweet is one increment whatever its pair is, and keeps
/// one covered set that is flushed into per-slot user counts at the end
/// of each user, so a user is counted at most once per area.
/// Every output is an integer sum over disjoint user ranges, so the
/// result is identical at every thread count.
pub(crate) fn scan(dataset: &TweetDataset, areas: &AreaSet) -> AreaScan {
    let _span = tweetmob_obs::span!("scan");
    let n = areas.len();
    let stride = n + 1;
    tweetmob_par::par_map_reduce(
        "scan",
        dataset.n_users(),
        64,
        |range| {
            let mut pairs = vec![0u64; (n + 2) * stride];
            let mut slot_users = vec![0u64; stride];
            let mut exact_path = 0;
            for i in range {
                let view = dataset.user_view(i);
                let mut prev = n + 1;
                let mut covered = 0u64;
                for (&lat, &lon) in view.lats.iter().zip(view.lons) {
                    let slot = areas.slot(lat, lon, &mut covered, &mut exact_path);
                    pairs[prev * stride + slot] += 1;
                    prev = slot;
                }
                while covered != 0 {
                    slot_users[covered.trailing_zeros() as usize] += 1;
                    covered &= covered - 1;
                }
            }
            AreaScan::from_pairs(n, &pairs, &slot_users, exact_path)
        },
        |mut acc, chunk| {
            acc.od.merge(&chunk.od);
            for (a, b) in acc.users.iter_mut().zip(&chunk.users) {
                *a += b;
            }
            acc.funnel.merge(chunk.funnel);
            acc.exact_path_tweets += chunk.exact_path_tweets;
            acc
        },
    )
}

/// The data funnel of `dataset` at `areas`: one scan, no counters
/// published (the `tweetmob summary` view of every scale).
#[must_use]
pub fn data_funnel(dataset: &TweetDataset, areas: &AreaSet) -> DataFunnel {
    scan(dataset, areas).funnel
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::areaset::{tests::table_probe_points, Scale};
    use crate::population::tests::population_reference;
    use crate::trips::tests::extract_trips_reference;
    use tweetmob_data::{Timestamp, Tweet, UserId};
    use tweetmob_geo::Point;
    use tweetmob_stats::rng::SplitMix64;
    use tweetmob_synth::Area;

    /// A seeded corpus of up to 3,000 tweets from up to 300 users, drawn
    /// from `probes` (an area set's cell-edge, ring, lens and continent
    /// probe points) plus points outside any cell table's grid.
    fn random_corpus((lats, lons): &(Vec<f64>, Vec<f64>), seed: u64) -> TweetDataset {
        let mut rng = SplitMix64::new(seed);
        let far = [(0.0, 0.0), (-80.0, 30.0), (60.0, -120.0), (-33.9, -30.0)];
        let tweets: Vec<Tweet> = (0..1 + rng.next_below(3_000))
            .map(|k| {
                let (lat, lon) = if rng.next_below(20) == 0 {
                    far[rng.next_below(far.len())]
                } else {
                    let i = rng.next_below(lats.len());
                    (lats[i], lons[i])
                };
                Tweet::new(
                    UserId(u32::try_from(rng.next_below(300)).unwrap()),
                    Timestamp::from_secs(k as i64),
                    Point::new_unchecked(lat, lon),
                )
            })
            .collect();
        TweetDataset::from_tweets(tweets)
    }

    #[test]
    fn scan_matches_the_serial_references_on_random_corpora() {
        let area = |lat, lon| Area {
            name: "area",
            center: Point::new_unchecked(lat, lon),
            population: 1,
        };
        let mut rng = SplitMix64::new(17);
        let many: Vec<Area> = (0..63)
            .map(|_| area(rng.range_f64(-40.0, -15.0), rng.range_f64(115.0, 152.0)))
            .collect();
        let sets = [
            // 63 areas: slot 63 is the covered set's top bit.
            AreaSet::new(many, 120.0),
            // Discs that overlap (Sydney, Wollongong, Newcastle, …).
            AreaSet::of_scale_with_radius(Scale::National, 200.0),
            AreaSet::of_scale(Scale::National),
            AreaSet::of_scale(Scale::Metropolitan),
            // A window across ±180°: the table is one mixed cell.
            AreaSet::new(vec![area(-18.14, 178.44), area(-16.8, 179.98)], 50.0),
        ];
        for (seed, areas) in (0..).zip(&sets) {
            let probes = table_probe_points(areas, seed);
            for k in 0..3 {
                let ds = random_corpus(&probes, 10 * seed + k);
                let (od, funnel) = extract_trips_reference(&ds, areas);
                let users = population_reference(&ds, areas);
                assert!(funnel.tweets_in_area > 0, "set {seed}");
                assert!(seed > 0 || users[62] > 0, "corpus {k}: slot 63 unused");
                let exact = scan(&ds, areas).exact_path_tweets;
                assert!(0 < exact && exact <= funnel.tweets, "set {seed}: {exact}");
                for threads in [1, 3] {
                    let got = tweetmob_par::with_threads(threads, || scan(&ds, areas));
                    let at = format!("set {seed}, corpus {k}, {threads} threads");
                    assert_eq!(got.od, od, "{at}");
                    assert_eq!(got.users, users, "{at}");
                    assert_eq!(got.funnel, funnel, "{at}");
                    assert_eq!(got.exact_path_tweets, exact, "{at}");
                }
            }
        }
    }
}
