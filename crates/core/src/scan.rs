//! The one columnar pass behind population and trips.
//!
//! Population (§III: distinct users with a tweet within ε of an area)
//! and mobility (§IV: consecutive same-user tweets joining two areas)
//! are both walks over each user's time-ordered tweets, so one scan
//! produces both. Users are sharded by CSR index range; each user's
//! coordinate columns go through [`AreaSet::assign_batch`] once,
//! which yields the nearest-area code per tweet (for the OD matrix and
//! the pair funnel) and every area covering it (for the distinct-user
//! counts).

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
}

impl AreaScan {
    /// Publishes the funnel to the global metrics registry. Callers do
    /// this once per fit, so the counters' per-run deltas are the run's
    /// funnel.
    pub(crate) fn publish(&self) {
        tweetmob_obs::counter!("trips/extracted").add(self.funnel.trips);
        tweetmob_obs::counter!("trips/dropped_same_area").add(self.funnel.same_area);
        tweetmob_obs::counter!("trips/dropped_unassigned").add(self.funnel.unassigned);
        tweetmob_obs::counter!("trips/tweets_in_area").add(self.funnel.tweets_in_area);
    }
}

/// Scans `dataset` over `areas` once, publishing nothing but the
/// `par/<stage>/*` pool-shape gauges.
///
/// Each chunk of users keeps a `last_user_seen[area]` stamp, so a user
/// is counted at most once per area with no hit vector and no sort.
/// Every output is an integer sum over disjoint user ranges, so the
/// result is identical at every thread count.
pub(crate) fn scan(stage: &str, dataset: &TweetDataset, areas: &AreaSet) -> AreaScan {
    let n_areas = areas.len();
    tweetmob_par::par_map_reduce(
        stage,
        dataset.n_users(),
        64,
        |range| {
            let mut out = AreaScan {
                od: OdMatrix::new(n_areas),
                users: vec![0; n_areas],
                funnel: DataFunnel::default(),
            };
            let mut last_user_seen = vec![usize::MAX; n_areas];
            let mut codes: Vec<i32> = Vec::new();
            for i in range {
                let view = dataset.user_view(i);
                codes.clear();
                // Covering calls for one point arrive together, so a
                // change of point index is a new tweet inside an area.
                let mut last_point = usize::MAX;
                areas.assign_batch(view.lats, view.lons, &mut codes, |k, a| {
                    if k != last_point {
                        last_point = k;
                        out.funnel.tweets_in_area += 1;
                    }
                    if last_user_seen[a] != i {
                        last_user_seen[a] = i;
                        out.users[a] += 1;
                    }
                });
                out.funnel.tweets += codes.len() as u64;
                record_codes(&codes, &mut out.od, &mut out.funnel);
            }
            out
        },
        |mut acc, chunk| {
            acc.od.merge(&chunk.od);
            for (a, b) in acc.users.iter_mut().zip(&chunk.users) {
                *a += b;
            }
            acc.funnel.merge(chunk.funnel);
            acc
        },
    )
}

/// Folds one user's assignment codes (area index or `-1`) into `od`,
/// tallying every consecutive pair in `funnel`.
fn record_codes(codes: &[i32], od: &mut OdMatrix, funnel: &mut DataFunnel) {
    for w in codes.windows(2) {
        match (w[0], w[1]) {
            (a, b) if a >= 0 && b >= 0 && a != b => {
                od.record(a as usize, b as usize);
                funnel.trips += 1;
            }
            (a, b) if a >= 0 && b >= 0 => funnel.same_area += 1,
            _ => funnel.unassigned += 1,
        }
    }
}

/// The data funnel of `dataset` at `areas`: one scan, no counters
/// published (the `tweetmob summary` view of every scale).
#[must_use]
pub fn data_funnel(dataset: &TweetDataset, areas: &AreaSet) -> DataFunnel {
    scan("funnel", dataset, areas).funnel
}
