//! Trip extraction from tweet streams.
//!
//! §IV of the paper: "we extract the mobility from Tweets by counting how
//! many pairs of consecutive Tweets appear first at the source area and
//! then the destination area". Consecutive means consecutive *within one
//! user's time-ordered stream*; pairs where either endpoint resolves to
//! no study area, or both resolve to the same area, contribute nothing.

use crate::areaset::AreaSet;
use crate::odmatrix::OdMatrix;
use crate::scan::{scan, AreaScan};
use tweetmob_data::TweetDataset;

/// Extracts the directed OD matrix of a dataset over an area set and
/// publishes the run's data funnel (`trips/*` counters).
///
/// This is the shared population-and-trips scan: users are sharded by
/// index range over the dataset's CSR user offsets and each tweet is
/// resolved to its nearest area through the area set's cell table.
/// The result is identical at every thread count because each trip
/// increments an independent integer cell count and the funnel tallies
/// are commutative sums, and identical to a serial row-struct walk over
/// the scalar, test-only `AreaSet::assign` reference because the table
/// lookup is decision-identical to it.
pub fn extract_trips(dataset: &TweetDataset, areas: &AreaSet) -> OdMatrix {
    trips_scan(dataset, areas).od
}

/// The scan behind [`extract_trips`], with everything it produced: runs
/// under the `trips` span and publishes the funnel counters once.
pub(crate) fn trips_scan(dataset: &TweetDataset, areas: &AreaSet) -> AreaScan {
    let _span = tweetmob_obs::span!("trips");
    let scan = scan("trips", dataset, areas);
    scan.publish();
    scan
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::areaset::Scale;
    use crate::scan::DataFunnel;
    use tweetmob_data::{Timestamp, Tweet, UserId, UserTweets};
    use tweetmob_geo::Point;
    use tweetmob_synth::{GeneratorConfig, TweetGenerator};

    /// Serial row-struct reference for [`extract_trips`] and the data
    /// funnel: per-point scalar assignment, one user at a time. The scan
    /// must produce a byte-identical matrix and the same funnel.
    pub(crate) fn extract_trips_reference(
        dataset: &TweetDataset,
        areas: &AreaSet,
    ) -> (OdMatrix, DataFunnel) {
        let mut od = OdMatrix::new(areas.len());
        let mut funnel = DataFunnel::default();
        for view in dataset.iter_users() {
            extract_user(&view, areas, &mut od, &mut funnel);
        }
        (od, funnel)
    }

    /// Extracts one user's trips into `od` through the scalar assignment
    /// path, tallying every tweet and every consecutive pair in `funnel`.
    fn extract_user(
        view: &UserTweets<'_>,
        areas: &AreaSet,
        od: &mut OdMatrix,
        funnel: &mut DataFunnel,
    ) {
        let mut prev: Option<usize> = None;
        let mut seen_any = false;
        for p in view.iter_points() {
            let cur = areas.assign(p);
            funnel.tweets += 1;
            funnel.tweets_in_area += u64::from(cur.is_some());
            if seen_any {
                match (prev, cur) {
                    (Some(a), Some(b)) if a != b => {
                        od.record(a, b);
                        funnel.trips += 1;
                    }
                    (Some(_), Some(_)) => funnel.same_area += 1,
                    _ => funnel.unassigned += 1,
                }
            }
            prev = cur;
            seen_any = true;
        }
    }

    fn tweet(user: u32, secs: i64, lat: f64, lon: f64) -> Tweet {
        Tweet::new(
            UserId(user),
            Timestamp::from_secs(secs),
            Point::new_unchecked(lat, lon),
        )
    }

    fn national() -> AreaSet {
        AreaSet::of_scale(Scale::National)
    }

    // Area indices at national scale: 0 Sydney, 1 Melbourne, 2 Brisbane.
    const SYD: (f64, f64) = (-33.8688, 151.2093);
    const MEL: (f64, f64) = (-37.8136, 144.9631);
    const BNE: (f64, f64) = (-27.4698, 153.0251);

    #[test]
    fn consecutive_pair_in_two_areas_is_one_trip() {
        let ds = TweetDataset::from_tweets(vec![
            tweet(1, 100, SYD.0, SYD.1),
            tweet(1, 200, MEL.0, MEL.1),
        ]);
        let od = extract_trips(&ds, &national());
        assert_eq!(od.count(0, 1), 1);
        assert_eq!(od.total(), 1);
    }

    #[test]
    fn direction_follows_time_order_not_input_order() {
        // Tweets supplied out of order; the dataset sorts by time.
        let ds = TweetDataset::from_tweets(vec![
            tweet(1, 900, SYD.0, SYD.1),
            tweet(1, 100, MEL.0, MEL.1),
        ]);
        let od = extract_trips(&ds, &national());
        assert_eq!(od.count(1, 0), 1, "Melbourne → Sydney");
        assert_eq!(od.count(0, 1), 0);
    }

    #[test]
    fn same_area_pairs_are_not_trips() {
        let ds = TweetDataset::from_tweets(vec![
            tweet(1, 100, SYD.0, SYD.1),
            tweet(1, 200, SYD.0 + 0.05, SYD.1 + 0.05), // still inside 50 km
            tweet(1, 300, MEL.0, MEL.1),
        ]);
        let od = extract_trips(&ds, &national());
        assert_eq!(od.total(), 1);
        assert_eq!(od.count(0, 1), 1);
    }

    #[test]
    fn unassigned_tweets_break_the_chain() {
        // Sydney → outback → Melbourne: the outback tweet resolves to no
        // area, so neither pair spans two areas.
        let ds = TweetDataset::from_tweets(vec![
            tweet(1, 100, SYD.0, SYD.1),
            tweet(1, 200, -25.0, 135.0), // middle of nowhere
            tweet(1, 300, MEL.0, MEL.1),
        ]);
        let od = extract_trips(&ds, &national());
        assert_eq!(od.total(), 0);
    }

    #[test]
    fn chains_count_every_hop() {
        let ds = TweetDataset::from_tweets(vec![
            tweet(1, 100, SYD.0, SYD.1),
            tweet(1, 200, MEL.0, MEL.1),
            tweet(1, 300, BNE.0, BNE.1),
            tweet(1, 400, SYD.0, SYD.1),
        ]);
        let od = extract_trips(&ds, &national());
        assert_eq!(od.count(0, 1), 1);
        assert_eq!(od.count(1, 2), 1);
        assert_eq!(od.count(2, 0), 1);
        assert_eq!(od.total(), 3);
    }

    #[test]
    fn users_do_not_leak_trips_across_streams() {
        // User 1 ends in Sydney; user 2 starts in Melbourne. No trip.
        let ds = TweetDataset::from_tweets(vec![
            tweet(1, 100, SYD.0, SYD.1),
            tweet(2, 200, MEL.0, MEL.1),
        ]);
        let od = extract_trips(&ds, &national());
        assert_eq!(od.total(), 0);
    }

    #[test]
    fn many_users_accumulate() {
        let mut tweets = Vec::new();
        for u in 0..100 {
            tweets.push(tweet(u, 100, SYD.0, SYD.1));
            tweets.push(tweet(u, 200, MEL.0, MEL.1));
        }
        let od = extract_trips(&TweetDataset::from_tweets(tweets), &national());
        assert_eq!(od.count(0, 1), 100);
    }

    #[test]
    fn parallel_matches_serial() {
        // Enough users to trigger the threaded path; compare against a
        // manual serial extraction.
        let mut tweets = Vec::new();
        for u in 0..500 {
            let (a, b) = if u % 3 == 0 { (SYD, MEL) } else { (BNE, SYD) };
            tweets.push(tweet(u, 100, a.0, a.1));
            tweets.push(tweet(u, 200, b.0, b.1));
            if u % 5 == 0 {
                tweets.push(tweet(u, 300, MEL.0, MEL.1));
            }
        }
        let ds = TweetDataset::from_tweets(tweets);
        let areas = national();
        let parallel = extract_trips(&ds, &areas);
        let mut serial = OdMatrix::new(areas.len());
        let mut funnel = DataFunnel::default();
        for view in ds.iter_users() {
            extract_user(&view, &areas, &mut serial, &mut funnel);
        }
        assert_eq!(parallel, serial);
        assert_eq!(parallel, extract_trips_reference(&ds, &areas).0);
    }

    #[test]
    fn thread_count_does_not_change_the_matrix() {
        // 1-vs-8-thread extraction over user shards must be byte-identical.
        let mut tweets = Vec::new();
        for u in 0..400 {
            let (a, b) = if u % 2 == 0 { (SYD, BNE) } else { (MEL, SYD) };
            tweets.push(tweet(u, 100, a.0, a.1));
            tweets.push(tweet(u, 200, b.0, b.1));
            tweets.push(tweet(u, 300, -25.0, 135.0));
        }
        let ds = TweetDataset::from_tweets(tweets);
        let areas = national();
        let one = tweetmob_par::with_threads(1, || extract_trips(&ds, &areas));
        let eight = tweetmob_par::with_threads(8, || extract_trips(&ds, &areas));
        assert_eq!(one, eight);
        assert_eq!(one, extract_trips_reference(&ds, &areas).0);
    }

    #[test]
    fn generated_corpus_matches_reference_at_every_scale_and_thread_count() {
        // A synthetic corpus, unlike the hand-built streams above, has
        // points near every disc edge and runs of same-area tweets.
        let ds = TweetGenerator::new(GeneratorConfig::small()).generate();
        for scale in Scale::ALL {
            let areas = AreaSet::of_scale(scale);
            let (reference, _) = extract_trips_reference(&ds, &areas);
            assert!(reference.total() > 0, "{scale:?} corpus has trips");
            for threads in [1, 8] {
                let od = tweetmob_par::with_threads(threads, || extract_trips(&ds, &areas));
                assert_eq!(od, reference, "{scale:?} at {threads} threads");
            }
        }
    }

    #[test]
    fn drop_counts_classify_non_trips() {
        let areas = national();
        let mut od = OdMatrix::new(areas.len());
        // Sydney → Sydney (same area) → outback (unassigned) → Melbourne.
        let ds = TweetDataset::from_tweets(vec![
            tweet(1, 100, SYD.0, SYD.1),
            tweet(1, 200, SYD.0 + 0.05, SYD.1 + 0.05),
            tweet(1, 300, -25.0, 135.0),
            tweet(1, 400, MEL.0, MEL.1),
        ]);
        let view = ds.iter_users().next().unwrap();
        let mut drops = DataFunnel::default();
        extract_user(&view, &areas, &mut od, &mut drops);
        assert_eq!(drops.same_area, 1);
        assert_eq!(drops.unassigned, 2, "both pairs touching the outback tweet");
        assert_eq!(od.total(), 0);
        // The columnar scan classifies the same pairs, and counts the
        // three tweets inside an area.
        let funnel = crate::scan::data_funnel(&ds, &areas);
        assert_eq!(
            (
                funnel.tweets,
                funnel.tweets_in_area,
                funnel.same_area,
                funnel.unassigned,
                funnel.trips
            ),
            (4, 3, 1, 2, 0)
        );
    }

    #[test]
    fn empty_dataset_empty_matrix() {
        let od = extract_trips(&TweetDataset::from_tweets(Vec::new()), &national());
        assert_eq!(od.total(), 0);
        assert_eq!(od.n_areas(), 20);
    }
}
