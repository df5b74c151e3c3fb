//! The `trips/*` funnel counters advance exactly once per fit, and a
//! population estimate alone leaves them untouched (so `tweetmob export`,
//! which estimates population and then fits each scale, does not count
//! any pair twice).
//!
//! The counters live in the process-global registry, so this file holds a
//! single test: no other test in the binary can move them concurrently.

use tweetmob::core::{data_funnel, AreaSet, Experiment, Scale};
use tweetmob::synth::{GeneratorConfig, TweetGenerator};

const COUNTERS: [&str; 4] = [
    "trips/extracted",
    "trips/dropped_same_area",
    "trips/dropped_unassigned",
    "trips/tweets_in_area",
];

fn counters() -> [u64; 4] {
    COUNTERS.map(|name| tweetmob::obs::global().counter_value(name).unwrap_or(0))
}

fn delta(before: [u64; 4]) -> [u64; 4] {
    let after = counters();
    [0, 1, 2, 3].map(|i| after[i] - before[i])
}

#[test]
fn funnel_counters_advance_once_per_fit_and_never_for_population() {
    let ds = TweetGenerator::new(GeneratorConfig::small()).generate();
    let exp = Experiment::new(&ds);
    for scale in Scale::ALL {
        let before = counters();
        let funnel = data_funnel(&ds, &AreaSet::of_scale(scale));
        assert_eq!(delta(before), [0; 4], "{scale:?}: data_funnel published");
        assert_eq!(funnel.tweets, ds.n_tweets() as u64);
        assert_eq!(funnel.pairs(), (ds.n_tweets() - ds.n_users()) as u64);
        let want = [
            funnel.trips,
            funnel.same_area,
            funnel.unassigned,
            funnel.tweets_in_area,
        ];

        let before = counters();
        exp.population_correlation(scale).unwrap();
        assert_eq!(
            delta(before),
            [0; 4],
            "{scale:?}: population moved the funnel"
        );

        let before = counters();
        let (report, _) = exp.fit(scale).unwrap();
        assert_eq!(delta(before), want, "{scale:?}: one fit");
        assert_eq!(report.od_total, funnel.trips, "{scale:?}");
    }
}
