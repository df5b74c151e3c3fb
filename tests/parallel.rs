//! Thread-count invariance of every parallel stage: the same inputs
//! produce byte-identical JSON whether the shared pool runs on one
//! worker or eight. This is the contract that lets `--threads` change
//! wall-clock time without changing a single published number.
//!
//! `with_threads` serialises callers on a global lock, so these tests
//! are safe under the default parallel test runner.

use tweetmob::core::{extract_trips, AreaSet, Experiment, Scale};
use tweetmob::par::with_threads;
use tweetmob::synth::{GeneratorConfig, TweetGenerator};

fn config() -> GeneratorConfig {
    let mut cfg = GeneratorConfig::small();
    cfg.n_users = 3_000;
    cfg
}

/// Runs `f` at 1 and at 8 threads and asserts the serialised results
/// are byte-identical.
fn assert_thread_invariant<T: std::fmt::Debug>(stage: &str, f: impl Fn() -> T) {
    let serial = format!("{:?}", with_threads(1, &f));
    let parallel = format!("{:?}", with_threads(8, &f));
    assert_eq!(
        serial, parallel,
        "{stage}: results differ across thread counts"
    );
}

#[test]
fn synth_generation_is_thread_invariant() {
    assert_thread_invariant("synth/generate", || {
        let ds = TweetGenerator::new(config()).generate();
        let coords: Vec<(u32, i64, u64, u64)> = ds
            .iter_tweets()
            .map(|t| {
                (
                    t.user.0,
                    t.time.as_secs(),
                    t.location.lat.to_bits(),
                    t.location.lon.to_bits(),
                )
            })
            .collect();
        coords
    });
}

#[test]
fn trip_extraction_is_thread_invariant() {
    let ds = TweetGenerator::new(config()).generate();
    let areas = AreaSet::of_scale(Scale::National);
    assert_thread_invariant("trips", || extract_trips(&ds, &areas));
}

#[test]
fn population_estimation_is_thread_invariant() {
    // A fresh experiment per thread count: one shared across both runs
    // would hand the second run the first run's kept scan.
    let ds = TweetGenerator::new(config()).generate();
    assert_thread_invariant("population", || {
        Experiment::new(&ds)
            .population_correlation(Scale::National)
            .expect("population correlation on the standard dataset")
    });
}

#[test]
fn whole_experiment_is_thread_invariant() {
    // The end-to-end composition: every stage above chained through
    // `Experiment::mobility`, compared as one document.
    // A fresh experiment per thread count, as above.
    let ds = TweetGenerator::new(config()).generate();
    assert_thread_invariant("mobility", || {
        let report = Experiment::new(&ds)
            .mobility(Scale::National)
            .expect("mobility report");
        (
            report.od_total,
            report.models,
            report
                .evaluations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>(),
        )
    });
}
