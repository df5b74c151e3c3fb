//! Equivalence suite for the fitting path (DESIGN.md §11): the shared
//! `PairGeometry` cache and the columnar `FitColumns` kernel must
//! produce **byte-identical** model fits on every paper scale at one
//! worker thread and at eight, and the columnar grid search must match
//! its scalar reference fitter. (The cache itself is compared to the
//! scalar per-pair distances bit for bit in `tweetmob-geo`.)
//!
//! `with_threads` serialises callers on a global lock, so these tests
//! are safe under the parallel test runner.

use tweetmob::core::{Experiment, Scale};
use tweetmob::models::{Gravity4Fit, GravityGrid};
use tweetmob::par::with_threads;
use tweetmob::synth::{GeneratorConfig, TweetGenerator};

fn config() -> GeneratorConfig {
    let mut cfg = GeneratorConfig::small();
    cfg.n_users = 2_000;
    cfg
}

/// One mobility run rendered through `Debug`, which prints every float
/// exactly (shortest round-trip form).
fn report_debug(ds: &tweetmob::data::TweetDataset, scale: Scale) -> String {
    let report = Experiment::new(ds)
        .mobility(scale)
        .expect("mobility report");
    format!("{report:?}")
}

#[test]
fn fits_are_bit_identical_across_threads_on_every_scale() {
    let ds = TweetGenerator::new(config()).generate();
    for scale in Scale::ALL {
        let baseline = with_threads(1, || report_debug(&ds, scale));
        let run = with_threads(8, || report_debug(&ds, scale));
        assert_eq!(
            baseline,
            run,
            "{} scale: 8 threads diverged from 1",
            scale.name()
        );
    }
}

#[test]
fn columnar_grid_search_matches_the_reference_fitter() {
    let ds = TweetGenerator::new(config()).generate();
    let exp = Experiment::new(&ds);
    let report = with_threads(1, || {
        exp.mobility(Scale::National).expect("mobility report")
    });
    let grid = GravityGrid::default();
    let baseline = format!(
        "{:?}",
        with_threads(1, || {
            Gravity4Fit::fit_grid_reference(&report.observations, &grid).expect("reference fit")
        })
    );
    for threads in [1usize, 8] {
        let columnar = format!(
            "{:?}",
            with_threads(threads, || {
                Gravity4Fit::fit_grid(&report.observations, &grid).expect("columnar fit")
            })
        );
        assert_eq!(
            baseline, columnar,
            "columnar grid search diverged from the reference at {threads} thread(s)"
        );
        let reference = format!(
            "{:?}",
            with_threads(threads, || {
                Gravity4Fit::fit_grid_reference(&report.observations, &grid).expect("reference fit")
            })
        );
        assert_eq!(
            baseline, reference,
            "reference fitter is not thread-count invariant at {threads} thread(s)"
        );
    }
}
