//! Equivalence suite for the fitting path (DESIGN.md §11): the mobility
//! report built on the shared `PairGeometry` cache must hold
//! **byte-identical** model fits on every paper scale at one worker
//! thread and at eight. (The cache itself is compared to the scalar
//! per-pair distances bit for bit in `tweetmob-geo`.)
//!
//! `with_threads` serialises callers on a global lock, so these tests
//! are safe under the parallel test runner.

use tweetmob::core::{Experiment, Scale};
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
