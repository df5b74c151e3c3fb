//! Artifact-layer acceptance suite (DESIGN.md §13): the fit-once /
//! predict-many split must be invisible in the numbers. A
//! [`ModelBundle`] that is saved and reloaded has to re-encode to the
//! same bytes and predict bit-identically to the in-memory fit it came
//! from — for every model, at one worker thread and at eight — and the
//! epidemic network built from a loaded artifact must match the one
//! assembled by hand from the same parts.

use std::sync::Arc;
use tweetmob::core::{Experiment, Scale};
use tweetmob::data::{BundleArea, BundleMeta, ModelBundle};
use tweetmob::epidemic::MobilityNetwork;
use tweetmob::geo::{PairGeometry, Point};
use tweetmob::models::{
    FittedModel, FittedModelSet, FlowObservation, InterveningPopulation, ModelKind,
};
use tweetmob::obs::manifest::fnv1a64;
use tweetmob::par::with_threads;
use tweetmob::stats::rng::SplitMix64;
use tweetmob::synth::{GeneratorConfig, TweetGenerator};

/// `lo + [0, hi - lo)` random Australian centres.
fn aus_points(rng: &mut SplitMix64, lo: usize, hi: usize) -> Vec<Point> {
    (0..lo + rng.next_below(hi - lo))
        .map(|_| Point::new_unchecked(rng.range_f64(-44.0, -10.0), rng.range_f64(113.0, 154.0)))
        .collect()
}

/// A synthetic fit over arbitrary centres and populations, packaged as
/// a bundle exactly the way `Experiment::fit_with` packages one.
fn bundle_from(centers: &[Point], populations: &[f64]) -> ModelBundle {
    let geometry = PairGeometry::shared(centers);
    let intervening = InterveningPopulation::from_geometry(Arc::clone(&geometry), populations);
    let n = centers.len();
    let mut observations = Vec::with_capacity(n * (n - 1));
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let d = geometry.distance(i, j).max(1.0);
            observations.push(FlowObservation {
                origin_population: populations[i],
                dest_population: populations[j],
                distance_km: geometry.distance(i, j),
                intervening_population: intervening.s(i, j),
                observed_flow: (0.01 * populations[i] * populations[j] / (d * d)).max(1.0),
            });
        }
    }
    let models = FittedModelSet::fit(&observations).expect("synthetic fit");
    let areas = centers
        .iter()
        .enumerate()
        .map(|(i, &center)| BundleArea {
            name: format!("Area {i}"),
            center,
            census_population: populations[i] * 1.25,
        })
        .collect();
    ModelBundle::new(
        BundleMeta {
            label: "property".into(),
            population_source: "twitter".into(),
            radius_km: 50.0,
        },
        areas,
        populations.to_vec(),
        models,
        geometry,
    )
}

/// Save → load re-encodes to the same bytes, and every prediction of
/// every model bit-matches the freshly fitted bundle.
#[test]
fn save_load_is_byte_identical_and_predictions_bit_match() {
    for seed in 0..24 {
        let mut rng = SplitMix64::new(seed);
        let centers = aus_points(&mut rng, 4, 12);
        let populations: Vec<f64> = centers
            .iter()
            .map(|_| rng.range_f64(1_000.0, 1e6))
            .collect();
        let bundle = bundle_from(&centers, &populations);

        let mut first = Vec::new();
        bundle.save(&mut first).expect("save");
        let loaded = ModelBundle::load(&first[..]).expect("load");
        let mut second = Vec::new();
        loaded.save(&mut second).expect("re-save");
        assert_eq!(first, second, "seed {seed}: re-encode must be canonical");

        assert_eq!(loaded.meta(), bundle.meta(), "seed {seed}");
        assert_eq!(loaded.areas(), bundle.areas(), "seed {seed}");
        assert_eq!(loaded.models(), bundle.models(), "seed {seed}");
        for kind in ModelKind::ALL {
            for i in 0..bundle.len() {
                for j in 0..bundle.len() {
                    if i == j {
                        continue;
                    }
                    assert_eq!(
                        bundle.predict(kind, i, j).unwrap().to_bits(),
                        loaded.predict(kind, i, j).unwrap().to_bits(),
                        "seed {seed}: {kind} {i}->{j}"
                    );
                }
            }
        }
    }
}

/// Corrupting any single byte of the header is rejected, never a
/// wrong-answer load.
#[test]
fn header_corruption_is_always_detected() {
    for seed in 0..24 {
        let mut rng = SplitMix64::new(seed);
        let centers = aus_points(&mut rng, 4, 8);
        let byte = rng.next_below(8);
        // Distinct populations: with equal ones the gravity-4 regression
        // is singular and the fixture fit itself fails.
        let populations: Vec<f64> = centers
            .iter()
            .map(|_| rng.range_f64(1_000.0, 1e6))
            .collect();
        let bundle = bundle_from(&centers, &populations);
        let mut bytes = Vec::new();
        bundle.save(&mut bytes).expect("save");
        bytes[byte] = bytes[byte].wrapping_add(1);
        assert!(
            ModelBundle::load(&bytes[..]).is_err(),
            "seed {seed}: byte {byte}"
        );
    }
}

/// The ISSUE acceptance gate: a full pipeline fit, saved and reloaded,
/// predicts bit-identically to the in-memory report — at one worker
/// thread and at eight — and the artifact bytes themselves are
/// identical at every thread count.
#[test]
fn pipeline_fit_save_load_predict_is_bit_identical_at_1_and_8_threads() {
    let mut cfg = GeneratorConfig::small();
    cfg.n_users = 2_000;
    let ds = TweetGenerator::new(cfg).generate();

    let mut encodings = Vec::new();
    for threads in [1usize, 8] {
        let (report, bundle) = with_threads(threads, || {
            Experiment::new(&ds).fit(Scale::National).expect("fit")
        });
        let mut bytes = Vec::new();
        bundle.save(&mut bytes).expect("save");
        let loaded = ModelBundle::load(&bytes[..]).expect("load");

        assert_eq!(loaded.models(), bundle.models());
        for i in 0..bundle.len() {
            for j in 0..bundle.len() {
                if i == j {
                    continue;
                }
                let obs = bundle.observation(i, j).unwrap();
                assert_eq!(
                    loaded.predict(ModelKind::Gravity4, i, j).unwrap().to_bits(),
                    report.models.gravity4.predict_flow(&obs).to_bits()
                );
                assert_eq!(
                    loaded.predict(ModelKind::Gravity2, i, j).unwrap().to_bits(),
                    report.models.gravity2.predict_flow(&obs).to_bits()
                );
                assert_eq!(
                    loaded
                        .predict(ModelKind::Radiation, i, j)
                        .unwrap()
                        .to_bits(),
                    report.models.radiation.predict_flow(&obs).to_bits()
                );
                assert_eq!(
                    loaded
                        .predict(ModelKind::Opportunities, i, j)
                        .unwrap()
                        .to_bits(),
                    report.models.opportunities.predict_flow(&obs).to_bits()
                );
            }
        }
        encodings.push(bytes);
    }
    assert_eq!(
        encodings[0], encodings[1],
        "artifact bytes must not depend on thread count"
    );
}

/// Top-k answers from a loaded artifact are deterministic and match
/// the in-memory bundle exactly.
#[test]
fn top_k_from_loaded_artifact_matches_in_memory() {
    let ds = TweetGenerator::new(GeneratorConfig::small()).generate();
    let (_, bundle) = Experiment::new(&ds).fit(Scale::National).expect("fit");
    let mut bytes = Vec::new();
    bundle.save(&mut bytes).expect("save");
    let loaded = ModelBundle::load(&bytes[..]).expect("load");
    let origin = bundle.area_index("Sydney").expect("Sydney present");
    for kind in ModelKind::ALL {
        let expect = bundle.top_k(kind, origin, 5).unwrap();
        assert_eq!(expect.len(), 5);
        assert!(expect.windows(2).all(|w| w[0].1 >= w[1].1));
        assert_eq!(expect, loaded.top_k(kind, origin, 5).unwrap());
    }
}

/// The epidemic network built straight from a loaded artifact is
/// bit-identical, for every model kind, to one assembled by hand from
/// the same bundle parts through `MobilityNetwork::from_model`.
#[test]
fn epidemic_network_from_artifact_matches_hand_assembly() {
    let ds = TweetGenerator::new(GeneratorConfig::small()).generate();
    let (_, bundle) = Experiment::new(&ds).fit(Scale::National).expect("fit");
    let mut bytes = Vec::new();
    bundle.save(&mut bytes).expect("save");
    let loaded = ModelBundle::load(&bytes[..]).expect("load");

    let census: Vec<f64> = bundle.areas().iter().map(|a| a.census_population).collect();
    let n = census.len();
    let calc = InterveningPopulation::from_geometry(Arc::clone(bundle.geometry()), &census);
    let models = bundle.models();
    let fits: [&dyn FittedModel; 4] = [
        &models.gravity4,
        &models.gravity2,
        &models.radiation,
        &models.opportunities,
    ];
    for (kind, fit) in ModelKind::ALL.into_iter().zip(fits) {
        let from_artifact = MobilityNetwork::from_artifact(&loaded, kind, 0.02).expect("network");
        let by_hand = MobilityNetwork::from_model(fit, &calc, 0.02).expect("hand network");
        assert_eq!(from_artifact.populations(), by_hand.populations());
        assert_eq!(from_artifact.n_patches(), n);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(
                    from_artifact.rate(i, j).to_bits(),
                    by_hand.rate(i, j).to_bits(),
                    "{kind}: rate {i}->{j}"
                );
            }
        }
    }
}

/// Golden artifact digests: the FNV-1a 64 of the saved bundle of the
/// small default corpus, pinned per scale at one worker thread and at
/// eight. The other byte-identity tests compare one run with another
/// run of the same build; these compare with bytes recorded once, so a
/// change to the scan, the fits or the encoder that is wrong in the
/// same way on every run still fails here.
#[test]
fn artifact_digests_match_golden_values_at_1_and_8_threads() {
    let ds = TweetGenerator::new(GeneratorConfig::small()).generate();
    let golden = [
        (Scale::National, 0x5a16_1309_1fec_d59d_u64, 1_057),
        (Scale::State, 0x6d5c_df04_59b8_4660, 1_054),
        (Scale::Metropolitan, 0x67dc_65fd_0508_0062, 1_057),
    ];
    for threads in [1usize, 8] {
        for (scale, digest, len) in golden {
            let (_, bundle) =
                with_threads(threads, || Experiment::new(&ds).fit(scale).expect("fit"));
            let mut bytes = Vec::new();
            bundle.save(&mut bytes).expect("save");
            assert_eq!(
                (fnv1a64(&bytes), bytes.len()),
                (digest, len),
                "{scale:?} at {threads} threads: got {:016x}",
                fnv1a64(&bytes)
            );
        }
    }
}
