//! End-to-end integration: generator → I/O → experiment → models →
//! epidemic, across every crate in the workspace.

use std::sync::{Arc, OnceLock};
use tweetmob::core::{AreaSet, Experiment, PopulationSource, Scale};
use tweetmob::data::{io, TweetDataset};
use tweetmob::epidemic::{MobilityNetwork, OutbreakScenario};
use tweetmob::geo::{DensityGrid, AUSTRALIA_BBOX};
use tweetmob::models::{InterveningPopulation, ModelKind};
use tweetmob::synth::{GeneratorConfig, TweetGenerator};

fn dataset() -> &'static TweetDataset {
    static DS: OnceLock<TweetDataset> = OnceLock::new();
    DS.get_or_init(|| {
        let mut cfg = GeneratorConfig::small();
        cfg.n_users = 5_000;
        TweetGenerator::new(cfg).generate()
    })
}

#[test]
fn jsonl_roundtrip_preserves_experiment_results() {
    let ds = dataset();
    let mut buf = Vec::new();
    io::write_jsonl(ds, &mut buf).expect("serialise");
    let back = io::read_jsonl(&buf[..]).expect("deserialise");
    assert_eq!(ds.n_tweets(), back.n_tweets());
    // Population estimates must be identical after a round trip.
    let a = Experiment::new(ds)
        .population_correlation(Scale::National)
        .unwrap();
    let b = Experiment::new(&back)
        .population_correlation(Scale::National)
        .unwrap();
    for (x, y) in a.areas.iter().zip(&b.areas) {
        assert_eq!(x.twitter_users, y.twitter_users, "{}", x.name);
    }
}

#[test]
fn density_grid_covers_all_generated_tweets() {
    let ds = dataset();
    let mut grid = DensityGrid::new(AUSTRALIA_BBOX, 0.25);
    grid.extend(ds.iter_points());
    assert_eq!(grid.total() as usize, ds.n_tweets());
    assert_eq!(grid.dropped(), 0, "generator must stay inside the bbox");
}

#[test]
fn mobility_fit_feeds_epidemic_simulation() {
    let ds = dataset();
    let exp = Experiment::new(ds);
    let report = exp.mobility(Scale::National).expect("mobility fit");

    let areas = AreaSet::of_scale(Scale::National);
    let census = InterveningPopulation::from_geometry(
        Arc::clone(areas.geometry()),
        &areas.census_populations(),
    );
    let net = MobilityNetwork::from_model(&report.models.gravity2, &census, 0.02).expect("network");
    let tl = OutbreakScenario::new(net, 0.5, 0.2)
        .seed(0, 50.0)
        .run_deterministic(200.0, 0.25)
        .expect("simulation");
    // The outbreak must leave Sydney and reach Melbourne (patch 1).
    assert!(tl.final_size(1) > 1_000.0, "melbourne {}", tl.final_size(1));
    // Arrival order respects the mobility structure: Melbourne (huge,
    // close) before Darwin (small, far — last patch index 14).
    let mel = tl.arrival_time(1, 100.0).expect("melbourne reached");
    let darwin = tl.arrival_time(14, 100.0).expect("darwin reached");
    assert!(mel < darwin, "melbourne {mel} vs darwin {darwin}");
}

/// E15 on one fitted national network: effective distance predicts
/// arrival times, and the growth-rate R₀ read-back recovers the
/// simulated R₀ = β/γ = 2.5.
#[test]
fn effective_distance_beats_geography_as_arrival_predictor() {
    use tweetmob::epidemic::{arrival_time_correlation, effective_distance_from, estimate_r0};
    let ds = dataset();
    let exp = Experiment::new(ds);
    let report = exp.mobility(Scale::National).expect("mobility fit");
    let areas = AreaSet::of_scale(Scale::National);
    let n = areas.len();
    let census = InterveningPopulation::from_geometry(
        Arc::clone(areas.geometry()),
        &areas.census_populations(),
    );
    let net = MobilityNetwork::from_model(&report.models.gravity2, &census, 0.02).expect("network");
    let tl = OutbreakScenario::new(net.clone(), 0.5, 0.2)
        .seed(0, 20.0)
        .run_deterministic(365.0, 0.25)
        .expect("simulation");
    let d_eff = effective_distance_from(&net, 0);
    let d_geo: Vec<f64> = (0..n).map(|j| areas.distance_km(0, j)).collect();
    let c_eff = arrival_time_correlation(&d_eff, &tl, 0, 100.0).expect("eff");
    let c_geo = arrival_time_correlation(&d_geo, &tl, 0, 100.0).expect("geo");
    assert!(
        c_eff.correlation.r > c_geo.correlation.r + 0.1,
        "effective {:.3} should clearly beat geographic {:.3}",
        c_eff.correlation.r,
        c_geo.correlation.r
    );
    assert!(
        c_eff.correlation.r > 0.9,
        "effective r = {}",
        c_eff.correlation.r
    );
    // Reads 2.478 on this corpus, and 2.477–2.479 over eight neighbouring
    // seeds: just under the truth, as E15 reports on the default corpus.
    let r0 = estimate_r0(&tl, (10.0, 35.0), 0.2, None).expect("R0 estimate");
    assert!((2.47..2.49).contains(&r0.r0), "R0 read back as {}", r0.r0);
}

#[test]
fn columnar_format_roundtrips_through_full_pipeline() {
    use tweetmob::data::columnar;
    let ds = dataset();
    let mut buf = Vec::new();
    columnar::write_columnar(ds, &mut buf).expect("serialise");
    // Compact: 24 bytes/tweet of columns plus the user index and header.
    assert!(buf.len() < 30 * ds.n_tweets());
    let back = columnar::read_columnar(&buf[..]).expect("deserialise");
    let a = Experiment::new(ds).mobility(Scale::National).unwrap();
    let b = Experiment::new(&back).mobility(Scale::National).unwrap();
    assert_eq!(a.od_total, b.od_total);
    assert_eq!(a.models.gravity2.gamma, b.models.gravity2.gamma);
}

#[test]
fn census_and_twitter_population_sources_agree_on_ordering() {
    let ds = dataset();
    let exp = Experiment::new(ds);
    let (tw, _) = exp
        .fit_with(
            &AreaSet::of_scale(Scale::National),
            PopulationSource::Twitter,
            "tw".into(),
        )
        .unwrap();
    let (cs, _) = exp
        .fit_with(
            &AreaSet::of_scale(Scale::National),
            PopulationSource::Census,
            "cs".into(),
        )
        .unwrap();
    // Both population sources must support a decent gravity fit — the
    // paper's census-swap proposal rests on this.
    let tw_g2 = tw.evaluation(ModelKind::Gravity2).pearson;
    let cs_g2 = cs.evaluation(ModelKind::Gravity2).pearson;
    assert!(tw_g2 > 0.5, "twitter-fed r = {tw_g2}");
    assert!(cs_g2 > 0.5, "census-fed r = {cs_g2}");
}

#[test]
fn filter_bbox_is_identity_on_generated_data() {
    let ds = dataset();
    let filtered = ds.filter_bbox(&AUSTRALIA_BBOX);
    assert_eq!(filtered.n_tweets(), ds.n_tweets());
    assert_eq!(filtered.n_users(), ds.n_users());
}
