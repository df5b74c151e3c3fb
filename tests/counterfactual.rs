//! E11 acceptance test: the Gravity-over-Radiation gap is geographic.
//!
//! Same generator, same travel kernel, two worlds: coastal Australia vs
//! a uniform jittered-grid country with the same total population. The
//! paper's §IV explanation predicts Radiation recovers accuracy on the
//! even geography; this test pins that prediction at the state-scale
//! analogue, where the Australian deficit is largest.

use tweetmob::core::{AreaSet, Experiment, PopulationSource, Scale};
use tweetmob::geo::haversine_km;
use tweetmob::models::ModelKind;
use tweetmob::stats::concentration::gini;
use tweetmob::synth::counterfactual::uniform_country_places;
use tweetmob::synth::gazetteer::world_places;
use tweetmob::synth::{Area, GeneratorConfig, Place, TweetGenerator};

fn central_region(places: &[Place], k: usize) -> Vec<Area> {
    let total: f64 = places.iter().map(|p| p.area.population as f64).sum();
    let clat = places
        .iter()
        .map(|p| p.area.center.lat * p.area.population as f64)
        .sum::<f64>()
        / total;
    let clon = places
        .iter()
        .map(|p| p.area.center.lon * p.area.population as f64)
        .sum::<f64>()
        / total;
    let centre = tweetmob::geo::Point::new_unchecked(clat, clon);
    let mut areas: Vec<Area> = places.iter().map(|p| p.area).collect();
    areas.sort_by(|a, b| haversine_km(centre, a.center).total_cmp(&haversine_km(centre, b.center)));
    areas.truncate(k);
    areas.sort_by_key(|a| std::cmp::Reverse(a.population));
    areas
}

#[test]
fn radiation_recovers_on_even_geography() {
    let cfg = GeneratorConfig::default();
    let australia = world_places();
    let total_pop: u64 = australia.iter().map(|p| p.area.population).sum();
    let uniform = uniform_country_places(8, 6, total_pop, cfg.seed);

    // Precondition: the worlds really differ in spatial concentration.
    let apops: Vec<f64> = australia.iter().map(|p| p.area.population as f64).collect();
    let upops: Vec<f64> = uniform.iter().map(|p| p.area.population as f64).collect();
    assert!(gini(&apops).unwrap() > gini(&upops).unwrap() + 0.3);

    // Australia, state scale (the paper's worst case for Radiation).
    let aus_ds = TweetGenerator::with_places(cfg.clone(), australia).generate();
    let aus_exp = Experiment::new(&aus_ds);
    let (aus, _) = aus_exp
        .fit_with(
            &AreaSet::of_scale(Scale::State),
            PopulationSource::Twitter,
            "aus-state".into(),
        )
        .expect("australian state mobility");

    // Uniform country, state-scale analogue.
    let uni_areas = central_region(&uniform, 20);
    let uni_ds = TweetGenerator::with_places(cfg, uniform).generate();
    let uni_exp = Experiment::new(&uni_ds);
    let (uni, _) = uni_exp
        .fit_with(
            &AreaSet::new(uni_areas, 25.0),
            PopulationSource::Twitter,
            "uniform-state".into(),
        )
        .expect("uniform state mobility");

    let gap = |r: &tweetmob::core::MobilityReport| {
        r.evaluation(ModelKind::Gravity2).pearson - r.evaluation(ModelKind::Radiation).pearson
    };
    let aus_gap = gap(&aus);
    let uni_gap = gap(&uni);
    assert!(
        uni_gap < aus_gap,
        "gap should shrink on even geography: australia {aus_gap:+.3}, uniform {uni_gap:+.3}"
    );

    // Radiation's absolute accuracy also improves on the even world.
    let aus_rad = aus.evaluation(ModelKind::Radiation);
    let uni_rad = uni.evaluation(ModelKind::Radiation);
    assert!(
        uni_rad.hit_rate_50 > aus_rad.hit_rate_50,
        "radiation hit rate: australia {:.3}, uniform {:.3}",
        aus_rad.hit_rate_50,
        uni_rad.hit_rate_50
    );
    assert!(
        uni_rad.pearson > aus_rad.pearson,
        "radiation pearson: australia {:.3}, uniform {:.3}",
        aus_rad.pearson,
        uni_rad.pearson
    );
}
