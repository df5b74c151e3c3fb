//! Experiment E11 — the geographic counterfactual behind the paper's
//! headline claim.
//!
//! The paper argues Radiation loses to Gravity in Australia *because* of
//! geography ("unlike U.S.A. where a large population spreads relatively
//! evenly across the country"). This binary holds everything fixed —
//! user count, activity model, the distance-driven travel kernel — and
//! swaps only the world: the real coastal Australian gazetteer vs a
//! uniform jittered-grid country with the same total population.
//!
//! Two scale analogues are compared, because the deficit is strongest
//! where geography is gappiest: the national scale (top-20 cities,
//! ε = 50 km) and the state scale (a contiguous 20-city subregion,
//! ε = 25 km — NSW for Australia, the cities nearest the grid centre for
//! the uniform country). If the paper's causal story is right, the
//! Gravity-vs-Radiation gap must shrink in the uniform world.

use tweetmob_core::{AreaSet, Experiment, PopulationSource, Scale};
use tweetmob_geo::haversine_km;
use tweetmob_stats::concentration::{gini, theil};
use tweetmob_synth::counterfactual::{top_areas, uniform_country_places};
use tweetmob_synth::gazetteer::world_places;
use tweetmob_synth::{Area, GeneratorConfig, Place, TweetGenerator};

/// The 20 cities nearest the population-weighted centre of a world — a
/// contiguous "state-sized" study region.
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
    let centre = tweetmob_geo::Point::new_unchecked(clat, clon);
    let mut areas: Vec<Area> = places.iter().map(|p| p.area).collect();
    areas.sort_by(|a, b| haversine_km(centre, a.center).total_cmp(&haversine_km(centre, b.center)));
    areas.truncate(k);
    // Study areas are conventionally listed by population.
    areas.sort_by_key(|a| std::cmp::Reverse(a.population));
    areas
}

fn main() {
    let mut cfg = GeneratorConfig::default();
    if let Ok(n) = std::env::var("TWEETMOB_USERS") {
        if let Ok(n) = n.trim().parse::<u32>() {
            cfg.n_users = n;
        }
    }

    println!("================================================================");
    println!("E11 — geographic counterfactual: Australia vs a uniform country");
    println!("================================================================");

    let australia = world_places();
    let total_pop: u64 = australia.iter().map(|p| p.area.population).sum();
    let uniform = uniform_country_places(8, 6, total_pop, cfg.seed);

    let apops: Vec<f64> = australia.iter().map(|p| p.area.population as f64).collect();
    let upops: Vec<f64> = uniform.iter().map(|p| p.area.population as f64).collect();
    println!("population concentration   Gini      Theil    (0 = even)");
    println!(
        "  Australia (coastal)     {:>6.3}   {:>7.3}",
        gini(&apops).unwrap(),
        theil(&apops).unwrap()
    );
    println!(
        "  uniform country         {:>6.3}   {:>7.3}",
        gini(&upops).unwrap(),
        theil(&upops).unwrap()
    );
    println!();

    // (world label, study label, areas, radius)
    let setups: Vec<(&str, &str, Vec<Area>, f64)> = vec![
        (
            "Australia",
            "national (top-20 cities)",
            Scale::National.areas().to_vec(),
            50.0,
        ),
        (
            "Australia",
            "state (NSW top-20)",
            Scale::State.areas().to_vec(),
            25.0,
        ),
        (
            "uniform",
            "national analogue (top-20 cities)",
            top_areas(&uniform, 20),
            50.0,
        ),
        (
            "uniform",
            "state analogue (central 20 cities)",
            central_region(&uniform, 20),
            25.0,
        ),
    ];

    // BTreeMap: the verdict below folds over this map, and report lines must
    // come out in the same order every run.
    let mut gap_sum: std::collections::BTreeMap<&str, (f64, usize)> = Default::default();
    for (world, study, areas, radius) in setups {
        let places = if world == "Australia" {
            australia.clone()
        } else {
            uniform.clone()
        };
        let dataset = TweetGenerator::with_places(cfg.clone(), places).generate();
        let experiment = Experiment::new(&dataset);
        let area_set = AreaSet::new(areas, radius);
        match experiment.fit_with(
            &area_set,
            PopulationSource::Twitter,
            format!("{world} / {study}"),
        ) {
            Ok((report, _)) => {
                let g2 = report.evaluation("Gravity 2Param").expect("g2");
                let rad = report.evaluation("Radiation").expect("radiation");
                let gap = g2.pearson - rad.pearson;
                println!("--- {world}: {study}, ε = {radius} km ---");
                println!(
                    "  Gravity 2Param  r = {:.3}  hit@50% = {:.3}",
                    g2.pearson, g2.hit_rate_50
                );
                println!(
                    "  Radiation       r = {:.3}  hit@50% = {:.3}",
                    rad.pearson, rad.hit_rate_50
                );
                println!(
                    "  gravity − radiation gap = {gap:+.3}   ({} trips, {} pairs)",
                    report.od_total, report.nonzero_pairs
                );
                println!();
                let e = gap_sum.entry(world).or_insert((0.0, 0));
                e.0 += gap;
                e.1 += 1;
            }
            Err(e) => println!("{world} / {study}: {e}"),
        }
    }

    let mean = |w: &str| {
        gap_sum
            .get(w)
            .map(|&(s, n)| s / n.max(1) as f64)
            .unwrap_or(f64::NAN)
    };
    let aus = mean("Australia");
    let uni = mean("uniform");
    println!("verdict: mean gravity-over-radiation gap");
    println!("  Australia       {aus:+.3}");
    println!("  uniform country {uni:+.3}");
    if uni < aus {
        println!("→ the gap shrinks on even geography: Radiation's deficit in the");
        println!("  paper is geographic, exactly as §IV argues.");
    } else {
        println!("→ the gap did NOT shrink — investigate before citing E11.");
    }
}
