//! Effective distance vs geographic distance as an arrival-time
//! predictor (Brockmann & Helbing, Science 2013) — why the Twitter-
//! derived mobility *network* matters more than the map.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example effective_distance
//! ```

use std::sync::Arc;
use tweetmob::core::{AreaSet, Experiment, Scale};
use tweetmob::epidemic::{
    arrival_time_correlation, effective_distance_from, estimate_r0, MobilityNetwork,
    OutbreakScenario,
};
use tweetmob::models::InterveningPopulation;
use tweetmob::synth::{GeneratorConfig, TweetGenerator};

fn main() {
    // Twitter-derived gravity network over the 20 national cities.
    let dataset = TweetGenerator::new(GeneratorConfig::default()).generate();
    let experiment = Experiment::new(&dataset);
    let report = experiment.mobility(Scale::National).expect("mobility fit");
    let areas = AreaSet::of_scale(Scale::National);
    let n = areas.len();
    let census = InterveningPopulation::from_geometry(
        Arc::clone(areas.geometry()),
        &areas.census_populations(),
    );
    let network =
        MobilityNetwork::from_model(&report.models.gravity2, &census, 0.02).expect("network");

    // Simulate an outbreak from Sydney and estimate R0 back from the
    // curve (surveillance sanity check).
    let scenario = OutbreakScenario::new(network.clone(), 0.5, 0.2).seed(0, 20.0);
    let timeline = scenario.run_deterministic(365.0, 0.25).expect("simulation");
    match estimate_r0(&timeline, (10.0, 35.0), 0.2, None) {
        Ok(est) => println!(
            "R0 read back from the simulated curve: {:.2} (truth 2.50, fit R² = {:.4})",
            est.r0, est.fit_r_squared
        ),
        Err(e) => println!("R0 estimation failed: {e}"),
    }
    println!();

    // Compare the two distance notions as arrival-time predictors.
    let d_eff = effective_distance_from(&network, 0);
    let d_geo: Vec<f64> = (0..n).map(|j| areas.distance_km(0, j)).collect();
    let c_eff = arrival_time_correlation(&d_eff, &timeline, 0, 100.0).expect("eff corr");
    let c_geo = arrival_time_correlation(&d_geo, &timeline, 0, 100.0).expect("geo corr");
    println!("arrival-time predictor     Pearson r");
    println!("  effective distance        {:+.3}", c_eff.correlation.r);
    println!("  geographic distance       {:+.3}", c_geo.correlation.r);
    println!();
    println!(
        "{:<16} {:>10} {:>10} {:>12}",
        "city", "d_geo km", "d_eff", "arrival day"
    );
    let mut order: Vec<usize> = (1..n).collect();
    order.sort_by(|&a, &b| d_eff[a].total_cmp(&d_eff[b]));
    for p in order {
        println!(
            "{:<16} {:>10.0} {:>10.2} {:>12}",
            areas.areas()[p].name,
            d_geo[p],
            d_eff[p],
            timeline
                .arrival_time(p, 100.0)
                .map_or("never".into(), |t| format!("{t:.0}"))
        );
    }
    println!();
    println!("reading: cities sorted by effective distance arrive nearly in order,");
    println!("even where geography disagrees (a big far city beats a small near");
    println!("town) — the practical payoff of estimating mobility from tweets.");
}
