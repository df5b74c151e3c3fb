//! Disease-spread simulation from Twitter-derived mobility — the paper's
//! future-work goal ("a model-based, responsive prediction method from
//! Twitter data for disease spread").
//!
//! Pipeline: synthetic tweets → extracted national OD flows → fitted
//! gravity model → metapopulation mobility network → SIR outbreak seeded
//! in Sydney, simulated both deterministically and stochastically.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example outbreak
//! ```

use std::sync::Arc;
use tweetmob::core::{AreaSet, Experiment, Scale};
use tweetmob::epidemic::{MobilityNetwork, OutbreakScenario, SeirParams};
use tweetmob::models::InterveningPopulation;
use tweetmob::synth::{GeneratorConfig, TweetGenerator};

fn main() {
    // 1. Twitter-derived mobility.
    let dataset = TweetGenerator::new(GeneratorConfig::default()).generate();
    let experiment = Experiment::new(&dataset);
    let report = experiment
        .mobility(Scale::National)
        .expect("national mobility fit");
    println!(
        "fitted gravity model on {} extracted trips: gamma = {:.2}",
        report.od_total, report.models.gravity2.gamma
    );

    // 2. Build the metapopulation network from the *fitted* model over
    //    census populations — the paper's proposed census swap.
    let areas = AreaSet::of_scale(Scale::National);
    let census = InterveningPopulation::from_geometry(
        Arc::clone(areas.geometry()),
        &areas.census_populations(),
    );
    let network = MobilityNetwork::from_model(
        &report.models.gravity2,
        &census,
        0.02, // 2 % of each city travels per day
    )
    .expect("network construction");

    // 3. Seed an outbreak in Sydney (patch 0): SEIR, R0 = 2.5.
    let scenario = OutbreakScenario::new(network, 0.5, 0.2)
        .with_seir(SeirParams { sigma: 0.25 })
        .seed(0, 20.0);
    let timeline = scenario
        .run_deterministic(365.0, 0.25)
        .expect("deterministic run");

    println!();
    println!("--- deterministic SEIR, seeded with 20 cases in Sydney ---");
    println!(
        "{:<16} {:>12} {:>14} {:>14}",
        "city", "arrival(day)", "peak infected", "final size"
    );
    let mut rows: Vec<(usize, Option<f64>)> = (0..areas.len())
        .map(|p| (p, timeline.arrival_time(p, 100.0)))
        .collect();
    rows.sort_by(|a, b| {
        a.1.unwrap_or(f64::INFINITY)
            .total_cmp(&b.1.unwrap_or(f64::INFINITY))
    });
    for (p, arrival) in rows {
        println!(
            "{:<16} {:>12} {:>14.0} {:>14.0}",
            areas.areas()[p].name,
            arrival.map_or("never".to_string(), |t| format!("{t:.0}")),
            timeline.peak_infected(p),
            timeline.final_size(p)
        );
    }

    // 4. Stochastic replicates: arrival time of the outbreak in Perth
    //    (the far west coast) across random seeds.
    println!();
    println!("--- stochastic replicates: arrival in Perth (≥100 cases) ---");
    let perth = areas
        .areas()
        .iter()
        .position(|a| a.name == "Perth")
        .expect("Perth in gazetteer");
    for seed in 0..5 {
        let tl = scenario
            .run_stochastic(365.0, 0.25, seed)
            .expect("stochastic run");
        match tl.arrival_time(perth, 100.0) {
            Some(day) => println!("  seed {seed}: day {day:.0}"),
            None => println!("  seed {seed}: outbreak never reached Perth"),
        }
    }
}
