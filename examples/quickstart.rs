//! Quickstart: generate a synthetic tweet stream, estimate population,
//! extract mobility, compare the gravity and radiation models, and save
//! the fitted models as a reusable artifact.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use tweetmob::core::{Experiment, Scale};
use tweetmob::data::{DatasetSummary, ModelBundle};
use tweetmob::models::ModelKind;
use tweetmob::synth::{GeneratorConfig, TweetGenerator};

fn main() {
    // 1. Generate a synthetic stream over real Australian geography.
    //    (`tweetmob generate --users 473956` reproduces the paper's
    //    473,956 users; `small` keeps this example instant.)
    let config = GeneratorConfig::small();
    let dataset = TweetGenerator::new(config).generate();
    println!(
        "generated {} tweets from {} users",
        dataset.n_tweets(),
        dataset.n_users()
    );
    println!();

    // 2. Dataset statistics (the paper's Table I).
    println!("--- dataset summary ---");
    println!("{}", DatasetSummary::of(&dataset));
    println!();

    // 3. Population estimation at the national scale (Fig. 3).
    let experiment = Experiment::new(&dataset);
    match experiment.population_correlation(Scale::National) {
        Ok(pop) => {
            println!("--- population estimation, national scale ---");
            println!(
                "Pearson r = {:.3} (p = {:.2e}) over {} cities",
                pop.correlation.r,
                pop.correlation.p_two_tailed,
                pop.areas.len()
            );
            for a in pop.areas.iter().take(5) {
                println!(
                    "  {:<12} census {:>9.0}  rescaled-twitter {:>9.0}",
                    a.name, a.census, a.rescaled
                );
            }
            println!("  ...");
        }
        Err(e) => println!("population estimation failed: {e}"),
    }
    println!();

    // 4. Mobility models (Fig. 4 / Table II), fitted once — the report
    //    for reading, the bundle for keeping.
    let bundle = match experiment.fit(Scale::National) {
        Ok((report, bundle)) => {
            println!("--- mobility estimation, national scale ---");
            print!("{report}");
            bundle
        }
        Err(e) => {
            println!("mobility estimation failed: {e}");
            return;
        }
    };
    println!();

    // 5. Fit once, predict many: persist the fitted models with their
    //    geometry, reload, and answer queries without refitting.
    //    (`ModelBundle::save_file`/`load_file` do the same against a
    //    real path; predictions from a loaded artifact are bit-identical
    //    to the in-memory fit.)
    let mut artifact = Vec::new();
    bundle.save(&mut artifact).expect("serialize artifact");
    let loaded = ModelBundle::load(&artifact[..]).expect("reload artifact");
    println!("--- fit once, predict many ---");
    println!("artifact: {} bytes, {} areas", artifact.len(), loaded.len());
    let origin = loaded.area_index("Sydney").expect("Sydney in bundle");
    println!("top 3 gravity destinations from Sydney:");
    let top = loaded
        .top_k(ModelKind::Gravity2, origin, 3)
        .expect("origin index from the bundle itself");
    for (dest, flow) in top {
        println!(
            "  {:<14} predicted flow {flow:.1}",
            loaded.areas()[dest].name
        );
    }
}
