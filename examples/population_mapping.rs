//! Population mapping: density raster, per-area estimates, and the
//! search-radius sensitivity study (paper Figs. 1 and 3).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example population_mapping
//! ```

use tweetmob::core::{Experiment, Scale};
use tweetmob::geo::{DensityGrid, AUSTRALIA_BBOX};
use tweetmob::synth::{GeneratorConfig, TweetGenerator};

fn main() {
    let dataset = TweetGenerator::new(GeneratorConfig::default()).generate();
    let experiment = Experiment::new(&dataset);

    // Density map (Fig. 1).
    let mut grid = DensityGrid::new(AUSTRALIA_BBOX, 0.25);
    grid.extend(dataset.iter_points());
    println!(
        "tweet-density map ({} tweets, log scale, north up):",
        grid.total()
    );
    print!("{}", grid.render_ascii(3));
    println!();

    // Per-area population estimates at every scale (Fig. 3a).
    for scale in Scale::ALL {
        match experiment.population_correlation(scale) {
            Ok(pop) => {
                println!(
                    "{}: r = {:.3}, rescale factor C = {:.0} (1 Twitter user ≈ {:.0} residents)",
                    scale.name(),
                    pop.correlation.r,
                    pop.rescale_factor,
                    pop.rescale_factor
                );
                // Show the three largest mismatches — the "outliers" the
                // paper notes appearing below the national scale.
                let mut areas: Vec<_> = pop.areas.iter().collect();
                areas.sort_by(|a, b| {
                    let ra = (a.rescaled / a.census).ln().abs();
                    let rb = (b.rescaled / b.census).ln().abs();
                    rb.total_cmp(&ra)
                });
                for a in areas.iter().take(3) {
                    println!(
                        "    outlier {:<16} census {:>9.0} vs estimate {:>9.0} ({:+.0} %)",
                        a.name,
                        a.census,
                        a.rescaled,
                        (a.rescaled / a.census - 1.0) * 100.0
                    );
                }
            }
            Err(e) => println!("{}: {e}", scale.name()),
        }
    }
    println!();

    // Radius sensitivity at the metropolitan scale (Fig. 3b + E9 sweep).
    println!("metropolitan search-radius sweep (Fig. 3b generalised):");
    println!("{:>8} {:>10} {:>14}", "ε (km)", "r", "median users");
    for radius in [0.25, 0.5, 1.0, 2.0, 5.0, 10.0] {
        match experiment.population_correlation_with_radius(Scale::Metropolitan, radius) {
            Ok(pop) => println!(
                "{:>8} {:>10.3} {:>14.0}",
                radius, pop.correlation.r, pop.median_users
            ),
            Err(e) => println!("{radius:>8} {e}"),
        }
    }
    println!();
    println!("expected shape: r peaks near the paper's ε = 2 km and degrades at");
    println!("0.5 km and below (small discs miss each suburb's activity centroid).");
}
