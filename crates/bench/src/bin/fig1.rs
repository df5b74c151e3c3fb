//! Regenerates **Figure 1** — the tweet-density map of Australia.
//!
//! The paper plots geo-tagged tweets on a log colour scale (10⁰…10⁵ per
//! cell) and observes that the dense cells "highlight Australia's most
//! dense areas and roughly resemble its population distribution". This
//! binary rasterises the synthetic stream at 0.2°, prints the ASCII map
//! (north up) and the top-10 densest cells with the nearest known city.

use tweetmob_bench::{print_header, standard_dataset};
use tweetmob_geo::{haversine_km, DensityGrid, AUSTRALIA_BBOX};
use tweetmob_synth::NATIONAL_TOP20;

fn main() {
    let (cfg, ds) = standard_dataset();
    print_header("FIGURE 1 — tweet-density map", &cfg, &ds);

    let mut grid = DensityGrid::new(AUSTRALIA_BBOX, 0.2);
    grid.extend(ds.iter_points());
    println!(
        "raster: {}×{} cells at 0.2°, {} tweets, max cell {}",
        grid.width(),
        grid.height(),
        grid.total(),
        grid.max_count()
    );
    println!();
    print!("{}", grid.render_ascii(3));
    println!();
    println!("top 10 densest cells (log10 colour scale like the paper):");
    println!(
        "{:<6} {:>10} {:>8}   nearest city",
        "rank", "count", "log10"
    );
    for (rank, cell) in grid.top_cells(10).iter().enumerate() {
        let nearest = NATIONAL_TOP20
            .iter()
            .min_by(|a, b| {
                haversine_km(a.center, cell.center).total_cmp(&haversine_km(b.center, cell.center))
            })
            .expect("gazetteer not empty");
        println!(
            "{:<6} {:>10} {:>8.2}   {} ({:.0} km away)",
            rank + 1,
            cell.count,
            (cell.count as f64).log10(),
            nearest.name,
            haversine_km(nearest.center, cell.center)
        );
    }
    println!();
    println!("expected shape: dense cells hug the east/south-east coast and the");
    println!("capitals, with a nearly empty interior — Australia's population map.");
}
