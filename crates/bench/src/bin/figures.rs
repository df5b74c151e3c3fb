//! Writes the paper's figures as SVG files under `figures/`.
//!
//! The other regeneration binaries print the numeric series; this one
//! draws them — Fig. 1 as a density heatmap, Fig. 2 as log-log PDFs,
//! Fig. 3 as the rescaled-population scatter, and Fig. 4 as the nine
//! estimated-vs-extracted panels with grey pair clouds, red binned means
//! and the `y = x` diagonal, matching the paper's layout.

use std::fs;
use std::path::Path;
use tweetmob_bench::{print_header, standard_dataset};
use tweetmob_core::{Experiment, Scale};
use tweetmob_geo::{DensityGrid, AUSTRALIA_BBOX};
use tweetmob_models::FittedModel;
use tweetmob_plot::{AxisKind, Heatmap, ScatterChart};
use tweetmob_stats::binning::LogBins;

fn main() {
    let (cfg, ds) = standard_dataset();
    print_header("SVG figure export", &cfg, &ds);
    let out_dir = Path::new("figures");
    if let Err(e) = fs::create_dir_all(out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    let mut written = Vec::new();
    let mut save = |name: &str, svg: String| {
        let path = out_dir.join(name);
        match fs::write(&path, svg) {
            Ok(()) => written.push(path.display().to_string()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    };

    // ---- Fig. 1: density heatmap ----------------------------------
    let mut grid = DensityGrid::new(AUSTRALIA_BBOX, 0.2);
    grid.extend(ds.iter_points());
    let (w, h) = (grid.width(), grid.height());
    let mut counts = Vec::with_capacity(w * h);
    for row in 0..h {
        for col in 0..w {
            counts.push(grid.count(col, row).unwrap_or(0));
        }
    }
    save(
        "fig1_density.svg",
        Heatmap::new("Fig. 1 — tweet density (log colour scale)", w, h, counts).render(),
    );

    // ---- Fig. 2: tweeting dynamics --------------------------------
    let counts: Vec<f64> = ds.tweets_per_user().iter().map(|&c| c as f64).collect();
    save(
        "fig2a_tweets_per_user.svg",
        pdf_chart(
            "Fig. 2(a) — P(no. tweets per user)",
            "tweets per user",
            &counts,
            4,
        ),
    );
    let waits: Vec<f64> = ds
        .waiting_times_secs()
        .iter()
        .map(|&s| s as f64)
        .filter(|&s| s > 0.0)
        .collect();
    save(
        "fig2b_waiting_times.svg",
        pdf_chart(
            "Fig. 2(b) — P(DT), seconds",
            "waiting time DT (s)",
            &waits,
            2,
        ),
    );

    // ---- Fig. 3: population correlation ----------------------------
    let exp = Experiment::new(&ds);
    let mut chart = ScatterChart::new(
        "Fig. 3 — rescaled Twitter population vs census",
        "rescaled no. unique twitter users",
        "census population",
    )
    .x_axis(AxisKind::Log)
    .y_axis(AxisKind::Log)
    .with_diagonal();
    for scale in Scale::ALL {
        match exp.population_correlation(scale) {
            Ok(pop) => {
                let pts: Vec<(f64, f64)> =
                    pop.areas.iter().map(|a| (a.rescaled, a.census)).collect();
                chart = chart.series(scale.name(), &pts);
            }
            Err(e) => eprintln!("{}: {e}", scale.name()),
        }
    }
    save("fig3_population.svg", chart.render());

    // ---- Fig. 4: nine model panels ---------------------------------
    for scale in Scale::ALL {
        let report = match exp.mobility(scale) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{}: {e}", scale.name());
                continue;
            }
        };
        let panels: [(&str, &dyn FittedModel); 3] = [
            ("Gravity 4Param", &report.gravity4),
            ("Gravity 2Param", &report.gravity2),
            ("Radiation", &report.radiation),
        ];
        for (name, model) in panels {
            let mut pairs = Vec::new();
            for o in &report.observations {
                if o.observed_flow > 0.0 {
                    let p = model.predict_flow(o);
                    if p > 0.0 && p.is_finite() {
                        pairs.push((p, o.observed_flow));
                    }
                }
            }
            let mut chart = ScatterChart::new(
                &format!("Fig. 4 — {} / {}", scale.name(), name),
                "estimated traffic",
                "traffic from tweets",
            )
            .x_axis(AxisKind::Log)
            .y_axis(AxisKind::Log)
            .with_diagonal()
            .series("pairs", &pairs);
            // Red dots: log-binned means like the paper.
            let est: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let obs: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            if let Ok(bins) = LogBins::covering(&est, 2) {
                if let Ok(stats) = bins.binned_mean(&est, &obs) {
                    let means: Vec<(f64, f64)> = stats
                        .iter()
                        .filter(|b| b.count > 0)
                        .map(|b| (b.center, b.mean_y))
                        .collect();
                    chart = chart.series("binned mean", &means);
                }
            }
            let file = format!(
                "fig4_{}_{}.svg",
                scale.name().to_lowercase(),
                name.to_lowercase().replace(' ', "_")
            );
            save(&file, chart.render());
        }
    }

    println!("wrote {} SVG files:", written.len());
    for p in written {
        println!("  {p}");
    }
}

/// A log-log PDF chart from raw samples.
fn pdf_chart(title: &str, x_label: &str, samples: &[f64], bins_per_decade: usize) -> String {
    let mut chart = ScatterChart::new(title, x_label, "probability density")
        .x_axis(AxisKind::Log)
        .y_axis(AxisKind::Log);
    match LogBins::covering(samples, bins_per_decade) {
        Ok(bins) => {
            let pts: Vec<(f64, f64)> = bins
                .pdf(samples)
                .iter()
                .filter(|b| b.count > 0)
                .map(|b| (b.center, b.density))
                .collect();
            chart = chart.series_with_style(
                "log-binned PDF",
                &pts,
                tweetmob_plot::SeriesStyle {
                    color: "#1f77b4",
                    radius: 3.0,
                    opacity: 0.9,
                    joined: true,
                },
            );
        }
        Err(e) => eprintln!("{title}: {e}"),
    }
    chart.render()
}
