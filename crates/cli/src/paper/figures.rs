//! Writes the paper's figures as SVG files under `figures/`.
//!
//! The text artifacts print the numeric series; this one draws the same
//! series — Fig. 1 as a density heatmap, Fig. 2 as log-log PDFs, Fig. 3
//! as the rescaled-population scatter, and Fig. 4 as the nine
//! estimated-vs-extracted panels with grey pair clouds, red binned means
//! and the `y = x` diagonal, matching the paper's layout.

use super::chart::ScatterChart;
use super::heatmap::Heatmap;
use super::{warn, Outcome, Pdf, Study};
use crate::{Out, OutputError};
use std::fs;
use std::path::Path;
use tweetmob_core::Scale;

pub(crate) fn figures(study: &Study, out: &mut Out) -> Outcome {
    study.header(out, "SVG figure export")?;
    let out_dir = Path::new("figures");
    fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let mut written = Vec::new();
    let mut save = |out: &mut Out, name: &str, svg: String| {
        let path = out_dir.join(name);
        match fs::write(&path, svg) {
            Ok(()) => written.push(path.display().to_string()),
            Err(e) => warn(out, format_args!("cannot write {}: {e}\n", path.display()))?,
        }
        Ok::<(), OutputError>(())
    };

    // ---- Fig. 1: density heatmap ----------------------------------
    let grid = study.grid();
    let (w, h) = (grid.width(), grid.height());
    let counts = (0..h)
        .flat_map(|row| (0..w).map(move |col| grid.count(col, row).unwrap_or(0)))
        .collect();
    save(
        out,
        "fig1_density.svg",
        Heatmap::new("Fig. 1 — tweet density (log colour scale)", w, h, counts).render(),
    )?;

    // ---- Fig. 2: tweeting dynamics --------------------------------
    let [counts, waits] = study.dynamics();
    let svg = pdf_chart(
        out,
        "Fig. 2(a) — P(no. tweets per user)",
        "tweets per user",
        counts,
    )?;
    save(out, "fig2a_tweets_per_user.svg", svg)?;
    let svg = pdf_chart(
        out,
        "Fig. 2(b) — P(DT), seconds",
        "waiting time DT (s)",
        waits,
    )?;
    save(out, "fig2b_waiting_times.svg", svg)?;

    // ---- Fig. 3: population correlation ----------------------------
    let mut chart = ScatterChart::new(
        "Fig. 3 — rescaled Twitter population vs census",
        "rescaled no. unique twitter users",
        "census population",
    )
    .with_diagonal();
    for (scale, pop) in Scale::ALL.iter().zip(study.populations()) {
        match pop {
            Ok(pop) => {
                let pts: Vec<(f64, f64)> =
                    pop.areas.iter().map(|a| (a.rescaled, a.census)).collect();
                chart = chart.series(scale.name(), &pts);
            }
            Err(e) => warn(out, format_args!("{}: {e}\n", scale.name()))?,
        }
    }
    save(out, "fig3_population.svg", chart.render())?;

    // ---- Fig. 4: nine model panels ---------------------------------
    for (scale, mobility) in Scale::ALL.iter().zip(study.mobility()) {
        let mobility = match mobility {
            Ok(m) => m,
            Err(e) => {
                warn(out, format_args!("{}: {e}\n", scale.name()))?;
                continue;
            }
        };
        for panel in &mobility.panels {
            let mut chart = ScatterChart::new(
                &format!("Fig. 4 — {} / {}", scale.name(), panel.model),
                "estimated traffic",
                "traffic from tweets",
            )
            .with_diagonal()
            .series("pairs", &panel.pairs);
            // Red dots: log-binned means like the paper.
            if let Ok(means) = &panel.means {
                let means: Vec<(f64, f64)> = means.iter().map(|b| (b.center, b.mean_y)).collect();
                chart = chart.series("binned mean", &means);
            }
            let file = format!(
                "fig4_{}_{}.svg",
                scale.name().to_lowercase(),
                panel.model.to_lowercase().replace(' ', "_")
            );
            save(out, &file, chart.render())?;
        }
    }

    writeln!(out, "wrote {} SVG files:", written.len())?;
    for p in written {
        writeln!(out, "  {p}")?;
    }
    Ok(())
}

/// A log-log PDF chart of a Fig. 2 series.
fn pdf_chart(out: &mut Out, title: &str, x_label: &str, pdf: &Pdf) -> Result<String, OutputError> {
    let mut chart = ScatterChart::new(title, x_label, "probability density");
    match &pdf.bins {
        Ok(bins) => {
            let pts: Vec<(f64, f64)> = bins.iter().map(|b| (b.center, b.density)).collect();
            chart = chart.curve("log-binned PDF", &pts);
        }
        Err(e) => warn(out, format_args!("{title}: {e}\n"))?,
    }
    Ok(chart.render())
}
