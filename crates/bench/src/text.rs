//! The paper's tables and figures as text: the numeric series each figure
//! plots, next to the paper's reference values.

use crate::{Outcome, Panel, Pdf, Study};
use tweetmob_core::Scale;
use tweetmob_data::DatasetSummary;
use tweetmob_geo::{haversine_km, AUSTRALIA_BBOX};
use tweetmob_stats::powerlaw::fit_scan_xmin;
use tweetmob_synth::NATIONAL_TOP20;

/// **Table I** — statistics of the (synthetic) dataset.
///
/// Paper reference values: lon [112.921112, 159.278717], lat [−54.640301,
/// −9.228820], Sept 2013 – Apr 2014, 6,304,176 tweets, 473,956 users,
/// 13.3 tweets/user, 35.5 h average waiting time, 4.76 locations/user,
/// and 23,462 / 10,031 / 766 / 180 users above 50/100/500/1000 tweets.
pub(crate) fn table1(study: &Study) -> Outcome {
    let ds = study.header("TABLE I — dataset statistics");
    // The paper filters by the Australia bounding box before computing
    // the statistics; the generator already confines tweets to it, but
    // the filter stays in the pipeline for fidelity.
    let s = DatasetSummary::of(&ds.filter_bbox(&AUSTRALIA_BBOX));
    println!("{s}");
    println!();
    println!("paper reference: 6,304,176 tweets | 473,956 users | 13.3 tweets/user");
    println!("                 35.5 h avg waiting | 4.76 locations/user");
    println!("                 >50/>100/>500/>1000: 23462/10031/766/180");
    println!();
    println!(
        "scaled to paper user count, our tweet volume would be ~{:.1} M",
        s.avg_tweets_per_user * 473_956.0 / 1e6
    );
    Ok(())
}

/// **Figure 1** — the tweet-density map of Australia.
///
/// The paper plots geo-tagged tweets on a log colour scale (10⁰…10⁵ per
/// cell) and observes that the dense cells "highlight Australia's most
/// dense areas and roughly resemble its population distribution". This
/// prints the 0.2° raster as an ASCII map (north up) and the top-10
/// densest cells with the nearest known city.
pub(crate) fn fig1(study: &Study) -> Outcome {
    study.header("FIGURE 1 — tweet-density map");
    let grid = study.grid();
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
            .ok_or("empty gazetteer")?;
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
    Ok(())
}

/// **Figure 2** — tweeting-dynamics distributions.
///
/// (a) P(number of tweets per user): heavy-tailed, "essentially follows a
/// power-law distribution".
/// (b) P(ΔT) waiting time between consecutive tweets: heavy-tailed over
/// at least eight decades, with "substantial heterogeneity".
///
/// Prints the log-binned PDFs (the figure's series) plus a power-law MLE
/// for the tweets-per-user tail.
pub(crate) fn fig2(study: &Study) -> Outcome {
    study.header("FIGURE 2 — tweeting dynamics");
    let [counts, waits] = study.dynamics();
    println!("(a) P(no. tweets per user) — log-binned PDF");
    print_pdf(counts);
    match fit_scan_xmin(&counts.samples) {
        Ok(fit) => println!(
            "power-law MLE: alpha = {:.2} (xmin = {:.0}, tail n = {}, KS = {:.3})",
            fit.alpha, fit.xmin, fit.n_tail, fit.ks_distance
        ),
        Err(e) => println!("power-law fit unavailable: {e}"),
    }
    println!();

    println!("(b) P(DT) — waiting time between consecutive tweets, seconds");
    print_pdf(waits);
    let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
    for &x in waits.samples.iter().filter(|&&x| x > 0.0) {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    let decades = if hi > lo { (hi / lo).log10() } else { 0.0 };
    println!("span: {decades:.1} decades (paper: at least eight)");
    Ok(())
}

/// Prints a log-binned PDF as the `(x, p)` series the figure plots.
fn print_pdf(pdf: &Pdf) {
    match &pdf.bins {
        Ok(bins) => {
            println!("{:>14} {:>14} {:>10}", "bin center", "density", "count");
            for b in bins {
                println!("{:>14.3e} {:>14.3e} {:>10}", b.center, b.density, b.count);
            }
        }
        Err(e) => println!("binning unavailable: {e}"),
    }
}

/// **Figure 3** — population correlation at three scales.
///
/// (a) Rescaled Twitter population vs census population for 60 areas (20
/// per scale, ε = 50/25/2 km). Paper: pooled Pearson r = 0.816,
/// p = 2.06×10⁻¹⁵.
/// (b) Metropolitan sensitivity: shrinking ε to 0.5 km "results in
/// significant increase of error".
///
/// `--sweep` adds the extended ε ablation (E9 in DESIGN.md).
pub(crate) fn fig3(study: &Study) -> Outcome {
    study.header("FIGURE 3 — population estimation");
    let exp = study.experiment();

    println!("(a) per-scale correlation at the paper's search radii");
    println!();
    for (scale, pop) in Scale::ALL.iter().zip(study.populations()) {
        match pop {
            Ok(pop) => {
                println!(
                    "--- {} (ε = {} km) ---",
                    scale.name(),
                    scale.search_radius_km()
                );
                println!("{pop}");
                println!("median users/area: {:.0}", pop.median_users);
                println!();
            }
            Err(e) => println!("{}: {e}", scale.name()),
        }
    }
    match exp.pooled_population() {
        Ok(pooled) => {
            println!(
                "pooled over 60 areas: r(log) = {:.3} (p = {:.2e}), r(raw) = {:.3}",
                pooled.pooled.r, pooled.pooled.p_two_tailed, pooled.pooled_raw.r
            );
            println!("paper: r = 0.816, p = 2.06e-15");
        }
        Err(e) => println!("pooled correlation unavailable: {e}"),
    }
    println!();

    println!("(b) metropolitan sensitivity: ε = 2 km vs ε = 0.5 km");
    for radius in [2.0, 0.5] {
        match exp.population_correlation_with_radius(Scale::Metropolitan, radius) {
            Ok(pop) => println!(
                "  ε = {radius:>4} km: r(log) = {:+.3}, median users/area = {:.0}",
                pop.correlation.r, pop.median_users
            ),
            Err(e) => println!("  ε = {radius:>4} km: {e}"),
        }
    }
    println!("paper: the 0.5 km variant scatters visibly more (error grows).");

    if study.sweep {
        println!();
        println!("(E9 ablation) metropolitan radius sweep");
        println!("{:>8} {:>10} {:>16}", "ε (km)", "r(log)", "median users");
        for radius in [0.25, 0.5, 1.0, 2.0, 5.0, 10.0] {
            match exp.population_correlation_with_radius(Scale::Metropolitan, radius) {
                Ok(pop) => println!(
                    "{:>8} {:>10.3} {:>16.0}",
                    radius, pop.correlation.r, pop.median_users
                ),
                Err(e) => println!("{radius:>8} unavailable: {e}"),
            }
        }
    }
    Ok(())
}

/// **Figure 4** — estimated vs extracted mobility, three models × three
/// scales.
///
/// For each scale and model the paper scatters (estimated, extracted)
/// pairs in log-log space with log-binned means (red dots) over the
/// `y = x` diagonal. This prints the binned-mean series plus the
/// dispersion summary ("estimation error is roughly bounded by one
/// decade" for National Gravity 2Param, "almost two decades" for
/// Radiation, …).
pub(crate) fn fig4(study: &Study) -> Outcome {
    study.header("FIGURE 4 — mobility estimation scatters");
    for (scale, mobility) in Scale::ALL.iter().zip(study.mobility()) {
        let mobility = match mobility {
            Ok(m) => m,
            Err(e) => {
                println!("{}: {e}", scale.name());
                continue;
            }
        };
        println!(
            "=== {} ({} trips, {} nonzero pairs) ===",
            scale.name(),
            mobility.report.od_total,
            mobility.report.nonzero_pairs
        );
        for panel in &mobility.panels {
            print_panel(panel);
        }
        println!();
    }
    println!("paper shape: grey clouds hug y = x for the Gravity panels at every");
    println!("scale; Radiation scatters across 2–3 decades (under-estimating at");
    println!("National, over-estimating at State, under-estimating small flows at");
    println!("Metropolitan).");
    Ok(())
}

/// One scatter panel: log-binned mean of extracted traffic vs estimated
/// traffic (the red dots), with the max deviation from y = x in decades.
fn print_panel(panel: &Panel) {
    println!("--- {} ---", panel.model);
    if panel.pairs.len() < 3 {
        println!("  too few pairs ({})", panel.pairs.len());
        return;
    }
    match &panel.means {
        Ok(means) => {
            println!(
                "  {:>14} {:>16} {:>8}   (red-dot series: x = estimated, y = mean extracted)",
                "estimated", "mean extracted", "pairs"
            );
            for b in means {
                println!("  {:>14.3e} {:>16.3e} {:>8}", b.center, b.mean_y, b.count);
            }
        }
        Err(e) => println!("  binning unavailable: {e}"),
    }
    // Deviation in decades (the paper's "error bounded by a decade").
    let devs = panel
        .pairs
        .iter()
        .map(|&(e, o)| (e.log10() - o.log10()).abs());
    let max_dev = devs.clone().fold(0.0f64, f64::max);
    let mean_dev = devs.sum::<f64>() / panel.pairs.len() as f64;
    println!("  deviation from y = x: mean {mean_dev:.2} decades, max {max_dev:.2} decades");
}

/// **Table II** — model performance per scale: Pearson correlation
/// (upper number) and HitRate@50% (lower number).
///
/// Paper values (Gravity 4Param / Gravity 2Param / Radiation):
///
/// ```text
/// National      0.877/0.330   0.912/0.397   0.840/0.184
/// State         0.893/0.487   0.896/0.397   0.742/0.166
/// Metropolitan  0.948/0.530   0.963/0.600   0.918/0.397
/// ```
///
/// Expected reproduction *shape*: Gravity (either variant) beats
/// Radiation at every scale on Pearson, and on HitRate in aggregate;
/// Gravity 2Param is the best or near-best model overall.
pub(crate) fn table2(study: &Study) -> Outcome {
    study.header("TABLE II — model performance");
    let mut table = Vec::new();
    for (scale, mobility) in Scale::ALL.iter().zip(study.mobility()) {
        match mobility {
            Ok(m) => table.push((scale.name(), &m.report)),
            Err(e) => return Err(format!("experiment failed: {e}").into()),
        }
    }

    let model_names = [
        "Gravity 4Param",
        "Gravity 2Param",
        "Radiation",
        "Opportunities",
    ];
    print!("{:<14}", "");
    for m in model_names {
        print!("{m:>16}");
    }
    println!();
    for (scale, report) in &table {
        print!("{scale:<14}");
        for m in model_names {
            match report.evaluation(m) {
                Some(e) => print!("{:>16.3}", e.pearson),
                None => print!("{:>16}", "-"),
            }
        }
        println!("  (Pearson, log)");
        print!("{:<14}", "");
        for m in model_names {
            match report.evaluation(m) {
                Some(e) => print!("{:>16.3}", e.hit_rate_50),
                None => print!("{:>16}", "-"),
            }
        }
        println!("  (HitRate@50%)");
    }
    println!();
    println!("extended metrics (paper future work — logRMSE / Spearman / SSI):");
    for (scale, report) in &table {
        println!("--- {scale} ---");
        for e in &report.evaluations {
            println!("  {e}");
        }
    }
    println!();
    println!("fitted parameters:");
    for (scale, r) in &table {
        println!(
            "  {:<14} G4: α={:.2} β={:.2} γ={:.2} | G2: γ={:.2} | trips={}",
            scale,
            r.gravity4.alpha,
            r.gravity4.beta,
            r.gravity4.gamma,
            r.gravity2.gamma,
            r.od_total
        );
    }
    Ok(())
}
