//! The paper's tables and figures as text: the numeric series each figure
//! plots, next to the paper's reference values.

use super::{Outcome, Panel, Pdf, Study};
use crate::{Out, OutputError};
use tweetmob_core::{ExperimentError, PooledPopulation, Scale};
use tweetmob_data::DatasetSummary;
use tweetmob_geo::{haversine_km, AUSTRALIA_BBOX};
use tweetmob_models::ModelKind;
use tweetmob_stats::powerlaw::fit_scan_xmin;
use tweetmob_synth::NATIONAL_TOP20;

/// **Table I** — statistics of the (synthetic) dataset.
///
/// Paper reference values: lon [112.921112, 159.278717], lat [−54.640301,
/// −9.228820], Sept 2013 – Apr 2014, 6,304,176 tweets, 473,956 users,
/// 13.3 tweets/user, 35.5 h average waiting time, 4.76 locations/user,
/// and 23,462 / 10,031 / 766 / 180 users above 50/100/500/1000 tweets.
pub(crate) fn table1(study: &Study, out: &mut Out) -> Outcome {
    let ds = study.header(out, "TABLE I — dataset statistics")?;
    // The paper filters by the Australia bounding box before computing
    // the statistics; the generator already confines tweets to it, but
    // the filter stays in the pipeline for fidelity.
    let s = DatasetSummary::of(&ds.filter_bbox(&AUSTRALIA_BBOX));
    writeln!(out, "{s}")?;
    writeln!(out)?;
    writeln!(
        out,
        "paper reference: 6,304,176 tweets | 473,956 users | 13.3 tweets/user"
    )?;
    writeln!(
        out,
        "                 35.5 h avg waiting | 4.76 locations/user"
    )?;
    writeln!(
        out,
        "                 >50/>100/>500/>1000: 23462/10031/766/180"
    )?;
    writeln!(out)?;
    writeln!(
        out,
        "scaled to paper user count, our tweet volume would be ~{:.1} M",
        s.avg_tweets_per_user * 473_956.0 / 1e6
    )?;
    Ok(())
}

/// **Figure 1** — the tweet-density map of Australia.
///
/// The paper plots geo-tagged tweets on a log colour scale (10⁰…10⁵ per
/// cell) and observes that the dense cells "highlight Australia's most
/// dense areas and roughly resemble its population distribution". This
/// prints the 0.2° raster as an ASCII map (north up) and the top-10
/// densest cells with the nearest known city.
pub(crate) fn fig1(study: &Study, out: &mut Out) -> Outcome {
    study.header(out, "FIGURE 1 — tweet-density map")?;
    let grid = study.grid();
    writeln!(
        out,
        "raster: {}×{} cells at 0.2°, {} tweets, max cell {}",
        grid.width(),
        grid.height(),
        grid.total(),
        grid.max_count()
    )?;
    writeln!(out)?;
    write!(out, "{}", grid.render_ascii(3))?;
    writeln!(out)?;
    writeln!(
        out,
        "top 10 densest cells (log10 colour scale like the paper):"
    )?;
    writeln!(
        out,
        "{:<6} {:>10} {:>8}   nearest city",
        "rank", "count", "log10"
    )?;
    for (rank, cell) in grid.top_cells(10).iter().enumerate() {
        let nearest = NATIONAL_TOP20
            .iter()
            .min_by(|a, b| {
                haversine_km(a.center, cell.center).total_cmp(&haversine_km(b.center, cell.center))
            })
            .ok_or("empty gazetteer")?;
        writeln!(
            out,
            "{:<6} {:>10} {:>8.2}   {} ({:.0} km away)",
            rank + 1,
            cell.count,
            (cell.count as f64).log10(),
            nearest.name,
            haversine_km(nearest.center, cell.center)
        )?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "expected shape: dense cells hug the east/south-east coast and the"
    )?;
    writeln!(
        out,
        "capitals, with a nearly empty interior — Australia's population map."
    )?;
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
pub(crate) fn fig2(study: &Study, out: &mut Out) -> Outcome {
    study.header(out, "FIGURE 2 — tweeting dynamics")?;
    let [counts, waits] = study.dynamics();
    writeln!(out, "(a) P(no. tweets per user) — log-binned PDF")?;
    print_pdf(out, counts)?;
    match fit_scan_xmin(&counts.samples) {
        Ok(fit) => writeln!(
            out,
            "power-law MLE: alpha = {:.2} (xmin = {:.0}, tail n = {}, KS = {:.3})",
            fit.alpha, fit.xmin, fit.n_tail, fit.ks_distance
        )?,
        Err(e) => writeln!(out, "power-law fit unavailable: {e}")?,
    }
    writeln!(out)?;

    writeln!(
        out,
        "(b) P(DT) — waiting time between consecutive tweets, seconds"
    )?;
    print_pdf(out, waits)?;
    let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
    for &x in waits.samples.iter().filter(|&&x| x > 0.0) {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    let decades = if hi > lo { (hi / lo).log10() } else { 0.0 };
    writeln!(out, "span: {decades:.1} decades (paper: at least eight)")?;
    Ok(())
}

/// Prints a log-binned PDF as the `(x, p)` series the figure plots.
fn print_pdf(out: &mut Out, pdf: &Pdf) -> Result<(), OutputError> {
    match &pdf.bins {
        Ok(bins) => {
            writeln!(
                out,
                "{:>14} {:>14} {:>10}",
                "bin center", "density", "count"
            )?;
            for b in bins {
                writeln!(
                    out,
                    "{:>14.3e} {:>14.3e} {:>10}",
                    b.center, b.density, b.count
                )?;
            }
        }
        Err(e) => writeln!(out, "binning unavailable: {e}")?,
    }
    Ok(())
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
pub(crate) fn fig3(study: &Study, out: &mut Out) -> Outcome {
    study.header(out, "FIGURE 3 — population estimation")?;
    let exp = &study.experiment;
    writeln!(out, "(a) per-scale correlation at the paper's search radii")?;
    writeln!(out)?;
    let populations = study.populations();
    for (scale, pop) in Scale::ALL.iter().zip(&populations) {
        match pop {
            Ok(pop) => {
                writeln!(
                    out,
                    "--- {} (ε = {} km) ---",
                    scale.name(),
                    scale.search_radius_km()
                )?;
                writeln!(out, "{pop}")?;
                writeln!(out, "median users/area: {:.0}", pop.median_users)?;
                writeln!(out)?;
            }
            Err(e) => writeln!(out, "{}: {e}", scale.name())?,
        }
    }
    let pooled = populations
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())
        .and_then(|per_scale| {
            PooledPopulation::of(per_scale).map_err(|e| ExperimentError::from(e).to_string())
        });
    match pooled {
        Ok(pooled) => {
            writeln!(
                out,
                "pooled over 60 areas: r(log) = {:.3} (p = {:.2e}), r(raw) = {:.3}",
                pooled.pooled.r, pooled.pooled.p_two_tailed, pooled.pooled_raw.r
            )?;
            writeln!(out, "paper: r = 0.816, p = 2.06e-15")?;
        }
        Err(e) => writeln!(out, "pooled correlation unavailable: {e}")?,
    }
    writeln!(out)?;

    writeln!(out, "(b) metropolitan sensitivity: ε = 2 km vs ε = 0.5 km")?;
    for radius in [2.0, 0.5] {
        match exp.population_correlation_with_radius(Scale::Metropolitan, radius) {
            Ok(pop) => writeln!(
                out,
                "  ε = {radius:>4} km: r(log) = {:+.3}, median users/area = {:.0}",
                pop.correlation.r, pop.median_users
            )?,
            Err(e) => writeln!(out, "  ε = {radius:>4} km: {e}")?,
        }
    }
    writeln!(
        out,
        "paper: the 0.5 km variant scatters visibly more (error grows)."
    )?;

    if study.sweep {
        writeln!(out)?;
        writeln!(out, "(E9 ablation) metropolitan radius sweep")?;
        writeln!(
            out,
            "{:>8} {:>10} {:>16}",
            "ε (km)", "r(log)", "median users"
        )?;
        for radius in [0.25, 0.5, 1.0, 2.0, 5.0, 10.0] {
            match exp.population_correlation_with_radius(Scale::Metropolitan, radius) {
                Ok(pop) => writeln!(
                    out,
                    "{:>8} {:>10.3} {:>16.0}",
                    radius, pop.correlation.r, pop.median_users
                )?,
                Err(e) => writeln!(out, "{radius:>8} unavailable: {e}")?,
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
pub(crate) fn fig4(study: &Study, out: &mut Out) -> Outcome {
    study.header(out, "FIGURE 4 — mobility estimation scatters")?;
    for (scale, mobility) in Scale::ALL.iter().zip(study.mobility()) {
        let mobility = match mobility {
            Ok(m) => m,
            Err(e) => {
                writeln!(out, "{}: {e}", scale.name())?;
                continue;
            }
        };
        writeln!(
            out,
            "=== {} ({} trips, {} nonzero pairs) ===",
            scale.name(),
            mobility.report.od_total,
            mobility.report.nonzero_pairs
        )?;
        for panel in &mobility.panels {
            print_panel(out, panel)?;
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "paper shape: grey clouds hug y = x for the Gravity panels at every"
    )?;
    writeln!(
        out,
        "scale; Radiation scatters across 2–3 decades (under-estimating at"
    )?;
    writeln!(
        out,
        "National, over-estimating at State, under-estimating small flows at"
    )?;
    writeln!(out, "Metropolitan).")?;
    Ok(())
}

/// One scatter panel: log-binned mean of extracted traffic vs estimated
/// traffic (the red dots), with the max deviation from y = x in decades.
fn print_panel(out: &mut Out, panel: &Panel) -> Result<(), OutputError> {
    writeln!(out, "--- {} ---", panel.model)?;
    if panel.pairs.len() < 3 {
        writeln!(out, "  too few pairs ({})", panel.pairs.len())?;
        return Ok(());
    }
    match &panel.means {
        Ok(means) => {
            writeln!(
                out,
                "  {:>14} {:>16} {:>8}   (red-dot series: x = estimated, y = mean extracted)",
                "estimated", "mean extracted", "pairs"
            )?;
            for b in means {
                writeln!(
                    out,
                    "  {:>14.3e} {:>16.3e} {:>8}",
                    b.center, b.mean_y, b.count
                )?;
            }
        }
        Err(e) => writeln!(out, "  binning unavailable: {e}")?,
    }
    // Deviation in decades (the paper's "error bounded by a decade").
    let devs = panel
        .pairs
        .iter()
        .map(|&(e, o)| (e.log10() - o.log10()).abs());
    let max_dev = devs.clone().fold(0.0f64, f64::max);
    let mean_dev = devs.sum::<f64>() / panel.pairs.len() as f64;
    writeln!(
        out,
        "  deviation from y = x: mean {mean_dev:.2} decades, max {max_dev:.2} decades"
    )?;
    Ok(())
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
pub(crate) fn table2(study: &Study, out: &mut Out) -> Outcome {
    study.header(out, "TABLE II — model performance")?;
    let mut table = Vec::new();
    for (scale, mobility) in Scale::ALL.iter().zip(study.mobility()) {
        match mobility {
            Ok(m) => table.push((scale.name(), &m.report)),
            Err(e) => return Err(format!("experiment failed: {e}").into()),
        }
    }

    write!(out, "{:<14}", "")?;
    for kind in ModelKind::ALL {
        write!(out, "{:>16}", kind.name())?;
    }
    writeln!(out)?;
    for (scale, report) in &table {
        write!(out, "{scale:<14}")?;
        for e in &report.evaluations {
            write!(out, "{:>16.3}", e.pearson)?;
        }
        writeln!(out, "  (Pearson, log)")?;
        write!(out, "{:<14}", "")?;
        for e in &report.evaluations {
            write!(out, "{:>16.3}", e.hit_rate_50)?;
        }
        writeln!(out, "  (HitRate@50%)")?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "extended metrics (paper future work — logRMSE / Spearman / SSI):"
    )?;
    for (scale, report) in &table {
        writeln!(out, "--- {scale} ---")?;
        for e in &report.evaluations {
            writeln!(out, "  {e}")?;
        }
    }
    writeln!(out)?;
    writeln!(out, "fitted parameters:")?;
    for (scale, r) in &table {
        writeln!(
            out,
            "  {:<14} G4: α={:.2} β={:.2} γ={:.2} | G2: γ={:.2} | trips={}",
            scale,
            r.models.gravity4.alpha,
            r.models.gravity4.beta,
            r.models.gravity4.gamma,
            r.models.gravity2.gamma,
            r.od_total
        )?;
    }
    Ok(())
}
